"""Command-line surface: reproducible experiments over the library.

Subcommands: gen-synth, simulate, fit-decay, select, score, export-curves.
Configuration is a single declarative JSON file plus ``--set key=value``
overrides.  Exit codes: 0 ok, 2 config error, 3 data error, 4 external
predictor failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .corpus import (
    CorpusFormatError,
    Dataset,
    EmbeddingTable,
    load_embeddings,
    parse_conll,
    serialize_conll,
)
from .decay import DecayFit, FitConfig, FitError, fit, parse_fit, serialize_fit
from .loop import (
    CheckpointRecord,
    LoopConfig,
    RunHistory,
    STRATEGY_NAMES,
    make_strategy,
    run_active_loop,
)
from .partition import (
    AlignmentError,
    ParameterError,
    Partition,
    PartitionConfig,
    PartitionKind,
    build_identity_partition,
    build_partition,
    load_partition,
    save_partition,
)
from .scoring import export_decay_curves, gold_phrases, micro_f1
from .selection import SelectionState, select_batch
from .simlab import SynthSpec, builtin_trainer, gen_synthetic, one_hot_embeddings
from .strategies import (
    CapabilityError,
    PredictionRecord,
    UncertaintySnapshot,
    read_records,
    write_records,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PREDICTOR = 4


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class ExternalPredictorError(RuntimeError):
    """The external predictor command failed."""


# -- config handling ---------------------------------------------------------


def _apply_override(config: dict, key: str, raw_value: str) -> None:
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override {key!r}: {part!r} is not a table")
    node[parts[-1]] = value


def load_config(path: str | None, overrides: Sequence[str]) -> dict:
    config: dict = {}
    if path is not None:
        try:
            config = json.loads(Path(path).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        _apply_override(config, key, value)
    return config


def config_hash(config: dict) -> str:
    """Hash of the run-defining configuration (the output location is
    excluded so a moved run directory can still be resumed)."""
    trimmed = copy.deepcopy(config)
    trimmed.get("paths", {}).pop("output", None)
    return hashlib.sha256(
        json.dumps(trimmed, sort_keys=True).encode("utf-8")
    ).hexdigest()


_ORPHAN_TAGS = "I- tags with no open phrase of their type (kept as written)"


def _warn(path: str, count: int, what: str) -> None:
    """One stderr line for the problems an input file's reader tolerated."""
    if count:
        print(f"warning: {path}: {count} {what}", file=sys.stderr)


def _read_dataset(path: str, role: str) -> Dataset:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            dataset = parse_conll(fh, role=role)
    except FileNotFoundError as exc:
        raise ConfigError(f"{role} file not found: {path}") from exc
    _warn(path, dataset.bio_warnings, _ORPHAN_TAGS)
    return dataset


def _read_embeddings(path: str) -> EmbeddingTable:
    with open(path, "r", encoding="utf-8") as fh:
        table = load_embeddings(fh, normalize=True)
    _warn(path, table.duplicate_warnings, "duplicate surfaces (the last entry kept)")
    return table


# -- external predictor -------------------------------------------------------


class ExternalPredictor:
    """Subprocess boundary: the command reads a CoNLL training file and an
    input file and writes prediction records (JSON lines).

    The command template must contain {train}, {input}, and {output}
    placeholders; {logprobs} and {ensemble_k} are substituted with 0/1 and
    an integer when present.  Records in the output file are keyed by the
    0-based position of the sentence in the input file; the harness maps
    them back to its own sentence ids.
    """

    def __init__(self, command: str, train_path: Path, workdir: Path):
        self.command = command
        self.train_path = train_path
        self.workdir = workdir
        self._counter = 0

    def predict(self, dataset, want_logprobs=False, ensemble_k=None):
        sentences = list(dataset.sentences if isinstance(dataset, Dataset) else dataset)
        ds = Dataset(tuple(sentences), frozenset(), role="input")
        self._counter += 1
        input_path = self.workdir / f"input_{self._counter:05d}.conll"
        output_path = self.workdir / f"output_{self._counter:05d}.jsonl"
        input_path.write_text(serialize_conll(ds), encoding="utf-8")
        command = self.command.format(
            train=str(self.train_path),
            input=str(input_path),
            output=str(output_path),
            logprobs=int(bool(want_logprobs)),
            ensemble_k=int(ensemble_k or 0),
        )
        result = subprocess.run(shlex.split(command), capture_output=True, text=True)
        if result.returncode != 0:
            raise ExternalPredictorError(
                f"external predictor exited with {result.returncode}: "
                f"{result.stderr.strip()[:500]}"
            )
        try:
            payload = output_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ExternalPredictorError(
                f"external predictor wrote no output file: {exc}"
            ) from exc
        try:
            records = read_records(payload)
        except (ValueError, KeyError) as exc:
            raise ExternalPredictorError(
                f"external predictor wrote malformed records: {exc}"
            ) from exc
        missing = [pos for pos in range(len(sentences)) if pos not in records]
        if missing:
            raise ExternalPredictorError(
                f"external predictor omitted input positions {missing[:5]}..."
            )
        return {
            s.id: dataclasses.replace(records[pos], sentence_id=s.id)
            for pos, s in enumerate(sentences)
        }


def external_trainer(command: str, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)

    def train(train_ds: Dataset) -> ExternalPredictor:
        train_path = workdir / "train_current.conll"
        train_path.write_text(serialize_conll(train_ds), encoding="utf-8")
        return ExternalPredictor(command, train_path, workdir)

    return train


# -- capability matrix --------------------------------------------------------


def check_capabilities(
    strategy_name: str, predictor_cfg: dict, validation: Dataset, has_embeddings: bool
) -> None:
    strategy = make_strategy(strategy_name)
    builtin = predictor_cfg.get("type", "builtin") == "builtin"
    has_logprobs = builtin or bool(predictor_cfg.get("logprobs", False))
    has_ensemble = builtin or bool(predictor_cfg.get("ensemble", False))
    if strategy.needs_val_labels and not validation.has_labels:
        raise ConfigError(
            f"strategy {strategy_name!r} requires a labeled validation dataset"
        )
    if strategy.needs_logprobs and not has_logprobs:
        raise ConfigError(
            f"strategy {strategy_name!r} requires per-token log-probabilities"
        )
    if strategy.needs_ensemble and not has_ensemble:
        raise ConfigError(f"strategy {strategy_name!r} requires ensemble predictions")
    if strategy.needs_embeddings and not has_embeddings:
        raise ConfigError(f"strategy {strategy_name!r} needs an embeddings file or one_hot")


# -- gen-synth ----------------------------------------------------------------


def cmd_gen_synth(args) -> int:
    config = load_config(args.config, args.set or [])
    out_dir = Path(args.output or config.get("output", "synth"))
    if out_dir.exists() and not args.force:
        raise ConfigError(f"output directory {out_dir} exists (use --force)")
    spec_cfg = {
        k: v
        for k, v in config.items()
        if k in SynthSpec.__dataclass_fields__
    }
    spec = SynthSpec(**spec_cfg)
    sizes = {
        "train": int(config.get("train_tokens", 100_000)),
        "valid": int(config.get("val_tokens", 10_000)),
        "test": int(config.get("test_tokens", 10_000)),
    }
    pool_tokens = int(config.get("pool_tokens", 0))
    sentences_per_doc = config.get("sentences_per_doc")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "spec": {f: getattr(spec, f) for f in SynthSpec.__dataclass_fields__},
        "sizes": sizes,
        "pool_tokens": pool_tokens,
        "sentences_per_doc": sentences_per_doc,
        "version": __version__,
    }
    streams = {"train": 0, "valid": 1, "test": 2, "pool": 3}
    written = {}
    for name, tokens in sizes.items():
        ds = gen_synthetic(
            spec, tokens, role=name, stream=streams[name],
            sentences_per_doc=sentences_per_doc,
        )
        path = out_dir / f"{name}.conll"
        path.write_text(serialize_conll(ds), encoding="utf-8")
        written[name] = {"tokens": ds.token_count, "sentences": len(ds)}
    if pool_tokens > 0:
        ds = gen_synthetic(
            spec, pool_tokens, role="pool", stream=streams["pool"],
            sentences_per_doc=sentences_per_doc,
        )
        (out_dir / "pool.conll").write_text(serialize_conll(ds), encoding="utf-8")
        written["pool"] = {"tokens": ds.token_count, "sentences": len(ds)}
    manifest["written"] = written
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    print(f"wrote {', '.join(sorted(written))} to {out_dir}")
    return EXIT_OK


# -- simulate ------------------------------------------------------------------


def _build_partitions(
    config: dict, pool: Dataset, validation: Dataset, table: EmbeddingTable | None
) -> list[Partition]:
    pcfg = config.get("partitions", {})
    union = list(pool.sentences) + list(validation.sentences)
    if pcfg.get("kinds") == "identity" or pcfg.get("identity", False):
        return [build_identity_partition(union)]
    kinds = pcfg.get("kinds", ["SENTENCE", "WORD", "WORD_SHAPE", "WORD_SENTENCE"])
    if table is None:
        raise ConfigError("embedding-based partitions need an embeddings file")
    cfg = PartitionConfig(
        sentence_groups=int(pcfg.get("sentence_groups", 10)),
        word_groups=int(pcfg.get("word_groups", 10)),
        word_subgroups=int(pcfg.get("word_subgroups", 10)),
        temperature=float(pcfg.get("temperature", 0.1)),
        kmeans_batch=int(pcfg.get("kmeans_batch", 1024)),
        kmeans_iters=int(pcfg.get("kmeans_iters", 100)),
        seed=int(pcfg.get("seed", config.get("seed", 0))),
    )
    return [build_partition(union, table, PartitionKind(k), cfg) for k in kinds]


def _loop_config(config: dict) -> LoopConfig:
    lcfg = dict(config.get("loop", {}))
    known = {
        k: v for k, v in lcfg.items() if k in LoopConfig.__dataclass_fields__
    }
    unknown = set(lcfg) - set(known)
    if unknown:
        raise ConfigError(f"unknown loop options: {sorted(unknown)}")
    known.setdefault("seed", int(config.get("seed", 0)))
    known["mode"] = config.get("mode", known.get("mode", "SENTENCE"))
    if config.get("class_weights") is not None:
        known["class_weights"] = dict(config["class_weights"])
    if config.get("epsilon") is not None:
        known["epsilon"] = float(config["epsilon"])
    try:
        known["fit"] = FitConfig(**config.get("fit", {}))
        return LoopConfig(**known)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


class _RunWriter:
    """Observer that persists checkpoints, batches, fits, and snapshots."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        (run_dir / "batches").mkdir(parents=True, exist_ok=True)
        (run_dir / "fits").mkdir(exist_ok=True)
        (run_dir / "snapshots").mkdir(exist_ok=True)
        (run_dir / "refpred").mkdir(exist_ok=True)
        self.history_path = run_dir / "history.jsonl"

    def __call__(self, event: str, payload: dict) -> None:
        if event == "checkpoint":
            record: CheckpointRecord = payload["record"]
            with open(self.history_path, "a", encoding="utf-8") as fh:
                fh.write(record.to_json() + "\n")
            snap: UncertaintySnapshot | None = payload.get("snapshot")
            if snap is not None:
                path = self.run_dir / "snapshots" / f"checkpoint_{record.index:04d}.json"
                path.write_text(
                    json.dumps(
                        {
                            "tokens": snap.checkpoint_tokens,
                            "scores": {str(k): v for k, v in sorted(snap.scores.items())},
                        },
                        sort_keys=True,
                    ),
                    encoding="utf-8",
                )
            ref = payload.get("reference_labels")
            if ref is not None:
                path = self.run_dir / "refpred" / f"checkpoint_{record.index:04d}.jsonl"
                with open(path, "w", encoding="utf-8") as fh:
                    write_records(
                        (
                            PredictionRecord(sentence_id=sid, labels=tuple(labels))
                            for sid, labels in sorted(ref.items())
                        ),
                        fh,
                    )
        elif event == "batch":
            batch = payload["batch"]
            path = self.run_dir / "batches" / f"batch_{payload['batch_index']:04d}.json"
            path.write_text(
                json.dumps(
                    {
                        "batch_index": payload["batch_index"],
                        "sentence_ids": list(batch.sentence_ids),
                        "token_count": batch.token_count,
                        "exhausted": batch.exhausted,
                    },
                    sort_keys=True,
                ),
                encoding="utf-8",
            )
        elif event == "fits":
            for p, f in enumerate(payload["fits"]):
                path = (
                    self.run_dir
                    / "fits"
                    / f"batch_{payload['batch_index']:04d}_p{p}.txt"
                )
                path.write_text(
                    serialize_fit(f.params, f.objective_value), encoding="utf-8"
                )


def _load_resume(run_dir: Path):
    history_path = run_dir / "history.jsonl"
    if not history_path.exists():
        return None, [], []
    history = RunHistory.from_jsonl(history_path.read_text(encoding="utf-8"))
    snapshots = []
    for path in sorted((run_dir / "snapshots").glob("checkpoint_*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        snapshots.append(
            UncertaintySnapshot(
                checkpoint_tokens=payload["tokens"],
                scores={int(k): v for k, v in payload["scores"].items()},
            )
        )
    refs = []
    for path in sorted((run_dir / "refpred").glob("checkpoint_*.jsonl")):
        records = read_records(path.read_text(encoding="utf-8"), validate=False)
        refs.append({sid: rec.labels for sid, rec in records.items()})
    return history, snapshots, refs


def cmd_simulate(args) -> int:
    config = load_config(args.config, args.set or [])
    if args.strategy:
        config["strategy"] = args.strategy
    strategy_name = config.get("strategy", "edg")
    if strategy_name not in STRATEGY_NAMES:
        raise ConfigError(
            f"unknown strategy {strategy_name!r}; expected one of {STRATEGY_NAMES}"
        )
    paths = config.get("paths", {})
    for required in ("pool", "validation", "output"):
        if required not in paths:
            raise ConfigError(f"paths.{required} is required")

    run_dir = Path(paths["output"])
    resume = bool(args.resume)
    if run_dir.exists() and any(run_dir.iterdir()) and not resume and not args.force:
        raise ConfigError(f"run directory {run_dir} exists (use --resume or --force)")

    pool = _read_dataset(paths["pool"], "pool")
    validation = _read_dataset(paths["validation"], "validation")
    test = _read_dataset(paths["test"], "test") if "test" in paths else None
    pseudo_test = (
        _read_dataset(paths["pseudo_test"], "pseudo_test")
        if "pseudo_test" in paths
        else None
    )

    predictor_cfg = config.get("predictor", {"type": "builtin"})
    has_table = "embeddings" in paths or bool(config.get("partitions", {}).get("one_hot"))
    check_capabilities(strategy_name, predictor_cfg, validation, has_table)
    strategy = make_strategy(strategy_name)
    if (
        strategy.needs_val_labels
        and config.get("class_weights")
        and "O" not in config["class_weights"]
    ):
        raise ConfigError("class_weights must include an 'O' entry for fitting")

    table = None
    if "embeddings" in paths:
        table = _read_embeddings(paths["embeddings"])
    elif config.get("partitions", {}).get("one_hot", False):
        spec_cfg = {
            k: v
            for k, v in config.get("synth_spec", {}).items()
            if k in SynthSpec.__dataclass_fields__
        }
        table = one_hot_embeddings(SynthSpec(**spec_cfg))

    loop_cfg = _loop_config(config)
    partitions = _build_partitions(config, pool, validation, table)

    run_dir.mkdir(parents=True, exist_ok=True)
    norm_config = copy.deepcopy(config)
    manifest = {
        "config": norm_config,
        "config_hash": config_hash(norm_config),
        "strategy": strategy_name,
        "version": __version__,
        "n_partitions": len(partitions),
        "ensemble_k": loop_cfg.ensemble_k if strategy.needs_ensemble else None,
        "epsilon": loop_cfg.epsilon,
    }
    manifest_path = run_dir / "manifest.json"
    if resume and manifest_path.exists():
        previous = json.loads(manifest_path.read_text(encoding="utf-8"))
        if previous.get("config_hash") != manifest["config_hash"]:
            raise ConfigError("resume config differs from the recorded manifest")
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    pdir = run_dir / "partitions"
    pdir.mkdir(exist_ok=True)
    for i, p in enumerate(partitions):
        (pdir / f"p{i}.json").write_text(save_partition(p), encoding="utf-8")

    if predictor_cfg.get("type", "builtin") == "builtin":
        trainer = builtin_trainer(
            smoothing_alpha=float(predictor_cfg.get("smoothing_alpha", 1.0)),
            seed=int(config.get("seed", 0)),
        )
    else:
        command = predictor_cfg.get("command")
        if not command:
            raise ConfigError("external predictor needs a 'command' template")
        trainer = external_trainer(command, run_dir / "external")

    resume_history = resume_snaps = resume_refs = None
    if resume:
        resume_history, resume_snaps, resume_refs = _load_resume(run_dir)

    writer = _RunWriter(run_dir)
    history = run_active_loop(
        loop_cfg,
        partitions,
        trainer,
        pool,
        validation,
        strategy=strategy_name,
        table=table,
        test=test,
        pseudo_test=pseudo_test,
        observer=writer,
        resume_history=resume_history,
        resume_snapshots=resume_snaps,
        resume_reference=resume_refs,
    )

    scores_lines = ["checkpoint,train_tokens,val_f1,test_f1,pseudo_f1,weighted_val_f1"]
    for rec in history.checkpoints:
        def cell(v):
            return "" if v is None else repr(v)
        scores_lines.append(
            f"{rec.index},{rec.train_tokens},{cell(rec.val_f1)},{cell(rec.test_f1)},"
            f"{cell(rec.pseudo_f1)},{cell(rec.weighted_val_f1)}"
        )
    (run_dir / "scores.csv").write_text("\n".join(scores_lines) + "\n", encoding="utf-8")

    record_history = history.group_record_history(len(partitions))
    if all(len(records) >= 2 for records in record_history):
        fits = [fit(records, config=loop_cfg.fit) for records in record_history]
        for i, f in enumerate(fits):
            (run_dir / "fits" / f"final_p{i}.txt").write_text(
                serialize_fit(f.params, f.objective_value), encoding="utf-8"
            )
        (run_dir / "curves.csv").write_text(
            export_decay_curves(fits, partitions), encoding="utf-8"
        )
    print(f"run complete: {len(history.checkpoints)} checkpoints in {run_dir}")
    return EXIT_OK


# -- fit-decay ------------------------------------------------------------------


def cmd_fit_decay(args) -> int:
    history = RunHistory.from_jsonl(Path(args.history).read_text(encoding="utf-8"))
    with_records = [c for c in history.checkpoints if c.group_records is not None]
    if len(with_records) < 2:
        raise FitError("history must contain at least 2 checkpoints with group errors")
    n_partitions = len(with_records[0].group_records)
    record_history = history.group_record_history(n_partitions)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fit_cfg = FitConfig(seed=args.fit_seed)
    fits = [fit(records, config=fit_cfg) for records in record_history]
    partitions = None
    if args.partitions:
        partitions = [
            load_partition(Path(p).read_text(encoding="utf-8")) for p in args.partitions
        ]
    for i, f in enumerate(fits):
        (out_dir / f"fit_p{i}.txt").write_text(
            serialize_fit(f.params, f.objective_value), encoding="utf-8"
        )
    (out_dir / "curves.csv").write_text(
        export_decay_curves(fits, partitions), encoding="utf-8"
    )
    print(f"fitted {n_partitions} partitions over {len(with_records)} checkpoints")
    return EXIT_OK


# -- select ----------------------------------------------------------------------


def cmd_select(args) -> int:
    pool = _read_dataset(args.pool, "pool")
    train = _read_dataset(args.train, "train") if args.train else None
    validation = _read_dataset(args.validation, "validation") if args.validation else None
    partitions = [
        load_partition(Path(p).read_text(encoding="utf-8")) for p in args.partitions
    ]
    params = [parse_fit(Path(p).read_text(encoding="utf-8")) for p in args.fits]
    if len(params) != len(partitions):
        raise ConfigError("need one fit file per partition file")
    table = None
    if args.embeddings:
        table = _read_embeddings(args.embeddings)
    fits = [
        DecayFit(params=p, history=[], objective_value=0.0, converged=True)
        for p in params
    ]
    train_sentences = list(train.sentences) if train else []
    da = list(pool.sentences) + train_sentences + (
        list(validation.sentences) if validation else []
    )
    state = SelectionState.create(
        partitions,
        fits,
        train_sentences,
        da,
        token_budget=args.budget,
        epsilon=args.epsilon,
        table=table,
    )
    batch = select_batch(state, list(pool.sentences), mode=args.mode)
    payload = {
        "sentence_ids": list(batch.sentence_ids),
        "token_count": batch.token_count,
        "exhausted": batch.exhausted,
    }
    text = json.dumps(payload, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return EXIT_OK


# -- score -----------------------------------------------------------------------


def _load_predictions(path: str, fmt: str) -> dict[int, tuple[str, ...]]:
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "records":
        return {sid: rec.labels for sid, rec in read_records(text, validate=False).items()}
    ds = parse_conll(text, role="predictions")
    _warn(path, ds.bio_warnings, _ORPHAN_TAGS)
    return {s.id: tuple(t.gold_label for t in s.tokens) for s in ds.sentences}


def cmd_score(args) -> int:
    gold = gold_phrases(_read_dataset(args.gold, "gold"))
    predictions = _load_predictions(args.predictions, args.pred_format)
    # scoring first checks every tag, so a bad one is a data error even
    # when the weights are checked against the types it found
    report = micro_f1(gold, predictions)
    weights = None
    if args.weights:
        weights = json.loads(Path(args.weights).read_text(encoding="utf-8"))
        missing = sorted(set(report.per_type) - set(weights))
        if missing:
            raise ConfigError(f"missing weight for types: {missing}")
    sys.stdout.write(report.format())
    if weights is not None:
        weighted = micro_f1(gold, predictions, weights)
        sys.stdout.write("weighted:\n")
        sys.stdout.write(weighted.format())
    return EXIT_OK


# -- export-curves ------------------------------------------------------------------


def cmd_export_curves(args) -> int:
    history = RunHistory.from_jsonl(Path(args.history).read_text(encoding="utf-8"))
    with_records = [c for c in history.checkpoints if c.group_records is not None]
    if not with_records:
        raise FitError("history contains no group error records")
    n_partitions = len(with_records[0].group_records)
    record_history = history.group_record_history(n_partitions)
    params = [parse_fit(Path(p).read_text(encoding="utf-8")) for p in args.fits]
    if len(params) != n_partitions:
        raise ConfigError(
            f"history has {n_partitions} partitions but {len(params)} fit files given"
        )
    fits = [
        DecayFit(params=p, history=record_history[i], objective_value=0.0, converged=True)
        for i, p in enumerate(params)
    ]
    partitions = None
    if args.partitions:
        partitions = [
            load_partition(Path(p).read_text(encoding="utf-8")) for p in args.partitions
        ]
    text = export_decay_curves(fits, partitions)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupdecay",
        description="Batch active learning via error-decay curves on groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate the synthetic corpus splits")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--output", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("simulate", help="run an active-learning simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--strategy", choices=STRATEGY_NAMES, default=None)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit-decay", help="fit decay curves to a run history")
    p.add_argument("--history", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--partitions", nargs="*", default=None)
    p.add_argument("--fit-seed", type=int, default=0)
    p.set_defaults(func=cmd_fit_decay)

    p = sub.add_parser("select", help="select one batch from a pool")
    p.add_argument("--pool", required=True)
    p.add_argument("--train", default=None)
    p.add_argument("--validation", default=None)
    p.add_argument("--partitions", nargs="+", required=True)
    p.add_argument("--fits", nargs="+", required=True)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--mode", choices=["SENTENCE", "DOCUMENT"], default="SENTENCE")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("score", help="phrase-level micro-F1 of predictions")
    p.add_argument("--gold", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--pred-format", choices=["records", "conll"], default="records")
    p.add_argument("--weights", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("export-curves", help="export fit-vs-empirical curve tables")
    p.add_argument("--history", required=True)
    p.add_argument("--fits", nargs="+", required=True)
    p.add_argument("--partitions", nargs="*", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_curves)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CapabilityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusFormatError, AlignmentError, FitError, ParameterError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ExternalPredictorError as exc:
        print(f"external predictor error: {exc}", file=sys.stderr)
        return EXIT_PREDICTOR


if __name__ == "__main__":
    sys.exit(main())
