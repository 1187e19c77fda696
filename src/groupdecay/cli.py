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
import operator
import shlex
import shutil
import string
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__
from .corpus import (
    CorpusFormatError,
    Dataset,
    EmbeddingTable,
    _is_finite,
    _is_int,
    load_embeddings,
    parse_conll,
    serialize_conll,
)
from .decay import (
    DecayFit, DecayNumericalError, FitConfig, FitError, fit, parse_fit, serialize_fit,
)
from .loop import (
    CheckpointRecord,
    LoopConfig,
    RunHistory,
    STRATEGY_NAMES,
    check_epsilon,
    check_run_inputs,
    check_weights,
    make_strategy,
    run_active_loop,
)
from .partition import (
    AlignmentError,
    Clusterings,
    GroupErrorRecord,
    ParameterError,
    Partition,
    PartitionConfig,
    PartitionKind,
    build_group_index,
    build_identity_partition,
    build_partition,
    load_partition,
    save_partition,
)
from .scoring import export_decay_curves, gold_phrases, micro_f1
from .selection import SelectionState, default_epsilon, select_batch
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
            config = _read_input(path, "config", json.load)
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


def _options(table, what: str, keys) -> dict:
    """``table``, checked to be a table of no keys but ``keys``."""
    if not isinstance(table, dict):
        raise ConfigError(f"{what} must be a table, got {table!r}")
    unknown = set(table) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {what} options: {sorted(unknown)}")
    return table


def _count(table: dict, name: str, default, low: int):
    """``table[name]`` (``default`` when left out), an integer >= ``low``."""
    value = table.get(name, default)
    if not _is_int(value) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def _flag(table: dict, name: str, what: str) -> bool:
    """``table[name]`` (false when left out), a JSON boolean."""
    value = table.get(name, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{what} {name} must be true or false, got {value!r}")
    return value


def _write_json(path: Path, payload, indent=None) -> None:
    path.write_text(json.dumps(payload, indent=indent, sort_keys=True), encoding="utf-8")


def _synth_spec(table: dict, what: str) -> SynthSpec:
    """The synthetic-corpus spec of the ``SynthSpec`` fields of ``table``."""
    spec = {k: v for k, v in table.items() if k in SynthSpec.__dataclass_fields__}
    try:
        return SynthSpec(**spec)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


_ORPHAN_TAGS = "I- tags with no open phrase of their type (kept as written)"


def _warn(path: str, count: int, what: str) -> None:
    """One stderr line for the problems an input file's reader tolerated."""
    if count:
        print(f"warning: {path}: {count} {what}", file=sys.stderr)


def _read_input(path: str, what: str, parse=None):
    """The text of the input file at ``path``, or ``parse(fh)`` of it open; a
    missing file, or a directory, is a config error."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
    except IsADirectoryError as exc:
        raise ConfigError(f"{what} file is a directory: {path}") from exc
    with fh:
        return fh.read() if parse is None else parse(fh)


def _output_dir(path: str) -> Path:
    """``path`` as a directory to write into; a file at it or at one of its
    parents is a ConfigError naming both."""
    out = Path(path)
    blocker = next(p for p in (out, *out.parents) if p.exists())
    if not blocker.is_dir():
        raise ConfigError(f"output {out}: {blocker} exists and is not a directory")
    return out


def _read_dataset(path: str, role: str) -> Dataset:
    dataset = _read_input(path, role, lambda fh: parse_conll(fh, role=role))
    _warn(path, dataset.bio_warnings, _ORPHAN_TAGS)
    return dataset


def _read_embeddings(path: str) -> EmbeddingTable:
    table = _read_input(path, "embeddings", lambda fh: load_embeddings(fh, normalize=True))
    _warn(path, table.duplicate_warnings, "duplicate surfaces (the last entry kept)")
    return table


class _RunFiles(NamedTuple):
    """The history, partition and fit files a command reads back."""

    records: list[list[GroupErrorRecord]]  # per partition; empty lists without a history
    partitions: list[Partition]
    fits: list[DecayFit]  # over ``records``


def _read_run_files(
    history: str | None, partition_paths: Sequence[str], fit_paths: Sequence[str]
) -> _RunFiles:
    """The history file (if any), partition files and fit files at these
    paths, checked to agree.

    The partition count and each partition's group count come from the
    history when there is one, and from the partition files otherwise.
    Partition and fit files, when given, must be one per partition, each
    with its partition's group count; a disagreement is a FitError naming
    the file and both counts.
    """
    partitions = [load_partition(_read_input(p, "partition")) for p in partition_paths]
    if history is None:
        records = [[] for _ in partitions]
        counts = [p.n_groups for p in partitions]
        source = f"partition files {' '.join(partition_paths)}"
    else:
        run = RunHistory.from_jsonl(_read_input(history, "history"))
        first = next((c.group_records for c in run.checkpoints if c.group_records), None)
        if first is None:
            raise FitError(f"history {history} has no checkpoint with group errors")
        records = run.group_record_history(len(first))
        counts = [len(rec.train_mass) for rec in first]
        source = f"history {history}"
    params = [parse_fit(_read_input(p, "fit")) for p in fit_paths]
    for what, paths, sizes in (
        ("partition", partition_paths, [p.n_groups for p in partitions]),
        ("fit", fit_paths, [f.n_groups for f in params]),
    ):
        if paths and len(paths) != len(counts):
            raise FitError(f"{len(paths)} {what} files for the {len(counts)} partitions "
                           f"of {source}")
        for i, (path, size) in enumerate(zip(paths, sizes)):
            if size != counts[i]:
                raise FitError(f"{what} file {path} has {size} groups, its partition "
                               f"{counts[i]} (p{i} of {source})")
    fits = [DecayFit(params=f, history=h, objective_value=0.0, converged=True)
            for f, h in zip(params, records)]
    return _RunFiles(records, partitions, fits)


def _write_fits(fits, fit_dir: Path, stem: str, partitions=(), curves: Path | None = None):
    """Each fit to ``fit_dir/<stem>_p<i>.txt``; with ``curves``, the
    fit-vs-empirical table over ``partitions`` to that file."""
    for i, f in enumerate(fits):
        (fit_dir / f"{stem}_p{i}.txt").write_text(
            serialize_fit(f.params, f.objective_value), encoding="utf-8"
        )
    if curves is not None:
        curves.write_text(export_decay_curves(fits, partitions), encoding="utf-8")


# -- external predictor -------------------------------------------------------


class ExternalPredictor:
    """Subprocess boundary: each :meth:`predict` call runs the command once,
    on a CoNLL training file and one input file, and reads the prediction
    records (JSON lines) it writes.

    ``template`` is the command split into arguments (see
    :func:`_command_template`); each argument is formatted on its own, so a
    substituted path stays one argument.  {logprobs} and {ensemble_k} are
    substituted with 0/1 and an integer.  Records in the output file are
    keyed by the 0-based position of the sentence in the input file.
    The files of call ``k`` are ``input_{key}_{k:02d}.conll`` and
    ``output_{key}_{k:02d}.jsonl`` in ``workdir``.
    """

    def __init__(self, template: Sequence[str], train_path: Path, workdir: Path, key: str):
        self.template = template
        self.train_path = train_path
        self.workdir = workdir
        self.key = key
        self._counter = 0

    def predict(self, datasets, want_logprobs=False, ensemble_k=None):
        """Each of ``datasets``' prediction batch, keyed by position in the
        input file of one invocation that holds the datasets in order:
        surfaces only, each dataset with its own ``-DOCSTART-`` lines."""
        datasets = [tuple(d) for d in datasets]
        self._counter += 1
        input_path = self.workdir / f"input_{self.key}_{self._counter:02d}.conll"
        output_path = self.workdir / f"output_{self.key}_{self._counter:02d}.jsonl"
        input_path.write_text(
            "\n".join(
                serialize_conll(Dataset(d, frozenset(), role="input"), labels=False)
                for d in datasets
            ),
            encoding="utf-8",
        )
        values = dict(
            train=str(self.train_path),
            input=str(input_path),
            output=str(output_path),
            logprobs=int(bool(want_logprobs)),
            ensemble_k=int(ensemble_k or 0),
        )
        command = [arg.format(**values) for arg in self.template]
        try:
            result = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise ExternalPredictorError(f"external predictor could not start: {exc}") from exc
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
        except ValueError as exc:
            raise ExternalPredictorError(
                f"external predictor wrote malformed records: {exc}"
            ) from exc
        bounds = np.cumsum([0] + [len(d) for d in datasets]).tolist()
        missing = np.setdiff1d(np.arange(bounds[-1]), records.ids)
        if len(missing):
            raise ExternalPredictorError(
                f"external predictor omitted input positions {missing[:5].tolist()}..."
            )
        return [records.take(range(a, b)) for a, b in zip(bounds, bounds[1:])]


class _CheckpointPredictor:
    """The predictor a checkpoint's training yields.  A label-only request
    for one of ``label_sets`` is answered from one invocation on all of
    them, made at the first such request.  A request is matched to a set by
    position and by the sentence objects themselves: sentence ids repeat
    across datasets.  Every other request is an invocation of its own."""

    def __init__(self, external: ExternalPredictor, label_sets: tuple[tuple, ...]):
        self.external = external
        self.label_sets = label_sets
        self._labels = None

    def predict(self, dataset, want_logprobs=False, ensemble_k=None):
        sentences = list(dataset)
        known = None
        if not (want_logprobs or ensemble_k):
            known = next(
                (k for k, s in enumerate(self.label_sets)
                 if len(s) == len(sentences) and all(map(operator.is_, s, sentences))),
                None,
            )
        if known is None:
            [records] = self.external.predict([sentences], want_logprobs, ensemble_k)
        else:
            if self._labels is None:
                self._labels = self.external.predict(self.label_sets)
            records = self._labels[known]
        return records.with_ids([s.id for s in sentences])


def external_trainer(template: Sequence[str], workdir: Path, label_sets=()):
    """Trainer whose predictors run ``template``; a checkpoint answers the
    label-only requests for ``label_sets`` (the datasets it is asked to
    label at every checkpoint) with one invocation.  A checkpoint's files
    are keyed by its training token count, which grows at every checkpoint
    and which a resumed run reproduces: ``train_{key}.conll`` and its
    calls' input and output files."""
    workdir.mkdir(parents=True, exist_ok=True)
    label_sets = tuple(tuple(d) for d in label_sets)

    def train(train_ds: Dataset) -> _CheckpointPredictor:
        key = f"{train_ds.token_count:09d}"
        train_path = workdir / f"train_{key}.conll"
        train_path.write_text(serialize_conll(train_ds), encoding="utf-8")
        return _CheckpointPredictor(
            ExternalPredictor(template, train_path, workdir, key), label_sets
        )

    return train


# -- capability matrix --------------------------------------------------------


_PREDICTOR_KEYS = ("type", "command", "logprobs", "ensemble", "smoothing_alpha")
_PLACEHOLDERS = {"train", "input", "output", "logprobs", "ensemble_k"}


def _command_template(command: str) -> list[str]:
    """The external command split shell-style into arguments, which must
    name {train}, {input} and {output}, may name {logprobs} and
    {ensemble_k}, name no other placeholder, and format without error."""
    try:
        template = shlex.split(command)
        fields = [f[1] for arg in template for f in string.Formatter().parse(arg)]
    except ValueError as exc:
        raise ConfigError(f"predictor command {command!r}: {exc}") from exc
    names = set(fields) - {None}
    if not {"train", "input", "output"} <= names <= _PLACEHOLDERS:
        raise ConfigError(f"predictor command {command!r} names placeholders {sorted(names)}; "
                          f"it needs train, input and output and takes logprobs and ensemble_k")
    try:
        for arg in template:
            arg.format(train="", input="", output="", logprobs=0, ensemble_k=0)
    except ValueError as exc:
        raise ConfigError(f"predictor command {command!r}: {exc}") from exc
    return template


def _predictor_config(config: dict) -> dict:
    """The ``predictor`` table, checked: a known type, an external command
    string, boolean capabilities, a smoothing constant that is a finite
    number > 0.  An external command is returned split by
    :func:`_command_template`."""
    predictor_cfg = _options(config.get("predictor", {}), "predictor", _PREDICTOR_KEYS)
    kind = predictor_cfg.get("type", "builtin")
    if kind not in ("builtin", "external"):
        raise ConfigError(f"predictor type must be 'builtin' or 'external', got {kind!r}")
    command = predictor_cfg.get("command")
    if kind == "external":
        if not (isinstance(command, str) and command):
            raise ConfigError(f"external predictor needs a 'command' template, got {command!r}")
        predictor_cfg = {**predictor_cfg, "command": _command_template(command)}
    for name in ("logprobs", "ensemble"):
        _flag(predictor_cfg, name, "predictor")
    alpha = predictor_cfg.get("smoothing_alpha", 1.0)
    if not (_is_finite(alpha) and alpha > 0):
        raise ConfigError(f"predictor smoothing_alpha must be a finite number > 0, got {alpha!r}")
    return predictor_cfg


def check_capabilities(
    strategy_name: str, predictor_cfg: dict, validation: Dataset, has_embeddings: bool
) -> None:
    strategy = make_strategy(strategy_name)
    builtin = predictor_cfg.get("type", "builtin") == "builtin"
    has_logprobs = builtin or predictor_cfg.get("logprobs", False)
    has_ensemble = builtin or predictor_cfg.get("ensemble", False)
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


_GEN_SYNTH_KEYS = (
    "train_tokens", "val_tokens", "test_tokens", "pool_tokens", "sentences_per_doc",
    *SynthSpec.__dataclass_fields__,
)


def cmd_gen_synth(args) -> int:
    config = _options(load_config(args.config, args.set or []), "gen-synth", _GEN_SYNTH_KEYS)
    out_dir = _output_dir(args.output)
    if out_dir.exists() and not args.force:
        raise ConfigError(f"output directory {out_dir} exists (use --force)")
    spec = _synth_spec(config, "gen-synth")
    # a split holds at least one sentence, and a sentence min_length tokens
    least = max(spec.min_length, 1)
    sizes = {
        "train": _count(config, "train_tokens", 100_000, least),
        "valid": _count(config, "val_tokens", 10_000, least),
        "test": _count(config, "test_tokens", 10_000, least),
    }
    pool_tokens = _count(config, "pool_tokens", 0, least if config.get("pool_tokens") else 0)
    sentences_per_doc = config.get("sentences_per_doc")
    if sentences_per_doc is not None:
        _count(config, "sentences_per_doc", None, 1)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "spec": {f: getattr(spec, f) for f in SynthSpec.__dataclass_fields__},
        "sizes": sizes,
        "pool_tokens": pool_tokens,
        "sentences_per_doc": sentences_per_doc,
        "version": __version__,
    }
    splits = {**sizes, "pool": pool_tokens} if pool_tokens else sizes
    written = {}
    for stream, (name, tokens) in enumerate(splits.items()):
        ds = gen_synthetic(
            spec, tokens, role=name, stream=stream, sentences_per_doc=sentences_per_doc
        )
        (out_dir / f"{name}.conll").write_text(serialize_conll(ds), encoding="utf-8")
        written[name] = {"tokens": ds.token_count, "sentences": len(ds)}
    manifest["written"] = written
    _write_json(out_dir / "manifest.json", manifest, indent=2)
    print(f"wrote {', '.join(sorted(written))} to {out_dir}")
    return EXIT_OK


# -- simulate ------------------------------------------------------------------


_SIMULATE_KEYS = (
    "strategy", "seed", "mode", "epsilon", "class_weights",
    "paths", "loop", "fit", "partitions", "predictor", "synth_spec",
)
# LoopConfig's schedule: its seed, mode, epsilon, class_weights and fit are top-level keys
_LOOP_KEYS = tuple(k for k in LoopConfig.__dataclass_fields__ if k not in _SIMULATE_KEYS)
_PATH_KEYS = ("pool", "validation", "test", "pseudo_test", "embeddings", "output")
_KINDS = [k.value for k in PartitionKind]
_PARTITION_KEYS = ("kinds", "one_hot", *PartitionConfig.__dataclass_fields__)


class _Settings(NamedTuple):
    """A ``simulate`` config, checked."""

    strategy: str
    paths: dict
    loop: LoopConfig
    kinds: list[str] | None  # None: one identity partition
    partitions: PartitionConfig
    one_hot: bool
    predictor: dict
    spec: SynthSpec


def _simulate_settings(config: dict) -> _Settings:
    """Every setting of a ``simulate`` config, read from its one key and
    checked; an unknown key or a bad value at any level is a ConfigError."""
    _options(config, "top-level", _SIMULATE_KEYS)
    strategy = config.get("strategy", "edg")
    if strategy not in STRATEGY_NAMES:
        raise ConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGY_NAMES}")
    paths = _options(config.get("paths", {}), "paths", _PATH_KEYS)
    for required in ("pool", "validation", "output"):
        if required not in paths:
            raise ConfigError(f"paths.{required} is required")
    for key, value in paths.items():
        if not isinstance(value, str):
            raise ConfigError(f"paths.{key} must be a string, got {value!r}")
    schedule = _options(config.get("loop", {}), "loop", _LOOP_KEYS)
    fit_cfg = _options(config.get("fit", {}), "fit", FitConfig.__dataclass_fields__)
    pcfg = _options(config.get("partitions", {}), "partitions", _PARTITION_KEYS)
    spec_cfg = _options(config.get("synth_spec", {}), "synth_spec", SynthSpec.__dataclass_fields__)
    seed = _count(config, "seed", 0, 0)
    top = {k: config[k] for k in ("mode", "epsilon", "class_weights") if k in config}
    clustering = {k: v for k, v in pcfg.items() if k in PartitionConfig.__dataclass_fields__}
    try:
        loop_cfg = LoopConfig(**schedule, **top, seed=seed, fit=FitConfig(**fit_cfg))
        partition_cfg = PartitionConfig(**{"seed": seed, **clustering})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    kinds = pcfg.get("kinds", _KINDS)
    if kinds == "identity":
        kinds = None
    elif not (isinstance(kinds, list) and kinds and all(k in _KINDS for k in kinds)):
        raise ConfigError(f'partitions kinds must be "identity" or a list of {_KINDS}, '
                          f"got {kinds!r}")
    return _Settings(
        strategy, paths, loop_cfg, kinds, partition_cfg, _flag(pcfg, "one_hot", "partitions"),
        _predictor_config(config), _synth_spec(spec_cfg, "synth_spec"),
    )


_NEEDS_EMBEDDINGS = "embedding-based partitions need an embeddings file"


def _build_partitions(
    settings: _Settings, pool: Dataset, validation: Dataset, table: EmbeddingTable | None
) -> list[Partition]:
    union = list(pool.sentences) + list(validation.sentences)
    if settings.kinds is None:
        return [build_identity_partition(union)]
    if table is None:
        raise ConfigError(_NEEDS_EMBEDDINGS)
    # one clustering per corpus: the kinds share their k-means
    clusters = Clusterings(union, table, settings.partitions)
    return [build_partition(union, table, PartitionKind(k), settings.partitions,
                            clusters=clusters)
            for k in settings.kinds]


# a checkpoint's side files, by checkpoint index
_SNAPSHOT = "snapshots/checkpoint_{:04d}.json"
_REFPRED = "refpred/checkpoint_{:04d}.jsonl"


class _RunWriter:
    """Observer that persists checkpoints, batches, fits, and snapshots.  A
    checkpoint's side files are written before its history line, which
    commits it."""

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
            snap: UncertaintySnapshot | None = payload.get("snapshot")
            if snap is not None:
                _write_json(
                    self.run_dir / _SNAPSHOT.format(record.index),
                    {
                        "tokens": snap.checkpoint_tokens,
                        "scores": {str(k): v for k, v in sorted(snap.scores.items())},
                    },
                )
            ref = payload.get("reference_labels")
            if ref is not None:
                with open(self.run_dir / _REFPRED.format(record.index), "w",
                          encoding="utf-8") as fh:
                    write_records(
                        (
                            PredictionRecord(sentence_id=sid, labels=tuple(labels))
                            for sid, labels in sorted(ref.items())
                        ),
                        fh,
                    )
            with open(self.history_path, "a", encoding="utf-8") as fh:
                fh.write(record.to_json() + "\n")
        elif event == "batch":
            index = payload["batch_index"]
            _write_json(
                self.run_dir / "batches" / f"batch_{index:04d}.json",
                {"batch_index": index, **dataclasses.asdict(payload["batch"])},
            )
        elif event == "fits":
            stem = f"batch_{payload['batch_index']:04d}"
            _write_fits(payload["fits"], self.run_dir / "fits", stem)


def _load_resume(run_dir: Path):
    """The history of ``run_dir`` and its checkpoints' snapshot and refpred
    files, by checkpoint index; files of checkpoints past the history are
    left unread."""
    history_path = run_dir / "history.jsonl"
    if not history_path.exists():
        return None, {}, {}
    history = RunHistory.from_jsonl(history_path.read_text(encoding="utf-8"))
    snapshots, refs = {}, {}
    for index in (rec.index for rec in history.checkpoints):
        path = run_dir / _SNAPSHOT.format(index)
        if path.exists():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                tokens, scores = payload["tokens"], payload["scores"]
                if not (_is_int(tokens) and isinstance(scores, dict)):
                    raise TypeError("tokens must be an integer and scores an object")
                for key, score in scores.items():
                    if not isinstance(score, (int, float)) or isinstance(score, bool):
                        raise TypeError(f"score of sentence {key} is {score!r}, not a number")
                snapshots[index] = UncertaintySnapshot(
                    checkpoint_tokens=tokens, scores={int(k): v for k, v in scores.items()},
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed snapshot file {path}: {type(exc).__name__}: {exc}"
                                 ) from exc
        path = run_dir / _REFPRED.format(index)
        if path.exists():
            try:
                records = read_records(path.read_text(encoding="utf-8"), validate=False)
            except ValueError as exc:
                raise ValueError(f"reference prediction file {path}: {exc}") from exc
            refs[index] = {sid: rec.labels for sid, rec in records.items()}
    return history, snapshots, refs


# what ``simulate`` writes into a run directory; ``--force`` removes these
_RUN_OUTPUTS = (
    "history.jsonl", "manifest.json", "scores.csv", "curves.csv",
    "batches", "fits", "snapshots", "refpred", "partitions", "external",
)


def cmd_simulate(args) -> int:
    config = load_config(args.config, args.set or [])
    if args.strategy:
        config["strategy"] = args.strategy
    settings = _simulate_settings(config)
    strategy_name, paths, loop_cfg = settings.strategy, settings.paths, settings.loop
    predictor_cfg = settings.predictor

    run_dir = _output_dir(paths["output"])
    if run_dir.exists() and any(run_dir.iterdir()) and not args.resume and not args.force:
        raise ConfigError(f"run directory {run_dir} exists (use --resume or --force)")

    pool, validation, test, pseudo_test = (
        _read_dataset(paths[role], role) if role in paths else None
        for role in ("pool", "validation", "test", "pseudo_test")
    )

    has_table = "embeddings" in paths or settings.one_hot
    check_capabilities(strategy_name, predictor_cfg, validation, has_table)

    table = None
    if "embeddings" in paths:
        table = _read_embeddings(paths["embeddings"])
    elif settings.one_hot:
        table = one_hot_embeddings(settings.spec)
    # the loop's own refusals, before anything is written
    strategy = check_run_inputs(loop_cfg, strategy_name, pool, validation, table)

    if loop_cfg.class_weights is not None:
        missing = (pool.label_inventory | validation.label_inventory) - set(loop_cfg.class_weights)
        if missing:
            raise ConfigError(f"class_weights has no weight for entity types {sorted(missing)}")
    partitions = _build_partitions(settings, pool, validation, table)

    if args.force:
        for name in _RUN_OUTPUTS:
            path = run_dir / name
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": config,
        "config_hash": config_hash(config),
        "strategy": strategy_name,
        "version": __version__,
        "n_partitions": len(partitions),
        "ensemble_k": loop_cfg.ensemble_k if strategy.needs_ensemble else None,
        "epsilon": loop_cfg.epsilon,
    }
    manifest_path = run_dir / "manifest.json"
    if args.resume and manifest_path.exists():
        previous = json.loads(manifest_path.read_text(encoding="utf-8"))
        if previous.get("config_hash") != manifest["config_hash"]:
            raise ConfigError("resume config differs from the recorded manifest")
    _write_json(manifest_path, manifest, indent=2)
    pdir = run_dir / "partitions"
    pdir.mkdir(exist_ok=True)
    for i, p in enumerate(partitions):
        (pdir / f"p{i}.json").write_text(save_partition(p), encoding="utf-8")

    if predictor_cfg.get("type", "builtin") == "builtin":
        trainer = builtin_trainer(
            smoothing_alpha=predictor_cfg.get("smoothing_alpha", 1.0),
            seed=loop_cfg.seed,
        )
    else:
        label_sets = [d for d in (validation, test, pseudo_test) if d is not None]
        trainer = external_trainer(predictor_cfg["command"], run_dir / "external", label_sets)

    resume_history, resume_snaps, resume_refs = (
        _load_resume(run_dir) if args.resume else (None, None, None)
    )

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
        _write_fits(fits, run_dir / "fits", "final", partitions, run_dir / "curves.csv")
    print(f"run complete: {len(history.checkpoints)} checkpoints in {run_dir}")
    return EXIT_OK


# -- fit-decay ------------------------------------------------------------------


def cmd_fit_decay(args) -> int:
    try:
        fit_cfg = FitConfig(seed=args.fit_seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    run = _read_run_files(args.history, args.partitions, ())
    fits = [fit(records, config=fit_cfg) for records in run.records]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_fits(fits, out_dir, "fit", run.partitions, out_dir / "curves.csv")
    print(f"fitted {len(fits)} partitions over {len(run.records[0])} checkpoints")
    return EXIT_OK


# -- select ----------------------------------------------------------------------


def cmd_select(args) -> int:
    _count(vars(args), "budget", None, 1)
    try:
        check_epsilon(args.epsilon)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    pool = _read_dataset(args.pool, "pool")
    train = _read_dataset(args.train, "train") if args.train else None
    validation = _read_dataset(args.validation, "validation") if args.validation else None
    run = _read_run_files(None, args.partitions, args.fits)
    if not args.embeddings and any(p.identity_vocab is None for p in run.partitions):
        raise ConfigError(_NEEDS_EMBEDDINGS)
    table = _read_embeddings(args.embeddings) if args.embeddings else None
    # one index per partition over the union; rows: pool, then train, then validation
    pool_rows = slice(0, len(pool))
    train_rows = slice(len(pool), len(pool) + (len(train) if train else 0))
    da = [s for d in (pool, train, validation) if d is not None for s in d.sentences]
    index = [build_group_index(p, da, table) for p in run.partitions]
    state = SelectionState(
        partitions=run.partitions,
        fits=run.fits,
        train_mass=[ix.take(train_rows).mass() for ix in index],
        da_mass=[ix.mass() for ix in index],
        token_budget=args.budget,
        epsilon=default_epsilon(sum(map(len, da))) if args.epsilon is None else args.epsilon,
        table=table,
    )
    batch = select_batch(state, list(pool.sentences), args.mode,
                         [ix.take(pool_rows) for ix in index])
    text = json.dumps(dataclasses.asdict(batch), sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return EXIT_OK


# -- score -----------------------------------------------------------------------


def _load_predictions(path: str, fmt: str) -> dict[int, tuple[str, ...]]:
    text = _read_input(path, "predictions")
    if fmt == "records":
        return {sid: rec.labels for sid, rec in read_records(text, validate=False).items()}
    ds = parse_conll(text, role="predictions")
    _warn(path, ds.bio_warnings, _ORPHAN_TAGS)
    return {s.id: tuple(t.gold_label for t in s.tokens) for s in ds.sentences}


def _parse_weights(path: str, fh) -> dict:
    """The weights file ``fh`` (at ``path``): a JSON object of finite numbers
    >= 0, or a ConfigError naming the file."""
    try:
        weights = json.load(fh)
        check_weights(weights)
    except ValueError as exc:
        raise ConfigError(f"weights file {path}: {exc}") from exc
    return weights


def cmd_score(args) -> int:
    gold = gold_phrases(_read_dataset(args.gold, "gold"))
    predictions = _load_predictions(args.predictions, args.pred_format)
    # scoring first checks every tag, so a bad one is a data error even
    # when the weights are checked against the types it found
    report = micro_f1(gold, predictions)
    weights = None
    if args.weights:
        weights = _read_input(args.weights, "weights", lambda fh: _parse_weights(args.weights, fh))
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
    run = _read_run_files(args.history, args.partitions, args.fits)
    text = export_decay_curves(run.fits, run.partitions)
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
    p.add_argument("--output", default="synth")
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
    p.add_argument("--partitions", nargs="*", default=[])
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
    p.add_argument("--partitions", nargs="*", default=[])
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
    except (CorpusFormatError, AlignmentError, FitError, ParameterError, DecayNumericalError,
            ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ExternalPredictorError as exc:
        print(f"external predictor error: {exc}", file=sys.stderr)
        return EXIT_PREDICTOR


if __name__ == "__main__":
    sys.exit(main())
