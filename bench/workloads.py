"""The benchmark's four workloads: inputs made from a seed, and the program
calls that one repetition makes.

Every repetition generates its corpus and builds fresh partitions, because
``Partition`` keeps per-surface caches that would otherwise make later
repetitions faster than a user's run.  A :class:`Recorder` watches each
strategy run through the loop's observer and the trainer; the work it does
for the correctness checks is timed and excluded from the run's figures.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shlex
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from groupdecay import cli, decay, loop, partition, simlab

_clock = time.perf_counter

# Every workload samples one language: the synthetic grammar of the
# default SynthSpec (seed 0).  The seed picks the samples drawn from it, so
# runs on different seeds are comparable draws of one task.
SPEC = simlab.SynthSpec()
EMBED_DIM = 50


@dataclass(frozen=True)
class Sizes:
    pool_tokens: int
    val_tokens: int
    test_tokens: int
    history_batch_tokens: int
    selection_batch_tokens: int
    sentences_per_doc: int
    fit_restarts: int
    fit_max_outer: int

    @property
    def fit(self) -> dict:
        return {"restarts": self.fit_restarts, "max_outer": self.fit_max_outer}


# Decay fits stop after 30 outer iterations per start (the default is 500),
# so that fit work does not swing with the seed.  At 500 one embed4 fit took
# 0.7 s to 4.2 s depending on the seed (seeds 1 and 4), and the first fit
# of an edg run 249 to 4000 inner solves (seeds 0-7).  At 30 those embed4
# fits took 0.16 s to 0.28 s, with objectives within 2.5% of those at 500.
FULL = Sizes(20_000, 4_000, 8_000, 250, 500, 5, 8, 30)
# The paper's protocol: a 100k-token pool, 10k validation and test tokens,
# 500-token history and 1000-token selection batches.  EDG selection and
# facility location cost per batch what they cost a user only on a pool of
# this size: at FULL sizes they took 13% of a blackbox-edg-div repetition
# and fass_select's similarity matrix went unseen in peak memory.
PAPER = Sizes(100_000, 10_000, 10_000, 500, 1000, 5, 8, 30)
# Seconds per repetition, for the benchmark's tests: small corpora and
# short decay fits.
TINY = Sizes(3_000, 600, 600, 100, 200, 5, 2, 10)


def generate(seed: int, sizes: Sizes, docs: bool):
    """Pool and validation set drawn from generator streams 4*seed and
    4*seed + 1.  The test set is the same for every seed (stream 2): it is
    the yardstick of ``final_test_f1``, and a test sample of its own per
    seed would double that metric's spread across seeds."""
    spd = sizes.sentences_per_doc if docs else None
    return (
        simlab.gen_synthetic(SPEC, sizes.pool_tokens, "pool", 4 * seed, spd),
        simlab.gen_synthetic(SPEC, sizes.val_tokens, "validation", 4 * seed + 1, spd),
        simlab.gen_synthetic(SPEC, sizes.test_tokens, "test", 2, spd),
    )


def write_conll(dataset, path: Path) -> None:
    """CoNLL text written by the benchmark itself (surface and tag columns,
    ``-DOCSTART-`` before each document), so the CLI reads only what the
    benchmark generated."""
    lines: list[str] = []
    doc = None
    for sentence in dataset.sentences:
        if sentence.doc_id is not None and sentence.doc_id != doc:
            doc = sentence.doc_id
            lines += ["-DOCSTART-", ""]
        lines += [f"{t.surface} {t.gold_label}" for t in sentence.tokens]
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


def write_embeddings(seed: int, path: Path) -> None:
    """A seeded random table: one Gaussian vector per vocabulary word."""
    rng = np.random.default_rng([seed, 50])
    vectors = rng.normal(size=(SPEC.vocab_size, EMBED_DIM))
    lines = [
        w + " " + " ".join(repr(float(v)) for v in row)
        for w, row in zip(SPEC.surfaces, vectors)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- observation -----------------------------------------------------------------


class Recorder:
    """Everything one strategy run shows to the checks and to ``round_s``.

    ``label_calls`` keeps references to label-only predictions (validation
    and test, small); predictions with log-probabilities are reduced on the
    spot to a least-confidence score per sentence and the largest deviation
    of a token's probability sum from 1, so the pool records are not kept
    alive.  That reduction is timed into ``excluded``.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.checkpoints: list = []
        self.event_times: list[tuple[float, float]] = []  # (time, excluded so far)
        self.fits: dict[int, list] = {}
        self.batches: dict[int, object] = {}
        self.label_calls: list[tuple[int, object, dict]] = []
        self.logprob_calls: list[tuple[int, dict[int, float], float]] = []
        self.ensemble_faults = 0
        self.excluded = 0.0

    def _aside(self):
        return self.tracer.span("bench.capture") if self.tracer else contextlib.nullcontext()

    def observer(self, inner=None):
        def observe(event, payload):
            now = _clock()
            if event == "checkpoint":
                self.event_times.append((now, self.excluded))
                self.checkpoints.append(payload["record"])
            elif event == "fits":
                self.fits[payload["batch_index"]] = payload["fits"]
            elif event == "batch":
                self.batches[payload["batch_index"]] = payload["batch"]
                if self.tracer:
                    self.tracer.count("loop.rounds")
            if inner is not None:
                inner(event, payload)

        return observe

    def trainer(self, inner):
        def train(train_ds):
            return _RecordingPredictor(inner(train_ds), self)

        return train

    def round_times(self) -> list[float]:
        """Wall time from one checkpoint event to the next, for each batch
        pick plus the checkpoint after it that readies the next pick.  The
        run's last checkpoint readies none (it skips pool scoring), so it
        does not count."""
        out = []
        for i in range(1, len(self.checkpoints) - 1):
            if self.checkpoints[i].phase == "select":
                (t1, x1), (t0, x0) = self.event_times[i], self.event_times[i - 1]
                out.append((t1 - t0) - (x1 - x0))
        return out


class _RecordingPredictor:
    def __init__(self, inner, recorder: Recorder):
        self.inner = inner
        self.recorder = recorder

    def predict(self, dataset, want_logprobs=False, ensemble_k=None):
        records = self.inner.predict(
            dataset, want_logprobs=want_logprobs, ensemble_k=ensemble_k
        )
        rec = self.recorder
        at = len(rec.checkpoints)
        if not want_logprobs and ensemble_k is None:
            rec.label_calls.append((at, dataset, records))
            return records
        t0 = _clock()
        with rec._aside():
            if want_logprobs:
                scores, worst = least_confidence(records)
                rec.logprob_calls.append((at, scores, worst))
            if ensemble_k is not None:
                for s in dataset:
                    passes = records[s.id].ensemble
                    if passes is None or len(passes) != ensemble_k or any(
                        len(p) != len(s) for p in passes
                    ):
                        rec.ensemble_faults += 1
        rec.excluded += _clock() - t0
        return records


def least_confidence(records) -> tuple[dict[int, float], float]:
    """Least-confidence score per sentence from its per-token log-probs
    (minus the mean over tokens of the best tag's log-probability), and the
    largest |sum of a token's probabilities - 1|."""
    scores = {}
    worst = 0.0
    for sid, r in records.items():
        if r.logprobs is None:
            return scores, math.inf
        best = 0.0
        for lp in r.logprobs:
            best += max(lp.values())
            worst = max(worst, abs(math.fsum(math.exp(v) for v in lp.values()) - 1.0))
        scores[sid] = -best / len(r.labels)
    return scores, worst


# -- one strategy run ---------------------------------------------------------------


@dataclass
class StrategyRun:
    strategy: str
    mode: str
    config: loop.LoopConfig
    recorder: Recorder
    identity: list[bool]  # per partition: one group per surface
    ok: bool = True
    error: str = ""


@dataclass
class Inputs:
    seed: int
    pool: object
    validation: object
    test: object
    table: object = None
    partitions: list = field(default_factory=list)
    config_path: Path | None = None
    run_dir: Path | None = None


class Workload:
    name = ""
    docs = False
    full = FULL  # sizes of a benchmark run; the tests use TINY

    def __init__(self, sizes: Sizes, workdir: Path):
        self.sizes = sizes
        self.workdir = workdir

    def loop_config(self, seed: int, **overrides) -> loop.LoopConfig:
        values = dict(
            burn_in_batches=2,
            total_batches=5,
            history_batch_tokens=self.sizes.history_batch_tokens,
            selection_batch_tokens=self.sizes.selection_batch_tokens,
            seed=seed,
            fit=decay.FitConfig(**self.sizes.fit),
        )
        values.update(overrides)
        return loop.LoopConfig(**values)


class InProcess(Workload):
    """``run_active_loop`` called directly on the identity partition, one
    strategy run after another, each with its own recorder."""

    plans: tuple[tuple[str, dict], ...] = ()

    def setup(self, seed: int, rep: int, tracer=None) -> Inputs:
        pool, val, test = generate(seed, self.sizes, docs=False)
        union = list(pool.sentences) + list(val.sentences)
        part = partition.build_identity_partition(union)
        return Inputs(
            seed, pool, val, test, table=simlab.one_hot_embeddings(SPEC), partitions=[part]
        )

    def run(self, inputs: Inputs, tracer=None) -> list[StrategyRun]:
        runs = []
        run_loop = loop.run_active_loop
        if tracer is not None:
            run_loop = tracer.wrap(run_loop, "loop.run")
        for name, overrides in self.plans:
            cfg = self.loop_config(inputs.seed, **overrides)
            recorder = Recorder(tracer)
            trainer = simlab.builtin_trainer()
            if tracer is not None:
                trainer = tracer.trainer(trainer)
            run = StrategyRun(name, cfg.mode, cfg, recorder, [True])
            try:
                run_loop(
                    cfg,
                    inputs.partitions,
                    recorder.trainer(trainer),
                    inputs.pool,
                    inputs.validation,
                    strategy=name,
                    table=inputs.table,
                    test=inputs.test,
                    observer=recorder.observer(),
                )
            except Exception:  # a failed run is counted and reported, not fatal
                run.ok = False
                run.error = traceback.format_exc(limit=-3)
            runs.append(run)
        return runs

    def cleanup(self, inputs: Inputs) -> None:
        pass


class BlackboxEdgDiv(InProcess):
    """The paper's black-box comparison: error-decay selection against
    diversification, SENTENCE mode."""

    name = "blackbox-edg-div"
    full = PAPER
    # the paper's three burn-in batches, then three selection batches
    # rather than seven: every selection batch costs about the same, so
    # three keep the layer shares of a whole run at 16 s a repetition
    schedule = {"burn_in_batches": 3, "total_batches": 6}
    plans = (("edg", schedule), ("div", schedule))


class NoiseUncertainty(InProcess):
    """The paper's noise-robustness comparison: uncertainty sampling with
    uncertainty decay, and ensemble disagreement on a shortened schedule."""

    name = "noise-uncertainty"
    # batch 3 is the first whose uncertainty has a snapshot two batches back
    plans = (("us_edg_ext2", {}), ("bald", {"total_batches": 4}))


class Simulate(Workload):
    """One ``groupdecay simulate`` invocation, in-process, on files written
    at set-up; the recorder joins through the loop call the CLI makes."""

    strategy = ""

    def config(self, inputs: Inputs, base: Path) -> dict:
        """The ``simulate`` settings both CLI workloads share."""
        return {
            "strategy": self.strategy,
            "seed": inputs.seed,
            "paths": {
                "pool": str(base / "pool.conll"),
                "validation": str(base / "valid.conll"),
                "test": str(base / "test.conll"),
                "output": str(inputs.run_dir),
            },
            "loop": {
                "history_batch_tokens": self.sizes.history_batch_tokens,
                "selection_batch_tokens": self.sizes.selection_batch_tokens,
            },
            "fit": self.sizes.fit,
        }

    def setup(self, seed: int, rep: int, tracer=None) -> Inputs:
        pool, val, test = generate(seed, self.sizes, docs=self.docs)
        base = self.workdir / f"rep{rep:03d}"
        if base.exists():
            shutil.rmtree(base)
        base.mkdir(parents=True)
        write_conll(pool, base / "pool.conll")
        write_conll(val, base / "valid.conll")
        write_conll(test, base / "test.conll")
        inputs = Inputs(seed, pool, val, test, run_dir=base / "run")
        config = self.config(inputs, base)
        inputs.config_path = base / "config.json"
        inputs.config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        return inputs

    def simulate(self, inputs: Inputs, tracer=None, extra: tuple[str, ...] = ()) -> StrategyRun:
        recorder = Recorder(tracer)
        seen: dict = {}
        real_loop = cli.run_active_loop
        inner_loop = tracer.wrap(real_loop, "loop.run") if tracer is not None else real_loop

        def observed_loop(config, partitions, trainer, pool, validation, **kwargs):
            seen.update(config=config, partitions=partitions)
            kwargs["observer"] = recorder.observer(kwargs.get("observer"))
            if tracer is not None:
                trainer = tracer.trainer(trainer)
            return inner_loop(
                config, partitions, recorder.trainer(trainer), pool, validation, **kwargs
            )

        argv = ["simulate", "--config", str(inputs.config_path), *extra]
        err = io.StringIO()
        error = ""
        cli.run_active_loop = observed_loop
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                with tracer.span("cli.simulate") if tracer else contextlib.nullcontext():
                    code = cli.main(argv)
            if code != 0:
                error = f"simulate exited with {code}: {err.getvalue().strip()[-300:]}"
        except Exception:  # a failed run is counted and reported, not fatal
            error = traceback.format_exc(limit=-3)
        finally:
            cli.run_active_loop = real_loop
        cfg = seen.get("config")
        identity = [p.identity_vocab is not None for p in seen.get("partitions", [])]
        return StrategyRun(
            self.strategy, cfg.mode if cfg else "", cfg, recorder, identity,
            ok=not error, error=error,
        )

    def run(self, inputs: Inputs, tracer=None) -> list[StrategyRun]:
        return [self.simulate(inputs, tracer)]

    def cleanup(self, inputs: Inputs) -> None:
        shutil.rmtree(inputs.run_dir.parent, ignore_errors=True)


class Embed4Document(Simulate):
    """``simulate`` edg over the four embedding partitions, DOCUMENT mode."""

    name = "embed4-document"
    docs = True
    strategy = "edg"

    def setup(self, seed: int, rep: int, tracer=None) -> Inputs:
        inputs = super().setup(seed, rep, tracer)
        write_embeddings(seed, inputs.config_path.parent / "embeddings.txt")
        return inputs

    def check_resume(self, inputs: Inputs) -> tuple[StrategyRun, list[str]]:
        """Resume a copy of the finished run whose ``history.jsonl`` lost
        its last checkpoint; the resumed file must equal the full one
        byte for byte.  Returns the resumed run and the problems found."""
        full = (inputs.run_dir / "history.jsonl").read_bytes()
        lines = full.splitlines(keepends=True)
        copy = inputs.run_dir.parent / "resumed"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(inputs.run_dir, copy)
        (copy / "history.jsonl").write_bytes(b"".join(lines[:-1]))
        config = json.loads(inputs.config_path.read_text(encoding="utf-8"))
        config["paths"]["output"] = str(copy)
        config_path = copy.parent / "config_resume.json"
        config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        resumed = Inputs(inputs.seed, inputs.pool, inputs.validation, inputs.test,
                         config_path=config_path, run_dir=copy)
        run = self.simulate(resumed, extra=("--resume",))
        if run.ok and (copy / "history.jsonl").read_bytes() != full:
            return run, ["resume: history.jsonl differs from the uninterrupted run's"]
        return run, []

    def config(self, inputs: Inputs, base: Path) -> dict:
        config = super().config(inputs, base)
        config["mode"] = "DOCUMENT"
        config["paths"]["embeddings"] = str(base / "embeddings.txt")
        config["loop"].update(burn_in_batches=2, total_batches=5)
        config["partitions"] = {"kinds": ["SENTENCE", "WORD", "WORD_SHAPE", "WORD_SENTENCE"]}
        config["predictor"] = {"type": "builtin"}
        return config


TAGGER = Path(__file__).resolve().parent / "tagger.py"


class ExternalTagger(Simulate):
    """``simulate`` us with ``tagger.py`` as the external black-box tagger."""

    name = "external-tagger"
    strategy = "us"

    def config(self, inputs: Inputs, base: Path) -> dict:
        command = (
            f"{shlex.quote(sys.executable)} {shlex.quote(str(TAGGER))} "
            "{train} {input} {output} {logprobs}"
        )
        config = super().config(inputs, base)
        config["loop"].update(burn_in_batches=1, total_batches=4, min_history_points=2)
        config["partitions"] = {"kinds": "identity", "one_hot": True}
        config["predictor"] = {"type": "external", "command": command, "logprobs": True}
        return config


# BENCHMARK.json lists the workloads in this order.  noise-uncertainty, the
# one whose times drift most, comes last, furthest from blackbox-edg-div:
# in blocks of ten runs right after blackbox-edg-div it ran slower at first
# (see "Steadiness" in the README).
WORKLOADS = {
    w.name: w for w in (BlackboxEdgDiv, Embed4Document, ExternalTagger, NoiseUncertainty)
}
