"""Span recording around the program's public functions, from outside.

A :class:`Tracer` replaces module attributes (the names the loop and the CLI
call) with wrappers that record one span per call: name, start, end, parent
span and run id.  Spans stay in memory and are written out once, when the
benchmark ends.  A layer's self time is the duration of its spans minus the
part covered by their child spans; calls never overlap on the one thread
the program runs on, so that part is the sum of the children's durations.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import statistics
import time
import types
from pathlib import Path

__all__ = ["Tracer", "SOURCES", "instrument", "layer_metrics"]

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, run id]
        self.spans: list[list] = []
        self.counts: dict[int, collections.Counter] = collections.defaultdict(
            collections.Counter
        )
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.run_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.run_id][name] += amount

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` recording a span per call; ``on_result(tracer, result,
        args, kwargs)`` adds counts once the call has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, on_result))
        self._patches.append((owner, attr, original))

    def patch_subprocess(self, module, name: str) -> None:
        """Time ``module.subprocess.run`` without touching the global module."""
        real = module.subprocess
        proxy = types.SimpleNamespace(run=self.wrap(real.run, name))
        setattr(module, "subprocess", proxy)
        self._patches.append((module, "subprocess", real))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- predictor protocol ------------------------------------------------

    def trainer(self, trainer):
        """Trainer whose calls and whose predictors' ``predict`` calls are
        spans: ``simlab.train`` and ``simlab.predict`` (labels only),
        ``simlab.predict_logprobs`` or ``simlab.predict_ensemble``."""
        tracer = self

        def train(train_ds):
            index = tracer._open("simlab.train")
            try:
                predictor = trainer(train_ds)
            finally:
                tracer._close(index)
            tracer.count("simlab.train_calls")
            tracer.count("simlab.train_tokens", train_ds.token_count)
            return _TracedPredictor(predictor, tracer)

        return train

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": None if parent < 0 else parent,
                            "run_id": run_id,
                        }
                    )
                    + "\n"
                )

    def per_run(self) -> dict[int, dict[str, float]]:
        """Per run id: summed duration and call count of each span name and
        summed self time of each layer (the span name's first component)."""
        out: dict[int, dict[str, float]] = collections.defaultdict(
            lambda: collections.defaultdict(float)
        )
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, run_id in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, run_id) in enumerate(self.spans):
            totals = out[run_id]
            totals[f"time:{name}"] += end - start
            totals[f"calls:{name}"] += 1
            totals[f"self:{name.split('.', 1)[0]}"] += end - start - child_time[i]
        for run_id, counts in self.counts.items():
            for name, value in counts.items():
                out[run_id][f"count:{name}"] += value
        return out


class _TracedPredictor:
    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def predict(self, dataset, want_logprobs=False, ensemble_k=None):
        if ensemble_k is not None:
            kind = "simlab.predict_ensemble"
        elif want_logprobs:
            kind = "simlab.predict_logprobs"
        else:
            kind = "simlab.predict"
        tokens = sum(len(s) for s in dataset)
        with self.tracer.span(kind):
            records = self.inner.predict(
                dataset, want_logprobs=want_logprobs, ensemble_k=ensemble_k
            )
        self.tracer.count(f"{kind}_tokens", tokens)
        return records


# -- per-layer metrics ----------------------------------------------------------
#
# BENCHMARK.json lists the per-layer metrics with their units and better
# directions; this maps each metric to where its value comes from.
# ("time", span) sums span durations; ("calls", span) counts spans;
# ("count", name) reads a counter set by a wrapper; ("self", layer) sums
# self time over the layer's spans; ("per_pick_ms",) and ("overhead",) are
# derived in layer_metrics.

SOURCES: dict[str, tuple] = {
    "selection.select_s": ("time", "selection.select"),
    "selection.picks": ("count", "selection.picks"),
    "selection.pick_ms": ("per_pick_ms",),
    "selection.numeric_faults": ("count", "selection.numeric_faults"),
    "decay.fit_s": ("time", "decay.fit"),
    "decay.fit_calls": ("calls", "decay.fit"),
    "decay.fit_groups": ("count", "decay.fit_groups"),
    "decay.fit_iters": ("count", "decay.fit_iters"),
    "decay.fit_converged": ("count", "decay.fit_converged"),
    "simlab.predict_logprobs_s": ("time", "simlab.predict_logprobs"),
    "simlab.predict_ensemble_s": ("time", "simlab.predict_ensemble"),
    "simlab.predict_logprobs_tokens": ("count", "simlab.predict_logprobs_tokens"),
    "simlab.predict_ensemble_tokens": ("count", "simlab.predict_ensemble_tokens"),
    "strategies.score_s": ("time", "strategies.score"),
    "simlab.train_s": ("time", "simlab.train"),
    "simlab.train_calls": ("count", "simlab.train_calls"),
    "simlab.train_tokens": ("count", "simlab.train_tokens"),
    "simlab.predict_s": ("time", "simlab.predict"),
    "simlab.predict_tokens": ("count", "simlab.predict_tokens"),
    "strategies.fass_s": ("time", "strategies.fass"),
    "strategies.fass_picks": ("count", "strategies.fass_picks"),
    "partition.build_s": ("time", "partition.build"),
    "partition.mass_s": ("time", "partition.mass"),
    "partition.group_error_s": ("time", "partition.group_error"),
    "partition.group_error_calls": ("calls", "partition.group_error"),
    "scoring.f1_s": ("time", "scoring.f1"),
    "scoring.f1_calls": ("calls", "scoring.f1"),
    "scoring.export_s": ("time", "scoring.export"),
    "corpus.parse_s": ("time", "corpus.parse"),
    "corpus.embeddings_s": ("time", "corpus.embeddings"),
    "corpus.serialize_s": ("time", "corpus.serialize"),
    "cli.external_s": ("time", "cli.external"),
    "cli.external_calls": ("calls", "cli.external"),
    "cli.subprocess_s": ("time", "cli.subprocess"),
    "strategies.records_parse_s": ("time", "strategies.records_parse"),
    "cli.persist_s": ("time", "cli.persist"),
    "loop.self_s": ("self", "loop"),
    "loop.rounds": ("count", "loop.rounds"),
    "corpus.self_s": ("self", "corpus"),
    "partition.self_s": ("self", "partition"),
    "simlab.self_s": ("self", "simlab"),
    "scoring.self_s": ("self", "scoring"),
    "decay.self_s": ("self", "decay"),
    "selection.self_s": ("self", "selection"),
    "strategies.self_s": ("self", "strategies"),
    "cli.self_s": ("self", "cli"),
    "bench.self_s": ("self", "bench"),
    "trace.spans": ("calls", "*"),
    "trace.overhead_s": ("overhead",),
}


def layer_metrics(
    spec: list[dict],
    tracer: Tracer,
    traced_runs: list[int],
    traced_run_s: list[float],
    plain_run_s: list[float],
) -> dict[str, dict]:
    """The per-layer metrics of ``spec`` (BENCHMARK.json's ``per_layer``)
    as the median over the traced repetitions, plus the tracing overhead:
    median traced minus median untraced ``run_s``."""
    per_run = tracer.per_run()
    out = {}
    for metric in spec:
        source = SOURCES[metric["name"]]
        kind = source[0]
        if kind == "overhead":
            value = statistics.median(traced_run_s) - statistics.median(plain_run_s)
            out[metric["name"]] = {"value": value, "unit": metric["unit"]}
            continue
        values = []
        for run_id in traced_runs:
            totals = per_run.get(run_id, {})
            if kind == "calls" and source[1] == "*":
                v = sum(n for k, n in totals.items() if k.startswith("calls:"))
            elif kind == "per_pick_ms":
                picks = totals.get("count:selection.picks", 0.0)
                select_s = totals.get("time:selection.select", 0.0)
                v = 1000.0 * select_s / picks if picks else 0.0
            else:
                v = totals.get(f"{kind}:{source[1]}", 0.0)
            values.append(v)
        out[metric["name"]] = {"value": statistics.median(values), "unit": metric["unit"]}
    return out


# -- the wrapped functions ----------------------------------------------------------


def _fit_counts(tracer, fit, args, kwargs):
    tracer.count("decay.fit_groups", fit.params.n_groups)
    tracer.count("decay.fit_iters", max(len(fit.objective_trace) - 2, 0))
    tracer.count("decay.fit_converged", int(fit.converged))


def _select_counts(tracer, batch, args, kwargs):
    tracer.count("selection.picks", len(batch.sentence_ids))
    tracer.count("selection.numeric_faults", args[0].numeric_faults)


def _fass_counts(tracer, batch, args, kwargs):
    tracer.count("strategies.fass_picks", len(batch.sentence_ids))


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions at the names the loop and the CLI call
    them by.  ``tracer.unpatch()`` restores them."""
    from groupdecay import cli, loop, partition, simlab

    for owner in (loop, cli):
        tracer.patch(owner, "fit", "decay.fit", _fit_counts)
    tracer.patch(loop, "select_batch", "selection.select", _select_counts)
    tracer.patch(loop, "fass_select", "strategies.fass", _fass_counts)
    for attr in ("score_us", "score_bald", "score_uncertainty_decay"):
        tracer.patch(loop, attr, "strategies.score")
    tracer.patch(loop, "micro_f1", "scoring.f1")
    tracer.patch(loop, "group_error", "partition.group_error")
    for attr in ("group_mass", "sentence_group_delta"):
        tracer.patch(loop, attr, "partition.mass")
    for owner in (partition, cli):
        for attr in ("build_partition", "build_identity_partition"):
            tracer.patch(owner, attr, "partition.build")
    tracer.patch(simlab, "gen_synthetic", "simlab.generate")
    tracer.patch(cli, "parse_conll", "corpus.parse")
    tracer.patch(cli, "load_embeddings", "corpus.embeddings")
    tracer.patch(cli, "serialize_conll", "corpus.serialize")
    tracer.patch(cli, "read_records", "strategies.records_parse")
    tracer.patch(cli, "export_decay_curves", "scoring.export")
    tracer.patch(cli, "save_partition", "cli.persist")
    tracer.patch(cli._RunWriter, "__call__", "cli.persist")
    tracer.patch(cli.ExternalPredictor, "predict", "cli.external")
    tracer.patch_subprocess(cli, "cli.subprocess")
