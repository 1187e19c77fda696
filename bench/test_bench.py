"""Tests of the benchmark itself: every workload runs at tiny size and
passes its checks, and every check fails on a deliberately corrupted output.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from groupdecay.strategies import PredictionRecord  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_a_correct_result(name):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {"run_s", "round_s", "setup_s", "peak_rss_mb", "final_test_f1"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "noise-uncertainty",
         "--seed", "2", "--seconds", "0", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["simlab.predict_ensemble_s"] > 0 and metrics["simlab.predict_logprobs_s"] > 0
    # the bypassed layers read nothing on this workload
    assert metrics["selection.select_s"] == 0 and metrics["decay.fit_calls"] == 0
    spans = [json.loads(line) for line in (BENCH / "spans" / "noise-uncertainty-seed2.jsonl").open()]
    assert spans and all(s["end"] >= s["start"] for s in spans)
    assert all(s["parent"] is None or s["parent"] < s["id"] for s in spans)


def test_missing_program_source_exits_nonzero(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "blackbox-edg-div", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# -- each check catches a corrupted output ---------------------------------------------


def _one_repetition(name, tmp_path_factory):
    workload = workloads.WORKLOADS[name](workloads.TINY, tmp_path_factory.mktemp(name))
    inputs = workload.setup(3, 0)
    runs = workload.run(inputs)
    return workload, inputs, runs


@pytest.fixture(scope="module")
def edg_div(tmp_path_factory):
    return _one_repetition("blackbox-edg-div", tmp_path_factory)


@pytest.fixture(scope="module")
def noise(tmp_path_factory):
    return _one_repetition("noise-uncertainty", tmp_path_factory)


@pytest.fixture(scope="module")
def embed4(tmp_path_factory):
    return _one_repetition("embed4-document", tmp_path_factory)


def _selection_index(run):
    return next(i for i, c in enumerate(run.recorder.checkpoints) if c.phase == "select")


def test_clean_runs_pass(edg_div, noise, embed4):
    for _, inputs, runs in (edg_div, noise, embed4):
        for run in runs:
            assert checks.check_run(run, inputs) == []


def test_duplicated_batch_id_is_caught(edg_div):
    _, inputs, runs = edg_div
    run = copy.deepcopy(runs[0])
    rec = run.recorder.checkpoints[_selection_index(run)]
    rec.selected_ids = rec.selected_ids + rec.selected_ids[:1]
    assert any("more than once" in p for p in checks.check_batches(run, inputs))


def test_batch_over_budget_is_caught(edg_div):
    _, inputs, runs = edg_div
    run = copy.deepcopy(runs[1])
    i = _selection_index(run)
    rec = run.recorder.checkpoints[i]
    spare = next(s.id for s in inputs.pool.sentences
                 if all(s.id not in c.selected_ids for c in run.recorder.checkpoints))
    rec.selected_ids = rec.selected_ids + (spare,)
    assert checks.check_batches(run, inputs)


def test_perturbed_f1_is_caught(edg_div):
    _, inputs, runs = edg_div
    run = copy.deepcopy(runs[1])
    run.recorder.checkpoints[-1].test_f1 += 1e-6
    assert any("test F1" in p for p in checks.check_f1(run, inputs))


def test_shifted_mass_is_caught(edg_div, embed4):
    for _, inputs, runs in (edg_div, embed4):
        run = copy.deepcopy(runs[0])
        mass = run.recorder.checkpoints[-1].group_records[0].train_mass
        nonzero = int(np.flatnonzero(mass)[0])
        mass[nonzero] -= 1.0
        mass[(nonzero + 1) % len(mass)] += 1.0
        problems = checks.check_masses(run, inputs)
        if all(run.identity):
            assert any("bincount" in p for p in problems)
        run.recorder.checkpoints[-1].group_records[0].train_mass[nonzero] += 0.5
        assert any("sum to" in p for p in checks.check_masses(run, inputs))


def test_val_error_out_of_range_is_caught(embed4):
    _, inputs, runs = embed4
    run = copy.deepcopy(runs[0])
    run.recorder.checkpoints[2].group_records[1].val_error[0] = 1.25
    assert any("[0, 1]" in p for p in checks.check_masses(run, inputs))


def test_swapped_first_pick_is_caught(edg_div):
    _, inputs, runs = edg_div
    run = copy.deepcopy(runs[0])
    assert run.strategy == "edg"
    rec = run.recorder.checkpoints[_selection_index(run)]
    ids = list(rec.selected_ids)
    ids[0], ids[1] = ids[1], ids[0]
    rec.selected_ids = tuple(ids)
    assert any("first pick" in p for p in checks.check_first_pick(run, inputs))


def test_fit_faults_are_caught(embed4):
    _, inputs, runs = embed4
    for fault in ("objective", "negative", "start"):
        run = copy.deepcopy(runs[0])
        batch_index, fits = next(iter(run.recorder.fits.items()))
        f = fits[1]
        if fault == "objective":
            f.objective_value *= 1.001
        elif fault == "negative":
            f.params.c[0] = -f.params.c[0] - 1e-3
        else:
            f.start_objectives[0] = f.objective_value * 0.5
        assert checks.check_fits(run, inputs), fault


def test_uncertainty_order_is_caught(noise):
    _, inputs, runs = noise
    run = copy.deepcopy(runs[0])
    assert run.strategy == "us_edg_ext2"
    rec = run.recorder
    i = next(i for i, c in enumerate(rec.checkpoints) if c.phase == "select" and c.batch_index == 2)
    c = rec.checkpoints[i]
    _, scores, _ = next(x for x in rec.logprob_calls if x[0] == i - 1)
    least = min((sid for sid in scores if sid not in c.selected_ids), key=scores.get)
    c.selected_ids = (least,) + c.selected_ids[1:]
    assert any("unselected" in p for p in checks.check_uncertainty(run, inputs))


class _FaultyPredictor:
    """Probabilities that sum to 0.99 and ensemble passes one token short."""

    def predict(self, dataset, want_logprobs=False, ensemble_k=None):
        out = {}
        for s in dataset:
            labels = tuple("O" for _ in s.tokens)
            logprobs = tuple({"O": math.log(0.5), "B-E1": math.log(0.49)} for _ in s.tokens)
            passes = tuple(labels[:-1] for _ in range(ensemble_k or 0))
            out[s.id] = PredictionRecord(
                s.id, labels, logprobs if want_logprobs else None, passes or None
            )
        return out


def test_probability_sums_and_ensembles_are_caught(noise):
    _, inputs, runs = noise
    recorder = workloads.Recorder()
    predictor = recorder.trainer(lambda train_ds: _FaultyPredictor())(None)
    sentences = inputs.validation.sentences[:3]
    predictor.predict(sentences, want_logprobs=True)
    predictor.predict(sentences, ensemble_k=3)
    run = copy.deepcopy(runs[1])
    assert run.strategy == "bald"
    run.recorder = recorder
    problems = checks.check_uncertainty(run, inputs)
    assert any("probabilities" in p for p in problems)
    assert any("ensemble" in p for p in problems)


def test_fingerprint_change_is_caught(edg_div):
    _, _, runs = edg_div
    first = [checks.fingerprint(r) for r in runs]
    changed = copy.deepcopy(runs[0])
    changed.recorder.checkpoints[-1].selected_ids = changed.recorder.checkpoints[-1].selected_ids[::-1]
    assert checks.check_fingerprints([first, first]) == []
    assert checks.check_fingerprints([first, [checks.fingerprint(changed), first[1]]])


def test_resume_mismatch_is_caught(embed4):
    workload, inputs, runs = embed4
    resumed, problems = workload.check_resume(inputs)
    assert resumed.ok and problems == []
    history = inputs.run_dir / "history.jsonl"
    lines = history.read_text().splitlines(keepends=True)
    lines[-1] = lines[-1].replace('"phase": "select"', '"phase": "select" ')
    history.write_text("".join(lines))
    resumed, problems = workload.check_resume(inputs)
    assert resumed.ok and problems


def test_benchmark_json_matches_the_code():
    from tracing import SOURCES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(SOURCES)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "run_s", "round_s", "setup_s", "peak_rss_mb", "final_test_f1"
    ]
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in spec["end_to_end"])
