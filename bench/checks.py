"""Correctness checks on what a strategy run produced.

None of these calls the program's scoring, mass or fitting code.  Each
check recomputes a quantity from the benchmark's own generated inputs and
from the predictions, fits and batches the run exposed, or tests a property
the method must have.  Every check returns a list of problems; an empty list
means the run passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter

import numpy as np

# Recomputed floating-point values agree with the program's to this
# relative tolerance; they sum the same terms in another order.
REL_TOL = 1e-9
# Probabilities of one token sum to 1 within this.
PROB_TOL = 1e-9


# -- phrase-span F1 ------------------------------------------------------------------


def phrases(tags) -> set[tuple[int, int, str]]:
    """(start, end, type) spans of a BIO sequence.  An I-X that does not
    continue an open X span opens a new span (the conlleval convention)."""
    out = set()
    start, kind = None, None
    for i, tag in enumerate(list(tags) + ["O"]):
        if tag == "O" or tag.startswith("B-") or tag[2:] != kind:
            if kind is not None:
                out.add((start, i - 1, kind))
            start, kind = (None, None) if tag == "O" else (i, tag[2:])
    return out


def span_f1(gold_dataset, predicted: dict) -> float:
    matched = n_gold = n_pred = 0
    for s in gold_dataset.sentences:
        g = phrases([t.gold_label for t in s.tokens])
        p = phrases(predicted[s.id].labels)
        n_gold += len(g)
        n_pred += len(p)
        matched += len(g & p)
    return 2.0 * matched / (n_gold + n_pred) if n_gold + n_pred else 0.0


def _surfaces(sentences):
    return tuple(tuple(t.surface for t in s.tokens) for s in sentences)


def check_f1(run, inputs) -> list[str]:
    """Recorded validation and test F1 equal the F1 of the captured
    predictions, scored against the generated gold labels."""
    problems = []
    keys = {
        "val": _surfaces(inputs.validation.sentences),
        "test": _surfaces(inputs.test.sentences),
    }
    found: dict[tuple[int, str], float] = {}
    for at, sentences, records in run.recorder.label_calls:
        key = _surfaces(sentences)
        for role, gold in (("val", inputs.validation), ("test", inputs.test)):
            if key == keys[role] and (at, role) not in found:
                found[(at, role)] = span_f1(gold, records)
    for i, rec in enumerate(run.recorder.checkpoints):
        for role, recorded in (("val", rec.val_f1), ("test", rec.test_f1)):
            own = found.get((i, role))
            if own is None:
                problems.append(f"checkpoint {i}: no captured {role} predictions")
            elif recorded is None or not math.isclose(own, recorded, rel_tol=REL_TOL, abs_tol=1e-12):
                problems.append(f"checkpoint {i}: recorded {role} F1 {recorded!r} != own {own!r}")
    return problems


# -- masses, errors and batches -------------------------------------------------------


def identity_vocab(inputs) -> dict[str, int]:
    surfaces = sorted(
        {t.surface for ds in (inputs.pool, inputs.validation) for s in ds.sentences for t in s.tokens}
    )
    return {w: i for i, w in enumerate(surfaces)}


def _counts(sentences, vocab: dict[str, int]) -> np.ndarray:
    ids = [vocab[t.surface] for s in sentences for t in s.tokens]
    return np.bincount(np.asarray(ids, dtype=np.intp), minlength=len(vocab)).astype(np.float64)


def check_masses(run, inputs) -> list[str]:
    """Identity partitions: the recorded training mass is the bincount of
    the selected tokens.  Every partition: masses sum to ``train_tokens``
    and validation errors lie in [0, 1]."""
    problems = []
    by_id = {s.id: s for s in inputs.pool.sentences}
    vocab = identity_vocab(inputs) if any(run.identity) else None
    selected = []
    for i, rec in enumerate(run.recorder.checkpoints):
        selected.extend(by_id[sid] for sid in rec.selected_ids if sid in by_id)
        if rec.group_records is None:
            problems.append(f"checkpoint {i}: no group records")
            continue
        own_counts = _counts(selected, vocab) if vocab is not None else None
        for p, gr in enumerate(rec.group_records):
            total = float(np.sum(gr.train_mass))
            if not math.isclose(total, rec.train_tokens, rel_tol=REL_TOL):
                problems.append(
                    f"checkpoint {i} partition {p}: masses sum to {total!r}, "
                    f"train_tokens {rec.train_tokens}"
                )
            if run.identity[p] and not np.array_equal(gr.train_mass, own_counts):
                problems.append(f"checkpoint {i} partition {p}: train_mass != token bincount")
            err = np.asarray(gr.val_error)
            if not (np.all(np.isfinite(err)) and np.all(err >= 0.0) and np.all(err <= 1.0)):
                problems.append(f"checkpoint {i} partition {p}: val_error outside [0, 1]")
    return problems


def _last_unit_tokens(ids, by_id, mode: str) -> int:
    if mode != "DOCUMENT":
        return len(by_id[ids[-1]])
    doc = by_id[ids[-1]].doc_id
    total = 0
    for sid in reversed(ids):
        if by_id[sid].doc_id != doc:
            break
        total += len(by_id[sid])
    return total


def check_batches(run, inputs) -> list[str]:
    """Selected ids come from the pool and are chosen once; ``train_tokens``
    is the summed length of everything selected; a selection batch meets
    its budget and overshoots it by less than its last unit."""
    problems = []
    by_id = {s.id: s for s in inputs.pool.sentences}
    budget = run.config.selection_batch_tokens
    chosen: Counter = Counter()
    tokens = 0
    for i, rec in enumerate(run.recorder.checkpoints):
        ids = list(rec.selected_ids)
        outside = [sid for sid in ids if sid not in by_id]
        if outside:
            problems.append(f"checkpoint {i}: ids {outside[:3]} are not pool sentences")
            continue
        chosen.update(ids)
        batch_tokens = sum(len(by_id[sid]) for sid in ids)
        tokens += batch_tokens
        if rec.train_tokens != tokens:
            problems.append(f"checkpoint {i}: train_tokens {rec.train_tokens} != summed {tokens}")
        if rec.phase != "select":
            continue
        batch = run.recorder.batches.get(rec.batch_index)
        if batch is None or tuple(batch.sentence_ids) != tuple(ids) or batch.token_count != batch_tokens:
            problems.append(f"batch {rec.batch_index}: batch event disagrees with checkpoint")
        if not ids:
            problems.append(f"batch {rec.batch_index}: empty")
            continue
        if not rec.batch_exhausted and batch_tokens < budget:
            problems.append(f"batch {rec.batch_index}: {batch_tokens} tokens under budget {budget}")
        if batch_tokens - _last_unit_tokens(ids, by_id, run.mode) >= budget:
            problems.append(
                f"batch {rec.batch_index}: overshoot of {batch_tokens - budget} tokens "
                f"is not below its last unit"
            )
    twice = [sid for sid, n in chosen.items() if n > 1]
    if twice:
        problems.append(f"ids chosen more than once: {twice[:5]}")
    return problems


# -- decay fits ---------------------------------------------------------------------


def _own_weights(errors: np.ndarray, val_mass: np.ndarray) -> np.ndarray:
    """Documented weights: w_j = min(100, last validation mass) times v_tj,
    which is 3 at each group's lowest-error checkpoint (earliest on ties)
    and 1 elsewhere."""
    v = np.ones_like(errors)
    for j in range(errors.shape[1]):
        col = errors[:, j]
        t = min(range(len(col)), key=lambda k: (col[k], k))
        v[t, j] = 3.0
    return v * np.minimum(100.0, val_mass)[None, :]


def own_curve(params, n: np.ndarray, groups=slice(None)) -> np.ndarray:
    """e(n) = c + b (a_half (a0 n)^-1/2 + a1 (a0 n)^-1 + a2 (a0 n)^-2 + a3 (a0 n)^-3),
    evaluated at max(n, 1), for all groups or the given ones."""
    u = params.a0 * np.maximum(n, 1.0)
    return params.c[groups] + params.b[groups] * (
        params.a_half / np.sqrt(u) + params.a1 / u + params.a2 / u**2 + params.a3 / u**3
    )


def check_fits(run, inputs) -> list[str]:
    """Each fit's objective, recomputed from the curve formula and the
    documented weights over the checkpoints it was fitted on; non-negative
    parameters; an objective no worse than every start's objective."""
    problems = []
    checkpoints = run.recorder.checkpoints
    for batch_index, fits in sorted(run.recorder.fits.items()):
        at = next(
            i for i, c in enumerate(checkpoints)
            if c.phase == "select" and c.batch_index == batch_index
        )
        for p, f in enumerate(fits):
            records = [c.group_records[p] for c in checkpoints[:at]]
            N = np.stack([r.train_mass for r in records])
            Y = np.stack([r.val_error for r in records])
            W = _own_weights(Y, records[-1].val_mass)
            prm = f.params
            own = float(np.sum(W * (own_curve(prm, N) - Y) ** 2))
            if not math.isclose(own, f.objective_value, rel_tol=REL_TOL, abs_tol=1e-12):
                problems.append(
                    f"batch {batch_index} partition {p}: objective {f.objective_value!r} "
                    f"!= recomputed {own!r}"
                )
            values = np.concatenate(([prm.a0, prm.a_half, prm.a1, prm.a2, prm.a3], prm.b, prm.c))
            if np.any(values < 0) or not np.all(np.isfinite(values)):
                problems.append(f"batch {batch_index} partition {p}: negative or non-finite parameter")
            if f.start_objectives and f.objective_value > min(f.start_objectives):
                problems.append(
                    f"batch {batch_index} partition {p}: objective {f.objective_value!r} "
                    f"worse than a start's {min(f.start_objectives)!r}"
                )
    return problems


def check_first_pick(run, inputs) -> list[str]:
    """SENTENCE-mode EDG on identity partitions: the first pick of each
    batch is the argmax of the geometric-mean gain score, recomputed from
    the fitted curves and the masses, ties to the smallest id.  A pick whose
    recomputed score is within 1e-12 (relative) of the best one counts as a
    tie, because the two computations add the same terms in another order."""
    if run.strategy != "edg" or run.mode != "SENTENCE" or not all(run.identity):
        return []
    problems = []
    vocab = identity_vocab(inputs)
    da_sentences = list(inputs.pool.sentences) + list(inputs.validation.sentences)
    da = _counts(da_sentences, vocab)
    epsilon = 0.001 * max(1.0, sum(len(s) for s in da_sentences) / 250_000.0)
    checkpoints = run.recorder.checkpoints
    taken: set[int] = set()
    for i, rec in enumerate(checkpoints):
        if rec.phase == "select" and rec.batch_index in run.recorder.fits:
            fits = run.recorder.fits[rec.batch_index]
            pool = [s for s in inputs.pool.sentences if s.id not in taken]
            row = np.repeat(np.arange(len(pool)), [len(s) for s in pool])
            gid = np.asarray([vocab[t.surface] for s in pool for t in s.tokens], dtype=np.intp)
            pair, counts = np.unique(np.stack([row, gid]), axis=1, return_counts=True)
            lengths = np.asarray([len(s) for s in pool], dtype=np.float64)
            log_score = np.zeros(len(pool))
            for p, f in enumerate(fits):
                m = checkpoints[i - 1].group_records[p].train_mass
                g = pair[1]
                gain = (own_curve(f.params, m[g], g) - own_curve(f.params, m[g] + counts, g)) * da[g]
                factor = np.bincount(pair[0], weights=gain, minlength=len(pool)) / lengths + epsilon
                factor[factor <= 0.0] = 1e-12
                log_score += np.log(factor)
            score = np.exp(log_score / len(fits))
            best = max(range(len(pool)), key=lambda k: (score[k], -pool[k].id))
            picked = rec.selected_ids[0] if rec.selected_ids else None
            index = {s.id: k for k, s in enumerate(pool)}
            if picked != pool[best].id:
                near = picked in index and math.isclose(
                    score[index[picked]], score[best], rel_tol=1e-12
                )
                if not near:
                    problems.append(
                        f"batch {rec.batch_index}: first pick {picked} but the recomputed "
                        f"argmax is {pool[best].id}"
                    )
        taken.update(rec.selected_ids)
    return problems


# -- uncertainty batches ---------------------------------------------------------------


def check_uncertainty(run, inputs) -> list[str]:
    """``us`` batches built on raw uncertainty: no unselected sentence has
    a higher least-confidence score (from the log-probs) than a selected
    one.  Every token's probabilities sum to 1.  Ensemble predictions have
    one full-length pass per member."""
    problems = []
    rec = run.recorder
    if rec.ensemble_faults:
        problems.append(f"{rec.ensemble_faults} sentences with malformed ensemble passes")
    for at, _, worst in rec.logprob_calls:
        if not worst <= PROB_TOL:
            problems.append(
                f"checkpoint {at}: log-probs missing, or a token's probabilities sum to 1 +- {worst:g}"
            )
    if run.strategy not in ("us", "us_edg_ext2"):
        return problems
    scores_at = {at: scores for at, scores, _ in rec.logprob_calls}
    checkpoints = rec.checkpoints
    lag = run.config.lag_tokens
    for i, c in enumerate(checkpoints):
        if c.phase != "select" or not c.selected_ids:
            continue
        current = scores_at.get(i - 1)
        if current is None:
            problems.append(f"batch {c.batch_index}: no log-prob predictions before it")
            continue
        scores = current
        if run.strategy == "us_edg_ext2" and c.batch_index % 2 == 1:
            now = checkpoints[i - 1].train_tokens
            lagged = None
            for k in range(i - 1):
                if k in scores_at and checkpoints[k].train_tokens <= now - lag:
                    lagged = scores_at[k]
            if lagged is not None:
                scores = {
                    sid: min(max(lagged[sid] - u, 0.0), u) if sid in lagged else u
                    for sid, u in current.items()
                }
        chosen = set(c.selected_ids)
        low = min(scores[sid] for sid in chosen)
        rest = [u for sid, u in scores.items() if sid not in chosen]
        if rest and max(rest) > low + 1e-12:
            problems.append(
                f"batch {c.batch_index}: an unselected sentence scores {max(rest)!r} "
                f"above a selected one at {low!r}"
            )
    return problems


# -- whole runs -------------------------------------------------------------------------


def fingerprint(run) -> str:
    """Hash of the selected ids and the validation and test F1 of every
    checkpoint."""
    payload = [
        [list(c.selected_ids), repr(c.val_f1), repr(c.test_f1)] for c in run.recorder.checkpoints
    ]
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()[:16]


CHECKS = (check_f1, check_masses, check_batches, check_fits, check_first_pick, check_uncertainty)


def check_run(run, inputs) -> list[str]:
    """Every check on one strategy run; a run that failed has no outputs to
    check (it is counted as failed instead)."""
    if not run.ok:
        return []
    if not run.recorder.checkpoints:
        return [f"{run.strategy}: no checkpoints"]
    problems = []
    for check in CHECKS:
        problems += [f"{run.strategy}: {p}" for p in check(run, inputs)]
    return problems


def check_fingerprints(per_rep: list[list[str]]) -> list[str]:
    """Every repetition of a run selects the same batches and scores the same."""
    first = per_rep[0]
    return [
        f"repetition {k}: fingerprints {fps} differ from repetition 0's {first}"
        for k, fps in enumerate(per_rep)
        if fps != first
    ]
