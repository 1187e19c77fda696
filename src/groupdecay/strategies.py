"""Sampling strategies over black-box prediction records.

Every strategy consumes :class:`PredictionRecord` objects (the predictor
exchange unit: predicted tags, optional per-token log-probabilities,
optional ensemble passes) and produces a sentence batch.  Uncertainty-based
scores are oriented so that the most uncertain sentence has the largest
score and every strategy is argmax-select.
"""

from __future__ import annotations

import enum
import heapq
import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .corpus import _iter_lines
from .partition import GroupErrorRecord, GroupIndex, mismatch_rates
from .selection import Batch, document_means

__all__ = [
    "PredictionRecord",
    "UncertaintySnapshot",
    "CapabilityError",
    "AlternationChoice",
    "score_us",
    "score_bald",
    "score_uncertainty_decay",
    "alternation_policy",
    "fass_select",
    "prediction_difference_records",
    "write_records",
    "read_records",
]


class CapabilityError(RuntimeError):
    """The predictor does not expose the output a strategy needs."""


@dataclass(frozen=True)
class PredictionRecord:
    sentence_id: int
    labels: tuple[str, ...]
    logprobs: tuple[dict[str, float], ...] | None = None
    ensemble: tuple[tuple[str, ...], ...] | None = None

    def validate(self) -> None:
        if self.logprobs is not None:
            if len(self.logprobs) != len(self.labels):
                raise ValueError(f"sentence {self.sentence_id}: logprobs length mismatch")
            for i, lp in enumerate(self.logprobs):
                total = sum(math.exp(v) for v in lp.values())
                if not abs(total - 1.0) <= 1e-6:  # NaN fails too
                    raise ValueError(
                        f"sentence {self.sentence_id} token {i}: probabilities sum to {total}"
                    )
                best = max(lp.values())
                if lp.get(self.labels[i], -math.inf) < best - 1e-9:
                    raise ValueError(
                        f"sentence {self.sentence_id} token {i}: label {self.labels[i]!r} "
                        f"is not an argmax tag"
                    )
        if self.ensemble is not None:
            if len(self.ensemble) < 2:
                raise ValueError(f"sentence {self.sentence_id}: ensemble needs >= 2 passes")
            for pass_tags in self.ensemble:
                if len(pass_tags) != len(self.labels):
                    raise ValueError(
                        f"sentence {self.sentence_id}: ensemble pass length mismatch"
                    )


def write_records(records: Iterable[PredictionRecord], fh: IO[str]) -> None:
    """Line-delimited JSON exchange format, one record per sentence."""
    for r in records:
        payload: dict = {"sentence_id": r.sentence_id, "labels": list(r.labels)}
        if r.logprobs is not None:
            payload["logprobs"] = [dict(sorted(lp.items())) for lp in r.logprobs]
        if r.ensemble is not None:
            payload["ensemble"] = [list(p) for p in r.ensemble]
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def read_records(fh: IO[str] | str, validate: bool = True) -> dict[int, PredictionRecord]:
    """The records of the JSON lines in ``fh``, keyed by sentence id; a line
    that holds no record is a ValueError naming it."""
    out: dict[int, PredictionRecord] = {}
    for _, line in _iter_lines(fh):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            rec = PredictionRecord(
                sentence_id=int(payload["sentence_id"]),
                labels=tuple(payload["labels"]),
                logprobs=tuple(dict(lp) for lp in payload["logprobs"])
                if "logprobs" in payload
                else None,
                ensemble=tuple(tuple(p) for p in payload["ensemble"])
                if "ensemble" in payload
                else None,
            )
            if validate:
                rec.validate()
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"malformed record line {line[:80]!r}: {type(exc).__name__}: {exc}"
            ) from exc
        out[rec.sentence_id] = rec
    return out


# -- uncertainty scores -----------------------------------------------------


def score_us(record: PredictionRecord) -> float:
    """Least-confidence score: negated length-normalized sum of the best
    per-token log-probabilities (0 = fully confident, larger = less sure)."""
    if record.logprobs is None:
        raise CapabilityError("black-box predictor provides no probabilities")
    total = sum(max(lp.values()) for lp in record.logprobs)
    return -total / len(record.labels)


def score_bald(record: PredictionRecord) -> float:
    """Mean per-token disagreement with the ensemble mode (ties broken by
    the lexicographically smallest tag)."""
    if record.ensemble is None:
        raise CapabilityError("black-box predictor provides no ensemble passes")
    K = len(record.ensemble)
    total = 0.0
    for l in range(len(record.labels)):
        counts: dict[str, int] = {}
        for pass_tags in record.ensemble:
            counts[pass_tags[l]] = counts.get(pass_tags[l], 0) + 1
        top = max(counts.values())
        mode = min(t for t, n in counts.items() if n == top)
        total += (K - counts[mode]) / K
    return total / len(record.labels)


@dataclass
class UncertaintySnapshot:
    checkpoint_tokens: int
    scores: dict[int, float]


def score_uncertainty_decay(
    current: UncertaintySnapshot, lagged: UncertaintySnapshot
) -> dict[int, float]:
    """Predicted future uncertainty drop: min(max(u_prev - u_now, 0), u_now).

    Sentences without a lagged value fall back to their raw uncertainty.
    """
    out: dict[int, float] = {}
    for sid, u_now in current.scores.items():
        u_prev = lagged.scores.get(sid)
        if u_prev is None:
            out[sid] = u_now
        else:
            out[sid] = min(max(u_prev - u_now, 0.0), u_now)
    return out


class AlternationChoice(enum.Enum):
    DECAY_SCORE = "DECAY_SCORE"
    RAW_UNCERTAINTY = "RAW_UNCERTAINTY"


def alternation_policy(batch_index: int) -> AlternationChoice:
    """Avoid starvation: odd selection batches use the decayed score, even
    batches fall back to the raw uncertainty."""
    return (
        AlternationChoice.DECAY_SCORE
        if batch_index % 2 == 1
        else AlternationChoice.RAW_UNCERTAINTY
    )


# -- filtered submodular selection (uncertainty filter + diversity) --------

# rows of the similarity matrix shifted and summed per block, and of a
# document refreshed per 2-D pass
_BLOCK_ROWS = 256


def _similarity(Xn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shifted cosine matrix fl32(Xn @ Xn.T + 1), clamped at 0, of the
    unit (or zero) float32 rows ``Xn``, and its float64 row sums.

    The product is numpy's ``Xn @ Xn.T`` in one call, so its bits are those
    of one symmetric BLAS product whatever the width.  The shift, the clamp
    and the row sum are done per block of rows while it sits in cache: the
    first two act on each entry alone, and the sum is exact (see
    :func:`fass_select`), so blocking changes no bit."""
    sim = Xn @ Xn.T
    sums = np.empty(len(sim))
    for s in range(0, len(sim), _BLOCK_ROWS):
        block = sim[s:s + _BLOCK_ROWS]
        block += np.float32(1)
        np.maximum(block, np.float32(0), out=block)
        np.add.reduce(block, axis=1, dtype=np.float64, out=sums[s:s + _BLOCK_ROWS])
    return sim, sums


def _uncovered(rows: np.ndarray, cover: np.ndarray, out: np.ndarray):
    """The float64 sum of each of ``rows``' float32 terms
    ``np.maximum(row - cover, 0)``, computed in ``out`` (``rows``' shape;
    it may be ``rows``) as max(row, cover) - cover: where row > cover the
    two are one rounded difference, elsewhere both are 0."""
    np.maximum(rows, cover, out=out)
    np.subtract(out, cover, out=out)
    return np.add.reduce(out, axis=-1, dtype=np.float64)


def fass_select(
    scores: np.ndarray | None,
    ids: np.ndarray,
    embeddings: np.ndarray,
    lengths: np.ndarray,
    token_budget: int,
    t_factor: int = 100,
    rng: np.random.Generator | None = None,
    doc_ids: np.ndarray | None = None,
) -> Batch:
    """Filter the most uncertain sentences, then greedily cover them.

    ``ids`` are the candidates' sentence ids in ascending order; row ``k``
    of ``scores``, ``embeddings``, ``lengths`` and ``doc_ids`` belongs to
    ``ids[k]``.  A per-row input with another row count, and embeddings
    (as float32) or scores that are not all finite, are a ValueError.  The
    filter keeps the top ``t_factor`` x (expected batch sentence count)
    sentences by uncertainty; with ``scores=None`` (pure diversification)
    it keeps a seeded uniform random candidate set of the same size.
    Selection greedily maximizes a facility-location coverage function over
    shifted cosine similarities (cos + 1, keeping the objective monotone
    submodular), until the token budget is met.  Each step takes the unit
    of largest gain, the smallest on ties: a candidate, by its gain over
    its length, or with ``doc_ids`` all of a document's candidates, by the
    length-weighted mean of theirs.

    Every gain is an exact sum.  Each entry of the similarity matrix is
    fl32(c + 1) for a float32 cosine c, clamped at 0, so it is a multiple
    of 2^-24 in [0, 2 + 2^-22]: if c + 1 >= 0.5 the rounded sum is a
    float32 >= 0.5, and such floats are multiples of 2^-24; if c < -0.5, c
    is itself one and c + 1 is exact.  ``cover``, 0 or an element-wise max
    of rows, is such a vector too, and so is every fl32(row - cover) and
    its clamp: a multiple of 2^-24 below 1 is a float32, and rounding at
    or above 1 lands on multiples of 2^-23.  A float64 sum of fewer than
    2^27 such terms is exact, so each gain and each bound is the real sum
    of its terms, whatever the order or blocking of the additions and
    whether or not the zero terms are included.  Hence the initial bounds
    are summed per row block, and a document's rows are refreshed by one
    2-D row sum.
    """
    if t_factor < 1:
        raise ValueError("t_factor must be >= 1")
    n = len(ids)
    if not n:
        raise ValueError("empty candidate pool")
    for name, rows in (
        ("embeddings", embeddings), ("lengths", lengths), ("scores", scores), ("doc_ids", doc_ids)
    ):
        if rows is not None and len(rows) != n:
            raise ValueError(f"{name} has {len(rows)} rows for {n} ids")
    with np.errstate(over="ignore"):  # an overflow is reported below
        E = np.asarray(embeddings, dtype=np.float32)
    if not np.isfinite(E).all():
        raise ValueError("embeddings are not all finite as float32")
    if scores is not None and not np.isfinite(np.asarray(scores, dtype=np.float64)).all():
        raise ValueError("scores are not all finite")
    mean_len = float(np.sum(lengths)) / n
    expected = max(1, math.ceil(token_budget / max(mean_len, 1.0)))
    keep = min(n, t_factor * expected)

    if scores is None:
        if rng is None:
            raise ValueError("pure diversification needs a seeded rng for the filter")
        cand = np.sort(rng.choice(n, size=keep, replace=False))
    else:
        # a stable sort keeps equal scores in ascending id order
        cand = np.sort(np.argsort(-np.asarray(scores), kind="stable")[:keep])
    cand_ids = np.asarray(ids)[cand].tolist()

    X = E[cand]
    norms = np.linalg.norm(X, axis=1)
    norms[norms == 0] = 1.0
    # shifted cosine in [0, 2]; clamping at 0 changes no gain, because
    # ``cover`` starts at 0 and only grows
    sim, sums = _similarity(X / norms[:, None])
    lens = np.asarray(lengths, dtype=np.float64)[cand]
    bounds = sums / lens  # each row's gain at zero cover
    cover = np.zeros(len(cand_ids), dtype=np.float32)
    if doc_ids is None:
        buf = np.empty(len(cand_ids), dtype=np.float32)
    else:
        docs = np.unique(np.asarray(doc_ids)[cand], return_inverse=True)[1]
        units = np.split(np.argsort(docs, kind="stable"), np.cumsum(np.bincount(docs))[:-1])
        bounds = document_means(bounds, lens, docs)[1]
        buf = np.empty((min(max(map(len, units)), _BLOCK_ROWS), len(cand_ids)), dtype=np.float32)

    def document_gain(rows: np.ndarray) -> float:
        row_sums = np.empty(len(rows))
        for s in range(0, len(rows), _BLOCK_ROWS):
            part = rows[s:s + _BLOCK_ROWS]
            block = np.take(sim, part, axis=0, out=buf[:len(part)])
            row_sums[s:s + _BLOCK_ROWS] = _uncovered(block, cover, block)
        return float(document_means(row_sums / lens[rows], lens[rows], np.zeros_like(rows))[1][0])

    # lazy greedy (Minoux 1978): a unit's gain only falls as ``cover`` grows,
    # so a heap top computed after the latest take (its last field counts
    # takes) is the exact argmax; heap order breaks ties to the smallest unit
    heap = [(-bound, unit, -1) for unit, bound in enumerate(bounds.tolist())]
    heapq.heapify(heap)
    takes = 0
    picked: list[int] = []
    tokens = 0
    while heap and tokens < token_budget:
        _, unit, computed_at = heap[0]
        if computed_at < takes:
            if doc_ids is None:
                gain = float(_uncovered(sim[unit], cover, buf) / lens[unit])
            else:
                gain = document_gain(units[unit])
            heapq.heapreplace(heap, (-gain, unit, takes))
            continue
        heapq.heappop(heap)
        takes += 1
        for row in (unit,) if doc_ids is None else units[unit]:
            np.maximum(cover, sim[row], out=cover)
            picked.append(cand_ids[row])
            tokens += int(lens[row])
    return Batch(tuple(picked), tokens, exhausted=tokens < token_budget)


# -- prediction-difference decay (no validation labels) ---------------------


def prediction_difference_records(
    indexes: Sequence[GroupIndex],
    references: Sequence[tuple[np.ndarray, Sequence[np.ndarray]]],
) -> list[list[GroupErrorRecord]]:
    """Each partition's decay-fit records where the error signal is the
    disagreement of each past checkpoint's predictions with the current
    model's: the per-group fraction of reference tokens where they differ.
    ``references`` holds one pair per checkpoint, the tag codes of its
    predictions (:func:`tag_codes`, one dict for all) and its training mass
    per partition; ``indexes`` holds each partition's :class:`GroupIndex` of
    the reference sentences.  Uses predictions only; gold labels never
    enter."""
    if len(references) < 2:
        raise ValueError("need at least 2 checkpoints of predictions")
    current = references[-1][0]
    records: list[list[GroupErrorRecord]] = [[] for _ in indexes]
    for t, (codes, train_mass) in enumerate(references[:-1]):
        losses = (codes != current).astype(np.float64)
        for p, ix in enumerate(indexes):
            rates = mismatch_rates(ix, losses)
            records[p].append(GroupErrorRecord(t, train_mass[p], rates.error, rates.mass))
    return records
