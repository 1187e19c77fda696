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
                if abs(total - 1.0) > 1e-6:
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
    lines = fh.splitlines() if isinstance(fh, str) else fh
    out: dict[int, PredictionRecord] = {}
    for line in lines:
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
    ``ids[k]``.  The filter keeps the top ``t_factor`` x (expected batch
    sentence count) sentences by uncertainty; with ``scores=None`` (pure
    diversification) it keeps a seeded uniform random candidate set of the
    same size.  Selection greedily maximizes a facility-location coverage
    function over shifted cosine similarities (cos + 1, keeping the
    objective monotone submodular), until the token budget is met.  Each
    step takes the unit of largest gain, the smallest on ties: a candidate,
    by its gain over its length, or with ``doc_ids`` all of a document's
    candidates, by the length-weighted mean of theirs.
    """
    if t_factor < 1:
        raise ValueError("t_factor must be >= 1")
    n = len(ids)
    if not n:
        raise ValueError("empty candidate pool")
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

    X = np.asarray(embeddings[cand], dtype=np.float32)
    norms = np.linalg.norm(X, axis=1)
    norms[norms == 0] = 1.0
    Xn = X / norms[:, None]
    # shifted cosine in [0, 2], built in place; clamping at 0 changes no
    # gain, because ``cover`` starts at 0 and only grows
    sim = Xn @ Xn.T
    sim += np.float32(1.0)
    np.maximum(sim, 0.0, out=sim)
    lens = np.asarray(lengths, dtype=np.float64)[cand]
    cover = np.zeros(len(cand_ids), dtype=np.float32)

    def row_gain(row: int) -> float:
        return float(
            np.maximum(sim[row] - cover, 0.0).sum(dtype=np.float64) / lens[row]
        )

    def gain(rows) -> float:
        if doc_ids is None:
            return row_gain(rows[0])
        row_gains = np.asarray([row_gain(row) for row in rows])
        return float(document_means(row_gains, lens[rows], np.zeros_like(rows))[1][0])

    # each row's gain at zero cover, equal to ``row_gain`` byte for byte
    bounds = sim.sum(axis=1, dtype=np.float64) / lens
    if doc_ids is None:
        units = [[row] for row in range(len(cand_ids))]
    else:
        docs = np.unique(np.asarray(doc_ids)[cand], return_inverse=True)[1]
        units = np.split(np.argsort(docs, kind="stable"), np.cumsum(np.bincount(docs))[:-1])
        bounds = document_means(bounds, lens, docs)[1]

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
            heapq.heapreplace(heap, (-gain(units[unit]), unit, takes))
            continue
        heapq.heappop(heap)
        takes += 1
        for row in units[unit]:
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
