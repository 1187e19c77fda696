"""Sampling strategies over black-box prediction records.

Every strategy consumes predictions as a :class:`PredictionBatch`, a
read-only mapping from sentence id to :class:`PredictionRecord` (the
predictor exchange unit: predicted tags, optional per-token
log-probabilities, optional ensemble passes) held in arrays, and produces a
sentence batch.  Uncertainty-based scores are oriented so that the most
uncertain sentence has the largest score and every strategy is
argmax-select.
"""

from __future__ import annotations

import enum
import heapq
import json
import math
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain
from typing import IO

import numpy as np

from .corpus import _iter_lines
from .partition import GroupErrorRecord, GroupIndex, mismatch_rates
from .selection import Batch, document_means

__all__ = [
    "PredictionRecord",
    "PredictionBatch",
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
        """ValueError if the record breaks a rule of
        :meth:`PredictionBatch.validate`."""
        PredictionBatch.from_records({self.sentence_id: self}).validate()


class PredictionBatch(Mapping[int, PredictionRecord]):
    """The prediction records of a list of sentences, held in arrays.

    ``ids`` are the sentence ids in input order, unique.  Sentence ``i``'s
    tokens are the entries ``offsets[i]:offsets[i + 1]`` of ``label_ids``
    (codes into the label vocabulary ``vocab``), the rows of the optional
    (tokens, len(vocab)) float64 ``logprobs`` and the columns of the
    optional (K, tokens) ``ensemble`` of each pass's label codes.  A
    log-probability of ``-inf`` stands for a tag the predictor gave no
    value.  ``batch[sid]`` builds that sentence's record at each lookup and
    keeps none.
    """

    def __init__(self, ids, offsets, vocab: Sequence[str], label_ids,
                 logprobs: np.ndarray | None = None, ensemble: np.ndarray | None = None):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.vocab = tuple(vocab)
        self.label_ids = np.asarray(label_ids, dtype=np.intp)
        self.logprobs = None if logprobs is None else np.asarray(logprobs, dtype=np.float64)
        self.ensemble = None if ensemble is None else np.asarray(ensemble, dtype=np.intp)
        n, tokens = len(self.ids), len(self.label_ids)
        if not (
            self.ids.ndim == 1 and self.offsets.shape == (n + 1,) and self.offsets[0] == 0
            and self.offsets[-1] == tokens and (self.offsets[1:] >= self.offsets[:-1]).all()
        ):
            raise ValueError(f"offsets must rise from 0 to the {tokens} tokens, one per "
                             f"sentence of {n} and one more")
        if self.logprobs is not None and self.logprobs.shape != (tokens, len(self.vocab)):
            raise ValueError(f"logprobs has shape {self.logprobs.shape}, not "
                             f"({tokens}, {len(self.vocab)})")
        if self.ensemble is not None and (
            self.ensemble.ndim != 2 or self.ensemble.shape[1] != tokens
        ):
            raise ValueError(f"ensemble has shape {self.ensemble.shape}, not (K, {tokens})")
        self._keys = self.ids.tolist()
        self._rows = dict(zip(self._keys, range(n)))
        if len(self._rows) < n:
            seen = set()
            repeated = next(sid for sid in self._keys if sid in seen or seen.add(sid))
            raise ValueError(f"sentence id {repeated} repeats")

    @classmethod
    def from_records(cls, records: Mapping[int, PredictionRecord]) -> "PredictionBatch":
        """The batch of ``records``, keyed and ordered as the mapping is.  A
        record that does not fit the others is a ValueError naming its
        sentence: see :func:`read_records`."""
        builder = _BatchBuilder()
        for sid, rec in records.items():
            try:
                builder.add(sid, rec.labels, rec.logprobs, rec.ensemble)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"prediction record of sentence {sid}: {exc}") from exc
        return builder.build()

    def __getitem__(self, sid: int) -> PredictionRecord:
        row = self._rows[sid]
        a, b = self.offsets[row:row + 2].tolist()
        tag = self.vocab.__getitem__
        logprobs = ensemble = None
        if self.logprobs is not None:
            logprobs = tuple(dict(zip(self.vocab, lp)) for lp in self.logprobs[a:b].tolist())
        if self.ensemble is not None:
            ensemble = tuple(tuple(map(tag, p)) for p in self.ensemble[:, a:b].tolist())
        labels = tuple(map(tag, self.label_ids[a:b].tolist()))
        return PredictionRecord(self._keys[row], labels, logprobs, ensemble)

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, sid) -> bool:
        return sid in self._rows

    def take(self, ids: Iterable[int]) -> "PredictionBatch":
        """The sentences of ``ids``, in that order; a missing id is a
        KeyError."""
        rows = np.fromiter(map(self._rows.__getitem__, ids), dtype=np.intp)
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        tokens = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], lengths)
        return PredictionBatch(
            self.ids[rows], offsets, self.vocab, self.label_ids[tokens],
            None if self.logprobs is None else self.logprobs[tokens],
            None if self.ensemble is None else self.ensemble[:, tokens],
        )

    def with_ids(self, ids: Iterable[int]) -> "PredictionBatch":
        """The same predictions keyed by ``ids``, one per sentence in order."""
        return PredictionBatch(list(ids), self.offsets, self.vocab, self.label_ids,
                               self.logprobs, self.ensemble)

    def validate(self) -> None:
        """ValueError naming the first sentence and token that break a rule:
        a token's probabilities sum to 1 within 1e-6 (NaN fails) and its
        label is an argmax tag within 1e-9; an ensemble has >= 2 passes."""
        fault = _first_fault(self)
        if fault is not None:
            raise ValueError(fault[1])


class _Vocabulary(dict):
    """A code for each tag, in the order of first lookup."""

    def __missing__(self, tag) -> int:
        if not isinstance(tag, str):
            raise TypeError(f"tag {tag!r} is not a string")
        code = self[tag] = len(self)
        return code


class _BatchBuilder:
    """Gathers records one at a time into the arrays of a
    :class:`PredictionBatch`; a record that does not fit is a TypeError or
    ValueError from :meth:`add`."""

    def __init__(self):
        self.ids: list[int] = []
        self.rows: set[int] = set()
        self.lengths: list[int] = []
        self.vocab = _Vocabulary()
        self.labels: list[int] = []
        self.keys: list[int] = []  # each token's log-probability tags, token by token
        self.counts: list[int] = []  # the number of tags of each token
        self.values: list[np.ndarray] = []  # one array of log-probabilities per record
        self.passes: list[list[int]] | None = None
        self.has_logprobs = False

    def add(self, sid: int, labels, logprobs, ensemble) -> None:
        if sid in self.rows:
            raise ValueError(f"sentence id {sid} repeats")
        if not isinstance(labels, (list, tuple)):
            raise TypeError(f"labels must be a list, got {type(labels).__name__}")
        if self.ids and (
            (logprobs is not None) != self.has_logprobs
            or (ensemble is not None) != (self.passes is not None)
        ):
            raise ValueError("log-probabilities and ensembles must be on every record or none")
        n = len(labels)
        code = self.vocab.__getitem__
        self.labels.extend(map(code, labels))
        if logprobs is not None:
            if len(logprobs) != n:
                raise ValueError("logprobs length mismatch")
            values = np.array(list(chain.from_iterable(map(dict.values, logprobs))))
            if values.dtype.kind not in "fi":
                raise TypeError("log-probabilities must be numbers")
            self.keys.extend(map(code, chain.from_iterable(logprobs)))
            self.counts.extend(map(len, logprobs))
            self.values.append(values)
        if ensemble is not None:
            if self.passes is None:
                self.passes = [[] for _ in ensemble]
            if len(ensemble) != len(self.passes):
                raise ValueError(f"{len(ensemble)} ensemble passes, the first record "
                                 f"{len(self.passes)}")
            for out, tags in zip(self.passes, ensemble):
                if not isinstance(tags, (list, tuple)) or len(tags) != n:
                    raise ValueError("ensemble pass length mismatch")
                out.extend(map(code, tags))
        self.ids.append(sid)
        self.rows.add(sid)
        self.lengths.append(n)
        self.has_logprobs = logprobs is not None

    def build(self) -> PredictionBatch:
        """The batch, its vocabulary sorted."""
        vocab = sorted(self.vocab)
        rank = np.empty(len(vocab), dtype=np.intp)
        rank[[self.vocab[tag] for tag in vocab]] = np.arange(len(vocab))
        offsets = np.zeros(len(self.ids) + 1, dtype=np.intp)
        np.cumsum(self.lengths, out=offsets[1:])
        label_ids = rank[np.asarray(self.labels, dtype=np.intp)]
        tokens = len(label_ids)
        logprobs = ensemble = None
        if self.has_logprobs:
            logprobs = np.full((tokens, len(vocab)), -np.inf)
            rows = np.repeat(np.arange(tokens), self.counts)
            logprobs[rows, rank[np.asarray(self.keys, dtype=np.intp)]] = np.concatenate(
                self.values
            )
        if self.passes is not None:
            codes = np.asarray(self.passes, dtype=np.intp).reshape(len(self.passes), tokens)
            ensemble = rank[codes]
        return PredictionBatch(self.ids, offsets, vocab, label_ids, logprobs, ensemble)


def _first_fault(batch: PredictionBatch) -> tuple[int, str] | None:
    """The row of the first sentence that breaks a rule of
    :meth:`PredictionBatch.validate`, and what it breaks; None if none."""
    lp = batch.logprobs
    if lp is not None and len(lp):
        with np.errstate(over="ignore", invalid="ignore"):
            totals = np.exp(lp).sum(axis=1)
            bad_sum = ~(np.abs(totals - 1.0) <= 1e-6)  # NaN fails too
            bad_label = lp[np.arange(len(lp)), batch.label_ids] < lp.max(axis=1) - 1e-9
        bad = np.flatnonzero(bad_sum | bad_label)
        if len(bad):
            t = int(bad[0])
            row = int(np.searchsorted(batch.offsets, t, side="right")) - 1
            where = f"sentence {batch._keys[row]} token {t - int(batch.offsets[row])}"
            if bad_sum[t]:
                return row, f"{where}: probabilities sum to {float(totals[t])}"
            label = batch.vocab[batch.label_ids[t]]
            return row, f"{where}: label {label!r} is not an argmax tag"
    if batch.ensemble is not None and len(batch) and len(batch.ensemble) < 2:
        return 0, f"sentence {batch._keys[0]}: ensemble needs >= 2 passes"
    return None


def write_records(records: Iterable[PredictionRecord], fh: IO[str]) -> None:
    """Line-delimited JSON exchange format, one record per sentence, every
    object's keys sorted."""
    for r in records:
        payload: dict = {"sentence_id": r.sentence_id, "labels": r.labels}
        if r.logprobs is not None:
            payload["logprobs"] = r.logprobs
        if r.ensemble is not None:
            payload["ensemble"] = r.ensemble
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def read_records(fh: IO[str] | str, validate: bool = True) -> PredictionBatch:
    """The records of the JSON lines in ``fh``, in line order.  Each line
    holds one record with a unique sentence id; the records carry
    log-probabilities all or none, and ensembles all or none and then of one
    pass count.  A line that breaks this, or with ``validate`` a rule of
    :meth:`PredictionBatch.validate`, is a ValueError naming it."""
    builder = _BatchBuilder()
    lines: list[str] = []
    for _, line in _iter_lines(fh):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            sid = int(payload["sentence_id"])
            builder.add(sid, payload["labels"], payload.get("logprobs"), payload.get("ensemble"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise _malformed(line, exc) from exc
        lines.append(line)
    batch = builder.build()
    fault = _first_fault(batch) if validate else None
    if fault is not None:
        raise _malformed(lines[fault[0]], ValueError(fault[1]))
    return batch


def _malformed(line: str, exc: Exception) -> ValueError:
    return ValueError(f"malformed record line {line[:80]!r}: {type(exc).__name__}: {exc}")


# -- uncertainty scores -----------------------------------------------------


def _sentence_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each sentence's float64 sum of its tokens' ``values``, added left to
    right from 0.0 as CPython 3.11's ``sum`` adds floats.  The sentences are
    taken longest first, so that position ``j`` adds the ``j``-th value of a
    prefix of them: one vector addition per position, no padded matrix."""
    lengths = np.diff(offsets)
    order = np.argsort(-lengths, kind="stable")
    starts = offsets[:-1][order]
    # the number of sentences with a token at each position
    active = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)))
    totals = np.zeros(len(lengths))
    for j, m in enumerate(active.tolist()):
        totals[:m] += values[starts[:m] + j]
    out = np.empty_like(totals)
    out[order] = totals
    return out


def score_us(batch: PredictionBatch) -> np.ndarray:
    """Least-confidence score of each sentence, in batch order: the negated
    length-normalized sum of its tokens' best log-probabilities (0 = fully
    confident, larger = less sure)."""
    if batch.logprobs is None:
        raise CapabilityError("black-box predictor provides no probabilities")
    best = batch.logprobs.max(axis=1)
    return -_sentence_sums(best, batch.offsets) / np.diff(batch.offsets)


def score_bald(batch: PredictionBatch) -> np.ndarray:
    """Mean per-token disagreement with the ensemble mode of each sentence,
    in batch order: a token scores (K - the mode's count) / K over K
    passes."""
    if batch.ensemble is None or not len(batch.ensemble):
        raise CapabilityError("black-box predictor provides no ensemble passes")
    K, tokens = batch.ensemble.shape
    L = len(batch.vocab)
    codes = batch.ensemble + L * np.arange(tokens)
    top = np.bincount(codes.ravel(), minlength=tokens * L).reshape(tokens, L).max(axis=1)
    return _sentence_sums((K - top) / K, batch.offsets) / np.diff(batch.offsets)


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
