"""Greedy batch selection that maximizes predicted error reduction.

A fitted decay curve per partition turns group masses into predicted
errors; the batch objective is the negative mass-weighted predicted error
over the corpus union.  Sentences are scored by the geometric mean (over
partitions) of their length-normalized marginal gain, and batches are built
greedily until the token budget is met.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import EmbeddingTable, Sentence
from .decay import DecayFit, curve_values
from .partition import (
    GroupIndex,
    Partition,
    _ranges,
    build_group_index,
    sentence_group_delta,
)

__all__ = [
    "Batch",
    "SelectionState",
    "default_epsilon",
    "objective",
    "edg_score",
    "select_batch",
    "take_units",
]

log = logging.getLogger(__name__)

SCORE_FLOOR = 1e-12


def default_epsilon(da_tokens: int) -> float:
    """Smoothing constant scaled with corpus size (0.001 at ~250k tokens)."""
    return 0.001 * max(1.0, da_tokens / 250_000.0)


@dataclass
class Batch:
    sentence_ids: tuple[int, ...]
    token_count: int
    exhausted: bool = False  # pool ran out before the budget was met


@dataclass
class SelectionState:
    """Mutable selection-time view: fitted curves plus mass bookkeeping.

    ``train_mass`` tracks group masses over the training data plus the batch
    built so far and is updated incrementally; ``da_mass`` is frozen at run
    start and approximates the test-time group distribution.
    """

    partitions: list[Partition]
    fits: list[DecayFit]
    train_mass: list[np.ndarray]
    da_mass: list[np.ndarray]
    token_budget: int
    epsilon: float
    table: EmbeddingTable | None = None
    numeric_faults: int = 0

    def add_sentence(self, sentence: Sentence) -> None:
        for idx, p in enumerate(self.partitions):
            gids, vals = sentence_group_delta(p, sentence, self.table)
            self.train_mass[idx][gids] += vals


def objective(state: SelectionState, partition_index: int) -> float:
    """Negative predicted error mass over the corpus union for one partition."""
    params = state.fits[partition_index].params
    e = curve_values(params, state.train_mass[partition_index])
    return float(-(e * state.da_mass[partition_index]).sum())


def edg_score(state: SelectionState, sentence: Sentence) -> float:
    """Geometric mean over partitions of the length-normalized gain + epsilon."""
    return float(_PoolScorer(state, [sentence]).scores()[0])


class _PoolScorer:
    """Vectorized per-step scoring of all remaining pool sentences.

    The training masses must change only through :meth:`take`, which tells
    the cached gain terms which groups to recompute.
    """

    def __init__(
        self,
        state: SelectionState,
        pool: Sequence[Sentence],
        index: Sequence[GroupIndex] | None = None,
    ):
        self.state = state
        if index is None:
            index = [build_group_index(p, pool, state.table) for p in state.partitions]
        order = sorted(range(len(pool)), key=lambda i: pool[i].id)
        self.pool = [pool[i] for i in order]
        self.index = [ix.take(order) for ix in index]
        self.lengths = np.asarray([len(s) for s in self.pool], dtype=np.float64)
        # Every (sentence, group) pair keeps its gain term, and each group's
        # pairs in a stable order: a take changes the masses of the groups its
        # row touches only, so only their pairs are recomputed, once before
        # the next scoring (a document is taken row by row).
        self.terms = [self._terms(p, slice(None)) for p in range(len(self.index))]
        self.group_pairs = [_pairs_by_group(ix.pairs[1], ix.n_groups) for ix in self.index]
        self.stale = [np.zeros(ix.n_groups, dtype=bool) for ix in self.index]

    def _terms(self, partition_index: int, pairs) -> np.ndarray:
        """Gain terms ``(c(m[g]) - c(m[g] + v)) * da[g]`` of the CSR ``pairs``."""
        state = self.state
        params = state.fits[partition_index].params
        m = state.train_mass[partition_index]
        _, gids, vals = self.index[partition_index].pairs
        gids, vals = gids[pairs], vals[pairs]
        before = curve_values(params, m[gids], groups=gids)
        after = curve_values(params, m[gids] + vals, groups=gids)
        return (before - after) * state.da_mass[partition_index][gids]

    def take(self, row: int) -> None:
        """Add the sentence at ``row`` to the training masses."""
        for ix, masses, stale in zip(self.index, self.state.train_mass, self.stale):
            gids, vals = ix.delta(row)
            masses[gids] += vals
            stale[gids] = True

    def _refresh(self, partition_index: int) -> None:
        """Recompute the terms of the groups taken since the last refresh;
        all of them, without the gather, when those groups hold most pairs."""
        stale = self.stale[partition_index]
        groups = np.flatnonzero(stale)
        if not len(groups):
            return
        order, bounds = self.group_pairs[partition_index]
        starts, stops = bounds[groups], bounds[groups + 1]
        if 2 * (stops - starts).sum() > len(order):
            self.terms[partition_index] = self._terms(partition_index, slice(None))
        else:
            pairs = order[_ranges(starts, stops)]
            self.terms[partition_index][pairs] = self._terms(partition_index, pairs)
        stale[groups] = False

    def gains(self, partition_index: int) -> np.ndarray:
        self._refresh(partition_index)
        ix, terms = self.index[partition_index], self.terms[partition_index]
        if ix.soft:  # every row holds all J groups: a contiguous row sum
            return terms.reshape(len(ix), ix.n_groups).sum(axis=1)
        # segment sum per sentence; every sentence touches at least one group
        return np.add.reduceat(terms, ix.pairs[0][:-1])

    def scores(self, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Scores of ``rows``; only their clamped factors count as faults."""
        state = self.state
        lengths = self.lengths[rows]
        total = np.ones(len(lengths), dtype=np.float64)
        for idx in range(len(state.partitions)):
            factor = self.gains(idx)[rows] / lengths + state.epsilon
            bad = factor <= 0.0
            if bad.any():
                state.numeric_faults += int(bad.sum())
                log.warning("%d non-positive selection factors clamped", int(bad.sum()))
                factor[bad] = SCORE_FLOOR
            total *= factor
        return total ** (1.0 / len(state.partitions))


def _pairs_by_group(gids: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair positions sorted by group (stably), and each group's bounds in them."""
    order = np.argsort(gids, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(gids, minlength=n_groups))))
    return order, bounds


def select_batch(
    state: SelectionState,
    pool: Sequence[Sentence],
    mode: str = "SENTENCE",
    index: Sequence[GroupIndex] | None = None,
) -> Batch:
    """Greedy batch construction under the token budget.

    Units are taken by :func:`take_units`, and every pool sentence is
    rescored after each unit, because taking one changes the masses.
    ``index``, a :class:`GroupIndex` of ``pool`` per partition, is built
    when not given.
    """
    if mode not in ("SENTENCE", "DOCUMENT"):
        raise ValueError(f"unknown selection mode {mode!r}")
    scorer = _PoolScorer(state, pool, index)
    return take_units(
        [s.id for s in scorer.pool],
        scorer.lengths,
        state.token_budget,
        scorer.scores,
        document_ids(scorer.pool) if mode == "DOCUMENT" else None,
        scorer.take,
    )


def document_ids(sentences: Sequence[Sentence]) -> np.ndarray:
    """The sentences' document ids, which DOCUMENT mode needs for all."""
    for s in sentences:
        if s.doc_id is None:
            raise ValueError(f"sentence {s.id} has no document id (DOCUMENT mode)")
    return np.asarray([s.doc_id for s in sentences])


def take_units(
    ids: Sequence[int],
    lengths: np.ndarray,
    token_budget: int,
    score: Callable[[np.ndarray], np.ndarray],
    doc_ids: np.ndarray | None = None,
    take: Callable[[int], None] | None = None,
) -> Batch:
    """The one rule by which every strategy turns scores into a batch.

    Rows are sentences in ascending id order.  While the batch holds fewer
    than ``token_budget`` tokens, ``score(rows)`` scores the rows not yet
    taken and the best unit is taken, calling ``take(row)`` for each row:
    the row with the largest score, or with ``doc_ids`` the remaining rows
    of the document with the largest length-weighted mean score; ties go to
    the smallest id.  The last unit may overshoot the budget.
    """
    active = np.ones(len(ids), dtype=bool)
    docs = None if doc_ids is None else np.unique(doc_ids, return_inverse=True)[1]
    picked: list[int] = []
    tokens = 0
    while tokens < token_budget:
        rows = np.flatnonzero(active)
        if not len(rows):
            return Batch(tuple(picked), tokens, exhausted=True)
        scores = score(rows)
        if docs is None:
            unit = rows[[np.argmax(scores)]]
        else:
            present, means = document_means(scores, lengths[rows], docs[rows])
            unit = rows[docs[rows] == present[np.argmax(means)]]
        for row in unit:
            active[row] = False
            if take is not None:
                take(row)
            picked.append(int(ids[row]))
            tokens += int(lengths[row])
    return Batch(tuple(picked), tokens)


def document_means(
    scores: np.ndarray, lengths: np.ndarray, docs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The dense document ids that have rows, ascending, and each one's
    length-weighted mean score: DOCUMENT mode's unit value.  ``bincount``
    adds in row order, as a Python ``sum`` over each document's rows would."""
    sums = np.bincount(docs, weights=scores * lengths)
    totals = np.bincount(docs, weights=lengths)
    present = np.flatnonzero(totals)
    return present, sums[present] / totals[present]
