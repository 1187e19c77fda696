"""Desk-scale experiment substrate: synthetic corpus, reference tagger,
and the pseudo-label harness.

The synthetic language has a 100-word vocabulary in three regimes: words
that are always outside any entity, words whose label is uniform noise, and
words whose label is a deterministic function of nearby same-category
words.  The reference tagger is a smoothed count model over the token and
its +/-2 context window, standing in for a neural tagger: it memorizes
easy words quickly, plateaus on noise words, and learns context slowly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Iterator, Mapping, Sequence

import numpy as np

from .corpus import Dataset, EmbeddingTable, Sentence, _is_finite, _is_int, _TokenTable
from .strategies import PredictionBatch, PredictionRecord

__all__ = [
    "SynthSpec",
    "gen_synthetic",
    "one_hot_embeddings",
    "ReferenceTagger",
    "train_reference_tagger",
    "tagger_predict",
    "make_pseudo_pool",
    "relabel",
    "builtin_trainer",
]

CAT_ALWAYS_NONE = 1
CAT_NOISE = 2
CAT_CONTEXT = 3


@dataclass(frozen=True)
class SynthSpec:
    vocab_size: int = 100
    n_always_none: int = 50
    n_noise: int = 25
    n_context: int = 25
    n_types: int = 4
    dirichlet_alpha: float = 1.0
    stay_probability: float = 0.9
    weight_low: float = 0.1
    weight_high: float = 1.0
    min_length: int = 5
    max_length: int = 50
    stop_probability: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not (_is_int(value) and value >= 0):
                raise ValueError(f"{f.name} must be an integer >= 0, got {value!r}")
            if f.type == "float" and not _is_finite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if self.n_always_none + self.n_noise + self.n_context != self.vocab_size:
            raise ValueError("category sizes must sum to vocab_size")
        if not 0.0 <= self.stop_probability <= 1.0:
            raise ValueError("stop_probability must be a probability")
        if not 0.0 <= self.stay_probability <= 1.0:
            raise ValueError("stay_probability must be a probability")

    @property
    def surfaces(self) -> list[str]:
        return [f"w{i:03d}" for i in range(self.vocab_size)]

    @property
    def types(self) -> list[str]:
        return [f"E{i + 1}" for i in range(self.n_types)]

    def category_of(self, surface: str) -> int:
        idx = int(surface[1:])
        if idx < self.n_always_none:
            return CAT_ALWAYS_NONE
        if idx < self.n_always_none + self.n_noise:
            return CAT_NOISE
        return CAT_CONTEXT

    def word_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Fixed per-word context-label likelihoods and transition weights."""
        rng = np.random.default_rng([self.seed, 46])
        likelihood = rng.dirichlet(
            [self.dirichlet_alpha] * self.n_types, size=self.n_context
        )
        weights = rng.uniform(self.weight_low, self.weight_high, size=self.n_context)
        return likelihood, weights


def one_hot_embeddings(spec: SynthSpec) -> EmbeddingTable:
    """Each vocabulary word gets its own standard-basis vector."""
    eye = np.eye(spec.vocab_size, dtype=np.float64)
    vectors = {w: eye[i].copy() for i, w in enumerate(spec.surfaces)}
    return EmbeddingTable(
        dim=spec.vocab_size,
        vectors=vectors,
        oov_vector=np.zeros(spec.vocab_size),
    )


def _assign_types(
    word_ids: list[int], spec: SynthSpec, likelihood: list[list[float]], rng: np.random.Generator
) -> list[str]:
    """Per-token entity type (or 'O') for one generated sentence.

    ``likelihood`` holds each context word's row, a list of floats.  A
    context token takes the type of the largest mean of its context
    neighbours' rows (its own row without any), the first on ties.  The
    rows are added in neighbour order and the sum divided by their count,
    as ``np.mean`` over axis 0 of the stacked rows computes it."""
    c2_start = spec.n_always_none
    c3_start = spec.n_always_none + spec.n_noise
    types = spec.types
    out: list[str] = []
    for pos, wid in enumerate(word_ids):
        if wid < c2_start:
            out.append("O")
        elif wid < c3_start:
            draw = int(rng.integers(spec.n_types + 1))
            out.append("O" if draw == spec.n_types else types[draw])
        else:
            neighbors = [
                likelihood[word_ids[q] - c3_start]
                for q in (pos - 2, pos - 1, pos + 1, pos + 2)
                if 0 <= q < len(word_ids) and word_ids[q] >= c3_start
            ] or [likelihood[wid - c3_start]]
            sums = list(neighbors[0])
            for row in neighbors[1:]:
                sums = [a + b for a, b in zip(sums, row)]
            avg = [total / len(neighbors) for total in sums]
            out.append(types[avg.index(max(avg))])
    return out


def _types_to_bio(types: Sequence[str]) -> list[str]:
    """Encode maximal same-type runs as B-/I- tags."""
    tags: list[str] = []
    prev = "O"
    for t in types:
        if t == "O":
            tags.append("O")
        elif t == prev:
            tags.append(f"I-{t}")
        else:
            tags.append(f"B-{t}")
        prev = t
    return tags


def gen_synthetic(
    spec: SynthSpec,
    n_tokens: int,
    role: str = "pool",
    stream: int = 0,
    sentences_per_doc: int | None = None,
) -> Dataset:
    """Generate sentences by the category Markov walk until ``n_tokens``.

    The first word of a sentence is uniform over the vocabulary; afterwards
    the walk stays in the current word's category with probability 0.9 and
    otherwise switches to one of the other two categories uniformly.  Inside
    the always-none and noise categories words are uniform; entry into the
    context category is proportional to each word's fixed weight.  After
    every word past the minimum length the sentence ends with probability
    0.1, with a hard stop at the maximum length.
    """
    if n_tokens < spec.min_length:
        raise ValueError(f"n_tokens must be at least {spec.min_length}")
    likelihood, weights = spec.word_tables()
    rows = likelihood.tolist()
    rng = np.random.default_rng([spec.seed, 47, stream])

    c2_start = spec.n_always_none
    c3_start = spec.n_always_none + spec.n_noise
    cat_ranges = {
        CAT_ALWAYS_NONE: (0, c2_start),
        CAT_NOISE: (c2_start, c3_start),
        CAT_CONTEXT: (c3_start, spec.vocab_size),
    }
    # rng.choice(spec.n_context, p=weights / weights.sum()), draw for draw,
    # without checking p on every call
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    surfaces = spec.surfaces
    table = _TokenTable()

    def draw_from_category(cat: int) -> int:
        lo, hi = cat_ranges[cat]
        if cat == CAT_CONTEXT:
            return c3_start + int(cdf.searchsorted(rng.random(), side="right"))
        return int(rng.integers(lo, hi))

    def category(wid: int) -> int:
        if wid < c2_start:
            return CAT_ALWAYS_NONE
        if wid < c3_start:
            return CAT_NOISE
        return CAT_CONTEXT

    sentences: list[Sentence] = []
    total = 0
    sent_id = 0
    inventory = frozenset(spec.types)
    while total < n_tokens:
        word_ids = [int(rng.integers(spec.vocab_size))]
        while len(word_ids) < spec.max_length:
            if len(word_ids) >= spec.min_length and rng.random() < spec.stop_probability:
                break
            cur = category(word_ids[-1])
            if rng.random() < spec.stay_probability:
                nxt = cur
            else:
                others = [c for c in (1, 2, 3) if c != cur]
                nxt = others[int(rng.integers(2))]
            word_ids.append(draw_from_category(nxt))
        types = _assign_types(word_ids, spec, rows, rng)
        tags = _types_to_bio(types)
        tokens = tuple(map(table.__getitem__, zip(map(surfaces.__getitem__, word_ids), tags)))
        doc = sent_id // sentences_per_doc if sentences_per_doc else None
        sentences.append(Sentence(id=sent_id, tokens=tokens, doc_id=doc))
        sent_id += 1
        total += len(tokens)
    return Dataset(
        sentences=tuple(sentences), label_inventory=inventory, role=role
    )


# -- reference tagger --------------------------------------------------------

# A token's window: the token itself, then its context offsets.
_WINDOW = (0, -2, -1, 1, 2)


def _flatten(sentences: Sequence[Sentence]) -> tuple[list[str], np.ndarray]:
    """The sentences' surfaces as one flat list, and each sentence's length."""
    surfaces = [t.surface for s in sentences for t in s.tokens]
    return surfaces, np.fromiter(map(len, sentences), dtype=np.intp, count=len(sentences))


def _spans(lengths: np.ndarray) -> list[tuple[int, int]]:
    """Each sentence's [start, end) slice of the flat token array."""
    ends = np.cumsum(lengths).tolist()
    return list(zip([0] + ends[:-1], ends))


def _windows(rows: np.ndarray, lengths: np.ndarray, pad: int) -> Iterator[np.ndarray]:
    """For each offset of ``_WINDOW`` in turn, the row of every token's
    neighbour at that offset in the flat ``rows``, and ``pad`` where the
    neighbour falls past the edge of the token's sentence.  One offset at a
    time, so that a large input holds one window's temporaries at once."""
    ends = np.repeat(np.cumsum(lengths), lengths)
    starts = ends - np.repeat(lengths, lengths)
    for off in _WINDOW:
        q = np.arange(off, len(rows) + off)
        yield np.where((q >= starts) & (q < ends), rows[np.clip(q, 0, len(rows) - 1)], pad)


class ReferenceTagger:
    """Smoothed count model over the token and its +/-2 context window.

    P(y | token, context) is proportional to (token-tag count + alpha) times
    the product over offsets of smoothed context likelihoods
    (count(y, ctx, offset) + alpha) / (count(y) + alpha * V).
    Deterministic given the training data; ``seed`` seeds only the
    bootstrap ensembles :meth:`predict` draws.
    """

    def __init__(self, train: Dataset, smoothing_alpha: float = 1.0, seed: int = 0):
        if len(train) == 0:
            raise ValueError("training data is empty")
        tags = [t.gold_label for s in train.sentences for t in s.tokens]
        if None in tags:
            raise ValueError("training data must be fully labeled")
        surfaces, lengths = _flatten(train.sentences)
        self.seed = seed
        self._fit(surfaces, tags, lengths, smoothing_alpha)

    def _fit(self, surfaces, tags, lengths, smoothing_alpha, weights=None) -> None:
        """Count the flat tokens of the sentences ``lengths`` delimits, each
        token ``weights`` times (once by default)."""
        vocab = sorted(set(surfaces))
        self.surface_index = {w: i for i, w in enumerate(vocab)}
        self.vocab_size = len(vocab) + 1
        labels = tuple(sorted(set(tags)))
        label_index = {l: i for i, l in enumerate(labels)}
        label_ids = np.fromiter(map(label_index.__getitem__, tags), np.intp, len(tags))
        self._count(self._rows(surfaces), label_ids, lengths, len(vocab), labels,
                    smoothing_alpha, weights)

    def _count(self, rows, label_ids, lengths, n_surfaces, labels, smoothing_alpha,
               weights=None) -> None:
        """Count the flat tokens of surface rows ``rows`` (below
        ``n_surfaces``) and codes ``label_ids`` into ``labels`` (sorted) of
        the sentences ``lengths`` delimits, each token ``weights`` times."""
        self.smoothing_alpha = float(smoothing_alpha)
        self._train = (rows, label_ids, lengths)
        self.labels: tuple[str, ...] = labels
        # the pad row follows the vocabulary and has no surface key, so a
        # token spelled like the pad sentinel is an ordinary surface
        self._pad = n_surfaces
        self.vocab_size = n_surfaces + 1
        L, V = len(self.labels), self.vocab_size
        self.token_counts, *self.context_counts = [
            np.bincount(w * L + label_ids, weights, minlength=V * L).reshape(V, L).astype(float)
            for w in _windows(rows, lengths, self._pad)
        ]
        self.label_totals = np.bincount(label_ids, weights, minlength=L).astype(float)
        a = self.smoothing_alpha
        unseen = np.full((1, L), math.log(a))
        # one virtual all-zero-count row appended for unseen surfaces
        self._log_token = np.vstack([np.log(self.token_counts + a), unseen])
        self._log_ctx = [np.vstack([np.log(c + a), unseen]) for c in self.context_counts]
        self._log_denom = np.log(self.label_totals + a * self.vocab_size)

    def _rows(self, surfaces: Sequence[str]) -> np.ndarray:
        """Count-table rows of the surfaces; unseen ones get the virtual row."""
        index, unseen = self.surface_index, self.vocab_size
        return np.fromiter((index.get(w, unseen) for w in surfaces), np.intp, len(surfaces))

    def _log_probs(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """(tokens, L) log-probabilities of the flat tokens of count-table
        rows ``rows``."""
        windows = _windows(rows, lengths, self._pad)
        score = self._log_token[next(windows)]
        score -= 4.0 * self._log_denom
        for table, ctx in zip(self._log_ctx, windows):
            score += table[ctx]
        z = score.max(axis=1, keepdims=True)
        e = score - z
        np.exp(e, out=e)
        logz = np.log(e.sum(axis=1, keepdims=True))
        logz += z
        score -= logz
        return score

    def _label_names(self, surfaces: Sequence[str], lengths: np.ndarray) -> list[str]:
        """The most probable label of every flat token."""
        ids = self._log_probs(self._rows(surfaces), lengths).argmax(axis=1)
        return [self.labels[i] for i in ids.tolist()]

    def scores(self, sentences: Sequence[Sentence]) -> list[np.ndarray]:
        """Per-sentence (length, L) log-probability matrices."""
        surfaces, lengths = _flatten(sentences)
        flat = self._log_probs(self._rows(surfaces), lengths)
        return [flat[a:b] for a, b in _spans(lengths)]

    def predict_labels(self, sentences: Sequence[Sentence]) -> list[list[str]]:
        surfaces, lengths = _flatten(sentences)
        names = self._label_names(surfaces, lengths)
        return [names[a:b] for a, b in _spans(lengths)]

    def predict(
        self,
        dataset: Dataset | Sequence[Sentence],
        want_logprobs: bool = False,
        ensemble_k: int | None = None,
    ) -> PredictionBatch:
        """The predictor protocol of the active-learning loop."""
        return tagger_predict(self, dataset, want_logprobs, ensemble_k, self.seed)


def train_reference_tagger(train: Dataset, smoothing_alpha: float = 1.0) -> ReferenceTagger:
    """Fit the count tables (training is deterministic)."""
    return ReferenceTagger(train, smoothing_alpha)


def tagger_predict(
    tagger: ReferenceTagger,
    dataset: Dataset | Sequence[Sentence],
    want_logprobs: bool = False,
    ensemble_k: int | None = None,
    seed: int = 0,
) -> PredictionBatch:
    """Predictions as a batch in the tagger's label vocabulary; optional
    per-token log-probabilities and an optional ensemble of K bootstrap-
    retrained taggers.  A member counts each training sentence as many
    times as its bootstrap drew it, and tags with its own labels, the
    tagger's labels that it drew."""
    sentences = list(dataset)
    surfaces, lengths = _flatten(sentences)
    rows = tagger._rows(surfaces)
    flat = tagger._log_probs(rows, lengths)

    ensemble = None
    if ensemble_k is not None:
        if ensemble_k < 2:
            raise ValueError("ensemble_k must be >= 2")
        train_rows, train_labels, train_lengths = tagger._train
        n = len(train_lengths)
        ensemble = np.empty((ensemble_k, len(rows)), dtype=np.intp)
        for k in range(ensemble_k):
            rng = np.random.default_rng([seed, 71, k])
            draws = np.bincount(rng.integers(0, n, size=n), minlength=n)
            drawn = np.repeat(draws > 0, train_lengths)
            member_rows, member_labels = train_rows[drawn], train_labels[drawn]
            # the member's vocabulary and labels are the drawn ones, in the
            # tagger's (sorted) order
            has_row = np.zeros(tagger._pad, dtype=bool)
            has_row[member_rows] = True
            has_label = np.zeros(len(tagger.labels), dtype=bool)
            has_label[member_labels] = True
            row_code = np.cumsum(has_row) - 1
            member = object.__new__(ReferenceTagger)
            member._count(
                row_code[member_rows],
                (np.cumsum(has_label) - 1)[member_labels],
                train_lengths[draws > 0],
                int(has_row.sum()),
                tuple(itertools.compress(tagger.labels, has_label)),
                tagger.smoothing_alpha,
                np.repeat(draws, train_lengths)[drawn],
            )
            # a surface the member did not draw takes its unseen row
            member_row = np.full(tagger.vocab_size + 1, member.vocab_size)
            member_row[:tagger._pad][has_row] = row_code[has_row]
            codes = member._log_probs(member_row[rows], lengths).argmax(axis=1)
            ensemble[k] = np.flatnonzero(has_label)[codes]

    offsets = np.zeros(len(sentences) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return PredictionBatch(
        [s.id for s in sentences], offsets, tagger.labels, flat.argmax(axis=1),
        flat if want_logprobs else None, ensemble,
    )


def relabel(dataset: Dataset, predictions: Mapping[int, PredictionRecord]) -> Dataset:
    """Replace gold labels with predicted ones (structure preserved)."""
    return _with_labels(dataset, [predictions[s.id].labels for s in dataset.sentences])


def _with_labels(dataset: Dataset, label_lists: Sequence[Sequence[str]]) -> Dataset:
    """``dataset`` with each sentence's labels replaced, in sentence order."""
    table = _TokenTable()
    sentences = tuple(
        Sentence(s.id, tuple([table[t.surface, l] for t, l in zip(s.tokens, labels)]), s.doc_id)
        for s, labels in zip(dataset.sentences, label_lists)
    )
    return Dataset(
        sentences=sentences,
        label_inventory=table.entity_types() | dataset.label_inventory,
        role=dataset.role,
    )


# Rounds of relabel-and-retrain allowed before make_pseudo_pool gives up.
# The 100k-token synthetic pools of seeds 0-4 settle in 21-50 rounds.
_PSEUDO_MAX_ROUNDS = 100


def make_pseudo_pool(
    full_gold_train: Dataset, pool_inputs: Dataset, smoothing_alpha: float = 1.0
) -> tuple[Dataset, ReferenceTagger]:
    """Pseudo-label the pool with labels the reference tagger reproduces.

    A tagger trained on all gold training data labels the pool; then, round
    by round, a tagger is retrained on the relabeled pool and labels it
    again, until no pool label changes.  Returns the pool carrying those
    fixed-point labels and, as the oracle, the tagger trained on them: its
    own predictions on the pool are the pseudo labels, so a tagger trained
    on the returned pool has the oracle's count tables exactly.  The labels
    are deterministic functions of each token's +/-2 window, so the pool is
    free of label noise while noise words still receive varied labels.

    Raises ``RuntimeError`` when no fixed point is reached within the round
    bound, rather than return labels the tagger family cannot reproduce.
    """
    surfaces, lengths = _flatten(pool_inputs.sentences)
    teacher = ReferenceTagger(full_gold_train, smoothing_alpha)
    labels = teacher._label_names(surfaces, lengths)
    for _ in range(_PSEUDO_MAX_ROUNDS):
        retrained = object.__new__(ReferenceTagger)
        retrained._fit(surfaces, labels, lengths, smoothing_alpha)
        relabeled = retrained._label_names(surfaces, lengths)
        if relabeled == labels:
            pseudo = _with_labels(pool_inputs, [labels[a:b] for a, b in _spans(lengths)])
            return pseudo, ReferenceTagger(pseudo, smoothing_alpha)
        previous, labels = labels, relabeled
    changing = sum(a != b for a, b in zip(previous, labels))
    raise RuntimeError(
        f"pseudo labels reached no fixed point in {_PSEUDO_MAX_ROUNDS} rounds: "
        f"{changing} pool labels still changing"
    )


# -- loop integration --------------------------------------------------------


def builtin_trainer(smoothing_alpha: float = 1.0, seed: int = 0):
    """Trainer callback for the active-learning loop."""

    def train(train_ds: Dataset) -> ReferenceTagger:
        return ReferenceTagger(train_ds, smoothing_alpha, seed)

    return train
