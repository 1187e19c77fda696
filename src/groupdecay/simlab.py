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

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Dataset, Sentence, Token
from .strategies import PredictionRecord
from .corpus import EmbeddingTable

__all__ = [
    "SynthSpec",
    "gen_synthetic",
    "one_hot_embeddings",
    "ReferenceTagger",
    "train_reference_tagger",
    "tagger_predict",
    "make_pseudo_pool",
    "relabel",
    "BuiltinPredictor",
    "builtin_trainer",
    "save_tagger",
    "load_tagger",
]

CAT_ALWAYS_NONE = 1
CAT_NOISE = 2
CAT_CONTEXT = 3

_PAD = "\x00pad"


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
        normalized=True,
    )


def _assign_types(
    word_ids: list[int], spec: SynthSpec, likelihood: np.ndarray, rng: np.random.Generator
) -> list[str]:
    """Per-token entity type (or 'O') for one generated sentence."""
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
            neighbors = []
            for off in (-2, -1, 1, 2):
                q = pos + off
                if 0 <= q < len(word_ids) and word_ids[q] >= c3_start:
                    neighbors.append(likelihood[word_ids[q] - c3_start])
            if not neighbors:
                neighbors = [likelihood[wid - c3_start]]
            avg = np.mean(neighbors, axis=0)
            out.append(types[int(np.argmax(avg))])
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
    rng = np.random.default_rng([spec.seed, 47, stream])

    c2_start = spec.n_always_none
    c3_start = spec.n_always_none + spec.n_noise
    cat_ranges = {
        CAT_ALWAYS_NONE: (0, c2_start),
        CAT_NOISE: (c2_start, c3_start),
        CAT_CONTEXT: (c3_start, spec.vocab_size),
    }
    w3 = weights / weights.sum()
    surfaces = spec.surfaces

    def draw_from_category(cat: int) -> int:
        lo, hi = cat_ranges[cat]
        if cat == CAT_CONTEXT:
            return c3_start + int(rng.choice(spec.n_context, p=w3))
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
        types = _assign_types(word_ids, spec, likelihood, rng)
        tags = _types_to_bio(types)
        tokens = tuple(
            Token(surface=surfaces[w], gold_label=t) for w, t in zip(word_ids, tags)
        )
        doc = sent_id // sentences_per_doc if sentences_per_doc else None
        sentences.append(Sentence(id=sent_id, tokens=tokens, doc_id=doc))
        sent_id += 1
        total += len(tokens)
    return Dataset(
        sentences=tuple(sentences), label_inventory=inventory, role=role
    )


# -- reference tagger --------------------------------------------------------

_OFFSETS = (-2, -1, 1, 2)


class ReferenceTagger:
    """Smoothed count model over the token and its +/-2 context window.

    P(y | token, context) is proportional to (token-tag count + alpha) times
    the product over offsets of smoothed context likelihoods
    (count(y, ctx, offset) + alpha) / (count(y) + alpha * V).
    Deterministic given the training data.
    """

    def __init__(self, train: Dataset, smoothing_alpha: float = 1.0):
        if len(train) == 0:
            raise ValueError("training data is empty")
        self.smoothing_alpha = float(smoothing_alpha)
        self.train_sentences: tuple[Sentence, ...] = train.sentences
        labels = sorted({t.gold_label for s in train.sentences for t in s.tokens})
        if any(l is None for l in labels):
            raise ValueError("training data must be fully labeled")
        self.labels: tuple[str, ...] = tuple(labels)
        self.label_index = {l: i for i, l in enumerate(labels)}
        surfaces = sorted({t.surface for s in train.sentences for t in s.tokens})
        self.surface_index = {w: i for i, w in enumerate(surfaces)}
        self.surface_index[_PAD] = len(surfaces)
        self.vocab_size = len(self.surface_index)
        self._count(train)
        self._finalize()

    def _count(self, train: Dataset) -> None:
        L = len(self.labels)
        V = self.vocab_size
        self.token_counts = np.zeros((V, L), dtype=np.float64)
        self.context_counts = [np.zeros((V, L), dtype=np.float64) for _ in _OFFSETS]
        pad = self.surface_index[_PAD]
        tok_rows, lab_rows = [], []
        ctx_rows: list[list[np.ndarray]] = [[] for _ in _OFFSETS]
        for s in train.sentences:
            sidx = np.asarray([self.surface_index[t.surface] for t in s.tokens])
            lidx = np.asarray([self.label_index[t.gold_label] for t in s.tokens])
            n = len(sidx)
            tok_rows.append(sidx)
            lab_rows.append(lidx)
            pos = np.arange(n)
            for k, off in enumerate(_OFFSETS):
                q = pos + off
                ctx_rows[k].append(
                    np.where((q >= 0) & (q < n), sidx[np.clip(q, 0, n - 1)], pad)
                )
        tok = np.concatenate(tok_rows)
        lab = np.concatenate(lab_rows)
        np.add.at(self.token_counts, (tok, lab), 1.0)
        self.label_totals = np.bincount(lab, minlength=L).astype(np.float64)
        for k in range(len(_OFFSETS)):
            np.add.at(self.context_counts[k], (np.concatenate(ctx_rows[k]), lab), 1.0)

    def _finalize(self) -> None:
        a = self.smoothing_alpha
        unseen = np.full((1, len(self.labels)), math.log(a))
        # one virtual all-zero-count row appended for unseen surfaces
        self._log_token = np.vstack([np.log(self.token_counts + a), unseen])
        self._log_ctx = [np.vstack([np.log(c + a), unseen]) for c in self.context_counts]
        self._log_denom = np.log(self.label_totals + a * self.vocab_size)

    def _surface_rows(self, sentences: Sequence[Sentence]) -> list[np.ndarray]:
        """Map each sentence's surfaces to count-matrix rows (OOV -> pad-free
        virtual row handled via a zero-count lookup)."""
        unseen = self.vocab_size  # virtual all-zero-count row
        rows = []
        for s in sentences:
            rows.append(
                np.asarray(
                    [self.surface_index.get(t.surface, unseen) for t in s.tokens],
                    dtype=np.intp,
                )
            )
        return rows

    def scores(self, sentences: Sequence[Sentence]) -> list[np.ndarray]:
        """Per-sentence (length, L) log-probability matrices."""
        pad = self.surface_index[_PAD]
        out = []
        for s, rows in zip(sentences, self._surface_rows(sentences)):
            n = len(rows)
            score = self._log_token[rows] - 4.0 * self._log_denom[None, :]
            for k, off in enumerate(_OFFSETS):
                q = np.arange(n) + off
                ctx = np.where((q >= 0) & (q < n), rows[np.clip(q, 0, n - 1)], pad)
                score = score + self._log_ctx[k][ctx]
            z = score.max(axis=1, keepdims=True)
            logz = z + np.log(np.exp(score - z).sum(axis=1, keepdims=True))
            out.append(score - logz)
        return out

    def predict_labels(self, sentences: Sequence[Sentence]) -> list[list[str]]:
        return [
            [self.labels[i] for i in np.argmax(m, axis=1)] for m in self.scores(sentences)
        ]


def train_reference_tagger(
    train: Dataset, smoothing_alpha: float = 1.0, seed: int = 0
) -> ReferenceTagger:
    """Fit the count tables; ``seed`` is kept for API symmetry (training is
    deterministic) and reserved for bootstrap resampling by callers."""
    del seed
    return ReferenceTagger(train, smoothing_alpha)


def tagger_predict(
    tagger: ReferenceTagger,
    dataset: Dataset | Sequence[Sentence],
    want_logprobs: bool = False,
    ensemble_k: int | None = None,
    seed: int = 0,
) -> dict[int, PredictionRecord]:
    """Predictions as exchange records; optional per-token log-probabilities
    and an optional ensemble of K bootstrap-retrained taggers."""
    sentences = list(dataset.sentences if isinstance(dataset, Dataset) else dataset)
    matrices = tagger.scores(sentences)

    ensemble_labels: list[list[list[str]]] | None = None
    if ensemble_k is not None:
        if ensemble_k < 2:
            raise ValueError("ensemble_k must be >= 2")
        ensemble_labels = []
        base = tagger.train_sentences
        for k in range(ensemble_k):
            rng = np.random.default_rng([seed, 71, k])
            idx = rng.integers(0, len(base), size=len(base))
            boot = Dataset(
                sentences=tuple(
                    Sentence(id=i, tokens=base[j].tokens) for i, j in enumerate(idx)
                ),
                label_inventory=frozenset(),
                role="train",
            )
            member = ReferenceTagger(boot, tagger.smoothing_alpha)
            ensemble_labels.append(member.predict_labels(sentences))

    records: dict[int, PredictionRecord] = {}
    for i, (s, m) in enumerate(zip(sentences, matrices)):
        labels = tuple(tagger.labels[j] for j in np.argmax(m, axis=1))
        logprobs = None
        if want_logprobs:
            logprobs = tuple(
                {tag: float(m[l, j]) for j, tag in enumerate(tagger.labels)}
                for l in range(len(s))
            )
        ensemble = None
        if ensemble_labels is not None:
            ensemble = tuple(tuple(member[i]) for member in ensemble_labels)
        records[s.id] = PredictionRecord(
            sentence_id=s.id, labels=labels, logprobs=logprobs, ensemble=ensemble
        )
    return records


def relabel(dataset: Dataset, predictions: dict[int, PredictionRecord]) -> Dataset:
    """Replace gold labels with predicted ones (structure preserved)."""
    return _with_labels(dataset, [predictions[s.id].labels for s in dataset.sentences])


def _with_labels(dataset: Dataset, label_lists: Sequence[Sequence[str]]) -> Dataset:
    """``dataset`` with each sentence's labels replaced, in sentence order."""
    sentences = []
    types: set[str] = set()
    for s, labels in zip(dataset.sentences, label_lists):
        tokens = tuple(
            Token(surface=t.surface, gold_label=l) for t, l in zip(s.tokens, labels)
        )
        for l in labels:
            if l != "O":
                types.add(l.split("-", 1)[1])
        sentences.append(Sentence(id=s.id, tokens=tokens, doc_id=s.doc_id))
    return Dataset(
        sentences=tuple(sentences),
        label_inventory=frozenset(types) | dataset.label_inventory,
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
    sentences = pool_inputs.sentences
    labels = ReferenceTagger(full_gold_train, smoothing_alpha).predict_labels(sentences)
    for _ in range(_PSEUDO_MAX_ROUNDS):
        pseudo = _with_labels(pool_inputs, labels)
        oracle = ReferenceTagger(pseudo, smoothing_alpha)
        relabeled = oracle.predict_labels(sentences)
        if relabeled == labels:
            return pseudo, oracle
        previous, labels = labels, relabeled
    changing = sum(
        a != b for old, new in zip(previous, labels) for a, b in zip(old, new)
    )
    raise RuntimeError(
        f"pseudo labels reached no fixed point in {_PSEUDO_MAX_ROUNDS} rounds: "
        f"{changing} pool labels still changing"
    )


# -- loop integration --------------------------------------------------------


class BuiltinPredictor:
    """Adapter exposing the reference tagger through the predictor protocol."""

    def __init__(self, tagger: ReferenceTagger, seed: int = 0):
        self.tagger = tagger
        self.seed = seed

    def predict(
        self,
        dataset: Dataset | Sequence[Sentence],
        want_logprobs: bool = False,
        ensemble_k: int | None = None,
    ) -> dict[int, PredictionRecord]:
        return tagger_predict(
            self.tagger, dataset, want_logprobs=want_logprobs,
            ensemble_k=ensemble_k, seed=self.seed,
        )


def builtin_trainer(smoothing_alpha: float = 1.0, seed: int = 0):
    """Trainer callback for the active-learning loop."""

    def train(train_ds: Dataset) -> BuiltinPredictor:
        return BuiltinPredictor(ReferenceTagger(train_ds, smoothing_alpha), seed=seed)

    return train


# -- serialization ------------------------------------------------------------

_TAGGER_FORMAT = "groupdecay-tagger/1"


def save_tagger(tagger: ReferenceTagger) -> str:
    surfaces = [None] * len(tagger.surface_index)
    for w, i in tagger.surface_index.items():
        surfaces[i] = w
    payload = {
        "format": _TAGGER_FORMAT,
        "alpha": tagger.smoothing_alpha,
        "labels": list(tagger.labels),
        "surfaces": surfaces,
        "token_counts": tagger.token_counts.tolist(),
        "context_counts": [c.tolist() for c in tagger.context_counts],
        "label_totals": tagger.label_totals.tolist(),
        "train": [
            {
                "id": s.id,
                "tokens": [[t.surface, t.gold_label] for t in s.tokens],
            }
            for s in tagger.train_sentences
        ],
    }
    return json.dumps(payload, sort_keys=True)


def load_tagger(text: str) -> ReferenceTagger:
    payload = json.loads(text)
    if payload.get("format") != _TAGGER_FORMAT:
        raise ValueError(f"unsupported tagger format: {payload.get('format')!r}")
    sentences = tuple(
        Sentence(
            id=s["id"],
            tokens=tuple(Token(surface=w, gold_label=l) for w, l in s["tokens"]),
        )
        for s in payload["train"]
    )
    types = {
        t.gold_label.split("-", 1)[1]
        for s in sentences
        for t in s.tokens
        if t.gold_label != "O"
    }
    train = Dataset(sentences=sentences, label_inventory=frozenset(types), role="train")
    tagger = ReferenceTagger(train, payload["alpha"])
    # the tables are recomputed from the stored training sentences; verify
    recomputed = json.loads(save_tagger(tagger))
    for key in ("labels", "surfaces", "token_counts", "context_counts", "label_totals"):
        if payload.get(key) != recomputed[key]:
            raise ValueError(f"stored {key} disagree with the recomputed {key}")
    return tagger
