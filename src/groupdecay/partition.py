"""Feature-defined partitions of words and sentences, group masses and errors.

A partition assigns every word token (or sentence) of a corpus to one of J
groups.  Word-unit partitions are hard; the sentence partition is soft, with
membership probabilities from a temperature softmax over cosine similarity
to cluster centers.  A :class:`GroupIndex` holds what each sentence of a
fixed sequence contributes to the groups, computed once; group masses count
expected tokens per group, and group errors average per-token tag
mismatches between two labelings.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import (
    Dataset,
    EmbeddingTable,
    Sentence,
    ShapeClass,
    _is_finite,
    _is_int,
    entity_type,
    sentence_embeddings,
    shape_class,
)

__all__ = [
    "PartitionKind",
    "PartitionConfig",
    "Group",
    "Partition",
    "GroupIndex",
    "GroupErrors",
    "GroupErrorRecord",
    "ParameterError",
    "AlignmentError",
    "minibatch_kmeans",
    "Clusterings",
    "build_partition",
    "build_identity_partition",
    "build_group_index",
    "aligned_labels",
    "tag_codes",
    "token_losses",
    "mismatch_rates",
    "group_mass",
    "sentence_group_delta",
    "group_error",
    "save_partition",
    "load_partition",
]

N_SHAPES = 4


class ParameterError(ValueError):
    """Invalid clustering or partition parameters."""


class AlignmentError(ValueError):
    """Predictions do not align with the gold dataset."""


class PartitionKind(str, enum.Enum):
    SENTENCE = "SENTENCE"
    WORD = "WORD"
    WORD_SHAPE = "WORD_SHAPE"
    WORD_SENTENCE = "WORD_SENTENCE"


@dataclass
class PartitionConfig:
    sentence_groups: int = 10
    word_groups: int = 10
    word_subgroups: int = 10
    temperature: float = 0.1
    kmeans_batch: int = 1024
    kmeans_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("sentence_groups", "word_groups", "word_subgroups", "kmeans_batch",
                     "kmeans_iters"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ParameterError(f"partition {name} must be an integer >= 1, got {value!r}")
        if not (_is_finite(self.temperature) and self.temperature > 0):
            raise ParameterError(
                f"partition temperature must be a finite number > 0, got {self.temperature!r}"
            )
        if not _is_int(self.seed) or self.seed < 0:
            raise ParameterError(f"partition seed must be an integer >= 0, got {self.seed!r}")


@dataclass
class Group:
    id: int
    descriptor: dict
    exemplar_surfaces: tuple[str, ...] = ()


# rows of X per block of _sq_dists: its rows x k x d temporary stays small
_BLOCK_ROWS = 64


def _sq_dists(centers: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Squared distance of every row of X to every center, (n, k): the
    broadcast difference, squared and summed over the last axis, one block
    of rows at a time."""
    out = np.empty((X.shape[0], centers.shape[0]), dtype=np.result_type(centers, X))
    for s in range(0, X.shape[0], _BLOCK_ROWS):
        D = centers[None, :, :] - X[s : s + _BLOCK_ROWS, None, :]
        np.multiply(D, D, out=D)
        np.add.reduce(D, axis=2, out=out[s : s + _BLOCK_ROWS])
    return out


def _nearest(centers: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Nearest center of every row of X (squared distance, first on ties)."""
    return np.argmin(_sq_dists(centers, X), axis=1)


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; duplicates of chosen points get zero weight."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = X[first]
    d2 = _sq_dists(centers[:1], X)[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = X[idx]
        d2 = np.minimum(d2, _sq_dists(centers[j : j + 1], X)[:, 0])
    return centers


def minibatch_kmeans(
    vectors: np.ndarray,
    k: int,
    batch_size: int = 1024,
    iterations: int = 100,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Mini-batch k-means with k-means++ seeding.

    Deterministic given (vectors, seed).  Per-center learning rates decay as
    1/count, so with ``batch_size >= len(vectors)`` and k = 1 the center is
    exactly the running mean.  After the final assignment, empty clusters are
    re-seeded to the point farthest from its assigned center.

    Returns (centers (k, d), hard assignments (n,)).
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise ParameterError("vectors must be a 2-D array")
    if not np.isfinite(X).all():
        raise ParameterError("vectors must be finite numbers")
    n = X.shape[0]
    if k < 1:
        raise ParameterError("k must be >= 1")
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size!r}")
    if n < k:
        raise ParameterError(f"need at least k={k} vectors, got {n}")

    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(X, k, rng)
    counts = np.zeros(k, dtype=np.float64)

    m, d = min(batch_size, n), X.shape[1]
    # the bincount's index buffer, filled in place: a fresh one per iteration
    # raised the process's peak RSS
    cols, flat = np.arange(d), np.empty((m, d), dtype=np.intp)
    for _ in range(iterations):
        batch_idx = rng.choice(n, size=m, replace=False)
        B = X[batch_idx]
        assign = _nearest(centers, B)
        # sequential 1/count running-mean updates collapse to a closed form:
        # new center = (old_count * old + sum(batch members)) / (old_count + m_c)
        # per-centre sums in row order, as np.add.at adds, in one bincount
        np.add(assign[:, None] * d, cols, out=flat)
        sums = np.bincount(flat.ravel(), weights=B.ravel(), minlength=k * d).reshape(k, d)
        batch_counts = np.bincount(assign, minlength=k).astype(np.float64)
        nonzero = batch_counts > 0
        new_counts = counts + batch_counts
        centers[nonzero] = (
            centers[nonzero] * counts[nonzero, None] + sums[nonzero]
        ) / new_counts[nonzero, None]
        counts = new_counts

    for _ in range(k):
        d2 = _sq_dists(centers, X)
        assign = np.argmin(d2, axis=1)
        empty = np.flatnonzero(np.bincount(assign, minlength=k) == 0)
        if empty.size == 0:
            return centers, assign
        farthest = int(np.argmax(d2[np.arange(n), assign]))
        centers[empty[0]] = X[farthest]
    return centers, _nearest(centers, X)


def _cosine_to_centers(
    vec: np.ndarray, centers: np.ndarray, center_norms: np.ndarray
) -> np.ndarray:
    norms = center_norms * np.linalg.norm(vec)
    out = np.zeros(centers.shape[0], dtype=np.float64)
    ok = norms > 0
    out[ok] = (centers[ok] @ vec) / norms[ok]
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


class Partition:
    """A frozen clustering of words or sentences into J groups.

    Construction happens once per run via :func:`build_partition` (or
    :func:`build_identity_partition`); membership and mass queries are
    read-only afterwards and safe to issue concurrently.
    """

    def __init__(
        self,
        kind: PartitionKind,
        *,
        temperature: float = 0.1,
        seed: int = 0,
        sentence_centers: np.ndarray | None = None,
        word_centers: np.ndarray | None = None,
        sub_centers: list[np.ndarray] | None = None,
        identity_vocab: list[str] | None = None,
        sub_slots: int = 0,
        groups: list[Group] | None = None,
    ):
        self.kind = PartitionKind(kind)
        self.soft = self.kind == PartitionKind.SENTENCE
        if not (_is_finite(temperature) and temperature > 0):
            raise ParameterError(
                f"partition temperature must be a finite number > 0, got {temperature!r}"
            )
        self.temperature = float(temperature)
        self.seed = int(seed)
        self.sentence_centers = sentence_centers
        self.word_centers = word_centers
        self.sub_centers = sub_centers
        self.identity_vocab = identity_vocab
        self._identity_index = (
            {w: i for i, w in enumerate(identity_vocab)} if identity_vocab else None
        )
        self.sub_slots = int(sub_slots)
        self.groups = groups or []
        if self._identity_index is None:
            self._check_centers()

    def _check_centers(self) -> None:
        """The centers this kind reads are 2-D arrays of finite numbers with
        at least one row and one width; WORD has one sub-center array per
        word center, none with more rows than ``sub_slots``."""
        reads = {
            PartitionKind.SENTENCE: ("sentence_centers",),
            PartitionKind.WORD: ("word_centers",),
            PartitionKind.WORD_SHAPE: ("word_centers",),
            PartitionKind.WORD_SENTENCE: ("word_centers", "sentence_centers"),
        }[self.kind]
        arrays = {name: getattr(self, name) for name in reads}
        subs = self.sub_centers or []
        if self.kind == PartitionKind.WORD:
            arrays.update((f"sub_centers[{t}]", c) for t, c in enumerate(subs))
        for name, c in arrays.items():
            if not (isinstance(c, np.ndarray) and c.ndim == 2 and len(c)):
                raise ParameterError(
                    f"a {self.kind.value} partition needs {name} as a 2-D array of rows"
                )
            if not np.isfinite(c).all():
                raise ParameterError(f"partition {name} holds a value that is not finite")
        widths = sorted({c.shape[1] for c in arrays.values()})
        if len(widths) > 1:
            raise ParameterError(f"partition centers differ in width: {widths}")
        if self.kind == PartitionKind.WORD:
            if len(subs) != len(self.word_centers):
                raise ParameterError(
                    f"{len(subs)} sub_centers arrays for {len(self.word_centers)} word centers"
                )
            if max(len(c) for c in subs) > self.sub_slots:
                raise ParameterError(f"a sub_centers array has more rows than sub_slots "
                                     f"{self.sub_slots}")

    @property
    def n_groups(self) -> int:
        if self._identity_index is not None:
            return len(self._identity_index)
        if self.kind == PartitionKind.SENTENCE:
            return self.sentence_centers.shape[0]
        k1 = self.word_centers.shape[0]
        if self.kind == PartitionKind.WORD:
            return k1 * self.sub_slots
        if self.kind == PartitionKind.WORD_SHAPE:
            return k1 * N_SHAPES
        return k1 * self.sentence_centers.shape[0]

    # -- membership ------------------------------------------------------

    def sentence_group_scores(self, sentence: Sentence, table: EmbeddingTable) -> np.ndarray:
        return self._embedding_scores(sentence_embeddings([sentence], table))[0]

    def _embedding_scores(self, S: np.ndarray) -> list[np.ndarray]:
        """:meth:`sentence_group_scores` of each row of sentence embeddings
        ``S``: the centre norms once, each row's own norm and product
        (``S @ C.T`` has other bits)."""
        C = self.sentence_centers
        norms = np.linalg.norm(C, axis=1)
        return [_cosine_to_centers(vec, C, norms) for vec in S]

    def sentence_membership(self, sentence: Sentence, table: EmbeddingTable) -> np.ndarray:
        """Soft membership over sentence groups (sums to 1)."""
        if self.kind != PartitionKind.SENTENCE:
            raise ParameterError("sentence_membership requires the sentence partition")
        return _softmax(self.sentence_group_scores(sentence, table) / self.temperature)

    def _surface_groups(self, surfaces: list[str], table: EmbeddingTable | None) -> np.ndarray:
        """Group id of each distinct surface; the word cluster alone for
        WORD_SENTENCE, whose second level comes from the sentence."""
        if self._identity_index is not None:
            try:
                return np.asarray([self._identity_index[w] for w in surfaces], dtype=np.intp)
            except KeyError as exc:
                raise ParameterError(
                    f"surface {exc.args[0]!r} outside the identity partition vocabulary"
                ) from exc
        X = np.stack([table.get(w) for w in surfaces])
        top = _nearest(self.word_centers, X)
        if self.kind == PartitionKind.WORD:
            out = np.empty_like(top)
            for t in np.unique(top):
                rows = np.flatnonzero(top == t)
                out[rows] = t * self.sub_slots + _nearest(self.sub_centers[t], X[rows])
            return out
        if self.kind == PartitionKind.WORD_SHAPE:
            shapes = np.asarray([int(shape_class(w)) for w in surfaces], dtype=np.intp)
            return top * N_SHAPES + shapes
        return top


def _unique_word_vectors(
    sentences: Sequence[Sentence], table: EmbeddingTable
) -> tuple[list[str], np.ndarray]:
    vocab = sorted({t.surface for s in sentences for t in s.tokens})
    X = np.stack([table.get(w) for w in vocab])
    return vocab, X


def _nearest_exemplars(
    center: np.ndarray, names: Sequence[str], X: np.ndarray, limit: int = 10
) -> tuple[str, ...]:
    if len(names) == 0:
        return ()
    order = np.argsort(_sq_dists(center[None, :], X)[:, 0], kind="stable")[:limit]
    return tuple(names[i] for i in order)


def build_identity_partition(sentences: Sequence[Sentence]) -> Partition:
    """One group per distinct surface (word unit, hard, no clustering)."""
    vocab = sorted({t.surface for s in sentences for t in s.tokens})
    if len(vocab) < 2:
        raise ParameterError("identity partition needs at least 2 distinct surfaces")
    part = Partition(PartitionKind.WORD, identity_vocab=vocab)
    part.groups = [
        Group(id=i, descriptor={"surface": w}, exemplar_surfaces=(w,))
        for i, w in enumerate(vocab)
    ]
    return part


class Clusterings:
    """The clusterings that partitions of one corpus read, each computed on
    first use and then shared by every kind built with them.

    The four kinds come from two clusterings: the sentence k-means (SENTENCE,
    and WORD_SENTENCE's second level) and the vocabulary word k-means (the
    word kinds), with WORD's sub k-means inside each word cluster.  Pass one
    instance as ``clusters=`` to every :func:`build_partition` call over the
    same ``sentences``, ``table`` and ``config`` to run each k-means once.
    """

    def __init__(
        self,
        sentences: Sequence[Sentence] | Dataset,
        table: EmbeddingTable,
        config: PartitionConfig | None = None,
    ):
        self.sentences = list(sentences)
        self.table = table
        self.config = config or PartitionConfig()

    @functools.cached_property
    def sentence_vectors(self) -> np.ndarray:
        """Each sentence's embedding, checked for enough distinct rows."""
        S = sentence_embeddings(self.sentences, self.table)
        if np.unique(S, axis=0).shape[0] < self.config.sentence_groups:
            raise ParameterError(
                f"fewer distinct sentence embeddings than {self.config.sentence_groups} clusters"
            )
        return S

    @functools.cached_property
    def sentence_centers(self) -> np.ndarray:
        cfg = self.config
        return minibatch_kmeans(self.sentence_vectors, cfg.sentence_groups, cfg.kmeans_batch,
                                cfg.kmeans_iters, seed=cfg.seed * 7 + 1)[0]

    @functools.cached_property
    def word_vectors(self) -> tuple[list[str], np.ndarray]:
        """The sorted vocabulary and its vectors, checked for enough distinct rows."""
        vocab, X = _unique_word_vectors(self.sentences, self.table)
        if np.unique(X, axis=0).shape[0] < self.config.word_groups:
            raise ParameterError(
                f"fewer distinct word vectors than {self.config.word_groups} clusters"
            )
        return vocab, X

    @functools.cached_property
    def word_clusters(self) -> tuple[np.ndarray, np.ndarray]:
        """The word centers and each vocabulary word's cluster."""
        cfg = self.config
        return minibatch_kmeans(self.word_vectors[1], cfg.word_groups, cfg.kmeans_batch,
                                cfg.kmeans_iters, seed=cfg.seed * 7 + 2)

    @functools.cached_property
    def sub_centers(self) -> list[np.ndarray]:
        """WORD's sub-centers, one array per word cluster."""
        cfg = self.config
        X, assign = self.word_vectors[1], self.word_clusters[1]
        out = []
        for top in range(cfg.word_groups):
            Xm = X[assign == top]
            k2 = min(cfg.word_subgroups, max(1, np.unique(Xm, axis=0).shape[0]))
            out.append(minibatch_kmeans(
                Xm, k2, cfg.kmeans_batch, cfg.kmeans_iters, seed=cfg.seed * 7 + 100 + top
            )[0])
        return out


def build_partition(
    sentences: Sequence[Sentence] | Dataset,
    table: EmbeddingTable,
    kind: PartitionKind | str,
    config: PartitionConfig | None = None,
    *,
    clusters: Clusterings | None = None,
) -> Partition:
    """Cluster the corpus union into a frozen partition of the given kind.

    ``sentences`` must cover training data, sampling pool, and validation so
    that group statistics approximate the test distribution.  Each group is
    described by the vocabulary words :meth:`Partition._surface_groups`
    puts in it (for WORD_SENTENCE, the words of its word cluster), nearest
    first to its word cluster's center (WORD: its sub-center).  The
    clusterings come from ``clusters`` (made for these sentences, table and
    config; a ``ValueError`` otherwise), or from a :class:`Clusterings` of
    this call's own.
    """
    sentences = list(sentences)
    kind = PartitionKind(kind)
    cfg = config or PartitionConfig()
    if clusters is None:
        clusters = Clusterings(sentences, table, cfg)
    elif not (clusters.table is table and clusters.config == cfg
              and clusters.sentences == sentences):
        raise ValueError("clusters were made for other sentences, another table or "
                         "another config")

    sentence_centers = word_centers = sub_centers = None
    if kind in (PartitionKind.SENTENCE, PartitionKind.WORD_SENTENCE):
        sentence_centers = clusters.sentence_centers
    if kind != PartitionKind.SENTENCE:
        vocab, X = clusters.word_vectors
        word_centers = clusters.word_clusters[0]
    if kind == PartitionKind.WORD:
        sub_centers = clusters.sub_centers
    part = Partition(
        kind,
        # the word kinds read no temperature and record the default
        temperature=cfg.temperature if sentence_centers is not None else 0.1,
        seed=cfg.seed,
        sentence_centers=sentence_centers,
        word_centers=word_centers,
        sub_centers=sub_centers,
        sub_slots=cfg.word_subgroups if sub_centers is not None else 0,
    )

    if kind == PartitionKind.SENTENCE:
        sent_names = [" ".join(s.surfaces[:8]) for s in sentences]
        part.groups = [
            Group(j, {"sentence_cluster": j},
                  _nearest_exemplars(sentence_centers[j], sent_names, clusters.sentence_vectors))
            for j in range(cfg.sentence_groups)
        ]
        return part
    word_group = part._surface_groups(vocab, table)  # WORD_SENTENCE: the word cluster
    second, width = {
        PartitionKind.WORD: ("word_subcluster", cfg.word_subgroups),
        PartitionKind.WORD_SHAPE: ("shape", N_SHAPES),
        PartitionKind.WORD_SENTENCE: ("sentence_cluster", cfg.sentence_groups),
    }[kind]
    for gid in range(part.n_groups):
        top, sub = divmod(gid, width)
        if kind == PartitionKind.WORD and sub >= len(sub_centers[top]):
            part.groups.append(Group(gid, {}))  # a slot past the cluster's sub-centers
            continue
        center = sub_centers[top][sub] if kind == PartitionKind.WORD else word_centers[top]
        sel = np.flatnonzero(word_group == (top if kind == PartitionKind.WORD_SENTENCE else gid))
        value = ShapeClass(sub).name if kind == PartitionKind.WORD_SHAPE else sub
        part.groups.append(Group(
            gid, {"word_cluster": top, second: value},
            _nearest_exemplars(center, [vocab[i] for i in sel], X[sel]),
        ))
    return part


# -- group index, masses and errors ------------------------------------------


def _weighted_bincount(gids: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Per-group sums of ``weights`` in element order, float also when empty."""
    return np.bincount(gids, weights=weights, minlength=n).astype(np.float64, copy=False)


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """Where each of the consecutive runs of ``sizes`` starts, and the end."""
    return np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``starts[k]:stops[k]``."""
    sizes = stops - starts
    return np.arange(sizes.sum()) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)


class GroupIndex:
    """What each sentence of a fixed sequence adds to one partition's groups.

    Rows are positions in the sequence, never ``Sentence.id`` (pool and
    validation ids both count from 0).  ``pairs`` is a CSR table
    ``(indptr, group ids, masses)``: row ``r`` adds ``masses[k]`` to group
    ``ids[k]`` for ``k`` in ``indptr[r]:indptr[r + 1]``.  A hard partition's
    row lists the groups its tokens fall in, ascending, with their token
    counts; a soft row lists all J groups with membership x length.  Per-token
    sums also need each token's group id (hard) or each row's membership
    (soft).  Per-group sums add the rows in order, equal bit for bit to a
    running sum over sentences.
    """

    def __init__(self, n_groups: int, lengths: np.ndarray, pairs, gids=None, membership=None):
        self.n_groups = n_groups
        self.lengths = lengths  # tokens per row
        self.offsets = _offsets(lengths)
        self.pairs = pairs
        self.gids = gids  # hard: group id per token
        self.membership = membership  # soft: rows x groups
        self.soft = membership is not None

    def __len__(self) -> int:
        return len(self.lengths)

    def take(self, rows) -> "GroupIndex":
        """The index of the rows at ``rows`` (positions or a slice), in order."""
        rows = np.arange(len(self))[rows]
        indptr, ids, masses = self.pairs
        starts, stops = indptr[rows], indptr[rows + 1]
        at = _ranges(starts, stops)
        pairs = (_offsets(stops - starts), ids[at], masses[at])
        lengths = self.lengths[rows]
        if self.soft:
            return GroupIndex(self.n_groups, lengths, pairs, membership=self.membership[rows])
        tokens = _ranges(self.offsets[rows], self.offsets[rows + 1])
        return GroupIndex(self.n_groups, lengths, pairs, gids=self.gids[tokens])

    def mass(self) -> np.ndarray:
        """Expected token count per group over all rows."""
        _, ids, masses = self.pairs
        return _weighted_bincount(ids, masses, self.n_groups)

    def token_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-group sum of a per-token quantity (soft: sentence totals
        spread by membership)."""
        if self.soft:
            # one ``sum`` per sentence: np.add.reduceat adds in another order
            totals = np.asarray(
                [values[a:b].sum() for a, b in zip(self.offsets[:-1], self.offsets[1:])],
                dtype=np.float64,
            )
            spread = self.membership * totals[:, None]
            return _weighted_bincount(self.pairs[1], spread.ravel(), self.n_groups)
        return _weighted_bincount(self.gids, values, self.n_groups)

    def delta(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Sparse (group ids, mass increments) contributed by one row."""
        indptr, ids, masses = self.pairs
        at = slice(indptr[row], indptr[row + 1])
        return ids[at], masses[at]


def build_group_index(
    partition: Partition,
    sentences: Dataset | Iterable[Sentence],
    table: EmbeddingTable | None = None,
) -> GroupIndex:
    """Each sentence's group contributions under ``partition``: hard
    partitions look up every distinct surface once, the soft one stacks
    one :meth:`Partition.sentence_membership` row per sentence, computed
    from one :func:`~groupdecay.corpus.sentence_embeddings` matrix."""
    sentences = list(sentences)
    lengths = np.asarray([len(s) for s in sentences], dtype=np.intp)
    J = partition.n_groups
    scores = []
    if sentences and partition.kind in (PartitionKind.SENTENCE, PartitionKind.WORD_SENTENCE):
        scores = partition._embedding_scores(sentence_embeddings(sentences, table))
    if partition.soft:
        rows = [_softmax(z / partition.temperature) for z in scores]
        membership = np.stack(rows) if rows else np.zeros((0, J))
        pairs = (
            _offsets(np.full(len(sentences), J)),
            np.tile(np.arange(J), len(sentences)),
            (membership * lengths[:, None]).ravel(),
        )
        return GroupIndex(J, lengths, pairs, membership=membership)
    slot: dict[str, int] = {}
    tokens = np.asarray(
        [slot.setdefault(t.surface, len(slot)) for s in sentences for t in s.tokens],
        dtype=np.intp,
    )
    gids = partition._surface_groups(list(slot), table)[tokens] if slot else tokens
    if partition.kind == PartitionKind.WORD_SENTENCE:
        sentence_groups = np.asarray([int(np.argmax(z)) for z in scores], dtype=np.intp)
        gids = gids * partition.sentence_centers.shape[0] + np.repeat(sentence_groups, lengths)
    # one sort for the whole sequence: (row, group) keys, each row's groups ascending
    keys, counts = np.unique(np.repeat(np.arange(len(sentences)), lengths) * J + gids,
                             return_counts=True)
    pairs = (
        _offsets(np.bincount(keys // J, minlength=len(sentences))),
        keys % J,
        counts.astype(np.float64),
    )
    return GroupIndex(J, lengths, pairs, gids=gids)


def group_mass(
    partition: Partition,
    data: Dataset | Iterable[Sentence],
    table: EmbeddingTable | None = None,
) -> np.ndarray:
    """Expected token count per group over a dataset (or any sentence batch)."""
    return build_group_index(partition, data, table).mass()


def sentence_group_delta(
    partition: Partition, sentence: Sentence, table: EmbeddingTable | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse (group ids, mass increments) contributed by one sentence."""
    return build_group_index(partition, [sentence], table).delta(0)


@dataclass
class GroupErrors:
    error: np.ndarray  # average per-token error in [0, 1] per group; 0 where mass == 0
    mass: np.ndarray   # m(group, dataset)


@dataclass
class GroupErrorRecord:
    """One retraining checkpoint: training masses and validation errors."""

    checkpoint_index: int
    train_mass: np.ndarray
    val_error: np.ndarray
    val_mass: np.ndarray


def tag_codes(tags: Iterable[Sequence[str]], codes: dict[str, int]) -> np.ndarray:
    """The flat integer codes of aligned tag sequences.  ``codes`` maps each
    tag to its code and gains every tag it lacks, so arrays coded with one
    dict compare tag for tag."""
    return np.asarray(
        [codes.setdefault(t, len(codes)) for seq in tags for t in seq], dtype=np.intp
    )


def token_losses(
    first: np.ndarray,
    second: np.ndarray,
    codes: Mapping[str, int],
    class_weights: Mapping[str, float] | None = None,
) -> np.ndarray:
    """Each token's loss between two labelings coded with ``codes``: 1 where
    they differ, with ``class_weights`` the mean of the two tags' weights
    there; 0 elsewhere.  Only the tags of these two labelings are weighed."""
    if first.shape != second.shape:
        raise AlignmentError(f"labelings of {len(first)} and {len(second)} tokens")
    mism = (first != second).astype(np.float64)
    if class_weights is None:
        return mism
    tags = list(codes)
    weight = np.zeros(len(tags))
    for code in np.unique(np.concatenate((first, second))).tolist():
        weight[code] = class_weights[entity_type(tags[code])]
    return mism * (0.5 * (weight[first] + weight[second]))


def aligned_labels(
    labels: Mapping[int, Sequence[str]], sentences: Sequence[Sentence]
) -> list[Sequence[str]]:
    """The tag sequences of ``labels`` (keyed by sentence id) in the order
    of ``sentences``, each checked against its sentence's length."""
    out = []
    for s in sentences:
        if s.id not in labels:
            raise AlignmentError(f"no prediction for sentence {s.id}")
        tags = labels[s.id]
        if len(tags) != len(s):
            raise AlignmentError(
                f"sentence {s.id}: prediction length {len(tags)} != {len(s)} tokens"
            )
        out.append(tags)
    return out


def mismatch_rates(index: GroupIndex, losses: np.ndarray) -> GroupErrors:
    """Per-group rate of the per-token ``losses`` over the index rows'
    tokens (:func:`token_losses`): gold against predictions gives the
    validation error, two checkpoints' predictions the prediction
    difference.  Groups with zero mass report rate 0.
    """
    if len(losses) != index.offsets[-1]:
        raise AlignmentError(f"{len(losses)} token losses for {index.offsets[-1]} tokens")
    err = index.token_sums(losses)
    mass = index.mass()
    rate = np.zeros_like(err)
    np.divide(err, mass, out=rate, where=mass != 0)
    return GroupErrors(error=rate, mass=mass)


def group_error(
    partition: Partition,
    predictions: Mapping[int, Sequence[str]],
    gold: Dataset,
    table: EmbeddingTable | None = None,
    class_weights: Mapping[str, float] | None = None,
) -> GroupErrors:
    """Average per-token error per group, weighted by group membership.

    ``predictions`` maps sentence id to a predicted tag sequence covering
    every gold sentence.  With ``class_weights`` the token loss becomes the
    mean of the gold and predicted class weights on mismatches.  Groups with
    zero mass report error 0.
    """
    sentences = gold.sentences
    codes: dict[str, int] = {}
    losses = token_losses(
        tag_codes((s.labels for s in sentences), codes),
        tag_codes(aligned_labels(predictions, sentences), codes),
        codes,
        class_weights,
    )
    return mismatch_rates(build_group_index(partition, sentences, table), losses)


# -- serialization ---------------------------------------------------------

_FORMAT = "groupdecay-partition/1"


def save_partition(partition: Partition) -> str:
    """Serialize to versioned JSON sufficient to recompute membership."""
    def arr(a):
        return None if a is None else np.asarray(a).tolist()

    payload = {
        "format": _FORMAT,
        "kind": partition.kind.value,
        "temperature": partition.temperature,
        "seed": partition.seed,
        "sub_slots": partition.sub_slots,
        "sentence_centers": arr(partition.sentence_centers),
        "word_centers": arr(partition.word_centers),
        "sub_centers": None
        if partition.sub_centers is None
        else [arr(c) for c in partition.sub_centers],
        "identity_vocab": partition.identity_vocab,
        "groups": [
            {
                "id": g.id,
                "descriptor": g.descriptor,
                "exemplars": list(g.exemplar_surfaces),
            }
            for g in partition.groups
        ],
    }
    return json.dumps(payload, sort_keys=True)


def load_partition(text: str) -> Partition:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ParameterError("a partition file must hold a JSON object")
    if payload.get("format") != _FORMAT:
        raise ParameterError(f"unsupported partition format: {payload.get('format')!r}")
    missing = [k for k in ("kind", "temperature", "seed", "groups") if k not in payload]
    if missing:
        raise ParameterError(f"partition file lacks {', '.join(missing)}")

    def arr(v):
        try:
            return None if v is None else np.asarray(v, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"partition centers must be numeric arrays: {exc}") from exc

    subs = payload.get("sub_centers")
    part = Partition(
        PartitionKind(payload["kind"]),
        temperature=payload["temperature"],
        seed=payload["seed"],
        sentence_centers=arr(payload.get("sentence_centers")),
        word_centers=arr(payload.get("word_centers")),
        sub_centers=[arr(c) for c in subs] if isinstance(subs, list) else None,
        identity_vocab=payload.get("identity_vocab"),
        sub_slots=payload.get("sub_slots", 0),
    )
    try:
        part.groups = [
            Group(id=g["id"], descriptor=g["descriptor"], exemplar_surfaces=tuple(g["exemplars"]))
            for g in payload["groups"]
        ]
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed partition group: {exc!r}") from exc
    return part
