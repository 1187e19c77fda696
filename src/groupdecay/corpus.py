"""Tokenized corpora: CoNLL ingestion, embedding tables, and word features."""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Union

import numpy as np

__all__ = [
    "Token",
    "Sentence",
    "Dataset",
    "EmbeddingTable",
    "ShapeClass",
    "CorpusFormatError",
    "parse_conll",
    "serialize_conll",
    "load_embeddings",
    "sentence_embedding",
    "sentence_embeddings",
    "shape_class",
    "entity_type",
]

_BIO_RE = re.compile(r"^(O|[BI]-.+)$")
_DOCSTART = "-DOCSTART-"


class CorpusFormatError(ValueError):
    """Malformed corpus or embedding text; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


def _is_int(value) -> bool:
    """A config value that is an integer (``True`` is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A config value that is a finite number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def entity_type(tag: str) -> str:
    """Entity type of a BIO tag; the outside tag maps to 'O'."""
    return "O" if tag == "O" else tag.split("-", 1)[1]


@dataclass(frozen=True)
class Token:
    surface: str
    gold_label: str | None = None

    def __post_init__(self):
        if not self.surface:
            raise ValueError("token surface must be non-empty")
        if self.gold_label is not None and not _BIO_RE.match(self.gold_label):
            raise ValueError(f"not a BIO tag: {self.gold_label!r}")


class _TokenTable(dict):
    """One :class:`Token` per (surface, tag) key, made at the key's first
    lookup, so that the BIO rule is checked once per key.  Tokens are frozen:
    each serves every occurrence.  Made per call, never kept."""

    def __missing__(self, key: tuple[str, str | None]) -> Token:
        token = self[key] = Token(*key)
        return token

    def entity_types(self) -> frozenset[str]:
        """The entity types of the tags among the keys."""
        return frozenset(entity_type(tag) for _, tag in self if tag not in (None, "O"))


@dataclass(frozen=True)
class Sentence:
    id: int
    tokens: tuple[Token, ...]
    doc_id: int | None = None

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def surfaces(self) -> tuple[str, ...]:
        return tuple(t.surface for t in self.tokens)

    @property
    def labels(self) -> tuple[str | None, ...]:
        return tuple(t.gold_label for t in self.tokens)


@dataclass(frozen=True)
class Dataset:
    sentences: tuple[Sentence, ...]
    label_inventory: frozenset[str]
    role: str = "pool"
    bio_warnings: int = 0

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)

    @property
    def has_labels(self) -> bool:
        """True when every token carries a gold tag."""
        return all(
            t.gold_label is not None for s in self.sentences for t in s.tokens
        )


def _split_lines(text):
    """The lines of ``text`` (a str or bytes) without their ends, cut where
    iterating a text file cuts them: at CR LF, CR and LF alone, not at the
    other line boundaries of ``str.splitlines``."""
    cr, lf = ("\r", "\n") if isinstance(text, str) else (b"\r", b"\n")
    # no copy of a text without CR: replace then returns the text itself
    lines = text.replace(cr + lf, lf).replace(cr, lf).split(lf)
    if not lines[-1]:  # a final line end opens no line
        lines.pop()
    return lines


def _iter_lines(source: Union[str, IO]) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line without its end) from str, text, or
    byte streams, all cut by one rule (see :func:`_split_lines`): a byte
    stream, which iterates by LF, has each of its lines cut again."""
    if isinstance(source, str):
        source = _split_lines(source)
    number = 0
    for raw in source:
        if not isinstance(raw, bytes):
            number += 1
            yield number, raw.rstrip("\n").rstrip("\r")
            continue
        for piece in _split_lines(raw):
            number += 1
            try:
                line = piece.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"not valid UTF-8: {exc}", number) from exc
            yield number, line


def parse_conll(source: Union[str, IO], role: str = "pool") -> Dataset:
    """Parse whitespace-column CoNLL text into a Dataset.

    The first column is the surface form and the last column the BIO tag;
    single-column lines yield unlabeled tokens (pool files).  Blank lines end
    sentences and ``-DOCSTART-`` lines open a new document.  An I-X tag with
    no preceding B-X/I-X is kept verbatim but counted in ``bio_warnings``.
    """
    sentences: list[Sentence] = []
    tokens: list[Token] = []
    table = _TokenTable()
    warnings = 0
    doc_counter = -1

    def flush():
        if tokens:
            doc = doc_counter if doc_counter >= 0 else None
            sentences.append(Sentence(id=len(sentences), tokens=tuple(tokens), doc_id=doc))
            tokens.clear()

    for number, line in _iter_lines(source):
        cols = line.split()
        if not cols:
            flush()
            continue
        if cols[0].startswith(_DOCSTART):
            flush()
            doc_counter += 1
            continue
        tag = cols[-1] if len(cols) >= 2 else None
        try:
            token = table[cols[0], tag]
        except ValueError as exc:
            raise CorpusFormatError(str(exc), number) from exc
        if tag is not None and tag.startswith("I-"):
            prev = tokens[-1].gold_label if tokens else None
            if prev is None or prev == "O" or entity_type(prev) != entity_type(tag):
                warnings += 1
        tokens.append(token)
    flush()

    return Dataset(
        sentences=tuple(sentences),
        label_inventory=table.entity_types(),
        role=role,
        bio_warnings=warnings,
    )


def serialize_conll(dataset: Dataset, labels: bool = True) -> str:
    """Render a Dataset back to CoNLL text (surface [tag] columns; the
    surface column alone with ``labels=False``).

    Emits a ``-DOCSTART-`` line before each document group so that
    ``parse_conll`` reconstructs identical document ids.
    """
    out: list[str] = []
    current_doc = -1
    for sentence in dataset.sentences:
        if sentence.doc_id is not None:
            while current_doc < sentence.doc_id:
                current_doc += 1
                out.append(_DOCSTART)
                out.append("")
        for token in sentence.tokens:
            if token.gold_label is None or not labels:
                out.append(token.surface)
            else:
                out.append(f"{token.surface} {token.gold_label}")
        out.append("")
    return "\n".join(out)


@dataclass
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]
    oov_vector: np.ndarray
    duplicate_warnings: int = 0

    def get(self, surface: str) -> np.ndarray:
        return self.vectors.get(surface, self.oov_vector)


def load_embeddings(source: Union[str, IO], normalize: bool = True) -> EmbeddingTable:
    """Load a ``surface v1 ... vd`` text table.

    With ``normalize`` every vector is scaled to unit Euclidean norm, which
    makes the squared distance between two entries twice their cosine
    distance.  Zero vectors are replaced by the out-of-vocabulary vector,
    itself the (normalized) mean of all stored vectors.  Duplicate surfaces
    keep the last entry and bump ``duplicate_warnings``.  A kept entry
    whose norm is not a finite number (a NaN or infinite component, or an
    overflow) is a :class:`CorpusFormatError` naming its line.
    """
    raw: dict[str, np.ndarray] = {}
    line_of: dict[str, int] = {}
    dim: int | None = None
    duplicates = 0
    for number, line in _iter_lines(source):
        if not line.strip():
            continue
        cols = line.split()
        if dim is None:
            if len(cols) < 2:
                raise CorpusFormatError("expected 'surface v1 ... vd'", number)
            dim = len(cols) - 1
        elif len(cols) - 1 != dim:
            raise CorpusFormatError(
                f"dimension {len(cols) - 1} != {dim} of first entry", number
            )
        try:
            vec = np.asarray([float(v) for v in cols[1:]], dtype=np.float64)
        except ValueError as exc:
            raise CorpusFormatError(f"non-numeric component: {exc}", number) from exc
        if cols[0] in raw:
            duplicates += 1
        raw[cols[0]] = vec
        line_of[cols[0]] = number
    if dim is None:
        raise CorpusFormatError("empty embedding file", None)

    zero_keys = set()
    # a NaN or infinite component makes the norm NaN or infinite, and so do
    # finite components whose norm overflows
    with np.errstate(over="ignore"):
        for key, vec in raw.items():
            norm = float(np.linalg.norm(vec))
            if not math.isfinite(norm):
                raise CorpusFormatError(
                    "non-finite component, or a norm that overflows", line_of[key]
                )
            if norm == 0.0:
                zero_keys.add(key)
            elif normalize:
                raw[key] = vec / norm

    kept = [v for k, v in raw.items() if k not in zero_keys]
    if kept:
        oov = np.mean(kept, axis=0)
        if normalize:
            norm = float(np.linalg.norm(oov))
            if norm > 0:
                oov = oov / norm
    else:
        oov = np.zeros(dim, dtype=np.float64)
    for key in zero_keys:
        raw[key] = oov.copy()

    return EmbeddingTable(
        dim=dim,
        vectors=raw,
        oov_vector=oov,
        duplicate_warnings=duplicates,
    )


def sentence_embeddings(sentences: Iterable[Sentence], table: EmbeddingTable) -> np.ndarray:
    """Each sentence's :func:`sentence_embedding`, one float64 row per
    sentence in input order; ``(0, dim)`` for no sentences.

    Every row adds its token vectors in token order, as a running sum from
    zero, and only then divides by the length: the rows are sorted by length,
    longest first, so the sentences with a token at position p are a prefix,
    and each position is one gather-add over that prefix.
    (``np.add.reduceat`` adds in another order and gives other bits.)
    """
    sentences = list(sentences)
    lengths = np.asarray([len(s) for s in sentences], dtype=np.intp)
    slot: dict[str, int] = {}
    ids = np.asarray(
        [slot.setdefault(t.surface, len(slot)) for s in sentences for t in s.tokens],
        dtype=np.intp,
    )
    if not slot:
        return np.zeros((0, table.dim), dtype=np.float64)
    vectors = np.stack([table.get(w) for w in slot])
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    # live[p]: how many rows have a token at position p
    live = len(sentences) - np.cumsum(np.bincount(lengths, minlength=lengths.max() + 1))
    acc = np.zeros((len(sentences), table.dim), dtype=np.float64)
    for p, n in enumerate(live[:-1].tolist()):
        acc[:n] += vectors[ids[starts[:n] + p]]
    out = np.empty_like(acc)
    out[order] = acc / lengths[order, None]
    return out


def sentence_embedding(sentence: Sentence, table: EmbeddingTable) -> np.ndarray:
    """Unweighted mean of the token vectors; the mean is not re-normalized.
    The one-row view of :func:`sentence_embeddings`."""
    return sentence_embeddings([sentence], table)[0]


class ShapeClass(enum.IntEnum):
    ALL_UPPER = 0
    ALL_LOWER = 1
    INIT_CAP = 2
    OTHER = 3


def shape_class(token: Union[Token, str]) -> ShapeClass:
    """Classify a surface into one of four case-shape classes."""
    surface = token.surface if isinstance(token, Token) else token
    alpha = [c for c in surface if c.isalpha()]
    if alpha and all(c.isupper() for c in alpha):
        return ShapeClass.ALL_UPPER
    if alpha and all(c.islower() for c in alpha):
        return ShapeClass.ALL_LOWER
    first = surface[0] if surface else ""
    if first.isalpha() and first.isupper() and all(c.islower() for c in alpha[1:]):
        return ShapeClass.INIT_CAP
    return ShapeClass.OTHER
