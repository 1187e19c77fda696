"""Phrase-level micro-F1 scoring and decay-curve export tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .corpus import _BIO_RE, Dataset, Sentence
from .decay import DecayFit, curve_values
from .partition import Partition, aligned_labels

__all__ = [
    "Phrase",
    "ScoreReport",
    "GoldPhrases",
    "gold_phrases",
    "decode_phrases",
    "micro_f1",
    "export_decay_curves",
    "CURVE_EXPORT_COLUMNS",
]

_OUTSIDE, _BEGIN, _INSIDE = 0, 1, 2


@dataclass(frozen=True)
class Phrase:
    sentence_id: int
    start: int
    end: int  # inclusive
    type: str


@dataclass
class ScoreReport:
    precision: float
    recall: float
    f1: float
    n_gold: float
    n_predicted: float
    n_matched: float
    per_type: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    weights: dict[str, float] | None = None

    def format(self) -> str:
        lines = [
            f"precision {self.precision:.6f}",
            f"recall {self.recall:.6f}",
            f"f1 {self.f1:.6f}",
            f"gold {self.n_gold!r} predicted {self.n_predicted!r} matched {self.n_matched!r}",
        ]
        for t in sorted(self.per_type):
            g, p, m = self.per_type[t]
            lines.append(f"type {t}: gold {g} predicted {p} matched {m}")
        return "\n".join(lines) + "\n"


def _encode(
    tags: list, type_ids: dict[str, int], offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kind (O, B or I) and type id (-1 for O) of every tag in a flat list.

    Each distinct tag is checked once, in order of first occurrence, so an
    invalid tag is reported at its first position within its sentence
    (``offsets`` are the sentence starts).  Types not in ``type_ids`` are
    added to it with the next free id.
    """
    code_of = dict.fromkeys(tags)
    kinds, types = [], []
    for code, tag in enumerate(code_of):
        if not _BIO_RE.match(tag):
            first = tags.index(tag)
            row = int(np.searchsorted(offsets, first, side="right")) - 1
            raise ValueError(f"unknown tag {tag!r} at position {first - int(offsets[row])}")
        code_of[tag] = code
        if tag == "O":
            kinds.append(_OUTSIDE)
            types.append(-1)
        else:
            prefix, etype = tag.split("-", 1)
            kinds.append(_BEGIN if prefix == "B" else _INSIDE)
            types.append(type_ids.setdefault(etype, len(type_ids)))
    codes = np.fromiter(map(code_of.__getitem__, tags), dtype=np.intp, count=len(tags))
    return np.asarray(kinds, dtype=np.int8)[codes], np.asarray(types, dtype=np.intp)[codes]


def _decode(
    kinds: np.ndarray, types: np.ndarray, sentence_start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat start and inclusive end of every phrase, in decoding order.

    A phrase opens at a non-O token that starts a sentence, is a B- tag, or
    follows a token of another type (O included): an I-X with no open X
    phrase opens one, the conlleval repair.  It ends where the next token
    does not continue it.
    """
    inside = kinds != _OUTSIDE
    same_type = np.zeros(len(types), dtype=bool)
    same_type[1:] = types[1:] == types[:-1]
    opens = inside & (sentence_start | (kinds == _BEGIN) | ~same_type)
    ends = inside.copy()
    ends[:-1] &= ~(inside[1:] & ~opens[1:])
    return np.flatnonzero(opens), np.flatnonzero(ends)


class GoldPhrases:
    """The gold phrases of a labelled dataset, decoded once.

    Tokens are numbered flat across the sentences.  ``start_type[i]`` and
    ``start_end[i]`` are the type id and inclusive end of the gold phrase
    that starts at token ``i`` (-1 where none starts); ``phrase_types`` and
    ``phrase_rows`` are every gold phrase's type id and sentence row, in
    decoding order.  ``type_ids`` numbers the gold types.
    """

    def __init__(self, sentences: Sequence[Sentence]):
        self.sentences = tuple(sentences)
        lengths = np.fromiter(map(len, self.sentences), dtype=np.intp, count=len(self.sentences))
        self.offsets = np.concatenate(([0], np.cumsum(lengths)))[:-1].astype(np.intp)
        tags = [t.gold_label for s in self.sentences for t in s.tokens]
        if None in tags:
            first = tags.index(None)
            row = int(np.searchsorted(self.offsets, first, side="right")) - 1
            raise ValueError(
                f"sentence {self.sentences[row].id}: token {first - int(self.offsets[row])} "
                "has no gold tag"
            )
        self.sentence_start = np.zeros(len(tags), dtype=bool)
        self.sentence_start[self.offsets] = True
        self.type_ids: dict[str, int] = {}
        kinds, types = _encode(tags, self.type_ids, self.offsets)
        starts, ends = _decode(kinds, types, self.sentence_start)
        self.start_type = np.full(len(tags), -1, dtype=np.intp)
        self.start_type[starts] = types[starts]
        self.start_end = np.full(len(tags), -1, dtype=np.intp)
        self.start_end[starts] = ends
        self.phrase_types = types[starts]
        self.phrase_rows = self.rows(starts)

    def rows(self, tokens: np.ndarray) -> np.ndarray:
        """The sentence row of each flat token position."""
        return np.searchsorted(self.offsets, tokens, side="right") - 1


def gold_phrases(dataset: Dataset) -> GoldPhrases:
    """Decode ``dataset``'s gold phrases once, for any number of
    :func:`micro_f1` calls; every token must carry a gold tag."""
    return GoldPhrases(dataset.sentences)


def decode_phrases(tags: Sequence[str], sentence_id: int = 0) -> list[Phrase]:
    """Decode a BIO tag sequence into typed phrases.

    An I-X with no open X phrase starts a new phrase (the standard
    conlleval repair); a phrase closes at O, at any B-, at an I- of a
    different type, and at the end of the sequence.
    """
    tags = list(tags)
    type_ids: dict[str, int] = {}
    kinds, types = _encode(tags, type_ids, np.zeros(1, dtype=np.intp))
    sentence_start = np.zeros(len(tags), dtype=bool)
    sentence_start[:1] = True
    names = list(type_ids)
    starts, ends = _decode(kinds, types, sentence_start)
    return [
        Phrase(sentence_id, s, e, names[t])
        for s, e, t in zip(starts.tolist(), ends.tolist(), types[starts].tolist())
    ]


def _ordered_total(rows: np.ndarray, values: np.ndarray) -> float:
    """Sum of ``values`` added one sentence at a time: each sentence's
    values summed in order, then the sentence sums in order.  Weighted
    totals keep this order, so they do not move in the last bits."""
    total = 0.0
    part = 0
    last = None
    for row, value in zip(rows.tolist(), values.tolist()):
        if row != last:
            total += part
            part, last = 0, row
        part += value
    return total + part


def micro_f1(
    gold: Dataset | GoldPhrases,
    predictions: Mapping[int, Sequence[str]],
    weights: Mapping[str, float] | None = None,
) -> ScoreReport:
    """Phrase-level micro-averaged precision/recall/F1.

    A predicted phrase counts as correct only when sentence, boundaries, and
    type all match a gold phrase.  Optional per-type weights multiply each
    phrase's contribution to the matched/predicted/gold totals.  ``gold``
    may be a :class:`GoldPhrases` table, built once for many calls.
    """
    if not isinstance(gold, GoldPhrases):
        gold = gold_phrases(gold)
    tags = list(chain.from_iterable(aligned_labels(predictions, gold.sentences)))
    type_ids = dict(gold.type_ids)
    kinds, types = _encode(tags, type_ids, gold.offsets)
    starts, ends = _decode(kinds, types, gold.sentence_start)
    pred_types = types[starts]
    hit = (gold.start_type[starts] == pred_types) & (gold.start_end[starts] == ends)
    names = list(type_ids)

    counts = [
        np.bincount(t, minlength=len(names))
        for t in (gold.phrase_types, pred_types, pred_types[hit])
    ]
    per_type = {
        names[t]: (int(counts[0][t]), int(counts[1][t]), int(counts[2][t]))
        for t in sorted(range(len(names)), key=names.__getitem__)
        if counts[0][t] or counts[1][t]
    }
    if weights is None:
        n_gold, n_pred, n_match = (
            float(len(gold.phrase_types)), float(len(starts)), float(hit.sum())
        )
    else:
        w = np.asarray([float(weights[t]) for t in names], dtype=np.float64)
        pred_rows = gold.rows(starts)
        n_gold = _ordered_total(gold.phrase_rows, w[gold.phrase_types])
        n_pred = _ordered_total(pred_rows, w[pred_types])
        n_match = _ordered_total(pred_rows[hit], w[pred_types[hit]])

    precision = n_match / n_pred if n_pred > 0 else 0.0
    recall = n_match / n_gold if n_gold > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ScoreReport(
        precision=precision,
        recall=recall,
        f1=f1,
        n_gold=n_gold,
        n_predicted=n_pred,
        n_matched=n_match,
        per_type=per_type,
        weights=dict(weights) if weights is not None else None,
    )


CURVE_EXPORT_COLUMNS = (
    "partition,group,checkpoint,train_mass,empirical_error,predicted_error,exemplars"
)


def export_decay_curves(
    fits: Sequence[DecayFit],
    partitions: Sequence[Partition] | None = None,
) -> str:
    """Tabular CSV of empirical vs predicted per-group error at every
    recorded checkpoint; the data behind decay-curve plots.

    Columns: partition, group, checkpoint, train_mass, empirical_error,
    predicted_error (clamped to [0, 1]), exemplars (space-joined, quoted).
    """
    rows = [CURVE_EXPORT_COLUMNS]
    for idx, f in enumerate(fits):
        exemplars: dict[int, str] = {}
        if partitions is not None:
            for g in partitions[idx].groups:
                exemplars[g.id] = " ".join(g.exemplar_surfaces)
        for rec in f.history:
            pred = curve_values(f.params, rec.train_mass, clamp=True)
            for j in range(len(rec.train_mass)):
                ex = exemplars.get(j, "").replace('"', "'")
                rows.append(
                    f'p{idx},{j},{rec.checkpoint_index},{float(rec.train_mass[j])!r},'
                    f'{float(rec.val_error[j])!r},{float(pred[j])!r},"{ex}"'
                )
    return "\n".join(rows) + "\n"
