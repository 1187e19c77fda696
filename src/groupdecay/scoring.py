"""Phrase-level micro-F1 scoring and decay-curve export tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .corpus import _BIO_RE, Dataset
from .decay import DecayFit, curve_values
from .partition import Partition, aligned_labels

__all__ = [
    "Phrase",
    "ScoreReport",
    "decode_phrases",
    "micro_f1",
    "export_decay_curves",
    "CURVE_EXPORT_COLUMNS",
]


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


def decode_phrases(tags: Sequence[str], sentence_id: int = 0) -> list[Phrase]:
    """Decode a BIO tag sequence into typed phrases.

    An I-X with no open X phrase starts a new phrase (the standard
    conlleval repair); a phrase closes at O, at any B-, at an I- of a
    different type, and at the end of the sequence.
    """
    phrases: list[Phrase] = []
    start: int | None = None
    current: str | None = None

    def close(last_index: int):
        nonlocal start, current
        if current is not None:
            phrases.append(Phrase(sentence_id, start, last_index, current))
        start, current = None, None

    for i, tag in enumerate(tags):
        if not _BIO_RE.match(tag):
            raise ValueError(f"unknown tag {tag!r} at position {i}")
        if tag == "O":
            close(i - 1)
            continue
        prefix, etype = tag.split("-", 1)
        if prefix == "B" or current != etype:
            close(i - 1)
            start, current = i, etype
    close(len(tags) - 1)
    return phrases


def micro_f1(
    gold: Dataset,
    predictions: Mapping[int, Sequence[str]],
    weights: Mapping[str, float] | None = None,
) -> ScoreReport:
    """Phrase-level micro-averaged precision/recall/F1.

    A predicted phrase counts as correct only when sentence, boundaries, and
    type all match a gold phrase.  Optional per-type weights multiply each
    phrase's contribution to the matched/predicted/gold totals.
    """
    n_gold = 0.0
    n_pred = 0.0
    n_match = 0.0
    per_type: dict[str, list[int]] = {}

    for s, pred_tags in zip(gold.sentences, aligned_labels(predictions, gold.sentences)):
        # phrases in decoding order: summing weights in set order would make
        # the weighted totals depend on string hashing
        gold_phrases = decode_phrases([t.gold_label for t in s.tokens], s.id)
        pred_phrases = decode_phrases(list(pred_tags), s.id)
        gold_set = set(gold_phrases)
        matched = [ph for ph in pred_phrases if ph in gold_set]
        for ph in gold_phrases:
            per_type.setdefault(ph.type, [0, 0, 0])[0] += 1
        for ph in pred_phrases:
            per_type.setdefault(ph.type, [0, 0, 0])[1] += 1
        for ph in matched:
            per_type.setdefault(ph.type, [0, 0, 0])[2] += 1

        def wt(ph: Phrase) -> float:
            return 1.0 if weights is None else float(weights[ph.type])

        n_gold += sum(wt(ph) for ph in gold_phrases)
        n_pred += sum(wt(ph) for ph in pred_phrases)
        n_match += sum(wt(ph) for ph in matched)

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
        per_type={t: tuple(v) for t, v in sorted(per_type.items())},
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
