"""Active-learning driver: burn-in, retraining checkpoints, batch selection.

The loop grows a training set out of an unlabeled pool.  During burn-in it
samples randomly while recording (group mass, validation error) checkpoints
fine-grained enough to fit decay curves; afterwards the configured strategy
picks each batch, the predictor is retrained, and a new checkpoint is
recorded.  All randomness is drawn from per-phase seeded streams so a run
is reproducible and can be resumed from its recorded history.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from .corpus import Dataset, EmbeddingTable, sentence_embedding
from .decay import DecayFit, FitConfig, _is_int, fit
# group_error, group_mass and sentence_group_delta stay bound for bench/tracing.py
from .partition import (  # noqa: F401
    GroupErrorRecord, Partition, aligned_labels, build_group_index,
    group_error, group_mass, mismatch_rates, sentence_group_delta,
)
# micro_f1 is called through this module's global for bench/tracing.py
from .scoring import gold_phrases, micro_f1
from .selection import (
    Batch, SelectionState, default_epsilon, document_ids, select_batch, take_units,
)
from .strategies import (
    AlternationChoice,
    CapabilityError,
    PredictionRecord,
    UncertaintySnapshot,
    alternation_policy,
    fass_select,
    prediction_difference_records,
    score_bald,
    score_uncertainty_decay,
    score_us,
)

__all__ = [
    "LoopConfig",
    "CheckpointRecord",
    "RunHistory",
    "Predictor",
    "Strategy",
    "STRATEGY_NAMES",
    "make_strategy",
    "burn_in_checkpoints",
    "run_active_loop",
]

log = logging.getLogger(__name__)


class Predictor(Protocol):
    def predict(
        self,
        dataset,
        want_logprobs: bool = False,
        ensemble_k: int | None = None,
    ) -> dict[int, PredictionRecord]: ...


Trainer = Callable[[Dataset], Predictor]


@dataclass
class LoopConfig:
    burn_in_batches: int = 3
    total_batches: int = 10
    history_batch_tokens: int = 500
    selection_batch_tokens: int = 1000
    history_start_tokens: int | None = None
    min_history_points: int = 5
    uncertainty_lag_tokens: int | None = None
    epsilon: float | None = None
    mode: str = "SENTENCE"
    seed: int = 0
    class_weights: dict[str, float] | None = None
    ensemble_k: int = 10
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        for name, low, optional in (
            ("burn_in_batches", 1, False),
            ("history_batch_tokens", 1, False),
            ("selection_batch_tokens", 1, False),
            ("history_start_tokens", 1, True),
            ("min_history_points", 1, False),
            ("uncertainty_lag_tokens", 0, True),
            ("seed", 0, False),
        ):
            value = getattr(self, name)
            if optional and value is None:
                continue
            if not _is_int(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not _is_int(self.total_batches) or self.total_batches < self.burn_in_batches:
            raise ValueError(
                f"total_batches must be an integer >= burn_in_batches, got {self.total_batches!r}"
            )
        if self.history_batch_tokens > self.selection_batch_tokens:
            raise ValueError("history batches must not exceed selection batches")
        if not _is_int(self.ensemble_k) or self.ensemble_k < 2:
            raise ValueError(f"ensemble_k must be an integer >= 2, got {self.ensemble_k!r}")
        if self.mode not in ("SENTENCE", "DOCUMENT"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def lag_tokens(self) -> int:
        if self.uncertainty_lag_tokens is not None:
            return self.uncertainty_lag_tokens
        return 2 * self.selection_batch_tokens


def burn_in_checkpoints(config: LoopConfig) -> list[int]:
    """Token counts at which the burn-in phase retrains and records.

    The grid starts at one selection batch's worth of tokens and steps by
    the history batch size up to the burn-in total; if that yields fewer
    than the minimum number of points, an evenly spaced grid is used so a
    first fit is always possible.
    """
    end = config.burn_in_batches * config.selection_batch_tokens
    start = config.history_start_tokens or config.selection_batch_tokens
    start = min(start, end)
    grid = list(range(start, end + 1, config.history_batch_tokens))
    if not grid or grid[-1] != end:
        grid.append(end)
    if len(grid) < config.min_history_points:
        pts = {
            max(1, round(end * (i + 1) / config.min_history_points))
            for i in range(config.min_history_points)
        }
        pts.add(end)
        grid = sorted(pts)
    return grid


@dataclass
class CheckpointRecord:
    index: int
    phase: str  # "burnin" | "select"
    batch_index: int | None
    train_tokens: int
    selected_ids: tuple[int, ...]
    group_records: list[GroupErrorRecord] | None  # one per partition
    val_f1: float | None = None
    test_f1: float | None = None
    pseudo_f1: float | None = None
    weighted_val_f1: float | None = None
    batch_exhausted: bool = False

    def to_json(self) -> str:
        payload = {
            "index": self.index,
            "phase": self.phase,
            "batch_index": self.batch_index,
            "train_tokens": self.train_tokens,
            "selected_ids": list(self.selected_ids),
            "val_f1": self.val_f1,
            "test_f1": self.test_f1,
            "pseudo_f1": self.pseudo_f1,
            "weighted_val_f1": self.weighted_val_f1,
            "batch_exhausted": self.batch_exhausted,
            "partitions": None
            if self.group_records is None
            else [
                {
                    "train_mass": rec.train_mass.tolist(),
                    "val_error": rec.val_error.tolist(),
                    "val_mass": rec.val_mass.tolist(),
                }
                for rec in self.group_records
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "CheckpointRecord":
        p = json.loads(line)
        records = None
        if p.get("partitions") is not None:
            records = [
                GroupErrorRecord(
                    checkpoint_index=p["index"],
                    train_mass=np.asarray(r["train_mass"], dtype=np.float64),
                    val_error=np.asarray(r["val_error"], dtype=np.float64),
                    val_mass=np.asarray(r["val_mass"], dtype=np.float64),
                )
                for r in p["partitions"]
            ]
        return cls(
            index=p["index"],
            phase=p["phase"],
            batch_index=p["batch_index"],
            train_tokens=p["train_tokens"],
            selected_ids=tuple(p["selected_ids"]),
            group_records=records,
            val_f1=p.get("val_f1"),
            test_f1=p.get("test_f1"),
            pseudo_f1=p.get("pseudo_f1"),
            weighted_val_f1=p.get("weighted_val_f1"),
            batch_exhausted=p.get("batch_exhausted", False),
        )


@dataclass
class RunHistory:
    checkpoints: list[CheckpointRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "".join(rec.to_json() + "\n" for rec in self.checkpoints)

    @classmethod
    def from_jsonl(cls, text: str) -> "RunHistory":
        return cls(
            checkpoints=[
                CheckpointRecord.from_json(line)
                for line in text.splitlines()
                if line.strip()
            ]
        )

    def group_record_history(self, n_partitions: int) -> list[list[GroupErrorRecord]]:
        """Per-partition record lists across checkpoints (fit input)."""
        out: list[list[GroupErrorRecord]] = [[] for _ in range(n_partitions)]
        for c in self.checkpoints:
            if c.group_records is None:
                continue
            for p, rec in enumerate(c.group_records):
                out[p].append(rec)
        return out


# -- strategies --------------------------------------------------------------


@dataclass(frozen=True)
class Strategy:
    """One sampling strategy, built from three independent choices.

    ``score`` is the uncertainty the loop records on the remaining pool:
    least confidence (``"us"``), ensemble disagreement (``"bald"``) or none.
    With ``decay``, odd selection batches rank by that score's predicted
    drop instead (ext2).  ``select`` builds the batch: the top-scoring
    units (``"take"``, a seeded random score without ``score``), FASS
    facility-location coverage (``"fass"``), or greedy error-decay
    selection over curves fitted on validation errors (``"edg"``) or on
    prediction differences (``"edg_ext1"``).
    """

    name: str
    score: str | None
    decay: bool
    select: str

    @property
    def needs_logprobs(self) -> bool:
        return self.score == "us"

    @property
    def needs_ensemble(self) -> bool:
        return self.score == "bald"

    @property
    def needs_val_labels(self) -> bool:
        return self.select == "edg"

    @property
    def needs_embeddings(self) -> bool:
        return self.select == "fass"


_STRATEGIES = {
    s.name: s
    for s in (
        Strategy("rnd", None, False, "take"),
        Strategy("div", None, False, "fass"),
        Strategy("us", "us", False, "take"),
        Strategy("us_div", "us", False, "fass"),
        Strategy("bald", "bald", False, "take"),
        Strategy("edg", None, False, "edg"),
        Strategy("edg_ext1", None, False, "edg_ext1"),
        Strategy("us_edg_ext2", "us", True, "take"),
        Strategy("us_div_edg_ext2", "us", True, "fass"),
        Strategy("bald_edg_ext2", "bald", True, "take"),
    )
}
STRATEGY_NAMES = tuple(_STRATEGIES)


def make_strategy(name: str) -> Strategy:
    if name not in _STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")
    return _STRATEGIES[name]


# -- the loop ----------------------------------------------------------------


def _labels_map(records: Mapping[int, PredictionRecord]) -> dict[int, tuple[str, ...]]:
    return {sid: rec.labels for sid, rec in records.items()}


def run_active_loop(
    config: LoopConfig,
    partitions: Sequence[Partition],
    trainer: Trainer,
    pool: Dataset,
    validation: Dataset,
    strategy: Strategy | str | None = None,
    table: EmbeddingTable | None = None,
    test: Dataset | None = None,
    pseudo_test: Dataset | None = None,
    observer: Callable[[str, dict], None] | None = None,
    resume_history: RunHistory | None = None,
    resume_snapshots: Sequence[UncertaintySnapshot] | None = None,
    resume_reference: Sequence[dict[int, tuple[str, ...]]] | None = None,
) -> RunHistory:
    """Run the burn-in + selection loop and return the checkpoint history.

    ``trainer`` retrains the black-box predictor on the accumulated training
    data and returns an object that yields prediction records for any
    dataset.  With ``resume_history`` the recorded checkpoints are replayed
    without retraining and the run continues from the first missing step.
    A pool with fewer tokens than burn-in takes raises ``ValueError``
    before anything is trained.
    """
    if strategy is None:
        strategy = _STRATEGIES["edg"]
    elif isinstance(strategy, str):
        strategy = make_strategy(strategy)

    have_val_labels = validation.has_labels
    if strategy.needs_val_labels and not have_val_labels:
        raise CapabilityError(
            f"strategy {strategy.name!r} requires validation labels"
        )
    if strategy.needs_embeddings and table is None:
        raise CapabilityError(f"strategy {strategy.name!r} requires an embedding table")

    partitions = list(partitions)
    # per-run pool arrays, one row per pool sentence in dataset order
    pool_ids = np.asarray([s.id for s in pool.sentences], dtype=np.int64)
    pool_lengths = np.asarray([len(s) for s in pool.sentences], dtype=np.float64)
    pool_docs = document_ids(pool.sentences) if config.mode == "DOCUMENT" else None
    by_id = np.argsort(pool_ids, kind="stable")  # the rows in ascending id order
    sorted_ids = pool_ids[by_id]
    if (sorted_ids[1:] == sorted_ids[:-1]).any():
        raise ValueError("pool sentence ids must be unique")
    grid = burn_in_checkpoints(config)
    if grid[-1] > pool_lengths.sum():
        raise ValueError(f"burn-in takes {grid[-1]} tokens; the pool has {int(pool_lengths.sum())}")
    taken = np.zeros(len(pool_ids), dtype=bool)  # rows in the training set
    train_tokens = 0
    train_mass = [np.zeros(p.n_groups) for p in partitions]
    da_sentences = list(pool.sentences) + list(validation.sentences)
    # rows: the pool's sentences, then the validation set's
    index = [build_group_index(p, da_sentences, table) for p in partitions]
    da_mass = [ix.mass() for ix in index]
    pool_embeddings = None
    if strategy.needs_embeddings:  # in float32, the precision fass_select computes in
        pool_embeddings = np.empty((len(pool.sentences), table.dim), dtype=np.float32)
        for row, s in enumerate(pool.sentences):
            pool_embeddings[row] = sentence_embedding(s, table)
    val_index = [ix.take(slice(len(pool.sentences), None)) for ix in index]
    epsilon = (
        config.epsilon
        if config.epsilon is not None
        else default_epsilon(sum(len(s) for s in da_sentences))
    )

    n_select = config.total_batches - config.burn_in_batches
    plan: list[tuple[str, int]] = [("burnin", t) for t in grid] + [
        ("select", i + 1) for i in range(n_select)
    ]

    history = RunHistory()
    mass_history: list[list[np.ndarray]] = []
    snapshots: list[UncertaintySnapshot] = list(resume_snapshots or [])
    reference_history: list[dict[int, tuple[str, ...]]] = list(resume_reference or [])

    # Burn-in takes units (sentences, or documents in DOCUMENT mode) in a seeded
    # permutation of the units by ascending id; a unit scores minus its place.
    units, unit_of_row = np.unique(
        pool_ids if pool_docs is None else pool_docs, return_inverse=True
    )
    order = np.random.default_rng([config.seed, 11]).permutation(len(units))
    burn_score = -np.argsort(order)[unit_of_row]

    inventory = pool.label_inventory | validation.label_inventory

    def remaining_rows() -> np.ndarray:
        return by_id[~taken[by_id]]

    def burn_in_batch(target: int) -> Batch:
        rows = remaining_rows()
        return take_units(
            pool_ids[rows],
            pool_lengths[rows],
            target - train_tokens,
            burn_score[rows].__getitem__,
            None if pool_docs is None else pool_docs[rows],
        )

    def add_to_train(sentence_ids: Sequence[int]) -> None:
        nonlocal train_tokens
        ids = np.asarray(sentence_ids, dtype=np.int64)
        rows = by_id[np.searchsorted(sorted_ids, ids).clip(max=len(sorted_ids) - 1)]
        if (
            (pool_ids[rows] != ids).any()
            or taken[rows].any()
            or len(np.unique(rows)) < len(rows)
        ):
            raise ValueError("selected ids must be distinct sentences of the remaining pool")
        taken[rows] = True
        train_tokens += int(pool_lengths[rows].sum())
        for row in rows:  # in pick order, so the float sums keep their order
            for ix, masses in zip(index, train_mass):
                gids, vals = ix.delta(row)
                masses[gids] += vals

    # -- replay of completed checkpoints ------------------------------------
    done = 0
    if resume_history is not None:
        for rec in resume_history.checkpoints:
            if done >= len(plan):
                raise ValueError("resume history longer than the configured plan")
            phase, arg = plan[done]
            if rec.phase != phase:
                raise ValueError("resume history inconsistent with configuration")
            if phase == "burnin" and burn_in_batch(arg).sentence_ids != tuple(rec.selected_ids):
                raise ValueError("resume history inconsistent with seed")
            add_to_train(rec.selected_ids)
            mass_history.append([m.copy() for m in train_mass])
            history.checkpoints.append(rec)
            done += 1

    val_sentences = list(validation.sentences)
    val_gold = [s.labels for s in val_sentences]
    # gold phrases decoded once per run; an unlabelled dataset gets no F1
    val_phrases = gold_phrases(validation) if have_val_labels else None
    test_phrases, pseudo_phrases = (
        gold_phrases(d) if d is not None and d.has_labels else None for d in (test, pseudo_test)
    )

    def checkpoint(step_idx: int, phase: str, batch_index: int | None,
                   selected: tuple[int, ...], exhausted: bool,
                   next_is_selection: bool) -> None:
        train_ds = Dataset(
            sentences=tuple(pool.sentences[r] for r in by_id[taken[by_id]]),
            label_inventory=inventory,
            role="train",
        )
        predictor = trainer(train_ds)
        val_records = predictor.predict(val_sentences)
        val_labels = _labels_map(val_records)

        val_f1 = test_f1 = pseudo_f1 = weighted = None
        recs = None
        if have_val_labels:
            val_f1 = micro_f1(val_phrases, val_labels).f1
            if config.class_weights:
                weighted = micro_f1(val_phrases, val_labels, config.class_weights).f1
            val_tags = aligned_labels(val_labels, val_sentences)
            recs = []
            for pi, ix in enumerate(val_index):
                ge = mismatch_rates(ix, val_gold, val_tags, config.class_weights)
                recs.append(
                    GroupErrorRecord(
                        checkpoint_index=step_idx,
                        train_mass=train_mass[pi].copy(),
                        val_error=ge.error,
                        val_mass=ge.mass,
                    )
                )
        if test_phrases is not None:
            test_f1 = micro_f1(test_phrases, _labels_map(predictor.predict(test.sentences))).f1
        if pseudo_phrases is not None:
            pseudo_f1 = micro_f1(
                pseudo_phrases, _labels_map(predictor.predict(pseudo_test.sentences))
            ).f1

        snapshot = None
        if strategy.score is not None and (strategy.decay or next_is_selection):
            pool_sents = [pool.sentences[r] for r in remaining_rows()]
            if pool_sents:
                pool_records = predictor.predict(
                    pool_sents,
                    want_logprobs=strategy.needs_logprobs,
                    ensemble_k=config.ensemble_k if strategy.needs_ensemble else None,
                )
                score = score_us if strategy.score == "us" else score_bald
                snapshot = UncertaintySnapshot(
                    checkpoint_tokens=train_tokens,
                    scores={sid: score(rec) for sid, rec in pool_records.items()},
                )
                snapshots.append(snapshot)

        reference_labels = None
        if strategy.select == "edg_ext1":
            reference_labels = val_labels
            reference_history.append(reference_labels)

        mass_history.append([m.copy() for m in train_mass])

        record = CheckpointRecord(
            index=step_idx,
            phase=phase,
            batch_index=batch_index,
            train_tokens=train_tokens,
            selected_ids=selected,
            group_records=recs,
            val_f1=val_f1,
            test_f1=test_f1,
            pseudo_f1=pseudo_f1,
            weighted_val_f1=weighted,
            batch_exhausted=exhausted,
        )
        history.checkpoints.append(record)
        if observer is not None:
            observer(
                "checkpoint",
                {
                    "record": record,
                    "snapshot": snapshot,
                    "reference_labels": reference_labels,
                },
            )

    def uncertainty(batch_index: int, rows: np.ndarray) -> np.ndarray:
        """The last snapshot's scores of ``rows``; on the odd batches of a
        decay strategy, the predicted drop since the lagged snapshot."""
        current = snapshots[-1]
        scores = current.scores
        if strategy.decay and alternation_policy(batch_index) is AlternationChoice.DECAY_SCORE:
            cutoff = current.checkpoint_tokens - config.lag_tokens
            lagged = next(
                (snap for snap in reversed(snapshots[:-1]) if snap.checkpoint_tokens <= cutoff),
                None,
            )
            if lagged is None:
                log.warning("no lagged uncertainty snapshot yet; using raw uncertainty")
            else:
                scores = score_uncertainty_decay(current, lagged)
        return np.asarray([scores[sid] for sid in pool_ids[rows].tolist()], dtype=np.float64)

    def select(batch_index: int, rows: np.ndarray) -> tuple[Batch, list[DecayFit] | None]:
        """The batch taken from the remaining ``rows`` (ascending id), and the
        decay fits it was chosen by, if any."""
        budget = config.selection_batch_tokens
        if strategy.select in ("edg", "edg_ext1"):
            if strategy.select == "edg":
                records = history.group_record_history(len(partitions))
            else:
                records = [
                    prediction_difference_records(
                        validation, reference_history, [m[p] for m in mass_history], ix
                    )
                    for p, ix in enumerate(val_index)
                ]
            fits = [fit(r, config=config.fit) for r in records]
            state = SelectionState(
                partitions=partitions,
                fits=fits,
                train_mass=[m.copy() for m in train_mass],
                da_mass=da_mass,
                token_budget=budget,
                epsilon=epsilon,
            )
            pool_sents = [pool.sentences[r] for r in rows]
            batch = select_batch(state, pool_sents, config.mode, [ix.take(rows) for ix in index])
            return batch, fits
        ids, lengths = pool_ids[rows], pool_lengths[rows]
        docs = None if pool_docs is None else pool_docs[rows]
        rng = np.random.default_rng([config.seed, 13, batch_index])
        scores = None if strategy.score is None else uncertainty(batch_index, rows)
        if strategy.select == "fass":
            embeddings = pool_embeddings[rows]
            return fass_select(scores, ids, embeddings, lengths, budget, rng=rng, doc_ids=docs), None
        if scores is None:
            scores = rng.random(len(rows))
        return take_units(ids, lengths, budget, scores.__getitem__, docs), None

    for step_idx in range(done, len(plan)):
        phase, arg = plan[step_idx]
        if phase == "burnin":
            batch = burn_in_batch(arg)
            add_to_train(batch.sentence_ids)
            next_is_selection = (
                step_idx + 1 < len(plan) and plan[step_idx + 1][0] == "select"
            )
            checkpoint(step_idx, "burnin", None, batch.sentence_ids, False, next_is_selection)
        else:
            batch_index = arg
            rows = remaining_rows()
            if not len(rows):
                log.warning("pool exhausted; stopping before batch %d", batch_index)
                break
            batch, fits = select(batch_index, rows)
            add_to_train(batch.sentence_ids)
            if observer is not None and fits is not None:
                observer("fits", {"batch_index": batch_index, "fits": fits})
            if observer is not None:
                observer("batch", {"batch_index": batch_index, "batch": batch})
            checkpoint(
                step_idx,
                "select",
                batch_index,
                batch.sentence_ids,
                batch.exhausted,
                next_is_selection=step_idx + 1 < len(plan),
            )
    return history
