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

from .corpus import Dataset, EmbeddingTable, Sentence, sentence_embedding
from .decay import DecayFit, FitConfig, _is_int, fit
# group_error, group_mass and sentence_group_delta stay bound for bench/tracing.py
from .partition import (  # noqa: F401
    GroupErrorRecord, GroupIndex, Partition, aligned_labels, build_group_index,
    group_error, group_mass, mismatch_rates, sentence_group_delta,
)
from .scoring import micro_f1
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
        if self.burn_in_batches < 1:
            raise ValueError("burn_in_batches must be >= 1")
        if self.total_batches < self.burn_in_batches:
            raise ValueError("total_batches must be >= burn_in_batches")
        if not _is_int(self.history_batch_tokens) or self.history_batch_tokens < 1:
            raise ValueError(
                f"history_batch_tokens must be an integer >= 1, got {self.history_batch_tokens!r}"
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


@dataclass
class StrategyContext:
    config: LoopConfig
    batch_index: int
    rng: np.random.Generator
    pool: list[Sentence]           # the remaining pool, ascending id
    ids: np.ndarray                # its rows of the run's pool arrays, also these three:
    lengths: np.ndarray
    doc_ids: np.ndarray | None     # DOCUMENT mode only
    embeddings: np.ndarray | None  # strategies that need embeddings only
    token_budget: int
    partitions: list[Partition]
    pool_index: list[GroupIndex]  # per partition, rows in the order of ``pool``
    val_index: list[GroupIndex]   # per partition, rows in the order of ``reference``
    group_records: list[list[GroupErrorRecord]]
    mass_history: list[list[np.ndarray]]
    train_mass: list[np.ndarray]
    da_mass: list[np.ndarray]
    epsilon: float
    snapshots: list[UncertaintySnapshot]
    reference: Dataset | None
    reference_history: list[dict[int, tuple[str, ...]]]
    fits_out: dict


class Strategy:
    name: str = ""
    needs_logprobs = False
    needs_ensemble = False
    needs_val_labels = False
    needs_snapshots = False           # pool uncertainty at selection checkpoints
    needs_snapshot_history = False    # pool uncertainty at every checkpoint (decay lag)
    needs_reference_predictions = False
    needs_embeddings = False          # an embedding table for sentence vectors

    def base_score(self, record: PredictionRecord) -> float:
        raise NotImplementedError

    def scores_for_batch(self, ctx: StrategyContext) -> np.ndarray:
        """One score per remaining pool row."""
        raise NotImplementedError

    def select(self, ctx: StrategyContext) -> Batch:
        scores = self.scores_for_batch(ctx)
        return take_units(ctx.ids, ctx.lengths, ctx.token_budget, scores.__getitem__, ctx.doc_ids)


class RandomStrategy(Strategy):
    name = "rnd"

    def scores_for_batch(self, ctx: StrategyContext) -> np.ndarray:
        return ctx.rng.random(len(ctx.ids))


class UncertaintyStrategy(Strategy):
    """Argmax selection on an uncertainty score, optionally replaced by the
    uncertainty-decay score on alternating batches."""

    def __init__(self, base: str, use_decay: bool):
        self.base = base
        self.use_decay = use_decay
        self.name = {"us": "us", "bald": "bald"}[base] + ("_edg_ext2" if use_decay else "")
        self.needs_logprobs = base == "us"
        self.needs_ensemble = base == "bald"
        self.needs_snapshots = True
        self.needs_snapshot_history = use_decay

    def base_score(self, record: PredictionRecord) -> float:
        return score_us(record) if self.base == "us" else score_bald(record)

    def scores_for_batch(self, ctx: StrategyContext) -> np.ndarray:
        current = ctx.snapshots[-1]
        scores = current.scores
        if self.use_decay and alternation_policy(ctx.batch_index) is AlternationChoice.DECAY_SCORE:
            lagged = None
            for snap in ctx.snapshots[:-1]:
                if snap.checkpoint_tokens <= current.checkpoint_tokens - ctx.config.lag_tokens:
                    lagged = snap
            if lagged is None:
                log.warning("no lagged uncertainty snapshot yet; using raw uncertainty")
            else:
                scores = score_uncertainty_decay(current, lagged)
        return np.asarray([scores[sid] for sid in ctx.ids.tolist()], dtype=np.float64)


class FassStrategy(UncertaintyStrategy):
    """Uncertainty filter (or seeded random filter for pure diversification)
    followed by greedy facility-location coverage."""

    needs_embeddings = True

    def __init__(self, base: str | None, use_decay: bool = False):
        if base is None:
            self.base = None
            self.use_decay = False
            self.name = "div"
            self.needs_snapshots = False
        else:
            super().__init__(base, use_decay)
            self.name = {"us": "us_div", "bald": "bald_div"}[base] + (
                "_edg_ext2" if use_decay else ""
            )

    def select(self, ctx: StrategyContext) -> Batch:
        return fass_select(
            None if self.base is None else self.scores_for_batch(ctx),
            ctx.ids,
            ctx.embeddings,
            ctx.lengths,
            ctx.token_budget,
            rng=ctx.rng,
            doc_ids=ctx.doc_ids,
        )


class DecayCurveStrategy(Strategy):
    """Fit decay curves on validation group errors, then greedily maximize
    the predicted error reduction."""

    name = "edg"
    needs_val_labels = True

    def _fits(self, ctx: StrategyContext) -> list[DecayFit]:
        return [fit(records, config=ctx.config.fit) for records in ctx.group_records]

    def select(self, ctx: StrategyContext) -> Batch:
        fits = self._fits(ctx)
        ctx.fits_out["fits"] = fits
        state = SelectionState(
            partitions=ctx.partitions,
            fits=fits,
            train_mass=[m.copy() for m in ctx.train_mass],
            da_mass=ctx.da_mass,
            token_budget=ctx.token_budget,
            epsilon=ctx.epsilon,
        )
        return select_batch(state, ctx.pool, ctx.config.mode, ctx.pool_index)


class PredictionDifferenceStrategy(DecayCurveStrategy):
    """Decay-curve selection without validation labels: the error signal is
    each past checkpoint's disagreement with the current predictions."""

    name = "edg_ext1"
    needs_val_labels = False
    needs_reference_predictions = True

    def _fits(self, ctx: StrategyContext) -> list[DecayFit]:
        fits = []
        for p, index in enumerate(ctx.val_index):
            records = prediction_difference_records(
                ctx.reference,
                ctx.reference_history,
                [masses[p] for masses in ctx.mass_history],
                index,
            )
            fits.append(fit(records, config=ctx.config.fit))
        return fits


STRATEGY_NAMES = (
    "rnd",
    "div",
    "us",
    "us_div",
    "bald",
    "edg",
    "edg_ext1",
    "us_edg_ext2",
    "us_div_edg_ext2",
    "bald_edg_ext2",
)


def make_strategy(name: str) -> Strategy:
    table: dict[str, Callable[[], Strategy]] = {
        "rnd": RandomStrategy,
        "div": lambda: FassStrategy(None),
        "us": lambda: UncertaintyStrategy("us", use_decay=False),
        "us_div": lambda: FassStrategy("us"),
        "bald": lambda: UncertaintyStrategy("bald", use_decay=False),
        "edg": DecayCurveStrategy,
        "edg_ext1": PredictionDifferenceStrategy,
        "us_edg_ext2": lambda: UncertaintyStrategy("us", use_decay=True),
        "us_div_edg_ext2": lambda: FassStrategy("us", use_decay=True),
        "bald_edg_ext2": lambda: UncertaintyStrategy("bald", use_decay=True),
    }
    if name not in table:
        raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")
    return table[name]()


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
        strategy = DecayCurveStrategy()
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
            val_f1 = micro_f1(validation, val_labels).f1
            if config.class_weights:
                weighted = micro_f1(validation, val_labels, config.class_weights).f1
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
        if test is not None and test.has_labels:
            test_f1 = micro_f1(test, _labels_map(predictor.predict(test.sentences))).f1
        if pseudo_test is not None and pseudo_test.has_labels:
            pseudo_f1 = micro_f1(
                pseudo_test, _labels_map(predictor.predict(pseudo_test.sentences))
            ).f1

        snapshot = None
        if strategy.needs_snapshots and (
            strategy.needs_snapshot_history or next_is_selection
        ):
            pool_sents = [pool.sentences[r] for r in remaining_rows()]
            if pool_sents:
                pool_records = predictor.predict(
                    pool_sents,
                    want_logprobs=strategy.needs_logprobs,
                    ensemble_k=config.ensemble_k if strategy.needs_ensemble else None,
                )
                snapshot = UncertaintySnapshot(
                    checkpoint_tokens=train_tokens,
                    scores={
                        sid: strategy.base_score(rec)
                        for sid, rec in pool_records.items()
                    },
                )
                snapshots.append(snapshot)

        reference_labels = None
        if strategy.needs_reference_predictions:
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
            pool_rows = remaining_rows()
            if not len(pool_rows):
                log.warning("pool exhausted; stopping before batch %d", batch_index)
                break
            ctx = StrategyContext(
                config=config,
                batch_index=batch_index,
                rng=np.random.default_rng([config.seed, 13, batch_index]),
                pool=[pool.sentences[r] for r in pool_rows],
                ids=pool_ids[pool_rows],
                lengths=pool_lengths[pool_rows],
                doc_ids=None if pool_docs is None else pool_docs[pool_rows],
                embeddings=None if pool_embeddings is None else pool_embeddings[pool_rows],
                token_budget=config.selection_batch_tokens,
                partitions=partitions,
                pool_index=[ix.take(pool_rows) for ix in index],
                val_index=val_index,
                group_records=history.group_record_history(len(partitions)),
                mass_history=mass_history,
                train_mass=train_mass,
                da_mass=da_mass,
                epsilon=epsilon,
                snapshots=snapshots,
                reference=validation,
                reference_history=reference_history,
                fits_out={},
            )
            batch = strategy.select(ctx)
            add_to_train(batch.sentence_ids)
            if observer is not None and ctx.fits_out:
                observer("fits", {"batch_index": batch_index, **ctx.fits_out})
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
