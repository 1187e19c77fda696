import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdecay.corpus import Dataset, Sentence, Token, load_embeddings
from groupdecay.partition import (
    AlignmentError,
    PartitionConfig,
    PartitionKind,
    aligned_labels,
    build_group_index,
    build_identity_partition,
    build_partition,
    mismatch_rates,
    tag_codes,
    token_losses,
)
from groupdecay.strategies import (
    AlternationChoice,
    CapabilityError,
    PredictionBatch,
    PredictionRecord,
    UncertaintySnapshot,
    alternation_policy,
    fass_select,
    prediction_difference_records,
    read_records,
    score_bald,
    score_uncertainty_decay,
    score_us,
    write_records,
)
from groupdecay.strategies import _BLOCK_ROWS, _similarity, _uncovered
from oracles import (
    copying_write_records,
    dict_fass_select,
    heap_fass_select,
    per_sentence_rates,
    record_score_bald,
    record_score_us,
    string_prediction_difference_records,
    token_group_ids,
)


def _lp(probs: dict[str, float]) -> dict[str, float]:
    return {t: math.log(p) for t, p in probs.items()}


def _one(score, record: PredictionRecord) -> float:
    """``score`` of a batch that holds ``record`` alone."""
    [value] = score(PredictionBatch.from_records({record.sentence_id: record})).tolist()
    return value


class TestScoreUs:
    def test_fully_confident_is_zero(self):
        rec = PredictionRecord(0, ("O", "O"), logprobs=(_lp({"O": 1.0}), _lp({"O": 1.0})))
        assert _one(score_us, rec) == pytest.approx(0.0)

    def test_half_probability_tokens(self):
        lp = _lp({"O": 0.5, "B-PER": 0.5})
        rec = PredictionRecord(0, ("B-PER", "B-PER"), logprobs=(lp, lp))
        assert _one(score_us, rec) == pytest.approx(math.log(2))

    def test_duplication_invariance(self):
        lp1 = _lp({"O": 0.7, "B-PER": 0.3})
        lp2 = _lp({"O": 0.4, "B-PER": 0.6})
        rec = PredictionRecord(0, ("O", "B-PER"), logprobs=(lp1, lp2))
        rec2 = PredictionRecord(
            0, ("O", "B-PER", "O", "B-PER"), logprobs=(lp1, lp2, lp1, lp2)
        )
        assert _one(score_us, rec) == pytest.approx(_one(score_us, rec2))

    def test_missing_logprobs_raises(self):
        with pytest.raises(CapabilityError, match="no probabilities"):
            _one(score_us, PredictionRecord(0, ("O",)))


class TestScoreBald:
    def test_full_agreement_zero(self):
        rec = PredictionRecord(0, ("O", "O"), ensemble=(("O", "O"),) * 5)
        assert _one(score_bald, rec) == 0.0

    def test_six_four_split(self):
        passes = tuple(("O",) for _ in range(6)) + tuple(("B-PER",) for _ in range(4))
        rec = PredictionRecord(0, ("O",), ensemble=passes)
        assert _one(score_bald, rec) == pytest.approx(0.4)

    def test_k2_total_disagreement_uses_smallest_mode(self):
        rec = PredictionRecord(
            0, ("O", "O"), ensemble=(("O", "B-PER"), ("B-PER", "O"))
        )
        assert _one(score_bald, rec) == pytest.approx(0.5)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        tags = ["O", "B-PER", "I-PER"]
        for _ in range(100):
            K = int(rng.integers(2, 8))
            n = int(rng.integers(1, 6))
            ensemble = tuple(
                tuple(tags[int(rng.integers(3))] for _ in range(n)) for _ in range(K)
            )
            rec = PredictionRecord(0, ensemble[0], ensemble=ensemble)
            s = _one(score_bald, rec)
            assert 0.0 <= s <= (K - 1) / K + 1e-12

    def test_missing_ensemble_raises(self):
        with pytest.raises(CapabilityError):
            _one(score_bald, PredictionRecord(0, ("O",)))


_TAGS = ("O", "B-PER", "I-PER", "B-LOC", "I-LOC")
# exact zeros of both signs, values whose sums round, and values far apart
_LOGPROBS = st.sampled_from([0.0, -0.0, -1e-300, -0.1, -0.5, -math.log(2), -1.0, -20.0]) | (
    st.floats(-60.0, 0.0, allow_nan=False)
)


@st.composite
def record_maps(draw, logprobs=True, ensemble=True, full=False):
    """Prediction records by sentence id: sentences of 1 token and longer
    ones, log-prob dicts over some or (``full``) all tags in a random key
    order, and K >= 2 ensemble passes over few tags, so that modes tie."""
    n = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(-5, 10**6), min_size=n, max_size=n, unique=True))
    K = draw(st.integers(2, 6))
    records = {}
    for sid in ids:
        length = draw(st.sampled_from([1, 1, 2, 3]) | st.integers(1, 40))
        labels = tuple(draw(st.lists(st.sampled_from(_TAGS), min_size=length, max_size=length)))
        lps = ens = None
        if logprobs:
            keys = st.permutations(_TAGS) if full else st.lists(
                st.sampled_from(_TAGS), min_size=1, max_size=5, unique=True
            )
            lps = tuple(
                {tag: draw(_LOGPROBS) for tag in draw(keys)} for _ in range(length)
            )
        if ensemble:
            ens = tuple(
                tuple(draw(st.lists(st.sampled_from(_TAGS[:3]), min_size=length,
                                    max_size=length)))
                for _ in range(K)
            )
        records[sid] = PredictionRecord(sid, labels, lps, ens)
    return records


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _written(records, writer=write_records) -> str:
    buf = io.StringIO()
    writer(records, buf)
    return buf.getvalue()


class TestPredictionBatch:
    @settings(max_examples=200, deadline=None)
    @given(record_maps())
    def test_scores_are_bit_equal_to_the_per_record_scores(self, records):
        batch = PredictionBatch.from_records(records)
        assert list(batch) == list(records)
        assert _bits(score_us(batch)) == _bits([record_score_us(r) for r in records.values()])
        assert _bits(score_bald(batch)) == _bits(
            [record_score_bald(r) for r in records.values()]
        )

    def test_all_zero_maxima_and_two_pass_ties(self):
        records = {
            7: PredictionRecord(7, ("O",), ({"O": -0.0, "B-PER": -3.0},), (("O",), ("B-PER",))),
            2: PredictionRecord(2, ("O", "O"), ({"O": 0.0}, {"O": -0.0, "I-PER": -0.0}),
                                (("O", "B-PER"), ("I-PER", "O"))),
        }
        batch = PredictionBatch.from_records(records)
        assert _bits(score_us(batch)) == _bits([record_score_us(r) for r in records.values()])
        assert _bits(score_bald(batch)) == _bits([0.5, 0.5])

    @settings(max_examples=100, deadline=None)
    @given(record_maps())
    def test_records_come_back_from_the_arrays(self, records):
        batch = PredictionBatch.from_records(records)
        for sid, rec in records.items():
            got = batch[sid]
            assert (got.sentence_id, got.labels, got.ensemble) == (sid, rec.labels, rec.ensemble)
            # a tag a token has no value for reads -inf
            assert got.logprobs == tuple(
                {tag: lp.get(tag, -math.inf) for tag in batch.vocab} for lp in rec.logprobs
            )
            assert _bits([v for lp in got.logprobs for v in lp.values()]) == _bits(
                [lp.get(tag, -math.inf) for lp in rec.logprobs for tag in batch.vocab]
            )

    @settings(max_examples=100, deadline=None)
    @given(record_maps(), st.data())
    def test_take_and_with_ids_keep_each_record(self, records, data):
        batch = PredictionBatch.from_records(records)
        ids = data.draw(st.permutations(list(records)))[:data.draw(st.integers(0, len(records)))]
        part = batch.take(ids)
        assert list(part) == ids
        assert dict(part.items()) == {sid: batch[sid] for sid in ids}
        moved = part.with_ids([10**7 + k for k in range(len(ids))])
        assert [r.labels for r in moved.values()] == [batch[sid].labels for sid in ids]

    @settings(max_examples=100, deadline=None)
    @given(record_maps())
    def test_written_batch_reads_back_bit_for_bit(self, records):
        batch = PredictionBatch.from_records(records)
        read = read_records(_written(batch.values()), validate=False)
        assert read == batch
        assert list(read) == list(batch) and read.vocab == batch.vocab
        assert read.logprobs.tobytes() == batch.logprobs.tobytes()
        assert read.ensemble.tobytes() == batch.ensemble.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(record_maps(full=True))
    def test_written_records_read_back(self, records):
        assert read_records(_written(records.values()), validate=False) == records

    @settings(max_examples=100, deadline=None)
    @given(record_maps(full=True))
    def test_writer_bytes_equal_the_copying_writer(self, records):
        # the log-prob dicts come in shuffled key orders
        assert _written(records.values()) == _written(records.values(), copying_write_records)

    def test_mapping_protocol(self):
        batch = PredictionBatch([5, 3], [0, 2, 3], ("B-PER", "O"), [1, 0, 1])
        assert len(batch) == 2 and list(batch) == [5, 3] and 3 in batch and 4 not in batch
        assert batch[3] == PredictionRecord(3, ("O",))
        assert batch.get(4) is None
        with pytest.raises(KeyError):
            batch[4]
        with pytest.raises(ValueError, match="sentence id 5 repeats"):
            PredictionBatch([5, 5], [0, 2, 3], ("B-PER", "O"), [1, 0, 1])
        with pytest.raises(ValueError, match="offsets"):
            PredictionBatch([5, 3], [0, 2, 4], ("B-PER", "O"), [1, 0, 1])
        with pytest.raises(ValueError, match="ensemble has shape"):
            PredictionBatch([5, 3], [0, 2, 3], ("B-PER", "O"), [1, 0, 1], ensemble=[[1, 0]])

    @pytest.mark.parametrize(
        "second,match",
        [
            (PredictionRecord(2, ("O",), logprobs=({"O": 0.0},)), "every record or none"),
            (PredictionRecord(2, ("O",), ensemble=(("O",),) * 3), "3 ensemble passes"),
            (PredictionRecord(2, ("O",), ensemble=(("O", "O"), ("O",))), "pass length"),
            (PredictionRecord(2, ("O", "O"), ensemble=(("O",), ("O",))), "pass length"),
            (PredictionRecord(2, ("O",), ensemble=(("O",), (1,))), "not a string"),
        ],
        ids=["mixed-logprobs", "pass-count", "pass-length", "label-count", "tag-number"],
    )
    def test_records_that_do_not_fit_are_named(self, second, match):
        first = PredictionRecord(1, ("O",), ensemble=(("O",), ("O",)))
        with pytest.raises(ValueError, match=f"sentence 2: .*{match}"):
            PredictionBatch.from_records({1: first, 2: second})


class TestUncertaintyDecay:
    def test_decay_amount(self):
        cur = UncertaintySnapshot(2000, {0: 0.3})
        lag = UncertaintySnapshot(1000, {0: 0.5})
        assert score_uncertainty_decay(cur, lag)[0] == pytest.approx(0.2)

    def test_rising_uncertainty_clamped_to_zero(self):
        cur = UncertaintySnapshot(2000, {0: 0.5})
        lag = UncertaintySnapshot(1000, {0: 0.2})
        assert score_uncertainty_decay(cur, lag)[0] == 0.0

    def test_capped_by_current(self):
        cur = UncertaintySnapshot(2000, {0: 0.3})
        lag = UncertaintySnapshot(1000, {0: 0.9})
        assert score_uncertainty_decay(cur, lag)[0] == pytest.approx(0.3)

    def test_bounds_elementwise(self):
        rng = np.random.default_rng(1)
        cur = UncertaintySnapshot(2000, {i: float(u) for i, u in enumerate(rng.random(50))})
        lag = UncertaintySnapshot(1000, {i: float(u) for i, u in enumerate(rng.random(50))})
        out = score_uncertainty_decay(cur, lag)
        for i, v in out.items():
            assert 0.0 <= v <= cur.scores[i] + 1e-12

    def test_missing_lagged_id_falls_back_to_raw(self):
        cur = UncertaintySnapshot(2000, {0: 0.3, 1: 0.8})
        lag = UncertaintySnapshot(1000, {0: 0.5})
        out = score_uncertainty_decay(cur, lag)
        assert out[1] == pytest.approx(0.8)


class TestAlternation:
    @pytest.mark.parametrize(
        "batch,expected",
        [
            (1, AlternationChoice.DECAY_SCORE),
            (2, AlternationChoice.RAW_UNCERTAINTY),
            (3, AlternationChoice.DECAY_SCORE),
            (4, AlternationChoice.RAW_UNCERTAINTY),
        ],
    )
    def test_policy(self, batch, expected):
        assert alternation_policy(batch) is expected


@st.composite
def fass_cases(draw):
    """``fass_select`` arguments: up to 60 candidates, exact ties, documents
    of up to 12 rows (interleaved or not), and budgets from 0 to past the
    pool."""
    n = draw(st.integers(1, 60))
    ids = np.asarray(sorted(draw(st.sets(st.integers(0, 300), min_size=n, max_size=n))))
    dim = draw(st.integers(1, 4))
    emb = np.asarray(
        draw(st.lists(st.integers(-2, 2), min_size=n * dim, max_size=n * dim)), dtype=float
    ).reshape(n, dim)
    lengths = np.asarray(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)))
    scores = draw(
        st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
            lambda v: np.asarray(v) / 2.0
        )
    )
    docs = None
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
        docs = np.repeat(np.arange(n) * 3, sizes)[:n]
        if draw(st.booleans()):
            docs = np.asarray(draw(st.permutations(docs.tolist())))
    total = int(lengths.sum())
    budget = draw(st.sampled_from([0, total, total + 5]) | st.integers(0, total * 3 // 2))
    t_factor = draw(st.sampled_from([1, 2, 3, 100]))
    seed = draw(st.integers(0, 2**16))
    return scores, ids, emb, lengths, budget, t_factor, seed, docs


class TestFassSelect:
    def test_identical_embeddings_first_pick_covers_all(self):
        ids = np.arange(6)
        emb = np.tile([1.0, 0.0], (6, 1))
        lengths = np.full(6, 2)
        batch = fass_select(None, ids, emb, lengths, token_budget=4,
                            rng=np.random.default_rng(0), t_factor=100)
        # full coverage after the first pick; later gains are 0 and ties
        # resolve to the smallest remaining id
        assert batch.sentence_ids[0] == min(batch.sentence_ids)
        assert len(batch.sentence_ids) == 2

    def test_orthogonal_clusters_get_one_each(self):
        # exhaustive check over 2-subsets: the max facility-location value
        # picks one sentence from each orthogonal cluster
        ids = np.arange(4)
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        lengths = np.ones(4, dtype=int)
        scores = np.ones(4)

        def facility(sel):
            X = emb / np.linalg.norm(emb, axis=1)[:, None]
            S = X[list(sel)]
            return (np.maximum((X @ S.T) + 1.0, 0).max(axis=1)).sum()

        from itertools import combinations

        best = max(combinations(ids.tolist(), 2), key=facility)
        assert {0, 1} - set(best) and {2, 3} - set(best)  # one from each
        batch = fass_select(scores, ids, emb, lengths, token_budget=2, t_factor=100)
        got = set(batch.sentence_ids)
        assert len(got & {0, 1}) == 1 and len(got & {2, 3}) == 1

    def test_uncertainty_filter_keeps_top(self):
        rng = np.random.default_rng(2)
        ids = np.arange(50)
        emb = rng.normal(size=(50, 3))
        lengths = np.full(50, 5)
        scores = ids.astype(float)  # 49 most uncertain
        batch = fass_select(scores, ids, emb, lengths, token_budget=5, t_factor=1)
        assert set(batch.sentence_ids) <= set(range(49, 48, -1)) | set(range(45, 50))

    def test_diversification_ignores_scores_with_seeded_filter(self):
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        ids = np.arange(30)
        emb = np.stack([np.cos(ids), np.sin(ids)], axis=1)
        lengths = np.ones(30, dtype=int)
        b1 = fass_select(None, ids, emb, lengths, token_budget=3, t_factor=2, rng=rng1)
        b2 = fass_select(None, ids, emb, lengths, token_budget=3, t_factor=2, rng=rng2)
        assert b1.sentence_ids == b2.sentence_ids

    def test_marginal_gains_non_increasing(self):
        rng = np.random.default_rng(3)
        ids = np.arange(40)
        emb = rng.normal(size=(40, 4))
        lengths = np.ones(40, dtype=int)
        scores = rng.random(40)
        # recompute the facility-location values of the greedy prefix
        batch = fass_select(scores, ids, emb, lengths, token_budget=8, t_factor=100)
        X = emb / np.linalg.norm(emb, axis=1)[:, None]
        S = X @ X.T + 1.0
        cover = np.zeros(40)
        gains = []
        for sid in batch.sentence_ids:
            new = np.maximum(S[sid], cover)
            gains.append(new.sum() - cover.sum())
            cover = new
        assert all(g1 >= g2 - 1e-9 for g1, g2 in zip(gains, gains[1:]))

    def test_document_mode_takes_best_document_whole(self):
        # first gains: 2 + 2 + 1 + 1 + 1 = 7 for a doc-0 row and
        # 2 + 2 + 2 + 1 + 1 = 8 for a doc-1 row, so document 1 comes first
        ids = np.array([3, 5, 6, 8, 9])
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        lengths = np.ones(5, dtype=int)
        docs = np.array([0, 0, 1, 1, 1])
        one = fass_select(np.ones(5), ids, emb, lengths, token_budget=1, doc_ids=docs)
        assert one.sentence_ids == (6, 8, 9) and one.token_count == 3
        both = fass_select(np.ones(5), ids, emb, lengths, token_budget=4, doc_ids=docs)
        assert both.sentence_ids == (6, 8, 9, 3, 5) and not both.exhausted
        assert fass_select(np.ones(5), ids, emb, lengths, token_budget=9,
                           doc_ids=docs).exhausted

    def test_matches_dict_reference(self):
        # the array API picks what the dict-based implementation picked, in
        # both modes, with exact score ties and documents under 8 sentences
        rng = np.random.default_rng(5)
        for trial in range(40):
            n = int(rng.integers(1, 40))
            ids = np.sort(rng.choice(200, size=n, replace=False))
            emb = rng.integers(-2, 3, size=(n, 3)).astype(float)
            lengths = rng.integers(1, 6, size=n)
            scores = rng.integers(0, 3, size=n) / 2.0
            docs = np.repeat(np.arange(n), rng.integers(1, 8, size=n))[:n]
            budget = int(rng.integers(0, lengths.sum() + 3))
            for sc in (scores, None):
                for dc in (None, docs):
                    kw = dict(t_factor=int(rng.integers(1, 4)), seed=trial)
                    got = fass_select(
                        sc, ids, emb, lengths, budget, kw["t_factor"],
                        np.random.default_rng(kw["seed"]), dc,
                    )
                    want = dict_fass_select(
                        None if sc is None else dict(zip(ids.tolist(), sc)),
                        dict(zip(ids.tolist(), emb)),
                        dict(zip(ids.tolist(), lengths.tolist())),
                        budget, kw["t_factor"], np.random.default_rng(kw["seed"]),
                        "SENTENCE" if dc is None else "DOCUMENT",
                        None if dc is None else dict(zip(ids.tolist(), dc.tolist())),
                    )
                    assert got == want

    @settings(max_examples=400, deadline=None)
    @given(fass_cases())
    def test_matches_heap_reference(self, case):
        # integer embeddings make exact gain ties common; small t_factor
        # values filter candidates out, splitting documents
        scores, ids, emb, lengths, budget, t_factor, seed, docs = case
        got = fass_select(
            scores, ids, emb, lengths, budget, t_factor, np.random.default_rng(seed), docs
        )
        want = heap_fass_select(
            scores, ids, emb, lengths, budget, t_factor, np.random.default_rng(seed), docs
        )
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 600), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_initial_bounds_equal_first_gains(self, n, dim, seed):
        # the lazy loop starts from each row's similarity sum over its
        # length, which must equal its gain at zero cover to bound it;
        # rows past 128 columns are summed pairwise
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, dim)).astype(np.float32)
        X[rng.random(n) < 0.1] = 0.0
        lens = rng.integers(1, 30, size=n).astype(np.float64)
        norms = np.linalg.norm(X, axis=1)
        norms[norms == 0] = 1.0
        Xn = X / norms[:, None]
        sim = Xn @ Xn.T
        sim += np.float32(1.0)
        np.maximum(sim, 0.0, out=sim)
        cover = np.zeros(n, dtype=np.float32)
        bounds = sim.sum(axis=1, dtype=np.float64) / lens
        gains = [
            float(np.maximum(sim[row] - cover, 0.0).sum(dtype=np.float64) / lens[row])
            for row in range(n)
        ]
        assert bounds.tolist() == gains

    @pytest.mark.parametrize("width", [8191, 8193, 20000])
    def test_wide_row_sums_equal_one_row_sums(self, width):
        # past 8192 columns the float32-to-float64 sum runs in buffered
        # chunks; the 2-D row sums must still equal the 1-D ones
        rows = (np.random.default_rng(width).random((3, width)) * 2).astype(np.float32)
        cover = np.zeros(width, dtype=np.float32)
        one_by_one = [np.maximum(r - cover, 0.0).sum(dtype=np.float64) for r in rows]
        assert rows.sum(axis=1, dtype=np.float64).tolist() == one_by_one

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            fass_select(np.zeros(0), np.arange(0), np.zeros((0, 2)), np.arange(0),
                        token_budget=1)

    @pytest.mark.parametrize("field", ["embeddings", "lengths", "scores", "doc_ids"])
    def test_row_count_other_than_the_ids_rejected(self, field):
        args = dict(scores=np.ones(6), ids=np.arange(6), embeddings=np.eye(6),
                    lengths=np.full(6, 2), token_budget=4, doc_ids=np.arange(6))
        args[field] = args[field][:5]
        with pytest.raises(ValueError, match=f"{field} has 5 rows for 6 ids"):
            fass_select(**args)

    @pytest.mark.parametrize(
        "embedding,score",
        [(np.nan, 1.0), (np.inf, 1.0), (1e39, 1.0), (1.0, np.nan), (1.0, -np.inf)],
        ids=["nan-component", "inf-component", "float32-overflow", "nan-score", "inf-score"],
    )
    def test_non_finite_input_rejected(self, embedding, score):
        # a NaN component in row 2 once got that sentence picked second
        emb = np.eye(6)
        emb[2, 1] = embedding
        scores = np.ones(6)
        scores[3] = score
        with pytest.raises(ValueError, match="not all finite"):
            fass_select(scores, np.arange(6), emb, np.ones(6, dtype=int), token_budget=3)
        if score == 1.0:
            with pytest.raises(ValueError, match="not all finite"):
                fass_select(None, np.arange(6), emb, np.ones(6, dtype=int), token_budget=3,
                            rng=np.random.default_rng(0))


def _unit_rows(rng, n, dim, signed, zero_share):
    """``n`` float32 rows of width ``dim`` scaled to unit norm as
    ``fass_select`` scales them, a ``zero_share`` of them zero."""
    X = rng.normal(size=(n, dim)).astype(np.float32)
    if not signed:
        X = np.abs(X)
    X[rng.random(n) < zero_share] = 0.0
    norms = np.linalg.norm(X, axis=1)
    norms[norms == 0] = 1.0
    return X / norms[:, None]


def _shifted(product):
    product += np.float32(1.0)
    np.maximum(product, 0.0, out=product)
    return product


class TestExactFacilityLocation:
    """The blocked shift and sum and the buffered refresh of
    ``fass_select``, held to the one-line expressions they replace, past
    the block size."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 1100), st.integers(1, 300), st.booleans(),
           st.sampled_from([0.0, 0.1, 0.5]), st.integers(0, 2**32 - 1))
    def test_block_build_equals_full_product(self, n, dim, signed, zero_share, seed):
        Xn = _unit_rows(np.random.default_rng(seed), n, dim, signed, zero_share)
        sim, sums = _similarity(Xn)
        want = _shifted(Xn @ Xn.T)
        assert sim.tobytes() == want.tobytes()
        assert sums.tolist() == want.sum(axis=1, dtype=np.float64).tolist()

    @pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   2 * _BLOCK_ROWS + 1, 1100])
    @pytest.mark.parametrize("dim", [1, 7, 100, 300, 500, 768])
    def test_block_build_at_block_edges(self, n, dim):
        Xn = _unit_rows(np.random.default_rng(n * dim), n, dim, True, 0.05)
        sim, sums = _similarity(Xn)
        want = _shifted(Xn @ Xn.T)
        assert sim.tobytes() == want.tobytes()
        assert sums.tolist() == want.sum(axis=1, dtype=np.float64).tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10_000), st.integers(1, 300), st.booleans(),
           st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_buffered_refresh_equals_one_line(self, width, dim, signed, covered, seed):
        # rows of the shifted cosine matrix and a cover made of such rows;
        # widths past 8192 sum in buffered chunks
        rng = np.random.default_rng(seed)
        Xn = _unit_rows(rng, width, dim, signed, 0.05)
        rows = _shifted(Xn[:8] @ Xn.T)
        cover = np.zeros(width, dtype=np.float32)
        for row in rng.choice(len(rows), size=min(covered, len(rows)), replace=False):
            cover = np.maximum(cover, rows[row])
        want = [np.maximum(row - cover, 0.0).sum(dtype=np.float64) for row in rows]
        buf = np.empty(width, dtype=np.float32)
        assert [_uncovered(row, cover, buf) for row in rows] == want
        order = rng.permutation(width)
        assert [_uncovered(row[order], cover[order], buf) for row in rows] == want
        block = rows.copy()
        assert _uncovered(block, cover, block).tolist() == want

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_heap_reference_past_the_block_size(self, seed):
        # dense float candidates, with and without scores, in both modes,
        # with budgets up to the whole pool; every candidate passes the filter
        rng = np.random.default_rng([seed, 20])
        n = int(rng.integers(300, 1101))
        ids = np.sort(rng.choice(4 * n, size=n, replace=False))
        emb = rng.normal(size=(n, int(rng.integers(2, 60))))
        if seed % 3 == 0:
            emb = np.abs(emb)
        emb[rng.random(n) < 0.02] = 0.0
        lengths = rng.integers(1, 30, size=n)
        scores = None if seed % 2 else rng.random(n)
        docs = np.repeat(np.arange(n), rng.integers(1, 13, size=n))[:n]
        total = int(lengths.sum())
        budget = [total, total + 1, int(rng.integers(total // 4, total))][seed % 3]
        for dc in (None, docs):
            got = fass_select(scores, ids, emb, lengths, budget, rng=np.random.default_rng(seed),
                              doc_ids=dc)
            want = heap_fass_select(scores, ids, emb, lengths, budget,
                                    rng=np.random.default_rng(seed), doc_ids=dc)
            assert got == want

    @pytest.mark.parametrize("dim", [449, 500, 768])
    def test_matches_heap_reference_on_wide_embeddings(self, dim):
        # widths at which a row-block matrix product can differ from the
        # symmetric one in last bits
        rng = np.random.default_rng([dim, 20])
        n = 1500
        ids = np.arange(n)
        emb = rng.normal(size=(n, dim))
        lengths = rng.integers(1, 30, size=n)
        docs = np.repeat(np.arange(n), rng.integers(1, 13, size=n))[:n]
        budget = int(lengths.sum()) // 2
        for dc in (None, docs):
            got = fass_select(None, ids, emb, lengths, budget, rng=np.random.default_rng(dim),
                              t_factor=100, doc_ids=dc)
            want = heap_fass_select(None, ids, emb, lengths, budget,
                                    rng=np.random.default_rng(dim), t_factor=100, doc_ids=dc)
            assert got == want


def _sent(i, words, labels=None):
    labels = labels or ["O"] * len(words)
    return Sentence(
        id=i, tokens=tuple(Token(surface=w, gold_label=l) for w, l in zip(words, labels))
    )


def _code_history(history, sentences, masses):
    """``prediction_difference_records``' references: each checkpoint's
    aligned tag codes, from one dict, with its training masses."""
    codes = {}
    return [(tag_codes(aligned_labels(h, sentences), codes), m) for h, m in zip(history, masses)]


def prediction_difference_rates(current, past, partition, reference):
    """Per-group rate at which two checkpoints' predictions differ."""
    sentences = reference.sentences
    codes = {}
    losses = token_losses(
        tag_codes(aligned_labels(current, sentences), codes),
        tag_codes(aligned_labels(past, sentences), codes),
        codes,
    )
    rates = mismatch_rates(build_group_index(partition, sentences), losses)
    return rates.error, rates.mass


class TestPredictionDifference:
    def _setup(self):
        ref = Dataset(
            sentences=(_sent(0, ["a"] * 5), _sent(1, ["b"] * 5)),
            label_inventory=frozenset({"PER"}),
            role="validation",
        )
        part = build_identity_partition(list(ref.sentences))
        return ref, part

    def test_identical_predictions_zero_rates(self):
        ref, part = self._setup()
        cur = {0: ["O"] * 5, 1: ["B-PER"] * 5}
        rates, mass = prediction_difference_rates(cur, cur, part, ref)
        np.testing.assert_array_equal(rates, 0.0)
        assert mass.sum() == 10

    def test_counting_rate(self):
        ref, part = self._setup()
        ref10 = Dataset(
            sentences=(_sent(0, ["a"] * 10),),
            label_inventory=frozenset({"PER"}),
            role="validation",
        )
        part10 = build_identity_partition(list(ref10.sentences) + [_sent(9, ["b"])])
        cur = {0: ["O"] * 10}
        past = {0: ["B-PER"] * 3 + ["O"] * 7}
        rates, _ = prediction_difference_rates(cur, past, part10, ref10)
        gid = token_group_ids(part10, ref10.sentences[0], None)[0]
        assert rates[gid] == pytest.approx(0.3)

    def test_gold_relabeling_invariance(self):
        ref, part = self._setup()
        relabeled = Dataset(
            sentences=(
                _sent(0, ["a"] * 5, ["B-PER"] * 5),
                _sent(1, ["b"] * 5, ["B-PER"] * 5),
            ),
            label_inventory=frozenset({"PER"}),
            role="validation",
        )
        cur = {0: ["O"] * 5, 1: ["B-PER"] * 5}
        past = {0: ["B-PER"] * 5, 1: ["B-PER"] * 5}
        r1, _ = prediction_difference_rates(cur, past, part, ref)
        r2, _ = prediction_difference_rates(cur, past, part, relabeled)
        np.testing.assert_array_equal(r1, r2)

    def test_mismatched_reference_raises(self):
        ref, part = self._setup()
        with pytest.raises(AlignmentError):
            prediction_difference_rates({0: ["O"] * 5}, {0: ["O"] * 5}, part, ref)

    def test_records_compare_past_to_current(self):
        ref, part = self._setup()
        hist = [
            {0: ["B-PER"] * 5, 1: ["O"] * 5},
            {0: ["O"] * 5, 1: ["O"] * 5},
            {0: ["O"] * 5, 1: ["O"] * 5},
        ]
        masses = [np.array([5.0, 0.0]), np.array([7.0, 3.0]), np.array([9.0, 6.0])]
        references = _code_history(hist, ref.sentences, [[m] for m in masses])
        (records,) = prediction_difference_records([build_group_index(part, ref)], references)
        assert len(records) == 2
        gid_a = token_group_ids(part, ref.sentences[0], None)[0]
        assert records[0].val_error[gid_a] == pytest.approx(1.0)
        assert records[1].val_error[gid_a] == pytest.approx(0.0)
        np.testing.assert_array_equal(records[0].train_mass, masses[0])

    def test_merged_rates_match_per_sentence_prediction_difference(self):
        rng = np.random.default_rng(8)
        words = [f"w{i}" for i in range(12)]
        tags = ["O", "B-PER", "I-PER"]
        ref = [
            _sent(i, [words[int(rng.integers(12))] for _ in range(int(rng.integers(1, 15)))])
            for i in range(30)
        ]
        table_lines = "\n".join(
            f"{w} " + " ".join(repr(float(v)) for v in rng.normal(size=4)) for w in words
        )
        table = load_embeddings(table_lines, normalize=True)
        cfg = PartitionConfig(sentence_groups=3, seed=1, kmeans_iters=5)
        partitions = [
            build_identity_partition(ref),
            build_partition(ref, table, PartitionKind.SENTENCE, cfg),
        ]
        cur = {s.id: [tags[int(rng.integers(3))] for _ in s.tokens] for s in ref}
        past = {s.id: [tags[int(rng.integers(3))] for _ in s.tokens] for s in ref}
        codes = {}
        losses = token_losses(
            tag_codes(aligned_labels(cur, ref), codes),
            tag_codes(aligned_labels(past, ref), codes),
            codes,
        )
        for part in partitions:
            got = mismatch_rates(build_group_index(part, ref, table), losses)
            want_rates, want_mass = per_sentence_rates(part, ref, cur, past, table)
            assert np.array_equal(got.error, want_rates)
            assert np.array_equal(got.mass, want_mass)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_records_of_every_partition_equal_the_string_records(self, seed):
        # one call over identity, WORD and the soft SENTENCE partition gives
        # each partition the records of aligning and comparing tag strings,
        # byte for byte
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(12)]
        tags = ["O", "B-PER", "I-PER", "B-LOC"]
        ref = [
            _sent(i, [words[int(rng.integers(12))] for _ in range(int(rng.integers(1, 15)))])
            for i in range(40)
        ]
        table = load_embeddings(
            "\n".join(f"{w} " + " ".join(repr(float(v)) for v in rng.normal(size=4))
                      for w in words),
            normalize=True,
        )
        cfg = PartitionConfig(sentence_groups=3, word_groups=4, seed=seed, kmeans_iters=5)
        partitions = [
            build_identity_partition(ref),
            build_partition(ref, table, PartitionKind.WORD, cfg),
            build_partition(ref, table, PartitionKind.SENTENCE, cfg),
        ]
        indexes = [build_group_index(part, ref, table) for part in partitions]
        history = [
            {s.id: [tags[int(rng.integers(len(tags)))] for _ in s.tokens] for s in ref}
            for _ in range(5)
        ]
        masses = [[rng.random(part.n_groups) * 50 for part in partitions] for _ in history]
        got = prediction_difference_records(indexes, _code_history(history, ref, masses))
        assert len(got) == len(partitions)
        for p, (part, ix) in enumerate(zip(partitions, indexes)):
            want = string_prediction_difference_records(ref, history, [m[p] for m in masses], ix)
            assert len(got[p]) == len(want) == len(history) - 1
            for g, w in zip(got[p], want):
                assert g.checkpoint_index == w.checkpoint_index
                for field in ("train_mass", "val_error", "val_mass"):
                    assert getattr(g, field).tobytes() == getattr(w, field).tobytes()

    def test_fewer_than_two_checkpoints_rejected(self):
        ref, part = self._setup()
        references = _code_history([{0: ["O"] * 5, 1: ["O"] * 5}], ref.sentences,
                                   [[np.zeros(2)]])
        with pytest.raises(ValueError, match="at least 2"):
            prediction_difference_records([build_group_index(part, ref)], references)


class TestRecordIO:
    def test_round_trip(self):
        rec = PredictionRecord(
            3,
            ("B-PER", "O"),
            logprobs=(_lp({"B-PER": 0.9, "O": 0.1}), _lp({"B-PER": 0.2, "O": 0.8})),
            ensemble=(("B-PER", "O"), ("O", "O")),
        )
        buf = io.StringIO()
        write_records([rec], buf)
        out = read_records(buf.getvalue())
        got = out[3]
        assert got.labels == rec.labels
        assert got.ensemble == rec.ensemble
        assert got.logprobs[0]["B-PER"] == pytest.approx(math.log(0.9))

    @pytest.mark.parametrize(
        "line",
        [
            '{"labels": ["O"]}',
            '{"sentence_id": 0, "labels": 5}',
            '{"sentence_id": 0, "labels": ["O"], "logprobs": [{"O": "x"}]}',
            '{"sentence_id": 0, "labels": ["O"], "logprobs": [{"O": 800}]}',
            '{"sentence_id": 0, "labels": ["O"], "logprobs": [{"O": NaN, "B-X": NaN}]}',
            '{"sentence_id": 0, "labels": ["O"], "ensemble": [1, 2]}',
            '{"sentence_id": 0',
            '{"sentence_id": 1, "labels": ["O"]}',
            '{"sentence_id": 0, "labels": "O"}',
            '{"sentence_id": 0, "labels": ["O"], "logprobs": [{"O": true}]}',
            '{"sentence_id": 0, "labels": ["O"], "logprobs": [{"O": 0.0}, {"O": 0.0}]}',
            '{"sentence_id": 0, "labels": ["O"], "logprobs": [{"O": 1e999}]}',
            '{"sentence_id": 0, "labels": ["O"], "ensemble": [["O"], ["O"]]}',
        ],
        ids=["no-sentence-id", "labels-number", "logprob-string", "logprob-overflow",
             "logprob-nan", "ensemble-numbers", "not-json", "repeated-id", "labels-string",
             "logprob-bool", "logprobs-length", "logprob-infinite", "ensemble-on-one"],
    )
    def test_malformed_line_is_value_error_naming_it(self, line):
        text = '{"sentence_id": 1, "labels": ["O"]}\n' + line + "\n"
        with pytest.raises(ValueError, match="malformed record line") as info:
            read_records(text)
        assert line[:20] in str(info.value)

    @pytest.mark.parametrize(
        "line,match",
        [
            ('{"sentence_id": 4, "labels": ["O", "O"], "logprobs": [{"O": 0.0}, {"O": -0.7}]}',
             "sentence 4 token 1: probabilities sum to"),
            ('{"sentence_id": 4, "labels": ["O", "B-X"], "logprobs": [{"O": 0.0}, '
             '{"O": -0.10536051565782628, "B-X": -2.3025850929940455}]}',
             "sentence 4 token 1: label 'B-X' is not an argmax tag"),
            ('{"sentence_id": 4, "labels": ["O"], "logprobs": [{"O": NaN}]}',
             "sentence 4 token 0: probabilities sum to nan"),
        ],
        ids=["sum", "argmax", "nan"],
    )
    def test_validation_names_the_line_sentence_and_token(self, line, match):
        text = '{"sentence_id": 1, "labels": ["O"], "logprobs": [{"O": 0.0}]}\n' + line + "\n"
        with pytest.raises(ValueError, match="malformed record line") as info:
            read_records(text)
        assert line[:40] in str(info.value) and match in str(info.value)
        assert read_records(text, validate=False)[4].labels[0] == "O"

    def test_ensemble_pass_counts_must_agree(self):
        text = (
            '{"sentence_id": 0, "labels": ["O"], "ensemble": [["O"], ["O"]]}\n'
            '{"sentence_id": 1, "labels": ["O"], "ensemble": [["O"], ["O"], ["O"]]}\n'
        )
        with pytest.raises(ValueError, match="sentence_id.: 1.*3 ensemble passes, the first "
                                             "record 2"):
            read_records(text)
        with pytest.raises(ValueError, match="ensemble needs >= 2 passes"):
            read_records('{"sentence_id": 0, "labels": ["O"], "ensemble": [["O"]]}\n')

    def test_validation_rejects_bad_probabilities(self):
        bad = PredictionRecord(0, ("O",), logprobs=({"O": math.log(0.5)},))
        with pytest.raises(ValueError, match="sum"):
            bad.validate()

    def test_validation_rejects_label_not_argmax(self):
        bad = PredictionRecord(
            0, ("O",), logprobs=(_lp({"O": 0.2, "B-PER": 0.8}),)
        )
        with pytest.raises(ValueError, match="argmax"):
            bad.validate()

    def test_validation_rejects_single_pass_ensemble(self):
        bad = PredictionRecord(0, ("O",), ensemble=(("O",),))
        with pytest.raises(ValueError, match=">= 2"):
            bad.validate()
