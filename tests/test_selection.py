from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdecay.corpus import Sentence, Token
from groupdecay.decay import DecayFit, DecayParams
from groupdecay.partition import build_identity_partition, group_mass
from groupdecay.selection import (
    SelectionState,
    default_epsilon,
    edg_score,
    objective,
    select_batch,
    take_units,
)
from oracles import eager_gains, rescoring_pick_loop, take_by_score


def _params(J, a0=1.0, a_half=0.0, a1=0.0, a2=0.0, a3=0.0, b=None, c=None):
    return DecayParams(
        a0=a0, a_half=a_half, a1=a1, a2=a2, a3=a3,
        b=np.asarray(b if b is not None else np.ones(J), dtype=float),
        c=np.asarray(c if c is not None else np.zeros(J), dtype=float),
    )


def _fit(params):
    return DecayFit(params=params, history=[], objective_value=0.0, converged=True)


def _sent(i, words, doc=None):
    return Sentence(
        id=i, tokens=tuple(Token(surface=w) for w in words), doc_id=doc
    )


def _identity_setup(words, sentences, fits, budget, epsilon=1e-3, train=()):
    part = build_identity_partition(
        [_sent(999, list(words))] + list(sentences) + list(train)
    )
    state = SelectionState.create(
        [part], fits, list(train), list(sentences) + list(train), budget, epsilon
    )
    return part, state


class TestObjective:
    def test_inverse_mass_value(self):
        # one group with e(n) = 1/n, train mass 1, corpus mass 10 -> H = -10
        part = build_identity_partition([_sent(0, ["a"]), _sent(1, ["b"])])
        fits = [_fit(_params(2, a1=1.0))]
        state = SelectionState(
            partitions=[part], fits=fits,
            train_mass=[np.array([1.0, 0.0])],
            da_mass=[np.array([10.0, 0.0])],
            token_budget=1, epsilon=1e-3,
        )
        assert objective(state, 0) == pytest.approx(-10.0)
        state.train_mass[0][0] = 2.0
        assert objective(state, 0) == pytest.approx(-5.0)

    def test_monotone_in_added_sentences(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(6)]
        for _ in range(200):
            sentences = [
                _sent(i, [words[int(rng.integers(6))] for _ in range(int(rng.integers(1, 6)))])
                for i in range(5)
            ]
            params = _params(
                6,
                a0=rng.uniform(0.05, 2.0),
                a_half=rng.uniform(0, 2),
                a1=rng.uniform(0, 2),
                b=rng.uniform(0, 1, 6),
                c=rng.uniform(0, 0.3, 6),
            )
            part, state = _identity_setup(words, sentences, [_fit(params)], budget=3)
            state.da_mass = [rng.uniform(0.1, 20, 6)]
            before = objective(state, 0)
            state.add_sentence(sentences[0])
            after = objective(state, 0)
            assert after >= before - 1e-9


class TestEdgScore:
    def test_single_partition_score(self):
        words = ["a", "b"]
        s = _sent(0, ["a"])
        params = _params(2, a1=1.0)
        part, state = _identity_setup(words, [s], [_fit(params)], budget=1)
        state.train_mass = [np.array([1.0, 1.0])]
        state.da_mass = [np.array([10.0, 10.0])]
        # gain = (e(1) - e(2)) * 10 = 5; |s| = 1
        assert edg_score(state, s) == pytest.approx(5.0 + state.epsilon)

    def test_zero_amplitude_scores_epsilon(self):
        words = ["a", "b"]
        s = _sent(0, ["a", "b"])
        params = _params(2, a_half=1.0, b=np.zeros(2), c=np.full(2, 0.4))
        part, state = _identity_setup(words, [s], [_fit(params)], budget=2)
        assert edg_score(state, s) == pytest.approx(state.epsilon)

    def test_partition_order_invariance(self):
        words = ["a", "b", "c"]
        s = _sent(0, ["a", "c"])
        pa = _params(3, a_half=1.0, b=np.array([0.5, 0.1, 0.9]))
        pb = _params(3, a1=1.0, b=np.array([0.2, 0.8, 0.3]))
        part = build_identity_partition([_sent(9, words), s])
        masses = group_mass(part, [s])
        state1 = SelectionState(
            partitions=[part, part], fits=[_fit(pa), _fit(pb)],
            train_mass=[masses.copy() + 1, masses.copy() + 1],
            da_mass=[np.full(3, 5.0)] * 2, token_budget=2, epsilon=1e-3,
        )
        state2 = SelectionState(
            partitions=[part, part], fits=[_fit(pb), _fit(pa)],
            train_mass=[masses.copy() + 1, masses.copy() + 1],
            da_mass=[np.full(3, 5.0)] * 2, token_budget=2, epsilon=1e-3,
        )
        assert edg_score(state1, s) == pytest.approx(edg_score(state2, s))


class TestSelectBatch:
    def test_prefers_decaying_group(self):
        # group a decays as 1/n, group b is flat 0.5, equal corpus masses
        words = ["a", "b"]
        sa, sb = _sent(0, ["a"]), _sent(1, ["b"])
        params = _params(
            2, a1=1.0, b=np.array([1.0, 0.0]), c=np.array([0.0, 0.5])
        )
        part, state = _identity_setup(words, [sa, sb], [_fit(params)], budget=1)
        state.train_mass = [np.array([1.0, 1.0])]
        state.da_mass = [np.array([10.0, 10.0])]
        batch = select_batch(state, [sa, sb])
        assert batch.sentence_ids == (0,)

    def test_zero_budget_empty(self):
        words = ["a", "b"]
        s = _sent(0, ["a"])
        part, state = _identity_setup(words, [s], [_fit(_params(2))], budget=0)
        batch = select_batch(state, [s])
        assert batch.sentence_ids == () and batch.token_count == 0

    def test_pool_exhaustion_flag(self):
        words = ["a", "b"]
        pool = [_sent(0, ["a"]), _sent(1, ["b"])]
        part, state = _identity_setup(words, pool, [_fit(_params(2, a_half=1.0))], budget=10)
        batch = select_batch(state, pool)
        assert batch.exhausted
        assert set(batch.sentence_ids) == {0, 1}

    def test_numeric_faults_count_only_compared_candidates(self):
        # a curve that rises with mass makes every factor non-positive; two
        # picks compare 3 and then 2 remaining candidates
        words = ["a", "b", "c"]
        pool = [_sent(i, [w]) for i, w in enumerate(words)]
        params = _params(3, a1=-1.0, b=np.ones(3), c=np.full(3, 0.5))
        part, state = _identity_setup(words, pool, [_fit(params)], budget=2)
        state.train_mass = [np.ones(part.n_groups)]
        state.da_mass = [np.ones(part.n_groups)]
        batch = select_batch(state, pool)
        assert batch.sentence_ids == (0, 1)
        assert state.numeric_faults == 5

    def test_incremental_mass_matches_recompute(self):
        rng = np.random.default_rng(1)
        words = [f"w{i}" for i in range(8)]
        pool = [
            _sent(i, [words[int(rng.integers(8))] for _ in range(int(rng.integers(1, 7)))])
            for i in range(30)
        ]
        params = _params(8, a_half=1.0, b=rng.uniform(0.1, 1, 8), c=rng.uniform(0, 0.2, 8))
        train = [_sent(100, words)]
        part, state = _identity_setup(words, pool, [_fit(params)], budget=25, train=train)
        batch = select_batch(state, pool)
        chosen = [s for s in pool if s.id in batch.sentence_ids]
        expected = group_mass(part, train + chosen)
        np.testing.assert_allclose(state.train_mass[0], expected, atol=1e-6)

    def test_deterministic_batches(self):
        rng = np.random.default_rng(2)
        words = [f"w{i}" for i in range(5)]
        pool = [
            _sent(i, [words[int(rng.integers(5))] for _ in range(3)]) for i in range(20)
        ]
        params = _params(5, a_half=1.0, b=rng.uniform(0.1, 1, 5))
        part, state = _identity_setup(words, pool, [_fit(params)], budget=9)
        b1 = select_batch(state, pool)
        part2, state2 = _identity_setup(words, pool, [_fit(params)], budget=9)
        b2 = select_batch(state2, pool)
        assert b1.sentence_ids == b2.sentence_ids

    def test_da_scale_invariance_of_argmax(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(6)]
        pool = [
            _sent(i, [words[int(rng.integers(6))] for _ in range(int(rng.integers(1, 5)))])
            for i in range(15)
        ]
        params = _params(6, a_half=1.0, b=rng.uniform(0.1, 1, 6), c=rng.uniform(0, 0.2, 6))
        train = [_sent(100, words)]
        part, state = _identity_setup(words, pool, [_fit(params)], budget=12, train=train)
        b1 = select_batch(state, pool)
        scale = 37.0
        part2, state2 = _identity_setup(
            words, pool, [_fit(params)], budget=12, epsilon=1e-3 * scale, train=train
        )
        state2.da_mass = [m * scale for m in state2.da_mass]
        b2 = select_batch(state2, pool)
        assert b1.sentence_ids == b2.sentence_ids

    def test_document_mode_takes_whole_documents(self):
        words = ["a", "b"]
        pool = [
            _sent(0, ["a"], doc=0),
            _sent(1, ["a", "a"], doc=0),
            _sent(2, ["b"], doc=1),
        ]
        params = _params(2, a1=1.0, b=np.array([1.0, 0.0]), c=np.array([0.0, 0.5]))
        part, state = _identity_setup(words, pool, [_fit(params)], budget=2)
        state.train_mass = [np.array([1.0, 1.0])]
        batch = select_batch(state, pool, mode="DOCUMENT")
        assert set(batch.sentence_ids) == {0, 1}

    def test_document_mode_requires_doc_ids(self):
        words = ["a", "b"]
        pool = [_sent(0, ["a"])]
        part, state = _identity_setup(words, pool, [_fit(_params(2))], budget=1)
        with pytest.raises(ValueError, match="document id"):
            select_batch(state, pool, mode="DOCUMENT")


def _random_instance(rng, J=5, n_sentences=8, sentence_len=None):
    words = [f"w{i}" for i in range(J)]
    pool = []
    for i in range(n_sentences):
        n = sentence_len or int(rng.integers(1, 5))
        pool.append(_sent(i, [words[int(rng.integers(J))] for _ in range(n)]))
    params = _params(
        J,
        a0=rng.uniform(0.1, 1.5),
        a_half=rng.uniform(0, 2),
        a1=rng.uniform(0, 1),
        a2=rng.uniform(0, 0.5),
        a3=rng.uniform(0, 0.2),
        b=rng.uniform(0, 1, J),
        c=rng.uniform(0, 0.3, J),
    )
    base = [_sent(900, words)]  # every group starts at mass >= 1
    da = rng.uniform(0.5, 20, J)
    return words, pool, params, base, da


class TestSubmodularity:
    def test_diminishing_gains_on_nested_sets(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            words, pool, params, base, da = _random_instance(rng)
            part = build_identity_partition([_sent(999, words)] + pool)
            k = int(rng.integers(0, 4))
            X = base + pool[:k]
            extra = int(rng.integers(k, min(k + 3, 7)))
            Z = base + pool[:extra]
            s = pool[7]

            def gain(train):
                st = SelectionState(
                    partitions=[part], fits=[_fit(params)],
                    train_mass=[group_mass(part, train)], da_mass=[da],
                    token_budget=1, epsilon=1e-3,
                )
                before = objective(st, 0)
                st.add_sentence(s)
                return objective(st, 0) - before

            assert gain(X) >= gain(Z) - 1e-9


class TestGreedyQuality:
    def test_two_thirds_of_optimum_on_small_instances(self):
        # uniform sentence lengths make the token budget a cardinality
        # constraint; brute force enumerates all feasible batches
        from itertools import combinations

        rng = np.random.default_rng(5)
        violations = 0
        for _ in range(40):
            words, pool, params, base, da = _random_instance(
                rng, J=4, n_sentences=8, sentence_len=3
            )
            part = build_identity_partition([_sent(999, words)] + pool)
            base_mass = group_mass(part, base)

            def H(extra):
                masses = base_mass + group_mass(part, extra)
                st = SelectionState(
                    partitions=[part], fits=[_fit(params)],
                    train_mass=[masses], da_mass=[da],
                    token_budget=0, epsilon=1e-3,
                )
                return objective(st, 0)

            h0 = H([])
            state = SelectionState(
                partitions=[part], fits=[_fit(params)],
                train_mass=[base_mass.copy()], da_mass=[da],
                token_budget=9, epsilon=1e-3,
            )
            batch = select_batch(state, pool)
            greedy_gain = H([s for s in pool if s.id in batch.sentence_ids]) - h0
            best_gain = max(
                H(list(combo)) - h0 for combo in combinations(pool, 3)
            )
            if greedy_gain < (1 - 1 / np.e) * best_gain - 1e-9:
                violations += 1
        assert violations == 0


class TestDefaultEpsilon:
    def test_small_corpus_floor(self):
        assert default_epsilon(100_000) == pytest.approx(0.001)

    def test_scales_with_corpus(self):
        assert default_epsilon(1_000_000) == pytest.approx(0.004)


class TestVectorizedScorerAgreement:
    def test_pool_scorer_matches_single_sentence_scores(self):
        # the greedy path scores with sparse/vectorized bookkeeping; it must
        # agree with the gain read off the objective when one sentence is
        # added, on all four partition kinds
        from groupdecay.corpus import load_embeddings
        from groupdecay.partition import PartitionConfig, PartitionKind, build_partition
        from groupdecay.selection import _PoolScorer

        rng = np.random.default_rng(17)
        words = [f"tok{i}" for i in range(40)]
        lines = "\n".join(
            f"{w} " + " ".join(repr(float(v)) for v in rng.normal(size=5))
            for w in words
        )
        table = load_embeddings(lines, normalize=True)
        pool = [
            _sent(i, [words[int(rng.integers(40))] for _ in range(int(rng.integers(2, 8)))])
            for i in range(25)
        ]
        cfg = PartitionConfig(
            sentence_groups=4, word_groups=3, word_subgroups=2,
            seed=2, kmeans_iters=10,
        )
        parts = [build_partition(pool, table, kind, cfg) for kind in PartitionKind]
        fits = []
        for p in parts:
            J = p.n_groups
            fits.append(_fit(_params(
                J, a_half=rng.uniform(0.5, 1.5), a1=rng.uniform(0, 0.5),
                b=rng.uniform(0.1, 1, J), c=rng.uniform(0, 0.2, J),
            )))
        state = SelectionState.create(parts, fits, pool[:5], pool, 10, 1e-3, table)
        scorer = _PoolScorer(state, pool)
        vectorized = scorer.scores()
        for k, s in enumerate(scorer.pool):
            factors = []
            for p, f, train, da in zip(parts, fits, state.train_mass, state.da_mass):
                probe = SelectionState(
                    partitions=[p], fits=[f], train_mass=[train.copy()], da_mass=[da],
                    token_budget=10, epsilon=1e-3, table=table,
                )
                before = objective(probe, 0)
                probe.add_sentence(s)
                factors.append((objective(probe, 0) - before) / len(s) + 1e-3)
            direct = float(np.prod(factors)) ** (1.0 / len(factors))
            assert vectorized[k] == pytest.approx(direct, abs=1e-9)
            assert edg_score(state, s) == pytest.approx(vectorized[k], abs=1e-12)


class TestFourPartitionRun:
    def test_multi_feature_selection_end_to_end(self):
        from groupdecay.corpus import Dataset, load_embeddings
        from groupdecay.loop import LoopConfig, run_active_loop
        from groupdecay.partition import PartitionConfig, PartitionKind, build_partition
        from groupdecay.simlab import SynthSpec, builtin_trainer, gen_synthetic

        spec = SynthSpec(seed=23)
        pool = gen_synthetic(spec, 6000, role="pool", stream=0)
        val = gen_synthetic(spec, 2000, role="validation", stream=1)
        rng = np.random.default_rng(5)
        lines = "\n".join(
            f"{w} " + " ".join(repr(float(v)) for v in rng.normal(size=8))
            for w in spec.surfaces
        )
        table = load_embeddings(lines, normalize=True)
        union = list(pool.sentences) + list(val.sentences)
        cfg = PartitionConfig(
            sentence_groups=5, word_groups=4, word_subgroups=3,
            seed=1, kmeans_iters=20,
        )
        partitions = [
            build_partition(union, table, kind, cfg) for kind in PartitionKind
        ]
        loop_cfg = LoopConfig(
            burn_in_batches=2, total_batches=4,
            history_batch_tokens=250, selection_batch_tokens=500, seed=0,
        )
        history = run_active_loop(
            loop_cfg, partitions, builtin_trainer(), pool, val,
            strategy="edg", table=table,
        )
        select = [c for c in history.checkpoints if c.phase == "select"]
        assert len(select) == 2
        for c in select:
            batch_tokens = sum(len(pool.sentences[sid]) for sid in c.selected_ids)
            assert 500 <= batch_tokens < 500 + 51
        assert all(len(c.group_records) == 4 for c in history.checkpoints)


@st.composite
def unit_pools(draw):
    """Rows in ascending id order with documents of 1-12 sentences, in any
    row order, quantised scores (exact ties) and budgets from zero to past
    the pool's size."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    n = sum(sizes)
    ids = sorted(draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True)))
    doc_names = draw(st.lists(st.integers(0, 10**6), min_size=len(sizes),
                              max_size=len(sizes), unique=True))
    docs = draw(st.permutations([d for d, k in zip(doc_names, sizes) for _ in range(k)]))
    lengths = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    scores = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    groups = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    total = sum(lengths)
    budget = draw(st.one_of(st.just(0), st.integers(1, total), st.just(total + 1)))
    return dict(
        ids=ids, docs=np.asarray(docs), lengths=np.asarray(lengths),
        scores=np.asarray(scores) / 4.0, groups=np.asarray(groups),
        budget=budget, small_docs=max(sizes) < 8,
    )


class _FallingScores:
    """Scores that fall as rows of the same group are taken, as EDG's do."""

    def __init__(self, fixed, groups):
        self.fixed, self.groups, self.taken = fixed, groups, np.zeros(3)

    def __call__(self):
        return self.fixed - 0.25 * self.taken[self.groups]

    def take(self, row):
        self.taken[self.groups[row]] += 1


class TestTakeUnits:
    """``take_units`` against the batch assembly it replaced: the fixed-score
    sort of rnd/us/bald, and ``select_batch``'s pick loop, whose per-document
    numpy sums add the same way only below 8 sentences per document."""

    @settings(max_examples=300, deadline=None)
    @given(unit_pools())
    def test_matches_replaced_assembly(self, pool):
        ids, lengths, budget = pool["ids"], pool["lengths"], pool["budget"]
        fixed = pool["scores"]
        for docs in (None, pool["docs"]):
            exact = docs is None or pool["small_docs"]
            got = take_units(ids, lengths, budget, fixed.__getitem__, docs)
            ctx = SimpleNamespace(
                pool=[
                    _sent(i, ["w"] * int(k), None if docs is None else int(d))
                    for i, k, d in zip(ids, lengths, pool["docs"])
                ],
                config=SimpleNamespace(mode="SENTENCE" if docs is None else "DOCUMENT"),
                token_budget=budget,
            )
            assert got == take_by_score(ctx, dict(zip(ids, fixed.tolist())))
            if exact:
                assert got == rescoring_pick_loop(
                    ids, lengths, budget, lambda active: np.where(active, fixed, -np.inf), docs
                )

            new, old = _FallingScores(fixed, pool["groups"]), _FallingScores(fixed, pool["groups"])
            got = take_units(ids, lengths, budget, lambda rows: new()[rows], docs, new.take)
            if exact:
                assert got == rescoring_pick_loop(
                    ids, lengths, budget, lambda active: np.where(active, old(), -np.inf),
                    docs, old.take,
                )
            assert len(got.sentence_ids) == len(set(got.sentence_ids))

    def test_zero_budget_and_exhausted_pool(self):
        lengths = np.array([2, 3])
        assert take_units([4, 7], lengths, 0, lambda rows: rows * 0.0).sentence_ids == ()
        batch = take_units([4, 7], lengths, 9, lambda rows: rows * 0.0, np.array([1, 1]))
        assert batch.sentence_ids == (4, 7) and batch.token_count == 5 and batch.exhausted
        assert all(type(i) is int for i in batch.sentence_ids)


# -- incremental gain terms ---------------------------------------------------

_VOCAB = [f"v{i}" for i in range(12)]


def _scorer_partitions():
    """An identity partition over the whole vocabulary (so groups no pool
    sentence touches have zero corpus mass), WORD and WORD_SENTENCE
    clusterings, and the soft SENTENCE partition, whose path is eager."""
    from groupdecay.corpus import load_embeddings
    from groupdecay.partition import PartitionConfig, PartitionKind, build_partition

    rng = np.random.default_rng(3)
    table = load_embeddings(
        "\n".join(f"{w} " + " ".join(repr(float(v)) for v in rng.normal(size=4))
                  for w in _VOCAB),
        normalize=True,
    )
    corpus = [_sent(i, _VOCAB[i:] + _VOCAB[:i]) for i in range(len(_VOCAB))]
    cfg = PartitionConfig(sentence_groups=3, word_groups=4, word_subgroups=2, seed=1,
                          kmeans_iters=10)
    kinds = (PartitionKind.WORD, PartitionKind.WORD_SENTENCE, PartitionKind.SENTENCE)
    return table, [build_identity_partition(corpus)] + [
        build_partition(corpus, table, kind, cfg) for kind in kinds
    ]


_TABLE, _SCORER_PARTITIONS = _scorer_partitions()


@st.composite
def scorer_cases(draw):
    """A pool of 1-14 sentences in 1-4 documents, one to three partitions,
    starting masses on both sides of 1 (the curve clamps masses below 1),
    corpus masses with zero groups, and curves that fall or rise."""
    n = draw(st.integers(1, 14))
    pool = [
        _sent(i, draw(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=5)),
              draw(st.integers(0, 3)))
        for i in draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    ]
    parts = draw(st.lists(st.sampled_from(range(len(_SCORER_PARTITIONS))), min_size=1,
                          max_size=3))
    coef = st.floats(-0.5, 2.0, allow_nan=False)
    cases = []
    for k in parts:
        J = _SCORER_PARTITIONS[k].n_groups
        fit = _fit(_params(
            J, a0=draw(st.floats(0.05, 3.0)), a_half=draw(coef), a1=draw(coef),
            a2=draw(coef), a3=draw(coef),
            b=draw(st.lists(st.floats(0.0, 1.0), min_size=J, max_size=J)),
            c=draw(st.lists(st.floats(0.0, 0.3), min_size=J, max_size=J)),
        ))
        masses = st.sampled_from([0.0, 0.25, 0.5, 0.999, 1.0, 1.5, 3.0])
        train = np.asarray(draw(st.lists(masses, min_size=J, max_size=J)))
        da = np.asarray(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.5, 40.0]),
                                      min_size=J, max_size=J)))
        cases.append((_SCORER_PARTITIONS[k], fit, train, da))
    budget = draw(st.integers(1, sum(len(s) for s in pool) + 1))
    mode = draw(st.sampled_from(["SENTENCE", "DOCUMENT"]))
    return pool, cases, budget, mode


def _state(cases, budget):
    return SelectionState(
        partitions=[c[0] for c in cases], fits=[c[1] for c in cases],
        train_mass=[c[2].copy() for c in cases], da_mass=[c[3] for c in cases],
        token_budget=budget, epsilon=1e-3, table=_TABLE,
    )


class TestIncrementalGainTerms:
    """``_PoolScorer`` keeps each hard partition's per-pair gain terms and
    refreshes only the taken groups' pairs before it scores again.  The
    terms must stay byte-equal to a full recompute, and batches must equal
    those of the eager gains they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(scorer_cases())
    def test_cached_terms_and_batches_match_eager(self, case):
        from groupdecay.selection import _PoolScorer, document_ids

        pool, cases, budget, mode = case
        state = _state(cases, budget)
        scorer = _PoolScorer(state, pool)

        def checked_take(row):
            scorer.take(row)
            for p, terms in enumerate(scorer.terms):
                assert scorer.gains(p).tobytes() == eager_gains(scorer, p).tobytes()
                if terms is not None:  # refreshed by gains
                    full = scorer._terms(p, slice(None))
                    assert scorer.terms[p].tobytes() == full.tobytes()

        docs = document_ids(scorer.pool) if mode == "DOCUMENT" else None
        ids = [s.id for s in scorer.pool]
        got = take_units(ids, scorer.lengths, budget, scorer.scores, docs, checked_take)

        eager_state = _state(cases, budget)
        eager = _PoolScorer(eager_state, pool)
        eager.gains = lambda p: eager_gains(eager, p)
        expected = take_units(ids, eager.lengths, budget, eager.scores, docs, eager.take)
        assert got == expected
        assert select_batch(_state(cases, budget), pool, mode) == expected
        assert state.numeric_faults == eager_state.numeric_faults
        for a, b in zip(state.train_mass, eager_state.train_mass):
            assert a.tobytes() == b.tobytes()
