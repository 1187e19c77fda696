import functools
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupdecay.corpus import Dataset, Sentence, Token, load_embeddings
from groupdecay import partition as partition_module
from groupdecay.partition import (
    AlignmentError,
    Clusterings,
    ParameterError,
    PartitionConfig,
    PartitionKind,
    aligned_labels,
    build_group_index,
    build_identity_partition,
    build_partition,
    group_error,
    group_mass,
    load_partition,
    minibatch_kmeans,
    mismatch_rates,
    save_partition,
    sentence_group_delta,
    tag_codes,
    token_losses,
    _sq_dists,
)
from groupdecay.simlab import SynthSpec, gen_synthetic
from oracles import (
    membership,
    one_expression_sq_dists,
    per_sentence_delta,
    per_sentence_mass,
    per_sentence_rates,
    string_mismatch_rates,
    token_group_ids,
)


def _sent(i, *pairs, doc=None):
    return Sentence(
        id=i,
        tokens=tuple(Token(surface=s, gold_label=t) for s, t in pairs),
        doc_id=doc,
    )


def _table(words, dim, rng):
    lines = "\n".join(
        f"{w} " + " ".join(repr(float(v)) for v in rng.normal(size=dim)) for w in words
    )
    return load_embeddings(lines, normalize=True)


class TestMinibatchKmeans:
    def test_k_equals_n_puts_every_point_alone(self):
        X = np.eye(12)
        centers, assign = minibatch_kmeans(X, 12, batch_size=64, iterations=20, seed=0)
        assert sorted(assign) == list(range(12))
        cost = sum(np.sum((X[i] - centers[assign[i]]) ** 2) for i in range(12))
        assert cost < 1e-12

    def test_two_separated_pairs(self):
        # brute-force oracle: the minimal-cost 2-partition is {0,1} | {2,3}
        X = np.array([[0.0, 0.0], [0.2, 0.0], [10.0, 0.0], [10.2, 0.0]])
        centers, assign = minibatch_kmeans(X, 2, batch_size=8, iterations=50, seed=1)
        assert assign[0] == assign[1] and assign[2] == assign[3]
        assert assign[0] != assign[2]
        got = {tuple(np.round(c, 6)) for c in centers}
        assert got == {(0.1, 0.0), (10.1, 0.0)}

    def test_k1_center_is_full_mean(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 5))
        centers, _ = minibatch_kmeans(X, 1, batch_size=100, iterations=30, seed=2)
        np.testing.assert_allclose(centers[0], X.mean(axis=0), atol=1e-6)

    def test_too_few_vectors_is_parameter_error(self):
        with pytest.raises(ParameterError):
            minibatch_kmeans(np.eye(3), 4)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 4))
        c1, a1 = minibatch_kmeans(X, 5, seed=9)
        c2, a2 = minibatch_kmeans(X, 5, seed=9)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(a1, a2)

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 3))
        _, assign = minibatch_kmeans(X, 8, batch_size=4, iterations=5, seed=0)
        assert len(set(assign.tolist())) == 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vectors_are_parameter_error(self, bad):
        X = np.eye(4)
        X[2, 1] = bad
        with pytest.raises(ParameterError, match="vectors must be finite"):
            minibatch_kmeans(X, 2)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_parameter_error(self, batch_size):
        with pytest.raises(ParameterError, match=f"batch_size must be >= 1, got {batch_size}"):
            minibatch_kmeans(np.eye(4), 2, batch_size=batch_size)

    def test_zero_iterations_seed_and_assign(self):
        X = np.random.default_rng(6).normal(size=(20, 3))
        centers, assign = minibatch_kmeans(X, 3, iterations=0, seed=4)
        assert all((X == c).all(axis=1).any() for c in centers)  # k-means++ picks rows
        assert np.array_equal(assign, np.argmin(one_expression_sq_dists(centers, X), axis=1))


class TestBlockedDistances:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.sampled_from([0, 1, 63, 64, 65, 128]) | st.integers(0, 300),
        k=st.integers(1, 12),
        d=st.integers(1, 130),
    )
    @example(seed=0, n=63, k=1, d=1)
    @example(seed=1, n=64, k=1, d=1)
    @example(seed=2, n=65, k=1, d=1)
    @example(seed=3, n=128, k=1, d=1)
    def test_equal_to_the_one_expression(self, seed, n, k, d):
        # rows across the block edges; mixed magnitudes, so any other order
        # of adding would show in the bits
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        centers = rng.normal(size=(k, d)) * 10.0 ** rng.integers(-3, 4, size=(k, 1))
        got, want = _sq_dists(centers, X), one_expression_sq_dists(centers, X)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def small_corpus():
    rng = np.random.default_rng(11)
    words = [f"word{i}" for i in range(30)] + ["Paris", "NATO", "mRNA", "x1"]
    table = _table(words, 6, rng)
    gen = np.random.default_rng(12)
    sentences = []
    for i in range(40):
        n = int(gen.integers(2, 7))
        chosen = [words[int(gen.integers(len(words)))] for _ in range(n)]
        sentences.append(_sent(i, *[(w, "O") for w in chosen]))
    return sentences, table


class TestBuildPartition:
    def test_word_shape_single_parent_at_most_four_groups(self, small_corpus):
        sentences, table = small_corpus
        cfg = PartitionConfig(word_groups=1, seed=0, kmeans_iters=10)
        part = build_partition(sentences, table, PartitionKind.WORD_SHAPE, cfg)
        assert part.n_groups == 4
        masses = group_mass(part, sentences, table)
        assert (masses > 0).sum() <= 4

    def test_sentence_membership_sums_to_one(self, small_corpus):
        sentences, table = small_corpus
        cfg = PartitionConfig(sentence_groups=5, seed=0, kmeans_iters=10)
        part = build_partition(sentences, table, PartitionKind.SENTENCE, cfg)
        for s in sentences[:10]:
            memb = part.sentence_membership(s, table)
            assert abs(memb.sum() - 1.0) < 1e-9
            assert (memb >= 0).all()

    def test_softmax_membership_value(self):
        # engineered centers with cosines 0.9 and 0.8 to the sentence
        # embedding, temperature 0.1 -> softmax of (9, 8)
        from groupdecay.corpus import load_embeddings
        from groupdecay.partition import Partition

        table = load_embeddings("only 1 0\n", normalize=True)
        part = Partition(
            PartitionKind.SENTENCE,
            temperature=0.1,
            sentence_centers=np.array(
                [[0.9, np.sqrt(1 - 0.81)], [0.8, 0.6]]
            ),
        )
        s = _sent(0, ("only", "O"))
        memb = part.sentence_membership(s, table)
        np.testing.assert_allclose(memb, [0.7310585786, 0.2689414214], atol=1e-9)

    def test_equidistant_centers_uniform_membership(self):
        from groupdecay.corpus import load_embeddings
        from groupdecay.partition import Partition

        table = load_embeddings("only 1 0 0\n", normalize=True)
        centers = np.array(
            [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.5, -0.5, 0.0], [0.5, 0.0, -0.5]]
        )
        part = Partition(PartitionKind.SENTENCE, temperature=0.1, sentence_centers=centers)
        memb = part.sentence_membership(_sent(0, ("only", "O")), table)
        np.testing.assert_allclose(memb, 0.25, atol=1e-12)

    def test_word_partition_group_count_and_determinism(self, small_corpus):
        sentences, table = small_corpus
        cfg = PartitionConfig(word_groups=3, word_subgroups=4, seed=0, kmeans_iters=10)
        p1 = build_partition(sentences, table, PartitionKind.WORD, cfg)
        p2 = build_partition(sentences, table, PartitionKind.WORD, cfg)
        assert p1.n_groups == 12
        assert save_partition(p1) == save_partition(p2)

    def test_word_sentence_partition_assigns_by_sentence_group(self, small_corpus):
        sentences, table = small_corpus
        cfg = PartitionConfig(
            word_groups=3, sentence_groups=4, seed=1, kmeans_iters=10
        )
        part = build_partition(sentences, table, PartitionKind.WORD_SENTENCE, cfg)
        assert part.n_groups == 12
        s = sentences[0]
        sg = int(np.argmax(part.sentence_group_scores(s, table)))
        gids = token_group_ids(part, s, table)
        assert all(g % 4 == sg for g in gids)

    def test_identity_partition(self):
        sents = [_sent(0, ("a", "O"), ("b", "O")), _sent(1, ("b", "O"), ("c", "O"))]
        part = build_identity_partition(sents)
        assert part.n_groups == 3
        gids = token_group_ids(part, sents[0], None)
        assert gids.tolist() == [0, 1]
        with pytest.raises(ParameterError):
            token_group_ids(part, _sent(2, ("zzz", "O")), None)

    def test_membership_one_hot_for_hard(self, small_corpus):
        sentences, table = small_corpus
        cfg = PartitionConfig(word_groups=2, word_subgroups=2, seed=0, kmeans_iters=5)
        part = build_partition(sentences, table, PartitionKind.WORD, cfg)
        vec = membership(part, (sentences[0], 0), table)
        assert vec.sum() == 1.0
        assert set(np.unique(vec)) <= {0.0, 1.0}

    def test_serialization_round_trip_membership(self, small_corpus):
        sentences, table = small_corpus
        cfg = PartitionConfig(word_groups=3, word_subgroups=2, seed=5, kmeans_iters=10)
        part = build_partition(sentences, table, PartitionKind.WORD, cfg)
        text = save_partition(part)
        clone = load_partition(text)
        for s in sentences[:10]:
            np.testing.assert_array_equal(
                token_group_ids(part, s, table), token_group_ids(clone, s, table)
            )
        assert save_partition(clone) == text


_READS_SENTENCES = (PartitionKind.SENTENCE, PartitionKind.WORD_SENTENCE)
_SHARED_CONFIG = PartitionConfig(sentence_groups=4, word_groups=3, word_subgroups=3,
                                 kmeans_iters=10, seed=3)


class TestSharedClusterings:
    def test_every_order_of_kinds_equals_each_kind_alone(self, small_corpus, monkeypatch):
        sentences, table = small_corpus
        cfg = _SHARED_CONFIG
        alone = {k: save_partition(build_partition(sentences, table, k, cfg))
                 for k in PartitionKind}
        calls = []
        real = partition_module.minibatch_kmeans
        monkeypatch.setattr(partition_module, "minibatch_kmeans",
                            lambda *a, **kw: calls.append(kw["seed"]) or real(*a, **kw))
        for r in range(1, len(PartitionKind) + 1):
            for kinds in itertools.permutations(PartitionKind, r):
                calls.clear()
                clusters = Clusterings(sentences, table, cfg)
                for k in kinds:
                    part = build_partition(sentences, table, k, cfg, clusters=clusters)
                    assert save_partition(part) == alone[k]
                # each k-means at most once: the sentence one (seed 7 * 3 + 1),
                # the word one (+ 2) and WORD's three sub k-means (+ 100 + top)
                want = [22] if set(kinds) & set(_READS_SENTENCES) else []
                want += [23] if set(kinds) - {PartitionKind.SENTENCE} else []
                want += [121, 122, 123] if PartitionKind.WORD in kinds else []
                assert sorted(calls) == want

    def test_clusterings_of_other_inputs_are_value_error(self, small_corpus):
        sentences, table = small_corpus
        clusters = Clusterings(sentences, table, _SHARED_CONFIG)
        other_table = _table(sorted(table.vectors), 6, np.random.default_rng(1))
        other_config = PartitionConfig(sentence_groups=4, word_groups=3, word_subgroups=3,
                                       kmeans_iters=10, seed=4)
        for args in ((sentences[:-1], table, _SHARED_CONFIG),
                     (sentences, other_table, _SHARED_CONFIG),
                     (sentences, table, other_config),
                     (sentences, table, None)):
            with pytest.raises(ValueError, match="clusters were made for other"):
                build_partition(args[0], args[1], "WORD", args[2], clusters=clusters)
        build_partition(tuple(sentences), table, "WORD", PartitionConfig(**vars(_SHARED_CONFIG)),
                        clusters=clusters)

    @pytest.mark.parametrize("few", ["words", "sentences", "both"])
    def test_too_few_distinct_vectors_fail_at_the_same_kind(self, few):
        # few words: 3 distinct word vectors for 5 word groups; few sentences:
        # one sentence repeated, 1 distinct embedding for 3 sentence groups
        rng = np.random.default_rng(8)
        words = ["a", "b", "c"] if few != "sentences" else [f"w{i}" for i in range(8)]
        table = _table(words, 4, rng)
        if few == "words":
            sentences = _random_sentences(rng, 30, words)
        else:
            sentences = [_sent(i, *[(w, "O") for w in words]) for i in range(12)]
        cfg = PartitionConfig(sentence_groups=3, word_groups=5 if few != "sentences" else 3,
                              word_subgroups=2, kmeans_iters=5)
        message = {"words": "fewer distinct word vectors than 5 clusters",
                   "sentences": "fewer distinct sentence embeddings than 3 clusters"}

        def first_failure(kinds, build):
            for i, k in enumerate(kinds):
                try:
                    build(k)
                except ParameterError as exc:
                    return i, str(exc)
            return None

        for kinds in itertools.permutations(PartitionKind):
            want = None
            for i, k in enumerate(kinds):
                if few != "words" and k in _READS_SENTENCES:
                    want = i, message["sentences"]
                elif few != "sentences" and k != PartitionKind.SENTENCE:
                    want = i, message["words"]
                if want:
                    break
            alone = first_failure(kinds, lambda k: build_partition(sentences, table, k, cfg))
            clusters = Clusterings(sentences, table, cfg)
            shared = first_failure(
                kinds, lambda k: build_partition(sentences, table, k, cfg, clusters=clusters)
            )
            assert alone == shared == want


class TestLoadedPartitionChecks:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("temperature", -1.0, "temperature must be a finite number > 0, got -1.0"),
            ("temperature", 0, "temperature must be a finite number > 0, got 0"),
            ("sentence_centers", float("nan"), "sentence_centers holds a value that is not"),
            ("sentence_centers", float("inf"), "sentence_centers holds a value that is not"),
        ],
        ids=["temperature-negative", "temperature-zero", "center-nan", "center-inf"],
    )
    def test_invalid_value_is_parameter_error(self, small_corpus, field, value, message):
        sentences, table = small_corpus
        part = build_partition(sentences, table, PartitionKind.SENTENCE, _SHARED_CONFIG)
        payload = json.loads(save_partition(part))
        if field == "temperature":
            payload["temperature"] = value
        else:
            payload[field][1][0] = value
        with pytest.raises(ParameterError, match=message):
            load_partition(json.dumps(payload))


class TestGroupMass:
    def test_empty_dataset_zero(self):
        part = build_identity_partition([_sent(0, ("a", "O")), _sent(1, ("b", "O"))])
        np.testing.assert_array_equal(group_mass(part, []), [0.0, 0.0])

    def test_soft_mass_is_membership_times_length(self, small_corpus):
        sentences, table = small_corpus
        cfg = PartitionConfig(sentence_groups=4, seed=0, kmeans_iters=10)
        part = build_partition(sentences, table, PartitionKind.SENTENCE, cfg)
        s = sentences[3]
        memb = part.sentence_membership(s, table)
        np.testing.assert_allclose(group_mass(part, [s], table), memb * len(s))

    def test_mass_additivity(self, small_corpus):
        sentences, table = small_corpus
        cfg = PartitionConfig(sentence_groups=4, seed=0, kmeans_iters=10)
        for kind in (PartitionKind.SENTENCE, PartitionKind.WORD_SHAPE):
            cfgk = PartitionConfig(
                sentence_groups=4, word_groups=3, seed=0, kmeans_iters=10
            )
            part = build_partition(sentences, table, kind, cfgk)
            m1 = group_mass(part, sentences[:15], table)
            m2 = group_mass(part, sentences[15:], table)
            m = group_mass(part, sentences, table)
            np.testing.assert_allclose(m1 + m2, m, atol=1e-9)

    def test_total_mass_equals_token_count(self, small_corpus):
        sentences, table = small_corpus
        tokens = sum(len(s) for s in sentences)
        for kind in PartitionKind:
            cfg = PartitionConfig(
                sentence_groups=4, word_groups=3, word_subgroups=2,
                seed=0, kmeans_iters=10,
            )
            part = build_partition(sentences, table, kind, cfg)
            total = group_mass(part, sentences, table).sum()
            assert abs(total - tokens) < 1e-6 * tokens

    def test_sentence_group_delta_matches_mass(self, small_corpus):
        sentences, table = small_corpus
        cfg = PartitionConfig(sentence_groups=4, seed=0, kmeans_iters=10)
        part = build_partition(sentences, table, PartitionKind.SENTENCE, cfg)
        gids, vals = sentence_group_delta(part, sentences[0], table)
        full = np.zeros(part.n_groups)
        full[gids] = vals
        np.testing.assert_allclose(full, group_mass(part, [sentences[0]], table))


class TestGroupError:
    def _identity_setup(self):
        gold = [
            _sent(0, ("a", "O"), ("a", "B-PER"), ("b", "O")),
            _sent(1, ("b", "B-LOC"), ("a", "O")),
        ]
        part = build_identity_partition(gold)
        from groupdecay.corpus import Dataset

        ds = Dataset(tuple(gold), frozenset({"PER", "LOC"}), role="validation")
        return part, ds

    def test_perfect_predictions_zero(self):
        part, ds = self._identity_setup()
        preds = {s.id: [t.gold_label for t in s.tokens] for s in ds.sentences}
        ge = group_error(part, preds, ds)
        np.testing.assert_array_equal(ge.error, 0.0)

    def test_counting(self):
        # single-group partition over 10 tokens with 3 mismatches -> 0.3
        gold = [_sent(0, *[(f"x", "O")] * 10)]
        from groupdecay.corpus import Dataset

        ds = Dataset(tuple(gold), frozenset({"PER"}), role="validation")
        part = build_identity_partition(gold + [_sent(1, ("y", "O"))])
        preds = {0: ["O"] * 7 + ["B-PER"] * 3}
        ge = group_error(part, preds, ds)
        x_gid = token_group_ids(part, gold[0], None)[0]
        assert ge.error[x_gid] == pytest.approx(0.3)

    def test_weighted_loss_value(self):
        gold = [_sent(0, ("a", "B-PER"))]
        from groupdecay.corpus import Dataset

        ds = Dataset(tuple(gold), frozenset({"PER", "LOC"}), role="validation")
        part = build_identity_partition(gold + [_sent(1, ("b", "O"))])
        weights = {"PER": 0.9, "LOC": 0.1, "O": 0.5}
        ge = group_error(part, {0: ["B-LOC"]}, ds, class_weights=weights)
        gid = token_group_ids(part, gold[0], None)[0]
        assert ge.error[gid] == pytest.approx(0.5)

    def test_uniform_weights_match_unweighted(self):
        part, ds = self._identity_setup()
        preds = {0: ["B-PER", "O", "O"], 1: ["B-LOC", "B-LOC"]}
        plain = group_error(part, preds, ds)
        ones = group_error(
            part, preds, ds, class_weights={"PER": 1.0, "LOC": 1.0, "O": 1.0}
        )
        np.testing.assert_array_equal(plain.error, ones.error)

    def test_zero_mass_group_flagged(self):
        part, ds = self._identity_setup()
        bigger = build_identity_partition(
            list(ds.sentences) + [_sent(9, ("unseen", "O"))]
        )
        preds = {s.id: [t.gold_label for t in s.tokens] for s in ds.sentences}
        ge = group_error(bigger, preds, ds)
        unseen_gid = token_group_ids(bigger, _sent(9, ("unseen", "O")), None)[0]
        assert ge.mass[unseen_gid] == 0
        assert ge.error[unseen_gid] == 0.0

    def test_alignment_error_names_sentence(self):
        part, ds = self._identity_setup()
        with pytest.raises(AlignmentError, match="sentence 1"):
            group_error(part, {0: ["O", "O", "O"], 1: ["O"]}, ds)

    def test_errors_within_unit_interval(self):
        part, ds = self._identity_setup()
        preds = {0: ["B-PER", "B-PER", "B-PER"], 1: ["B-PER", "B-PER"]}
        ge = group_error(part, preds, ds)
        assert ((ge.error >= 0) & (ge.error <= 1)).all()


_WORDS = ["alpha", "beta", "gamma", "delta", "Paris", "Rome", "NATO", "UN", "x1", "mRNA"]
_TAGS = ["O", "B-PER", "I-PER", "B-LOC"]


def _random_sentences(rng, n, words):
    return [
        _sent(
            i,
            *[
                (words[int(rng.integers(len(words)))], _TAGS[int(rng.integers(len(_TAGS)))])
                for _ in range(int(rng.integers(1, 12)))
            ],
        )
        for i in range(n)
    ]


@functools.cache
def _pair_table_partitions():
    """An identity partition and one of every kind, at the default 10
    sentence groups, over sentences of one to four of ``_WORDS``."""
    table = _table(_WORDS, 4, np.random.default_rng(11))
    corpus = [
        _sent(i, *[(w, "O") for w in (_WORDS * 2)[i % 10 : i % 10 + 1 + i % 4]])
        for i in range(20)
    ]
    cfg = PartitionConfig(word_groups=4, word_subgroups=2, seed=2, kmeans_iters=10)
    return table, [build_identity_partition(corpus)] + [
        build_partition(corpus, table, kind, cfg) for kind in PartitionKind
    ]


class TestGroupIndex:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_pool=st.integers(1, 10),
        n_val=st.integers(1, 8),
        weighted=st.booleans(),
    )
    def test_matches_per_sentence_computation(self, seed, n_pool, n_val, weighted):
        # pool and validation ids both count from 0, so they collide; the
        # partitions also cover sentences outside both, so some groups have
        # zero mass in them
        rng = np.random.default_rng(seed)
        words = _WORDS[: int(rng.integers(6, len(_WORDS) + 1))]
        table = _table(_WORDS, 4, rng)
        pool = _random_sentences(rng, n_pool, words)
        val = _random_sentences(rng, n_val, words)
        corpus = [_sent(100 + i, (w, "O"), (words[i - 1], "O")) for i, w in enumerate(words)]
        corpus.append(_sent(99, ("Unseen", "O")))
        cfg = PartitionConfig(
            sentence_groups=3, word_groups=2, word_subgroups=2, seed=seed % 5, kmeans_iters=5
        )
        partitions = [build_identity_partition(corpus + pool + val)] + [
            build_partition(corpus + pool + val, table, kind, cfg) for kind in PartitionKind
        ]
        weights = {"PER": 0.9, "LOC": 0.3, "O": 0.5} if weighted else None
        preds = {s.id: [_TAGS[int(rng.integers(len(_TAGS)))] for _ in s.tokens] for s in val}
        gold = {s.id: [t.gold_label for t in s.tokens] for s in val}
        val_ds = Dataset(tuple(val), frozenset({"PER", "LOC"}), role="validation")
        for part in partitions:
            index = build_group_index(part, pool + val, table)
            assert np.array_equal(index.mass(), per_sentence_mass(part, pool + val, table))
            for row, s in enumerate(pool + val):
                gids, vals = index.delta(row)
                want_gids, want_vals = per_sentence_delta(part, s, table)
                assert np.array_equal(gids, want_gids) and np.array_equal(vals, want_vals)
            indptr, gids, vals = index.take(slice(0, n_pool)).pairs
            pairs = [per_sentence_delta(part, s, table) for s in pool]
            assert np.array_equal(indptr, np.cumsum([0] + [len(g) for g, _ in pairs]))
            assert np.array_equal(gids, np.concatenate([g for g, _ in pairs]))
            assert np.array_equal(vals, np.concatenate([v for _, v in pairs]))
            val_index = index.take(slice(n_pool, None))
            want_rates, want_mass = per_sentence_rates(part, val, gold, preds, table, weights)
            codes = {}
            losses = token_losses(
                tag_codes(aligned_labels(gold, val), codes),
                tag_codes(aligned_labels(preds, val), codes),
                codes,
                weights,
            )
            got = mismatch_rates(val_index, losses)
            assert np.array_equal(got.error, want_rates)
            assert np.array_equal(got.mass, want_mass)
            view = group_error(part, preds, val_ds, table, weights)
            assert np.array_equal(view.error, want_rates)
            if part.identity_vocab is not None:
                assert (got.mass == 0).any()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 8), data=st.data())
    def test_pair_table_of_taken_rows(self, seed, n, data):
        # reordered and repeated rows, or none, must give the pair table of an
        # index built on those sentences, byte for byte and in the same dtypes
        table, partitions = _pair_table_partitions()
        sentences = _random_sentences(np.random.default_rng(seed), n, _WORDS)
        rows = data.draw(st.lists(st.integers(0, n - 1), max_size=12))
        for part in partitions:
            index = build_group_index(part, sentences, table)
            want = per_sentence_mass(part, sentences, table)
            assert index.mass().tobytes() == want.tobytes()
            for row, s in enumerate(sentences):
                got, want = index.delta(row), per_sentence_delta(part, s, table)
                assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
            direct = build_group_index(part, [sentences[r] for r in rows], table)
            for got, want in zip(index.take(rows).pairs, direct.pairs):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_take_reorders_rows(self, small_corpus):
        sentences, table = small_corpus
        cfg = PartitionConfig(sentence_groups=4, word_groups=3, seed=0, kmeans_iters=10)
        for kind in (PartitionKind.SENTENCE, PartitionKind.WORD_SENTENCE):
            part = build_partition(sentences, table, kind, cfg)
            index = build_group_index(part, sentences, table)
            rows = [7, 2, 30, 2]
            sub = index.take(rows)
            direct = build_group_index(part, [sentences[r] for r in rows], table)
            assert np.array_equal(sub.lengths, direct.lengths)
            assert np.array_equal(sub.offsets, direct.offsets)
            if part.soft:
                assert np.array_equal(sub.membership, direct.membership)
            else:
                assert np.array_equal(sub.gids, direct.gids)

    def test_empty_index(self):
        part = build_identity_partition([_sent(0, ("a", "O")), _sent(1, ("b", "O"))])
        index = build_group_index(part, [])
        assert len(index) == 0
        np.testing.assert_array_equal(index.mass(), [0.0, 0.0])
        np.testing.assert_array_equal(mismatch_rates(index, np.zeros(0)).mass, [0.0, 0.0])

    def test_misaligned_labelings_raise(self):
        gold = [_sent(0, ("a", "O"), ("b", "O"))]
        index = build_group_index(build_identity_partition(gold), gold)
        codes = {}
        with pytest.raises(AlignmentError):
            token_losses(tag_codes([["O", "O"]], codes), tag_codes([["O"]], codes), codes)
        with pytest.raises(AlignmentError):
            mismatch_rates(index, np.zeros(1))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_weighted_rates_equal_the_string_rates(self, seed):
        # class-weighted group errors from tag codes equal, byte for byte,
        # those of comparing the tag strings; the predictions use a tag the
        # gold never does, and a type whose weight is not 1
        rng = np.random.default_rng(seed)
        table, partitions = _pair_table_partitions()
        sentences = _random_sentences(rng, 12, _WORDS)
        gold = [[t.gold_label for t in s.tokens] for s in sentences]
        preds = [[(_TAGS + ["I-LOC"])[int(rng.integers(5))] for _ in s.tokens] for s in sentences]
        assert "I-LOC" in {t for p in preds for t in p} - {t for g in gold for t in g}
        weights = {"O": 0.5, "PER": 0.9, "LOC": 0.3}
        codes = {}
        losses = token_losses(tag_codes(gold, codes), tag_codes(preds, codes), codes, weights)
        for part in partitions:
            index = build_group_index(part, sentences, table)
            got = mismatch_rates(index, losses)
            want = string_mismatch_rates(index, gold, preds, weights)
            assert got.error.tobytes() == want.error.tobytes()
            assert got.mass.tobytes() == want.mass.tobytes()

    def test_predicted_type_without_weight_raises(self):
        codes = {}
        gold = tag_codes([["O", "B-PER"]], codes)
        pred = tag_codes([["O", "B-ORG"]], codes)
        with pytest.raises(KeyError):
            token_losses(gold, pred, codes, {"O": 1.0, "PER": 1.0})

    def test_only_the_compared_labelings_are_weighed(self):
        # a run's code dict also holds the tags of other labelings, such as
        # a replayed checkpoint's, which need no weight here
        codes = {}
        tag_codes([["B-ZZZ", "PER"]], codes)
        gold, pred = tag_codes([["O", "B-PER"]], codes), tag_codes([["B-PER", "B-PER"]], codes)
        assert token_losses(gold, pred, codes, {"O": 0.5, "PER": 1.5}).tolist() == [1.0, 0.0]


@functools.cache
def _synth_partition_inputs():
    """A fixed 2,000-token gen-synth corpus, its surfaces respelt by word
    index into the four shape classes, and a seeded 8-d table over them."""
    ds = gen_synthetic(SynthSpec(seed=3), 2000, role="pool")
    spell = {}
    for s in ds.sentences:
        for t in s.tokens:
            i = int(t.surface[1:])
            spell[t.surface] = (t.surface, t.surface.upper(), "W" + t.surface,
                                t.surface[1:])[i % 4]
    sentences = [
        Sentence(id=s.id, tokens=tuple(Token(spell[t.surface], t.gold_label) for t in s.tokens),
                 doc_id=s.doc_id)
        for s in ds.sentences
    ]
    return sentences, _table(sorted(set(spell.values())), 8, np.random.default_rng(5))


# sha256 of ``save_partition`` for each kind over ``_synth_partition_inputs``,
# recorded with numpy 2.4.6.  The "wide" config asks for more sub-centres
# than a word cluster has distinct words, so some WORD slots stay empty.
_PINNED_CONFIGS = {
    "narrow": PartitionConfig(sentence_groups=5, word_groups=4, word_subgroups=3,
                              kmeans_iters=10, seed=0),
    "wide": PartitionConfig(sentence_groups=4, word_groups=3, word_subgroups=40,
                            temperature=0.5, kmeans_batch=64, kmeans_iters=10, seed=1),
}
RECORDED_PARTITIONS = {
    ("SENTENCE", "narrow"): "ba94e904c793438044cc07378185865c343af40074235122a7174357d7568ac7",
    ("SENTENCE", "wide"): "0b0907a44a06c4a82d68bcd5e6c85c89b4223d906b6a314b58a9917f57a68452",
    ("WORD", "narrow"): "36149b537a9aa04da2039e39d2c445785cf2cb83e5ea8fe2b04d52f35d777aac",
    ("WORD", "wide"): "2fe6aa1feb0272c6dd13e00a4ed0a7a2423c0c1c7177a475628c55d8a9644c75",
    ("WORD_SHAPE", "narrow"): "d6a14d03461aee632caaf64070794ad60a596338ebafb0e8f86c8322b5c5d65c",
    ("WORD_SHAPE", "wide"): "0a4c607846bc0af57e64c3886c7224e57852d00ac6c9f4885e1c35b19f1b8080",
    ("WORD_SENTENCE", "narrow"): "b32ef657bcaa3f8d520c7efce4d5be370901c282c167acc4c07ab6532897acf0",
    ("WORD_SENTENCE", "wide"): "d4938f33a23e1880fb1cd4a1c4e403d8d1f20bca27c9e66963599b8c2c7aa210",
}


@pytest.mark.parametrize("config", sorted(_PINNED_CONFIGS))
@pytest.mark.parametrize("kind", [k.value for k in PartitionKind])
def test_partition_file_reproduces_its_recorded_digest(kind, config):
    sentences, table = _synth_partition_inputs()
    part = build_partition(sentences, table, kind, _PINNED_CONFIGS[config])
    digest = hashlib.sha256(save_partition(part).encode()).hexdigest()
    assert digest == RECORDED_PARTITIONS[kind, config]
