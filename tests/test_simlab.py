import hashlib
import math
import random
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdecay import simlab, strategies
from groupdecay.corpus import Dataset, Sentence, Token, parse_conll, serialize_conll
from groupdecay.simlab import (
    ReferenceTagger,
    SynthSpec,
    gen_synthetic,
    make_pseudo_pool,
    one_hot_embeddings,
    tagger_predict,
)
from oracles import (
    PerSentenceTagger, dict_tagger_predict, mean_assign_types, per_round_pseudo_labels,
    per_sentence_predict,
)


@pytest.fixture(scope="module")
def spec():
    return SynthSpec(seed=3)


@pytest.fixture(scope="module")
def corpus(spec):
    return gen_synthetic(spec, 30_000, role="pool", stream=0)


class TestSynthSpec:
    def test_category_split(self, spec):
        cats = Counter(spec.category_of(w) for w in spec.surfaces)
        assert cats == {1: 50, 2: 25, 3: 25}

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n_always_none=10)

    def test_word_tables_fixed_across_streams(self, spec):
        l1, w1 = spec.word_tables()
        l2, w2 = spec.word_tables()
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(w1, w2)
        assert ((w1 >= 0.1) & (w1 <= 1.0)).all()
        np.testing.assert_allclose(l1.sum(axis=1), 1.0)


def _category_oracle_proportions(spec, n_tokens, seed):
    """Independent simulation of just the category process (no words)."""
    rng = random.Random(seed)
    first = [1] * spec.n_always_none + [2] * spec.n_noise + [3] * spec.n_context
    counts = Counter()
    total = 0
    while total < n_tokens:
        cat = first[rng.randrange(spec.vocab_size)]
        length = 1
        counts[cat] += 1
        while length < spec.max_length:
            if length >= spec.min_length and rng.random() < spec.stop_probability:
                break
            if rng.random() >= spec.stay_probability:
                cat = rng.choice([c for c in (1, 2, 3) if c != cat])
            counts[cat] += 1
            length += 1
        total += length
    return {c: counts[c] / total for c in (1, 2, 3)}


class TestGenSynthetic:
    def test_deterministic_per_seed(self, spec):
        a = gen_synthetic(spec, 2000, stream=5)
        b = gen_synthetic(spec, 2000, stream=5)
        assert a.sentences == b.sentences

    def test_streams_differ(self, spec):
        a = gen_synthetic(spec, 2000, stream=5)
        b = gen_synthetic(spec, 2000, stream=6)
        assert a.sentences != b.sentences

    def test_lengths_within_bounds(self, corpus):
        lengths = [len(s) for s in corpus.sentences]
        assert min(lengths) >= 5 and max(lengths) <= 50

    def test_category1_always_outside(self, spec, corpus):
        for s in corpus.sentences:
            for t in s.tokens:
                if spec.category_of(t.surface) == 1:
                    assert t.gold_label == "O"

    def test_category3_never_outside(self, spec, corpus):
        for s in corpus.sentences:
            for t in s.tokens:
                if spec.category_of(t.surface) == 3:
                    assert t.gold_label != "O"

    def test_bio_tags_well_formed(self, corpus):
        # generated runs encode as B- openings, so no orphan I- tags
        from groupdecay.corpus import parse_conll, serialize_conll

        assert parse_conll(serialize_conll(corpus)).bio_warnings == 0

    def test_category_proportions_match_independent_oracle(self, spec, corpus):
        got = Counter()
        for s in corpus.sentences:
            for t in s.tokens:
                got[spec.category_of(t.surface)] += 1
        total = corpus.token_count
        samples = [
            _category_oracle_proportions(spec, 30_000, seed) for seed in range(12)
        ]
        for cat in (1, 2, 3):
            values = np.asarray([s[cat] for s in samples])
            mean, sd = values.mean(), values.std(ddof=1)
            band = max(3 * sd, 0.005)
            assert abs(got[cat] / total - mean) < band

    def test_token_budget_met_with_sentence_overshoot(self, spec):
        ds = gen_synthetic(spec, 1000, stream=7)
        assert ds.token_count >= 1000
        assert ds.token_count - len(ds.sentences[-1]) < 1000

    def test_documents_grouping(self, spec):
        ds = gen_synthetic(spec, 1500, stream=8, sentences_per_doc=4)
        docs = [s.doc_id for s in ds.sentences]
        assert docs[0] == 0 and all(d is not None for d in docs)
        assert max(Counter(docs).values()) <= 4


# sha256 of serialize_conll(gen_synthetic(SynthSpec(seed=s), n, stream=s,
# sentences_per_doc=d)), keyed by (n, s, d); recorded when every context
# word was drawn by rng.choice
RECORDED_SYNTHETIC = {
    (10_000, 0, None): "890757b58f79633972d5734fd773e0b5dae53ec561ddc43353a44dd9420ebc00",
    (10_000, 0, 5): "0b498dded9df313c9bd046a32509e35c8bcef0eafd6c723b3369e4b4bb6ff408",
    (10_000, 1, None): "6a8069cbbf579b4451356ea9a325ea2453ea13fd0bbd97241d41337569d09aea",
    (10_000, 1, 5): "c24dd6bf9d82d19d1f82e5303874780114fdba6fbb9f9384b88cc24c2e8aad87",
    (10_000, 2, None): "9c72aee1dd7f5a24dd2facfac0dafcbd508542774cd9d724cb8cf39a74897d37",
    (10_000, 2, 5): "3b41139ba8c95a9ca390aa7365ed11331007481b33fe4e3de5b7b84b89c6eb2d",
    (10_000, 3, None): "c9a6dc4a1f261e3718f556ddde821842ced869ceff68f79289b8bfd2410caab6",
    (10_000, 3, 5): "829aaa4d98d08a516604d63ab93ef0c5ab3ff103e2daf831a463327393d1d18d",
    (10_000, 4, None): "ca0b3733d8e00169c08b4a2d077056d15bd731149623b935ed19b3790df3e306",
    (10_000, 4, 5): "a06333789e7fa9ee710f61e6b3995879f0de2de698a6a85f1fd3af867547647d",
    (10_000, 5, None): "fbf911d143b6e656c8a9f231f589e6e539f3df35248a8b440c00d6dbfc318d77",
    (10_000, 5, 5): "0fc2dc29beead438390a0711c792c59bf5147629b51a23262be3729029ac9aa9",
    (10_000, 6, None): "dde88f98e81d0aec57f0eed1ab4abd612167e7f29089635adf6458ef60e62fef",
    (10_000, 6, 5): "240863dbfb20062014dd2d80d13c6f00d243e3c9ec970e16200f046b4bd309dd",
    (10_000, 7, None): "d0f966c3edf715f6f555fa144ee2ac3e1722613181e72de1dcf7f9a84e65b5d0",
    (10_000, 7, 5): "91558a19f932d29dfee7e99b6895d4ce1adb0b78f78d22eb320a201609583f0b",
    (10_000, 8, None): "202ddbf72ff48b518cc39195b8c354ada23233befd9e9f3c82d692115559f7d0",
    (10_000, 8, 5): "52120b6e4db7410df18299faf6d7af5c18048206734e5e6a2506215812522abc",
    (10_000, 9, None): "ae2de90f4cadd91c3b58cb5cfffa3332b3b1d57628022ffa45748f2d91e1c2ba",
    (10_000, 9, 5): "8616b954faa9dc10404f37753006ec29d596e8cd945b142496990364dbaafee7",
    (100_000, 0, None): "f50c2972e7039b5622bff8f0b1385f3fa9e943d39bfea328aa4412843f9ba2e3",
    (100_000, 0, 5): "1d71f9cb175cbdcde7526816a0f81337f2122213ebf603bd25e3c1342ae9fd10",
    (100_000, 1, None): "a99bf4b50fe9be14da66394d24b9aa10e59d02a8030a17fa66076915e9413c6b",
    (100_000, 1, 5): "4321eb0469467e0c6fecfe1d8b714e280509e06547538d4a2baadd319faef83f",
}


@pytest.mark.parametrize("n_tokens, seed, sentences_per_doc", RECORDED_SYNTHETIC)
def test_generated_bytes_are_recorded(n_tokens, seed, sentences_per_doc):
    ds = gen_synthetic(SynthSpec(seed=seed), n_tokens, stream=seed,
                       sentences_per_doc=sentences_per_doc)
    digest = hashlib.sha256(serialize_conll(ds).encode()).hexdigest()
    assert digest == RECORDED_SYNTHETIC[n_tokens, seed, sentences_per_doc]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 50), st.booleans())
def test_assign_types_equals_mean_argmax(seed, length, ties):
    # the running sum over neighbour rows picks the type np.mean's argmax
    # picked, on Dirichlet rows and on rows of few distinct values, which
    # make equal means common
    spec = SynthSpec()
    rng = np.random.default_rng(seed)
    likelihood = rng.dirichlet([1.0] * spec.n_types, size=spec.n_context)
    if ties:
        likelihood = rng.integers(0, 3, size=likelihood.shape) / 10.0
    word_ids = rng.integers(0, spec.vocab_size, size=length).tolist()
    got = simlab._assign_types(word_ids, spec, likelihood.tolist(), np.random.default_rng(seed))
    want = mean_assign_types(word_ids, spec, likelihood, np.random.default_rng(seed))
    assert got == want


class TestOneHotEmbeddings:
    def test_basis_vectors(self, spec):
        table = one_hot_embeddings(spec)
        assert table.dim == 100
        v = table.get("w007")
        assert v[7] == 1.0 and v.sum() == 1.0


def _repeat_dataset(n, extra_label_sentences=()):
    sents = [
        Sentence(id=i, tokens=(Token("x", "O"),) * 5) for i in range(n)
    ]
    base = len(sents)
    for k, (w, tag) in enumerate(extra_label_sentences):
        sents.append(Sentence(id=base + k, tokens=(Token(w, tag),) * 5))
    return Dataset(tuple(sents), frozenset({"E1", "E2"}), role="train")


class TestReferenceTagger:
    def test_count_dominance(self):
        probs = []
        for n in (1, 4, 16, 64):
            train = _repeat_dataset(n, [("y", "B-E1")])
            tagger = ReferenceTagger(train, smoothing_alpha=1.0)
            scores = tagger.scores([train.sentences[0]])[0]
            p = float(np.exp(scores[0, tagger.labels.index("O")]))
            probs.append(p)
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert probs[-1] > 0.9

    def test_unseen_word_posterior_matches_closed_form(self):
        train = _repeat_dataset(
            4,
            [("y", "B-E1"), ("z", "B-E2"), ("q", "I-E1"), ("r", "I-E2")],
        )
        tagger = ReferenceTagger(train, smoothing_alpha=1.0)
        assert len(tagger.labels) >= 5
        novel = Sentence(id=0, tokens=(Token("unseen1"), Token("unseen2"),
                                       Token("unseen3"), Token("unseen4"),
                                       Token("unseen5")))
        scores = tagger.scores([novel])[0]
        mid = np.exp(scores[2])  # middle token: all context unseen too
        V = tagger.vocab_size
        expected = (tagger.label_totals + 1.0 * V) ** -4.0
        expected = expected / expected.sum()
        np.testing.assert_allclose(mid, expected, rtol=1e-9)
        assert mid.max() < 0.5

    def test_distribution_sums_to_one(self, corpus):
        tagger = ReferenceTagger(
            Dataset(corpus.sentences[:50], corpus.label_inventory, "train")
        )
        for m in tagger.scores(list(corpus.sentences[50:55])):
            np.testing.assert_allclose(np.exp(m).sum(axis=1), 1.0, atol=1e-9)

    def test_three_decay_regimes(self, spec, corpus):
        val = gen_synthetic(spec, 6000, role="validation", stream=1)

        def cat_errors(train_tokens):
            acc, total = [], 0
            for s in corpus.sentences:
                if total >= train_tokens:
                    break
                acc.append(s)
                total += len(s)
            tagger = ReferenceTagger(
                Dataset(tuple(acc), corpus.label_inventory, "train")
            )
            recs = tagger_predict(tagger, val)
            err = {1: [0, 0], 2: [0, 0], 3: [0, 0]}
            for s in val.sentences:
                for t, p in zip(s.tokens, recs[s.id].labels):
                    c = spec.category_of(t.surface)
                    err[c][0] += int(t.gold_label != p)
                    err[c][1] += 1
            return {c: e / n for c, (e, n) in err.items()}

        early = cat_errors(1000)
        late = cat_errors(16000)
        # memorizable words: fast decay to near zero
        assert late[1] < 0.05 and late[1] < early[1]
        # noise words: high plateau, barely moving
        assert late[2] > 0.5 and abs(early[2] - late[2]) < 0.08
        # context words: real but slow decay, between the other regimes
        assert early[3] - late[3] > 0.05
        assert late[1] < late[3] < late[2]

    def test_noise_plateau_matches_bayes_oracle(self, spec, corpus):
        # oracle: error of the best fixed tag per noise word, measured on a
        # large independent sample
        big = gen_synthetic(spec, 100_000, role="pool", stream=9)
        counts = defaultdict(Counter)
        for s in big.sentences:
            for t in s.tokens:
                if spec.category_of(t.surface) == 2:
                    counts[t.surface][t.gold_label] += 1
        total = sum(sum(c.values()) for c in counts.values())
        best = sum(c.most_common(1)[0][1] for c in counts.values())
        oracle = 1.0 - best / total

        val = gen_synthetic(spec, 6000, role="validation", stream=1)
        tagger = ReferenceTagger(corpus)
        recs = tagger_predict(tagger, val)
        wrong = seen = 0
        for s in val.sentences:
            for t, p in zip(s.tokens, recs[s.id].labels):
                if spec.category_of(t.surface) == 2:
                    wrong += int(t.gold_label != p)
                    seen += 1
        assert abs(wrong / seen - oracle) < 0.05


_WORDS = ["a", "b", "c", "d", "e", "f"]
_TAGS = ["O", "B-E1", "I-E1", "B-E2", "I-E2"]


def _random_sentences(rng, n, words, labeled=True):
    """``n`` sentences of 1-6 tokens, so windows cross sentence edges."""
    return [
        Sentence(
            id=i,
            tokens=tuple(
                Token(
                    words[int(rng.integers(len(words)))],
                    _TAGS[int(rng.integers(len(_TAGS)))] if labeled else None,
                )
                for _ in range(int(rng.integers(1, 7)))
            ),
        )
        for i in range(n)
    ]


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestFlatTaggerMatchesPerSentence:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_train=st.integers(1, 8),
        n_eval=st.integers(1, 8),
        alpha=st.sampled_from([1.0, 0.3]),
    )
    def test_bit_identical_to_per_sentence_tagger(self, seed, n_train, n_eval, alpha):
        # the evaluation sentences also use surfaces no training sentence has
        rng = np.random.default_rng(seed)
        train = Dataset(
            tuple(_random_sentences(rng, n_train, _WORDS[:4])), frozenset({"E1", "E2"}), "train"
        )
        evaluation = _random_sentences(rng, n_eval, _WORDS, labeled=False)
        tagger = ReferenceTagger(train, alpha)
        reference = PerSentenceTagger(train, alpha)
        assert tagger.labels == reference.labels
        # the reference keeps its pad row under a surface key; the tagger does not
        assert {**tagger.surface_index, "\x00pad": tagger.vocab_size - 1} == reference.surface_index
        assert tagger.vocab_size == reference.vocab_size
        assert _same_bits(tagger.token_counts, reference.token_counts)
        assert len(tagger.context_counts) == len(reference.context_counts)
        for got, want in zip(tagger.context_counts, reference.context_counts):
            assert _same_bits(got, want)
        assert _same_bits(tagger.label_totals, reference.label_totals)
        for got, want in zip(tagger.scores(evaluation), reference.scores(evaluation)):
            assert _same_bits(got, want)
        assert tagger.predict_labels(evaluation) == reference.predict_labels(evaluation)
        for kwargs in ({}, {"want_logprobs": True}, {"ensemble_k": 4, "seed": seed % 7}):
            got = tagger_predict(tagger, evaluation, **kwargs)
            assert got == per_sentence_predict(reference, evaluation, **kwargs)


class TestTaggerPredict:
    def test_no_ensemble_field_by_default(self, corpus):
        tagger = ReferenceTagger(
            Dataset(corpus.sentences[:30], corpus.label_inventory, "train")
        )
        recs = tagger_predict(tagger, list(corpus.sentences[30:33]))
        assert all(r.ensemble is None and r.logprobs is None for r in recs.values())

    def test_deterministic_with_seed(self, corpus):
        tagger = ReferenceTagger(
            Dataset(corpus.sentences[:30], corpus.label_inventory, "train")
        )
        a = tagger_predict(tagger, list(corpus.sentences[30:33]), ensemble_k=3, seed=5)
        b = tagger_predict(tagger, list(corpus.sentences[30:33]), ensemble_k=3, seed=5)
        assert a == b

    def test_labels_are_argmax_of_logprobs(self, corpus):
        tagger = ReferenceTagger(
            Dataset(corpus.sentences[:30], corpus.label_inventory, "train")
        )
        recs = tagger_predict(tagger, list(corpus.sentences[30:40]), want_logprobs=True)
        for r in recs.values():
            r.validate()

    def test_ensemble_shape(self, corpus):
        tagger = ReferenceTagger(
            Dataset(corpus.sentences[:30], corpus.label_inventory, "train")
        )
        recs = tagger_predict(tagger, list(corpus.sentences[30:32]), ensemble_k=4)
        for r in recs.values():
            assert len(r.ensemble) == 4
            r.validate()


def _float_bits(values) -> bytes:
    return np.asarray(list(values), dtype=np.float64).tobytes()


class TestTaggerPredictBatch:
    """``tagger_predict`` returns a batch whose records are the dict
    records it built before, bit for bit, and which reads as the
    benchmark's recorder reads it."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_train=st.integers(1, 12),
        n_eval=st.integers(1, 10),
        alpha=st.sampled_from([1.0, 0.3]),
        ensemble_k=st.sampled_from([None, 2, 3, 10]),
        want_logprobs=st.booleans(),
    )
    def test_records_equal_the_dict_records(
        self, seed, n_train, n_eval, alpha, ensemble_k, want_logprobs
    ):
        # few training sentences, so bootstrap members lack surfaces and
        # labels; the evaluation sentences also use surfaces none was trained on
        rng = np.random.default_rng(seed)
        train = Dataset(
            tuple(_random_sentences(rng, n_train, _WORDS[:4])), frozenset({"E1", "E2"}), "train"
        )
        evaluation = _random_sentences(rng, n_eval, _WORDS, labeled=False)
        tagger = ReferenceTagger(train, alpha)
        got = tagger_predict(tagger, evaluation, want_logprobs, ensemble_k, seed % 5)
        want = dict_tagger_predict(tagger, evaluation, want_logprobs, ensemble_k, seed % 5)
        assert list(got) == list(want)
        for sid, rec in want.items():
            mine = got[sid]
            assert (mine.sentence_id, mine.labels, mine.ensemble) == (
                rec.sentence_id, rec.labels, rec.ensemble
            )
            if want_logprobs:
                assert [list(lp) for lp in mine.logprobs] == [list(lp) for lp in rec.logprobs]
                assert _float_bits(v for lp in mine.logprobs for v in lp.values()) == (
                    _float_bits(v for lp in rec.logprobs for v in lp.values())
                )
            else:
                assert mine.logprobs is rec.logprobs is None

    def test_reads_as_the_benchmark_reads_it(self, corpus):
        tagger = ReferenceTagger(Dataset(corpus.sentences[:40], corpus.label_inventory, "train"))
        sentences = list(corpus.sentences[40:90])
        batch = tagger_predict(tagger, sentences, want_logprobs=True)
        # the recorder's least confidence: items(), then each token dict's values()
        for (sid, rec), score in zip(batch.items(), strategies.score_us(batch).tolist()):
            best, worst = 0.0, 0.0
            for lp in rec.logprobs:
                best += max(lp.values())
                worst = max(worst, abs(math.fsum(math.exp(v) for v in lp.values()) - 1.0))
            assert -best / len(rec.labels) == score and worst < 1e-9
        batch = tagger_predict(tagger, sentences, ensemble_k=4)
        for s in sentences:
            passes = batch[s.id].ensemble
            assert len(passes) == 4 and all(len(p) == len(s) for p in passes)

    def test_repeated_sentence_ids_are_refused(self, corpus):
        tagger = ReferenceTagger(Dataset(corpus.sentences[:40], corpus.label_inventory, "train"))
        with pytest.raises(ValueError, match="repeats"):
            tagger_predict(tagger, [corpus.sentences[50]] * 2)


class TestMakePseudoPool:
    def test_oracle_agrees_with_pseudo_labels(self, spec, corpus):
        pool_inputs = gen_synthetic(spec, 5000, role="pool", stream=2)
        pseudo, oracle = make_pseudo_pool(corpus, pool_inputs)
        preds = tagger_predict(oracle, pseudo)
        for s in pseudo.sentences:
            assert tuple(t.gold_label for t in s.tokens) == preds[s.id].labels

    def test_structure_preserved(self, spec, corpus):
        pool_inputs = gen_synthetic(spec, 5000, role="pool", stream=2)
        pseudo, _ = make_pseudo_pool(corpus, pool_inputs)
        assert len(pseudo) == len(pool_inputs)
        assert pseudo.token_count == pool_inputs.token_count

    def test_noise_words_get_noisy_pseudo_labels(self, spec, corpus):
        # systematic noise: per-word pseudo-label entropy stays positive
        pool_inputs = gen_synthetic(spec, 20_000, role="pool", stream=2)
        pseudo, _ = make_pseudo_pool(corpus, pool_inputs)
        counts = defaultdict(Counter)
        for s in pseudo.sentences:
            for t in s.tokens:
                if spec.category_of(t.surface) == 2:
                    counts[t.surface][t.gold_label] += 1
        entropies = []
        for c in counts.values():
            total = sum(c.values())
            probs = [v / total for v in c.values()]
            entropies.append(-sum(p * math.log(p) for p in probs))
        assert np.mean(entropies) > 0.0


    def test_retraining_on_pseudo_pool_reproduces_oracle(self, spec, corpus):
        pool_inputs = gen_synthetic(spec, 5000, role="pool", stream=2)
        pseudo, oracle = make_pseudo_pool(corpus, pool_inputs)
        student = ReferenceTagger(pseudo)
        assert student.labels == oracle.labels
        assert np.array_equal(student.token_counts, oracle.token_counts)
        for got, want in zip(student.context_counts, oracle.context_counts):
            assert np.array_equal(got, want)

    def test_labels_match_per_round_reference(self, spec, corpus):
        pool_inputs = gen_synthetic(spec, 5000, role="pool", stream=2)
        pseudo, _ = make_pseudo_pool(corpus, pool_inputs, smoothing_alpha=0.3)
        want = per_round_pseudo_labels(corpus, pool_inputs, smoothing_alpha=0.3)
        assert [list(s.labels) for s in pseudo.sentences] == want

    def test_repeat_calls_give_identical_pools(self, spec, corpus):
        pool_inputs = gen_synthetic(spec, 5000, role="pool", stream=2)
        first, _ = make_pseudo_pool(corpus, pool_inputs)
        second, _ = make_pseudo_pool(corpus, pool_inputs)
        assert first == second

    def test_no_fixed_point_within_bound_raises(self, spec, corpus, monkeypatch):
        monkeypatch.setattr(simlab, "_PSEUDO_MAX_ROUNDS", 1)
        pool_inputs = gen_synthetic(spec, 5000, role="pool", stream=2)
        with pytest.raises(RuntimeError, match=r"\d+ pool labels still changing"):
            make_pseudo_pool(corpus, pool_inputs)


class TestTaggerSerialization:
    def test_surface_spelled_like_pad_is_ordinary(self):
        # "\x01pad" sorts to the same row, so both taggers must agree exactly
        text = "a O\n{} B-E1\nb O\n\n{} B-E1\na O\n"
        tagger = ReferenceTagger(parse_conll(text.format("\x00pad", "\x00pad"), role="train"))
        renamed = ReferenceTagger(parse_conll(text.format("\x01pad", "\x01pad"), role="train"))
        assert _same_bits(tagger.token_counts, renamed.token_counts)
        for got, want in zip(tagger.context_counts, renamed.context_counts):
            assert _same_bits(got, want)
        probe = parse_conll(text.format("\x00pad", "c"), role="pool").sentences
        renamed_probe = parse_conll(text.format("\x01pad", "c"), role="pool").sentences
        for got, want in zip(tagger.scores(probe), renamed.scores(renamed_probe)):
            assert _same_bits(got, want)
        assert tagger.predict_labels(probe)[0][1] == "B-E1"
