import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdecay.corpus import Dataset, Sentence, Token
from groupdecay.decay import DecayFit, DecayParams
from groupdecay.partition import AlignmentError, GroupErrorRecord
from groupdecay.scoring import (
    CURVE_EXPORT_COLUMNS,
    Phrase,
    decode_phrases,
    export_decay_curves,
    gold_phrases,
    micro_f1,
)
from oracles import per_tag_decode_phrases, per_tag_micro_f1

TAGS = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]


def brute_force_phrases(tags, sentence_id=0):
    """Independent oracle: maximal same-type runs, split before every B."""
    phrases = []
    i = 0
    n = len(tags)
    while i < n:
        if tags[i] == "O":
            i += 1
            continue
        etype = tags[i].split("-", 1)[1]
        j = i + 1
        while j < n and tags[j] == f"I-{etype}":
            j += 1
        phrases.append(Phrase(sentence_id, i, j - 1, etype))
        i = j
    return phrases


class TestDecodePhrases:
    def test_basic_phrase(self):
        assert decode_phrases(["B-PER", "I-PER", "O"]) == [Phrase(0, 0, 1, "PER")]

    def test_orphan_inside_opens_phrase(self):
        assert decode_phrases(["I-LOC", "O"]) == [Phrase(0, 0, 0, "LOC")]

    def test_all_outside(self):
        assert decode_phrases(["O", "O"]) == []

    def test_adjacent_b_tags_split(self):
        assert decode_phrases(["B-PER", "B-PER"]) == [
            Phrase(0, 0, 0, "PER"),
            Phrase(0, 1, 1, "PER"),
        ]

    def test_type_switch_closes(self):
        assert decode_phrases(["B-PER", "I-LOC"]) == [
            Phrase(0, 0, 0, "PER"),
            Phrase(0, 1, 1, "LOC"),
        ]

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown tag"):
            decode_phrases(["B-PER", "wat"])

    def test_matches_brute_force_on_random_sequences(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            tags = [TAGS[int(rng.integers(len(TAGS)))] for _ in range(int(rng.integers(1, 12)))]
            assert decode_phrases(tags) == brute_force_phrases(tags)


def _dataset(*tag_seqs):
    sentences = []
    for i, tags in enumerate(tag_seqs):
        sentences.append(
            Sentence(
                id=i,
                tokens=tuple(Token(f"w{k}", t) for k, t in enumerate(tags)),
            )
        )
    types = {t.split("-", 1)[1] for tags in tag_seqs for t in tags if t != "O"}
    return Dataset(tuple(sentences), frozenset(types), role="test")


class TestMicroF1:
    def test_identity_is_perfect(self):
        gold = _dataset(["B-PER", "I-PER", "O"], ["O", "B-LOC"])
        preds = {0: ["B-PER", "I-PER", "O"], 1: ["O", "B-LOC"]}
        report = micro_f1(gold, preds)
        assert report.precision == report.recall == report.f1 == 1.0

    def test_half_matches(self):
        gold = _dataset(["B-PER", "I-PER", "O", "O", "B-LOC"])
        preds = {0: ["B-PER", "I-PER", "O", "B-LOC", "O"]}
        report = micro_f1(gold, preds)
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(0.5)
        assert report.f1 == pytest.approx(0.5)

    def test_uniform_weights_equal_unweighted(self):
        gold = _dataset(["B-PER", "O", "B-LOC"], ["B-LOC", "I-LOC"])
        preds = {0: ["B-PER", "O", "O"], 1: ["B-LOC", "O"]}
        plain = micro_f1(gold, preds)
        w = micro_f1(gold, preds, {"PER": 0.7, "LOC": 0.7})
        assert w.f1 == pytest.approx(plain.f1)
        assert w.precision == pytest.approx(plain.precision)

    def test_swapping_swaps_precision_recall(self):
        gold = _dataset(["B-PER", "O", "B-LOC", "O"])
        pred_tags = ["B-PER", "I-PER", "O", "B-LOC"]
        a = micro_f1(gold, {0: pred_tags})
        swapped_gold = _dataset(pred_tags)
        b = micro_f1(swapped_gold, {0: ["B-PER", "O", "B-LOC", "O"]})
        assert a.precision == pytest.approx(b.recall)
        assert a.recall == pytest.approx(b.precision)

    def test_no_matches_zero(self):
        gold = _dataset(["B-PER", "O"])
        report = micro_f1(gold, {0: ["O", "B-PER"]})
        assert report.f1 == 0.0

    def test_alignment_error(self):
        gold = _dataset(["B-PER", "O"])
        with pytest.raises(AlignmentError, match="sentence 0"):
            micro_f1(gold, {0: ["O"]})

    def test_matches_brute_force_matcher(self):
        # independent oracle: decode via runs, count exact tuple matches
        rng = np.random.default_rng(1)
        for _ in range(300):
            n_sents = int(rng.integers(1, 5))
            gold_tags, pred_tags = [], {}
            for i in range(n_sents):
                n = int(rng.integers(1, 10))
                gold_tags.append([TAGS[int(rng.integers(len(TAGS)))] for _ in range(n)])
                pred_tags[i] = [TAGS[int(rng.integers(len(TAGS)))] for _ in range(n)]
            gold = _dataset(*gold_tags)
            report = micro_f1(gold, pred_tags)
            g = {
                (i, p.start, p.end, p.type)
                for i, tags in enumerate(gold_tags)
                for p in brute_force_phrases(tags, i)
            }
            p = {
                (i, ph.start, ph.end, ph.type)
                for i, tags in pred_tags.items()
                for ph in brute_force_phrases(tags, i)
            }
            assert report.n_gold == len(g)
            assert report.n_predicted == len(p)
            assert report.n_matched == len(g & p)

    def test_weighted_score_independent_of_hash_seed(self):
        # The weighted totals are float sums over phrases; they must be added
        # in one fixed order, not in the order of a set of hashed strings.
        script = (
            "from groupdecay.scoring import micro_f1\n"
            "from groupdecay.simlab import SynthSpec, ReferenceTagger, gen_synthetic, "
            "tagger_predict\n"
            "spec = SynthSpec(seed=0)\n"
            "gold = gen_synthetic(spec, 20_000, role='validation', stream=1)\n"
            "tagger = ReferenceTagger(gen_synthetic(spec, 2_000, role='train', stream=0))\n"
            "preds = {i: r.labels for i, r in tagger_predict(tagger, gold).items()}\n"
            "r = micro_f1(gold, preds, {'E1': 0.1, 'E2': 1 / 3, 'E3': 0.7, 'E4': 0.0029})\n"
            "print(repr(r.f1), repr(r.n_gold), repr(r.n_predicted), repr(r.n_matched))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


# Gold tags use PER and LOC; predictions add ORG, a type no gold tag has.
GOLD_TAGS = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]
PRED_TAGS = GOLD_TAGS + ["B-ORG", "I-ORG"]
WEIGHTS = {"PER": 1 / 3, "LOC": 0.0029, "ORG": 0.7}


@st.composite
def scored_corpora(draw):
    """Gold sentences of 1-9 tokens (one-token ones included) and a
    prediction per sentence.  Tags are drawn freely, so orphan I- tags,
    type switches inside a run and B- after B- all occur."""
    lengths = draw(st.lists(st.integers(1, 9), min_size=0, max_size=6))
    ids = draw(st.lists(st.integers(0, 50), min_size=len(lengths),
                        max_size=len(lengths), unique=True))
    gold = [draw(st.lists(st.sampled_from(GOLD_TAGS), min_size=n, max_size=n))
            for n in lengths]
    preds = {i: draw(st.lists(st.sampled_from(PRED_TAGS), min_size=n, max_size=n))
             for i, n in zip(ids, lengths)}
    sentences = tuple(
        Sentence(i, tuple(Token(f"w{k}", t) for k, t in enumerate(tags)))
        for i, tags in zip(ids, gold)
    )
    return Dataset(sentences, frozenset()), preds


def _report_fields(r):
    return (r.precision, r.recall, r.f1, r.n_gold, r.n_predicted, r.n_matched, r.per_type,
            r.weights)


class TestAgainstPerTagOracle:
    """Phrase F1 over arrays against the per-tag decoder and scorer it
    replaced, for a Dataset and for a GoldPhrases table alike; weighted
    totals bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(scored_corpora())
    def test_reports_equal(self, corpus):
        gold, preds = corpus
        table = gold_phrases(gold)
        for weights in (None, WEIGHTS):
            expected = per_tag_micro_f1(gold, preds, weights)
            for g in (gold, table):
                got = micro_f1(g, preds, weights)
                assert _report_fields(got) == _report_fields(expected)
                for name in ("precision", "recall", "f1", "n_gold", "n_predicted",
                             "n_matched"):
                    assert repr(getattr(got, name)) == repr(getattr(expected, name))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(PRED_TAGS), max_size=12), st.integers(0, 9))
    def test_decode_equal(self, tags, sentence_id):
        assert decode_phrases(tags, sentence_id) == per_tag_decode_phrases(tags, sentence_id)

    @settings(max_examples=200, deadline=None)
    @given(scored_corpora(), st.data())
    def test_invalid_tag_same_error(self, corpus, data):
        gold, preds = corpus
        if not preds:
            return
        bad = data.draw(st.sampled_from(["PER", "X-PER", "B-", "b-PER", ""]))
        for sid in data.draw(st.lists(st.sampled_from(sorted(preds)), min_size=1,
                                      unique=True)):
            k = data.draw(st.integers(0, len(preds[sid]) - 1))
            preds[sid] = preds[sid][:k] + [bad] + preds[sid][k + 1:]
        with pytest.raises(ValueError) as expected:
            per_tag_micro_f1(gold, preds)
        for g in (gold, gold_phrases(gold)):
            with pytest.raises(ValueError) as got:
                micro_f1(g, preds, WEIGHTS)
            assert str(got.value) == str(expected.value)

    @settings(max_examples=100, deadline=None)
    @given(scored_corpora(), st.data())
    def test_misaligned_same_error(self, corpus, data):
        gold, preds = corpus
        if not preds:
            return
        sid = data.draw(st.sampled_from(sorted(preds)))
        if data.draw(st.booleans()):
            del preds[sid]
        else:
            preds[sid] = preds[sid] + ["O"]
        with pytest.raises(AlignmentError) as expected:
            per_tag_micro_f1(gold, preds)
        for g in (gold, gold_phrases(gold)):
            with pytest.raises(AlignmentError) as got:
                micro_f1(g, preds)
            assert str(got.value) == str(expected.value)

    def test_unlabelled_gold_has_no_table(self):
        gold = Dataset((Sentence(4, (Token("a", "O"), Token("b"))),), frozenset())
        with pytest.raises(ValueError, match="sentence 4: token 1 has no gold tag"):
            gold_phrases(gold)


class TestExportCurves:
    def _fit(self, J=3, T=4):
        rng = np.random.default_rng(2)
        params = DecayParams(
            a0=1.0, a_half=0.8, a1=0.1, a2=0.0, a3=0.0,
            b=rng.uniform(0.1, 0.8, J), c=rng.uniform(0.0, 0.2, J),
        )
        history = [
            GroupErrorRecord(
                t,
                train_mass=rng.uniform(1, 200, J),
                val_error=rng.uniform(0, 1, J),
                val_mass=np.full(J, 30.0),
            )
            for t in range(T)
        ]
        return DecayFit(params=params, history=history, objective_value=0.0, converged=True)

    def test_header_and_row_count(self):
        fit = self._fit(J=3, T=4)
        text = export_decay_curves([fit])
        lines = text.strip().splitlines()
        assert lines[0] == CURVE_EXPORT_COLUMNS
        assert len(lines) == 1 + 3 * 4

    def test_predicted_column_reproducible(self):
        from groupdecay.decay import eval_curve

        fit = self._fit()
        lines = export_decay_curves([fit]).strip().splitlines()[1:]
        for line in lines:
            cols = line.split(",")
            group, mass, predicted = int(cols[1]), float(cols[3]), float(cols[5])
            assert predicted == pytest.approx(
                eval_curve(fit.params, group, mass, clamp=True), abs=1e-9
            )

    def test_flat_fit_constant_column(self):
        params = DecayParams(
            a0=1.0, a_half=0.0, a1=0.0, a2=0.0, a3=0.0,
            b=np.zeros(2), c=np.array([0.3, 0.4]),
        )
        history = [
            GroupErrorRecord(
                t, np.array([10.0 * (t + 1), 5.0]), np.array([0.3, 0.4]), np.full(2, 9.0)
            )
            for t in range(3)
        ]
        fit = DecayFit(params=params, history=history, objective_value=0.0, converged=True)
        lines = export_decay_curves([fit]).strip().splitlines()[1:]
        by_group = {}
        for line in lines:
            cols = line.split(",")
            by_group.setdefault(cols[1], set()).add(cols[5])
        assert all(len(v) == 1 for v in by_group.values())
