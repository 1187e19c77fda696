import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdecay.corpus import (
    CorpusFormatError,
    Sentence,
    ShapeClass,
    Token,
    load_embeddings,
    parse_conll,
    sentence_embedding,
    sentence_embeddings,
    serialize_conll,
    shape_class,
)
from oracles import stacked_sentence_embeddings


class TestParseConll:
    def test_two_token_sentence(self):
        ds = parse_conll("EU B-ORG\nrejects O\n\n")
        assert len(ds) == 1
        assert ds.token_count == 2
        assert ds.label_inventory == {"ORG"}
        assert ds.sentences[0].surfaces == ("EU", "rejects")
        assert ds.sentences[0].labels == ("B-ORG", "O")

    def test_empty_input(self):
        ds = parse_conll("")
        assert len(ds) == 0
        assert ds.bio_warnings == 0

    def test_orphan_inside_tag_is_kept_but_warned(self):
        text = "EU B-ORG\nrejects O\n\nParis I-LOC\ntoday O\n"
        ds = parse_conll(text)
        assert len(ds) == 2
        assert ds.bio_warnings == 1
        assert ds.sentences[1].labels[0] == "I-LOC"

    def test_warning_after_different_type(self):
        ds = parse_conll("a B-PER\nb I-LOC\n")
        assert ds.bio_warnings == 1

    def test_unlabeled_pool_file(self):
        ds = parse_conll("word1\nword2\n\nword3\n")
        assert len(ds) == 2
        assert not ds.has_labels

    def test_intermediate_columns_ignored(self):
        ds = parse_conll("EU NNP I-NP B-ORG\n")
        assert ds.sentences[0].tokens[0].gold_label == "B-ORG"

    def test_docstart_increments_doc_id(self):
        text = "-DOCSTART- O\n\na O\n\n-DOCSTART- O\n\nb O\nc O\n\n"
        ds = parse_conll(text)
        assert [s.doc_id for s in ds.sentences] == [0, 1]

    def test_no_docstart_gives_none_doc(self):
        ds = parse_conll("a O\n\n")
        assert ds.sentences[0].doc_id is None

    def test_non_utf8_bytes_error_with_line(self):
        stream = io.BytesIO("a O\n".encode() + b"\xff\xfe oops\n")
        with pytest.raises(CorpusFormatError) as err:
            parse_conll(stream)
        assert err.value.line_number == 2

    def test_bad_tag_is_format_error(self):
        with pytest.raises(CorpusFormatError):
            parse_conll("a NOTATAG\n")


@st.composite
def conll_datasets(draw):
    n_sentences = draw(st.integers(1, 5))
    use_docs = draw(st.booleans())
    lines = []
    for i in range(n_sentences):
        if use_docs and draw(st.booleans()):
            lines.append("-DOCSTART-")
            lines.append("")
        n_tokens = draw(st.integers(1, 6))
        for _ in range(n_tokens):
            surface = draw(st.text(alphabet="abcXY.0", min_size=1, max_size=4))
            tag = draw(st.sampled_from(["O", "B-PER", "I-PER", "B-LOC", "I-LOC"]))
            lines.append(f"{surface} {tag}")
        lines.append("")
    return "\n".join(lines)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(conll_datasets())
    def test_parse_serialize_parse_is_identity(self, text):
        first = parse_conll(text)
        second = parse_conll(serialize_conll(first))
        assert first.sentences == second.sentences
        assert first.label_inventory == second.label_inventory
        # serialized form is a fixed point
        assert serialize_conll(first) == serialize_conll(second)


class TestLoadEmbeddings:
    def test_normalizes_to_unit_norm(self):
        table = load_embeddings("a 3 4\n", normalize=True)
        np.testing.assert_allclose(table.vectors["a"], [0.6, 0.8])

    def test_cosine_distance_identity(self):
        table = load_embeddings("x 1 0\ny 0 1\n", normalize=True)
        x, y = table.vectors["x"], table.vectors["y"]
        assert abs(np.sum((x - y) ** 2) - 2 * (1 - x @ y)) < 1e-9

    def test_cosine_identity_random_vectors(self):
        rng = np.random.default_rng(5)
        lines = "\n".join(
            f"w{i} " + " ".join(repr(float(v)) for v in rng.normal(size=4))
            for i in range(20)
        )
        table = load_embeddings(lines, normalize=True)
        vecs = list(table.vectors.values())
        for i in range(0, 18, 3):
            x, y = vecs[i], vecs[i + 1]
            cos = x @ y
            assert abs(np.sum((x - y) ** 2) - 2 * (1 - cos)) < 1e-9

    def test_zero_vector_replaced_by_oov(self):
        table = load_embeddings("a 0 0\nb 1 0\n", normalize=True)
        np.testing.assert_allclose(table.vectors["a"], table.oov_vector)
        assert abs(np.linalg.norm(table.oov_vector) - 1.0) < 1e-9

    def test_inconsistent_dimension_reports_line(self):
        with pytest.raises(CorpusFormatError) as err:
            load_embeddings("a 1 2\nb 1 2 3\n")
        assert err.value.line_number == 2

    @pytest.mark.parametrize(
        "text,line",
        [("w1 1 nan\n", 1), ("a 1 0\nb inf 1\n", 2), ("a 1 0\nb 1 1e400\n", 2),
         ("a 1 0\nb 1e200 1e200\nc 0 1\n", 2), ("a 1 0\na -Infinity 0\n", 2)],
        ids=["nan", "inf", "overflow", "norm-overflow", "duplicate"],
    )
    def test_non_finite_number_reports_line(self, text, line):
        for normalize in (True, False):
            with pytest.raises(CorpusFormatError) as err:
                load_embeddings(text, normalize=normalize)
            assert err.value.line_number == line

    def test_non_finite_entry_replaced_by_a_later_one_is_ignored(self):
        table = load_embeddings("a nan 0\na 0 1\n", normalize=False)
        np.testing.assert_allclose(table.vectors["a"], [0, 1])

    def test_duplicate_surface_last_wins(self):
        table = load_embeddings("a 1 0\na 0 1\n", normalize=False)
        np.testing.assert_allclose(table.vectors["a"], [0, 1])
        assert table.duplicate_warnings == 1


def _sentence(*surfaces):
    return Sentence(id=0, tokens=tuple(Token(surface=s) for s in surfaces))


class TestSentenceEmbedding:
    def test_single_token_is_identity(self):
        table = load_embeddings("a 3 4\n", normalize=True)
        np.testing.assert_allclose(sentence_embedding(_sentence("a"), table), [0.6, 0.8])

    def test_opposite_vectors_cancel(self):
        table = load_embeddings("p 1 0\nq -1 0\n", normalize=False)
        np.testing.assert_allclose(
            sentence_embedding(_sentence("p", "q"), table), [0.0, 0.0]
        )

    def test_mean_not_renormalized(self):
        table = load_embeddings("a 0.6 0.8\nb 1 0\n", normalize=False)
        np.testing.assert_allclose(
            sentence_embedding(_sentence("a", "b"), table), [0.8, 0.4]
        )

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        lengths=st.lists(st.integers(1, 40), max_size=30),
        dim=st.integers(1, 9),
    )
    def test_matrix_equals_the_stacked_loop(self, seed, lengths, dim):
        # vectors of mixed magnitudes, so another order of adding gives other
        # bits; surfaces outside the table read its OOV vector; one-token
        # rows and no rows at all
        rng = np.random.default_rng(seed)
        known = [f"w{i}" for i in range(6)]
        table = load_embeddings(
            "".join(
                w + " " + " ".join(repr(float(v)) for v in rng.normal(size=dim) * 10.0 ** e)
                + "\n"
                for w, e in zip(known, rng.integers(-3, 4, size=len(known)))
            ),
            normalize=False,
        )
        surfaces = known + ["oov1", "oov2"]
        sentences = [
            _sentence(*(surfaces[i] for i in rng.integers(len(surfaces), size=n)))
            for n in lengths
        ]
        got = sentence_embeddings(sentences, table)
        want = stacked_sentence_embeddings(sentences, table)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        for s, row in zip(sentences, got):
            assert sentence_embedding(s, table).tobytes() == row.tobytes()


class TestShapeClass:
    @pytest.mark.parametrize(
        "surface,expected",
        [
            ("NATO", ShapeClass.ALL_UPPER),
            ("nato", ShapeClass.ALL_LOWER),
            ("Paris", ShapeClass.INIT_CAP),
            ("mRNA", ShapeClass.OTHER),
            ("A", ShapeClass.ALL_UPPER),
            ("X123", ShapeClass.ALL_UPPER),
            ("123", ShapeClass.OTHER),
            ("...", ShapeClass.OTHER),
            ("McCoy", ShapeClass.OTHER),
            ("Ab3c", ShapeClass.INIT_CAP),
        ],
    )
    def test_examples(self, surface, expected):
        assert shape_class(surface) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.text(min_size=1, max_size=8))
    def test_exactly_one_class(self, surface):
        # a total function into the four classes
        assert shape_class(surface) in set(ShapeClass)
