import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdecay import corpus
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
from groupdecay.loop import RunHistory
from groupdecay.decay import DecayParams, parse_fit, serialize_fit
from groupdecay.simlab import ReferenceTagger, SynthSpec, gen_synthetic, relabel, tagger_predict
from groupdecay.strategies import read_records
from oracles import per_token_parse_conll, stacked_sentence_embeddings


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
def conll_texts(draw):
    """CoNLL text of valid and invalid tags, middle columns, -DOCSTART-
    lines, runs of blank and whitespace lines, orphan I- tags and
    unlabelled lines, with LF, CR LF or CR line ends."""
    tags = ["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "I-X-Y", "PER", "B-", "b-LOC", "X"]
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["token"] * 6 + ["unlabelled", "blank", "docstart"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
            continue
        surface = draw(st.text(alphabet="abXY.0", min_size=1, max_size=3))
        if kind == "docstart":
            lines.append(draw(st.sampled_from(["-DOCSTART-", "-DOCSTART- O", "-DOCSTART-x"])))
        elif kind == "unlabelled":
            lines.append(surface)
        else:
            middle = draw(st.sampled_from(["", " NNP", " NNP I-NP"]))
            # valid tags mostly, so that a text often parses to its end
            tag = draw(st.sampled_from(tags[:5] * 8 + tags[5:]))
            lines.append(f"{surface}{middle} {tag}")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except CorpusFormatError as exc:
        return ("error", str(exc), exc.line_number)


class TestTokenTable:
    @settings(max_examples=300, deadline=None)
    @given(conll_texts())
    def test_parse_equals_the_per_token_parse(self, text):
        # Dataset equality covers sentences, label_inventory, role and bio_warnings
        assert _parse_outcome(parse_conll, text) == _parse_outcome(per_token_parse_conll, text)

    def test_first_bad_tag_names_its_line(self):
        text = "a O\nb NOTATAG\n\nc NOTATAG\n"
        with pytest.raises(CorpusFormatError, match="^line 2: not a BIO tag: 'NOTATAG'$"):
            parse_conll(text)

    @staticmethod
    def _one_token_per_key(dataset):
        tokens = [t for s in dataset.sentences for t in s.tokens]
        keys = {(t.surface, t.gold_label) for t in tokens}
        return len({id(t) for t in tokens}) == len(keys)

    def test_one_token_per_surface_and_tag(self):
        spec = SynthSpec(seed=4)
        generated = gen_synthetic(spec, 2000)
        parsed = parse_conll(serialize_conll(generated))
        predictions = tagger_predict(ReferenceTagger(generated), parsed)
        relabelled = relabel(parsed, predictions)
        for dataset in (generated, parsed, relabelled):
            assert self._one_token_per_key(dataset)
        assert relabelled.sentences[0].labels == predictions[0].labels

    def test_bio_rule_checked_once_per_key(self, monkeypatch):
        matched, rule = [], corpus._BIO_RE

        class Counting:
            @staticmethod
            def match(tag):
                matched.append(tag)
                return rule.match(tag)

        monkeypatch.setattr(corpus, "_BIO_RE", Counting)
        ds = parse_conll("a O\nb B-PER\na O\n\nb B-PER\nc I-PER\nd\n")
        assert ds.token_count == 6
        assert sorted(matched) == ["B-PER", "I-PER", "O"]


# characters that str.splitlines takes for line ends and a text file does not
_INLINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


_FIT_PARAMS = DecayParams(a0=1.0, a_half=0.5, a1=0.0, a2=0.0, a3=0.0,
                          b=np.array([0.2, 0.3]), c=np.array([0.01, 0.0]))


def _history_line(c):
    return ('{"batch_index": null, "index": 0, "partitions": null, "phase": "burn' + c
            + 'in", "selected_ids": [3, 1], "train_tokens": 7}')


# each reader, a text holding ``c`` inside a line, and a comparable form of the result
_READERS = {
    "conll": (parse_conll,
              lambda c: f"-DOCSTART- O\r\n\r\nEU{c}x B-ORG\nrejects O\r\nc{c}\n", None),
    "embeddings": (lambda src: load_embeddings(src, normalize=False),
                   lambda c: f"a 1{c}0\r\nb 0 1\n",
                   lambda t: (t.dim, sorted((k, v.tolist()) for k, v in t.vectors.items()),
                              t.oov_vector.tolist(), t.duplicate_warnings)),
    "records": (read_records,
                lambda c: json.dumps({"sentence_id": 0, "labels": ["O"]}) + "\r\n" + (
                    '{"labels": ["B-x' + c + 'y", "O"], "sentence_id": 1}\n'), None),
    "history": (RunHistory.from_jsonl, lambda c: _history_line("") + "\r" + _history_line(c),
                lambda h: h.to_jsonl()),
    "fit": (parse_fit, lambda c: f"# note {c} x\r\n" + serialize_fit(_FIT_PARAMS), serialize_fit),
}


class TestOneLineRule:
    """A string and a text stream of the same text read alike."""

    @staticmethod
    def _outcome(reader, normalize, source):
        try:
            result = reader(source)
        except ValueError as exc:
            return type(exc).__name__, str(exc)
        return result if normalize is None else normalize(result)

    @pytest.mark.parametrize("newline", ["", None], ids=["untranslated", "universal"])
    @pytest.mark.parametrize("char", _INLINE_BREAKS,
                             ids=[f"U+{ord(c):04X}" for c in _INLINE_BREAKS])
    @pytest.mark.parametrize("name", list(_READERS))
    def test_string_reads_as_stream(self, tmp_path, name, char, newline):
        reader, make, normalize = _READERS[name]
        text = make(char)
        path = tmp_path / "input.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8", newline=newline) as fh:
            from_stream = self._outcome(reader, normalize, fh)
        assert self._outcome(reader, normalize, text) == from_stream

    def test_records_hold_raw_line_separators(self):
        text = '{"labels": ["B-x\u2028y", "O"], "sentence_id": 1}\n'
        assert read_records(text)[1].labels == ("B-x\u2028y", "O")

    @pytest.mark.parametrize("text", ["", "\n", "a O", "a O\n", "a O\r", "a O\r\n\r\n", "\r\r\n"])
    def test_line_numbers_follow_the_stream(self, text):
        lines = list(corpus._iter_lines(text))
        assert lines == list(corpus._iter_lines(io.StringIO(text, newline="")))

    @pytest.mark.parametrize(
        "text", ["a O\rb O\n", "a O\rb O", "a O\r\rb O\r\n\r\nc O\n", "\r", "x\ry\r\nz\n\r"]
    )
    def test_bytes_end_lines_where_text_does(self, text):
        # a byte stream iterates by LF alone; a lone CR still ends its line
        data = text.encode("utf-8")
        forms = {
            "str": text,
            "text stream": io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
            "untranslated text stream": io.StringIO(text, newline=""),
            "byte stream": io.BytesIO(data),
        }
        lines = {name: list(corpus._iter_lines(form)) for name, form in forms.items()}
        assert all(got == lines["str"] for got in lines.values()), lines
        for form in (text, io.BytesIO(data), io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")):
            assert parse_conll(form) == parse_conll(text)

    def test_bytes_name_the_line_that_is_not_utf8(self):
        with pytest.raises(CorpusFormatError, match="^line 3: not valid UTF-8"):
            list(corpus._iter_lines(io.BytesIO(b"a O\rb O\n\xff O\n")))


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
