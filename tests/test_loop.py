import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupdecay import loop
from groupdecay.corpus import Dataset, Sentence, Token
from groupdecay.loop import (
    STRATEGY_NAMES,
    LoopConfig,
    RunHistory,
    burn_in_checkpoints,
    make_strategy,
    run_active_loop,
)
from groupdecay.partition import build_identity_partition
from groupdecay.simlab import SynthSpec, builtin_trainer, gen_synthetic, one_hot_embeddings
from groupdecay.strategies import CapabilityError, PredictionRecord
from oracles import walk_burn_in


@pytest.fixture(scope="module")
def lab():
    spec = SynthSpec(seed=11)
    pool = gen_synthetic(spec, 8000, role="pool", stream=0)
    val = gen_synthetic(spec, 2500, role="validation", stream=1)
    test = gen_synthetic(spec, 2500, role="test", stream=2)
    partition = build_identity_partition(list(pool.sentences) + list(val.sentences))
    table = one_hot_embeddings(spec)
    return spec, pool, val, test, partition, table


@pytest.fixture(scope="module")
def doc_lab(lab):
    """A pool of three-sentence documents with its identity partition."""
    spec, pool, val, test, partition, table = lab
    doc_pool = gen_synthetic(spec, 8000, role="pool", stream=5, sentences_per_doc=3)
    return doc_pool, build_identity_partition(list(doc_pool.sentences) + list(val.sentences))


def _config(**kw):
    base = dict(
        burn_in_batches=2,
        total_batches=4,
        history_batch_tokens=250,
        selection_batch_tokens=500,
        seed=0,
    )
    base.update(kw)
    return LoopConfig(**base)


class TestBurnInGrid:
    def test_synthetic_schedule(self):
        cfg = LoopConfig(
            burn_in_batches=3, total_batches=10,
            history_batch_tokens=500, selection_batch_tokens=1000,
        )
        assert burn_in_checkpoints(cfg) == [1000, 1500, 2000, 2500, 3000]

    def test_real_data_schedule(self):
        cfg = LoopConfig(
            burn_in_batches=3, total_batches=20,
            history_batch_tokens=5000, selection_batch_tokens=10_000,
        )
        assert burn_in_checkpoints(cfg) == [10_000, 15_000, 20_000, 25_000, 30_000]

    def test_single_burn_in_batch_still_five_points(self):
        cfg = LoopConfig(
            burn_in_batches=1, total_batches=2,
            history_batch_tokens=500, selection_batch_tokens=1000,
        )
        grid = burn_in_checkpoints(cfg)
        assert len(grid) >= 5 and grid[-1] == 1000

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            LoopConfig(burn_in_batches=0)
        with pytest.raises(ValueError):
            LoopConfig(total_batches=1, burn_in_batches=2)
        with pytest.raises(ValueError):
            LoopConfig(history_batch_tokens=2000, selection_batch_tokens=1000)
        for bad in (0, -5, 2.5, None):
            with pytest.raises(ValueError, match="history_batch_tokens"):
                LoopConfig(history_batch_tokens=bad)
        for bad in (1, 0, 2.0, True, None):
            with pytest.raises(ValueError, match="ensemble_k"):
                LoopConfig(ensemble_k=bad)
        for name, bads in (
            ("burn_in_batches", (2.5, 0, True, None)),
            ("selection_batch_tokens", (1000.5, 0, None)),
            ("history_start_tokens", (100.5, 0)),
            ("min_history_points", (2.5, 0, None)),
            ("uncertainty_lag_tokens", (0.5, -1)),
            ("seed", (1.5, -1, None)),
        ):
            for bad in bads:
                with pytest.raises(ValueError, match=name):
                    LoopConfig(**{name: bad})
        for bad in (6.5, 2, None):
            with pytest.raises(ValueError, match="total_batches"):
                LoopConfig(total_batches=bad)
        for name in ("history_start_tokens", "uncertainty_lag_tokens"):
            assert getattr(LoopConfig(**{name: None}), name) is None
        assert LoopConfig(uncertainty_lag_tokens=0).lag_tokens == 0


class _AllOutside:
    """A predictor that tags every token O."""

    def predict(self, sentences, want_logprobs=False, ensemble_k=None):
        return {
            s.id: PredictionRecord(sentence_id=s.id, labels=("O",) * len(s))
            for s in sentences
        }


def _untrainable(train):
    raise AssertionError("no checkpoint may train")


@st.composite
def burn_in_pools(draw):
    """Pools with unsorted ids and documents whose rows are not contiguous,
    plus a burn-in schedule whose last target is at most the pool's size."""
    per_doc = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    n = sum(per_doc)
    ids = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True))
    doc_values = draw(
        st.lists(st.integers(0, 1_000), min_size=len(per_doc), max_size=len(per_doc), unique=True)
    )
    docs = draw(st.permutations([d for d, k in zip(doc_values, per_doc) for _ in range(k)]))
    lengths = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    sentences = tuple(
        Sentence(id=i, tokens=(Token("w"),) * k, doc_id=d)
        for i, d, k in zip(ids, docs, lengths)
    )
    burn_in = draw(st.integers(1, 3))
    selection = draw(st.integers(1, max(1, sum(lengths) // burn_in)))
    config = LoopConfig(
        burn_in_batches=burn_in,
        total_batches=burn_in,
        selection_batch_tokens=selection,
        history_batch_tokens=draw(st.integers(1, selection)),
        min_history_points=draw(st.integers(1, 6)),
        mode=draw(st.sampled_from(["SENTENCE", "DOCUMENT"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return sentences, config


class TestBurnIn:
    @settings(max_examples=200, deadline=None)
    @given(burn_in_pools())
    def test_batches_match_the_walk(self, drawn):
        sentences, cfg = drawn
        pool = Dataset(sentences=sentences, label_inventory=frozenset(), role="pool")
        val = Dataset(sentences=(Sentence(id=0, tokens=(Token("w"),)),),
                      label_inventory=frozenset(), role="validation")
        targets = burn_in_checkpoints(cfg)
        if targets[-1] > pool.token_count:
            with pytest.raises(ValueError, match="burn-in"):
                run_active_loop(cfg, [], _untrainable, pool, val, strategy="rnd")
            return
        history = run_active_loop(
            cfg, [], lambda train: _AllOutside(), pool, val, strategy="rnd"
        )
        expected = walk_burn_in(sentences, cfg.mode, cfg.seed, targets)
        assert [c.selected_ids for c in history.checkpoints] == expected

    def test_pool_smaller_than_burn_in_fails_before_training(self, lab):
        spec, pool, val, test, partition, table = lab
        cfg = _config(selection_batch_tokens=pool.token_count)
        with pytest.raises(ValueError, match="burn-in"):
            run_active_loop(
                cfg, [partition], _untrainable, pool, val, strategy="rnd", table=table
            )


class TestRunLoop:
    def test_pure_random_when_total_equals_burn_in(self, lab):
        spec, pool, val, test, partition, table = lab
        cfg = _config(total_batches=2)
        history = run_active_loop(
            cfg, [partition], builtin_trainer(), pool, val, strategy="rnd", table=table
        )
        assert all(c.phase == "burnin" for c in history.checkpoints)
        assert history.checkpoints[-1].train_tokens >= 1000

    def test_edg_run_emits_selection_checkpoints(self, lab):
        spec, pool, val, test, partition, table = lab
        history = run_active_loop(
            _config(), [partition], builtin_trainer(), pool, val,
            strategy="edg", table=table, test=test,
        )
        phases = [c.phase for c in history.checkpoints]
        assert phases.count("select") == 2
        tokens = [c.train_tokens for c in history.checkpoints]
        assert tokens == sorted(tokens)
        final = history.checkpoints[-1]
        assert final.val_f1 is not None and final.test_f1 is not None
        assert final.group_records is not None

    @pytest.mark.parametrize("strategy", ["edg", "edg_ext1"])
    def test_empty_validation_set_is_refused_before_training(self, lab, strategy):
        spec, pool, val, test, partition, table = lab
        calls = []

        def trainer(train):
            calls.append(train.token_count)
            return builtin_trainer()(train)

        empty = Dataset(sentences=(), label_inventory=frozenset(), role="validation")
        with pytest.raises(ValueError) as err:
            run_active_loop(_config(), [partition], trainer, pool, empty, strategy=strategy,
                            table=table)
        assert calls == []
        assert "validation set, which has no tokens" in str(err.value)

    def test_deterministic_history(self, lab):
        spec, pool, val, test, partition, table = lab
        h1 = run_active_loop(
            _config(), [partition], builtin_trainer(), pool, val,
            strategy="edg", table=table,
        )
        h2 = run_active_loop(
            _config(), [partition], builtin_trainer(), pool, val,
            strategy="edg", table=table,
        )
        assert h1.to_jsonl() == h2.to_jsonl()

    def test_history_jsonl_round_trip(self, lab):
        spec, pool, val, test, partition, table = lab
        h = run_active_loop(
            _config(), [partition], builtin_trainer(), pool, val,
            strategy="rnd", table=table,
        )
        clone = RunHistory.from_jsonl(h.to_jsonl())
        assert clone.to_jsonl() == h.to_jsonl()

    def test_resume_reproduces_full_run(self, lab):
        spec, pool, val, test, partition, table = lab
        cfg = _config()
        full = run_active_loop(
            cfg, [partition], builtin_trainer(), pool, val,
            strategy="edg", table=table,
        )
        partial = RunHistory(checkpoints=full.checkpoints[:3])
        resumed = run_active_loop(
            cfg, [partition], builtin_trainer(), pool, val,
            strategy="edg", table=table, resume_history=partial,
        )
        assert resumed.to_jsonl() == full.to_jsonl()

    def test_resume_rejects_wrong_seed(self, lab):
        spec, pool, val, test, partition, table = lab
        cfg = _config()
        full = run_active_loop(
            cfg, [partition], builtin_trainer(), pool, val,
            strategy="rnd", table=table,
        )
        other = _config(seed=99)
        with pytest.raises(ValueError, match="inconsistent"):
            run_active_loop(
                other, [partition], builtin_trainer(), pool, val,
                strategy="rnd", table=table,
                resume_history=RunHistory(checkpoints=full.checkpoints[:2]),
            )

    def test_ext1_needs_no_validation_labels(self, lab):
        spec, pool, val, test, partition, table = lab
        unlabeled = Dataset(
            sentences=tuple(
                Sentence(id=s.id, tokens=tuple(Token(t.surface) for t in s.tokens))
                for s in val.sentences
            ),
            label_inventory=frozenset(),
            role="validation",
        )
        history = run_active_loop(
            _config(), [partition], builtin_trainer(), pool, unlabeled,
            strategy="edg_ext1", table=table,
        )
        select = [c for c in history.checkpoints if c.phase == "select"]
        assert len(select) == 2
        assert all(c.val_f1 is None for c in history.checkpoints)
        with pytest.raises(CapabilityError):
            run_active_loop(
                _config(), [partition], builtin_trainer(), pool, unlabeled,
                strategy="edg", table=table,
            )

    def test_uncertainty_decay_strategy_runs(self, lab):
        spec, pool, val, test, partition, table = lab
        cfg = _config(uncertainty_lag_tokens=500)
        history = run_active_loop(
            cfg, [partition], builtin_trainer(), pool, val,
            strategy="us_edg_ext2", table=table,
        )
        assert [c.phase for c in history.checkpoints].count("select") == 2

    @pytest.mark.parametrize("strategy", ["edg", "rnd", "us", "div"])
    def test_document_mode_selects_whole_documents(self, lab, doc_lab, strategy):
        spec, pool, val, test, partition, table = lab
        doc_pool, doc_partition = doc_lab
        cfg = _config(mode="DOCUMENT")
        history = run_active_loop(
            cfg, [doc_partition], builtin_trainer(), doc_pool, val,
            strategy=strategy, table=table,
        )
        docs = {s.doc_id: [t.id for t in doc_pool.sentences if t.doc_id == s.doc_id]
                for s in doc_pool.sentences}
        selected = set()
        for c in history.checkpoints:
            if c.phase == "select":
                selected |= set(c.selected_ids)
        by_doc = {}
        for sid in selected:
            by_doc.setdefault(doc_pool.sentences[sid].doc_id, set()).add(sid)
        for d, ids in by_doc.items():
            assert ids == set(docs[d])

    def test_div_without_embedding_table_is_capability_error(self, lab):
        spec, pool, val, test, partition, table = lab
        for name in ("div", "us_div", "us_div_edg_ext2"):
            with pytest.raises(CapabilityError, match="embedding"):
                run_active_loop(
                    _config(), [partition], builtin_trainer(), pool, val, strategy=name
                )

    def test_strategy_names_buildable(self):
        for name in (
            "rnd", "div", "us", "us_div", "bald", "edg",
            "edg_ext1", "us_edg_ext2", "us_div_edg_ext2", "bald_edg_ext2",
        ):
            assert make_strategy(name).name == name
        with pytest.raises(ValueError):
            make_strategy("nope")


# sha256 of ``history.to_jsonl()`` for every strategy in both modes, recorded
# with numpy 2.4.6.  The FASS filter keeps the whole 8k-token pool, so div,
# us_div and us_div_edg_ext2 share a digest.
RECORDED_HISTORIES = {
    ("rnd", "SENTENCE"): "ba547554f4744e940c8e09fd68d4d0c4a47fb2565f7d1529f1b0437fab397926",
    ("div", "SENTENCE"): "c1a0259ada7a3f86502f0063a97a61476a7959dfe186b604943c603d3716c89e",
    ("us", "SENTENCE"): "95543690c61813c9b2c7bc71c85da22b9c5953d695761050a586ef428a29e6f7",
    ("us_div", "SENTENCE"): "c1a0259ada7a3f86502f0063a97a61476a7959dfe186b604943c603d3716c89e",
    ("bald", "SENTENCE"): "e658931a069480b8728dcbe015df54556d405d07b9b73ab1cca91e292243535f",
    ("edg", "SENTENCE"): "7d8eeb0deece738462bd1dfb1df05b9178e913498e09c42fe6874cc83abb8f9b",
    ("edg_ext1", "SENTENCE"): "78e9be20a121033603ff598e9a2543fb115571bc8e50ce1ad6b4bdca8e8762e4",
    ("us_edg_ext2", "SENTENCE"): "4610b50bb04cd8360b6120f231d815338ecc89f8c3be2da98e82b37a549cc961",
    ("us_div_edg_ext2", "SENTENCE"): "c1a0259ada7a3f86502f0063a97a61476a7959dfe186b604943c603d3716c89e",
    ("bald_edg_ext2", "SENTENCE"): "a96a24e2b10c0f38b9032da92c329a7637de6dd6aad7fdbd1a009f69191c6863",
    ("rnd", "DOCUMENT"): "48fe54a91664655c0a6a2253f3356341665f9101867e46ab1416d047994a8c1c",
    ("div", "DOCUMENT"): "16e180890fe060155b9de7ce93c27be987c087af791aae35399a07cd549723ba",
    ("us", "DOCUMENT"): "b40b294cbf1a3202257603bbeca0dd85fc565d64b7278f3f94d3acebc1adb802",
    ("us_div", "DOCUMENT"): "16e180890fe060155b9de7ce93c27be987c087af791aae35399a07cd549723ba",
    ("bald", "DOCUMENT"): "43ba8196cea4f6277848725492a7761c602cb129868118c2e5d7994dd1a7b66c",
    ("edg", "DOCUMENT"): "e84f25204e0d09acbb900727fbcf56389b8fa644c63bf73000444943460055af",
    ("edg_ext1", "DOCUMENT"): "df756d7bdec2e2f9d6540a1ca25c0deb08863e245b7d4c31dd3c0f1ad2d7487f",
    ("us_edg_ext2", "DOCUMENT"): "3a17e1fbe141df1c3662863d2efdf3003cdf5093c0f765c14f739741bd0d8ccd",
    ("us_div_edg_ext2", "DOCUMENT"): "16e180890fe060155b9de7ce93c27be987c087af791aae35399a07cd549723ba",
    ("bald_edg_ext2", "DOCUMENT"): "04267710e197e4b3723ed507a335180bff267ea771f2553843690e85c364c0c0",
}


@pytest.mark.parametrize("mode", ["SENTENCE", "DOCUMENT"])
@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_every_strategy_reproduces_its_recorded_history(lab, doc_lab, name, mode):
    """Each strategy's five-batch run reproduces its recorded history byte
    for byte (digests recorded with numpy 2.4.6).  A 500-token lag lets the
    ext2 strategies rank their odd batches by the uncertainty drop."""
    spec, pool, val, test, partition, table = lab
    if mode == "DOCUMENT":
        pool, partition = doc_lab
    cfg = _config(total_batches=5, uncertainty_lag_tokens=500, mode=mode)
    history = run_active_loop(
        cfg, [partition], builtin_trainer(), pool, val, strategy=name, table=table
    )
    digest = hashlib.sha256(history.to_jsonl().encode()).hexdigest()
    assert digest == RECORDED_HISTORIES[name, mode]


def test_traced_names_are_called_through_the_loop_module(lab, monkeypatch):
    """The benchmark's tracer times these layers by replacing the names on
    ``groupdecay.loop``; a strategy that bound one of them early would
    bypass the replacement and read 0."""
    spec, pool, val, test, partition, table = lab
    traced = (
        "fit", "select_batch", "fass_select", "score_us", "score_bald",
        "score_uncertainty_decay", "micro_f1",
    )
    calls = dict.fromkeys(traced, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in traced:
        monkeypatch.setattr(loop, name, counting(name, getattr(loop, name)))
    for strategy, cfg in (
        ("edg", _config()),
        ("div", _config()),
        ("us_edg_ext2", _config(total_batches=5, uncertainty_lag_tokens=500)),
        ("bald", _config()),
    ):
        run_active_loop(
            cfg, [partition], builtin_trainer(), pool, val, strategy=strategy, table=table
        )
    assert all(calls.values()), calls
    for name in ("group_error", "group_mass", "sentence_group_delta"):
        assert callable(getattr(loop, name))


class _DictRecords:
    """The builtin tagger's predictions as a plain dict of records, its keys
    in reverse order."""

    def __init__(self, inner):
        self.inner = inner

    def predict(self, sentences, want_logprobs=False, ensemble_k=None):
        batch = self.inner.predict(sentences, want_logprobs, ensemble_k)
        return {sid: batch[sid] for sid in reversed(list(batch))}


@pytest.mark.parametrize("name", ["us_edg_ext2", "bald_edg_ext2"])
def test_a_dict_of_records_drives_the_loop(lab, name):
    """A custom predictor's mapping of records is scored as the builtin
    batch is: the same history and the same uncertainty snapshots."""
    spec, pool, val, test, partition, table = lab
    cfg = _config(total_batches=5, uncertainty_lag_tokens=500)
    runs = []
    for trainer in (builtin_trainer(), lambda train: _DictRecords(builtin_trainer()(train))):
        snapshots = []

        def observe(event, payload):
            if event == "checkpoint" and payload["snapshot"] is not None:
                snapshots.append(payload["snapshot"])

        history = run_active_loop(
            cfg, [partition], trainer, pool, val, strategy=name, table=table, observer=observe
        )
        runs.append((history.to_jsonl(), snapshots))
    (history, snapshots), (dict_history, dict_snapshots) = runs
    assert hashlib.sha256(dict_history.encode()).hexdigest() == RECORDED_HISTORIES[name, "SENTENCE"]
    assert dict_history == history and snapshots and dict_snapshots == snapshots
