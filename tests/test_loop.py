import pytest

from groupdecay.corpus import Dataset, Sentence, Token
from groupdecay.loop import (
    LoopConfig,
    RunHistory,
    burn_in_checkpoints,
    make_strategy,
    run_active_loop,
)
from groupdecay.partition import build_identity_partition
from groupdecay.simlab import SynthSpec, builtin_trainer, gen_synthetic, one_hot_embeddings
from groupdecay.strategies import CapabilityError


@pytest.fixture(scope="module")
def lab():
    spec = SynthSpec(seed=11)
    pool = gen_synthetic(spec, 8000, role="pool", stream=0)
    val = gen_synthetic(spec, 2500, role="validation", stream=1)
    test = gen_synthetic(spec, 2500, role="test", stream=2)
    partition = build_identity_partition(list(pool.sentences) + list(val.sentences))
    table = one_hot_embeddings(spec)
    return spec, pool, val, test, partition, table


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
    def test_document_mode_selects_whole_documents(self, lab, strategy):
        spec, pool, val, test, partition, table = lab
        doc_pool = gen_synthetic(spec, 8000, role="pool", stream=5, sentences_per_doc=3)
        doc_partition = build_identity_partition(
            list(doc_pool.sentences) + list(val.sentences)
        )
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
