import json
import shutil
import sys
from pathlib import Path

import pytest

from groupdecay.cli import main
from groupdecay.corpus import parse_conll
from groupdecay.loop import LoopConfig, burn_in_checkpoints

pytestmark = pytest.mark.filterwarnings("ignore")


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth") / "corpus"
    code = run_cli(
        "gen-synth",
        "--output", out,
        "--set", "train_tokens=6000",
        "--set", "val_tokens=1500",
        "--set", "test_tokens=1500",
        "--set", "seed=21",
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def doc_synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth_docs") / "corpus"
    code = run_cli(
        "gen-synth",
        "--output", out,
        "--set", "train_tokens=6000",
        "--set", "val_tokens=1500",
        "--set", "test_tokens=1500",
        "--set", "sentences_per_doc=4",
        "--set", "seed=22",
    )
    assert code == 0
    return out


def _interrupt(run_dir, cut):
    """Leave ``run_dir`` as a run stopped after ``cut`` checkpoints."""
    lines = (run_dir / "history.jsonl").read_text().splitlines(keepends=True)
    (run_dir / "history.jsonl").write_text("".join(lines[:cut]))
    for f in (run_dir / "batches").glob("*.json"):
        f.unlink()
    for sub in ("snapshots", "refpred"):
        for f in (run_dir / sub).glob("checkpoint_*"):
            if int(f.name.split("_")[1].split(".")[0]) >= cut:
                f.unlink()
    (run_dir / "curves.csv").unlink()


def _assert_resume_reproduces(tmp_path, config_for, cut):
    """A run resumed after ``cut`` checkpoints writes the uninterrupted run's
    history, batches and curves."""
    full = tmp_path / "run_full"
    cfg_full = tmp_path / "cfg_full.json"
    cfg_full.write_text(json.dumps(config_for(full)))
    assert run_cli("simulate", "--config", cfg_full) == 0

    broken = tmp_path / "run_broken"
    shutil.copytree(full, broken)
    _interrupt(broken, cut)
    cfg_broken = tmp_path / "cfg_broken.json"
    cfg_broken.write_text(json.dumps(config_for(broken)))
    assert run_cli("simulate", "--config", cfg_broken, "--resume") == 0
    assert (broken / "history.jsonl").read_bytes() == (full / "history.jsonl").read_bytes()
    for batch in sorted((full / "batches").glob("*.json")):
        assert batch.read_bytes() == (broken / "batches" / batch.name).read_bytes()
    assert (broken / "curves.csv").read_bytes() == (full / "curves.csv").read_bytes()


def _sim_config(synth_dir, out_dir, strategy="edg", **loop_overrides):
    loop = dict(
        burn_in_batches=2,
        total_batches=4,
        history_batch_tokens=200,
        selection_batch_tokens=400,
    )
    loop.update(loop_overrides)
    return {
        "strategy": strategy,
        "seed": 3,
        "paths": {
            "pool": str(synth_dir / "train.conll"),
            "validation": str(synth_dir / "valid.conll"),
            "test": str(synth_dir / "test.conll"),
            "output": str(out_dir),
        },
        "loop": loop,
        "partitions": {"kinds": "identity", "one_hot": True},
        "predictor": {"type": "builtin"},
    }


class TestGenSynth:
    def test_sizes_and_manifest(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["written"]["train"]["tokens"] >= 6000
        train = parse_conll((synth_dir / "train.conll").read_text())
        assert train.token_count == manifest["written"]["train"]["tokens"]

    def test_refuses_existing_without_force(self, synth_dir, capsys):
        code = run_cli("gen-synth", "--output", synth_dir)
        assert code == 2

    def test_byte_identical_regeneration(self, synth_dir, tmp_path):
        out2 = tmp_path / "again"
        code = run_cli(
            "gen-synth", "--output", out2,
            "--set", "train_tokens=6000",
            "--set", "val_tokens=1500",
            "--set", "test_tokens=1500",
            "--set", "seed=21",
        )
        assert code == 0
        for name in ("train.conll", "valid.conll", "test.conll"):
            assert (out2 / name).read_bytes() == (synth_dir / name).read_bytes()

    def test_default_sizes_match_reference_corpus(self, tmp_path):
        # full-size generation: ~100k/10k/10k tokens with <1 sentence overshoot
        out = tmp_path / "full"
        assert run_cli("gen-synth", "--output", out, "--set", "seed=0") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for split, target in (("train", 100_000), ("valid", 10_000), ("test", 10_000)):
            written = manifest["written"][split]["tokens"]
            assert target <= written < target + 51


class TestSimulate:
    def test_edg_run_produces_artifacts(self, synth_dir, tmp_path):
        out = tmp_path / "run_edg"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, out)))
        assert run_cli("simulate", "--config", cfg) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_partitions"] == 1  # word-identity partition
        assert manifest["config_hash"]
        assert (out / "history.jsonl").exists()
        assert (out / "scores.csv").exists()
        assert (out / "curves.csv").exists()
        assert (out / "partitions" / "p0.json").exists()
        batches = sorted((out / "batches").glob("batch_*.json"))
        assert len(batches) == 2
        fits = sorted((out / "fits").glob("batch_*_p0.txt"))
        assert len(fits) == 2

    def test_existing_dir_needs_resume_or_force(self, synth_dir, tmp_path):
        out = tmp_path / "run_dup"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, out, strategy="rnd")))
        assert run_cli("simulate", "--config", cfg) == 0
        assert run_cli("simulate", "--config", cfg) == 2
        assert run_cli("simulate", "--config", cfg, "--force") == 0

    def test_orphan_inside_tag_in_pool_warns(self, synth_dir, tmp_path, capsys):
        pool = tmp_path / "pool.conll"
        # a one-token sentence whose I- tag opens no phrase
        pool.write_text("w000 I-E1\n\n" + (synth_dir / "train.conll").read_text())
        out = tmp_path / "run_orphan"
        config = _sim_config(synth_dir, out, strategy="rnd")
        config["paths"]["pool"] = str(pool)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert run_cli("simulate", "--config", cfg) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"warning: {pool}: 1 I- tags with no open phrase of their type (kept as written)"
        ]

    def test_deterministic_outputs(self, synth_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"run_{name}"
            cfg = tmp_path / f"cfg_{name}.json"
            config = _sim_config(synth_dir, out)
            cfg.write_text(json.dumps(config))
            assert run_cli("simulate", "--config", cfg) == 0
            outs.append(out)
        a, b = outs
        for batch in sorted((a / "batches").glob("*.json")):
            assert batch.read_bytes() == (b / "batches" / batch.name).read_bytes()
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()
        assert (a / "history.jsonl").read_bytes() == (b / "history.jsonl").read_bytes()

    def test_resume_completes_interrupted_run(self, synth_dir, tmp_path):
        _assert_resume_reproduces(tmp_path, lambda out: _sim_config(synth_dir, out), 3)

    def test_resume_inside_document_burn_in(self, doc_synth_dir, tmp_path):
        def config_for(out):
            config = _sim_config(doc_synth_dir, out)
            config["mode"] = "DOCUMENT"
            return config

        _assert_resume_reproduces(tmp_path, config_for, 2)

    def test_resume_at_burn_in_end_with_uncertainty_decay(self, synth_dir, tmp_path):
        burn_in = len(burn_in_checkpoints(LoopConfig(**_sim_config(synth_dir, tmp_path)["loop"])))
        _assert_resume_reproduces(
            tmp_path, lambda out: _sim_config(synth_dir, out, strategy="us_edg_ext2"), burn_in
        )

    @pytest.mark.parametrize("edit", ["unknown", "twice", "taken"])
    def test_resume_with_foreign_ids_is_data_error(self, synth_dir, tmp_path, edit, capsys):
        out = tmp_path / "run_ids"
        cfg = tmp_path / "cfg_ids.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, out, strategy="rnd")))
        assert run_cli("simulate", "--config", cfg) == 0
        lines = (out / "history.jsonl").read_text().splitlines(keepends=True)
        first_select = next(i for i, line in enumerate(lines) if '"select"' in line)
        record = json.loads(lines[first_select])
        ids = record["selected_ids"]
        record["selected_ids"] = {
            "unknown": ids + [10**9],
            "twice": ids + ids[:1],
            "taken": ids + json.loads(lines[0])["selected_ids"][:1],
        }[edit]
        (out / "history.jsonl").write_text("".join(lines[:first_select]) + json.dumps(record) + "\n")
        capsys.readouterr()
        assert run_cli("simulate", "--config", cfg, "--resume") == 3
        assert "data error" in capsys.readouterr().err

    def test_resume_rejects_changed_config(self, synth_dir, tmp_path):
        out = tmp_path / "run_chg"
        cfg = tmp_path / "cfg_chg.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, out, strategy="rnd")))
        assert run_cli("simulate", "--config", cfg) == 0
        changed = _sim_config(synth_dir, out, strategy="rnd")
        changed["seed"] = 4
        cfg.write_text(json.dumps(changed))
        assert run_cli("simulate", "--config", cfg, "--resume") == 2

    def test_unknown_strategy_is_config_error(self, synth_dir, tmp_path):
        out = tmp_path / "run_bad"
        cfg = tmp_path / "cfg_bad.json"
        config = _sim_config(synth_dir, out)
        config["strategy"] = "wat"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 2

    @pytest.mark.parametrize(
        "fit", [{"bogus": 1}, {"restarts": 0}, {"seed": -1}], ids=["unknown", "invalid", "seed"]
    )
    def test_bad_fit_option_is_config_error(self, synth_dir, tmp_path, fit):
        config = _sim_config(synth_dir, tmp_path / "run_fit")
        config["fit"] = fit
        cfg = tmp_path / "cfg_fit.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 2

    def test_capability_check_unlabeled_validation(self, synth_dir, tmp_path):
        # strip the tags off the validation file: edg must refuse, rnd must run
        unlabeled = tmp_path / "valid_unlabeled.conll"
        ds = parse_conll((synth_dir / "valid.conll").read_text())
        unlabeled.write_text(
            "\n".join(
                "\n".join(t.surface for t in s.tokens) + "\n" for s in ds.sentences
            )
        )
        out = tmp_path / "run_cap"
        config = _sim_config(synth_dir, out)
        config["paths"]["validation"] = str(unlabeled)
        cfg = tmp_path / "cfg_cap.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 2
        config["strategy"] = "edg_ext1"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg, "--force") == 0

    def test_div_without_embeddings_is_config_error(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run_div"
        config = _sim_config(synth_dir, out, strategy="div")
        config["partitions"] = {"kinds": "identity"}
        cfg = tmp_path / "cfg_div.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 2
        assert "embeddings" in capsys.readouterr().err
        assert not out.exists()  # refused before any checkpoint ran

    @pytest.mark.parametrize(
        "loop",
        [
            {"ensemble_k": 1},
            {"history_batch_tokens": 0},
            {"selection_batch_tokens": 1000.5},
            {"total_batches": 6.5},
            {"burn_in_batches": 2.5},
            {"history_start_tokens": 100.5},
            {"min_history_points": 2.5},
            {"uncertainty_lag_tokens": 0.5},
            {"seed": 1.5},
        ],
        ids=[
            "ensemble_k", "history", "selection", "total", "burn_in", "start", "points",
            "lag", "seed",
        ],
    )
    def test_bad_loop_option_is_config_error(self, synth_dir, tmp_path, loop, capsys):
        out = tmp_path / "run_loop"
        cfg = tmp_path / "cfg_loop.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, out, strategy="bald", **loop)))
        assert run_cli("simulate", "--config", cfg) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()  # refused before any checkpoint ran

    def test_pool_smaller_than_burn_in_is_data_error(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run_small"
        cfg = tmp_path / "cfg_small.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, out, selection_batch_tokens=5000)))
        assert run_cli("simulate", "--config", cfg) == 3
        assert "burn-in" in capsys.readouterr().err
        assert not (out / "history.jsonl").exists()

    def test_bald_records_ensemble_size(self, synth_dir, tmp_path):
        out = tmp_path / "run_bald"
        cfg = tmp_path / "cfg_bald.json"
        config = _sim_config(synth_dir, out, strategy="bald", total_batches=3)
        config["loop"]["ensemble_k"] = 4
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["ensemble_k"] == 4


class TestFitDecayCommand:
    def test_fit_from_random_run(self, synth_dir, tmp_path):
        run = tmp_path / "run_rnd"
        cfg = tmp_path / "cfg_rnd.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, run, strategy="rnd")))
        assert run_cli("simulate", "--config", cfg) == 0
        out = tmp_path / "fits"
        assert run_cli(
            "fit-decay", "--history", run / "history.jsonl", "--out-dir", out
        ) == 0
        assert (out / "fit_p0.txt").exists()
        assert (out / "curves.csv").exists()

    def test_refit_reproduces_files(self, synth_dir, tmp_path):
        run = tmp_path / "run_rnd2"
        cfg = tmp_path / "cfg_rnd2.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, run, strategy="rnd")))
        assert run_cli("simulate", "--config", cfg) == 0
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        for out in (out1, out2):
            assert run_cli(
                "fit-decay", "--history", run / "history.jsonl", "--out-dir", out
            ) == 0
        assert (out1 / "fit_p0.txt").read_bytes() == (out2 / "fit_p0.txt").read_bytes()

    def test_single_checkpoint_rejected(self, synth_dir, tmp_path):
        run = tmp_path / "run_one"
        cfg = tmp_path / "cfg_one.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, run, strategy="rnd")))
        assert run_cli("simulate", "--config", cfg) == 0
        first = (run / "history.jsonl").read_text().splitlines()[0]
        short = tmp_path / "short.jsonl"
        short.write_text(first + "\n")
        assert run_cli(
            "fit-decay", "--history", short, "--out-dir", tmp_path / "nope"
        ) == 3


class TestScoreCommand:
    def test_identity_scores_one(self, synth_dir, capsys):
        code = run_cli(
            "score",
            "--gold", synth_dir / "test.conll",
            "--predictions", synth_dir / "test.conll",
            "--pred-format", "conll",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "f1 1.000000" in out

    def test_weighted_report_alongside(self, synth_dir, tmp_path, capsys):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"E1": 0.9, "E2": 0.9, "E3": 0.1, "E4": 0.1}))
        code = run_cli(
            "score",
            "--gold", synth_dir / "test.conll",
            "--predictions", synth_dir / "test.conll",
            "--pred-format", "conll",
            "--weights", weights,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("f1 1.000000") == 2
        assert "weighted:" in out

    def test_missing_weight_is_config_error(self, synth_dir, tmp_path):
        weights = tmp_path / "weights_missing.json"
        weights.write_text(json.dumps({"E1": 0.9}))
        code = run_cli(
            "score",
            "--gold", synth_dir / "test.conll",
            "--predictions", synth_dir / "test.conll",
            "--pred-format", "conll",
            "--weights", weights,
        )
        assert code == 2

    @pytest.mark.parametrize("with_weights", [False, True])
    def test_tag_without_prefix_is_data_error(self, tmp_path, capsys, with_weights):
        gold = tmp_path / "gold.conll"
        gold.write_text("Ann B-PER\nran O\n")
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"sentence_id": 0, "labels": ["PER", "O"]}) + "\n")
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"PER": 1.0}))
        extra = ("--weights", weights) if with_weights else ()
        code = run_cli(
            "score", "--gold", gold, "--predictions", preds, "--pred-format", "records",
            *extra,
        )
        assert code == 3
        assert "data error: unknown tag 'PER' at position 0" in capsys.readouterr().err

    def test_unlabelled_gold_is_data_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.conll"
        gold.write_text("Ann B-PER\nran\n")
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"sentence_id": 0, "labels": ["B-PER", "O"]}) + "\n")
        code = run_cli(
            "score", "--gold", gold, "--predictions", preds, "--pred-format", "records"
        )
        assert code == 3
        assert "token 1 has no gold tag" in capsys.readouterr().err


class TestSelectCommand:
    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"format": "groupdecay-partition/1"},
            {"format": "groupdecay-partition/1", "kind": "identity", "temperature": 1.0,
             "seed": 0},
            {"format": "groupdecay-partition/1", "kind": "WORD", "temperature": 1.0,
             "seed": 0, "groups": [{"descriptor": "x", "exemplars": []}]},
        ],
        ids=["array", "format-only", "no-groups", "group-without-id"],
    )
    def test_malformed_partition_is_data_error(self, synth_dir, tmp_path, payload, capsys):
        part = tmp_path / "p0.json"
        part.write_text(json.dumps(payload))
        fit = tmp_path / "fit.txt"
        fit.write_text("")
        code = run_cli(
            "select",
            "--pool", synth_dir / "train.conll",
            "--partitions", part,
            "--fits", fit,
            "--budget", 300,
        )
        assert code == 3
        assert "partition" in capsys.readouterr().err

    def test_one_shot_selection(self, synth_dir, tmp_path):
        run = tmp_path / "run_sel"
        cfg = tmp_path / "cfg_sel.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, run)))
        assert run_cli("simulate", "--config", cfg) == 0
        out = tmp_path / "batch.json"
        code = run_cli(
            "select",
            "--pool", synth_dir / "train.conll",
            "--validation", synth_dir / "valid.conll",
            "--partitions", run / "partitions" / "p0.json",
            "--fits", run / "fits" / "final_p0.txt",
            "--budget", 300,
            "--out", out,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["token_count"] >= 300
        assert len(payload["sentence_ids"]) > 0
        # a truncated fit file is a data error
        bad = tmp_path / "bad_fit.txt"
        bad.write_text("a0,a_half,a1,a2,a3\n")
        code = run_cli(
            "select",
            "--pool", synth_dir / "train.conll",
            "--partitions", run / "partitions" / "p0.json",
            "--fits", bad,
            "--budget", 300,
        )
        assert code == 3


class TestExportCurvesCommand:
    def test_export_from_history_and_fits(self, synth_dir, tmp_path):
        run = tmp_path / "run_exp"
        cfg = tmp_path / "cfg_exp.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, run)))
        assert run_cli("simulate", "--config", cfg) == 0
        out = tmp_path / "curves.csv"
        code = run_cli(
            "export-curves",
            "--history", run / "history.jsonl",
            "--fits", run / "fits" / "final_p0.txt",
            "--partitions", run / "partitions" / "p0.json",
            "--out", out,
        )
        assert code == 0
        assert out.read_text().startswith("partition,group,checkpoint")


EXTERNAL_TAGGER = '''\
import sys
sys.path.insert(0, {src!r})
from groupdecay.corpus import parse_conll
from groupdecay.loop import LoopConfig, burn_in_checkpoints
from groupdecay.simlab import ReferenceTagger, tagger_predict
from groupdecay.strategies import write_records

train_path, input_path, output_path, want_logprobs = sys.argv[1:5]
train = parse_conll(open(train_path, encoding="utf-8"), role="train")
data = parse_conll(open(input_path, encoding="utf-8"), role="input")
tagger = ReferenceTagger(train)
records = tagger_predict(tagger, data, want_logprobs=bool(int(want_logprobs)))
with open(output_path, "w", encoding="utf-8") as fh:
    write_records(records.values(), fh)
'''


class TestExternalPredictor:
    def _write_script(self, tmp_path):
        script = tmp_path / "tagger.py"
        src = str(Path(__file__).resolve().parents[1] / "src")
        script.write_text(EXTERNAL_TAGGER.format(src=src))
        return script

    def test_external_us_run(self, synth_dir, tmp_path):
        script = self._write_script(tmp_path)
        out = tmp_path / "run_ext"
        config = _sim_config(synth_dir, out, strategy="us", total_batches=3)
        config["predictor"] = {
            "type": "external",
            "command": f"{sys.executable} {script} {{train}} {{input}} {{output}} {{logprobs}}",
            "logprobs": True,
        }
        cfg = tmp_path / "cfg_ext.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 0
        assert (out / "history.jsonl").exists()

    def test_external_without_logprobs_refused_for_us(self, synth_dir, tmp_path):
        script = self._write_script(tmp_path)
        out = tmp_path / "run_ext2"
        config = _sim_config(synth_dir, out, strategy="us", total_batches=3)
        config["predictor"] = {
            "type": "external",
            "command": f"{sys.executable} {script} {{train}} {{input}} {{output}} 0",
            "logprobs": False,
        }
        cfg = tmp_path / "cfg_ext2.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 2

    def test_failing_external_command_exit_code(self, synth_dir, tmp_path):
        out = tmp_path / "run_fail"
        config = _sim_config(synth_dir, out, strategy="rnd", total_batches=3)
        config["predictor"] = {
            "type": "external",
            "command": f"{sys.executable} -c 'import-sys; sys.exit(1)' {{train}} {{input}} {{output}}",
        }
        cfg = tmp_path / "cfg_fail.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 4
        # partial results preserved for resumption
        assert (out / "manifest.json").exists()
