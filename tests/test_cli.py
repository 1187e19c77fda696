import dataclasses
import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from groupdecay import cli, partition
from groupdecay.cli import main
from groupdecay.corpus import Dataset, parse_conll
from groupdecay.decay import DecayFit, DecayParams, parse_fit, serialize_fit
from groupdecay.loop import LoopConfig, burn_in_checkpoints
from groupdecay.partition import (
    PartitionConfig, build_identity_partition, build_partition, group_mass, load_partition,
    save_partition,
)
from groupdecay.selection import SelectionState, default_epsilon, select_batch
from groupdecay.simlab import ReferenceTagger, SynthSpec, tagger_predict

pytestmark = pytest.mark.filterwarnings("ignore")

_KIND_NAMES = [k.value for k in partition.PartitionKind]


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


def _interrupt(run_dir, cut, keep_side_files=False):
    """Leave ``run_dir`` as a run stopped after ``cut`` checkpoints; with
    ``keep_side_files`` the batch, fit, snapshot and refpred files of later
    checkpoints stay, as an earlier run stopped further on leaves them."""
    lines = (run_dir / "history.jsonl").read_text().splitlines(keepends=True)
    (run_dir / "history.jsonl").write_text("".join(lines[:cut]))
    (run_dir / "curves.csv").unlink()
    if keep_side_files:
        return
    for f in (run_dir / "batches").glob("*.json"):
        f.unlink()
    for sub in ("snapshots", "refpred"):
        for f in (run_dir / sub).glob("checkpoint_*"):
            if int(f.name.split("_")[1].split(".")[0]) >= cut:
                f.unlink()


def _assert_resume_reproduces(tmp_path, config_for, cut, keep_side_files=False):
    """A run resumed after ``cut`` checkpoints writes the uninterrupted run's
    history, batches and curves."""
    full = tmp_path / "run_full"
    cfg_full = tmp_path / "cfg_full.json"
    cfg_full.write_text(json.dumps(config_for(full)))
    assert run_cli("simulate", "--config", cfg_full) == 0

    broken = tmp_path / "run_broken"
    shutil.copytree(full, broken)
    _interrupt(broken, cut, keep_side_files)
    cfg_broken = tmp_path / "cfg_broken.json"
    cfg_broken.write_text(json.dumps(config_for(broken)))
    assert run_cli("simulate", "--config", cfg_broken, "--resume") == 0
    assert (broken / "history.jsonl").read_bytes() == (full / "history.jsonl").read_bytes()
    for batch in sorted((full / "batches").glob("*.json")):
        assert batch.read_bytes() == (broken / "batches" / batch.name).read_bytes()
    assert (broken / "curves.csv").read_bytes() == (full / "curves.csv").read_bytes()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_json(after):
    """The first JSON block of the README after the text ``after``."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```json\n", text.index(after)) + len("```json\n")
    return text[start:text.index("```", start)]


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


# sha256 over every file of a ``simulate`` run directory of ``_sim_config``
# but ``manifest.json`` (it holds absolute paths), keyed by strategy and
# partition kinds; recorded with numpy 2.4.6
RECORDED_RUN_DIRECTORIES = {
    ("edg", "identity"): "aa126c66e22c9959dc8e2b7fbc4d8b6a7b2f68e922ce6aae1f5f85242537c275",
    ("us_edg_ext2", "identity"): "8fce112d4a59b758415965b52d5d1f41d5a764fbdfffeb231c7c68ad45530629",
    ("edg_ext1", "identity"): "21c742152f5f88c46503d8df71eafe8b6a6dcee78d8e0ada7a2009ed53e4b5c3",
    ("div", "identity"): "f314aee4a817d4789f49e4b2a3d41b74d2471b7388e1ec8beedb6de24aaa6035",
    ("edg_ext1", "WORD+SENTENCE"): "604148d0aba900a6d54a0786563f277767ba031af1386dd1d44e6955e96e0dd4",
}


def _run_directory_digest(run, skip=("manifest.json",)):
    """One sha256 over each file's path and sha256, but those of the files
    and directories named in ``skip`` at the top of ``run``."""
    digest = hashlib.sha256()
    for path in sorted(
        p for p in run.rglob("*") if p.is_file() and p.relative_to(run).parts[0] not in skip
    ):
        file_digest = hashlib.sha256(path.read_bytes()).hexdigest()
        digest.update(f"{path.relative_to(run).as_posix()}\0{file_digest}\n".encode())
    return digest.hexdigest()


class TestGenSynth:
    def test_sizes_and_manifest(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["written"]["train"]["tokens"] >= 6000
        train = parse_conll((synth_dir / "train.conll").read_text())
        assert train.token_count == manifest["written"]["train"]["tokens"]

    def test_refuses_existing_without_force(self, synth_dir, capsys):
        code = run_cli("gen-synth", "--output", synth_dir)
        assert code == 2

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
    def test_output_naming_a_file_is_config_error(self, tmp_path, capsys, below):
        blocker = tmp_path / "corpus"
        blocker.write_text("not a directory")
        out = blocker / below if below else blocker
        assert run_cli("gen-synth", "--output", out, "--force", "--set", "train_tokens=50",
                       "--set", "val_tokens=50", "--set", "test_tokens=50") == 2
        err = capsys.readouterr().err
        assert f"config error: output {out}: {blocker} exists and is not a directory" in err
        assert blocker.read_text() == "not a directory"
        assert sorted(tmp_path.iterdir()) == [blocker]

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

    @pytest.mark.parametrize(
        "setting",
        ["train_tokens=abc", "pool_tokens=-1", "sentences_per_doc=0", "vocab_sise=100",
         "seed=abc", "train_tokens=3", "val_tokens=4", "pool_tokens=4"],
        ids=["train-tokens-string", "pool-tokens-negative", "docs-zero", "typo", "seed-string",
             "train-below-min-length", "val-below-min-length", "pool-below-min-length"],
    )
    def test_bad_setting_is_config_error(self, tmp_path, capsys, setting):
        out = tmp_path / "corpus"
        assert run_cli("gen-synth", "--output", out, "--set", setting) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_output_key_is_config_error(self, tmp_path, capsys):
        """The output directory is named by --output alone."""
        out, other = tmp_path / "corpus", tmp_path / "other"
        assert run_cli("gen-synth", "--output", out, "--set", f"output={other}") == 2
        assert "unknown gen-synth options: ['output']" in capsys.readouterr().err
        assert not out.exists() and not other.exists()

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

    @pytest.mark.parametrize("flag", [(), ("--force",), ("--resume",)],
                             ids=["plain", "force", "resume"])
    def test_output_naming_a_file_is_config_error(self, synth_dir, tmp_path, capsys, flag):
        out = tmp_path / "run_file"
        out.write_text("not a directory")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, out, strategy="rnd")))
        assert run_cli("simulate", "--config", cfg, *flag) == 2
        err = capsys.readouterr().err
        assert f"config error: output {out}: {out} exists and is not a directory" in err
        assert out.read_text() == "not a directory"
        assert sorted(tmp_path.iterdir()) == [cfg, out]

    @pytest.mark.parametrize(
        "strategy,empty_validation,burn_in,message",
        [
            ("edg", True, 2, "fits its curves on the validation set, which has no tokens"),
            ("edg_ext1", True, 2, "fits its curves on the validation set, which has no tokens"),
            ("rnd", False, 40, "burn-in takes 16000 tokens; the pool has"),
        ],
        ids=["edg-empty-validation", "edg_ext1-empty-validation", "pool-below-burn-in"],
    )
    def test_refused_run_writes_nothing(self, synth_dir, tmp_path, capsys, strategy,
                                        empty_validation, burn_in, message):
        out = tmp_path / "run_refused"
        config = _sim_config(synth_dir, out, strategy=strategy, burn_in_batches=burn_in,
                             total_batches=burn_in + 2)
        if empty_validation:
            (tmp_path / "empty.conll").write_text("")
            config["paths"]["validation"] = str(tmp_path / "empty.conll")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()
        # a refused --force run leaves the run it would replace in place
        config = _sim_config(synth_dir, out, strategy="rnd")
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 0
        history = (out / "history.jsonl").read_bytes()
        cfg.write_text(json.dumps({**config, "loop": {**config["loop"], "burn_in_batches": 40,
                                                      "total_batches": 42}}))
        assert run_cli("simulate", "--config", cfg, "--force") == 3
        assert (out / "history.jsonl").read_bytes() == history

    def test_force_starts_from_a_clean_run_directory(self, synth_dir, tmp_path):
        out, fresh = tmp_path / "run_force", tmp_path / "run_fresh"
        cfg = tmp_path / "cfg_force.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, out, strategy="rnd")))
        assert run_cli("simulate", "--config", cfg) == 0
        (out / "notes.txt").write_text("not written by simulate")
        config = _sim_config(synth_dir, out, strategy="rnd", total_batches=3)
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg, "--force") == 0
        config["paths"]["output"] = str(fresh)
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 0
        assert (out / "history.jsonl").read_bytes() == (fresh / "history.jsonl").read_bytes()
        assert not (out / "batches" / "batch_0002.json").exists()
        assert (out / "notes.txt").read_text() == "not written by simulate"

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

    @pytest.mark.parametrize("name, kinds", RECORDED_RUN_DIRECTORIES)
    def test_run_directory_reproduces_its_recorded_digest(self, synth_dir, tmp_path, name, kinds):
        out = tmp_path / "run"
        config = _sim_config(synth_dir, out, strategy=name)
        if kinds != "identity":
            config["partitions"]["kinds"] = kinds.split("+")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 0
        assert _run_directory_digest(out) == RECORDED_RUN_DIRECTORIES[name, kinds]

    def test_four_kinds_run_each_k_means_once(self, synth_dir, tmp_path, monkeypatch):
        calls = []
        real = partition.minibatch_kmeans
        monkeypatch.setattr(partition, "minibatch_kmeans",
                            lambda *a, **kw: calls.append(kw["seed"]) or real(*a, **kw))
        out = tmp_path / "run"
        config = _sim_config(synth_dir, out)
        config["partitions"]["kinds"] = ["SENTENCE", "WORD", "WORD_SHAPE", "WORD_SENTENCE"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 0
        # seed 3: the sentence k-means (7 * 3 + 1), the word k-means (+ 2) and
        # WORD's ten sub k-means (+ 100 + top); building each kind on its own
        # made 15 calls for the same run directory, recorded with numpy 2.4.6
        assert sorted(calls) == [22, 23] + list(range(121, 131))
        assert _run_directory_digest(out) == (
            "56f3d2f79da297095d8965fcfb53ca28e34cbc8ba0d95e7dd91f686ae01d6751"
        )

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

    # six batches: five burn-in checkpoints, then four selection checkpoints
    @pytest.mark.parametrize(
        "strategy, cut, lag",
        [
            ("us", 5, None),
            ("us", 6, None),
            ("bald", 6, None),
            ("us_edg_ext2", 6, None),
            ("us_edg_ext2", 4, 0),
            ("edg_ext1", 4, None),
            ("edg_ext1", 6, None),
        ],
    )
    def test_resume_reads_only_the_side_files_of_its_history(
        self, synth_dir, tmp_path, strategy, cut, lag
    ):
        def config_for(out):
            config = _sim_config(synth_dir, out, strategy=strategy, total_batches=6)
            if lag is not None:
                config["loop"]["uncertainty_lag_tokens"] = lag
            return config

        _assert_resume_reproduces(tmp_path, config_for, cut, keep_side_files=True)

    def test_resume_after_the_pool_ran_out(self, synth_dir, tmp_path):
        # the last checkpoint took the whole pool, so it scored none and
        # wrote no snapshot; replaying it needs none
        def config_for(out):
            return _sim_config(
                synth_dir, out, strategy="us_edg_ext2", selection_batch_tokens=2000
            )

        full = tmp_path / "run_full"
        lines = 12  # eleven burn-in checkpoints and the batch that empties the pool
        _assert_resume_reproduces(tmp_path, config_for, lines, keep_side_files=True)
        assert len((full / "history.jsonl").read_text().splitlines()) == lines
        assert not (full / "snapshots" / f"checkpoint_{lines - 1:04d}.json").exists()

    @pytest.mark.parametrize(
        "strategy, cut, side",
        [
            ("us", 5, "snapshots/checkpoint_0004.json"),
            ("us_edg_ext2", 4, "snapshots/checkpoint_0003.json"),
            ("edg_ext1", 4, "refpred/checkpoint_0003.jsonl"),
        ],
    )
    def test_resume_without_a_replayed_side_file_is_data_error(
        self, synth_dir, tmp_path, capsys, strategy, cut, side
    ):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, out, strategy=strategy, total_batches=6)))
        assert run_cli("simulate", "--config", cfg) == 0
        _interrupt(out, cut, keep_side_files=True)
        (out / side).unlink()
        capsys.readouterr()
        assert run_cli("simulate", "--config", cfg, "--resume") == 3
        what = "uncertainty snapshot" if side.startswith("snapshots") else "reference predictions"
        assert f"data error: checkpoint {cut - 1} has no {what}" in capsys.readouterr().err

    def test_resume_with_a_snapshot_missing_a_pool_sentence_is_data_error(
        self, synth_dir, tmp_path, capsys
    ):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, out, strategy="us", total_batches=6)))
        assert run_cli("simulate", "--config", cfg) == 0
        _interrupt(out, 5, keep_side_files=True)
        snapshot = out / "snapshots" / "checkpoint_0004.json"
        payload = json.loads(snapshot.read_text())
        dropped = sorted(payload["scores"], key=int)[3]
        del payload["scores"][dropped]
        snapshot.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("simulate", "--config", cfg, "--resume") == 3
        assert (f"data error: checkpoint 4's uncertainty snapshot does not score pool "
                f"sentences [{dropped}]") in capsys.readouterr().err

    def test_crash_before_a_snapshot_is_written_leaves_a_resumable_run(
        self, synth_dir, tmp_path, monkeypatch
    ):
        # a checkpoint's history line is written after its snapshot, so a run
        # stopped between the two has not recorded the checkpoint
        def config_for(out):
            return _sim_config(synth_dir, out, strategy="us_edg_ext2", total_batches=6)

        full, crashed = tmp_path / "run_full", tmp_path / "run_crashed"
        for out in (full, crashed):
            (tmp_path / f"{out.name}.json").write_text(json.dumps(config_for(out)))
        assert run_cli("simulate", "--config", tmp_path / "run_full.json") == 0
        write_json = cli._write_json

        def crash_at_checkpoint_4(path, payload, **kwargs):
            if path.name == "checkpoint_0004.json":
                raise KeyboardInterrupt
            write_json(path, payload, **kwargs)

        monkeypatch.setattr(cli, "_write_json", crash_at_checkpoint_4)
        with pytest.raises(KeyboardInterrupt):
            run_cli("simulate", "--config", tmp_path / "run_crashed.json")
        assert len((crashed / "history.jsonl").read_text().splitlines()) == 4
        monkeypatch.undo()
        assert run_cli("simulate", "--config", tmp_path / "run_crashed.json", "--resume") == 0
        assert (crashed / "history.jsonl").read_bytes() == (full / "history.jsonl").read_bytes()

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
        "edit",
        [
            {"loop": {"ensemble_k": 1}},
            {"loop": {"history_batch_tokens": 0}},
            {"loop": {"selection_batch_tokens": 1000.5}},
            {"loop": {"total_batches": 6.5}},
            {"loop": {"burn_in_batches": 2.5}},
            {"loop": {"history_start_tokens": 100.5}},
            {"loop": {"min_history_points": 2.5}},
            {"loop": {"uncertainty_lag_tokens": 0.5}},
            {"seed": 1.5},
        ],
        ids=[
            "ensemble_k", "history", "selection", "total", "burn_in", "start", "points",
            "lag", "seed",
        ],
    )
    def test_bad_loop_option_is_config_error(self, synth_dir, tmp_path, edit, capsys):
        """A bad value of a ``LoopConfig`` field, in the ``loop`` table or
        at the top level, where the loop's seed is read."""
        out = tmp_path / "run_loop"
        config = _sim_config(synth_dir, out, strategy="bald")
        config["loop"].update(edit.get("loop", {}))
        config.update({k: v for k, v in edit.items() if k != "loop"})
        cfg = tmp_path / "cfg_loop.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()  # refused before any checkpoint ran

    @pytest.mark.parametrize(
        "strategy, edit",
        [
            ("rnd", {"class_weights": {"E1": 1.0, "E2": 1.0, "E3": 1.0, "E4": 1.0}}),
            ("rnd", {"class_weights": {"O": 1.0, "E1": 1.0, "E2": 1.0, "E3": 1.0}}),
            ("edg", {"class_weights": {"O": 1.0, "E1": 1.0, "E2": 1.0, "E3": 1.0}}),
            ("rnd", {"class_weights": {"O": 1.0, "E1": -1.0, "E2": 1.0, "E3": 1.0, "E4": 1.0}}),
            ("rnd", {"class_weights": {"O": "1", "E1": 1.0, "E2": 1.0, "E3": 1.0, "E4": 1.0}}),
            ("rnd", {"class_weights": [1, 2]}),
            ("rnd", {"epsilon": "abc"}),
            ("edg", {"epsilon": "abc"}),
            ("edg", {"epsilon": float("nan")}),
            ("edg", {"epsilon": float("inf")}),
            ("edg", {"epsilon": 0}),
            ("edg", {"epsilon": -0.001}),
        ],
        ids=[
            "no-O", "no-type-rnd", "no-type-edg", "negative-weight", "string-weight",
            "weights-list", "loop-epsilon-string", "epsilon-string", "epsilon-nan",
            "epsilon-inf", "epsilon-zero", "epsilon-negative",
        ],
    )
    def test_bad_weights_or_epsilon_is_config_error(
        self, synth_dir, tmp_path, capsys, strategy, edit
    ):
        out = tmp_path / "run_weights"
        config = _sim_config(synth_dir, out, strategy=strategy)
        config.update(edit)
        cfg = tmp_path / "cfg_weights.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()  # refused before any partition was built

    @pytest.mark.parametrize(
        "setting",
        [
            "seed=abc",
            "partitions.sentence_groups=abc",
            'partitions.kinds=["BOGUS"]',
            "partitions.kinds=[]",
            "predictor.smoothing_alpha=abc",
            "partitions.sentence_groups=0",
            "predictor.smoothing_alpha=0",
            "partitions.temperature=0",
            "partitions.sentence_groups=3.7",
            "partitions.sentence_group=3",
            "synth_spec.vocab_sise=100",
            "predictor.type=bultin",
        ],
        ids=[
            "seed-string", "groups-string", "kind-unknown", "kinds-empty", "alpha-string",
            "groups-zero", "alpha-zero", "temperature-zero", "groups-fraction",
            "partitions-typo", "synth-spec-typo", "predictor-type-typo",
        ],
    )
    def test_bad_setting_is_config_error(self, synth_dir, tmp_path, capsys, setting):
        # the reproductions build embedding partitions over one-hot vectors
        out = tmp_path / "run_setting"
        config = _sim_config(synth_dir, out, strategy="rnd")
        config["partitions"] = {"kinds": ["SENTENCE"], "one_hot": True, "kmeans_iters": 5}
        cfg = tmp_path / "cfg_setting.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg, "--set", setting) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()  # refused before any partition was built

    @pytest.mark.parametrize(
        "key, setting",
        [
            ("seed", "loop.seed=3"),
            ("mode", "loop.mode=SENTENCE"),
            ("epsilon", "loop.epsilon=0.5"),
            ("class_weights", 'loop.class_weights={"O": 1.0}'),
            ("fit", 'loop.fit={"restarts": "bogus"}'),
            ("identity", "partitions.identity=true"),
        ],
        ids=["loop-seed", "loop-mode", "loop-epsilon", "loop-class-weights", "loop-fit",
             "partitions-identity"],
    )
    def test_second_spelling_is_config_error(self, synth_dir, tmp_path, capsys, key, setting):
        """Each setting has one key: the top level holds seed, mode, epsilon,
        class_weights and fit, and an identity partition is kinds "identity"."""
        out = tmp_path / "run_alias"
        cfg = tmp_path / "cfg_alias.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, out, strategy="rnd")))
        assert run_cli("simulate", "--config", cfg, "--set", setting) == 2
        table = setting.split(".")[0]
        assert f"config error: unknown {table} options: ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("strateg=edg", "unknown top-level options: ['strateg']"),
            ("paths.tset=test.conll", "unknown paths options: ['tset']"),
            ("paths.test=7", "paths.test must be a string, got 7"),
            ("paths.pool=null", "paths.pool must be a string, got None"),
            ('partitions.one_hot="false"', "partitions one_hot must be true or false"),
            ('predictor.logprobs="false"', "predictor logprobs must be true or false"),
            ("predictor.ensemble=1", "predictor ensemble must be true or false"),
        ],
        ids=["top-level-typo", "paths-typo", "path-number", "path-null", "one-hot-string",
             "logprobs-string", "ensemble-number"],
    )
    def test_unread_or_mistyped_key_is_config_error(
        self, synth_dir, tmp_path, capsys, monkeypatch, setting, message
    ):
        def no_partitions(*args, **kwargs):
            raise AssertionError("a partition was built before the config was checked")

        monkeypatch.setattr(cli, "build_identity_partition", no_partitions)
        monkeypatch.setattr(cli, "build_partition", no_partitions)
        out = tmp_path / "run_unread"
        cfg = tmp_path / "cfg_unread.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, out, strategy="rnd")))
        assert run_cli("simulate", "--config", cfg, "--set", setting) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_examples_pass_the_config_checks(self):
        """The README's simulate config and external predictor table are
        accepted by the checks ``simulate`` runs on every config."""
        settings = cli._simulate_settings(json.loads(_readme_json("A simulation config is")))
        assert settings.strategy == "edg" and settings.kinds == [
            "SENTENCE", "WORD", "WORD_SHAPE", "WORD_SENTENCE"
        ]
        predictor = json.loads("{" + _readme_json("Any external tagger can participate") + "}")
        assert cli._predictor_config(predictor)["type"] == "external"

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

    def test_negative_fit_seed_is_config_error(self, synth_dir, tmp_path, capsys):
        run = tmp_path / "run_seed"
        cfg = tmp_path / "cfg_seed.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, run, strategy="rnd")))
        assert run_cli("simulate", "--config", cfg) == 0
        out = tmp_path / "fits"
        assert run_cli(
            "fit-decay", "--history", run / "history.jsonl", "--out-dir", out,
            "--fit-seed", "-1",
        ) == 2
        assert "config error: fit seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()


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

    def test_file_scored_against_itself_scores_one(self, tmp_path, capsys):
        # a form feed inside a line, which str.splitlines would take for a line end
        gold = tmp_path / "gold.conll"
        gold.write_text("Ann\x0cx B-PER\nran O\n\nin O\nParis B-LOC\n")
        code = run_cli("score", "--gold", gold, "--predictions", gold, "--pred-format", "conll")
        assert code == 0
        assert "f1 1.000000" in capsys.readouterr().out

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

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"O": 1.0, "E1": null, "E2": 1.0, "E3": 1.0, "E4": 1.0}',
            '{"O": 1.0, "E1": -0.5, "E2": 1.0, "E3": 1.0, "E4": 1.0}',
            '{"E1": 1.0',
        ],
        ids=["list", "null-weight", "negative-weight", "not-json"],
    )
    def test_bad_weights_file_is_config_error(self, synth_dir, tmp_path, capsys, text):
        weights = tmp_path / "weights.json"
        weights.write_text(text)
        code = run_cli(
            "score",
            "--gold", synth_dir / "test.conll",
            "--predictions", synth_dir / "test.conll",
            "--pred-format", "conll",
            "--weights", weights,
        )
        assert code == 2
        assert f"config error: weights file {weights}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        [{"labels": ["B-PER", "O"]}, {"sentence_id": 0, "labels": 5}, [0, ["B-PER", "O"]]],
        ids=["no-sentence-id", "labels-number", "array"],
    )
    def test_malformed_record_is_data_error(self, tmp_path, capsys, record):
        gold = tmp_path / "gold.conll"
        gold.write_text("Ann B-PER\nran O\n")
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps(record) + "\n")
        code = run_cli("score", "--gold", gold, "--predictions", preds)
        assert code == 3
        assert "data error: malformed record line" in capsys.readouterr().err

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

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-1e-3"])
    def test_bad_epsilon_is_config_error(self, synth_dir, finished_run, epsilon, capsys):
        code = run_cli(
            "select",
            "--pool", synth_dir / "train.conll",
            "--partitions", finished_run / "partitions" / "p0.json",
            "--fits", finished_run / "fits" / "final_p0.txt",
            "--budget", 300,
            f"--epsilon={epsilon}",
        )
        assert code == 2
        assert "epsilon must be a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_config_error(self, finished_run, tmp_path, capsys, budget):
        code = run_cli(
            "select",
            "--pool", tmp_path / "absent.conll",
            "--partitions", finished_run / "partitions" / "p0.json",
            "--fits", finished_run / "fits" / "final_p0.txt",
            f"--budget={budget}",
        )
        assert code == 2
        assert f"budget must be an integer >= 1, got {budget}" in capsys.readouterr().err

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


@pytest.fixture(scope="module")
def word_files(synth_dir, tmp_path_factory):
    """An embeddings file over the synthetic vocabulary, a WORD partition of
    the pool under it (3 x 4 groups) and a fit file for that partition."""
    tmp = tmp_path_factory.mktemp("word")
    rng = np.random.default_rng(7)
    embeddings = tmp / "emb.txt"
    embeddings.write_text("".join(
        w + " " + " ".join(repr(float(v)) for v in rng.normal(size=6)) + "\n"
        for w in SynthSpec().surfaces
    ))
    pool = parse_conll((synth_dir / "train.conll").read_text(), role="pool")
    table = cli._read_embeddings(str(embeddings))
    cfg = PartitionConfig(word_groups=3, word_subgroups=4, kmeans_iters=10)
    part = build_partition(pool.sentences, table, "WORD", cfg)
    partition = tmp / "word.json"
    partition.write_text(save_partition(part))
    fit = tmp / "word_fit.txt"
    fit.write_text(serialize_fit(_params(part.n_groups)))
    return embeddings, partition, fit


def _params(n_groups):
    return DecayParams(a0=1.0, a_half=0.5, a1=0.0, a2=0.0, a3=0.0,
                       b=np.full(n_groups, 0.2), c=np.full(n_groups, 0.01))


@pytest.fixture(scope="module")
def select_files(doc_synth_dir, tmp_path_factory):
    """An embeddings file over the synthetic vocabulary, and a partition file
    and a fit file per partition kind and for identity, each partition built
    over the pool (train.conll) and the validation set."""
    tmp = tmp_path_factory.mktemp("select_kinds")
    rng = np.random.default_rng(5)
    embeddings = tmp / "emb.txt"
    embeddings.write_text("".join(
        w + " " + " ".join(repr(float(v)) for v in rng.normal(size=6)) + "\n"
        for w in SynthSpec().surfaces
    ))
    table = cli._read_embeddings(str(embeddings))
    union = [s for name in ("train", "valid")
             for s in parse_conll((doc_synth_dir / f"{name}.conll").read_text()).sentences]
    cfg = PartitionConfig(sentence_groups=3, word_groups=3, word_subgroups=2, kmeans_iters=5)
    parts = {k.value: build_partition(union, table, k, cfg) for k in partition.PartitionKind}
    parts["identity"] = build_identity_partition(union)
    files = {}
    for name, part in parts.items():
        J = part.n_groups
        params = DecayParams(a0=1.0, a_half=0.5, a1=0.2, a2=0.0, a3=0.0,
                             b=rng.uniform(0.1, 1.0, J), c=rng.uniform(0.0, 0.1, J))
        files[name] = (tmp / f"{name}.json", tmp / f"{name}_fit.txt")
        files[name][0].write_text(save_partition(part))
        files[name][1].write_text(serialize_fit(params))
    return embeddings, files


class TestSelectReadsTheUnionOnce:
    """``select`` builds one index per partition over pool, train and
    validation; its batch is the library's over group masses of each."""

    @pytest.mark.parametrize("mode", ["SENTENCE", "DOCUMENT"])
    @pytest.mark.parametrize("kind", [*_KIND_NAMES, "identity", "all"])
    def test_batch_equals_the_library_path(self, doc_synth_dir, select_files, tmp_path,
                                           kind, mode):
        embeddings, files = select_files
        names = [*_KIND_NAMES, "identity"] if kind == "all" else [kind]
        out = tmp_path / "batch.json"
        code = run_cli(
            "select",
            "--pool", doc_synth_dir / "train.conll",
            "--train", doc_synth_dir / "test.conll",
            "--validation", doc_synth_dir / "valid.conll",
            "--partitions", *(files[n][0] for n in names),
            "--fits", *(files[n][1] for n in names),
            "--embeddings", embeddings,
            "--budget", 300,
            "--mode", mode,
            "--out", out,
        )
        assert code == 0
        pool, train, validation = (parse_conll((doc_synth_dir / f"{n}.conll").read_text())
                                   for n in ("train", "test", "valid"))
        table = cli._read_embeddings(str(embeddings))
        parts = [load_partition(files[n][0].read_text()) for n in names]
        da = [*pool.sentences, *train.sentences, *validation.sentences]
        state = SelectionState(
            partitions=parts,
            fits=[DecayFit(parse_fit(files[n][1].read_text()), [], 0.0, True) for n in names],
            train_mass=[group_mass(p, train, table) for p in parts],
            da_mass=[group_mass(p, da, table) for p in parts],
            token_budget=300,
            epsilon=default_epsilon(sum(map(len, da))),
            table=table,
        )
        batch = select_batch(state, list(pool.sentences), mode)
        assert out.read_text() == json.dumps(dataclasses.asdict(batch), sort_keys=True) + "\n"


class TestSelectInputChecks:
    def _select(self, synth_dir, partition, fit, *extra):
        return run_cli("select", "--pool", synth_dir / "train.conll", "--partitions", partition,
                       "--fits", fit, "--budget", 300, *extra)

    def test_embedding_partition_needs_embeddings(self, synth_dir, word_files, capsys):
        embeddings, partition, fit = word_files
        assert self._select(synth_dir, partition, fit) == 2
        assert "need an embeddings file" in capsys.readouterr().err
        assert self._select(synth_dir, partition, fit, "--embeddings", embeddings) == 0

    @pytest.mark.parametrize(
        "edit",
        [
            {"word_centers": None},
            {"kind": "WORD_SENTENCE"},
            {"sub_slots": 1},
            {"kind": "SENTENCE"},
            {"word_centers": [0.5, 0.5]},
            {"word_centers": [[0.5] * 5] * 3},
            {"sub_centers": "drop-one"},
            {"sub_centers": None},
        ],
        ids=["no-word-centers", "as-word-sentence", "sub-slots-1", "as-sentence",
             "1-d-word-centers", "other-width", "sub-centers-short", "no-sub-centers"],
    )
    def test_partition_file_missing_what_its_kind_reads_is_data_error(
        self, synth_dir, word_files, tmp_path, capsys, edit
    ):
        embeddings, partition, fit = word_files
        payload = json.loads(partition.read_text())
        if edit.get("sub_centers") == "drop-one":
            edit = {"sub_centers": payload["sub_centers"][:-1]}
        payload.update(edit)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert self._select(synth_dir, bad, fit, "--embeddings", embeddings) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"temperature": -1.0}, "temperature must be a finite number > 0, got -1.0"),
            ({"temperature": 0}, "temperature must be a finite number > 0, got 0"),
            ("nan-center", "word_centers holds a value that is not finite"),
            ("inf-center", "word_centers holds a value that is not finite"),
        ],
        ids=["temperature-negative", "temperature-zero", "center-nan", "center-inf"],
    )
    def test_partition_file_with_invalid_value_is_data_error(
        self, synth_dir, word_files, tmp_path, capsys, edit, message
    ):
        embeddings, partition, fit = word_files
        payload = json.loads(partition.read_text())
        if isinstance(edit, dict):
            payload.update(edit)
        else:
            payload["word_centers"][1][2] = float(edit.split("-")[0])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert self._select(synth_dir, bad, fit, "--embeddings", embeddings) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("file", ["embeddings", "fit"])
    def test_non_finite_number_is_data_error(self, synth_dir, word_files, tmp_path, capsys, file):
        embeddings, partition, fit = word_files
        bad = tmp_path / "bad.txt"
        if file == "embeddings":
            lines = embeddings.read_text().splitlines()
            lines[2] = lines[2].split()[0] + " nan" * 6
            bad.write_text("\n".join(lines) + "\n")
            embeddings, message = bad, "line 3: non-finite component"
        else:
            bad.write_text(fit.read_text().replace("0.2", "inf", 1))
            fit, message = bad, "not a finite number"
        assert self._select(synth_dir, partition, fit, "--embeddings", embeddings) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, groups",
        [("select", 7), ("select", 300), ("export-curves", 1)],
        ids=["7", "300", "export-curves-1"],
    )
    def test_fit_of_another_group_count_is_data_error(
        self, synth_dir, finished_run, tmp_path, capsys, command, groups
    ):
        partition = finished_run / "partitions" / "p0.json"
        n_groups = load_partition(partition.read_text()).n_groups
        assert n_groups not in (1, 7, 300)
        fit = tmp_path / "fit.txt"
        fit.write_text(serialize_fit(_params(groups)))
        if command == "select":
            code = self._select(synth_dir, partition, fit)
        else:
            code = run_cli("export-curves", "--history", finished_run / "history.jsonl",
                           "--fits", fit, "--out", tmp_path / "curves.csv")
        assert code == 3
        err = capsys.readouterr().err
        assert f"has {groups} groups" in err and f"partition {n_groups}" in err
        assert not (tmp_path / "curves.csv").exists()


class TestRunFileCounts:
    """fit-decay, export-curves and select need one partition and one fit
    file per partition of the history (or of the partition files), each
    with that partition's group count."""

    def test_partition_of_another_group_count_is_data_error(self, finished_run, tmp_path,
                                                            capsys):
        small = tmp_path / "small.json"
        sentence = parse_conll("aa O\nw050 O\nzz O\n", role="x").sentences
        small.write_text(save_partition(build_identity_partition(sentence)))
        n_groups = load_partition((finished_run / "partitions" / "p0.json").read_text()).n_groups
        history = finished_run / "history.jsonl"
        for command in (
            ["fit-decay", "--history", history, "--out-dir", tmp_path / "f"],
            ["export-curves", "--history", history, "--out", tmp_path / "curves.csv",
             "--fits", finished_run / "fits" / "final_p0.txt"],
        ):
            assert run_cli(*command, "--partitions", small) == 3
            err = capsys.readouterr().err
            assert f"partition file {small} has 3 groups, its partition {n_groups}" in err
        assert not (tmp_path / "f").exists() and not (tmp_path / "curves.csv").exists()

    @pytest.mark.parametrize("command", ["fit-decay", "export-curves"])
    def test_partition_file_with_invalid_temperature_is_data_error(
        self, finished_run, tmp_path, capsys, command
    ):
        payload = json.loads((finished_run / "partitions" / "p0.json").read_text())
        payload["temperature"] = -1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        history = finished_run / "history.jsonl"
        args = {
            "fit-decay": ["--out-dir", tmp_path / "f"],
            "export-curves": ["--out", tmp_path / "curves.csv",
                              "--fits", finished_run / "fits" / "final_p0.txt"],
        }[command]
        assert run_cli(command, "--history", history, *args, "--partitions", bad) == 3
        assert "temperature must be a finite number > 0" in capsys.readouterr().err
        assert not (tmp_path / "f").exists() and not (tmp_path / "curves.csv").exists()

    @pytest.mark.parametrize(
        "case", ["fit-decay-two-partitions", "export-curves-two-fits", "select-one-fit"]
    )
    def test_wrong_number_of_files_is_data_error(
        self, synth_dir, finished_run, tmp_path, capsys, case
    ):
        part, fit = finished_run / "partitions" / "p0.json", finished_run / "fits" / "final_p0.txt"
        history = finished_run / "history.jsonl"
        command, message = {
            "fit-decay-two-partitions": (
                ["fit-decay", "--history", history, "--out-dir", tmp_path / "f",
                 "--partitions", part, part],
                f"2 partition files for the 1 partitions of history {history}",
            ),
            "export-curves-two-fits": (
                ["export-curves", "--history", history, "--fits", fit, fit],
                f"2 fit files for the 1 partitions of history {history}",
            ),
            "select-one-fit": (
                ["select", "--pool", synth_dir / "train.conll", "--partitions", part, part,
                 "--fits", fit, "--budget", 300],
                f"1 fit files for the 2 partitions of partition files {part} {part}",
            ),
        }[case]
        assert run_cli(*command) == 3
        assert f"data error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()


def _malformed_history(run, tmp_path, case):
    """A copy of ``run``'s history whose second line is broken by ``case``."""
    lines = (run / "history.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    if case == "array":
        lines[1] = json.dumps([record])
    elif case == "no-index":
        del record["index"]
        lines[1] = json.dumps(record)
    elif case == "extra-partition":
        record["partitions"].append(record["partitions"][0])
        lines[1] = json.dumps(record)
    elif case == "fewer-groups":
        record["partitions"][0] = {k: v[:-1] for k, v in record["partitions"][0].items()}
        lines[1] = json.dumps(record)
    elif case == "ragged":
        record["partitions"][0]["val_error"].pop()
        lines[1] = json.dumps(record)
    else:
        record["partitions"][0]["val_error"][0] = float("nan")
        lines[1] = json.dumps(record)
    path = tmp_path / "history.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


# what the data error says about each broken history of ``_malformed_history``
_HISTORY_ERRORS = {
    "array": "malformed history line",
    "no-index": "malformed history line",
    "ragged": "malformed history line",
    "extra-partition": "history checkpoint 1 has group counts",
    "fewer-groups": "history checkpoint 1 has group counts",
}


class TestMalformedHistory:
    @pytest.mark.parametrize(
        "case", ["array", "no-index", "nan-error", "extra-partition", "fewer-groups", "ragged"]
    )
    def test_fit_decay(self, finished_run, tmp_path, capsys, case):
        history = _malformed_history(finished_run, tmp_path, case)
        assert run_cli("fit-decay", "--history", history, "--out-dir", tmp_path / "f") == 3
        err = capsys.readouterr().err
        assert "data error" in err
        if case != "nan-error":
            assert _HISTORY_ERRORS[case] in err

    @pytest.mark.parametrize("case", ["array", "no-index", "extra-partition"])
    def test_export_curves(self, finished_run, tmp_path, capsys, case):
        history = _malformed_history(finished_run, tmp_path, case)
        code = run_cli("export-curves", "--history", history,
                       "--fits", finished_run / "fits" / "final_p0.txt")
        assert code == 3
        assert _HISTORY_ERRORS[case] in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["array", "no-index", "extra-partition"])
    def test_resume(self, synth_dir, finished_run, tmp_path, capsys, case):
        run = tmp_path / "run"
        shutil.copytree(finished_run, run)
        _malformed_history(finished_run, run, case)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, run)))
        assert run_cli("simulate", "--config", cfg, "--resume") == 3
        assert _HISTORY_ERRORS[case] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("snapshots/checkpoint_0000.json", '{"scores": {}}', "malformed snapshot file"),
            ("snapshots/checkpoint_0000.json", '{"tokens": 400, "scores": [1.0]}',
             "malformed snapshot file"),
            ("snapshots/checkpoint_0000.json", '{"tokens": 400, "scores": {"0": "x"}}',
             "malformed snapshot file"),
            ("snapshots/checkpoint_0000.json", '{"tokens": 400, "scores": {"0": true}}',
             "malformed snapshot file"),
            ("refpred/checkpoint_0000.jsonl", '{"labels": ["O"]}\n',
             "reference prediction file"),
        ],
        ids=["snapshot-no-tokens", "snapshot-scores-list", "snapshot-score-string",
             "snapshot-score-bool", "refpred-no-sentence-id"],
    )
    def test_resume_file(self, synth_dir, finished_run, tmp_path, capsys, name, text, message):
        run = tmp_path / "run"
        shutil.copytree(finished_run, run)
        (run / name).write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_sim_config(synth_dir, run)))
        assert run_cli("simulate", "--config", cfg, "--resume") == 3
        assert f"data error: {message} {run / name}" in capsys.readouterr().err


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


@pytest.fixture(scope="module")
def finished_run(synth_dir, tmp_path_factory):
    """A completed edg run: its history, partition and fit files."""
    tmp = tmp_path_factory.mktemp("finished")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(_sim_config(synth_dir, tmp / "run")))
    assert run_cli("simulate", "--config", cfg) == 0
    return tmp / "run"


def _missing_file_command(case, synth_dir, run, missing, tmp_path):
    pool, test = synth_dir / "train.conll", synth_dir / "test.conll"
    part, fit = run / "partitions" / "p0.json", run / "fits" / "final_p0.txt"
    history = run / "history.jsonl"
    select = ["select", "--pool", pool, "--budget", 300]
    if case == "simulate-embeddings":
        config = _sim_config(synth_dir, tmp_path / "run")
        config["paths"]["embeddings"] = str(missing)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        return ["simulate", "--config", tmp_path / "cfg.json"]
    return {
        "select-partitions": select + ["--partitions", missing, "--fits", fit],
        "select-fits": select + ["--partitions", part, "--fits", missing],
        "select-embeddings": select + [
            "--partitions", part, "--fits", fit, "--embeddings", missing,
        ],
        "fit-decay-history": ["fit-decay", "--history", missing, "--out-dir", tmp_path / "f"],
        "fit-decay-partitions": [
            "fit-decay", "--history", history, "--out-dir", tmp_path / "f", "--partitions", missing,
        ],
        "export-curves-history": ["export-curves", "--history", missing, "--fits", fit],
        "export-curves-fits": ["export-curves", "--history", history, "--fits", missing],
        "export-curves-partitions": [
            "export-curves", "--history", history, "--fits", fit, "--partitions", missing,
        ],
        "score-predictions": ["score", "--gold", test, "--predictions", missing],
        "score-weights": [
            "score", "--gold", test, "--predictions", test, "--pred-format", "conll",
            "--weights", missing,
        ],
    }[case]


class TestMissingInputFile:
    @pytest.mark.parametrize(
        "case",
        [
            "select-partitions", "select-fits", "select-embeddings", "fit-decay-history",
            "fit-decay-partitions", "export-curves-history", "export-curves-fits",
            "export-curves-partitions", "score-predictions", "score-weights",
            "simulate-embeddings",
        ],
    )
    def test_is_config_error(self, synth_dir, finished_run, tmp_path, capsys, case):
        missing = tmp_path / "absent.txt"
        code = run_cli(*_missing_file_command(case, synth_dir, finished_run, missing, tmp_path))
        assert code == 2
        assert f"file not found: {missing}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()  # simulate refused before any output


class TestDirectoryInputFile:
    @pytest.mark.parametrize("case", ["config", "pool"])
    def test_is_config_error(self, synth_dir, tmp_path, capsys, case):
        folder = tmp_path / "folder"
        folder.mkdir()
        config = _sim_config(synth_dir, tmp_path / "run")
        if case == "pool":
            config["paths"]["pool"] = str(folder)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = run_cli("simulate", "--config", folder if case == "config" else cfg)
        assert code == 2
        assert f"{case} file is a directory: {folder}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


EXTERNAL_TAGGER = '''\
import sys
sys.path.insert(0, {src!r})
from groupdecay.corpus import parse_conll
from groupdecay.loop import LoopConfig, burn_in_checkpoints
from groupdecay.simlab import ReferenceTagger, tagger_predict
from groupdecay.strategies import write_records

train_path, input_path, output_path, want_logprobs = sys.argv[1:5]
if len(sys.argv) > 5:  # a log file: one line per invocation
    with open(sys.argv[5], "a", encoding="utf-8") as fh:
        fh.write(" ".join(sys.argv[1:5]) + "\\n")
train = parse_conll(open(train_path, encoding="utf-8"), role="train")
data = parse_conll(open(input_path, encoding="utf-8"), role="input")
tagger = ReferenceTagger(train)
records = tagger_predict(tagger, data, want_logprobs=bool(int(want_logprobs)))
with open(output_path, "w", encoding="utf-8") as fh:
    write_records(records.values(), fh)
'''


# tags every token B-ZZZ, a type no training sentence has
ZZZ_TAGGER = '''\
import sys
sys.path.insert(0, {src!r})
from groupdecay.corpus import parse_conll
from groupdecay.strategies import PredictionRecord, write_records

data = parse_conll(open(sys.argv[2], encoding="utf-8"), role="input")
with open(sys.argv[3], "w", encoding="utf-8") as fh:
    write_records(
        (PredictionRecord(pos, ("B-ZZZ",) * len(s)) for pos, s in enumerate(data.sentences)), fh
    )
'''


# sha256 over the files outside ``external/`` and ``manifest.json`` of
# the external ``us`` run of ``test_one_label_call_per_checkpoint``, without
# and with a pseudo-test set; recorded when every label request was an
# invocation of its own
RECORDED_EXTERNAL_RUNS = {
    False: "9b396ed1298c22993e26d973bf9c811758ccd26a4fd107abd5b2994ac83bc47f",
    True: "0adb3c4ffb0ef891b366e4df7ffecc7bb76703d8d244a8ba3496a79a7dd0e6e8",
}


class TestExternalPredictor:
    def _write_script(self, tmp_path):
        script = tmp_path / "tagger.py"
        src = str(Path(__file__).resolve().parents[1] / "src")
        script.write_text(EXTERNAL_TAGGER.format(src=src))
        return script

    @pytest.mark.parametrize("pseudo_test", [False, True], ids=["test", "test-and-pseudo-test"])
    def test_one_label_call_per_checkpoint(self, synth_dir, doc_synth_dir, tmp_path, pseudo_test):
        script, log = self._write_script(tmp_path), tmp_path / "calls.log"
        out = tmp_path / "run"
        config = _sim_config(synth_dir, out, strategy="us", total_batches=4)
        config["predictor"] = {
            "type": "external",
            "command": f"{sys.executable} {script} {{train}} {{input}} {{output}} {{logprobs}} {log}",
            "logprobs": True,
        }
        label_files = [synth_dir / "valid.conll", synth_dir / "test.conll"]
        if pseudo_test:
            config["paths"]["pseudo_test"] = str(doc_synth_dir / "valid.conll")
            label_files.append(doc_synth_dir / "valid.conll")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 0

        # one label call per checkpoint, one log-prob call per pool scoring
        flags = [line.split()[-1] for line in log.read_text().splitlines()]
        checkpoints = len((out / "history.jsonl").read_text().splitlines())
        scorings = len(list((out / "snapshots").glob("checkpoint_*.json")))
        assert (checkpoints, scorings) == (7, 2)
        assert sorted(flags) == ["0"] * checkpoints + ["1"] * scorings
        assert _run_directory_digest(out, skip=("manifest.json", "external")) == (
            RECORDED_EXTERNAL_RUNS[pseudo_test]
        )
        # the label call's input holds the sets in order, each with its own
        # -DOCSTART- lines; the first checkpoint's first call is its label call
        first = json.loads((out / "history.jsonl").read_text().splitlines()[0])
        merged = (out / "external" / f"input_{first['train_tokens']:09d}_01.conll").read_text()
        texts = [path.read_text() for path in label_files]
        assert merged.count("-DOCSTART-") == sum(t.count("-DOCSTART-") for t in texts)
        assert [s.surfaces for s in parse_conll(merged).sentences] == [
            s.surfaces for t in texts for s in parse_conll(t).sentences
        ]

    def test_input_files_hold_surfaces_only(self, synth_dir, tmp_path):
        script = self._write_script(tmp_path)
        out = tmp_path / "run"
        config = _sim_config(synth_dir, out, strategy="us", total_batches=3)
        config["predictor"] = {
            "type": "external",
            "command": f"{sys.executable} {script} {{train}} {{input}} {{output}} {{logprobs}}",
            "logprobs": True,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 0
        inputs = sorted((out / "external").glob("input_*.conll"))
        assert inputs
        for path in inputs:
            assert all(len(line.split()) <= 1 for line in path.read_text().splitlines())

    def test_files_name_their_checkpoint_and_call(self, synth_dir, tmp_path):
        # no checkpoint's files overwrite another's: each is keyed by the
        # checkpoint's training tokens, and an input or output file by its call
        script, log = self._write_script(tmp_path), tmp_path / "calls.log"
        out = tmp_path / "run"
        config = _sim_config(synth_dir, out, strategy="us", total_batches=5)
        config["predictor"] = {
            "type": "external",
            "command": f"{sys.executable} {script} {{train}} {{input}} {{output}} {{logprobs}} {log}",
            "logprobs": True,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 0
        history = [json.loads(line) for line in (out / "history.jsonl").read_text().splitlines()]
        assert sum(rec["phase"] == "select" for rec in history) == 3
        keys = [f"{rec['train_tokens']:09d}" for rec in history]
        assert len(set(keys)) == len(keys)

        calls = [[Path(arg).name for arg in line.split()[:3]]
                 for line in log.read_text().splitlines()]
        per_key: dict[str, list[int]] = {}
        for train, inp, outp in calls:
            key = train.removeprefix("train_").removesuffix(".conll")
            number = inp.removeprefix(f"input_{key}_").removesuffix(".conll")
            assert outp == f"output_{key}_{number}.jsonl"
            per_key.setdefault(key, []).append(int(number))
        assert sorted(per_key) == keys
        assert all(numbers == list(range(1, len(numbers) + 1)) for numbers in per_key.values())
        expected = {f"train_{key}.conll" for key in keys} | {name for call in calls for name in call}
        assert sorted(p.name for p in (out / "external").iterdir()) == sorted(expected)
        for key in keys:
            train = parse_conll((out / "external" / f"train_{key}.conll").read_text())
            assert train.token_count == int(key)

    def test_label_requests_map_back_by_position(self, synth_dir, tmp_path):
        script, log = self._write_script(tmp_path), tmp_path / "calls.log"
        template = cli._command_template(
            f"{sys.executable} {script} {{train}} {{input}} {{output}} {{logprobs}} {log}"
        )
        pool, val, test = (
            parse_conll((synth_dir / f"{name}.conll").read_text(), role=name)
            for name in ("train", "valid", "test")
        )
        train = Dataset(pool.sentences[:150], pool.label_inventory, role="train")
        predictor = cli.external_trainer(template, tmp_path / "external", [val, test])(train)
        tagger = ReferenceTagger(train)

        def calls():
            return len(log.read_text().splitlines())

        # validation and test ids both count from 0
        assert {s.id for s in val.sentences} & {s.id for s in test.sentences}
        for ds in (test, val):
            got = predictor.predict(list(ds.sentences))
            want = tagger_predict(tagger, ds)
            assert {sid: r.labels for sid, r in got.items()} == {
                sid: r.labels for sid, r in want.items()
            }
        assert calls() == 1
        # other sentences, part of a set, an equal copy of one and log-prob
        # requests are each an invocation of their own
        copy = parse_conll((synth_dir / "valid.conll").read_text(), role="valid")
        for request, logprobs in (
            (pool.sentences[150:170], False),
            (val.sentences[:5], False),
            (copy.sentences, False),
            (val.sentences, True),
        ):
            before = calls()
            got = predictor.predict(request, want_logprobs=logprobs)
            assert calls() == before + 1
            assert {sid: r.labels for sid, r in got.items()} == {
                sid: r.labels for sid, r in tagger_predict(tagger, request).items()
            }

    def test_external_us_run(self, synth_dir, tmp_path):
        script = self._write_script(tmp_path)
        # each substituted path stays one argument, spaces and all
        out = tmp_path / "run ext"
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

    def test_predicted_type_without_weight_is_data_error(self, synth_dir, tmp_path, capsys):
        script = tmp_path / "zzz_tagger.py"
        script.write_text(ZZZ_TAGGER.format(src=str(Path(__file__).resolve().parents[1] / "src")))
        out = tmp_path / "run_zzz"
        config = _sim_config(synth_dir, out, strategy="rnd", total_batches=3)
        config["class_weights"] = {"O": 1.0, "E1": 1.0, "E2": 1.0, "E3": 1.0, "E4": 1.0}
        config["predictor"] = {
            "type": "external",
            "command": f"{sys.executable} {script} {{train}} {{input}} {{output}}",
        }
        cfg = tmp_path / "cfg_zzz.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 3
        assert "no weight for entity type 'ZZZ'" in capsys.readouterr().err

    def test_malformed_records_are_predictor_error(self, synth_dir, tmp_path, capsys):
        script = tmp_path / "bad_tagger.py"
        script.write_text(
            "import json, sys\n"
            "with open(sys.argv[1], 'w') as fh:\n"
            "    fh.write(json.dumps({'sentence_id': 0, 'labels': 5}) + '\\n')\n"
        )
        out = tmp_path / "run_bad_records"
        config = _sim_config(synth_dir, out, strategy="rnd", total_batches=3)
        config["predictor"] = {
            "type": "external",
            "command": f"{sys.executable} {script} {{output}} {{train}} {{input}}",
        }
        cfg = tmp_path / "cfg_bad_records.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 4
        assert "external predictor wrote malformed records: malformed record line" in (
            capsys.readouterr().err
        )

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


    @pytest.mark.parametrize(
        "command, message",
        [
            ("tagger '{train} {input} {output}", "No closing quotation"),
            ("tagger {train} {input} {output} {foo}", "['foo', 'input', 'output', 'train']"),
            ("tagger {train} {input}", "names placeholders ['input', 'train']"),
            ("tagger {train:d} {input} {output}", "Unknown format code 'd'"),
        ],
        ids=["unbalanced_quote", "unknown_placeholder", "missing_placeholder", "format_spec"],
    )
    def test_bad_command_template_is_config_error(
        self, synth_dir, tmp_path, capsys, command, message
    ):
        out = tmp_path / "run_template"
        config = _sim_config(synth_dir, out, strategy="rnd")
        config["predictor"] = {"type": "external", "command": command}
        cfg = tmp_path / "cfg_template.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_command_that_cannot_start_is_predictor_error(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run_nostart"
        config = _sim_config(synth_dir, out, strategy="rnd", total_batches=3)
        config["predictor"] = {
            "type": "external",
            "command": "groupdecay-no-such-tagger {train} {input} {output}",
        }
        cfg = tmp_path / "cfg_nostart.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", cfg) == 4
        assert "external predictor error: external predictor could not start" in (
            capsys.readouterr().err
        )


class TestBenchmarkTracer:
    def test_traced_names_exist_and_cli_readers_go_through_them(self, synth_dir, tmp_path):
        """bench/tracing.py replaces names on the package's modules; a renamed
        or removed one fails ``instrument``, and a reader bound early would
        bypass its replacement and read 0."""
        import importlib.util

        from groupdecay import cli

        path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        original = cli.parse_conll
        records = tmp_path / "preds.jsonl"
        records.write_text(json.dumps({"sentence_id": 0, "labels": ["O"]}) + "\n")
        gold = tmp_path / "gold.conll"
        gold.write_text("Ann O\n")
        embeddings = tmp_path / "emb.txt"
        embeddings.write_text("Ann 1.0 0.0\n")
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        try:
            assert run_cli("score", "--gold", gold, "--predictions", gold,
                           "--pred-format", "conll") == 0
            assert run_cli("score", "--gold", gold, "--predictions", records) == 0
            cli._read_embeddings(str(embeddings))
        finally:
            tracer.unpatch()
        assert cli.parse_conll is original
        names = [span[0] for span in tracer.spans]
        assert names.count("corpus.parse") == 3
        assert names.count("strategies.records_parse") == 1
        assert names.count("corpus.embeddings") == 1
