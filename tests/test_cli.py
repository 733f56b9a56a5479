import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import overflowing_checkpoint
from sheaf_kg.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run_cli(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def interior_overflow_checkpoint(tmp_path):
    """A checkpoint that loads but overflows inside a 2p query's interior block, and that query file.

    Planted 60-entity graph, 2 relations, d=4, seed 1; a free-map shv model
    from ``init_for_kg`` with ``head_maps[0][0, 0] = 1e160``, finite, so
    ``load_model`` accepts it. On (r1, r0) the interior vertex's Laplacian
    block squares it to inf. The file holds the easy 2p queries on (r1, r0).
    """
    from sheaf_kg.checkpoint import save_model
    from sheaf_kg.evaluation import build_easy_queries
    from sheaf_kg.kgdata import build_index
    from sheaf_kg.model import ModelConfig, init_for_kg
    from sheaf_kg.query import write_queries
    from sheaf_kg.synth import generate_planted_kg

    ds = generate_planted_kg(60, 2, 4, 0.0, seed=1, variant="shv")
    model = init_for_kg(ModelConfig(), ds.kg, 0)
    model.sheaf.head_maps[0][0, 0] = 1e160
    save_model(model, tmp_path / "m")
    queries = build_easy_queries(ds.kg, build_index(ds.kg), "2p", 5, np.random.default_rng(0))
    queries = [q for q in queries if q.relations == (1, 0)]
    assert [q.anchors for q in queries] == [(10,), (49,)]
    write_queries(queries, tmp_path / "q.tsv", model.entities, model.schema.relation_types)
    return tmp_path / "m", tmp_path / "q.tsv"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train (2 seeds) pipeline shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    runner = CliRunner()
    out = runner.invoke(
        main,
        [
            "synth", "--entities", "60", "--relations", "3", "--dim", "8",
            "--noise", "0", "--seed", "5", "--out", str(data),
            "--easy-queries", "1p,2p", "--queries-per-structure", "10",
        ],
        catch_exceptions=False,
    )
    assert out.exit_code == 0, out.output
    ckpt = root / "ckpt"
    config = root / "train.cfg"
    config.write_text(
        "variant=shvt\nconstraint=identity\nentity_dim=8\nrelation_dim=8\n"
        "epochs=8\nbatch_size=16\nlearning_rate=0.05\noptimizer=sgd\n"
        "negatives_per_positive=4\nmargin=1.0\n",
        encoding="utf-8",
    )
    out = runner.invoke(
        main,
        [
            "train", "--config", str(config),
            "--train", str(data / "train.tsv"),
            "--valid", str(data / "valid.tsv"),
            "--test", str(data / "test.tsv"),
            "--seeds", "1,2", "--out", str(ckpt),
        ],
        catch_exceptions=False,
    )
    assert out.exit_code == 0, out.output
    return root


class TestSynth:
    @pytest.mark.parametrize("args, message", [
        (["--noise", "inf"], "noise must be finite"),
        (["--noise", "nan"], "noise must be finite"),
        (["--sections", "0"], "sections must be >= 1"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_bad_value_exits_2(self, runner, tmp_path, args, message):
        res = run_cli(runner, ["synth", "--entities", "30", *args, "--out", str(tmp_path / "s")])
        assert res.exit_code == 2, res.output
        assert f"error: {message}" in res.output
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("args, message", [
        (["--easy-queries", "1p,9p"], "error: unknown structure '9p'"),
        (["--easy-queries", "1p", "--queries-per-structure", "-3"], "--queries-per-structure"),
        (["--easy-queries", "1p", "--queries-per-structure", "0"], "--queries-per-structure"),
    ], ids=["unknown-structure", "negative-count", "zero-count"])
    def test_bad_query_flag_exits_2_before_writing(self, runner, tmp_path, args, message):
        res = run_cli(runner, ["synth", "--entities", "30", *args, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert not (tmp_path / "o").exists()

    def test_writes_splits_and_generator(self, workspace):
        data = workspace / "data"
        for name in ("train.tsv", "valid.tsv", "test.tsv", "queries.tsv",
                     "generator.manifest", "generator.tensors"):
            assert (data / name).exists()
        lines = (data / "train.tsv").read_text().strip().split("\n")
        assert all(len(line.split("\t")) == 3 for line in lines)

    def test_same_seed_identical_files(self, runner, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            res = run_cli(runner, [
                "synth", "--entities", "30", "--relations", "2", "--dim", "4",
                "--seed", "9", "--out", str(out_dir),
            ])
            assert res.exit_code == 0
            outs.append((out_dir / "train.tsv").read_bytes())
        assert outs[0] == outs[1]

    def test_generator_scores_zero_at_zero_noise(self, workspace):
        from sheaf_kg.checkpoint import load_model
        from sheaf_kg.kgdata import default_schema, load_dataset
        from sheaf_kg.model import triple_score

        data = workspace / "data"
        gen = load_model(data / "generator")
        kg = load_dataset(
            gen.schema, data / "train.tsv", data / "valid.tsv", data / "test.tsv"
        )
        remap = {name: i for i, name in enumerate(gen.entities)}
        for h, r, t in kg.triples[:40]:
            score = triple_score(
                gen.sheaf, gen.sections,
                remap[kg.entities[int(h)]], int(r), remap[kg.entities[int(t)]],
            )
            assert score <= 1e-18


class TestTrain:
    @pytest.mark.parametrize("key, value, via", [
        ("margin", "nan", "flag"),
        ("margin", "nan", "config"),
        ("margin", "inf", "flag"),
        ("learning_rate", "nan", "flag"),
        ("learning_rate", "inf", "config"),
        ("alpha", "nan", "flag"),
        ("alpha", "inf", "config"),
    ])
    def test_non_finite_training_value_exits_2(self, runner, tmp_path, key, value, via):
        (tmp_path / "t.tsv").write_text("a\tr\tb\n", encoding="utf-8")
        if via == "flag":
            args = ["--" + key.replace("_", "-"), value]
        else:
            (tmp_path / "bad.cfg").write_text(f"{key}={value}\n", encoding="utf-8")
            args = ["--config", str(tmp_path / "bad.cfg")]
        res = run_cli(runner, [
            "train", "--train", str(tmp_path / "t.tsv"), *args, "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2, res.output
        assert f"error: {key} must be finite" in res.output
        assert not (tmp_path / "o").exists()

    def test_diverging_projected_run_exits_1_without_checkpoint(self, runner, workspace, tmp_path):
        res = run_cli(runner, [
            "train", "--train", str(workspace / "data" / "train.tsv"), "--constraint", "identity",
            "--optimizer", "sgd", "--learning-rate", "1.0", "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 1, res.output
        assert "error: training diverged at epoch" in res.output
        assert "--max-entity-norm" in res.output
        assert not (tmp_path / "o").exists()

    # TestDivergence's planted run at learning rate 1.0, one epoch long
    @pytest.mark.parametrize("constraint", ["identity", "orthogonal"])
    def test_first_epoch_divergence_exits_1_without_checkpoint(self, runner, tmp_path, constraint):
        assert run_cli(runner, ["synth", "--variant", "shv", "--out", str(tmp_path / "d")]).exit_code == 0
        res = run_cli(runner, [
            "train", "--train", str(tmp_path / "d" / "train.tsv"), "--constraint", constraint,
            "--optimizer", "sgd", "--learning-rate", "1.0", "--batch-size", "64", "--negatives", "4",
            "--epochs", "1", "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 1, res.output
        assert "error: training diverged at epoch 0, batch" in res.output
        assert "times the first batch's" in res.output
        assert not (tmp_path / "o").exists()

    def test_one_checkpoint_per_seed(self, workspace):
        ckpt = workspace / "ckpt"
        for seed in (1, 2):
            assert (ckpt / f"model_seed{seed}.manifest").exists()
            assert (ckpt / f"model_seed{seed}.tensors").exists()
        assert (ckpt / "train_report.txt").exists()

    def test_rerun_is_byte_identical(self, runner, workspace, tmp_path):
        config = workspace / "train.cfg"
        data = workspace / "data"
        out2 = tmp_path / "again"
        res = run_cli(runner, [
            "train", "--config", str(config),
            "--train", str(data / "train.tsv"),
            "--valid", str(data / "valid.tsv"),
            "--test", str(data / "test.tsv"),
            "--seeds", "1", "--out", str(out2),
        ])
        assert res.exit_code == 0
        a = (workspace / "ckpt" / "model_seed1.tensors").read_bytes()
        b = (out2 / "model_seed1.tensors").read_bytes()
        assert a == b

    def test_missing_config_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "train", "--config", str(tmp_path / "absent.cfg"),
            "--train", str(tmp_path / "absent.tsv"), "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2
        assert "absent.cfg" in result.output

    def test_invalid_config_key_lists_valid_keys(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epoochs=5\n", encoding="utf-8")
        (tmp_path / "t.tsv").write_text("a\tr\tb\n", encoding="utf-8")
        result = runner.invoke(main, [
            "train", "--config", str(cfg),
            "--train", str(tmp_path / "t.tsv"), "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2
        assert "epochs" in result.output  # the valid-keys list

    @pytest.mark.parametrize("text, message", [
        (b"epochs=abc\n", "invalid epochs='abc'"),
        (b"variant=shv\nepochs=1\xff\n", "bad.cfg: not UTF-8"),
    ])
    def test_malformed_config_value_exits_2(self, runner, tmp_path, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(text)
        (tmp_path / "t.tsv").write_text("a\tr\tb\n", encoding="utf-8")
        res = run_cli(runner, [
            "train", "--config", str(cfg),
            "--train", str(tmp_path / "t.tsv"), "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2
        assert "error:" in res.output and message in res.output
        assert "Traceback" not in res.output

    def test_bad_model_value_exits_2(self, runner, tmp_path):
        (tmp_path / "t.tsv").write_text("a\tr\tb\n", encoding="utf-8")
        res = run_cli(runner, [
            "train", "--train", str(tmp_path / "t.tsv"), "--sections", "0", "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2
        assert "error: sections must be >= 1" in res.output
        assert not (tmp_path / "o").exists()

    def test_non_utf8_triple_file_exits_2(self, runner, tmp_path):
        triples = tmp_path / "t.tsv"
        triples.write_bytes(b"a\tr\tb\n\xff\tr\tb\n")
        res = run_cli(runner, [
            "train", "--train", str(triples), "--epochs", "1", "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2
        assert f"error: {triples}: not UTF-8" in res.output
        assert "Traceback" not in res.output

    def test_entity_missing_from_type_file_fails_with_location(self, runner, tmp_path):
        (tmp_path / "t.tsv").write_text("a\tr\tb\nb\ts\tc\n", encoding="utf-8")
        (tmp_path / "types.tsv").write_text("a\tperson\nb\tplace\n", encoding="utf-8")
        res = run_cli(runner, [
            "train", "--train", str(tmp_path / "t.tsv"), "--type-file", str(tmp_path / "types.tsv"),
            "--epochs", "1", "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2
        assert f"error: {tmp_path / 't.tsv'}:2: entity 'c'" in res.output

    def test_type_inference_rejects_malformed_line(self, tmp_path):
        from sheaf_kg.cli import _infer_relation_typing
        from sheaf_kg.errors import TripleParseError

        labels = dict.fromkeys("ab", "entity")
        (tmp_path / "t.tsv").write_text("a\tr\tb\na\tr\n", encoding="utf-8")
        with pytest.raises(TripleParseError, match=":2:"):
            _infer_relation_typing(labels, 4, 4, tmp_path / "t.tsv")

    def test_untyped_schema_lists_relations_in_first_appearance_order(self, tmp_path):
        from dataclasses import replace

        from sheaf_kg.cli import _infer_relation_typing
        from sheaf_kg.kgdata import default_schema

        (tmp_path / "a.tsv").write_text("a\tlikes\tb\nb\thates\ta\n", encoding="utf-8")
        (tmp_path / "b.tsv").write_text("a\tknows\tb\na\tlikes\tb\n", encoding="utf-8")
        schema = _infer_relation_typing(None, 4, 3, tmp_path / "a.tsv", None, tmp_path / "b.tsv")
        assert schema.relation_types == ("likes", "hates", "knows")
        assert schema == replace(default_schema(3, 4, 3), relation_types=schema.relation_types)

    def test_config_seed_names_the_checkpoint(self, runner, tmp_path, caplog):
        import logging

        (tmp_path / "t.tsv").write_text("a\tr\tb\nb\tr\ta\n", encoding="utf-8")
        (tmp_path / "s.cfg").write_text("seed=3\nepochs=1\nentity_dim=2\nrelation_dim=2\n",
                                        encoding="utf-8")
        with caplog.at_level(logging.INFO):
            res = run_cli(runner, [
                "train", "--config", str(tmp_path / "s.cfg"), "--train", str(tmp_path / "t.tsv"),
                "--out", str(tmp_path / "o"),
            ])
        assert res.exit_code == 0, res.output
        assert sorted(p.name for p in (tmp_path / "o").glob("*.manifest")) == ["model_seed3.manifest"]
        assert any("seed=3" in rec.message and "seeds=[3]" in rec.message for rec in caplog.records)

    def test_negative_config_seed_exits_2(self, runner, tmp_path):
        (tmp_path / "t.tsv").write_text("a\tr\tb\nb\tr\ta\n", encoding="utf-8")
        (tmp_path / "s.cfg").write_text("seed=-3\nepochs=1\n", encoding="utf-8")
        res = run_cli(runner, [
            "train", "--config", str(tmp_path / "s.cfg"), "--train", str(tmp_path / "t.tsv"),
            "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2
        assert "error: seed must be >= 0, got -3" in res.output
        assert not (tmp_path / "o").exists()

    # a negative seed once ended in numpy's ValueError, after the seeds before it had trained;
    # a repeated seed once trained twice and wrote its checkpoint and report line twice
    @pytest.mark.parametrize("seeds", ["", ",", "1,x", "-1", "1,-1", "1,1", "2,1,2"])
    def test_bad_seed_list_exits_2(self, runner, tmp_path, seeds):
        (tmp_path / "t.tsv").write_text("a\tr\tb\n", encoding="utf-8")
        res = runner.invoke(main, [
            "train", "--train", str(tmp_path / "t.tsv"), "--seeds", seeds, "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2
        assert "--seeds" in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args, message", [
        (["--constraint", "identity", "--entity-dim", "3", "--relation-dim", "2"], "identity"),
        (["--config", "override.cfg"], "unknown relations: ['s']"),
    ])
    def test_model_init_config_error_exits_2(self, runner, tmp_path, monkeypatch, args, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.tsv").write_text("a\tr\tb\n", encoding="utf-8")
        (tmp_path / "override.cfg").write_text("constraint.s=orthogonal\n", encoding="utf-8")
        res = run_cli(runner, ["train", "--train", "t.tsv", "--epochs", "1", *args, "--out", "o"])
        assert res.exit_code == 2
        assert "error:" in res.output and message in res.output
        assert not (tmp_path / "o").exists()

    def test_logs_resolved_config(self, runner, tmp_path, caplog):
        (tmp_path / "t.tsv").write_text("a\tr\tb\nb\tr\ta\na\tr\ta\n", encoding="utf-8")
        import logging

        with caplog.at_level(logging.INFO):
            res = run_cli(runner, [
                "train", "--train", str(tmp_path / "t.tsv"),
                "--epochs", "1", "--entity-dim", "4", "--relation-dim", "4",
                "--out", str(tmp_path / "o"),
            ])
        assert res.exit_code == 0
        assert any("resolved config" in rec.message for rec in caplog.records)
        assert any("epochs=1" in rec.message for rec in caplog.records)


class TestConfigKeys:
    def test_defaults_are_the_dataclass_defaults(self):
        from sheaf_kg.config import build_settings
        from sheaf_kg.model import ModelConfig
        from sheaf_kg.training import TrainConfig

        assert build_settings() == (ModelConfig(), TrainConfig())

    def test_every_key_but_seed_is_a_train_flag(self):
        from sheaf_kg.cli import cmd_train
        from sheaf_kg.config import VALID_KEYS

        assert len(VALID_KEYS) == 14
        destinations = {param.name for param in cmd_train.params}
        assert set(VALID_KEYS) - destinations == {"seed"}
        assert "seeds" in destinations

    def test_train_setting_flags_are_pinned(self):
        import click

        from sheaf_kg.cli import cmd_train
        from sheaf_kg.model import VARIANTS
        from sheaf_kg.training import OPTIMIZERS

        flags = {p.opts[0]: p for p in cmd_train.params if p.name not in
                 ("train_path", "valid_path", "test_path", "type_path", "seeds", "out_dir")}
        expected = {
            "--config": ("config_path", click.Path), "--variant": ("variant", VARIANTS),
            "--epochs": ("epochs", click.INT), "--batch-size": ("batch_size", click.INT),
            "--learning-rate": ("learning_rate", click.FLOAT),
            "--negatives": ("negatives_per_positive", click.INT),
            "--margin": ("margin", click.FLOAT), "--alpha": ("alpha", click.FLOAT),
            "--sections": ("sections", click.INT), "--entity-dim": ("entity_dim", click.INT),
            "--relation-dim": ("relation_dim", click.INT), "--optimizer": ("optimizer", OPTIMIZERS),
            "--constraint": ("constraint", click.STRING),
            "--max-entity-norm": ("max_entity_norm", click.FLOAT),
        }
        assert set(flags) == set(expected)
        for flag, (name, kind) in expected.items():
            param = flags[flag]
            assert param.name == name and param.opts == [flag] and param.default is None, flag
            if isinstance(kind, tuple):
                assert isinstance(param.type, click.Choice) and tuple(param.type.choices) == kind
            elif isinstance(kind, type):
                assert isinstance(param.type, kind), flag
            else:
                assert param.type is kind, flag
        assert flags["--max-entity-norm"].help == "cap on entity section column norms (default: no cap)"
        assert flags["--config"].help == "key=value config file"

    def test_float_key_parses_an_integer_literal(self):
        from sheaf_kg.config import build_settings

        model_config, train_config = build_settings({"alpha": "1", "max_entity_norm": "2"})
        assert type(model_config.alpha) is float and model_config.alpha == 1.0
        assert type(train_config.max_entity_norm) is float

    def test_fractional_int_key_exits_2(self, runner, tmp_path):
        (tmp_path / "t.tsv").write_text("a\tr\tb\n", encoding="utf-8")
        (tmp_path / "bad.cfg").write_text("epochs=1.5\n", encoding="utf-8")
        res = run_cli(runner, [
            "train", "--config", str(tmp_path / "bad.cfg"), "--train", str(tmp_path / "t.tsv"),
            "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2
        assert "invalid epochs='1.5': expected int" in res.output


class TestMaxEntityNorm:
    def test_config_file_value_reaches_train_config(self, tmp_path):
        from sheaf_kg.config import build_settings, describe, read_config_file

        cfg = tmp_path / "norm.cfg"
        cfg.write_text("max_entity_norm=2.5\n", encoding="utf-8")
        model_config, train_config = build_settings(read_config_file(cfg))
        assert train_config.max_entity_norm == 2.5
        assert "max_entity_norm=2.5" in describe(model_config, train_config)
        assert build_settings()[1].max_entity_norm is None
        _, flag_wins = build_settings(read_config_file(cfg), {"max_entity_norm": 0.5})
        assert flag_wins.max_entity_norm == 0.5

    def test_flag_caps_trained_sections(self, runner, workspace, tmp_path):
        from sheaf_kg.checkpoint import load_model

        data = workspace / "data"
        res = run_cli(runner, [
            "train", "--config", str(workspace / "train.cfg"),
            "--train", str(data / "train.tsv"), "--epochs", "2",
            "--max-entity-norm", "0.3", "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 0, res.output
        X = load_model(tmp_path / "o" / "model_seed0").sections.X
        assert np.linalg.norm(X, axis=1).max() <= 0.3 + 1e-12

    @pytest.mark.parametrize("args, config_text", [
        (["--max-entity-norm", "-1"], None),
        (["--max-entity-norm", "inf"], None),
        ([], "max_entity_norm=0\n"),
        ([], "max_entity_norm=abc\n"),
    ])
    def test_bad_value_exits_2(self, runner, tmp_path, args, config_text):
        (tmp_path / "t.tsv").write_text("a\tr\tb\n", encoding="utf-8")
        if config_text is not None:
            (tmp_path / "bad.cfg").write_text(config_text, encoding="utf-8")
            args = ["--config", str(tmp_path / "bad.cfg"), *args]
        res = run_cli(runner, [
            "train", "--train", str(tmp_path / "t.tsv"), *args, "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 2
        assert "max_entity_norm" in res.output
        assert "Traceback" not in res.output


def test_type_file_is_read_once(runner, tmp_path, monkeypatch):
    import builtins

    (tmp_path / "t.tsv").write_text("a\tr\tb\nb\ts\tc\nc\tr\tb\n", encoding="utf-8")
    types = tmp_path / "types.tsv"
    types.write_text("a\tperson\nb\tplace\nc\tperson\n", encoding="utf-8")
    real_open = builtins.open
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file) if isinstance(file, (str, Path)) else None)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    res = run_cli(runner, [
        "train", "--train", str(tmp_path / "t.tsv"), "--type-file", str(types),
        "--epochs", "1", "--entity-dim", "2", "--relation-dim", "2", "--out", str(tmp_path / "o"),
    ])
    assert res.exit_code == 0, res.output
    assert opened.count(types) == 1


class TestEval:
    def test_multi_seed_report(self, runner, workspace, tmp_path):
        report_path = tmp_path / "report.tsv"
        res = run_cli(runner, [
            "eval",
            "--checkpoint", str(workspace / "ckpt" / "model_seed1"),
            "--checkpoint", str(workspace / "ckpt" / "model_seed2"),
            "--queries", str(workspace / "data" / "queries.tsv"),
            "--out", str(report_path),
        ])
        assert res.exit_code == 0, res.output
        assert "structure" in res.output and "MRR%" in res.output
        rows = [line.split("\t") for line in report_path.read_text().strip().split("\n")]
        assert {r[0] for r in rows} == {"1p", "2p"}
        assert all(len(r) == 4 for r in rows)

    def test_corrupted_tensor_file_fails_nonzero(self, runner, workspace, tmp_path):
        import shutil

        prefix = tmp_path / "broken"
        shutil.copy(workspace / "ckpt" / "model_seed1.manifest", str(prefix) + ".manifest")
        raw = (workspace / "ckpt" / "model_seed1.tensors").read_bytes()
        Path(str(prefix) + ".tensors").write_bytes(raw[: len(raw) - 64])
        result = runner.invoke(main, [
            "eval", "--checkpoint", str(prefix),
            "--queries", str(workspace / "data" / "queries.tsv"),
        ])
        assert result.exit_code == 1
        assert "truncated" in result.output

    def test_missing_queries_exit_2(self, runner, workspace, tmp_path):
        result = runner.invoke(main, [
            "eval", "--checkpoint", str(workspace / "ckpt" / "model_seed1"),
            "--queries", str(tmp_path / "absent.tsv"),
        ])
        assert result.exit_code == 2

    def test_malformed_query_file_exits_2(self, runner, workspace, tmp_path):
        queries = tmp_path / "bad.tsv"
        queries.write_text("1p\tonly-two-fields\n", encoding="utf-8")
        res = run_cli(runner, [
            "eval", "--checkpoint", str(workspace / "ckpt" / "model_seed1"),
            "--queries", str(queries),
        ])
        assert res.exit_code == 2
        assert f"error: {queries}:1: expected 4 tab-separated fields" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("line, message", [
        ("9p\t{a}\t{r}\t{a}", "2: unknown query structure '9p'"),
        ("2p\t{a}\t{r}\t{a}", "2: 2p queries take 1 anchor(s) and 2 relation(s), got 1 and 1"),
        ("1p\t{a}\t{r}\t", "2: no answer entities"),
    ], ids=["unknown-structure", "anchor-count", "empty-answers"])
    def test_bad_query_line_names_file_and_line(self, runner, workspace, tmp_path, line, message):
        first = (workspace / "data" / "queries.tsv").read_text(encoding="utf-8").splitlines()[0]
        _, anchor, relation, _ = first.split("\t")
        a, r = anchor.split(",")[0], relation.split(",")[0]
        queries = tmp_path / "bad.tsv"
        queries.write_text(f"{first}\n{line.format(a=a, r=r)}\n", encoding="utf-8")
        res = run_cli(runner, [
            "eval", "--checkpoint", str(workspace / "ckpt" / "model_seed1"),
            "--queries", str(queries),
        ])
        assert res.exit_code == 2, res.output
        assert f"error: {queries}:{message}" in res.output
        assert "Traceback" not in res.output

    def test_non_utf8_query_file_exits_2(self, runner, workspace, tmp_path):
        queries = tmp_path / "bad.tsv"
        queries.write_bytes(b"1p\t\xff\tr0\t\n")
        res = run_cli(runner, [
            "eval", "--checkpoint", str(workspace / "ckpt" / "model_seed1"),
            "--queries", str(queries),
        ])
        assert res.exit_code == 2
        assert f"error: {queries}: not UTF-8" in res.output
        assert "Traceback" not in res.output

    def test_corrupt_manifest_value_exits_1_without_traceback(self, runner, workspace, tmp_path):
        import shutil

        prefix = tmp_path / "broken"
        shutil.copy(workspace / "ckpt" / "model_seed1.tensors", str(prefix) + ".tensors")
        manifest = (workspace / "ckpt" / "model_seed1.manifest").read_text(encoding="utf-8")
        Path(str(prefix) + ".manifest").write_text(
            manifest.replace("sections=1\n", "sections=x\n"), encoding="utf-8"
        )
        res = run_cli(runner, ["inspect", "--checkpoint", str(prefix)])
        assert res.exit_code == 1
        assert "error:" in res.output and "sections='x'" in res.output
        assert "Traceback" not in res.output


    def test_overflowing_checkpoint_exits_1(self, runner, tmp_path):
        from sheaf_kg.query import write_queries

        model, query, _ = overflowing_checkpoint(tmp_path / "m")
        write_queries([query], tmp_path / "q.tsv", model.entities, model.schema.relation_types)
        res = run_cli(runner, [
            "eval", "--checkpoint", str(tmp_path / "m"), "--queries", str(tmp_path / "q.tsv"),
        ])
        assert res.exit_code == 1, res.output
        assert "error: the 1p query on relations (r0) has a non-finite candidate value" in res.output
        assert "MRR" not in res.output and "Traceback" not in res.output

    def test_interior_overflow_exits_1(self, runner, tmp_path):
        # an all-zero pseudoinverse of the inf interior block would give a finite MRR (5.51%) and exit 0
        prefix, queries = interior_overflow_checkpoint(tmp_path)
        res = run_cli(runner, ["eval", "--checkpoint", str(prefix), "--queries", str(queries)])
        assert res.exit_code == 1, res.output
        assert "error: the 2p query on relations (r1, r0) has a non-finite candidate value" in res.output
        assert "MRR" not in res.output and "Traceback" not in res.output


class TestQuery:
    def test_overflowing_checkpoint_exits_1(self, runner, tmp_path):
        model, query, _ = overflowing_checkpoint(tmp_path / "m")
        res = run_cli(runner, [
            "query", "--checkpoint", str(tmp_path / "m"), "--structure", "1p",
            "--anchors", model.entities[query.anchors[0]], "--relations", "r0",
        ])
        assert res.exit_code == 1, res.output
        assert "error: the query on relations (r0) has a non-finite candidate value" in res.output

    def test_interior_overflow_exits_1(self, runner, tmp_path):
        # an all-zero pseudoinverse of the inf interior block would print ten finite values and exit 0
        prefix, _ = interior_overflow_checkpoint(tmp_path)
        res = run_cli(runner, [
            "query", "--checkpoint", str(prefix), "--structure", "2p",
            "--anchors", "e00010", "--relations", "r1,r0",
        ])
        assert res.exit_code == 1, res.output
        assert "error: the query on relations (r1, r0) has a non-finite candidate value" in res.output

    def test_repeated_entity_name_in_manifest_exits_1(self, runner, workspace, tmp_path):
        # unchecked, entity_index() maps e00000 to entity 1 and the query answers from the wrong anchor
        import shutil

        prefix = tmp_path / "broken"
        manifest = (workspace / "data" / "generator.manifest").read_text(encoding="utf-8")
        assert manifest.count("entity=e00001\n") == 1
        Path(str(prefix) + ".manifest").write_text(
            manifest.replace("entity=e00001\n", "entity=e00000\n"), encoding="utf-8"
        )
        shutil.copy(workspace / "data" / "generator.tensors", str(prefix) + ".tensors")
        res = run_cli(runner, [
            "query", "--checkpoint", str(prefix), "--structure", "1p",
            "--anchors", "e00000", "--relations", "r0",
        ])
        assert res.exit_code == 1, res.output
        assert f"error: {prefix}.manifest: duplicate entity name 'e00000'" in res.output
        assert "Traceback" not in res.output

    def test_top_k_output(self, runner, workspace):
        res = run_cli(runner, [
            "query", "--checkpoint", str(workspace / "ckpt" / "model_seed1"),
            "--structure", "2p", "--anchors", "e00000", "--relations", "r0,r1",
            "--top-k", "3",
        ])
        assert res.exit_code == 0
        lines = res.output.strip().split("\n")
        assert len(lines) == 3
        assert all(len(line.split("\t")) == 2 for line in lines)

    def test_perfect_model_query_finds_planted_answer(self, runner, workspace):
        # ask the generating model itself: the top entity must be the true
        # lattice neighbor (cost ~ 0)
        from sheaf_kg.checkpoint import load_model
        from sheaf_kg.kgdata import load_dataset
        from sheaf_kg.query import Query, answer_query

        data = workspace / "data"
        gen = load_model(data / "generator")
        kg = load_dataset(gen.schema, data / "train.tsv")
        remap = {name: i for i, name in enumerate(gen.entities)}
        h, r, t = (int(x) for x in kg.triples[0])
        q = Query("1p", (remap[kg.entities[h]],), (r,))
        ranking = answer_query(q, gen)
        res = run_cli(runner, [
            "query", "--checkpoint", str(data / "generator"),
            "--structure", "1p", "--anchors", kg.entities[h], "--relations",
            gen.schema.relation_types[r], "--top-k", "1",
        ])
        assert res.exit_code == 0
        assert res.output.split("\t")[0] == gen.entities[int(ranking.entity_ids[0])]

    def test_top_k_equals_the_full_ranking_head(self, runner, tmp_path):
        from sheaf_kg.checkpoint import load_model, save_model
        from sheaf_kg.kgdata import default_schema
        from sheaf_kg.model import Model, ModelConfig, init_model
        from sheaf_kg.query import Query, answer_query

        cfg = ModelConfig(variant="shvt", entity_dim=3, relation_dim=3)
        schema, types = default_schema(2, 3, 3), np.zeros(30, dtype=np.int64)
        sheaf, sections = init_model(cfg, schema, types, seed=4)
        for i in range(5, 30, 3):  # ten candidates with one value
            sections.block(i)[...] = sections.block(2)
        names = tuple(f"n{i}" for i in range(30))
        save_model(Model(schema, names, types, sheaf, sections), tmp_path / "m")
        ranking = answer_query(Query("2p", (0,), (0, 1)), load_model(tmp_path / "m"))
        assert len(set(ranking.values.tolist())) == len(ranking) - 9
        for k in range(1, len(ranking) + 3):  # every cut through the tied run, k = n and k > n
            res = run_cli(runner, [
                "query", "--checkpoint", str(tmp_path / "m"), "--structure", "2p",
                "--anchors", "n0", "--relations", "r0,r1", "--top-k", str(k),
            ])
            assert res.exit_code == 0
            assert res.output == "".join(f"{names[e]}\t{v!r}\n" for e, v in ranking.top(k)), k

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_top_k_below_one_exits_2(self, runner, workspace, k):
        result = runner.invoke(main, [
            "query", "--checkpoint", str(workspace / "ckpt" / "model_seed1"),
            "--structure", "2p", "--anchors", "e00000", "--relations", "r0,r1", "--top-k", k,
        ])
        assert result.exit_code == 2
        assert "--top-k" in result.output

    def test_unknown_relation_exits_2_with_suggestion(self, runner, workspace):
        result = runner.invoke(main, [
            "query", "--checkpoint", str(workspace / "ckpt" / "model_seed1"),
            "--structure", "1p", "--anchors", "e00000", "--relations", "r00",
        ])
        assert result.exit_code == 2
        assert "did you mean" in result.output

    def test_unknown_entity_exits_2(self, runner, workspace):
        result = runner.invoke(main, [
            "query", "--checkpoint", str(workspace / "ckpt" / "model_seed1"),
            "--structure", "1p", "--anchors", "e9999x", "--relations", "r0",
        ])
        assert result.exit_code == 2


class TestInspect:
    def test_prints_relations_and_shapes(self, runner, workspace):
        res = run_cli(runner, [
            "inspect", "--checkpoint", str(workspace / "ckpt" / "model_seed1"),
        ])
        assert res.exit_code == 0
        assert "variant=shvt" in res.output
        assert "relation r0" in res.output

    def test_discrepancy_with_train_file(self, runner, workspace):
        res = run_cli(runner, [
            "inspect", "--checkpoint", str(workspace / "ckpt" / "model_seed1"),
            "--train", str(workspace / "data" / "train.tsv"),
        ])
        assert res.exit_code == 0
        assert "discrepancy r0" in res.output

    def test_multi_type_discrepancy_uses_the_checkpoint_ids(self, runner, typed):
        from sheaf_kg.checkpoint import load_model
        from sheaf_kg.kgdata import KnowledgeGraph
        from sheaf_kg.model import relation_discrepancy

        prefix = typed / "model_seed0"
        res = run_cli(runner, ["inspect", "--checkpoint", str(prefix), "--train", str(typed / "t.tsv")])
        assert res.exit_code == 0, res.output
        printed = dict(
            line.removeprefix("discrepancy ").split("\t")
            for line in res.output.splitlines() if line.startswith("discrepancy ")
        )
        model = load_model(prefix)
        ids = model.entity_index()
        rows = [
            [ids[h], model.schema.relation_index(r), ids[t]]
            for h, r, t in (line.split("\t") for line in (typed / "t.tsv").read_text().splitlines())
        ]
        kg = KnowledgeGraph(model.schema, model.entities, model.entity_type.copy(),
                            np.array(rows, dtype=np.int64), np.zeros(len(rows), dtype=np.int8))
        expected = relation_discrepancy(model.sheaf, model.sections, kg)
        assert list(expected) == ["lives_in", "has", "owned_by"]
        assert {name: float(value) for name, value in printed.items()} == expected

    @pytest.mark.parametrize("types", ["one", "three"])
    def test_entity_absent_from_checkpoint_exits_2(self, runner, workspace, typed, tmp_path, types):
        if types == "one":
            prefix = workspace / "ckpt" / "model_seed1"
            known = (workspace / "data" / "train.tsv").read_text(encoding="utf-8").split("\t", 1)[0]
            line = f"{known}\tr0\tstranger\n"
        else:
            prefix, line = typed / "model_seed0", "ann\tlives_in\tstranger\n"
        (tmp_path / "t.tsv").write_text(line, encoding="utf-8")
        res = run_cli(runner, ["inspect", "--checkpoint", str(prefix), "--train", str(tmp_path / "t.tsv")])
        assert res.exit_code == 2, res.output
        assert f"error: {tmp_path / 't.tsv'}" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("dim", [2**62, 2**40 + 1])
    def test_corrupt_tensor_header_exits_1_without_traceback(self, runner, workspace, tmp_path, dim):
        import shutil

        prefix = tmp_path / "broken"
        shutil.copy(workspace / "ckpt" / "model_seed1.manifest", str(prefix) + ".manifest")
        raw = bytearray((workspace / "ckpt" / "model_seed1.tensors").read_bytes())
        raw[16:24] = np.array([dim], dtype="<u8").tobytes()  # first tensor's first dimension
        Path(str(prefix) + ".tensors").write_bytes(bytes(raw))
        res = run_cli(runner, ["inspect", "--checkpoint", str(prefix)])
        assert res.exit_code == 1
        assert f"error: {prefix}.tensors: entity tensor 0 has header" in res.output
        assert "Traceback" not in res.output

    def test_duplicate_relation_in_manifest_exits_1_naming_it(self, runner, workspace, tmp_path):
        import shutil

        prefix = tmp_path / "broken"
        manifest = (workspace / "ckpt" / "model_seed1.manifest").read_text(encoding="utf-8")
        assert manifest.count("relation=r1\n") == 1
        Path(str(prefix) + ".manifest").write_text(
            manifest.replace("relation=r1\n", "relation=r0\n"), encoding="utf-8"
        )
        shutil.copy(workspace / "ckpt" / "model_seed1.tensors", str(prefix) + ".tensors")
        res = run_cli(runner, ["inspect", "--checkpoint", str(prefix)])
        assert res.exit_code == 1, res.output
        assert f"error: {prefix}.manifest: duplicate relation names" in res.output
        assert "Traceback" not in res.output


@pytest.fixture(scope="module")
def typed(tmp_path_factory):
    """A shv checkpoint ``model_seed0`` of three entity types, beside its triple and type files."""
    root = tmp_path_factory.mktemp("typed")
    (root / "t.tsv").write_text(
        "ann\tlives_in\toslo\nbob\tlives_in\trome\noslo\thas\tpiano\nrome\thas\tlute\n"
        "piano\towned_by\tann\nlute\towned_by\tbob\n",
        encoding="utf-8",
    )
    (root / "types.tsv").write_text(
        "ann\tperson\nbob\tperson\noslo\tcity\nrome\tcity\npiano\tthing\nlute\tthing\n",
        encoding="utf-8",
    )
    res = run_cli(CliRunner(), [
        "train", "--train", str(root / "t.tsv"), "--type-file", str(root / "types.tsv"),
        "--variant", "shv", "--epochs", "2", "--entity-dim", "2", "--relation-dim", "2",
        "--seeds", "0", "--out", str(root),
    ])
    assert res.exit_code == 0, res.output
    return root


class TestErrorBoundary:
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("command, flag", [
        ("train", "--train"), ("train", "--valid"), ("train", "--test"), ("train", "--type-file"),
        ("train", "--config"), ("eval", "--queries"), ("inspect", "--train"),
    ])
    def test_unreadable_input_exits_2(self, runner, workspace, tmp_path, command, flag, kind):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        data, prefix = workspace / "data", str(workspace / "ckpt" / "model_seed1")
        args = {
            "train": ["train", "--train", str(data / "train.tsv"), "--out", str(tmp_path / "o")],
            "eval": ["eval", "--checkpoint", prefix, "--queries", str(data / "queries.tsv")],
            "inspect": ["inspect", "--checkpoint", prefix, "--train", str(data / "train.tsv")],
        }[command]
        res = run_cli(runner, [*args, flag, str(bad)])  # a repeated flag's last value wins
        assert res.exit_code == 2, res.output
        assert f"error: {bad}: " in res.output
        assert "Traceback" not in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unwritable_output_exits_1(self, runner, workspace, tmp_path, command):
        data = workspace / "data"
        if command == "train":
            out = tmp_path / "a_file"
            out.write_text("", encoding="utf-8")
            args = ["train", "--train", str(data / "train.tsv"), "--epochs", "1"]
        else:
            out = tmp_path / "a_directory"
            out.mkdir()
            args = ["eval", "--checkpoint", str(workspace / "ckpt" / "model_seed1"),
                    "--queries", str(data / "queries.tsv")]
        res = run_cli(runner, [*args, "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert f"error: {out}: " in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("case, message", [
        ("2i with one anchor", "2i queries take 2 anchor(s)"),
        ("type-inconsistent query", "type-inconsistent"),
        ("synth with one entity", "need at least 2 entities"),
        ("empty train file", "training split is empty"),
        ("naive eval of shv", "naive traversal needs a translational model"),
        ("empty query file", "empty.tsv: no queries"),  # once exit 1 from evaluate([])
    ])
    def test_input_error_exits_2(self, runner, workspace, typed, tmp_path, case, message):
        plain, shv = str(workspace / "ckpt" / "model_seed1"), str(typed / "model_seed0")
        entity = (workspace / "data" / "train.tsv").read_text(encoding="utf-8").split("\t", 1)[0]
        (tmp_path / "empty.tsv").write_text("", encoding="utf-8")
        (tmp_path / "q.tsv").write_text("1p\tann\tlives_in\toslo\n", encoding="utf-8")
        args = {
            "2i with one anchor": ["query", "--checkpoint", plain, "--structure", "2i",
                                   "--anchors", entity, "--relations", "r0,r1"],
            "type-inconsistent query": ["query", "--checkpoint", shv, "--structure", "2p",
                                        "--anchors", "ann", "--relations", "lives_in,lives_in"],
            "synth with one entity": ["synth", "--entities", "1", "--out", str(tmp_path / "s")],
            "empty train file": ["train", "--train", str(tmp_path / "empty.tsv"), "--out", str(tmp_path / "o")],
            "naive eval of shv": ["eval", "--checkpoint", shv, "--queries", str(tmp_path / "q.tsv"),
                                  "--method", "naive"],
            "empty query file": ["eval", "--checkpoint", plain, "--queries", str(tmp_path / "empty.tsv")],
        }[case]
        res = run_cli(runner, args)
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and message in res.output
        assert "Traceback" not in res.output
        assert not (tmp_path / "o").exists() and not (tmp_path / "s").exists()

    def test_tampered_identity_map_exits_1(self, runner, workspace, tmp_path):
        from sheaf_kg.checkpoint import load_model, save_model

        model = load_model(workspace / "ckpt" / "model_seed1")
        assert model.sheaf.constraints[0] == "identity"
        model.sheaf.head_maps[0][0, 0] = 2.0
        save_model(model, tmp_path / "tampered")
        res = run_cli(runner, [
            "eval", "--checkpoint", str(tmp_path / "tampered"),
            "--queries", str(workspace / "data" / "queries.tsv"), "--method", "naive",
        ])
        assert res.exit_code == 1, res.output
        assert "error:" in res.output and "relation 'r0': identity maps are not the identity" in res.output
        assert "Traceback" not in res.output

    # the first two once printed click's usage banner; a query file's unknown relation had no hint
    def test_unknown_query_anchor_is_one_error_line(self, runner, workspace):
        res = run_cli(runner, ["query", "--checkpoint", str(workspace / "ckpt" / "model_seed1"),
                               "--structure", "1p", "--anchors", "e0000", "--relations", "r0"])
        assert res.exit_code == 2
        assert res.output == "error: unknown entity 'e0000' (did you mean 'e00050'?)\n"

    def test_repeated_seed_is_one_error_line(self, runner, tmp_path):
        (tmp_path / "t.tsv").write_text("a\tr\tb\n", encoding="utf-8")
        res = run_cli(runner, ["train", "--train", str(tmp_path / "t.tsv"), "--seeds", "1,1",
                               "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert res.output == "error: --seeds must be comma-separated distinct integers >= 0, got '1,1'\n"

    def test_unknown_relation_in_a_query_file_is_one_error_line(self, runner, workspace, tmp_path):
        queries = tmp_path / "q.tsv"
        queries.write_text("1p\te00000\trr0\te00001\n", encoding="utf-8")
        res = run_cli(runner, ["eval", "--checkpoint", str(workspace / "ckpt" / "model_seed1"),
                               "--queries", str(queries)])
        assert res.exit_code == 2
        assert res.output == f"error: {queries}:1: unknown relation 'rr0' (did you mean 'r0'?)\n"

    @pytest.mark.parametrize("args, message", [
        (["--top-k", "0"], "Invalid value for '--top-k': 0 is not in the range x>=1."),
        (["--structure", "9p"], "Invalid value for '--structure': '9p' is not one of"),
        (["--checkpoint"], "Option '--checkpoint' requires an argument."),
    ], ids=["top-k", "structure", "checkpoint"])
    def test_a_flag_click_refuses_is_one_error_line(self, runner, workspace, args, message):
        res = run_cli(runner, ["query", "--checkpoint", str(workspace / "ckpt" / "model_seed1"),
                               "--structure", "1p", "--anchors", "e00000", "--relations", "r0", *args])
        assert res.exit_code == 2
        assert res.output.startswith(f"error: {message}") and res.output.count("\n") == 1


def _fuzz_commands(d: Path, anchor: str, relation: str) -> dict[str, list[str]]:
    """Every command that reads an input file, run on the files in ``d``."""
    return {
        "train": ["train", "--config", str(d / "train.cfg"), "--train", str(d / "train.tsv"),
                  "--valid", str(d / "valid.tsv"), "--test", str(d / "test.tsv"),
                  "--type-file", str(d / "types.tsv"), "--seeds", "1", "--out", str(d / "out")],
        "eval": ["eval", "--checkpoint", str(d / "model"), "--queries", str(d / "queries.tsv")],
        "query": ["query", "--checkpoint", str(d / "model"), "--structure", "1p",
                  "--anchors", anchor, "--relations", relation],
        "inspect": ["inspect", "--checkpoint", str(d / "model"), "--train", str(d / "train.tsv")],
    }


# each input file with the commands that read it
_FUZZ_TARGETS = [
    ("train.tsv", "train"), ("train.tsv", "inspect"), ("valid.tsv", "train"),
    ("test.tsv", "train"), ("types.tsv", "train"), ("train.cfg", "train"),
    ("queries.tsv", "eval"),
    *((f"model.{ext}", cmd) for ext in ("manifest", "tensors") for cmd in ("eval", "query", "inspect")),
]


def _mutate(raw: bytes, mutation: str, at: int, bit: int) -> bytes:
    """One fuzz mutation of ``raw``; ``at`` picks the byte or line it acts on."""
    if mutation == "flip_byte":
        i = at % len(raw)
        return raw[:i] + bytes([raw[i] ^ (1 << bit)]) + raw[i + 1:]
    if mutation == "truncate":
        return raw[:at % len(raw)]
    if mutation == "append_non_utf8":
        return raw + b"\xff\xfe\xc3(\n"
    lines = raw.split(b"\n")
    tabbed = [i for i, line in enumerate(lines) if b"\t" in line]
    if tabbed:  # drop_tab: one line loses a field separator
        i = tabbed[at % len(tabbed)]
        lines[i] = lines[i].replace(b"\t", b"", 1)
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A tiny synth workspace: the bytes of every input file and of one trained checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    runner = CliRunner()
    res = run_cli(runner, [
        "synth", "--entities", "30", "--relations", "2", "--dim", "4", "--seed", "3",
        "--out", str(root), "--easy-queries", "1p,2p", "--queries-per-structure", "4",
    ])
    assert res.exit_code == 0, res.output
    rows = [line.split("\t") for line in (root / "train.tsv").read_text().splitlines()]
    entities = sorted({name for h, _, t in rows for name in (h, t)})
    (root / "types.tsv").write_text("".join(f"{e}\tthing\n" for e in entities))
    (root / "train.cfg").write_text(
        "variant=shvt\nconstraint=identity\nentity_dim=4\nrelation_dim=4\nepochs=2\n"
        "batch_size=16\nlearning_rate=0.05\noptimizer=sgd\nnegatives_per_positive=2\n"
    )
    commands = _fuzz_commands(root, rows[0][0], rows[0][1])
    res = run_cli(runner, commands["train"])
    assert res.exit_code == 0, res.output
    for ext in ("manifest", "tensors"):
        (root / "out" / f"model_seed1.{ext}").rename(root / f"model.{ext}")
    for name in ("eval", "query", "inspect"):
        assert run_cli(runner, commands[name]).exit_code == 0
    files = {name: (root / name).read_bytes() for name, _ in _FUZZ_TARGETS}
    return files, rows[0][0], rows[0][1]


@settings(max_examples=150, deadline=None)
@given(
    target=st.sampled_from(_FUZZ_TARGETS),
    mutation=st.sampled_from(["flip_byte", "truncate", "append_non_utf8", "drop_tab", "remove", "directory"]),
    at=st.integers(0, 1 << 20),
    bit=st.integers(0, 7),
)
def test_mutated_input_never_crashes_the_cli(fuzz_inputs, tmp_path_factory, target, mutation, at, bit):
    files, anchor, relation = fuzz_inputs
    name, command = target
    d = tmp_path_factory.mktemp("mutant")
    for other, raw in files.items():
        if other != name:
            (d / other).write_bytes(raw)
        elif mutation == "directory":
            (d / other).mkdir()
        elif mutation != "remove":
            (d / other).write_bytes(_mutate(raw, mutation, at, bit))
    res = CliRunner().invoke(main, _fuzz_commands(d, anchor, relation)[command])
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert "Traceback" not in res.output


def test_an_unknown_group_option_prints_one_error_line():
    # the group parses its own options before its invoke boundary runs
    res = CliRunner().invoke(main, ["--bogus"])
    assert res.exit_code == 2
    assert res.output == "error: No such option '--bogus'.\n"


def assert_group_help(res):
    assert res.output.startswith("Usage: main [OPTIONS] COMMAND [ARGS]...")
    assert "synth" in res.output and "error:" not in res.output


def test_the_group_with_no_arguments_prints_its_help():
    res = CliRunner().invoke(main, [])
    assert res.exit_code in (0, 2)  # click 8.2 and later exit 2, earlier ones 0
    assert_group_help(res)


def test_the_group_help_prints_its_help():
    res = CliRunner().invoke(main, ["--help"])
    assert res.exit_code == 0
    assert_group_help(res)


def test_entry_point_help_via_subprocess():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "sheaf_kg.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0
    assert "synth" in out.stdout and "train" in out.stdout


def test_every_exported_name_resolves():
    import sheaf_kg

    assert [name for name in sheaf_kg.__all__ if not hasattr(sheaf_kg, name)] == []
