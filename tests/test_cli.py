"""End-to-end command-line runs on small synthetic files.

Every test drives cli.main directly with an argv list and checks exit
codes (0 success, 1 validation, 2 runtime), output files, and the
documented column layouts.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import fdr2d
import reference
from fdr2d import cli, engine, io, sim


def _write_xyz(tmp_path, seed=0, n=50, m=12, binary_x=False):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 1))
    if binary_x:
        x = (rng.random((n, 1)) < 1.0 / (1.0 + np.exp(-z))).astype(float)
    else:
        x = 0.8 * z + rng.standard_normal((n, 1))
    beta = rng.choice([0.0, 1.0], size=m, p=[0.5, 0.5])
    alpha = np.zeros(m)
    alpha[: m // 3] = 1.2
    y = x * alpha + z * beta + rng.standard_normal((n, m))
    xp, yp, zp = tmp_path / "x.tsv", tmp_path / "y.tsv", tmp_path / "z.tsv"
    io.save_matrix(xp, x, ["exposure"])
    io.save_matrix(yp, y, [f"feat{j}" for j in range(m)])
    io.save_matrix(zp, z, ["conf"])
    return str(xp), str(yp), str(zp)


def _analyze_args(xp, yp, zp, out, extra=()):
    return [
        "analyze",
        "--x", xp, "--y", yp, "--z", zp,
        "--stat", "glm:gaussian",
        "--sampler", "residual-perm",
        "--b", "15",
        "--q", "0.2",
        "--seed", "4",
        "--grid", "quantile:30",
        "--out", out,
        *extra,
    ]


_FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def _fixture_args(command, out, *extra):
    # a run on the bundled fixtures, whose exposure is binary
    x, y, z = (os.path.join(_FIXTURES, f) for f in ("exposure.tsv", "otu_counts.tsv", "confounders.tsv"))
    return [command, "--x", x, "--y", y, "--z", z, "--sampler", "parametric-logistic",
            "--b", "19", "--seed", "1", *extra, "--out", str(out)]


class TestAnalyze:
    def test_infeasible_search_writes_strict_json(self, tmp_path):
        # no threshold pair is feasible at q = 0.001, so t1 and t2 are
        # infinite, which JSON (RFC 8259) has no number for
        out = tmp_path / "res.json"
        assert cli.main(_fixture_args("analyze", out, "--stat", "glm:poisson", "--q", "0.001")) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(out.read_text(), parse_constant=refuse)
        assert doc["t1"] == doc["t2"] == "inf" and doc["n_rejected"] == 0

    def test_end_to_end(self, tmp_path):
        xp, yp, zp = _write_xyz(tmp_path)
        out = str(tmp_path / "res.json")
        assert cli.main(_analyze_args(xp, yp, zp, out)) == 0
        doc = json.loads((tmp_path / "res.json").read_text())
        assert doc["method"] == "mf2d-fdr"
        assert doc["n"] == 50 and doc["m"] == 12
        assert doc["config"]["b"] == 15 and doc["config"]["q"] == 0.2
        assert 0 <= doc["n_rejected"] <= 12
        assert len(doc["rejected_features"]) == doc["n_rejected"]
        assert set(doc["rejected_features"]) <= {f"feat{j}" for j in range(12)}
        table = (tmp_path / "res.features.tsv").read_text().splitlines()
        assert table[0].split("\t") == [
            "feature", "t_marginal", "t_conditional", "fbar", "rejected",
        ]
        assert len(table) == 13

    def test_deterministic(self, tmp_path):
        xp, yp, zp = _write_xyz(tmp_path, seed=1)
        o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert cli.main(_analyze_args(xp, yp, zp, o1)) == 0
        assert cli.main(_analyze_args(xp, yp, zp, o2)) == 0
        d1 = json.loads((tmp_path / "a.json").read_text())
        d2 = json.loads((tmp_path / "b.json").read_text())
        d1.pop("runtime_seconds"), d2.pop("runtime_seconds")
        assert d1 == d2

    def test_byte_order_mark_is_not_part_of_a_feature_name(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a UTF-8 BOM
        xp, yp, zp = _write_xyz(tmp_path, seed=1)
        bom = tmp_path / "y-bom.tsv"
        bom.write_text("\ufeff" + open(yp, encoding="utf-8").read(), encoding="utf-8")
        docs, tables = [], []
        for y, name in ((yp, "plain"), (str(bom), "bom")):
            assert cli.main(_analyze_args(xp, y, zp, str(tmp_path / f"{name}.json"))) == 0
            docs.append(json.loads((tmp_path / f"{name}.json").read_text()))
            tables.append((tmp_path / f"{name}.features.tsv").read_text())
        assert tables[1] == tables[0]
        assert tables[1].splitlines()[1].split("\t")[0] == "feat0"
        assert docs[1]["rejected_features"] == docs[0]["rejected_features"]

    def test_bh_writes_pvalue_table(self, tmp_path):
        xp, yp, zp = _write_xyz(tmp_path, seed=2)
        out = str(tmp_path / "bh.json")
        args = _analyze_args(xp, yp, zp, out, extra=["--method", "bh"])
        assert cli.main(args) == 0
        doc = json.loads((tmp_path / "bh.json").read_text())
        assert doc["method"] == "bh"
        header = (tmp_path / "bh.features.tsv").read_text().splitlines()[0]
        assert header.split("\t") == ["feature", "pvalue", "rejected"]

    def test_storey_pi0_echoed(self, tmp_path):
        xp, yp, zp = _write_xyz(tmp_path, seed=3)
        out = str(tmp_path / "s.json")
        args = _analyze_args(xp, yp, zp, out, extra=["--pi0-lambda", "auto"])
        assert cli.main(args) == 0
        doc = json.loads((tmp_path / "s.json").read_text())
        assert 0.0 < doc["pi0"] <= 1.0
        assert doc["pi0_lambda"] is not None

    @pytest.mark.parametrize("lam", [None, "auto", "0.4"])
    @pytest.mark.parametrize("method", ["mf2d-fdr", "exchangeable-path"])
    def test_pi0_lambda_echo_comes_from_the_search(self, tmp_path, monkeypatch, method, lam):
        # the echoed lambda is the one the search resolved, bit for
        # bit the reference lambda (np.median) of the same tensor
        tensors = []
        build = engine.build_tensor
        monkeypatch.setattr(engine, "build_tensor", lambda *a: tensors.append(build(*a)) or tensors[-1])
        xp, yp, zp = _write_xyz(tmp_path, seed=3)
        out = str(tmp_path / "s.json")
        extra = ["--method", method] + ([] if lam is None else ["--pi0-lambda", lam])
        assert cli.main(_analyze_args(xp, yp, zp, out, extra=extra)) == 0
        assert len(tensors) == 1
        want = reference.resolve_pi0(tensors[0], engine.ProcedureConfig(pi0_lambda=lam))[1]
        got = json.loads((tmp_path / "s.json").read_text())["pi0_lambda"]
        assert got == want and (want is None) == (lam is None)

    @pytest.mark.parametrize("command", ["analyze", "grid-dump"])
    def test_negative_seed_refused_before_any_file_is_read(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(io, "load_dataset", None)  # never reached
        xp, yp, zp = _write_xyz(tmp_path)
        args = _analyze_args(xp, yp, zp, str(tmp_path / "o.json"))
        args[0] = command
        args[args.index("--seed") + 1] = "-1"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(args) == 1
        assert caught == []
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_bad_q_is_validation_error(self, tmp_path, capsys):
        xp, yp, zp = _write_xyz(tmp_path)
        args = _analyze_args(xp, yp, zp, str(tmp_path / "o.json"))
        args[args.index("--q") + 1] = "1.5"
        assert cli.main(args) == 1
        assert "q" in capsys.readouterr().err

    def test_oversized_observed_grid_is_validation_error(self, tmp_path, capsys):
        # 50 features x 100 rows: a 5001 x 5001 grid is over the count limit
        xp, yp, zp = _write_xyz(tmp_path, seed=5, m=50)
        out = str(tmp_path / "big.json")
        args = _analyze_args(xp, yp, zp, out, extra=["--b", "99", "--grid", "observed"])
        assert cli.main(args) == 1
        assert "quantile:<G>" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["quantile:0", "bogus", "quantile:ten"])
    def test_bad_grid_refused_before_the_tensor(self, tmp_path, capsys, monkeypatch, grid):
        calls = []
        monkeypatch.setattr(engine, "build_tensor", lambda *args: calls.append(args))
        xp, yp, zp = _write_xyz(tmp_path)
        args = _analyze_args(xp, yp, zp, str(tmp_path / "o.json"), extra=["--grid", grid])
        assert cli.main(args) == 1
        assert calls == []
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, word",
        [("--grid", "bogus", "grid"), ("--path-steps", "0", "path_steps"),
         ("--pi0-lambda", "-1", "pi0_lambda"),
         ("--pi0-lambda", "AUTO", "pi0_lambda must be 'auto' or a finite positive number")],
    )
    def test_bh_refuses_bad_search_settings(self, tmp_path, capsys, flag, value, word):
        # bh reads none of these, but result.json echoes them all
        xp, yp, zp = _write_xyz(tmp_path)
        out = tmp_path / "bh.json"
        args = _analyze_args(xp, yp, zp, str(out), extra=["--method", "bh", flag, value])
        assert cli.main(args) == 1
        assert word in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "bh.features.tsv").exists()

    @pytest.mark.parametrize("stat", ["rv", "basis-wald"])
    def test_singular_confounder_design_is_validation_error(self, tmp_path, capsys, stat):
        # z = [z1, z1 > 2], z1 on six values: [1, spline(z1), z2] is singular
        xp, yp, _ = _write_xyz(tmp_path, n=60)
        z1 = np.repeat(np.arange(6.0), 10)
        zp = str(tmp_path / "z2.tsv")
        io.save_matrix(zp, np.column_stack([z1, z1 > 2.0]).astype(float), ["z1", "z2"])
        out = tmp_path / "o.json"
        args = _analyze_args(xp, yp, zp, str(out))
        args[args.index("--stat") + 1] = stat
        assert cli.main(args) == 1
        assert "singular confounder design on observed data" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "o.features.tsv").exists()

    def test_missing_file_is_validation_error(self, tmp_path, capsys):
        xp, yp, zp = _write_xyz(tmp_path)
        args = _analyze_args(str(tmp_path / "nope.tsv"), yp, zp, str(tmp_path / "o.json"))
        assert cli.main(args) == 1
        assert "nope.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["mf2d-fdr", "bh"])
    def test_non_finite_outcome_located(self, tmp_path, capsys, method):
        # bh checks the data as the tensor methods do, before any fit
        xp, yp, zp = _write_xyz(tmp_path)
        y, names = io.load_matrix(yp)
        y[3, 2] = np.nan
        io.save_matrix(yp, y, names)
        args = _analyze_args(xp, yp, zp, str(tmp_path / "o.json"), extra=["--method", method])
        assert cli.main(args) == 1
        assert "invalid dataset: y[3,2]: non-finite" in capsys.readouterr().err

    def test_not_binary_value_is_a_plain_number(self, tmp_path, capsys):
        # the bundled outcomes are counts, so a binomial statistic refuses them
        assert cli.main(_fixture_args("analyze", tmp_path / "o.json", "--stat", "glm:binomial")) == 1
        err = capsys.readouterr().err
        assert "y[3,0]: not-binary (value 4.0)" in err and "np.float64" not in err

    def test_incompatible_stat_rejected(self, tmp_path, capsys):
        # hsic needs a continuous exposure
        xp, yp, zp = _write_xyz(tmp_path, binary_x=True)
        args = [
            "analyze", "--x", xp, "--y", yp, "--z", zp,
            "--stat", "hsic", "--sampler", "parametric-logistic",
            "--b", "5", "--out", str(tmp_path / "h.json"),
        ]
        assert cli.main(args) == 1
        assert "hsic" in capsys.readouterr().err

    def test_binned_sampler_needs_edges(self, tmp_path, capsys):
        xp, yp, zp = _write_xyz(tmp_path)
        args = _analyze_args(xp, yp, zp, str(tmp_path / "o.json"))
        idx = args.index("--sampler")
        args[idx + 1] = "binned-perm"
        assert cli.main(args) == 1
        assert "bin" in capsys.readouterr().err.lower()

    def test_binned_sampler_runs_with_edges(self, tmp_path):
        xp, yp, zp = _write_xyz(tmp_path, seed=8)
        out = str(tmp_path / "binned.json")
        args = _analyze_args(xp, yp, zp, out)
        args[args.index("--sampler") + 1] = "binned-perm"
        args += ["--bin-edges", "0", "--bin-col", "0", "--path-steps", "7"]
        assert cli.main(args) == 0
        doc = json.loads((tmp_path / "binned.json").read_text())
        assert doc["config"]["sampler"] == "binned-perm"
        # every analyze setting is echoed, so the run can be repeated
        assert doc["config"]["bin_edges"] == "0" and doc["config"]["bin_col"] == 0
        assert doc["config"]["path_steps"] == 7 and doc["config"]["nb_size"] == 3.0
        assert list(doc["config"]) == [
            "x", "y", "z", "stat", "sampler", "b", "q", "method", "pi0_lambda",
            "spline_df", "epsilon", "grid", "bin_col", "bin_edges", "nb_size",
            "path_steps", "seed",
        ]


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        xp, yp, zp = _write_xyz(tmp_path, seed=5)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"q": 0.05, "b": 10, "seed": 9}))
        out = str(tmp_path / "r.json")
        args = [
            "analyze", "--x", xp, "--y", yp, "--z", zp,
            "--config", str(cfg), "--q", "0.3", "--out", out,
        ]
        assert cli.main(args) == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["config"]["q"] == 0.3  # flag wins
        assert doc["config"]["b"] == 10  # file fills the rest
        assert doc["config"]["seed"] == 9

    def test_byte_order_mark_is_read_past(self, tmp_path):
        xp, yp, zp = _write_xyz(tmp_path, seed=5)
        cfg = tmp_path / "run.json"
        cfg.write_text("\ufeff" + json.dumps({"q": 0.3, "b": 10}), encoding="utf-8")
        run = ["analyze", "--x", xp, "--y", yp, "--z", zp]
        assert cli.main(run + ["--config", str(cfg), "--out", str(tmp_path / "c.json")]) == 0
        assert cli.main(run + ["--q", "0.3", "--b", "10", "--out", str(tmp_path / "f.json")]) == 0
        docs = [json.loads((tmp_path / f"{name}.json").read_text()) for name in ("c", "f")]
        for doc in docs:
            doc.pop("runtime_seconds")
        assert docs[0] == docs[1]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        xp, yp, zp = _write_xyz(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"quantiles": 50}))
        args = ["analyze", "--x", xp, "--y", yp, "--z", zp,
                "--config", str(cfg), "--out", str(tmp_path / "o.json")]
        assert cli.main(args) == 1
        assert "quantiles" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key",
        [("analyze", "dgp"), ("simulate", "x"), ("preprocess", "z"), ("analyze", "out")],
    )
    def test_key_of_another_command_rejected(self, tmp_path, capsys, monkeypatch, command, key):
        # only the command's own settings: a key that is another
        # command's flag, or --out, is refused before any work
        monkeypatch.setattr(sim, "run_method_comparison", None)  # never reached
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: 1}))
        args = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert cli.main(args) == 1
        assert f"unknown keys {key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("analyze", "b", 2.5),
            ("analyze", "b", "ten"),
            ("analyze", "q", [0.1]),
            ("simulate", "global_null", 1),
            ("preprocess", "binarize", "true"),
        ],
    )
    def test_value_of_wrong_type_rejected(self, tmp_path, capsys, monkeypatch, command, key, value):
        # a value must be what the flag's type makes of it and a switch
        # takes true or false; anything else is a config error naming
        # the key, refused before any work
        monkeypatch.setattr(sim, "run_method_comparison", None)  # never reached
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        args = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert cli.main(args) == 1
        assert f"config file {cfg}: {key}: expected" in capsys.readouterr().err

    def test_values_take_the_flag_types(self, tmp_path):
        xp, yp, zp = _write_xyz(tmp_path, seed=5)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"q": 1, "b": "9", "pi0_lambda": 0.5}))
        out = str(tmp_path / "r.json")
        args = ["analyze", "--x", xp, "--y", yp, "--z", zp, "--config", str(cfg), "--out", out]
        assert cli.main(args) == 0
        config = json.loads((tmp_path / "r.json").read_text())["config"]
        assert (config["q"], config["b"], config["pi0_lambda"]) == (1.0, 9, "0.5")
        assert isinstance(config["q"], float)

    def test_simulate_file_with_flag_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(
            {"reps": 2, "b": 7, "global_null": True, "n": 40, "m": 12, "l": "0.9"}
        ))
        out = tmp_path / "sim.tsv"
        args = ["simulate", "--config", str(cfg), "--reps", "3",
                "--method", "mf2d-fdr,mf1d", "--out", str(out)]
        seen = []
        real = sim.run_method_comparison

        def spy(config, methods):
            seen.append(config)
            return real(config, methods)

        monkeypatch.setattr(sim, "run_method_comparison", spy)
        assert cli.main(args) == 0
        (config,) = seen
        assert config.reps == 3  # flag wins
        assert config.sampler.b_count == 7 and config.global_null is True
        assert (config.n, config.m, config.l) == (40, 12, 0.9)
        rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert [(float(r[3]), r[9]) for r in rows] == [(0.9, "3")] * 2

    def test_preprocess_file_sets_binarize(self, tmp_path):
        cp = tmp_path / "c.tsv"
        io.save_matrix(cp, np.array([[0.0, 2.0], [5.0, 1.0]]), ["a", "b"])
        cfg = tmp_path / "prep.json"
        cfg.write_text(json.dumps({"binarize": True, "y": str(cp)}))
        out = str(tmp_path / "bin.tsv")
        assert cli.main(["preprocess", "--config", str(cfg), "--out", out]) == 0
        values, _ = io.load_matrix(out)
        np.testing.assert_array_equal(values, [[0.0, 1.0], [1.0, 1.0]])


class TestSimulate:
    def test_factor_grid_rows(self, tmp_path):
        out = str(tmp_path / "sim.tsv")
        args = [
            "simulate", "--dgp", "1", "--n", "40", "--m", "15",
            "--rho", "0.1,1.0", "--pi", "0.2", "--l", "0.4",
            "--reps", "2", "--b", "10", "--q", "0.1",
            "--method", "mf2d-fdr,mf1d", "--seed", "2", "--out", out,
        ]
        assert cli.main(args) == 0
        lines = (tmp_path / "sim.tsv").read_text().splitlines()
        assert lines[0].split("\t") == [
            "dgp", "rho", "pi", "l", "method", "fdr", "fdr_se", "power", "power_se",
            "reps_completed", "reps_failed",
        ]
        assert len(lines) == 1 + 2 * 2  # 2 rho x 2 methods
        for line in lines[1:]:
            cells = line.split("\t")
            assert cells[0] == "1"
            assert 0.0 <= float(cells[5]) <= 1.0
            assert 0.0 <= float(cells[7]) <= 1.0
            assert cells[9:] == ["2", "0"]

    def test_partial_failure_counted_and_exits_zero(self, tmp_path, monkeypatch):
        real = engine.build_tensor
        calls = []

        def build_tensor(dataset, plan, spec):
            calls.append(plan.seed)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("forced failure")
            return real(dataset, plan, spec)

        monkeypatch.setattr(engine, "build_tensor", build_tensor)
        out = tmp_path / "sim.tsv"
        args = ["simulate", "--dgp", "1", "--n", "40", "--m", "15", "--reps", "3",
                "--b", "10", "--method", "mf2d-fdr,bh", "--out", str(out)]
        with pytest.warns(UserWarning, match="replication 1 failed: forced failure"):
            assert cli.main(args) == 0
        lines = out.read_text().splitlines()
        assert [line.split("\t")[-2:] for line in lines[1:]] == [["2", "1"], ["2", "1"]]

    def test_negative_seed_refused_before_any_data(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = sim.gen_dataset
        monkeypatch.setattr(sim, "gen_dataset", lambda c, rng: calls.append(c) or real(c, rng))
        args = ["simulate", "--dgp", "1", "--n", "40", "--m", "10", "--reps", "2",
                "--b", "5", "--seed", "-1", "--out", str(tmp_path / "s.tsv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(args) == 1
        assert calls == [] and caught == []
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "s.tsv").exists()

    @pytest.mark.parametrize("flag", ["--rho", "--pi", "--l"])
    def test_malformed_number_list_names_its_flag(self, tmp_path, capsys, monkeypatch, flag):
        monkeypatch.setattr(sim, "run_method_comparison", None)  # never reached
        args = ["simulate", flag, "1.0,x", "--reps", "1", "--out", str(tmp_path / "s.tsv")]
        assert cli.main(args) == 1
        want = f"error: {flag} '1.0,x' is not a comma-separated list of numbers\n"
        assert capsys.readouterr().err == want

    def test_binned_sampler_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sim, "run_method_comparison", None)  # never reached
        args = ["simulate", "--sampler", "binned-perm", "--reps", "1",
                "--out", str(tmp_path / "s.tsv")]
        assert cli.main(args) == 1
        assert "binned-perm" in capsys.readouterr().err

    def test_spline_df_without_stat_or_sampler_refused(self, tmp_path, capsys, monkeypatch):
        # the dgp's default statistic and sampler carry their own df, so
        # the flag would do nothing
        monkeypatch.setattr(sim, "run_method_comparison", None)  # never reached
        args = ["simulate", "--dgp", "2", "--n", "60", "--m", "20", "--reps", "1",
                "--b", "5", "--spline-df", "3", "--out", str(tmp_path / "s.tsv")]
        assert cli.main(args) == 1
        assert "--spline-df" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--bin-edges", "--bin-col"])
    def test_bin_flags_not_accepted(self, tmp_path, flag):
        args = ["simulate", flag, "0", "--out", str(tmp_path / "s.tsv")]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2

    def test_zero_draws_refused_before_any_data(self, tmp_path, capsys, monkeypatch):
        real = sim.gen_dataset
        calls = []

        def gen_dataset(config, rng):
            calls.append(config)
            return real(config, rng)

        monkeypatch.setattr(sim, "gen_dataset", gen_dataset)
        args = ["simulate", "--dgp", "1", "--n", "40", "--m", "10", "--reps", "4",
                "--b", "0", "--out", str(tmp_path / "s.tsv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(args) == 1
        assert calls == [] and caught == []
        assert "b_count must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stat,message",
        [("bogus", "unknown statistic kind 'bogus'"), ("glm:bogus", "unknown family 'bogus'"),
         ("glm", "glm statistics need a family")],
    )
    def test_unknown_statistic_refused_before_any_data(
        self, tmp_path, capsys, monkeypatch, stat, message
    ):
        calls = []
        real = sim.gen_dataset
        monkeypatch.setattr(sim, "gen_dataset", lambda c, rng: calls.append(c) or real(c, rng))
        args = ["simulate", "--dgp", "1", "--n", "40", "--m", "10", "--reps", "30",
                "--b", "5", "--stat", stat, "--out", str(tmp_path / "s.tsv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(args) == 1
        assert calls == [] and caught == []
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s.tsv").exists()

    def test_repeated_method_refused_before_any_data(self, tmp_path, capsys, monkeypatch):
        # a name given twice would run twice and write its row twice
        calls = []
        real = sim.gen_dataset
        monkeypatch.setattr(sim, "gen_dataset", lambda c, rng: calls.append(c) or real(c, rng))
        args = ["simulate", "--dgp", "1", "--n", "40", "--m", "40", "--reps", "1",
                "--b", "9", "--method", "mf1d,mf1d,bh", "--out", str(tmp_path / "s.tsv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(args) == 1
        assert calls == [] and caught == []
        assert "method 'mf1d' is given more than once" in capsys.readouterr().err
        assert not (tmp_path / "s.tsv").exists()

    def test_nb_size_reaches_the_default_negbinom_statistic(self, tmp_path):
        # dgp 11's default statistic is glm:negbinom; --nb-size sets its
        # size as it does that of --stat glm:negbinom
        def table(*extra):
            out = tmp_path / f"s{len(list(tmp_path.iterdir()))}.tsv"
            args = ["simulate", "--dgp", "11", "--n", "60", "--m", "40", "--reps", "3",
                    "--b", "19", "--method", "mf2d-fdr,bh", *extra, "--out", str(out)]
            assert cli.main(args) == 0
            return out.read_bytes()

        default = table()
        assert table("--nb-size", "3") == default
        small = table("--nb-size", "0.5")
        assert small != default
        assert table("--stat", "glm:negbinom", "--nb-size", "0.5") == small

    def test_bad_dgp_validation(self, tmp_path, capsys):
        args = ["simulate", "--dgp", "19", "--out", str(tmp_path / "s.tsv"),
                "--reps", "1"]
        assert cli.main(args) == 1
        assert "dgp" in capsys.readouterr().err


class TestGridDump:
    def test_table_does_not_depend_on_the_method(self, tmp_path):
        tables = []
        for method in ("mf2d-fdr", "ordered-grid"):
            out = tmp_path / f"{method}.tsv"
            assert cli.main(_fixture_args("grid-dump", out, "--stat", "rv", "--method", method)) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize(
        "method, message",
        [("bh", "bh needs model-based p-values"), ("triple-dip", "unknown method 'triple-dip'")],
    )
    def test_method_refused_before_any_file_is_read(self, tmp_path, capsys, monkeypatch, method, message):
        # grid-dump refuses the methods analyze refuses
        loads = []
        monkeypatch.setattr(io, "load_dataset", lambda *a, **k: loads.append(a))
        out = tmp_path / "surface.tsv"
        assert cli.main(_fixture_args("grid-dump", out, "--stat", "rv", "--method", method)) == 1
        assert message in capsys.readouterr().err
        assert loads == [] and not out.exists()

    def test_memory_per_grid_cell_is_bounded(self, tmp_path):
        # the table's rows are written as they are made: the peak holds the
        # grid's count and surface arrays, not one Python row per cell
        xp, yp, zp = _write_xyz(tmp_path, seed=2, n=40, m=20)
        out = tmp_path / "surface.tsv"
        args = [
            "grid-dump", "--x", xp, "--y", yp, "--z", zp,
            "--stat", "glm:gaussian", "--sampler", "residual-perm",
            "--b", "9", "--grid", "observed", "--seed", "1", "--out", str(out),
        ]
        tracemalloc.start()
        try:
            assert cli.main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = len(out.read_text().splitlines()) - 1
        assert cells == 201**2
        assert peak / cells < 100, f"{peak / cells:.0f} bytes per grid cell"

    def test_table_failing_mid_write_leaves_the_old_file(self, tmp_path):
        # rows are written as they come, so a row that fails comes after
        # the temporary file holds the lines before it
        out = tmp_path / "surface.tsv"
        out.write_text("old\n")

        def rows():
            yield (0.0, 1.0)
            raise RuntimeError("row failed")

        with pytest.raises(RuntimeError, match="row failed"):
            io.save_table(out, ("t1", "t2"), rows())
        assert os.listdir(tmp_path) == ["surface.tsv"]
        assert out.read_text() == "old\n"

    def test_surface_table(self, tmp_path):
        xp, yp, zp = _write_xyz(tmp_path, seed=6, n=40, m=8)
        out = str(tmp_path / "surface.tsv")
        args = [
            "grid-dump", "--x", xp, "--y", yp, "--z", zp,
            "--stat", "glm:gaussian", "--sampler", "residual-perm",
            "--b", "8", "--grid", "quantile:12", "--seed", "3", "--out", out,
        ]
        assert cli.main(args) == 0
        lines = (tmp_path / "surface.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["t1", "t2", "sum_fbar", "rejections", "fdp_tilde"]
        rows = [line.split("\t") for line in lines[1:]]
        t1 = np.array([float(r[0]) for r in rows])
        t2 = np.array([float(r[1]) for r in rows])
        sumf = np.array([float(r[2]) for r in rows])
        # numerator is a dominance count: nonincreasing in t1 at fixed t2
        for v in np.unique(t2):
            sel = t2 == v
            order = np.argsort(t1[sel])
            diffs = np.diff(sumf[sel][order])
            assert np.all(diffs <= 1e-12)

    @pytest.mark.parametrize("grid", ["quantile:12", "observed"])
    @pytest.mark.parametrize("lam", [None, "auto", "0.5"])
    def test_surface_equals_brute_force_recount(self, tmp_path, monkeypatch, lam, grid):
        # the table and search's surface against a recount of the same tensor:
        # the reference grid (np.sort), lambda (np.median) and pi0, and
        # dominance counts taken one grid point at a time
        tensors = []
        build = engine.build_tensor
        monkeypatch.setattr(engine, "build_tensor", lambda *a: tensors.append(build(*a)) or tensors[-1])
        xp, yp, zp = _write_xyz(tmp_path, seed=6, n=40, m=8)
        out = tmp_path / "surface.tsv"
        args = [
            "grid-dump", "--x", xp, "--y", yp, "--z", zp,
            "--stat", "glm:gaussian", "--sampler", "residual-perm",
            "--b", "5", "--grid", grid, "--seed", "3", "--out", str(out),
        ]
        assert cli.main(args + ([] if lam is None else ["--pi0-lambda", lam])) == 0
        (tensor,) = tensors
        want_grid = reference.make_grid(tensor, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pi0, _ = reference.resolve_pi0(tensor, engine.ProcedureConfig(pi0_lambda=lam))
        assert (pi0 < 1.0) == (lam is not None)
        pooled, observed = reference.dominance_counts(tensor, want_grid)
        b1 = tensor.pairs.shape[0]
        sumf = [[int(c) / b1 for c in row] for row in pooled]
        fdp = [
            [pi0 * (int(c) / b1) / max(1, int(r)) for c, r in zip(*rows)]
            for rows in zip(pooled, observed)
        ]
        want = [
            (t1, t2, sumf[a][c], int(observed[a, c]), fdp[a][c])
            for a, t1 in enumerate(want_grid.t1_values)
            for c, t2 in enumerate(want_grid.t2_values)
        ]
        got = [tuple(float(v) for v in line.split("\t")) for line in out.read_text().splitlines()[1:]]
        assert got == want
        config = engine.ProcedureConfig(grid=grid, pi0_lambda=lam)
        surface = engine.search(tensor, config, ["mf2d-fdr"]).surface
        assert [a.tolist() for a in surface] == [sumf, observed.tolist(), fdp]


class TestUnreadSettings:
    """A setting the run does not read is still checked, since result.json
    echoes it: each bad value exits 1 and writes no result file."""

    @staticmethod
    def _run(tmp_path, command, extra):
        outdir = tmp_path / "out"
        outdir.mkdir()
        out = str(outdir / ("r.json" if command == "analyze" else "r.tsv"))
        if command == "simulate":
            args = ["simulate", "--dgp", "1", "--n", "40", "--m", "10", "--reps", "1",
                    "--b", "5", "--out", out]
        else:
            xp, yp, zp = _write_xyz(tmp_path, n=60, m=20)
            args = [command, "--x", xp, "--y", yp, "--z", zp, "--b", "5", "--out", out]
        code = cli.main(args + list(extra))
        return code, os.listdir(outdir)

    @pytest.mark.parametrize("command", ["analyze", "grid-dump", "simulate"])
    def test_epsilon_must_be_positive(self, tmp_path, capsys, command):
        # rv, and the dgp's own gaussian GLM, have no ridge
        stat = [] if command == "simulate" else ["--stat", "rv"]
        assert self._run(tmp_path, command, stat + ["--epsilon", "-1"]) == (1, [])
        assert "--epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "grid-dump", "simulate"])
    def test_nb_size_must_be_positive(self, tmp_path, capsys, command):
        stat = [] if command == "simulate" else ["--stat", "rv"]
        assert self._run(tmp_path, command, stat + ["--nb-size", "-2"]) == (1, [])
        assert "--nb-size" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "grid-dump"])
    @pytest.mark.parametrize("edges", ["abc", "1,0", "0,0"])
    def test_bin_edges_must_be_increasing_numbers(self, tmp_path, capsys, command, edges):
        # residual-perm takes no bins
        extra = ["--sampler", "residual-perm", "--bin-edges", edges]
        assert self._run(tmp_path, command, extra) == (1, [])
        assert "--bin-edges" in capsys.readouterr().err


class TestRefusals:
    """Data a statistic cannot take, a bad config file and an out-of-range
    --bin-col: each exits 1 with its own message and writes no result."""

    @staticmethod
    def _files(tmp_path, x, y, z):
        paths = [str(tmp_path / f"{name}.tsv") for name in "xyz"]
        for path, mat in zip(paths, (x, y, z)):
            io.save_matrix(path, mat, [f"c{j}" for j in range(mat.shape[1])])
        return paths

    def _run(self, tmp_path, capsys, command, args):
        out = tmp_path / "out"
        out.mkdir()
        code = cli.main([command, *args, "--b", "5", "--out", str(out / "r")])
        assert os.listdir(out) == []
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "stat, x_bin, y_bin, z_bin, message",
        [
            ("basis-wald", True, False, False,
             "basis statistics need continuous exposure and outcomes"),
            ("basis-wald", False, True, False,
             "basis statistics need continuous exposure and outcomes"),
            ("categorical", False, True, True,
             "categorical statistics need binary exposure and outcomes"),
            ("categorical", True, False, True,
             "categorical statistics need binary exposure and outcomes"),
            ("categorical", True, True, False, "categorical statistics need binary confounders"),
        ],
    )
    def test_statistic_refuses_data_kinds(self, tmp_path, capsys, stat, x_bin, y_bin, z_bin, message):
        rng = np.random.default_rng(31)

        def block(binary, m):
            return (rng.random((40, m)) < 0.5).astype(float) if binary else rng.normal(size=(40, m))

        paths = self._files(tmp_path, block(x_bin, 1), block(y_bin, 6), block(z_bin, 1))
        sampler = "parametric-logistic" if x_bin else "residual-perm"
        args = [*(a for pair in zip(("--x", "--y", "--z"), paths) for a in pair),
                "--stat", stat, "--sampler", sampler]
        assert self._run(tmp_path, capsys, "analyze", args) == (1, f"error: {message}\n")

    @pytest.mark.parametrize("command", ["analyze", "grid-dump"])
    def test_basis_wald_refuses_a_multivariate_exposure(self, tmp_path, capsys, command):
        rng = np.random.default_rng(32)
        x, y, z = rng.normal(size=(40, 2)), rng.normal(size=(40, 6)), rng.normal(size=(40, 1))
        paths = self._files(tmp_path, x, y, z)
        args = [*(a for pair in zip(("--x", "--y", "--z"), paths) for a in pair),
                "--stat", "basis-wald"]
        want = "error: basis statistics need a univariate exposure\n"
        assert self._run(tmp_path, capsys, command, args) == (1, want)

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "config file not found: {path}"),
            ("q = 0.1", "config file {path}: Expecting value: line 1 column 1 (char 0)"),
            ("[0.1]", "config file {path}: expected a JSON object"),
            ("3", "config file {path}: expected a JSON object"),
        ],
    )
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_config_file_refused(self, tmp_path, capsys, monkeypatch, command, text, message):
        monkeypatch.setattr(sim, "run_method_comparison", None)  # never reached
        path = tmp_path / "run.json"
        if text is not None:
            path.write_text(text)
        code = self._run(tmp_path, capsys, command, ["--config", str(path)])
        assert code == (1, f"error: {message.format(path=path)}\n")

    @pytest.mark.parametrize("command", ["analyze", "grid-dump"])
    @pytest.mark.parametrize("column", ["-1", "1", "5"])
    def test_bin_col_out_of_range(self, tmp_path, capsys, command, column):
        paths = _write_xyz(tmp_path)  # one confounder column
        args = [*(a for pair in zip(("--x", "--y", "--z"), paths) for a in pair),
                "--sampler", "binned-perm", "--bin-edges", "0", "--bin-col", column]
        want = f"error: bin-col {column} out of range for 1 confounders\n"
        assert self._run(tmp_path, capsys, command, args) == (1, want)


class TestPreprocess:
    @pytest.mark.parametrize("extra", [[], ["--rarefy"]])
    def test_negative_seed_refused_before_the_file_is_read(self, tmp_path, capsys, monkeypatch, extra):
        # refused whether or not --rarefy reads it, like the run commands' settings
        monkeypatch.setattr(io, "load_matrix", None)  # never reached
        cp = tmp_path / "counts.tsv"
        cp.write_text("a\tb\n1\t2\n")
        out = tmp_path / "out.tsv"
        args = ["preprocess", "--y", str(cp), *extra, "--seed", "-2", "--out", str(out)]
        assert cli.main(args) == 1
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -2\n"
        assert not out.exists()

    def test_pipeline_to_file(self, tmp_path):
        rng = np.random.default_rng(9)
        counts = rng.integers(0, 25, size=(30, 10)).astype(float)
        counts[:, 4] = 0.0
        counts[0, 4] = 3.0  # present in 1/30 rows, dropped at 10%
        cp = tmp_path / "counts.tsv"
        io.save_matrix(cp, counts, [f"otu{j}" for j in range(10)])
        out = str(tmp_path / "clr.tsv")
        args = [
            "preprocess", "--y", str(cp), "--prevalence-min", "0.1",
            "--rarefy", "--clr", "--seed", "5", "--out", out,
        ]
        assert cli.main(args) == 0
        values, names = io.load_matrix(out)
        assert "otu4" not in names
        assert values.shape == (30, 9)
        np.testing.assert_allclose(values.sum(axis=1), 0.0, atol=1e-9)

    def test_binarize(self, tmp_path):
        counts = np.array([[0.0, 2.0], [5.0, 1.0]])
        cp = tmp_path / "c.tsv"
        io.save_matrix(cp, counts, ["a", "b"])
        out = str(tmp_path / "bin.tsv")
        assert cli.main(["preprocess", "--y", str(cp), "--binarize", "--out", out]) == 0
        values, _ = io.load_matrix(out)
        np.testing.assert_array_equal(values, [[0.0, 1.0], [1.0, 1.0]])

    def test_conflicting_transforms(self, tmp_path, capsys):
        cp = tmp_path / "c.tsv"
        io.save_matrix(cp, np.ones((4, 2)), ["a", "b"])
        args = ["preprocess", "--y", str(cp), "--clr", "--binarize",
                "--out", str(tmp_path / "o.tsv")]
        assert cli.main(args) == 1
        assert "binarize" in capsys.readouterr().err


# a flag only that subcommand has
_OWN_FLAG = {"analyze": "--bin-edges", "grid-dump": "--bin-edges", "simulate": "--dgp",
             "preprocess": "--prevalence-min"}


class TestParser:
    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(command in out for command in _OWN_FLAG)

    @pytest.mark.parametrize("command", _OWN_FLAG)
    def test_subcommand_help_shows_its_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert _OWN_FLAG[command] in out and "--out" in out and "--config" in out
        others = {flag for other, flag in _OWN_FLAG.items() if flag != _OWN_FLAG[command]}
        assert not any(flag in out for flag in others)

    @pytest.mark.parametrize("command", _OWN_FLAG)
    def test_only_the_invoked_subcommand_gets_flags(self, command):
        _, subparsers = cli._build_parser(command)
        assert list(subparsers) == list(_OWN_FLAG)
        for name, sub in subparsers.items():
            flags = {opt for action in sub._actions for opt in action.option_strings}
            if name == command:
                assert {_OWN_FLAG[command], "-h", "--out", "--config"} <= flags
            else:
                assert flags == set()

    @pytest.mark.parametrize("command", _OWN_FLAG)
    def test_terminal_is_probed_once_per_parse(self, capsys, monkeypatch, command):
        # argparse makes a help formatter per add_argument and each one
        # probes the terminal; the whole call, help included, probes it
        # once, and the help is what formatters probing alone print
        probe = shutil.get_terminal_size
        calls = []
        monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or probe(*a))
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        assert len(calls) == 1
        parser, subparsers = cli._build_parser(command)
        for p in (parser, subparsers[command]):
            p.formatter_class = argparse.HelpFormatter
        assert subparsers[command].format_help() == capsys.readouterr().out
        assert parser.format_help() == cli._build_parser(command)[0].format_help()


@pytest.mark.parametrize(
    "module, package",
    [
        pytest.param("fdr2d", "scipy", id="fdr2d"),
        pytest.param("fdr2d.cli", "scipy", id="fdr2d.cli"),
        pytest.param(
            "fdr2d.cli", "numpy.random", id="fdr2d.cli-numpy.random",
            marks=pytest.mark.skipif(
                np.lib.NumpyVersion(np.__version__) < "2.0.0",
                reason="numpy 1 imports numpy.random with numpy",
            ),
        ),
    ],
)
def test_import_leaves_scipy_unloaded(module, package):
    # scipy serves only bh's p-values, and numpy.random only the draws and
    # simulations; a run that does not ask for them should not pay for
    # their import
    src = os.path.dirname(os.path.dirname(os.path.abspath(fdr2d.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    loaded = f"[m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})]"
    code = f"import sys, {module}; print({loaded})"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_rejections_do_not_depend_on_the_blas_thread_count(tmp_path):
    # GEMMs round by their blocking, so tensor bits may differ between
    # thread counts; thresholds and rejection sets may not
    src = os.path.dirname(os.path.dirname(os.path.abspath(fdr2d.__file__)))
    docs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}.json"
        x, y, z = (os.path.join(_FIXTURES, f) for f in ("exposure.tsv", "otu_counts.tsv", "confounders.tsv"))
        subprocess.run(
            [sys.executable, "-m", "fdr2d.cli", "analyze", "--x", x, "--y", y, "--z", z, "--stat", "glm:poisson",
             "--sampler", "parametric-logistic", "--b", "19", "--seed", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        docs.append(json.loads(out.read_text()))
    assert docs[0]["rejected_features"] == docs[1]["rejected_features"]
    for key in ("t1", "t2", "fdp_estimate"):
        np.testing.assert_allclose(float(docs[1][key]), float(docs[0][key]), rtol=1e-12)
