import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from picardop import (
    AffineOperator,
    PicardConfig,
    banach_bounds,
    picard_solve,
    residual,
    trace_csv_text,
)
from picardop import cli
from picardop.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def affine_solve_config(**picard_overrides):
    picard = {"lambda": 1.0, "epsilon": 1e-11, "max_iter": 5000}
    picard.update(picard_overrides)
    return {
        "operator": {"type": "affine",
                     "A": [[0.4, 0.1], [0.0, 0.5]],
                     "b": [1.0, -1.0]},
        "f": [0.5, 0.5],
        "picard": picard,
    }


class TestSolveCommand:
    def test_contraction_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", affine_solve_config())
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["final_residual"] <= 1e-11
        trace = (out / "trace.csv").read_text().strip().split("\n")
        assert trace[0].startswith("iter,step_norm,residual")
        assert len(trace) == 1 + summary["iterations_used"]
        assert (out / "manifest.json").exists()

    def test_solution_matches_dense_solve(self, tmp_path):
        cfg_obj = affine_solve_config()
        cfg = write_config(tmp_path, "c.json", cfg_obj)
        out = tmp_path / "out"
        main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
        summary = json.loads((out / "summary.json").read_text())
        A = np.array(cfg_obj["operator"]["A"])
        b = np.array(cfg_obj["operator"]["b"])
        f = np.array(cfg_obj["f"])
        assert summary["final_residual"] <= 1e-11
        assert np.isfinite(np.linalg.solve(np.eye(2) - A, b + f)).all()

    def test_expanding_map_exits_three(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "operator": {"type": "affine", "A": [[1.3, 0.0], [0.0, 1.2]], "b": [0, 0]},
            "f": [1.0, 1.0],
            "picard": {"lambda": 1.0, "epsilon": 1e-11, "max_iter": 1000},
        })
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"] is True
        # partial trace still written
        assert len((out / "trace.csv").read_text().strip().split("\n")) > 1

    def test_max_iter_exhaustion_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", affine_solve_config(max_iter=1))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        trace = (out / "trace.csv").read_text().strip().split("\n")
        assert len(trace) == 2  # header + the single step

    def test_config_error_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "operator": {"type": "affine", "A": [[0.5]]},
            "picard": {"lambda": 0.0, "epsilon": 1e-8, "max_iter": 10},
        })
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "picard" in capsys.readouterr().err

    @pytest.mark.parametrize("op_type, f", [
        ("affine", {"constant": "x"}),
        ("affine", [0.5, float("nan")]),
        ("affine", "missing_f.txt"),
        ("affine", [0.5, 0.5, 0.5]),
        ("affine", {"scale": 2.0}),
        ("gnn", [[0.1, float("nan")], [0.0, 0.0]]),
        ("gnn", {"blocks": [[0.1, 0.2]]}),
        ("attention", None),
        ("attention", [[0.1, 0.2]]),
    ], ids=["constant-not-numeric", "affine-nan", "missing-file", "wrong-length",
            "unknown-key", "gnn-nan", "blocks-wrong-shape", "attention-without-f",
            "attention-wrong-columns"])
    def test_bad_free_term_names_f(self, tmp_path, capsys, op_type, f):
        operator = {
            "affine": {"type": "affine", "A": [[0.4, 0.1], [0.0, 0.5]]},
            "gnn": {"type": "gnn", "graph": {"n": 2, "edges": [[0, 1]]},
                    "W": [[0.1, 0.0], [0.0, 0.1]]},
            "attention": {"type": "attention", "Wq": [[0.1]], "Wk": [[0.1]], "Wv": [[0.1]]},
        }[op_type]
        cfg = write_config(tmp_path, "c.json", {
            "operator": operator, "f": f,
            "picard": {"lambda": 1.0, "epsilon": 1e-8, "max_iter": 10},
        })
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert "'f'" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("text", ["{", "[1, 2]"], ids=["invalid-json", "top-level-array"])
    def test_unusable_config_text_exits_one(self, tmp_path, capsys, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
        assert "'config'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1
        assert "config" in capsys.readouterr().err

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", affine_solve_config())
        main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert capsys.readouterr().out == ""

    def test_hammerstein_shipped_config(self, tmp_path):
        out = tmp_path / "out"
        code = main(["solve", "--config", str(CONFIGS / "fredholm_product_kernel.json"),
                     "--out", str(out), "--quiet"])
        assert code == 0

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_artifacts_take_the_umask(self, tmp_path, umask, mode):
        cfg = write_config(tmp_path, "c.json", affine_solve_config())
        out = tmp_path / "out"
        previous = os.umask(umask)
        try:
            assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
            # an existing artifact is replaced by a file of the same mode
            assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        finally:
            os.umask(previous)
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
        assert modes == {"manifest.json": mode, "summary.json": mode, "trace.csv": mode}


class TestRatesCommand:
    def test_scalar_demo_bounds_dominate(self, tmp_path):
        out = tmp_path / "out"
        code = main(["rates", "--config", str(CONFIGS / "scalar_rates.json"),
                     "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "rates.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        idx = {name: i for i, name in enumerate(header)}
        first = lines[1].split(",")
        # n=0 row: a priori = ||u0 - u1|| / (1 - k), no a posteriori
        assert float(first[idx["apriori_bound"]]) == pytest.approx(
            float(first[idx["step_norm"]]) / 0.5)
        assert first[idx["aposteriori_bound"]] == ""
        for line in lines[1:]:
            cells = line.split(",")
            actual = float(cells[idx["actual_error"]])
            assert actual <= float(cells[idx["apriori_bound"]]) * (1 + 1e-12)
            if cells[idx["aposteriori_bound"]]:
                assert actual <= float(cells[idx["aposteriori_bound"]]) * (1 + 1e-12)

    def test_near_critical_contraction_still_valid(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "operator": {"type": "affine", "A": [[0.99]], "b": [1.0]},
            "f": [0.0],
            "picard": {"lambda": 1.0, "epsilon": 1e-8, "max_iter": 5000},
        })
        out = tmp_path / "out"
        assert main(["rates", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = (out / "rates.csv").read_text().strip().split("\n")
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[5]) <= float(cells[3]) * (1 + 1e-12)

    def test_refuses_non_contraction(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "operator": {"type": "affine", "A": [[1.1]], "b": [0.0]},
            "f": [1.0],
            "picard": {"lambda": 1.0, "epsilon": 1e-8, "max_iter": 100},
        })
        assert main(["rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "rates.k" in capsys.readouterr().err

    def test_understated_k_is_config_error(self, tmp_path, capsys):
        # the true constant of T(x) = 2x is 2, so k = 0.1 at lambda = 0.1 claims
        # a map constant of 0.01 where the iterates contract by 0.2
        cfg = write_config(tmp_path, "c.json", {
            "operator": {"type": "affine", "A": [[2.0]], "b": [0.0]},
            "f": [1.0],
            "picard": {"lambda": 0.1, "epsilon": 1e-10, "max_iter": 1000},
            "rates": {"k": 0.1},
        })
        out = tmp_path / "o"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "rates.k" in err and "iterate 0" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("a, b, f", [(0.7, 100.0, 0.0), (0.15, 3.3, -106.6)])
    def test_exact_k_accepted_up_to_rounding(self, tmp_path, a, b, f):
        # the default k = |a| is exact, so the bounds are tight and rounding
        # alone puts some actual errors a few ulps above them
        cfg = write_config(tmp_path, "c.json", {
            "operator": {"type": "affine", "A": [[a]], "b": [b]},
            "f": [f],
            "picard": {"lambda": 1.0, "epsilon": 1e-11, "max_iter": 5000},
        })
        assert main(["rates", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0

    @pytest.mark.parametrize("max_iter, smoothing, norm_kind", [
        (5000, 0.0, "discrete-L2"), (3, 0.0, "discrete-L2"), (5000, 0.3, "sup"),
    ], ids=["converged", "max-iter", "smoothed-sup"])
    def test_one_solve_gives_the_two_solve_output(self, tmp_path, monkeypatch,
                                                  max_iter, smoothing, norm_kind):
        # the run to epsilon is a prefix of the run to reference_epsilon, so one
        # solve gives the same trace, reference and bounds as two
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4))
        A = A + A.T
        A *= 0.6 / np.abs(A).sum(axis=1).max()  # symmetric: ||A||_2 <= ||A||_inf = 0.6
        b, f = rng.standard_normal(4), rng.standard_normal(4)
        cfg = write_config(tmp_path, "c.json", {
            "operator": {"type": "affine", "A": A.tolist(), "b": b.tolist()},
            "f": f.tolist(),
            "picard": {"lambda": -0.8, "epsilon": 1e-10, "max_iter": max_iter,
                       "smoothing": smoothing, "norm": norm_kind},
            "rates": {"k": 0.6, "reference_epsilon": 1e-13},
        })
        op = AffineOperator(A, b)
        pcfg = PicardConfig(-0.8, 1e-10, max_iter, smoothing, norm_kind)
        solution, trace = picard_solve(op, pcfg, f, record_iterates=True)
        reference, _ = picard_solve(op, PicardConfig(-0.8, 1e-13, 10000, smoothing,
                                                     norm_kind), f)
        k_map = smoothing + (1 - smoothing) * 0.8 * 0.6
        bounds = banach_bounds(trace, k_map, reference=reference)
        calls = []
        monkeypatch.setattr(cli, "picard_solve",
                            lambda *args, **kw: calls.append(picard_solve(*args, **kw))
                            or calls[-1])
        out = tmp_path / "out"
        code = main(["rates", "--config", cfg, "--out", str(out), "--quiet"])
        assert code == (0 if trace.converged else 2)
        assert len(calls) == 1
        assert len(calls[0][1].iterates) == trace.iterations_used + 1  # the run's alone
        assert (out / "rates.csv").read_text() == trace_csv_text(trace, bounds)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations_used"] == trace.iterations_used
        assert summary["final_residual"] == residual(op, -0.8, f, solution, norm_kind)

    def test_constant_map_has_exact_bounds(self, tmp_path):
        # T(x) = b: the default k = ||A|| = 0, the first iterate is the fixed
        # point, and both bounds equal the actual errors
        cfg = write_config(tmp_path, "c.json", {
            "operator": {"type": "affine", "A": [[0.0, 0.0], [0.0, 0.0]], "b": [1.0, 2.0]},
            "f": [0.5, 0.0],
            "picard": {"lambda": 1.0, "epsilon": 1e-10, "max_iter": 100},
        })
        out = tmp_path / "out"
        assert main(["rates", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = [line.split(",") for line in (out / "rates.csv").read_text().splitlines()[1:]]
        assert [float(row[3]) for row in rows] == [float(np.sqrt(5.0)), 0.0, 0.0]
        assert [row[4] for row in rows] == ["", "0.0", "0.0"]
        assert [row[5] for row in rows] == [row[3] for row in rows]

    def test_sup_norm_default_k_is_max_row_sum(self, tmp_path):
        # the spectral norm of this A is 0.6735, but in the sup norm x -> A x
        # contracts by its max absolute row sum, 0.95
        cfg = write_config(tmp_path, "c.json", {
            "operator": {"type": "affine", "A": [[0.5, 0.45], [0.0, 0.05]], "b": [1.0, 0.0]},
            "f": [0.0, 1.0],
            "picard": {"lambda": 1.0, "epsilon": 1e-10, "max_iter": 5000, "norm": "sup"},
        })
        out = tmp_path / "out"
        assert main(["rates", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["contraction_constant"] == pytest.approx(0.95, rel=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_sup_norm_default_k_is_accepted(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        A = rng.standard_normal((d, d))
        A *= rng.uniform(0.2, 0.9) / np.abs(A).sum(axis=1).max()
        cfg = write_config(tmp_path, "c.json", {
            "operator": {"type": "affine", "A": A.tolist(), "b": rng.standard_normal(d).tolist()},
            "f": rng.standard_normal(d).tolist(),
            "picard": {"lambda": float(rng.choice([-1.0, 1.0])), "epsilon": 1e-10,
                       "max_iter": 5000, "norm": "sup"},
        })
        assert main(["rates", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0

    def test_diverging_reference_exits_three(self, tmp_path, capsys):
        # k = 0.1 passes the contraction check, but T(x) = 2x sends the
        # reference solve off to infinity
        cfg = write_config(tmp_path, "c.json", {
            "operator": {"type": "affine", "A": [[2.0]], "b": [0.0]},
            "f": [1.0],
            "picard": {"lambda": 1.0, "epsilon": 1e-10, "max_iter": 1000},
            "rates": {"k": 0.1},
        })
        out = tmp_path / "o"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == 3
        assert "diverged" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_non_affine_needs_k_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "operator": {"type": "hammerstein",
                         "grid": {"a": 0, "b": 1, "n": 21},
                         "kernel": "separable-linear", "params": [0, 0, 0, 1]},
            "f": {"constant": 1.0},
            "picard": {"lambda": 1.0, "epsilon": 1e-10, "max_iter": 500},
        })
        assert main(["rates", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        cfg2 = json.loads(Path(cfg).read_text())
        cfg2["rates"] = {"k": 0.34}
        cfg2_path = write_config(tmp_path, "c2.json", cfg2)
        assert main(["rates", "--config", cfg2_path, "--out",
                     str(tmp_path / "o2"), "--quiet"]) == 0


class TestFrechetCheckCommand:
    def test_report_fields_and_tolerances(self, tmp_path):
        out = tmp_path / "out"
        code = main(["frechet-check", "--config", str(CONFIGS / "attention_frechet.json"),
                     "--out", str(out), "--seed", "5", "--quiet"])
        assert code == 0
        report = json.loads((out / "frechet_report.json").read_text())
        assert report["max_rel_error"] <= 1e-6
        assert report["order_check"]["ratio"] >= 3.0

    def test_rejects_non_attention_operator(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "operator": {"type": "affine", "A": [[0.5]], "b": [0.0]},
        })
        assert main(["frechet-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


class TestGnnCertCommand:
    def test_certificate_and_rescaled_matrix(self, tmp_path):
        out = tmp_path / "out"
        code = main(["gnn-cert", "--config", str(CONFIGS / "gnn_cert.json"),
                     "--out", str(out), "--quiet"])
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert set(cert) >= {"L", "alpha_max", "product", "certified", "rescaled_W_path"}
        assert cert["alpha_max"] == 3  # ring with self-inclusion: degree 2 + 1
        assert cert["rescaled_product"] == pytest.approx(0.9, abs=1e-9)
        assert Path(cert["rescaled_W_path"]).exists()


class TestPignCommand:
    def test_writes_report_and_summary(self, tmp_path):
        cfg = json.loads((CONFIGS / "pign_noise.json").read_text())
        cfg["seeds"] = [0, 1]
        path = write_config(tmp_path, "p.json", cfg)
        out = tmp_path / "out"
        assert main(["pign", "--config", path, "--out", str(out), "--quiet"]) == 0
        report = (out / "pign_report.csv").read_text().strip().split("\n")
        assert report[0] == "seed,mode,noise_p,pign_acc,baseline_acc,iters_used"
        assert len(report) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["mean_pign_accuracy"] <= 1.0

    def test_magnitude_ignored_without_noise(self, tmp_path):
        cfg = json.loads((CONFIGS / "pign_noise.json").read_text())
        cfg["seeds"] = [0]
        cfg["noise"] = {"p": 0, "magnitude": 0}
        path = write_config(tmp_path, "p.json", cfg)
        assert main(["pign", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0


class TestSweepCommand:
    def test_sweep_solve_over_lambda(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(CONFIGS / "sweep_lambda.json"),
                     "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "index,value,exit_code"
        assert len(lines) == 5
        for i in range(4):
            run_summary = out / "runs" / f"{i:03d}" / "summary.json"
            assert json.loads(run_summary.read_text())["converged"] is True

    @pytest.mark.parametrize("command, values, codes, want", [
        ("solve", [0.1, 1.0], [0, 3], 3),
        ("solve", [0.1, 1.0, 0.0], [0, 3, 1], 1),
        ("rates", [0.1, 1.0], [1, 3], 1),
    ], ids=["divergence-is-highest", "config-error-wins", "rates-divergence-recorded"])
    def test_exit_code_summarises_sub_runs(self, tmp_path, command, values, codes, want):
        # rates.k understates the true constant 2*lambda: at lambda=0.1 the
        # actual errors exceed the bounds (a config error), and at lambda=1 the
        # reference solve of rates diverges before the bounds are checked
        cfg = write_config(tmp_path, "c.json", {
            "sweep": {"command": command, "field": "picard.lambda", "values": values},
            "operator": {"type": "affine", "A": [[2.0]], "b": [0.0]},
            "f": [1.0],
            "picard": {"lambda": 0.1, "epsilon": 1e-10, "max_iter": 1000},
            "rates": {"k": 0.1},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == want
        rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
        assert [int(row.split(",")[-1]) for row in rows] == codes
        assert (out / "manifest.json").exists()

    def test_bad_field_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "sweep": {"command": "solve", "field": "nope.lambda", "values": [1]},
            **affine_solve_config(),
        })
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


class TestDeterminism:
    def test_identical_runs_produce_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", affine_solve_config())
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["solve", "--config", cfg, "--out", str(out), "--seed", "3", "--quiet"])
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command, config", [
        ("solve", "affine_solve.json"),
        ("rates", "scalar_rates.json"),
        ("frechet-check", "attention_frechet.json"),
        ("gnn-cert", "gnn_cert.json"),
        ("pign", "pign_noise.json"),
    ], ids=["solve", "rates", "frechet-check", "gnn-cert", "pign"])
    def test_manifest_contents(self, tmp_path, command, config):
        out = tmp_path / "out"
        assert main([command, "--config", str(CONFIGS / config), "--out", str(out),
                     "--seed", "11", "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["seed"] == 11
        assert manifest["config"] == json.loads((CONFIGS / config).read_text())
        assert manifest["version"]

    def test_sweep_sub_run_manifest(self, tmp_path):
        out = tmp_path / "out"
        main(["sweep", "--config", str(CONFIGS / "sweep_lambda.json"), "--out", str(out),
              "--seed", "11", "--quiet"])
        manifest = json.loads((out / "runs" / "000" / "manifest.json").read_text())
        sweep_cfg = json.loads((CONFIGS / "sweep_lambda.json").read_text())
        assert manifest["command"] == "solve"
        assert "sweep" not in manifest["config"]
        assert manifest["config"]["picard"]["lambda"] == sweep_cfg["sweep"]["values"][0]


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    for command in ("solve", "rates", "frechet-check", "gnn-cert", "pign", "sweep"):
        assert f"\n  {command} " in help_text


def set_path(cfg: dict, keys, value) -> None:
    for key in keys[:-1]:
        cfg = cfg[key]
    cfg[keys[-1]] = value


def assert_config_error_names(tmp_path, capsys, command, cfg, field):
    shutil.copytree(CONFIGS / "data", tmp_path / "data")  # relative paths resolve
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 1
    assert f"'{field}'" in capsys.readouterr().err
    assert not any(out.iterdir())


def bad_value(command, config, path, value, field=None, id=None):
    """A shipped config with the value at dotted ``path`` replaced; ``field`` defaults to it."""
    return pytest.param(command, config, path, value, field or path,
                        id=id or f"{command}:{path}={json.dumps(value)}")


@pytest.mark.parametrize("command, config, path, value, field", [
    bad_value("gnn-cert", "gnn_cert.json", "target", 1.5, id="target-above-one"),
    bad_value("frechet-check", "attention_frechet.json", "check.n_samples", 0,
              id="zero-samples"),
    bad_value("rates", "scalar_rates.json", "rates.reference_epsilon", -1,
              id="negative-reference-epsilon"),
    bad_value("rates", "scalar_rates.json", "rates.k", "abc", id="non-numeric-k"),
    bad_value("frechet-check", "attention_frechet.json", "check.t", 0, id="zero-step"),
    bad_value("sweep", "sweep_lambda.json", "sweep.values", 0.5, id="values-not-a-list"),
    bad_value("pign", "pign_noise.json", "operator.target_contraction", 1.5),
    bad_value("pign", "pign_noise.json", "noise.p", 2),
    bad_value("pign", "pign_noise.json", "picard.alpha", 2),
    bad_value("pign", "pign_noise.json", "picard.max_iter", 0),
    bad_value("pign", "pign_noise.json", "dataset.d", "abc"),
    bad_value("pign", "pign_noise.json", "readout.epochs", [1]),
    bad_value("pign", "pign_noise.json", "readout.epochs", 0),
    bad_value("pign", "pign_noise.json", "seeds", "ab"),
    bad_value("pign", "pign_noise.json", "seeds", []),
    bad_value("solve", "affine_solve.json", "picard.epsilon", [1]),
    bad_value("frechet-check", "attention_frechet.json", "check", 5),
    bad_value("rates", "scalar_rates.json", "rates", [1]),
    bad_value("rates", "scalar_rates.json", "picard", 3),
    bad_value("rates", "scalar_rates.json", "rates.k", 0),
    bad_value("rates", "scalar_rates.json", "rates.reference_epsilon", 1e-9),
    bad_value("sweep", "sweep_lambda.json", "sweep.field", 5),
    bad_value("solve", "fredholm_product_kernel.json", "operator.grid.a", "x"),
    bad_value("solve", "fredholm_product_kernel.json", "operator.grid.n", 1, "operator.grid"),
    bad_value("gnn-cert", "gnn_cert.json", "operator.graph", {"n": "two", "edges": [[0, 1]]},
              "operator.graph.n"),
    bad_value("gnn-cert", "gnn_cert.json", "operator.graph.include_self", "false"),
    bad_value("gnn-cert", "gnn_cert.json", "operator.graph",
              {"n": 2, "edges": [], "include_self": False}, "target", id="no-neighborhoods"),
    bad_value("gnn-cert", "gnn_cert.json", "operator.W", [[0.0]], "target", id="zero-W"),
    bad_value("solve", "affine_solve.json", "picard.max_iter", 2.5),
    bad_value("solve", "affine_solve.json", "picard.max_iter", True),
    bad_value("solve", "affine_solve.json", "picard.lambda", True),
    bad_value("solve", "affine_solve.json", "picard.epsilon", "1e-11"),
    bad_value("gnn-cert", "gnn_cert.json", "operator.graph", {"n": 2, "edges": [[0.5, 1]]},
              "operator.graph.edges", id="fractional-node-id"),
    bad_value("gnn-cert", "gnn_cert.json", "operator.graph", {"n": 2, "edges": [[0, True]]},
              "operator.graph.edges", id="boolean-node-id"),
])
def test_bad_value_names_field(tmp_path, capsys, command, config, path, value, field):
    cfg = json.loads((CONFIGS / config).read_text())
    set_path(cfg, path.split("."), value)
    assert_config_error_names(tmp_path, capsys, command, cfg, field)


def test_integral_floats_are_integers(tmp_path):
    cfg = json.loads((CONFIGS / "gnn_cert.json").read_text())
    cfg["operator"]["graph"] = {"n": 3.0, "edges": [[0.0, 1], [1, 2.0]]}
    cfg["operator"]["W"] = [[0.5]]
    out = tmp_path / "o"
    assert main(["gnn-cert", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "certificate.json").read_text())["coeffs"] == [2, 3, 2]


@pytest.mark.parametrize("command, config", [
    ("frechet-check", "attention_frechet.json"), ("pign", "pign_control.json"),
])
def test_negative_seed_is_config_error(tmp_path, capsys, command, config):
    out = tmp_path / "o"
    assert main([command, "--config", str(CONFIGS / config), "--out", str(out),
                 "--seed", "-1"]) == 1
    assert "'--seed'" in capsys.readouterr().err
    assert not out.exists()


# sweep_lambda.json is left out: its fields are affine_solve.json's, and a bad
# value there is a sub-run's config error, recorded in sweep.csv
SHIPPED_COMMANDS = {
    "affine_solve.json": "solve",
    "attention_frechet.json": "frechet-check",
    "fredholm_product_kernel.json": "solve",
    "gnn_cert.json": "gnn-cert",
    "pign_control.json": "pign",
    "pign_noise.json": "pign",
    "scalar_rates.json": "rates",
}


def numeric_leaves(node, keys=()):
    """Key paths to the number and boolean leaves under ``node``, list entries included."""
    if isinstance(node, (int, float)):
        return [keys]
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [leaf for key, child in items for leaf in numeric_leaves(child, keys + (key,))]


LEAF_CASES = [
    (path.name, keys)
    for path in sorted(CONFIGS.glob("*.json")) if path.name != "sweep_lambda.json"
    for keys in numeric_leaves(json.loads(path.read_text())) if keys[0] != "f"
]


@pytest.mark.parametrize("bad", ["x", float("nan")], ids=["string", "nan"])
@pytest.mark.parametrize("config, keys", LEAF_CASES,
                         ids=[f"{name[:-5]}:{'.'.join(map(str, keys))}"
                              for name, keys in LEAF_CASES])
def test_every_numeric_leaf_names_its_field(tmp_path, capsys, config, keys, bad):
    # json.dumps writes float("nan") as the NaN literal json.load accepts
    cfg = json.loads((CONFIGS / config).read_text())
    set_path(cfg, keys, bad)
    field = ".".join(key for key in keys if isinstance(key, str))
    assert_config_error_names(tmp_path, capsys, SHIPPED_COMMANDS[config], cfg, field)
