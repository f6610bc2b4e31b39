"""Self-tests of the benchmark harness: statistics, tracing and the checks.

Run with ``python3 -m pytest bench``. The correctness checks are exercised on
real picardop outputs for small instances, then on deliberately perturbed
copies, so a check that cannot fail would show here.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np
import pytest

import run
import worker
from tracing import NullTracer, Tracer
from workloads import ROOT, CliSmall, Integral, Pign

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
import picardop  # noqa: E402


# -- statistics -------------------------------------------------------------


def test_tail_is_the_highest_listed_percentile_with_ten_beyond():
    values = list(np.random.default_rng(0).permutation(np.arange(1.0, 1001.0)))
    assert run.tail(values) == (990.0, 99.0)  # p99.9 would leave only 1 beyond
    assert run.tail(values[:100]) == (sorted(values[:100])[89], 90.0)
    assert run.tail(list(range(20))) == (9, 50.0)
    with pytest.raises(run.BenchmarkError):
        run.tail(list(range(19)))


def test_tail_counts_tied_samples_by_rank():
    assert run.tail([5.0] * 90 + [7.0] * 10) == (5.0, 90.0)


# -- tracing ----------------------------------------------------------------


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children():
    # task [0, 10] > a [1, 6] > b [2, 4]; task > c [7, 9]
    tracer = Tracer(clock=fake_clock(0, 1, 2, 4, 6, 7, 9, 10))
    with tracer.root("task"):
        with tracer.span("x.a"):
            with tracer.span("x.b"):
                pass
        with tracer.span("y.c"):
            pass
    s = tracer.stats
    assert s["task"] == [1, 10, 3]
    assert s["x.a"] == [1, 5, 3]
    assert s["x.b"] == [1, 2, 2]
    assert s["y.c"] == [1, 2, 2]
    assert sum(v[2] for v in s.values()) == s["task"][1]


def test_nested_spans_of_one_name_count_inclusive_time_once():
    # task [0, 10] > f [1, 9] > f [3, 5]
    tracer = Tracer(clock=fake_clock(0, 1, 3, 5, 9, 10))
    f = tracer.wrap(lambda inner: inner() if inner else None, "m.f")
    with tracer.root("task"):
        f(lambda: f(None))
    assert tracer.stats["m.f"] == [2, 8, 8]
    assert tracer.stats["task"] == [1, 10, 2]


def test_wrapper_records_only_under_a_root():
    tracer = Tracer()
    f = tracer.wrap(lambda x: x + 1, "m.f")
    assert f(1) == 2
    assert tracer.stats == {}
    with tracer.root("task"):
        assert f(1) == 2
    assert tracer.stats["m.f"][0] == 1
    with pytest.raises(RuntimeError):
        with tracer.root("task"):
            with tracer.root("task"):
                pass


def test_install_rebinds_calling_modules_and_uninstall_restores():
    original = picardop.picard.apply
    tracer = Tracer()
    tracer.install()
    try:
        assert picardop.picard.apply is not original
        op = picardop.AffineOperator(0.5 * np.eye(2))
        cfg = picardop.PicardConfig(lam=1.0, epsilon=1e-12, max_iter=100)
        solve = tracer.wrap(picardop.picard_solve, "picard.solve")
        with tracer.root("task"):
            _, trace = solve(op, cfg, np.ones(2))
    finally:
        tracer.uninstall()
    assert picardop.picard.apply is original
    assert tracer.stats["operators.apply"][0] == trace.iterations_used
    assert tracer.counters == {"picard.iterations": trace.iterations_used,
                               "picard.converged": 1}


# -- metric assembly ---------------------------------------------------------


def fake_traced_worker():
    # two traced tasks of 1 s each; spans charged to three layers
    stats = {"task": [2, 2.0, 0.2], "picard.solve": [2, 1.8, 0.3],
             "operators.apply": [10, 1.0, 1.0], "spaces.lincomb": [20, 0.4, 0.4],
             "spaces.norm": [10, 0.1, 0.1]}
    return {"traced": {"times": [1.0, 1.0], "failed": 0},
            "untraced": {"times": [0.9, 0.9], "failed": 0},
            "stats": stats, "counters": {"picard.iterations": 10, "picard.converged": 2},
            "setup_stats": {"setup": [1, 0.5, 0.1], "operators.build": [2, 0.4, 0.4]}}


def test_layer_self_times_and_remainder_account_for_task_time():
    m = run.layer_metrics(fake_traced_worker(), {"stats": {"operators.apply": [4, 2.0, 2.0]}})
    value = {k: v["value"] for k, v in m.items()}
    layers = sum(value[f"{layer}.self_s"] for layer in run.LAYERS)
    assert layers + value["trace.remainder_s"] == pytest.approx(value["trace.task_s"])
    assert value["operators.apply.calls"] == 5
    assert value["operators.apply.us_per_call"] == pytest.approx(1e5)
    assert value["operators.apply.us_per_call.blas1"] == pytest.approx(5e5)
    assert value["picard.iter_us"] == pytest.approx(1.8e5)
    assert value["picard.converged_frac"] == 1.0
    assert value["operators.build.setup_s"] == 0.4
    assert value["trace.overhead_frac"] == pytest.approx(0.1)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measure = {"untraced": {"times": [0.01] * 30, "failed": 0, "problems": []},
               "warmup": {"times": [0.01], "failed": 0, "problems": []},
               "peak_rss_mb": 50.0}
    e2e = run.end_to_end_metrics([0.1, 0.2, 0.3], measure)
    layer = run.layer_metrics(fake_traced_worker(), {"stats": {}})
    for listed, produced in ((spec["end_to_end"], e2e), (spec["per_layer"], layer)):
        assert {(x["name"], x["unit"]) for x in listed} == \
            {(name, v["unit"]) for name, v in produced.items()}
    assert all(v["value"] != 0 for v in e2e.values())


# -- failures are counted ----------------------------------------------------


class FlakyWorkload:
    """Task 1 fails its check and task 2 raises; the others pass."""

    def run(self, state, spec):
        if spec == 2:
            raise ValueError("boom")
        return spec

    def check(self, state, spec, out):
        return ["bad output"] if out == 1 else []

    def digest(self, state, h, spec, out):
        h.update(bytes([out]))


def test_run_tasks_counts_failed_checks_and_exceptions():
    out = worker.run_tasks(FlakyWorkload(), None, range(5), NullTracer(), False)
    assert len(out["times"]) == 5
    assert out["failed"] == 2
    assert len(out["problems"]) == 2


# -- each correctness check fails on a perturbed output ---------------------


class SmallIntegral(Integral):
    SMALL = (101, "trapezoid", 1)
    LARGE = (201, "simpson", 1)


def test_integral_check_rejects_perturbed_solutions():
    wl = SmallIntegral()
    state = wl.setup(picardop, wl.generate(0), NullTracer())
    assert sorted(set(state.warmup) | set(state.pool)) == list(range(6))
    for spec in range(len(state.tasks)):
        values, converged = wl.run(state, spec)
        assert wl.check(state, spec, (values, converged)) == []
        assert wl.check(state, spec, (values, False)) != []
        bumped = values.copy()
        bumped[len(bumped) // 2] += 1e-6
        assert wl.check(state, spec, (bumped, converged)) != []


def test_pign_check_rejects_nonfinite_or_slow_decay():
    wl = Pign()
    inputs = wl.generate(0)
    inputs.cfg["dataset"].update(n=40, d=4)
    inputs.cfg["operator"]["dim"] = 4
    inputs.cfg["readout"]["epochs"] = 20
    state = wl.setup(picardop, inputs, NullTracer())
    out = wl.run(state, 0)
    assert wl.check(state, 0, out) == []
    r = out[0]

    flat = picardop.flatten_values(r.embeddings).copy()
    flat[3] = np.nan
    assert wl.check(state, 0, [dataclasses.replace(r, embeddings=flat)]) != []

    steps = list(r.trace.steps)
    steps[4] = dataclasses.replace(steps[4], step_norm=steps[0].step_norm)
    slow = dataclasses.replace(r.trace, steps=steps)
    assert wl.check(state, 0, [dataclasses.replace(r, trace=slow)]) != []
    cut = dataclasses.replace(r.trace, steps=steps[:3], converged=False)
    assert wl.check(state, 0, [dataclasses.replace(r, trace=cut)]) != []
    assert wl.check(state, 0, [r, r]) != []


CLI_PERTURBATIONS = {
    "affine-solve": [("summary.json", "converged", False),
                     ("summary.json", "final_residual", 1e-6)],
    "gnn-solve": [("summary.json", "final_residual", None)],
    "gnn-cert": [("certificate.json", "certified", False),
                 ("certificate.json", "rescaled_product", 0.1)],
    "frechet": [("frechet_report.json", "max_rel_error", 1e-3)],
}


def test_cli_checks_reject_perturbed_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = CliSmall()
    state = wl.setup(picardop, wl.generate(0), NullTracer())
    specs = {spec.kind: spec for spec in reversed(state.pool)}
    assert set(specs) == set(CliSmall.KINDS)
    for kind, spec in specs.items():
        assert wl.check(state, spec, wl.run(state, spec)) == [], kind
        assert wl.check(state, spec, 1) != [], kind
        for name, key, value in CLI_PERTURBATIONS.get(kind, []):
            path = spec.out / name
            original = path.read_text()
            doc = json.loads(original)
            doc[key] = value
            path.write_text(json.dumps(doc))
            assert wl.check(state, spec, 0) != [], (kind, key)
            path.write_text(original)

    report = specs["pign"].out / "pign_report.csv"
    original = report.read_text()
    header, row = original.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    for key, value in (("iters_used", "0"), ("iters_used", "11"), ("pign_acc", "1.5")):
        bad = dict(cells, **{key: value})
        report.write_text(header + "\n" + ",".join(bad.values()) + "\n")
        assert wl.check(state, specs["pign"], 0) != [], key
    # a run that converged before the step cap is correct
    report.write_text(header + "\n" + ",".join(dict(cells, iters_used="1").values()) + "\n")
    assert wl.check(state, specs["pign"], 0) == []
    report.write_text(original + row + "\n")
    assert wl.check(state, specs["pign"], 0) != []

    rates = specs["affine-rates"].out / "rates.csv"
    lines = rates.read_text().splitlines()
    cells = lines[2].split(",")
    cells[4] = repr(float(cells[5]) / 2)  # a-posteriori bound below the actual error
    rates.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
    assert wl.check(state, specs["affine-rates"], 0) != []
    rates.unlink()
    assert wl.check(state, specs["affine-rates"], 0) != []
