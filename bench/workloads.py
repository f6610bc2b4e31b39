"""The benchmark's three workloads: inputs, set-up, one task, and its checks.

Each workload class has the same five steps:

- ``generate(seed)`` makes the inputs with numpy alone. It runs before
  ``import picardop`` and is not part of the set-up time.
- ``setup(P, inputs, tracer)`` builds what the first task needs from the
  inputs; ``P`` is the imported ``picardop`` package.
- ``run(state, spec)`` is one task: the call a user of picardop would make.
- ``check(state, spec, out)`` returns a list of problems, empty when the task's
  output is correct. It runs outside the timed interval.
- ``digest(state, h, spec, out)`` feeds the task's output bytes into a hash.

``state.warmup`` lists the specs of the untimed warm-up, which run once;
the timed phase then cycles through ``state.pool``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")  # relative to ROOT, the working directory of every run


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def _stratified(rng, m: int, lo: float, hi: float) -> np.ndarray:
    """m values in [lo, hi), one from each of m equal strata, in seeded order.

    Stratified draws keep each seed's spread of task sizes and contraction
    rates, and so its task-time distribution, close to every other seed's.
    """
    u = (np.arange(m) + rng.random(m)) / m
    return lo + (hi - lo) * rng.permutation(u)


# --------------------------------------------------------------------------
# integral: dense Hammerstein solves on two grids


def quadrature_weights(n: int, rule: str) -> np.ndarray:
    h = 1.0 / (n - 1)
    if rule == "trapezoid":
        w = np.full(n, h)
        w[0] = w[-1] = h / 2
    else:
        w = np.full(n, 2 * h / 3)
        w[1::2] = 4 * h / 3
        w[0] = w[-1] = h / 3
    return w


class Integral:
    """Each task is one ``picard_solve`` of ``lam*T(x) + f = x`` on [0, 1]."""

    name = "integral"
    # (n, quadrature rule, tasks per kernel). The timed phase cycles through
    # the small-grid tasks. The large grid's 128 MB matrices are built in
    # set-up and its tasks run, checked, in the warm-up only: in the timed mix
    # their DRAM-bound matvecs set the tail and most of the task time, which
    # varied by over 20% from run to run on a shared 2-vCPU host.
    SMALL = (1001, "trapezoid", 120)
    LARGE = (4001, "simpson", 3)
    WARMUP_SMALL = 30
    KERNELS = (
        ("separable-linear", (0.0, 0.0, 0.0, 1.0)),
        ("bounded-nonlinear", (0.2, 0.1, 0.1, 0.3)),
        ("table", None),
    )
    EPSILON = 1e-12
    MAX_ITER = 500
    RESIDUAL_TOL = 1e-10

    def generate(self, seed: int):
        rng = _rng(seed, self.name)
        grids, specs = [], []
        for g, (n, rule, per_kernel) in enumerate((self.SMALL, self.LARGE)):
            t = np.linspace(0.0, 1.0, n)
            table = 0.5 * np.exp(-np.abs(t[:, None] - t[None, :]))
            grids.append(SimpleNamespace(n=n, rule=rule, t=t, table=table,
                                         weights=quadrature_weights(n, rule)))
            for k in range(len(self.KERNELS)):
                for lam in _stratified(rng, per_kernel, 0.5, 1.5):
                    # a smooth free term: a few low-frequency modes
                    a = rng.standard_normal(4) / (1.0 + np.arange(4))
                    f = sum(a[j] * np.cos(j * np.pi * t + j) for j in range(4))
                    specs.append(SimpleNamespace(grid=g, kernel=k, lam=float(lam), f=f))
        order = rng.permutation(len(specs))
        return SimpleNamespace(grids=grids, specs=[specs[i] for i in order])

    def setup(self, P, inputs, tracer):
        ops = {}
        for g, grid_in in enumerate(inputs.grids):
            with tracer.span("operators.build"):
                grid = P.grid_uniform(0.0, 1.0, grid_in.n, grid_in.rule)
            for k, (kname, params) in enumerate(self.KERNELS):
                with tracer.span("operators.build"):
                    kernel = P.make_kernel(kname, params=params,
                                           table=grid_in.table if params is None else None)
                    ops[g, k] = P.HammersteinOperator(grid, kernel)
        tasks = [
            (ops[s.grid, s.kernel],
             P.PicardConfig(lam=s.lam, epsilon=self.EPSILON, max_iter=self.MAX_ITER),
             P.GridFunction(ops[s.grid, s.kernel].grid, s.f))
            for s in inputs.specs
        ]
        small = [i for i, s in enumerate(inputs.specs) if s.grid == 0]
        large = [i for i, s in enumerate(inputs.specs) if s.grid == 1]
        return SimpleNamespace(inputs=inputs, tasks=tasks, pool=small,
                               warmup=large + small[:self.WARMUP_SMALL],
                               solve=tracer.wrap(P.picard_solve, "picard.solve"))

    def run(self, state, spec):
        op, cfg, f = state.tasks[spec]
        solution, trace = state.solve(op, cfg, f)
        return solution.values, trace.converged

    def apply_reference(self, inputs, s, x: np.ndarray) -> np.ndarray:
        """T(x) evaluated by the benchmark itself, independent of picardop."""
        grid = inputs.grids[s.grid]
        name, params = self.KERNELS[s.kernel]
        v = grid.weights * (np.tanh(x) if name == "bounded-nonlinear" else x)
        if params is None:
            return grid.table @ v
        c0, c1, c2, c3 = params
        t = grid.t
        return (c0 + c1 * t) * v.sum() + (c2 + c3 * t) * (t @ v)

    def check(self, state, spec, out):
        values, converged = out
        s = state.inputs.specs[spec]
        problems = [] if converged else ["did not converge"]
        r = s.lam * self.apply_reference(state.inputs, s, values) + s.f - values
        res = float(np.linalg.norm(r))
        if not res <= self.RESIDUAL_TOL * max(1.0, float(np.linalg.norm(s.f))):
            problems.append(f"residual {res:.3e} too large")
        return problems

    def digest(self, state, h, spec, out):
        h.update(np.ascontiguousarray(out[0], dtype="<f8").tobytes())


# --------------------------------------------------------------------------
# pign: the anchored message-passing experiment, scaled up


class Pign:
    """Each task is ``run_pign_experiment(cfg, [s])`` for a new run seed ``s``."""

    name = "pign"
    ALPHA = 0.5
    TARGET = 0.9
    STEPS = 10
    # step_k may exceed the certified (alpha + (1-alpha)*target)^k * step_0 by
    # this relative amount: rounding in the norms and the power-iteration
    # estimate of ||W|| inside rescale_to_contraction.
    DECAY_SLACK = 1e-9

    def generate(self, seed: int):
        rng = _rng(seed, self.name)
        s = [int(x) for x in rng.integers(0, 2**31 - 1, size=4)]
        cfg = {
            "dataset": {"n": 1000, "d": 16, "p_in": 0.03, "p_out": 0.01,
                        "separation": 4.0, "seed": s[0]},
            "noise": {"p": 0.5, "magnitude": 3.0, "seed": s[1]},
            "operator": {"dim": 16, "target_contraction": self.TARGET, "seed": s[2]},
            "picard": {"alpha": self.ALPHA, "epsilon": 1e-12, "max_iter": self.STEPS},
            "readout": {"lr": 0.5, "epochs": 300, "split_seed": s[3]},
            "mode": "anchored",
        }
        return SimpleNamespace(cfg=cfg)

    def setup(self, P, inputs, tracer):
        # run seeds never repeat within a run, so the pool is a long range
        return SimpleNamespace(cfg=inputs.cfg, warmup=range(2), pool=range(2, 10**6),
                               run=tracer.wrap(P.run_pign_experiment,
                                               "pign.run_pign_experiment"),
                               report=P.pign.report_csv_text, flatten=P.flatten_values)

    def run(self, state, spec):
        return state.run(state.cfg, [spec])

    def check(self, state, spec, out):
        if len(out) != 1:
            return [f"expected one result, got {len(out)}"]
        r = out[0]
        problems = []
        if not np.all(np.isfinite(state.flatten(r.embeddings))):
            problems.append("non-finite embeddings")
        steps = r.trace.step_norms
        # the loop stops early only on a step at or below epsilon
        if not 1 <= steps.size <= self.STEPS:
            problems.append(f"{steps.size} steps, expected 1 to {self.STEPS}")
        elif steps.size < self.STEPS and not (
                r.trace.converged and steps[-1] <= state.cfg["picard"]["epsilon"]):
            problems.append(f"stopped after {steps.size} steps without converging")
        q = self.ALPHA + (1 - self.ALPHA) * self.TARGET
        bound = q ** np.arange(steps.size) * steps[:1] * (1 + self.DECAY_SLACK)
        if steps.size and not np.all(steps <= bound):
            k = int(np.argmax(steps > bound))
            problems.append(f"step {k} = {steps[k]:.6g} exceeds certified {bound[k]:.6g}")
        if not (0.0 <= r.readout_accuracy <= 1.0 and 0.0 <= r.baseline_accuracy <= 1.0):
            problems.append("accuracy outside [0, 1]")
        return problems

    def digest(self, state, h, spec, out):
        h.update(state.report(out).encode())


# --------------------------------------------------------------------------
# cli-small: in-process ``picardop.cli.main`` calls on small configs


def _contraction(rng, d: int, scale: float) -> np.ndarray:
    A = rng.standard_normal((d, d))
    return A * (scale / np.linalg.norm(A, 2))


def _random_graph(rng, n: int):
    p = min(1.0, 3.0 / n)
    return [[u, v] for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _membership_max(n: int, edges) -> int:
    deg = np.zeros(n, dtype=int)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return int(deg.max()) + 1


class CliSmall:
    """Each task is one ``picardop.cli.main([...])`` call on a small config."""

    name = "cli-small"
    KINDS = ("affine-solve", "affine-rates", "gnn-solve", "gnn-cert", "frechet", "pign")
    COMMANDS = {"affine-solve": "solve", "affine-rates": "rates", "gnn-solve": "solve",
                "gnn-cert": "gnn-cert", "frechet": "frechet-check", "pign": "pign"}
    # 48 configs per kind keep each seed's pool alike: with 16, one seed ran
    # 10% slower than another, run after run.
    PER_KIND = 48
    WARMUP = 96
    PIGN_STEPS = 10
    SOLVE_RESIDUAL_TOL = 1e-9
    PRODUCT_TOL = 1e-9
    FRECHET_TOL = 1e-6

    def _config(self, rng, kind: str, u: float) -> dict:
        """A config whose size and contraction rate grow with ``u`` in [0, 1)."""
        if kind.startswith("affine"):
            d = 2 + int(u * 31)
            cfg = {
                "operator": {"type": "affine", "A": _contraction(rng, d, 0.3 + 0.4 * u).tolist(),
                             "b": rng.standard_normal(d).tolist()},
                "f": rng.standard_normal(d).tolist(),
                "picard": {"lambda": 1.0, "epsilon": 1e-11, "max_iter": 5000},
            }
            if kind == "affine-rates":
                cfg["rates"] = {"reference_epsilon": 1e-13}
            return cfg
        if kind.startswith("gnn"):
            n, d = 2 + int(u * 29), 1 + int(u * 6)
            edges = _random_graph(rng, n)
            product = 0.3 + (0.4 if kind == "gnn-solve" else 0.6) * u
            W = _contraction(rng, d, product / _membership_max(n, edges))
            cfg = {"operator": {"type": "gnn", "W": W.tolist(),
                                "graph": {"n": n, "edges": edges, "include_self": True}}}
            if kind == "gnn-solve":
                cfg["f"] = {"blocks": rng.standard_normal((n, d)).tolist()}
                cfg["picard"] = {"lambda": 1.0, "epsilon": 1e-10, "max_iter": 5000,
                                 "norm": "direct-sum"}
            else:
                cfg["target"] = float(rng.uniform(0.5, 0.95))
            return cfg
        if kind == "pign":
            n, d = 2 * (5 + int(u * 15)), 2 + int(u * 4)
            seeds = [int(x) for x in rng.integers(0, 2**31 - 1, size=4)]
            return {
                "dataset": {"n": n, "d": d, "p_in": 0.2, "p_out": 0.05, "separation": 4.0,
                            "seed": seeds[0]},
                "noise": {"p": 0.5, "magnitude": 3.0, "seed": seeds[1]},
                "operator": {"dim": d, "target_contraction": 0.9, "seed": seeds[2]},
                "picard": {"alpha": 0.5, "epsilon": 1e-12, "max_iter": self.PIGN_STEPS},
                "readout": {"lr": 0.5, "epochs": 20, "split_seed": seeds[3]},
                "mode": "anchored",
            }
        d = 2 + int(u * 5)
        return {
            "operator": {"type": "attention",
                         **{w: (0.5 * rng.standard_normal((d, d))).tolist()
                            for w in ("Wq", "Wk", "Wv")}},
            "check": {"n_samples": 20, "t": 1e-5, "order_t": 1e-3},
        }

    def generate(self, seed: int):
        rng = _rng(seed, self.name)
        base = WORK / self.name
        shutil.rmtree(base, ignore_errors=True)
        (base / "configs").mkdir(parents=True)
        # one size quantile per stratum and kind, so the largest configs, which
        # set the tail, are alike from seed to seed
        sizes = {kind: _stratified(rng, self.PER_KIND, 0.0, 1.0) for kind in self.KINDS}
        pool = []
        for i in range(self.PER_KIND * len(self.KINDS)):
            kind = self.KINDS[i % len(self.KINDS)]
            path = base / "configs" / f"{i:03d}-{kind}.json"
            u = float(sizes[kind][i // len(self.KINDS)])
            path.write_text(json.dumps(self._config(rng, kind, u)))
            out = base / "out" / kind
            seed_arg = str(int(rng.integers(0, 2**31 - 1)))
            pool.append(SimpleNamespace(
                kind=kind, out=out,
                argv=[self.COMMANDS[kind], "--config", str(path), "--out", str(out),
                      "--seed", seed_arg, "--quiet"]))
        return SimpleNamespace(pool=pool)

    def setup(self, P, inputs, tracer):
        import picardop.cli  # noqa: F401  (the CLI is not imported by the package)

        return SimpleNamespace(pool=inputs.pool, warmup=inputs.pool[:self.WARMUP],
                               main=tracer.wrap(P.cli.main, "cli.main"))

    def run(self, state, spec):
        return state.main(spec.argv)

    def check(self, state, spec, out):
        if out != 0:
            return [f"exit code {out}"]
        try:
            return self._check_artifacts(spec)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable artifact: {exc!r}"]

    def _check_artifacts(self, spec):
        out = spec.out
        if spec.kind in ("affine-solve", "gnn-solve"):
            summary = json.loads((out / "summary.json").read_text())
            res = summary["final_residual"]
            if summary["converged"] is not True:
                return ["solve did not converge"]
            if not (isinstance(res, float) and res <= self.SOLVE_RESIDUAL_TOL):
                return [f"final_residual {res!r} above {self.SOLVE_RESIDUAL_TOL:g}"]
            return []
        if spec.kind == "affine-rates":
            lines = (out / "rates.csv").read_text().splitlines()
            header = lines[0].split(",")
            col_b, col_e = header.index("aposteriori_bound"), header.index("actual_error")
            checked, problems = 0, []
            for line in lines[1:]:
                cells = line.split(",")
                if cells[col_b] and cells[col_e]:
                    checked += 1
                    if not float(cells[col_b]) >= float(cells[col_e]):
                        problems.append(f"iterate {cells[0]}: a-posteriori bound "
                                        f"{cells[col_b]} < actual error {cells[col_e]}")
            return problems if checked else ["rates.csv has no bound rows"]
        if spec.kind == "gnn-cert":
            cert = json.loads((out / "certificate.json").read_text())
            if cert["certified"] is not True:
                return ["certificate not certified"]
            gap = abs(cert["rescaled_product"] - cert["target"])
            if not gap <= self.PRODUCT_TOL:
                return [f"rescaled_product off target by {gap:.3e}"]
            return []
        if spec.kind == "pign":
            lines = (out / "pign_report.csv").read_text().splitlines()
            if len(lines) != 2:
                return [f"pign_report.csv has {len(lines) - 1} rows, expected 1"]
            row = dict(zip(lines[0].split(","), lines[1].split(",")))
            accuracies = float(row["pign_acc"]), float(row["baseline_acc"])
            # Fewer steps than the cap is a converged run: on a small graph the
            # relu can zero every message, so the anchored loop's first step is 0.
            if not 1 <= int(row["iters_used"]) <= self.PIGN_STEPS:
                return [f"pign used {row['iters_used']} steps, expected 1 to "
                        f"{self.PIGN_STEPS}"]
            if not all(0.0 <= a <= 1.0 for a in accuracies):
                return [f"accuracies {accuracies} outside [0, 1]"]
            return []
        report = json.loads((out / "frechet_report.json").read_text())
        err = report["max_rel_error"]
        if not err <= self.FRECHET_TOL:
            return [f"max_rel_error {err:.3e} above {self.FRECHET_TOL:g}"]
        return []

    def digest(self, state, h, spec, out):
        for path in sorted(spec.out.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())


WORKLOADS = {w.name: w for w in (Integral(), Pign(), CliSmall())}
