"""Command-line runner tying configs, operators, solvers, and reports together.

Exit codes: 0 converged / success, 1 config error, 2 stopped at max_iter
without converging, 3 divergence. A command writes ``manifest.json`` exactly
when it returns an exit code, so a config error leaves no manifest. ``sweep``
exits 1 if any sub-run had a config error, else with its highest sub-run code,
and prints a line to stderr for each sub-run that exits 1 or 3.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calculus import (
    frechet_check,
    gnn_lipschitz_report,
    rescale_to_contraction,
    spectral_norm,
)
from .errors import ConfigError, DivergenceError, config_value, integer
from .ioutil import write_json_atomic, write_text_atomic
from .operators import (
    AffineOperator,
    AttentionOperator,
    GnnAggregateOperator,
    _matrix_entry,
    operator_from_config,
)
from .picard import PicardConfig, banach_bounds, picard_solve, residual, trace_csv_text
from .pign import run_pign_experiment

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MAX_ITER = 2
EXIT_DIVERGED = 3
# rounding allowance (~4500 eps, relative) when rates compares errors with bounds
RATES_ROUNDING = 1e-12


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config", "must be a JSON object")
    return cfg


def _write_manifest(out_dir: Path, command: str, cfg: dict, seed: int) -> None:
    """One line of sorted-key JSON: with no indent, ``json`` runs its C encoder
    on a config that can hold large matrices."""
    manifest = {"command": command, "config": cfg, "seed": seed, "version": __version__}
    write_text_atomic(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True) + "\n")


def _resolve_free_term(entry, op, base_dir: str):
    """Build the free term f in the operator's space from its config entry.

    The entry is an inline list, a text-file path, ``{"blocks": matrix}`` or
    ``{"constant": c}``; null means zero. It must be finite and lie in the
    operator's space (vectors may be given as a column or a row).
    """
    shape = op.space.shape
    if entry is None or (isinstance(entry, dict) and "constant" in entry):
        if None in shape:
            raise ConfigError("f", "needs an explicit matrix, whose row count sets m")
        values = np.full(shape, 0.0 if entry is None else
                         config_value({"f": entry["constant"]}, "f", "a number"))
    else:
        if isinstance(entry, dict):
            if "blocks" not in entry:
                raise ConfigError("f", f"expected {{'constant': c}} or {{'blocks': M}}, "
                                       f"got {entry!r}")
            entry = entry["blocks"]
        values = _matrix_entry(entry, base_dir, "f")
    try:
        return op.space.wrap(values.ravel() if len(shape) == 1 else values)
    except ValueError as exc:
        raise ConfigError("f", str(exc)) from exc


def _operator(cfg: dict, base_dir: str, expected_type=None):
    """The config's operator, required to be an ``expected_type`` when one is given."""
    op = operator_from_config(cfg.get("operator"), base_dir)
    if expected_type is not None and not isinstance(op, expected_type):
        raise ConfigError("operator.type", f"expected {expected_type.__name__}, "
                                           f"got {type(op).__name__}")
    return op


def _solve_setup(cfg: dict, base_dir: str):
    op = _operator(cfg, base_dir)
    pcfg = PicardConfig.from_json(cfg.get("picard"))
    f = _resolve_free_term(cfg.get("f"), op, base_dir)
    return op, pcfg, f


def cmd_solve(cfg: dict, out_dir: Path, seed: int, base_dir: str):
    """Run a fixed-point solve and write trace + summary."""
    op, pcfg, f = _solve_setup(cfg, base_dir)
    try:
        solution, trace = picard_solve(op, pcfg, f)
        error = None
    except DivergenceError as exc:
        trace, error = exc.trace, str(exc)
    summary = {
        "converged": trace.converged,
        "diverged": error is not None,
        "iterations_used": trace.iterations_used,
        "final_residual": None if error else residual(op, pcfg.lam, f, solution,
                                                      pcfg.norm_kind),
    }
    if error:
        summary["error"] = error
    write_text_atomic(out_dir / "trace.csv", trace_csv_text(trace))
    write_json_atomic(out_dir / "summary.json", summary)
    if error:
        return EXIT_DIVERGED, f"diverged after {trace.iterations_used} iterations: {error}"
    status = "converged" if trace.converged else "max_iter reached"
    return (EXIT_OK if trace.converged else EXIT_MAX_ITER,
            f"{status} after {trace.iterations_used} iterations, "
            f"residual {summary['final_residual']:.3e}")


def cmd_rates(cfg: dict, out_dir: Path, seed: int, base_dir: str):
    """Per-iteration error bounds against a high-accuracy reference."""
    op, pcfg, f = _solve_setup(cfg, base_dir)
    k_T = config_value(cfg, "rates.k", "a non-negative number", lambda k: k >= 0, default=None)
    if k_T is None:
        if not isinstance(op, AffineOperator):
            raise ConfigError("rates.k", "a Lipschitz constant is required for "
                                         "non-affine operators")
        # the Lipschitz constant of x -> A x + b in the solver's norm
        if pcfg.norm_kind == "sup":
            k_T = float(np.abs(op.A).sum(axis=1).max())
        else:
            k_T = spectral_norm(op.A)
    k_map = pcfg.smoothing + (1.0 - pcfg.smoothing) * abs(pcfg.lam) * k_T
    if k_map >= 1:
        raise ConfigError("rates.k", f"iteration map constant {k_map:.6g} is >= 1; "
                                     "rate bounds need a contraction")
    ref_eps = config_value(cfg, "rates.reference_epsilon", "a positive number",
                           lambda eps: eps > 0, default=1e-13)
    if ref_eps > pcfg.epsilon:
        raise ConfigError("rates.reference_epsilon", f"{ref_eps:g} exceeds picard.epsilon "
                          f"{pcfg.epsilon:g}; a looser reference cannot measure the run's errors")
    # One solve to the reference tolerance, whose final iterate is the reference;
    # its first n steps are the run under pcfg, the only iterates it records.
    ref_cfg = PicardConfig(lam=pcfg.lam, epsilon=ref_eps,
                           max_iter=max(10 * pcfg.max_iter, 10000),
                           smoothing=pcfg.smoothing, norm_kind=pcfg.norm_kind)
    reference, ref_trace = picard_solve(op, ref_cfg, f, record_iterates=True,
                                        record_run=pcfg)
    n = len(ref_trace.iterates) - 1
    trace = dataclasses.replace(ref_trace, steps=ref_trace.steps[:n],
                                converged=ref_trace.steps[n - 1].step_norm <= pcfg.epsilon)
    bounds = banach_bounds(trace, k_map, reference=reference)
    # The reference lies within its a posteriori bound of the fixed point, and
    # contracting float iterates settle within ~eps * (|x| + |f|) / (1 - k) of it.
    scale = trace.norm(reference) + trace.norm(f)
    slack = (k_map * ref_trace.final_step + RATES_ROUNDING * scale) / (1.0 - k_map)
    for rec in bounds:
        for kind, bound in (("a priori", rec.apriori_bound),
                            ("a posteriori", rec.aposteriori_bound)):
            if (bound is not None
                    and rec.actual_error > bound * (1.0 + RATES_ROUNDING) + slack):
                raise ConfigError("rates.k", (
                    f"iteration map constant {k_map:.6g} understates the contraction: "
                    f"at iterate {rec.n} the actual error {rec.actual_error:.6g} "
                    f"exceeds the {kind} bound {bound:.6g}"))
    write_text_atomic(out_dir / "rates.csv", trace_csv_text(trace, bounds))
    write_json_atomic(out_dir / "summary.json", {
        "converged": trace.converged,
        "iterations_used": n,
        "contraction_constant": k_map,
        "final_residual": residual(op, pcfg.lam, f, trace.iterates[n], pcfg.norm_kind),
    })
    return (EXIT_OK if trace.converged else EXIT_MAX_ITER,
            f"rate bounds over {n} iterations at k={k_map:.4g}")


def cmd_frechet_check(cfg: dict, out_dir: Path, seed: int, base_dir: str):
    """Compare the analytic attention derivative with finite differences."""
    op = _operator(cfg, base_dir, AttentionOperator)
    n_samples = config_value(cfg, "check.n_samples", "an integer >= 1", lambda n: n >= 1,
                             integer, 100)
    rows = config_value(cfg, "check.rows", "an integer >= 1", lambda n: n >= 1, integer, op.d)
    t = config_value(cfg, "check.t", "a positive number", lambda v: v > 0, default=1e-5)
    t_order = config_value(cfg, "check.order_t", "a positive number", lambda v: v > 0,
                           default=1e-3)
    # each sample's Y, H and their two scales are drawn in turn; each stack is
    # then scaled to its drawn norms, and each check runs once over the stacks
    rng = np.random.default_rng(seed)
    draws = [(rng.standard_normal((rows, op.d)), rng.standard_normal((rows, op.d)),
              rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)) for _ in range(n_samples)]
    Y, H, scale_Y, scale_H = (np.array(column) for column in zip(*draws))
    for X, scale in ((Y, scale_Y), (H, scale_H)):
        points = X.reshape(n_samples, -1)
        X *= (scale / np.sqrt(np.vecdot(points, points)))[:, None, None]
    max_rel = float(frechet_check(op, Y, H, t=t).rel_error.max())
    max_t, max_half = (float(frechet_check(op, Y, H, t=step).abs_error.max())
                       for step in (t_order, t_order / 2))
    ratio = max_t / max(max_half, 1e-300)
    report = {
        "n_samples": n_samples,
        "t": t,
        "max_rel_error": max_rel,
        "order_check": {
            "t": t_order,
            "max_error_t": max_t,
            "max_error_half_t": max_half,
            "ratio": ratio,
            "order_estimate": float(math.log2(ratio)) if ratio > 0 else None,
        },
    }
    write_json_atomic(out_dir / "frechet_report.json", report)
    return EXIT_OK, f"max rel error {max_rel:.3e}; halving t scales error by 1/{ratio:.2f}"


def cmd_gnn_cert(cfg: dict, out_dir: Path, seed: int, base_dir: str):
    """Contraction certificate for a graph aggregation operator."""
    op = _operator(cfg, base_dir, GnnAggregateOperator)
    report = gnn_lipschitz_report(op)
    certificate = {
        "L": report.L,
        "alpha_max": report.alpha_max,
        "coeffs": [int(c) for c in report.coeffs],
        "product": report.product,
        "certified": report.certified,
        "rescaled_W_path": None,
    }
    target = config_value(cfg, "target", "a number in (0, 1)", lambda v: 0 < v < 1,
                          default=None)
    if target is not None:
        try:
            W2 = rescale_to_contraction(op.W, report.alpha_max, target)
        except ValueError as exc:  # a zero W or a graph with no neighborhoods
            raise ConfigError("target", f"cannot rescale to {target:g}: {exc}") from exc
        w_path = out_dir / "rescaled_W.txt"
        write_text_atomic(w_path, "\n".join(
            " ".join(repr(float(x)) for x in row) for row in W2) + "\n")
        certificate["rescaled_W_path"] = str(w_path)
        certificate["rescaled_product"] = spectral_norm(W2) * report.alpha_max
        certificate["target"] = target
    write_json_atomic(out_dir / "certificate.json", certificate)
    return EXIT_OK, (f"L={report.L:.4g} alpha_max={report.alpha_max} "
                     f"product={report.product:.4g} certified={report.certified}")


def cmd_pign(cfg: dict, out_dir: Path, seed: int, base_dir: str):
    """Iterated message-passing experiment on synthetic graphs."""
    seeds = config_value(cfg, "seeds", "a non-empty list of integers >= 0",
                         lambda v: v and all(type(s) is int and s >= 0 for s in v),
                         cast=None, default=[seed])
    results = run_pign_experiment(cfg, seeds, csv_path=out_dir / "pign_report.csv")
    summary = {
        "seeds": seeds,
        "mode": results[0].mode,
        "noise_p": results[0].noise_p,
        "mean_pign_accuracy": float(np.mean([r.readout_accuracy for r in results])),
        "mean_baseline_accuracy": float(np.mean([r.baseline_accuracy for r in results])),
    }
    write_json_atomic(out_dir / "summary.json", summary)
    return EXIT_OK, (f"pign {summary['mean_pign_accuracy']:.3f} vs baseline "
                     f"{summary['mean_baseline_accuracy']:.3f} over {len(seeds)} seeds")


def _set_dotted(cfg: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            raise ConfigError("sweep.field", f"path {dotted!r} not found in config")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError("sweep.field", f"path {dotted!r} not found in config")
    node[parts[-1]] = value


def cmd_sweep(cfg: dict, out_dir: Path, seed: int, base_dir: str):
    """Repeat solve, rates or pign over a list of values for one config field."""
    command = config_value(cfg, "sweep.command", "one of ('solve', 'rates', 'pign')",
                           lambda v: v in ("solve", "rates", "pign"), cast=None)
    field = config_value(cfg, "sweep.field", "a dotted field name",
                         lambda v: isinstance(v, str), cast=None)
    values = config_value(cfg, "sweep.values", "a list", lambda v: isinstance(v, list),
                          cast=None)
    base = {k: v for k, v in cfg.items() if k != "sweep"}
    lines, codes = ["index,value,exit_code"], []
    for idx, value in enumerate(values):
        sub_cfg = copy.deepcopy(base)
        _set_dotted(sub_cfg, field, value)
        run_dir = out_dir / "runs" / f"{idx:03d}"
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            code, status = _run(command, sub_cfg, run_dir, seed, base_dir)
        except ConfigError as exc:
            write_json_atomic(run_dir / "summary.json", {"error": str(exc)})
            code, status = EXIT_CONFIG, str(exc)
        except DivergenceError as exc:
            write_json_atomic(run_dir / "summary.json", {"error": str(exc)})
            code, status = EXIT_DIVERGED, f"iteration diverged: {exc}"
        if code in (EXIT_CONFIG, EXIT_DIVERGED):
            print(f"run {idx:03d}: {status}", file=sys.stderr)
        codes.append(code)
        lines.append(f"{idx},{json.dumps(value)},{code}")
    write_text_atomic(out_dir / "sweep.csv", "\n".join(lines) + "\n")
    code = EXIT_CONFIG if EXIT_CONFIG in codes else max(codes, default=EXIT_OK)
    return code, f"swept {field} over {len(codes)} values"


COMMANDS = {
    "solve": cmd_solve,
    "rates": cmd_rates,
    "frechet-check": cmd_frechet_check,
    "gnn-cert": cmd_gnn_cert,
    "pign": cmd_pign,
    "sweep": cmd_sweep,
}


def _run(command: str, cfg: dict, out_dir: Path, seed: int, base_dir: str):
    """Run one command, then write its manifest; returns (exit code, status line)."""
    code, status = COMMANDS[command](cfg, out_dir, seed, base_dir)
    _write_manifest(out_dir, command, cfg, seed)
    return code, status


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every ``main``."""
    epilog = "commands:\n" + "\n".join(
        f"  {name:14s} {fn.__doc__.splitlines()[0]}" for name, fn in COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="picard-op", epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Fixed-point operator equation runner: solve lambda*T(x) + f = x\n"
                    "and report convergence diagnostics.")
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument("--quiet", action="store_true", help="suppress status output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError("--seed", f"must be an integer >= 0, got {args.seed}")
        cfg = _load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        base_dir = os.path.dirname(os.path.abspath(args.config))
        code, status = _run(args.command, cfg, out_dir, args.seed, base_dir)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: iteration diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    if not args.quiet:
        print(status)
    return code


if __name__ == "__main__":
    sys.exit(main())
