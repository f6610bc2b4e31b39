"""Command-line runner tying configs, operators, solvers, and reports together.

Exit codes: 0 converged / success, 1 config error, 2 stopped at max_iter
without converging, 3 divergence. A command writes ``manifest.json`` exactly
when it returns an exit code, so a config error leaves no manifest. ``sweep``
exits 1 if any sub-run had a config error, else with its highest sub-run code.
"""

from __future__ import annotations

import argparse
import copy
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
from .errors import ConfigError, DivergenceError
from .ioutil import write_json_atomic, write_text_atomic
from .operators import (
    AffineOperator,
    AttentionOperator,
    GnnAggregateOperator,
    HammersteinOperator,
    operator_from_config,
)
from .picard import PicardConfig, banach_bounds, picard_solve, residual, trace_csv_text
from .pign import run_pign_experiment
from .spaces import DirectSumVector, GridFunction, load_matrix_text, norm

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MAX_ITER = 2
EXIT_DIVERGED = 3
# rounding allowance (~4500 eps, relative) when rates compares errors with bounds
RATES_ROUNDING = 1e-12


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc


def _write_manifest(out_dir: Path, command: str, cfg: dict, seed: int) -> None:
    write_json_atomic(out_dir / "manifest.json", {
        "command": command,
        "config": cfg,
        "seed": seed,
        "version": __version__,
    })


def _read_free_term(entry, base_dir: str, shape: tuple) -> np.ndarray:
    """The config entry for f as an array; null or a constant fills ``shape``."""
    if entry is None or (isinstance(entry, dict) and "constant" in entry):
        if None in shape:
            raise ConfigError("f", "needs an explicit matrix, whose row count sets m")
        return np.full(shape, 0.0 if entry is None else float(entry["constant"]))
    if isinstance(entry, str):
        return load_matrix_text(os.path.join(base_dir, entry))
    return np.asarray(entry["blocks"] if isinstance(entry, dict) else entry, dtype=float)


def _resolve_free_term(entry, op, base_dir: str):
    """Build the free term f in the operator's domain from its config entry.

    The entry is an inline list, a text-file path, ``{"blocks": matrix}`` or
    ``{"constant": c}``; null means zero. It must be finite and have the
    operator's shape (vectors may be given as a column or a row).
    """
    if isinstance(op, AffineOperator):
        shape, wrap = (op.dim,), np.asarray
    elif isinstance(op, HammersteinOperator):
        shape, wrap = (op.grid.n,), lambda values: GridFunction(op.grid, values)
    elif isinstance(op, GnnAggregateOperator):
        shape, wrap = (op.graph.n, op.d), DirectSumVector.from_matrix
    elif isinstance(op, AttentionOperator):
        shape, wrap = (None, op.d), np.asarray
    else:
        raise ConfigError("operator.type", "unsupported operator for this command")
    want = " x ".join("m" if n is None else str(n) for n in shape)
    try:
        values = _read_free_term(entry, base_dir, shape)
    except ConfigError:
        raise
    except OSError as exc:
        raise ConfigError("f", f"cannot read file: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("f", f"not a numeric {want} array: {exc!r}") from exc
    if len(shape) == 1:
        values = values.ravel()
    if values.ndim != len(shape) or any(n not in (None, got)
                                        for n, got in zip(shape, values.shape)):
        raise ConfigError("f", f"expected shape {want}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ConfigError("f", "must be finite (no NaN/Inf)")
    return wrap(values)


def _number(field: str, value, need: str, valid, cast=float):
    """``value`` converted by ``cast``; a ConfigError naming ``field`` unless finite and valid."""
    try:
        number = cast(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or not math.isfinite(number) or not valid(number):
        raise ConfigError(field, f"must be {need}, got {value!r}")
    return number


def _operator(cfg: dict, base_dir: str, expected_type=None):
    """The config's operator, required to be an ``expected_type`` when one is given."""
    if "operator" not in cfg:
        raise ConfigError("operator", "missing section")
    op = operator_from_config(cfg["operator"], base_dir)
    if expected_type is not None and not isinstance(op, expected_type):
        raise ConfigError("operator.type", f"expected {expected_type.__name__}, "
                                           f"got {type(op).__name__}")
    return op


def _solve_setup(cfg: dict, base_dir: str):
    op = _operator(cfg, base_dir)
    if "picard" not in cfg:
        raise ConfigError("picard", "missing section")
    pcfg = PicardConfig.from_json(cfg["picard"])
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
    rates_cfg = cfg.get("rates", {})
    k_T = rates_cfg.get("k")
    if k_T is None:
        if not isinstance(op, AffineOperator):
            raise ConfigError("rates.k", "a Lipschitz constant is required for "
                                         "non-affine operators")
        k_T = spectral_norm(op.A)
    k_T = _number("rates.k", k_T, "a non-negative number", lambda k: k >= 0)
    k_map = pcfg.smoothing + (1.0 - pcfg.smoothing) * abs(pcfg.lam) * k_T
    if k_map >= 1:
        raise ConfigError("rates.k", f"iteration map constant {k_map:.6g} is >= 1; "
                                     "rate bounds need a contraction")
    ref_eps = _number("rates.reference_epsilon", rates_cfg.get("reference_epsilon", 1e-13),
                      "a positive number", lambda eps: eps > 0)
    ref_cfg = PicardConfig(lam=pcfg.lam, epsilon=ref_eps,
                           max_iter=max(10 * pcfg.max_iter, 10000),
                           smoothing=pcfg.smoothing, norm_kind=pcfg.norm_kind)
    reference, ref_trace = picard_solve(op, ref_cfg, f)
    solution, trace = picard_solve(op, pcfg, f, record_iterates=True)
    bounds = banach_bounds(trace, k_map, reference=reference, norm_kind=pcfg.norm_kind)
    # The reference lies within its a posteriori bound of the fixed point, and
    # contracting float iterates settle within ~eps * (|x| + |f|) / (1 - k) of it.
    scale = norm(reference, pcfg.norm_kind) + norm(f, pcfg.norm_kind)
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
        "iterations_used": trace.iterations_used,
        "contraction_constant": k_map,
        "final_residual": residual(op, pcfg.lam, f, solution, pcfg.norm_kind),
    })
    return (EXIT_OK if trace.converged else EXIT_MAX_ITER,
            f"rate bounds over {trace.iterations_used} iterations at k={k_map:.4g}")


def cmd_frechet_check(cfg: dict, out_dir: Path, seed: int, base_dir: str):
    """Compare the analytic attention derivative with finite differences."""
    op = _operator(cfg, base_dir, AttentionOperator)
    check = cfg.get("check", {})
    n_samples = _number("check.n_samples", check.get("n_samples", 100),
                        "a positive integer", lambda n: n >= 1, int)
    rows = _number("check.rows", check.get("rows", op.d),
                   "a positive integer", lambda n: n >= 1, int)
    t = _number("check.t", check.get("t", 1e-5), "a positive number", lambda v: v > 0)
    t_order = _number("check.order_t", check.get("order_t", 1e-3),
                      "a positive number", lambda v: v > 0)
    rng = np.random.default_rng(seed)
    max_rel = 0.0
    errors_t, errors_half = [], []
    for _ in range(n_samples):
        Y = rng.standard_normal((rows, op.d))
        H = rng.standard_normal((rows, op.d))
        Y *= rng.uniform(0.5, 1.0) / np.linalg.norm(Y)
        H *= rng.uniform(0.5, 1.0) / np.linalg.norm(H)
        max_rel = max(max_rel, frechet_check(op, Y, H, t=t).rel_error)
        e1 = frechet_check(op, Y, H, t=t_order)
        e2 = frechet_check(op, Y, H, t=t_order / 2)
        errors_t.append(np.linalg.norm(e1.analytic - e1.finite_difference))
        errors_half.append(np.linalg.norm(e2.analytic - e2.finite_difference))
    ratio = float(max(errors_t) / max(max(errors_half), 1e-300))
    report = {
        "n_samples": n_samples,
        "t": t,
        "max_rel_error": max_rel,
        "order_check": {
            "t": t_order,
            "max_error_t": float(max(errors_t)),
            "max_error_half_t": float(max(errors_half)),
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
    target = cfg.get("target")
    if target is not None:
        target = _number("target", target, "a number in (0, 1)", lambda v: 0 < v < 1)
        W2 = rescale_to_contraction(op.W, report.alpha_max, target)
        w_path = out_dir / "rescaled_W.txt"
        write_text_atomic(w_path, "\n".join(
            " ".join(repr(float(x)) for x in row) for row in W2) + "\n")
        rescaled = gnn_lipschitz_report(GnnAggregateOperator(op.graph, W2))
        certificate["rescaled_W_path"] = str(w_path)
        certificate["rescaled_product"] = rescaled.product
        certificate["target"] = target
    write_json_atomic(out_dir / "certificate.json", certificate)
    return EXIT_OK, (f"L={report.L:.4g} alpha_max={report.alpha_max} "
                     f"product={report.product:.4g} certified={report.certified}")


def cmd_pign(cfg: dict, out_dir: Path, seed: int, base_dir: str):
    """Iterated message-passing experiment on synthetic graphs."""
    seeds = cfg.get("seeds", [seed])
    results = run_pign_experiment(cfg, seeds, csv_path=out_dir / "pign_report.csv")
    summary = {
        "seeds": [int(s) for s in seeds],
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
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict):
        raise ConfigError("sweep", "missing section")
    for key in ("command", "field", "values"):
        if key not in sweep:
            raise ConfigError(f"sweep.{key}", "missing required field")
    command = sweep["command"]
    if command not in ("solve", "rates", "pign"):
        raise ConfigError("sweep.command", f"cannot sweep {command!r}")
    if not isinstance(sweep["values"], list):
        raise ConfigError("sweep.values", "must be a list")
    base = {k: v for k, v in cfg.items() if k != "sweep"}
    lines, codes = ["index,value,exit_code"], []
    for idx, value in enumerate(sweep["values"]):
        sub_cfg = copy.deepcopy(base)
        _set_dotted(sub_cfg, sweep["field"], value)
        run_dir = out_dir / "runs" / f"{idx:03d}"
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            code, _ = _run(command, sub_cfg, run_dir, seed, base_dir)
        except (ConfigError, DivergenceError) as exc:
            write_json_atomic(run_dir / "summary.json", {"error": str(exc)})
            code = EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_DIVERGED
        codes.append(code)
        lines.append(f"{idx},{json.dumps(value)},{code}")
    write_text_atomic(out_dir / "sweep.csv", "\n".join(lines) + "\n")
    code = EXIT_CONFIG if EXIT_CONFIG in codes else max(codes, default=EXIT_OK)
    return code, f"swept {sweep['field']} over {len(codes)} values"


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


def build_parser() -> argparse.ArgumentParser:
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
