"""Command-line interface.

Subcommands
-----------
vk              Intrinsic volume V_k of a body (quadrature or closed form).
concavity       Log-concavity scan of f_k along a log-perturbation path.
thresholds      Table of failure thresholds pbar_{n,k} with branch tags.
counterexample  Certify failure of the p-Brunn-Minkowski inequality for V_k.
christoffel     Max-norm of the Christoffel-Minkowski residual on a grid.
poincare        Sharpened Poincare inequality check for an even test function.
ibp-check       Residuals of the cofactor integration-by-parts identities.

Each option is declared once, in ``_COMMANDS``, which makes its flag
(key ``grid_res``, flag ``--grid-res``) and checks its value in a JSON
config file (--config) against the same type or choices.  Explicit flags
override file values, which override built-in defaults.  Reports are
written as JSON (--json) carrying the package version, the effective
configuration and a SHA-256 fingerprint of the quadrature grid.  Every
subcommand writes CSV (--out): a header row, then one row per result (a
table row, an s value, a grid node or the single result).  Runs are
deterministic for a fixed configuration and seed, producing byte-identical
outputs.

Exit codes: 0 success (and affirmative outcome for check-style commands);
1 runtime error (a bad or unreadable body or psi spec, an unsupported
operation, any other package error); 2 usage error, including an
unreadable --config file, an unknown key or bad value in it, and a grid
option the run would ignore (a seed on a grid that takes none, any grid
option on closed-form vk); 3 check
completed with a negative outcome (violated concavity, unsatisfied
inequality, residual above tolerance, or a counterexample verdict
inconsistent with its threshold).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import bodies as bodies_mod
from . import counterexamples as cx
from . import intrinsic, variation
from .errors import QuermassError
from .sphere import REFERENCE_RESOLUTION, SphericalGrid, TestFunction, build_grid

_EXIT_OK = 0
_EXIT_NEGATIVE = 3


def _json_object(text: str) -> dict:
    """Parse a JSON object; ``@path`` reads it from that file."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise TypeError("expected a JSON object")
    return doc


def _spec_error(what: str, spec: str, exc: Exception) -> QuermassError:
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return QuermassError(f"bad {what} spec {spec!r}: {detail}")


def _parse_body(spec: str, n: int) -> bodies_mod.Body:
    name, _, arg = spec.partition(":")
    try:
        if spec.startswith(("@", "{")):
            return bodies_mod.body_from_json(_json_object(spec))
        if name == "ball":
            return bodies_mod.Ball(float(arg) if arg else 1.0)
        if name == "box":
            return bodies_mod.Box(tuple(float(v) for v in arg.split(",")))
        if name == "cube":
            return bodies_mod.EmbeddedCube(n, tuple(int(v) for v in arg.split(",")))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise _spec_error("body", spec, exc) from None
    raise QuermassError(f"unrecognized body spec {spec!r}")


def _parse_psi(spec: str, n: int, amplitude: float | None) -> TestFunction:
    name, _, arg = spec.partition(":")
    try:
        if spec.startswith(("@", "{")):
            psi = TestFunction.from_json(_json_object(spec))
        elif name == "x1sq":
            psi = TestFunction.coordinate_harmonic(n)
        elif name == "zonal4":
            psi = TestFunction.zonal_degree4(n)
        elif name == "const":
            psi = TestFunction.constant(n, float(arg) if arg else 1.0)
        else:
            raise QuermassError(f"unrecognized psi spec {spec!r}")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise _spec_error("psi", spec, exc) from None
    if amplitude is not None:
        psi = psi.scaled(amplitude)
    return psi


def _make_grid(cfg: dict, seed_used_elsewhere: bool = False) -> SphericalGrid:
    """The grid of ``cfg``.

    Only a monte-carlo grid takes a seed, so an explicit seed on another
    grid is a usage error, unless the command uses it for something else.
    """
    n = cfg["n"]
    method = cfg["grid_method"] or ("product-angular" if n <= 6 else "monte-carlo")
    if cfg["seed"] is not None and method != "monte-carlo" and not seed_used_elsewhere:
        raise _UsageError(f"seed {cfg['seed']} is set but the {method} grid takes no seed; "
                          f"only a monte-carlo grid does")
    res = cfg["grid_res"]
    if res is None:
        res = REFERENCE_RESOLUTION.get(n, 4) if method != "monte-carlo" else 20000
    return build_grid(n, res, method, seed=cfg["seed"])


def _grid_meta(grid: SphericalGrid) -> dict:
    return {
        "dimension": grid.dimension,
        "resolution": grid.resolution,
        "method": grid.method,
        "seed": grid.seed,
        "node_count": grid.node_count,
        "fingerprint": grid.fingerprint(),
    }


def _write_report(path: str | None, command: str, cfg: dict, results: dict,
                  grid: SphericalGrid | None = None) -> None:
    if not path:
        return
    doc = {
        "schema_version": "quermass.report/1",
        "package_version": __version__,
        "command": command,
        "config": {k: v for k, v in sorted(cfg.items())},
        "results": results,
    }
    if grid is not None:
        doc["grid"] = _grid_meta(grid)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str | None, rows: list[list] | None) -> None:
    if not path or rows is None:
        return
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class _Outcome(NamedTuple):
    """A finished subcommand: its exit code and what --json and --out write."""

    code: int
    results: dict
    grid: SphericalGrid | None = None
    rows: list[list] | None = None


class _UsageError(QuermassError):
    """A malformed command line or configuration; exits 2 like argparse."""


class _Option(NamedTuple):
    """One subcommand option, given as flag ``--key`` (``_`` spelled ``-``)."""

    kind: type | tuple  # int, float, str, bool (a switch) or a tuple of choices
    default: object = None
    help: str | None = None


def _check_value(key: str, opt: _Option, value):
    """A --config value, held to the type or choices of its flag."""
    if value is None and opt.default is None:
        return None
    if isinstance(opt.kind, tuple):
        ok, want = value in opt.kind, "one of " + ", ".join(map(repr, opt.kind))
    else:
        # JSON has no int/float split for whole numbers; bool is an int in Python
        accepted = (int, float) if opt.kind is float else opt.kind
        ok = isinstance(value, accepted) and isinstance(value, bool) == (opt.kind is bool)
        want = f"of type {opt.kind.__name__}"
    if not ok:
        raise _UsageError(f"--config key {key!r} must be {want}, got {value!r}")
    return float(value) if opt.kind is float else value


def _effective_config(args: argparse.Namespace, options: dict[str, _Option]) -> dict:
    cfg = {key: opt.default for key, opt in options.items()}
    if args.config:
        try:
            loaded = _json_object("@" + args.config)
        except (OSError, TypeError, ValueError) as exc:
            raise _UsageError(f"cannot read --config {args.config!r}: {exc}") from None
        unknown = sorted(set(loaded) - set(options))
        if unknown:
            raise _UsageError(f"unknown --config key(s): {', '.join(map(repr, unknown))}")
        for key, value in loaded.items():
            cfg[key] = _check_value(key, options[key], value)
    for key in options:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


# -- subcommands ------------------------------------------------------------

def cmd_vk(cfg: dict) -> _Outcome:
    n, k = cfg["n"], cfg["k"]
    body = _parse_body(cfg["body"], n)
    method = cfg["vk_method"]
    grid = None
    if method == "auto":
        method = "quadrature" if body.is_smooth else "closed-form"
    if method == "closed-form":
        unused = [f"--{key.replace('_', '-')} {cfg[key]}" for key in _GRID if cfg[key] is not None]
        if unused:
            raise _UsageError(f"{', '.join(unused)} set, but closed-form V_k builds no grid")
        result = intrinsic.vk_closed_form(body, k, n)
    else:
        grid = _make_grid(cfg)
        result = intrinsic.vk_quadrature(body, k, grid)
    results = {
        "value": result.value,
        "k": result.k,
        "method": result.method,
        "error_estimate": result.error_estimate,
        "q_positive_definite": result.q_positive_definite,
    }
    print(f"V_{k} = {result.value!r}  ({result.method}, "
          f"error estimate {result.error_estimate:.3e})")
    if not result.q_positive_definite:
        print("warning: Q[h] was not positive definite at some node", file=sys.stderr)
    rows = [["n", "k", "value", "method", "error_estimate"],
            [n, k, result.value, result.method, result.error_estimate]]
    return _Outcome(_EXIT_OK, results, grid, rows)


def cmd_concavity(cfg: dict) -> _Outcome:
    n, k = cfg["n"], cfg["k"]
    if cfg["s_steps"] < 1:
        raise QuermassError(f"--s-steps must be >= 1 (a scan needs at least one s value), "
                            f"got {cfg['s_steps']}")
    grid = _make_grid(cfg)
    psi = _parse_psi(cfg["psi"], n, cfg["amplitude"])
    body = _parse_body(cfg["body"], n)
    path = variation.VariationPath(body, psi, k, grid)
    s_values = np.linspace(cfg["s_min"], cfg["s_max"], cfg["s_steps"])
    report = variation.concavity_scan(path, s_values)
    print(f"concavity scan n={n} k={k}: {report.verdict} "
          f"(max H = {max(report.concavity_values):.6e}, tol = {report.tolerance:.3e})")
    code = _EXIT_OK if report.verdict in ("concave", "strictly-concave") else _EXIT_NEGATIVE
    return _Outcome(code, report.to_json(), grid, report.csv_rows())


def cmd_thresholds(cfg: dict) -> _Outcome:
    rows = cx.threshold_table(cfg["n_min"], cfg["n_max"])
    bound_for = {
        "low": lambda n: 1.0,
        "middle": lambda n: 1.0 / np.log2(2.0 * n / 3.0),
        "high": lambda n: 1.0 / np.log2(3.0),
    }
    table = [["n", "k", "branch", "pbar", "upper_bound"]]
    for row in rows:
        bound = bound_for[row["branch"]](row["n"])
        table.append([row["n"], row["k"], row["branch"], repr(row["pbar"]), repr(float(bound))])
        print(f"n={row['n']:2d} k={row['k']:2d} {row['branch']:>6s} pbar={row['pbar']:.6f}")
    return _Outcome(_EXIT_OK, {"rows": rows, "count": len(rows)}, rows=table)


def cmd_counterexample(cfg: dict) -> _Outcome:
    sweep = cfg["sweep"]
    if sweep:
        cases = [(n, k) for n in range(cfg["n_min"], cfg["n_max"] + 1) for k in range(2, n)]
    else:
        cases = [(cfg["n"], cfg["k"])]
    table = [["n", "k", "branch", "pbar", "p", "lhs_bound", "rhs", "margin", "conclusion"]]
    verdicts = []
    for n, k in cases:
        pbar = cx.threshold_pbar(n, k)
        p = cfg["p"] if cfg["p"] is not None else pbar / 2.0
        v = cx.verify_counterexample(n, k, p)
        verdicts.append(v)
        table.append([n, k, v.extras["branch"], repr(pbar), repr(p),
                      repr(v.lhs), repr(v.rhs), repr(v.margin), v.conclusion])
        if sweep:
            print(f"n={n} k={k} p={p:.4f} pbar={pbar:.4f}: {v.conclusion} "
                  f"(margin {v.margin:+.3e})")
        else:
            print(f"n={n} k={k} p={p} (pbar={pbar:.6f}, branch {v.extras['branch']}): "
                  f"{v.conclusion}")
            print(f"  V_k upper bound {v.extras['vk_upper_bound']!r} vs target "
                  f"{v.extras['vk_target']!r}; margin on V^(p/k) scale {v.margin:+.6e}")
    # exit 0 only when failure of the inequality is actually certified
    certified = all(v.conclusion == "inequality-fails" for v in verdicts)
    results = {"verdicts": [v.to_json() for v in verdicts]} if sweep else verdicts[0].to_json()
    return _Outcome(_EXIT_OK if certified else _EXIT_NEGATIVE, results, rows=table)


def cmd_christoffel(cfg: dict) -> _Outcome:
    n, k = cfg["n"], cfg["k"]
    grid = _make_grid(cfg)
    body = _parse_body(cfg["body"], n)
    vals, max_abs = variation.christoffel_residual_grid(body, cfg["p"], k, grid)
    print(f"christoffel residual n={n} k={k} p={cfg['p']}: max |residual| = {max_abs:.6e}")
    results = {"max_abs_residual": max_abs, "mean_residual": float(np.mean(vals))}
    rows = [["node_index", "residual"], *[[i, repr(float(v))] for i, v in enumerate(vals)]]
    return _Outcome(_EXIT_OK, results, grid, rows)


def cmd_poincare(cfg: dict) -> _Outcome:
    n = cfg["n"]
    grid = _make_grid(cfg)
    psi = _parse_psi(cfg["psi"], n, cfg["amplitude"])
    result = variation.poincare_check(psi, grid)
    print(f"poincare n={n}: int psi^2 = {result.lhs:.9e}, "
          f"(1/2n) int |grad|^2 = {result.rhs:.9e}, ratio = {result.ratio:.9f}, "
          f"satisfied = {result.satisfied}")
    results = {"lhs": result.lhs, "rhs": result.rhs, "ratio": result.ratio,
               "satisfied": result.satisfied, "degenerate": result.degenerate}
    rows = [["n", *results], [n, *results.values()]]
    return _Outcome(_EXIT_OK if result.satisfied else _EXIT_NEGATIVE, results, grid, rows)


def cmd_ibp_check(cfg: dict) -> _Outcome:
    n, k = cfg["n"], cfg["k"]
    if cfg["seed"] < 0:
        raise QuermassError(f"--seed must be >= 0, got {cfg['seed']}")
    grid = _make_grid(cfg, seed_used_elsewhere=True)
    rng = np.random.default_rng(cfg["seed"])
    amp = cfg["amplitude"]

    def random_quadratic():
        M = rng.standard_normal((n, n))
        return TestFunction.quadratic((M + M.T) / 2.0, constant=rng.standard_normal(),
                                      amplitude=amp)

    base = bodies_mod.LogPerturbedBall(random_quadratic(), 0.5)
    phi, phibar, psi = random_quadratic(), random_quadratic(), random_quadratic()
    result = variation.ibp_check(base, phi, phibar, psi, k, grid)
    ok = result.residual_first <= cfg["tol"] and result.residual_second <= cfg["tol"]
    print(f"ibp-check n={n} k={k} seed={cfg['seed']}: "
          f"residuals {result.residual_first:.3e}, {result.residual_second:.3e} "
          f"(tol {cfg['tol']:g}) -> {'ok' if ok else 'FAIL'}")
    results = {"residual_first": result.residual_first,
               "residual_second": result.residual_second,
               "scale_first": result.scale_first,
               "scale_second": result.scale_second,
               "tolerance": cfg["tol"]}
    rows = [["n", "k", "seed", *results], [n, k, cfg["seed"], *results.values()]]
    return _Outcome(_EXIT_OK if ok else _EXIT_NEGATIVE, results, grid, rows)


# -- the option table -------------------------------------------------------

_N = _Option(int, 3, "ambient dimension")
_K = _Option(int, 2, "order k")
_BODY = _Option(str, "ball:1.0", "ball:R | box:a1,..,an | cube:i,j,.. | JSON | @file")
_PSI = _Option(str, "x1sq", "x1sq | zonal4 | const[:c] | JSON | @file")
_GRID = {
    "grid_res": _Option(int, None, "grid resolution (default: reference resolution for n)"),
    "grid_method": _Option(str, None, "grid construction (default: product-angular "
                                      "for n <= 6, else monte-carlo)"),
    "seed": _Option(int, None, "seed of a monte-carlo grid"),
}

#: subcommand -> (function, help, options)
_COMMANDS: dict[str, tuple[Callable[[dict], _Outcome], str, dict[str, _Option]]] = {
    "vk": (cmd_vk, "intrinsic volume of a body", {
        "n": _N, "k": _K, "body": _BODY, **_GRID,
        "vk_method": _Option(("auto", "quadrature", "closed-form"), "auto",
                             "auto is quadrature for smooth bodies, else closed form"),
    }),
    "concavity": (cmd_concavity, "log-concavity scan of f_k along a path", {
        "n": _N, "k": _K, "psi": _PSI, "amplitude": _Option(float, 0.01, "scale of psi"),
        "body": _BODY, "s_min": _Option(float, -2.0, "first s"),
        "s_max": _Option(float, 2.0, "last s"), "s_steps": _Option(int, 21, "number of s"),
        **_GRID,
    }),
    "thresholds": (cmd_thresholds, "pbar_{n,k} failure threshold table", {
        "n_min": _Option(int, 3, "first n"), "n_max": _Option(int, 10, "last n"),
    }),
    "counterexample": (cmd_counterexample, "certify p-Brunn-Minkowski failure for V_k", {
        "n": _Option(int, 4, "ambient dimension"), "k": _K,
        "p": _Option(float, None, "defaults to pbar/2"),
        "sweep": _Option(bool, False, "every 2 <= k < n for n-min <= n <= n-max"),
        "n_min": _Option(int, 3, "first n of a sweep"),
        "n_max": _Option(int, 8, "last n of a sweep"),
    }),
    "christoffel": (cmd_christoffel, "Christoffel-Minkowski residual on a grid", {
        "n": _N, "k": _K, "p": _Option(float, 0.5, "exponent p"), "body": _BODY, **_GRID,
    }),
    "poincare": (cmd_poincare, "sharpened Poincare inequality check", {
        "n": _N, "psi": _PSI, "amplitude": _Option(float, None, "scale of psi"), **_GRID,
    }),
    "ibp-check": (cmd_ibp_check, "integration-by-parts identity residuals", {
        "n": _N, "k": _Option(int, 1, "order k"), **_GRID,
        "seed": _Option(int, 0, "seed of the random test functions and of the grid"),
        "amplitude": _Option(float, 0.1, "scale of the random test functions"),
        "tol": _Option(float, 1e-5, "largest residual that passes"),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quermass",
        description="Numerical toolkit for p-Minkowski combinations, intrinsic "
                    "volumes and Brunn-Minkowski-type inequality checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.add_argument("--json", help="write a JSON report to this path")
        sp.add_argument("--out", help="write CSV output to this path")
        for key, opt in options.items():
            # an unset flag stays None, so the config file or the default fills it
            flag, kwargs = "--" + key.replace("_", "-"), {"dest": key, "help": opt.help}
            if opt.kind is bool:
                sp.add_argument(flag, action="store_true", default=None, **kwargs)
            elif isinstance(opt.kind, tuple):
                sp.add_argument(flag, choices=opt.kind, **kwargs)
            else:
                sp.add_argument(flag, type=opt.kind, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    run, _, options = _COMMANDS[args.command]
    try:
        cfg = _effective_config(args, options)
        outcome = run(cfg)
    except _UsageError as exc:
        parser.error(str(exc))
    except QuermassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_report(args.json, args.command, cfg, outcome.results, outcome.grid)
    _write_csv(args.out, outcome.rows)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
