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

Configuration can be loaded from a JSON file (--config); explicit flags
override file values, which override built-in defaults.  Reports are
written as JSON (--json) carrying the package version, the effective
configuration and a SHA-256 fingerprint of the quadrature grid; tables go
to CSV (--out).  Runs are deterministic for a fixed configuration and
seed, producing byte-identical outputs.

Exit codes: 0 success (and affirmative outcome for check-style commands);
1 runtime error (a bad body spec, an unsupported operation, any other
package error); 2 usage error, including an unknown --config key; 3 check
completed with a negative outcome (violated concavity, unsatisfied
inequality, residual above tolerance, or a counterexample verdict
inconsistent with its threshold).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from . import bodies as bodies_mod
from . import counterexamples as cx
from . import intrinsic, variation
from .errors import QuermassError
from .sphere import REFERENCE_RESOLUTION, SphericalGrid, TestFunction, build_grid

_EXIT_OK = 0
_EXIT_NEGATIVE = 3


def _parse_body(spec: str, n: int) -> bodies_mod.Body:
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            return bodies_mod.body_from_json(json.load(fh))
    if spec.startswith("{"):
        return bodies_mod.body_from_json(json.loads(spec))
    name, _, arg = spec.partition(":")
    if name == "ball":
        return bodies_mod.Ball(float(arg) if arg else 1.0)
    if name == "box":
        return bodies_mod.Box(tuple(float(v) for v in arg.split(",")))
    if name == "cube":
        return bodies_mod.EmbeddedCube(n, tuple(int(v) for v in arg.split(",")))
    raise QuermassError(f"unrecognized body spec {spec!r}")


def _parse_psi(spec: str, n: int, amplitude: float | None) -> TestFunction:
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            psi = TestFunction.from_json(json.load(fh))
    elif spec.startswith("{"):
        psi = TestFunction.from_json(json.loads(spec))
    else:
        name, _, arg = spec.partition(":")
        if name == "x1sq":
            psi = TestFunction.coordinate_harmonic(n)
        elif name == "zonal4":
            psi = TestFunction.zonal_degree4(n)
        elif name == "const":
            psi = TestFunction.constant(n, float(arg) if arg else 1.0)
        else:
            raise QuermassError(f"unrecognized psi spec {spec!r}")
    if amplitude is not None:
        psi = psi.scaled(amplitude)
    return psi


def _make_grid(cfg: dict) -> SphericalGrid:
    n = int(cfg["n"])
    method = cfg.get("grid_method") or ("product-angular" if n <= 6 else "monte-carlo")
    res = cfg.get("grid_res")
    if res is None:
        res = REFERENCE_RESOLUTION.get(n, 4) if method != "monte-carlo" else 20000
    return build_grid(n, int(res), method, seed=cfg.get("seed"))


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


def _write_csv(path: str | None, rows: list[list]) -> None:
    if not path:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(row)


class _UsageError(QuermassError):
    """A malformed command line or configuration; exits 2 like argparse."""


def _effective_config(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise _UsageError(f"unknown --config key(s): {', '.join(map(repr, unknown))}")
        cfg.update(loaded)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


# -- subcommands ------------------------------------------------------------

def cmd_vk(args) -> int:
    defaults = {"n": 3, "k": 2, "body": "ball:1.0", "grid_res": None,
                "grid_method": None, "seed": None, "vk_method": "auto"}
    cfg = _effective_config(args, defaults)
    n, k = int(cfg["n"]), int(cfg["k"])
    body = _parse_body(cfg["body"], n)
    method = cfg["vk_method"]
    grid = None
    if method == "auto":
        method = "quadrature" if body.is_smooth else "closed-form"
    if method == "closed-form":
        if isinstance(body, bodies_mod.Ball):
            result = intrinsic.vk_ball(n, k, body.radius)
        elif isinstance(body, bodies_mod.Box):
            result = intrinsic.vk_box(body.half_lengths, k)
        elif isinstance(body, bodies_mod.EmbeddedCube):
            half = tuple(1.0 if i in body.indices else 0.0 for i in range(n))
            result = intrinsic.vk_box(half, k)
        else:
            raise QuermassError("no closed form for this body; use quadrature")
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
    _write_report(args.json, "vk", cfg, results, grid)
    _write_csv(args.out, [["n", "k", "value", "method", "error_estimate"],
                          [n, k, result.value, result.method, result.error_estimate]])
    return _EXIT_OK


def cmd_concavity(args) -> int:
    defaults = {"n": 3, "k": 2, "psi": "x1sq", "amplitude": 0.01,
                "body": "ball:1.0", "s_min": -2.0, "s_max": 2.0, "s_steps": 21,
                "grid_res": None, "grid_method": None, "seed": None}
    cfg = _effective_config(args, defaults)
    n, k = int(cfg["n"]), int(cfg["k"])
    grid = _make_grid(cfg)
    psi = _parse_psi(cfg["psi"], n, cfg.get("amplitude"))
    body = _parse_body(cfg["body"], n)
    path = variation.VariationPath(body, psi, k, grid)
    s_values = np.linspace(float(cfg["s_min"]), float(cfg["s_max"]), int(cfg["s_steps"]))
    report = variation.concavity_scan(path, s_values)
    print(f"concavity scan n={n} k={k}: {report.verdict} "
          f"(max H = {max(report.concavity_values):.6e}, tol = {report.tolerance:.3e})")
    _write_report(args.json, "concavity", cfg, report.to_json(), grid)
    _write_csv(args.out, report.csv_rows())
    return _EXIT_OK if report.verdict in ("concave", "strictly-concave") else _EXIT_NEGATIVE


def cmd_thresholds(args) -> int:
    defaults = {"n_min": 3, "n_max": 10}
    cfg = _effective_config(args, defaults)
    rows = cx.threshold_table(int(cfg["n_min"]), int(cfg["n_max"]))
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
    _write_report(args.json, "thresholds", cfg,
                  {"rows": rows, "count": len(rows)})
    _write_csv(args.out, table)
    return _EXIT_OK


def cmd_counterexample(args) -> int:
    defaults = {"n": 4, "k": 2, "p": None, "sweep": False,
                "n_min": 3, "n_max": 8}
    cfg = _effective_config(args, defaults)
    if cfg.get("sweep"):
        table = [["n", "k", "branch", "pbar", "p", "lhs_bound", "rhs", "margin",
                  "conclusion"]]
        verdicts = []
        all_certified = True
        for n in range(int(cfg["n_min"]), int(cfg["n_max"]) + 1):
            for k in range(2, n):
                pbar = cx.threshold_pbar(n, k)
                p = cfg["p"] if cfg.get("p") is not None else pbar / 2.0
                v = cx.verify_counterexample(n, k, float(p))
                verdicts.append(v.to_json())
                table.append([n, k, v.extras["branch"], repr(pbar), repr(float(p)),
                              repr(v.lhs), repr(v.rhs), repr(v.margin), v.conclusion])
                all_certified = all_certified and v.conclusion == "inequality-fails"
                print(f"n={n} k={k} p={float(p):.4f} pbar={pbar:.4f}: {v.conclusion} "
                      f"(margin {v.margin:+.3e})")
        _write_report(args.json, "counterexample", cfg, {"verdicts": verdicts})
        _write_csv(args.out, table)
        return _EXIT_OK if all_certified else _EXIT_NEGATIVE

    n, k = int(cfg["n"]), int(cfg["k"])
    pbar = cx.threshold_pbar(n, k)
    p = float(cfg["p"]) if cfg.get("p") is not None else pbar / 2.0
    v = cx.verify_counterexample(n, k, p)
    print(f"n={n} k={k} p={p} (pbar={pbar:.6f}, branch {v.extras['branch']}): "
          f"{v.conclusion}")
    print(f"  V_k upper bound {v.extras['vk_upper_bound']!r} vs target "
          f"{v.extras['vk_target']!r}; margin on V^(p/k) scale {v.margin:+.6e}")
    _write_report(args.json, "counterexample", cfg, v.to_json())
    _write_csv(args.out, [["n", "k", "branch", "pbar", "p", "lhs_bound", "rhs",
                          "margin", "conclusion"],
                         [n, k, v.extras["branch"], repr(pbar), repr(p), repr(v.lhs),
                          repr(v.rhs), repr(v.margin), v.conclusion]])
    # exit 0 only when failure of the inequality is actually certified
    return _EXIT_OK if v.conclusion == "inequality-fails" else _EXIT_NEGATIVE


def cmd_christoffel(args) -> int:
    defaults = {"n": 3, "k": 2, "p": 0.5, "body": "ball:1.0",
                "grid_res": None, "grid_method": None, "seed": None}
    cfg = _effective_config(args, defaults)
    n, k = int(cfg["n"]), int(cfg["k"])
    grid = _make_grid(cfg)
    body = _parse_body(cfg["body"], n)
    vals, max_abs = variation.christoffel_residual_grid(body, float(cfg["p"]), k, grid)
    print(f"christoffel residual n={n} k={k} p={cfg['p']}: max |residual| = {max_abs:.6e}")
    _write_report(args.json, "christoffel", cfg,
                  {"max_abs_residual": max_abs,
                   "mean_residual": float(np.mean(vals))}, grid)
    _write_csv(args.out, [["node_index", "residual"],
                          *[[i, repr(float(v))] for i, v in enumerate(vals)]])
    return _EXIT_OK


def cmd_poincare(args) -> int:
    defaults = {"n": 3, "psi": "x1sq", "amplitude": None,
                "grid_res": None, "grid_method": None, "seed": None}
    cfg = _effective_config(args, defaults)
    n = int(cfg["n"])
    grid = _make_grid(cfg)
    psi = _parse_psi(cfg["psi"], n, cfg.get("amplitude"))
    result = variation.poincare_check(psi, grid)
    print(f"poincare n={n}: int psi^2 = {result.lhs:.9e}, "
          f"(1/2n) int |grad|^2 = {result.rhs:.9e}, ratio = {result.ratio:.9f}, "
          f"satisfied = {result.satisfied}")
    _write_report(args.json, "poincare", cfg,
                  {"lhs": result.lhs, "rhs": result.rhs, "ratio": result.ratio,
                   "satisfied": result.satisfied, "degenerate": result.degenerate},
                  grid)
    return _EXIT_OK if result.satisfied else _EXIT_NEGATIVE


def cmd_ibp_check(args) -> int:
    defaults = {"n": 3, "k": 1, "seed": 0, "amplitude": 0.1, "tol": 1e-5,
                "grid_res": None, "grid_method": None}
    cfg = _effective_config(args, defaults)
    n, k = int(cfg["n"]), int(cfg["k"])
    grid = _make_grid(cfg)
    rng = np.random.default_rng(int(cfg["seed"]))
    amp = float(cfg["amplitude"])

    def random_quadratic():
        M = rng.standard_normal((n, n))
        return TestFunction.quadratic((M + M.T) / 2.0, constant=rng.standard_normal(),
                                      amplitude=amp)

    base = bodies_mod.LogPerturbedBall(random_quadratic(), 0.5)
    phi, phibar, psi = random_quadratic(), random_quadratic(), random_quadratic()
    result = variation.ibp_check(base, phi, phibar, psi, k, grid)
    ok = (result.residual_first <= float(cfg["tol"])
          and result.residual_second <= float(cfg["tol"]))
    print(f"ibp-check n={n} k={k} seed={cfg['seed']}: "
          f"residuals {result.residual_first:.3e}, {result.residual_second:.3e} "
          f"(tol {cfg['tol']:g}) -> {'ok' if ok else 'FAIL'}")
    _write_report(args.json, "ibp-check", cfg,
                  {"residual_first": result.residual_first,
                   "residual_second": result.residual_second,
                   "scale_first": result.scale_first,
                   "scale_second": result.scale_second,
                   "tolerance": float(cfg["tol"])},
                  grid)
    return _EXIT_OK if ok else _EXIT_NEGATIVE


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; flags override its values")
    sp.add_argument("--json", help="write a JSON report to this path")
    sp.add_argument("--out", help="write CSV output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quermass",
        description="Numerical toolkit for p-Minkowski combinations, intrinsic "
                    "volumes and Brunn-Minkowski-type inequality checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("vk", help="intrinsic volume of a body")
    _add_common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--body", help="ball:R | box:a1,..,an | cube:i,j,.. | JSON | @file")
    sp.add_argument("--grid-res", dest="grid_res", type=int)
    sp.add_argument("--grid-method", dest="grid_method")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--vk-method", dest="vk_method",
                    choices=["auto", "quadrature", "closed-form"])
    sp.set_defaults(func=cmd_vk)

    sp = sub.add_parser("concavity", help="log-concavity scan of f_k along a path")
    _add_common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--psi", help="x1sq | zonal4 | const[:c] | JSON | @file")
    sp.add_argument("--amplitude", type=float)
    sp.add_argument("--body")
    sp.add_argument("--s-min", dest="s_min", type=float)
    sp.add_argument("--s-max", dest="s_max", type=float)
    sp.add_argument("--s-steps", dest="s_steps", type=int)
    sp.add_argument("--grid-res", dest="grid_res", type=int)
    sp.add_argument("--grid-method", dest="grid_method")
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_concavity)

    sp = sub.add_parser("thresholds", help="pbar_{n,k} failure threshold table")
    _add_common(sp)
    sp.add_argument("--n-min", dest="n_min", type=int)
    sp.add_argument("--n-max", dest="n_max", type=int)
    sp.set_defaults(func=cmd_thresholds)

    sp = sub.add_parser("counterexample",
                        help="certify p-Brunn-Minkowski failure for V_k")
    _add_common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--p", type=float, help="defaults to pbar/2")
    sp.add_argument("--sweep", action="store_true", default=None)
    sp.add_argument("--n-min", dest="n_min", type=int)
    sp.add_argument("--n-max", dest="n_max", type=int)
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("christoffel", help="Christoffel-Minkowski residual on a grid")
    _add_common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--body")
    sp.add_argument("--grid-res", dest="grid_res", type=int)
    sp.add_argument("--grid-method", dest="grid_method")
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_christoffel)

    sp = sub.add_parser("poincare", help="sharpened Poincare inequality check")
    _add_common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--psi")
    sp.add_argument("--amplitude", type=float)
    sp.add_argument("--grid-res", dest="grid_res", type=int)
    sp.add_argument("--grid-method", dest="grid_method")
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_poincare)

    sp = sub.add_parser("ibp-check", help="integration-by-parts identity residuals")
    _add_common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--amplitude", type=float)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--grid-res", dest="grid_res", type=int)
    sp.add_argument("--grid-method", dest="grid_method")
    sp.set_defaults(func=cmd_ibp_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.error(str(exc))
    except QuermassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
