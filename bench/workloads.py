"""The four workloads: inputs drawn from the seed, rounds of jobs, checks.

A workload object is built once per process; building it is the set-up that
``setup_s`` times (``import quermass`` plus the workload's grids and inputs).
``round(i)`` returns round i as a list of ``(label, fn)`` pairs: a pair with a
label is a job, timed on its own; a pair with label ``None`` is a step the
next jobs need (a path's construction), timed only in the run's wall time.
Round i's inputs come from ``numpy.random.default_rng([seed, i])``, so the
job list is fixed for a given seed.  ``check(records)`` returns the list of
failed checks over ``(label, output)`` records of the jobs that completed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent

#: Reference grid at n = 5 (resolution 7): 2 * 7^4 nodes.
N5, RES5, NODES5 = 5, 7, 4802
#: Node counts of the CLI's default (reference) grids.
REFERENCE_NODES = {3: 392, 4: 1024, 5: 4802}
S_PER_SCAN = 21
SCAN_AMPLITUDE = 0.01


def trace_free(rng, n: int) -> np.ndarray:
    """Seeded symmetric trace-free matrix with spectral norm 1, so |x^T A x| <= 1."""
    M = rng.standard_normal((n, n))
    A = (M + M.T) / 2.0
    A -= np.trace(A) / n * np.eye(n)
    return A / np.max(np.abs(np.linalg.eigvalsh(A)))


def scan_s_values(rng) -> list[float]:
    """s = 0 plus one point inside each of 20 bins of width 0.2 over [-2, 2].

    The points avoid the path's validation samples s in {-2, -1, 1, 2}, whose
    Q[h_s] the path has already cached, so every job but s = 0 does the same
    work.
    """
    u = rng.uniform(0.05, 0.95, 20)
    return [0.0] + [float(-2.0 + 0.2 * (j + u[j])) for j in range(20)]


class Scan:
    """``concavity_scan`` of f_k along h_s = e^{s psi} from the unit ball at n = 5."""

    def __init__(self, seed: int):
        import quermass

        self.q = quermass
        self.seed = seed
        self.grid = quermass.build_grid(N5, RES5, "product-angular")

    def round(self, i: int):
        q, grid = self.q, self.grid
        rng = np.random.default_rng([self.seed, i])
        # A run has 2 rounds (its 40 jobs need them); the seed rotates the k
        # they cover, so that ten seeds cover k = 1..4 alike.
        k = 1 + (self.seed + i) % 4
        A = trace_free(rng, N5)
        psi = q.TestFunction.quadratic(A, amplitude=SCAN_AMPLITUDE)
        holder = {}

        def build():
            holder["path"] = q.VariationPath(q.Ball(1.0), psi, k, grid)

        def job(s):
            def run():
                report = q.concavity_scan(holder["path"], [s])
                return {"round": i, "k": k, "A": A, "s": s, "report": report,
                        "nodes": holder["path"].grid.node_count}
            return run

        return [(None, build)] + [(f"k{k}", job(s)) for s in scan_s_values(rng)]

    def check(self, records):
        errors = []
        s_count: dict[int, int] = {}
        for _, out in records:
            rep, k = out["report"], out["k"]
            s_count[out["round"]] = s_count.get(out["round"], 0) + len(rep.s_values)
            errors.append(checks.check_size("scan grid nodes", out["nodes"], NODES5))
            errors.append(checks.check_scan_verdict(k, rep.verdict))
            errors.append(checks.check_scan_taylor(N5, k, SCAN_AMPLITUDE, out["A"], out["s"],
                                                   rep.f_values[0], rep.fprime_values[0],
                                                   rep.fsecond_values[0]))
            if out["s"] == 0.0:
                errors.append(checks.check_fk0(N5, k, rep.f_values[0]))
                errors.append(checks.check_fk2(N5, k, SCAN_AMPLITUDE, out["A"],
                                               rep.fsecond_values[0]))
        for r, count in s_count.items():
            errors.append(checks.check_size(f"s values in scan {r}", count, S_PER_SCAN))
        return [e for e in errors if e]


#: Containment cases (n, k, product-grid resolution), chosen so that each job
#: solves 128-162 LPs.  (5, 2) has a zero gauge on the gap axis (2k < n);
#: (3, 2), (4, 3) and (5, 3) have an overlap axis (2k > n); (4, 2) neither.
CONTAINMENT_CASES = [(3, 2, 9), (4, 2, 4), (4, 3, 4), (5, 2, 3), (5, 3, 3)]
REVERSE_N, REVERSE_RES = 4, 4
SWEEP_N_MAX = 30


class Certify:
    """Containment certificates, the counterexample sweep and the V_1 reverse check."""

    def __init__(self, seed: int):
        import quermass

        self.q = quermass
        self.seed = seed
        self.grids = {}
        for n, _, res in CONTAINMENT_CASES + [(REVERSE_N, 0, REVERSE_RES)]:
            if (n, res) not in self.grids:
                self.grids[n, res] = quermass.build_grid(n, res, "product-angular")

    def round(self, i: int):
        q = self.q
        cx = q.counterexamples
        rng = np.random.default_rng([self.seed, i])
        ops = []
        for n, k, res in CONTAINMENT_CASES:
            p = float(rng.uniform(0.25, 0.6) * cx.threshold_pbar(n, k))
            grid = self.grids[n, res]

            def contain(n=n, k=k, p=p, grid=grid):
                viol = q.containment_check(n, k, p, grid)
                return {"n": n, "k": k, "p": p, "violation": viol, "nodes": grid.node_count}

            ops.append((f"containment-{n}-{k}", contain))
        # The box bound decides every case up to p = pbar/2 (at 0.6 pbar it is
        # inconclusive for n = 29, 30), so the sweep draws p from [0.25, 0.5] pbar.
        frac = float(rng.uniform(0.25, 0.5))
        half = rng.uniform(0.5, 2.0, REVERSE_N)
        radius, p_rev, t_rev = (float(v) for v in rng.uniform([0.5, 0.1, 0.2], [2.0, 0.9, 0.8]))
        grid = self.grids[REVERSE_N, REVERSE_RES]

        def reverse():
            sweep = [(n, k, frac * cx.threshold_pbar(n, k))
                     for n in range(3, SWEEP_N_MAX + 1) for k in range(2, n)]
            verdicts = [q.verify_counterexample(n, k, p) for n, k, p in sweep]
            body0 = q.Box(tuple(float(a) for a in half))
            v1 = q.v1_reverse_check(body0, q.Ball(radius), p_rev, t_rev, REVERSE_N,
                                    grid=grid, wulff_estimate=True)
            return {"sweep": [(n, k, p, v.conclusion, v.extras["vk_upper_bound"])
                              for (n, k, p), v in zip(sweep, verdicts)],
                    "half": half, "radius": radius, "p": p_rev, "t": t_rev,
                    "v1": v1.extras, "nodes": grid.node_count}

        ops.append(("reverse", reverse))
        return ops

    def check(self, records):
        errors = []
        want_nodes = {(n, k): 2 * res ** (n - 1) for n, k, res in CONTAINMENT_CASES}
        lp_cases, reverse = {}, None
        for label, out in records:
            if label == "reverse":
                reverse = reverse or out
                want = sum(n - 2 for n in range(3, SWEEP_N_MAX + 1))
                errors.append(checks.check_size("sweep cases", len(out["sweep"]), want))
                errors.extend(checks.check_sweep_case(*case) for case in out["sweep"])
                errors.append(checks.check_size("reverse grid nodes", out["nodes"],
                                                2 * REVERSE_RES ** (REVERSE_N - 1)))
                errors.append(checks.check_wulff_estimate(out["v1"]["v1_wulff_estimate"],
                                                          out["v1"]["v1_gauge_bound"], out["p"]))
                continue
            n, k = out["n"], out["k"]
            errors.append(checks.check_size(f"containment {n},{k} grid nodes",
                                            out["nodes"], want_nodes[n, k]))
            errors.append(checks.check_containment(n, k, out["violation"]))
            lp_cases.setdefault((n, k), (out["p"], out["violation"]))
        errors.extend(self._check_lp_sample(lp_cases))
        if reverse is not None:
            grid = self.grids[REVERSE_N, REVERSE_RES]
            want = checks.wulff_estimate_reference(reverse["half"], reverse["radius"], reverse["p"],
                                                   reverse["t"], grid.nodes, grid.weights)
            errors.append(checks.check_wulff_value(reverse["v1"]["v1_wulff_estimate"], want))
        return [e for e in errors if e]

    def _check_lp_sample(self, lp_cases):
        """The first job of each containment case against HiGHS.

        Its worst violation is recomputed over all its directions, and the
        program's LP support values are compared at 3 seeded directions.
        """
        rng = np.random.default_rng([self.seed, 1 << 20])
        errors = []
        for (n, k), (p, violation) in sorted(lp_cases.items()):
            res = next(r for nn, kk, r in CONTAINMENT_CASES if (nn, kk) == (n, k))
            nodes = self.grids[n, res].nodes
            errors.append(checks.check_containment_value(
                n, k, violation, checks.containment_reference(n, k, p, nodes)))
            D = np.vstack([nodes, np.eye(n), -np.eye(n)])
            f = checks.cube_pair_gauge(n, k, p, D)
            for j in rng.choice(len(nodes), 3, replace=False):
                value, _ = self.q.wulff_support_upper(D, f, nodes[j])
                errors.append(checks.check_lp_value(value, checks.highs_support(D, f, nodes[j])))
        return errors


IDENTITY_AMPLITUDE = 0.1
THIRD_AMPLITUDE = 0.05
THIRD_PER_PATH = 3
THIRD_DELTA = 0.01


class Identities:
    """``ibp_check`` on a log-perturbed ball and ``f_k_third`` along a scan-type path."""

    def __init__(self, seed: int):
        import quermass

        self.q = quermass
        self.seed = seed
        self.grid = quermass.build_grid(N5, RES5, "product-angular")
        self.last = None  # (path, s, f_k''') of the latest f_k_third job

    def _quadratic(self, rng):
        M = rng.standard_normal((N5, N5))
        return self.q.TestFunction.quadratic((M + M.T) / 2.0, constant=rng.standard_normal(),
                                             amplitude=IDENTITY_AMPLITUDE)

    def round(self, i: int):
        q, grid = self.q, self.grid
        rng = np.random.default_rng([self.seed, i])
        k = 2 + i % 3
        base = q.LogPerturbedBall(self._quadratic(rng), 0.5)
        phi, phibar, psi = (self._quadratic(rng) for _ in range(3))
        path_psi = q.TestFunction.quadratic(trace_free(rng, N5), amplitude=THIRD_AMPLITUDE)
        # s away from the validation samples, so each job computes Q[h_s] afresh,
        # and inside [-1.8, 1.8] so that s +- delta stays in the window.
        s_values = [float(-1.8 + 1.2 * j + rng.uniform(0.05, 1.15)) for j in range(THIRD_PER_PATH)]
        holder = {}

        def ibp():
            res = q.ibp_check(base, phi, phibar, psi, k, grid)
            return {"k": k, "ibp": res, "nodes": grid.node_count}

        def build():
            self.last = None  # let the previous round's path go before building this one
            holder["path"] = q.VariationPath(q.Ball(1.0), path_psi, k + 1, grid)

        def third(s):
            def run():
                path = holder["path"]
                value = q.f_k_third(path, s)
                self.last = (path, s, value)
                return {"k": k + 1, "s": s, "f3": value, "nodes": path.grid.node_count}
            return run

        return ([(f"ibp-k{k}", ibp), (None, build)]
                + [(f"third-k{k + 1}", third(s)) for s in s_values])

    def check(self, records):
        errors = []
        for label, out in records:
            errors.append(checks.check_size(f"{label} grid nodes", out["nodes"], NODES5))
            if "ibp" in out:
                r = out["ibp"]
                errors.append(checks.check_ibp(r.residual_first, r.scale_first, "first"))
                errors.append(checks.check_ibp(r.residual_second, r.scale_second, "second"))
        if self.last is not None:
            path, s, f3 = self.last
            f2p = self.q.f_k_second(path, s + THIRD_DELTA)
            f2m = self.q.f_k_second(path, s - THIRD_DELTA)
            errors.append(checks.check_third(f3, f2p, f2m, THIRD_DELTA))
        errors.extend(self._check_second_cofactor())
        return [e for e in errors if e]

    def _check_second_cofactor(self):
        """<S_r^{ij,kl}(A), X (x) X> at seeded A near I (as Q is near the ball) and X."""
        rng = np.random.default_rng([self.seed, 1 << 20])
        N = N5 - 1
        errors = []
        for r in (2, 3, 4):
            M, Y = rng.standard_normal((2, N, N))
            A = np.eye(N) + 0.2 * (M + M.T)
            X = (Y + Y.T) / 2.0
            T = self.q.second_cofactor(r, A)
            value = float(np.einsum("ijkl,ij,kl->", T, X, X))
            errors.append(checks.check_second_cofactor(value, A, X, r))
        return errors


class Cli:
    """``python -m quermass.cli <subcommand> --json ...`` in a fresh interpreter per job.

    The parent runs the jobs (``run_job``); traced runs go through
    ``launch.py``, which installs the layer wrappers in the child.
    """

    def __init__(self, seed: int):
        import quermass
        import quermass.cli  # noqa: F401  (the import every CLI process pays)

        self.q = quermass
        self.seed = seed
        self.round(0)

    def _psi_doc(self, A: np.ndarray, amplitude: float) -> dict:
        return self.q.TestFunction.quadratic(A, amplitude=amplitude).to_json()

    def round(self, i: int):
        """Jobs as (label, argv, inputs).  Every job expects exit code 0."""
        rng = np.random.default_rng([self.seed, i])
        k_ball = int(rng.integers(1, 4))
        radius = float(rng.uniform(0.5, 2.0))
        amp_lpb = float(rng.uniform(0.02, 0.05))
        A5 = trace_free(rng, 5)
        lpb = json.dumps({"type": "log_perturbed_ball", "s": 1.0,
                          "psi": self._psi_doc(A5, amp_lpb)})
        box = [float(v) for v in np.round(rng.uniform(0.25, 2.0, 4), 3)]
        k_box = int(rng.integers(1, 5))
        k_conc = int(rng.integers(2, 4))
        A3 = trace_free(rng, 3)
        n_max_thr = int(rng.integers(8, 13))
        k_chr, p_chr = int(rng.integers(2, 5)), float(rng.uniform(0.0, 0.9))
        amp_poi = float(rng.uniform(0.5, 2.0))
        k_ibp, seed_ibp = int(rng.integers(1, 4)), int(rng.integers(0, 1 << 16))
        return [
            ("vk-ball", ["vk", "--n", "3", "--k", str(k_ball), "--body", f"ball:{radius!r}"],
             {"n": 3, "k": k_ball, "radius": radius}),
            ("vk-lpb", ["vk", "--n", "5", "--k", "3", "--body", lpb],
             {"n": 5, "k": 3, "max_abs_log_h": amp_lpb}),
            ("vk-box", ["vk", "--n", "4", "--k", str(k_box), "--vk-method", "closed-form",
                        "--body", "box:" + ",".join(repr(a) for a in box)],
             {"k": k_box, "box": box}),
            ("concavity", ["concavity", "--n", "3", "--k", str(k_conc),
                           "--psi", json.dumps(self._psi_doc(A3, 1.0)),
                           "--amplitude", repr(SCAN_AMPLITUDE)],
             {"n": 3, "k": k_conc, "A": A3}),
            ("thresholds", ["thresholds", "--n-min", "3", "--n-max", str(n_max_thr)],
             {"n_max": n_max_thr}),
            ("counterexample", ["counterexample", "--sweep", "--n-min", "3", "--n-max", "12"], {}),
            ("christoffel", ["christoffel", "--n", "4", "--k", str(k_chr), "--p", repr(p_chr),
                             "--body", "ball:1.0"], {"n": 4}),
            ("poincare", ["poincare", "--n", "4", "--psi", "zonal4", "--amplitude", repr(amp_poi)],
             {"n": 4}),
            ("ibp-check", ["ibp-check", "--n", "4", "--k", str(k_ibp), "--seed", str(seed_ibp)],
             {"n": 4}),
        ]

    @staticmethod
    def run_job(argv, report: Path, log: Path, env: dict, spans: Path | None):
        """Run one command; returns (exit code, peak RSS in KB)."""
        if spans is None:
            cmd = [sys.executable, "-m", "quermass.cli"]
        else:
            cmd = [sys.executable, "-X", "importtime", str(BENCH_DIR / "launch.py"), str(spans), "--"]
        with open(log, "w") as err:
            proc = subprocess.Popen(cmd + argv + ["--json", str(report)], env=env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    @staticmethod
    def check_job(label: str, code: int, inputs: dict, doc: dict):
        res = doc["results"]
        nodes = doc.get("grid", {}).get("node_count")
        errors = [checks.check_exit(code, 0)]
        if "n" in inputs:
            errors.append(checks.check_size(f"{label} grid nodes", nodes,
                                            REFERENCE_NODES[inputs["n"]]))
        if label == "vk-ball":
            errors.append(checks.check_vk_ball(inputs["n"], inputs["k"], inputs["radius"],
                                               res["value"]))
        elif label == "vk-lpb":
            errors.append(checks.check_vk_sandwich(inputs["n"], inputs["k"],
                                                   inputs["max_abs_log_h"], res["value"]))
        elif label == "vk-box":
            errors.append(checks.check_vk_box(inputs["box"], inputs["k"], res["value"]))
        elif label == "concavity":
            n, k = inputs["n"], inputs["k"]
            errors.append(checks.check_size("concavity s values", len(res["s_values"]), S_PER_SCAN))
            errors.append(checks.check_scan_verdict(k, res["verdict"]))
            i0 = res["s_values"].index(0.0)
            errors.append(checks.check_fk0(n, k, res["f_values"][i0]))
            errors.append(checks.check_fk2(n, k, SCAN_AMPLITUDE, inputs["A"],
                                           res["fsecond_values"][i0]))
            errors.extend(checks.check_scan_taylor(n, k, SCAN_AMPLITUDE, inputs["A"], *row)
                          for row in zip(res["s_values"], res["f_values"],
                                         res["fprime_values"], res["fsecond_values"]))
        elif label == "thresholds":
            errors.append(checks.check_thresholds(res["rows"], 3, inputs["n_max"]))
        elif label == "counterexample":
            errors.append(checks.check_size("sweep cases", len(res["verdicts"]),
                                            sum(n - 2 for n in range(3, 13))))
            for v in res["verdicts"]:
                x = v["extras"]
                errors.append(checks.check_sweep_case(x["n"], x["k"], x["p"], v["conclusion"],
                                                      x["vk_upper_bound"]))
        elif label == "christoffel":
            errors.append(checks.check_christoffel(res["max_abs_residual"]))
        elif label == "poincare":
            errors.append(checks.check_poincare(inputs["n"], 4, res["ratio"]))
        elif label == "ibp-check":
            errors.append(checks.check_ibp(res["residual_first"], res["scale_first"], "first"))
            errors.append(checks.check_ibp(res["residual_second"], res["scale_second"], "second"))
        return [e for e in errors if e]


WORKLOADS = {"scan": Scan, "certify": Certify, "identities": Identities, "cli": Cli}
