"""Acceptance gate: one criterion per test, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import contextlib
import io
import math
import time

import numpy as np

from quermass import (
    Ball,
    Box,
    LogPerturbedBall,
    PMeanSpec,
    TestFunction,
    VariationPath,
    ball_fk,
    ball_fk_prime,
    ball_fk_second,
    christoffel_residual_grid,
    cofactor,
    concavity_scan,
    elem_sym,
    f_k,
    f_k_prime,
    f_k_second,
    ibp_check,
    pmean_values,
    poincare_check,
    unit_ball_volume,
    v1_reverse_check,
    verify_counterexample,
    vk_quadrature,
)
from quermass.cli import main
from quermass.counterexamples import threshold_pbar


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _grids(grid3, grid4, grid5):
    return {3: grid3, 4: grid4, 5: grid5}


def test_criterion_1_ball_intrinsic_volumes(grid3, grid4, grid5):
    # V_k(B^n) = binom(n,k) kappa_n / kappa_{n-k}, relative error <= 1e-5
    # at reference resolution, <= 10 s per (n, k)
    grids = _grids(grid3, grid4, grid5)
    worst_rel, worst_case, max_dt = 0.0, None, 0.0
    ok = True
    for n, grid in grids.items():
        for k in range(1, n + 1):
            expected = math.comb(n, k) * unit_ball_volume(n) / unit_ball_volume(n - k)
            t0 = time.perf_counter()
            result = vk_quadrature(Ball(1.0), k, grid)
            dt = time.perf_counter() - t0
            rel = abs(result.value - expected) / expected
            if rel > worst_rel:
                worst_rel, worst_case = rel, (n, k)
            max_dt = max(max_dt, dt)
            ok = ok and rel <= 1e-5 and dt <= 10.0
    _report("criterion-1 ball V_k", ok,
            f"worst rel err {worst_rel:.2e} at (n,k)={worst_case}, "
            f"max runtime {max_dt:.2f}s over 12 cases")


def test_criterion_2_derivative_formulas(grid3, grid4, rng):
    # 20 random even quadratics, amplitude 0.05: analytic f_k'(0), f_k''(0)
    # vs finite differences (rel 1e-4) and vs closed forms (rel 1e-6)
    grids = {3: grid3, 4: grid4}
    d = 0.05  # FD step; smaller steps hit the quadrature noise floor
    worst_fd = worst_cf = 0.0
    cases = 0
    ok = True
    for n, grid in grids.items():
        for _ in range(10):
            M = rng.standard_normal((n, n))
            A = (M + M.T) / 2.0
            A -= np.trace(A) / n * np.eye(n)
            c0 = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
            psi = TestFunction.quadratic(A, constant=c0, amplitude=0.05)
            for k in range(2, n + 1):
                path = VariationPath(Ball(1.0), psi, k, grid)
                f = {s: f_k(path, s * d) for s in (-2, -1, 0, 1, 2)}
                fd1 = (-f[2] + 8 * f[1] - 8 * f[-1] + f[-2]) / (12 * d)
                fd2 = (-f[2] + 16 * f[1] - 30 * f[0] + 16 * f[-1] - f[-2]) / (12 * d * d)
                an1, an2 = f_k_prime(path, 0.0), f_k_second(path, 0.0)
                cf1 = ball_fk_prime(n, k, psi, grid)
                cf2 = ball_fk_second(n, k, psi, grid)
                scale = abs(f[0])
                worst_fd = max(worst_fd, abs(an1 - fd1) / scale, abs(an2 - fd2) / scale)
                worst_cf = max(worst_cf, abs(an1 - cf1) / scale, abs(an2 - cf2) / scale)
                cases += 1
    ok = worst_fd <= 1e-4 and worst_cf <= 1e-6
    _report("criterion-2 f_k derivative formulas", ok,
            f"{cases} cases; worst rel vs FD {worst_fd:.2e} (<=1e-4), "
            f"vs closed form {worst_cf:.2e} (<=1e-6)")


def test_criterion_3_local_log_concavity(grid3, grid4, grid5):
    # eps (x_1^2 - 1/n) with eps = 0.01: strictly concave on [-2, 2];
    # constant psi: concave with max |H| <= 1e-8 f_k(0)^2
    grids = _grids(grid3, grid4, grid5)
    s_values = np.linspace(-2.0, 2.0, 21)
    worst_h = -np.inf
    worst_const = 0.0
    ok = True
    for n, grid in grids.items():
        harmonic = TestFunction.coordinate_harmonic(n).scaled(0.01)
        const = TestFunction.constant(n, 0.5)
        for k in range(2, n + 1):
            rep = concavity_scan(VariationPath(Ball(1.0), harmonic, k, grid), s_values)
            ok = ok and rep.verdict == "strictly-concave"
            ok = ok and all(v < 0.0 for v in rep.concavity_values)
            worst_h = max(worst_h, max(rep.concavity_values))

            rep = concavity_scan(VariationPath(Ball(1.0), const, k, grid), s_values)
            f0 = ball_fk(n, k)
            rel = max(abs(v) for v in rep.concavity_values) / f0**2
            ok = ok and rep.verdict == "concave" and rel <= 1e-8
            worst_const = max(worst_const, rel)
    _report("criterion-3 local log-concavity", ok,
            f"harmonic scans strictly concave (max H {worst_h:.2e} < 0); "
            f"constant scans concave (max |H|/f^2 {worst_const:.2e} <= 1e-8)")


def test_criterion_4_poincare_sharpness(grid3, grid4):
    # x_1^2 - 1/n saturates the constant 1/(2n); degree-4 harmonics do not
    ok = True
    ratios = []
    for n, grid in ((3, grid3), (4, grid4)):
        res = poincare_check(TestFunction.coordinate_harmonic(n), grid)
        ok = ok and res.satisfied and abs(res.ratio - 1.0) <= 1e-4
        res4 = poincare_check(TestFunction.zonal_degree4(n), grid)
        ok = ok and res4.satisfied and res4.ratio < 1.0
        ratios.append((n, res.ratio, res4.ratio))
    detail = "; ".join(f"n={n}: harmonic {r1:.6f}, degree-4 {r4:.4f}"
                       for n, r1, r4 in ratios)
    _report("criterion-4 Poincare sharpness", ok, detail)


def test_criterion_5_counterexamples():
    # every (n, k) with 3 <= n <= 8, 2 <= k <= n-1 fails at p = pbar/2,
    # certified with positive margin in <= 1 s each
    worst_margin, max_dt, cases = np.inf, 0.0, 0
    ok = True
    for n in range(3, 9):
        for k in range(2, n):
            p = threshold_pbar(n, k) / 2.0
            t0 = time.perf_counter()
            v = verify_counterexample(n, k, p)
            dt = time.perf_counter() - t0
            ok = ok and v.conclusion == "inequality-fails" and v.margin > 0.0
            ok = ok and dt <= 1.0
            worst_margin = min(worst_margin, v.margin)
            max_dt = max(max_dt, dt)
            cases += 1
    # the anchor case: V_2 of the (4,2) combination at p = 1/2 is 1.5 < 4
    bound = verify_counterexample(4, 2, 0.5).extras["vk_upper_bound"]
    ok = ok and abs(bound - 1.5) <= 1e-12 and bound < 4.0
    _report("criterion-5 counterexample reproduction", ok,
            f"{cases} cases certified, min margin {worst_margin:.3e}, "
            f"max runtime {max_dt*1e3:.1f} ms; (4,2,0.5) bound "
            f"{bound} < 4")


def test_criterion_6_threshold_table(tmp_path):
    # three-branch pbar table for 3 <= n <= 10 via the CLI, with the branch
    # selector matching the defining case conditions and the stated bounds
    out = tmp_path / "thresholds.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["thresholds", "--n-min", "3", "--n-max", "10", "--out", str(out)])
    lines = out.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ok = rc == 0 and lines[0] == "n,k,branch,pbar,upper_bound" and len(rows) == 36
    for n_s, k_s, br, pbar_s, _ in rows:
        n, k, pbar = int(n_s), int(k_s), float(pbar_s)
        expected = "low" if 2 * k <= n else ("middle" if 3 * k <= 2 * n else "high")
        ok = ok and br == expected
        ok = ok and pbar == threshold_pbar(n, k)
        ok = ok and pbar < 1.0
        if br == "middle":
            ok = ok and pbar < 1.0 / math.log2(2.0 * n / 3.0)
        if br == "high":
            ok = ok and pbar <= 1.0 / math.log2(3.0) + 1e-15
    _report("criterion-6 threshold table", ok,
            f"{len(rows)} rows, branch selector and bounds verified for n=3..10")


def test_criterion_7_v1_reverse():
    # equality within 1e-9 for homothetic pairs and for a {0} factor;
    # strict positive margin for Box vs Ball at p = t = 1/2
    ok = True
    eq_cases = [
        v1_reverse_check(Ball(1.0), Ball(3.0), 0.7, 0.5, 3),
        v1_reverse_check(Ball(1.0), Ball(3.0), 0.0, 0.5, 3),
        v1_reverse_check(Box((1.0, 0.5, 2.0)), Box((2.5, 1.25, 5.0)), 0.5, 0.25, 3),
        v1_reverse_check(Box((0.0, 0.0, 0.0)), Box((1.0, 1.0, 1.0)), 0.0, 0.5, 3),
        v1_reverse_check(Box((0.0, 0.0, 0.0)), Box((1.0, 1.0, 1.0)), 0.5, 0.5, 3),
    ]
    worst_eq = max(abs(v.margin) for v in eq_cases)
    ok = ok and worst_eq <= 1e-9
    ok = ok and all(v.conclusion == "holds" for v in eq_cases)
    strict = v1_reverse_check(Box((1.0, 1.0, 1.0)), Ball(1.0), 0.5, 0.5, 3)
    ok = ok and strict.conclusion == "holds" and strict.margin > 5e-4
    _report("criterion-7 V_1 reverse inequality", ok,
            f"equality cases |margin| <= {worst_eq:.2e}; box-vs-ball strict "
            f"margin {strict.margin:+.3e}")


def test_criterion_8_identity_suite(grid3, rng):
    ok = True
    # S_r and cofactor at the identity: binomial values, exact for N <= 8
    exact = True
    for N in range(1, 9):
        I = np.eye(N)
        for r in range(N + 1):
            exact = exact and elem_sym(r, I) == float(math.comb(N, r))
        for r in range(1, N + 1):
            expected = math.comb(N - 1, r - 1) * np.eye(N)
            exact = exact and np.array_equal(cofactor(r, I), expected)
    ok = ok and exact

    # integration-by-parts residuals for 10 random instances
    worst_ibp = 0.0
    for _ in range(5):
        def quad():
            M = rng.standard_normal((3, 3))
            return TestFunction.quadratic((M + M.T) / 2.0,
                                          constant=rng.standard_normal(),
                                          amplitude=0.1)
        base = LogPerturbedBall(quad(), 0.5)
        phi, phibar, psi = quad(), quad(), quad()
        for k in (1, 2):
            res = ibp_check(base, phi, phibar, psi, k, grid3)
            worst_ibp = max(worst_ibp, res.residual_first, res.residual_second)
    ok = ok and worst_ibp <= 1e-5

    # 0-sum scaling identity: gauge of the 0-combination of K and lam K
    # equals lam^t h_K pointwise
    lam, t = 1.7, 0.3
    worst_scale = 0.0
    for K0, K1 in ((Ball(1.0), Ball(lam)),
                   (Box((1.0, 0.7, 1.3)), Box((lam, 0.7 * lam, 1.3 * lam)))):
        g = pmean_values(PMeanSpec(0.0, t, K0, K1), grid3.nodes)
        h0 = K0.support_values(grid3.nodes)
        worst_scale = max(worst_scale,
                          float(np.max(np.abs(g - lam**t * h0)) / np.max(h0)))
    ok = ok and worst_scale <= 1e-12

    # Christoffel residual at the ball
    _, chris = christoffel_residual_grid(Ball(1.0), 0.5, 2, grid3)
    ok = ok and chris <= 1e-8

    _report("criterion-8 identity suite", ok,
            f"identity-matrix values exact to N=8; ibp residual {worst_ibp:.2e} "
            f"<= 1e-5; 0-sum scaling {worst_scale:.2e} <= 1e-12; "
            f"Christoffel residual {chris:.2e} <= 1e-8")
