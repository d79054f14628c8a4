"""Correctness checks, computed apart from the program under test.

Each check takes what the program returned plus the job's inputs, works out
the expected answer from closed forms (or from an independent solver), and
returns ``None`` when the output is correct or a one-line reason when it is
not.  Nothing here imports ``quermass``; ``test_checks.py`` feeds every check
a perturbed value to show that it rejects a wrong answer.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances.  Each sits well above the error the current code shows on the
# benchmark's inputs (noted beside it) and well below the perturbation that
# ``test_checks.py`` applies.
FK0_RTOL = 1e-8            # finite-difference Q at the ball: ~1e-10
FK2_RTOL = 1e-7            # ~1e-11 relative on f_k''(0)
TAYLOR_C = 2.0             # cubic remainder / (|f_k(0)| (a|s|)^3): up to ~0.6 seen
BOX_RTOL = 1e-12           # the box bound is a short exact recurrence
CONTAINMENT_TOL = 1e-9     # the documented certificate tolerance
LP_ATOL = 1e-7             # simplex against HiGHS: ~1e-15
IBP_RTOL = 1e-6            # residual / scale
SECOND_COFACTOR_RTOL = 1e-6  # finite-difference second cofactor: ~1e-9
THIRD_RTOL = 1e-4          # central difference of f_k'' at step 0.01: ~3e-6
THIRD_F2_ATOL = 3e-8       # times |f_k''|; its rounding over 2 delta: ~3e-9
VK_RTOL = 1e-8             # ball quadrature on the reference grid
CHRISTOFFEL_ATOL = 1e-7    # residual at the unit ball: ~1e-10
POINCARE_RTOL = 1e-6       # finite-difference gradient: ~1e-10
PBAR_RTOL = 1e-12


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def sphere_area(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def kappa(j: int) -> float:
    """Volume of the unit ball in R^j."""
    return math.pi ** (j / 2.0) / math.gamma(j / 2.0 + 1.0)


def elementary_symmetric(values, k: int) -> float:
    e = [1.0] + [0.0] * k
    for v in values:
        for j in range(k, 0, -1):
            e[j] += v * e[j - 1]
    return e[k]


# -- scan ------------------------------------------------------------------

def fk0_expected(n: int, k: int) -> float:
    """f_k(0) at the unit ball: |S^{n-1}|/k * C(n-1, k-1)."""
    return sphere_area(n) / k * math.comb(n - 1, k - 1)


def fk2_expected(n: int, k: int, a: float, A: np.ndarray) -> float:
    """f_k''(0) at the unit ball along psi = a x^T A x with tr A = 0.

    The integral of (x^T A x)^2 over the sphere is |S^{n-1}| 2 tr(A^2)/(n(n+2));
    psi is a degree-2 harmonic, so Lap psi = -2n psi.  For k = 1, f_1 is linear
    in h and f_1''(0) is the integral of psi^2 alone.
    """
    int_psi2 = a * a * sphere_area(n) * 2.0 * float(np.trace(A @ A)) / (n * (n + 2))
    if k == 1:
        return int_psi2
    return math.comb(n - 2, n - k) * ((n - 1) * k / (k - 1) - 2 * n) * int_psi2


def check_fk0(n: int, k: int, value: float):
    want = fk0_expected(n, k)
    if _rel(value, want) > FK0_RTOL:
        return f"f_{k}(0) = {value!r}, expected {want!r}"
    return None


def check_fk2(n: int, k: int, a: float, A: np.ndarray, value: float):
    want = fk2_expected(n, k, a, A)
    if _rel(value, want) > FK2_RTOL:
        return f"f_{k}''(0) = {value!r}, expected {want!r}"
    return None


def check_scan_taylor(n: int, k: int, a: float, A: np.ndarray, s: float,
                      f: float, fprime: float, fsecond: float):
    """f_k, f_k', f_k'' at s against the quadratic Taylor polynomial at 0.

    psi is a degree-2 harmonic, so f_k'(0) = 0 and near the ball
    f_k(s) = f_k(0) + f_k''(0) s^2 / 2 + O((a|s|)^3 |f_k(0)|); the remainders
    of f_k' and f_k'' are one and two powers of |s| lower.  FK0_RTOL covers
    the finite-difference rounding where the cubic term is below it.
    """
    f0, f2 = fk0_expected(n, k), fk2_expected(n, k, a, A)
    cubic = TAYLOR_C * a ** 3
    for name, got, want, tol in (
            ("f", f, f0 + 0.5 * f2 * s * s, cubic * abs(s) ** 3),
            ("f'", fprime, f2 * s, cubic * s * s),
            ("f''", fsecond, f2, cubic * abs(s))):
        if not abs(got - want) <= (tol + FK0_RTOL) * abs(f0):
            return f"k={k} s={s!r}: {name}_k = {got!r}, Taylor polynomial at 0 gives {want!r}"
    return None


def check_scan_verdict(k: int, verdict: str):
    """Strictly concave for k >= 2; f_1 is linear in h, so H > 0 for k = 1."""
    want = "violated" if k == 1 else "strictly-concave"
    if verdict != want:
        return f"k={k}: verdict {verdict!r}, expected {want!r}"
    return None


# -- certify ---------------------------------------------------------------

def box_half_lengths(n: int, k: int, p: float) -> list[float]:
    """Gauge of (1/2).K_0 +_p (1/2).K_1 at +-e_i: cubes on the last and first k axes."""
    half = 2.0 ** (-1.0 / p)
    out = []
    for i in range(n):
        hits = (i < k) + (i >= n - k)
        out.append(1.0 if hits == 2 else half if hits == 1 else 0.0)
    return out


def check_sweep_case(n: int, k: int, p: float, conclusion: str, vk_upper_bound: float):
    """The box bound is 2^k e_k(a) < 2^k, so the inequality fails."""
    bound = 2.0 ** k * elementary_symmetric(box_half_lengths(n, k, p), k)
    if _rel(vk_upper_bound, bound) > BOX_RTOL:
        return f"n={n} k={k}: box bound {vk_upper_bound!r}, expected {bound!r}"
    if not bound < 2.0 ** k:
        return f"n={n} k={k}: box bound {bound!r} does not prove failure"
    if conclusion != "inequality-fails":
        return f"n={n} k={k}: conclusion {conclusion!r}"
    return None


def check_containment(n: int, k: int, violation: float):
    if not violation <= CONTAINMENT_TOL:
        return f"n={n} k={k}: containment violation {violation!r} > {CONTAINMENT_TOL}"
    return None


def containment_reference(n: int, k: int, p: float, nodes: np.ndarray) -> float:
    """The worst violation max_u (LP support of K_p at u - h_box(u)), by HiGHS.

    Same constraint directions as the program: the nodes plus all +-e_i.
    """
    D = np.vstack([nodes, np.eye(n), -np.eye(n)])
    f = cube_pair_gauge(n, k, p, D)
    box = np.asarray(box_half_lengths(n, k, p))
    return max(highs_support(D, f, u) - float(np.abs(u) @ box) for u in nodes)


def check_containment_value(n: int, k: int, violation: float, reference: float):
    """Two-sided: a violation that is too low is as wrong as one too high."""
    if not abs(violation - reference) <= LP_ATOL * (1.0 + abs(reference)):
        return f"n={n} k={k}: containment violation {violation!r}, HiGHS gives {reference!r}"
    return None


def cube_pair_gauge(n: int, k: int, p: float, U: np.ndarray) -> np.ndarray:
    """((h_0^p + h_1^p)/2)^{1/p} for the cube pair at directions U."""
    h0 = np.abs(U[:, n - k:]).sum(axis=1)
    h1 = np.abs(U[:, :k]).sum(axis=1)
    return (0.5 * h0 ** p + 0.5 * h1 ** p) ** (1.0 / p)


def highs_support(D: np.ndarray, f: np.ndarray, u: np.ndarray) -> float:
    """max u.x subject to D x <= f, solved by HiGHS."""
    from scipy.optimize import linprog

    res = linprog(-u, A_ub=D, b_ub=f, bounds=[(None, None)] * D.shape[1], method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(-res.fun)


def check_lp_value(value: float, reference: float):
    if abs(value - reference) > LP_ATOL * (1.0 + abs(reference)):
        return f"LP support {value!r}, HiGHS gives {reference!r}"
    return None


def check_wulff_estimate(estimate_scaled: float, gauge_bound: float, p: float):
    """The Wulff support never exceeds the gauge, so its V_1 estimate cannot either.

    ``v1_wulff_estimate`` is on the V_1^p scale while ``v1_gauge_bound`` is
    V_1 itself; compare on the V_1^p scale.
    """
    bound = gauge_bound ** p if p > 0.0 else gauge_bound
    if not estimate_scaled <= bound * (1.0 + 1e-12) + 1e-12:
        return f"Wulff estimate {estimate_scaled!r} above gauge bound {bound!r}"
    return None


def box_ball_gauge(half, radius: float, p: float, t: float, U: np.ndarray) -> np.ndarray:
    """((1-t) h_box^p + t h_ball^p)^{1/p}, 0 < p, 0 < t < 1."""
    h0 = np.abs(U) @ np.asarray(half, dtype=float)
    return ((1.0 - t) * h0 ** p + t * radius ** p) ** (1.0 / p)


def wulff_estimate_reference(half, radius: float, p: float, t: float,
                             nodes: np.ndarray, weights: np.ndarray) -> float:
    """V_1 estimate of the Wulff shape of the box-ball gauge, on the V_1^p scale, by HiGHS."""
    f = box_ball_gauge(half, radius, p, t, nodes)
    n = nodes.shape[1]
    vals = np.array([highs_support(nodes, f, u) for u in nodes])
    return (float(weights @ vals) / kappa(n - 1)) ** p


def check_wulff_value(estimate_scaled: float, reference: float):
    if not abs(estimate_scaled - reference) <= LP_ATOL * abs(reference):
        return f"Wulff estimate {estimate_scaled!r}, HiGHS gives {reference!r}"
    return None


# -- identities ------------------------------------------------------------

def check_ibp(residual: float, scale: float, which: str):
    if not residual <= IBP_RTOL * scale:
        return f"{which} IBP residual {residual!r} above {IBP_RTOL} x {scale!r}"
    return None


def second_cofactor_contraction(A: np.ndarray, X: np.ndarray, r: int) -> float:
    """2 [eps^2] S_r(A + eps X), with S_r from eigenvalues.

    S_r(A + eps X) is a polynomial of degree r in eps, so interpolation at
    r + 1 Chebyshev points recovers its coefficients exactly up to rounding.
    """
    eps = np.cos(np.pi * (np.arange(r + 1) + 0.5) / (r + 1))
    vals = [elementary_symmetric(np.linalg.eigvalsh(A + e * X), r) for e in eps]
    coeffs = np.linalg.solve(np.vander(eps, r + 1, increasing=True), vals)
    return 2.0 * float(coeffs[2]) if r >= 2 else 0.0


def check_second_cofactor(value: float, A: np.ndarray, X: np.ndarray, r: int):
    want = second_cofactor_contraction(A, X, r)
    scale = max(abs(want), float(np.sum(X * X)))
    if abs(value - want) > SECOND_COFACTOR_RTOL * scale:
        return f"<S_{r}^(ij,kl), X (x) X> = {value!r}, expected {want!r}"
    return None


def check_third(f3: float, f2_plus: float, f2_minus: float, delta: float):
    """f_k''' against (f_k''(s + delta) - f_k''(s - delta)) / (2 delta).

    The absolute term covers the rounding of f_k'' divided by 2 delta, for
    when f_k''' itself is near zero.
    """
    want = (f2_plus - f2_minus) / (2.0 * delta)
    tol = THIRD_RTOL * abs(want) + THIRD_F2_ATOL * max(abs(f2_plus), abs(f2_minus))
    if not abs(f3 - want) <= tol:
        return f"f_k''' = {f3!r}, central difference {want!r}"
    return None


# -- cli -------------------------------------------------------------------

def check_exit(code: int, expected: int):
    if code != expected:
        return f"exit code {code}, expected {expected}"
    return None


def vk_ball_expected(n: int, k: int, radius: float) -> float:
    return math.comb(n, k) * kappa(n) / kappa(n - k) * radius ** k


def check_vk_ball(n: int, k: int, radius: float, value: float):
    want = vk_ball_expected(n, k, radius)
    if _rel(value, want) > VK_RTOL:
        return f"V_{k} of a ball of radius {radius} in R^{n} = {value!r}, expected {want!r}"
    return None


def check_vk_sandwich(n: int, k: int, max_abs_log_h: float, value: float):
    """e^{-m} B <= K <= e^{m} B when |log h| <= m, and V_k is k-homogeneous."""
    ball = vk_ball_expected(n, k, 1.0)
    lo, hi = ball * math.exp(-k * max_abs_log_h), ball * math.exp(k * max_abs_log_h)
    if not lo <= value <= hi:
        return f"V_{k} = {value!r} outside [{lo!r}, {hi!r}]"
    return None


def check_vk_box(half_lengths, k: int, value: float):
    want = 2.0 ** k * elementary_symmetric(half_lengths, k)
    if _rel(value, want) > BOX_RTOL:
        return f"V_{k} of box {half_lengths} = {value!r}, expected {want!r}"
    return None


def pbar_expected(n: int, k: int) -> float:
    if 2 * k <= n:
        return k / math.log2(math.comb(2 * k, k))
    if 3 * k <= 2 * n:
        return 1.0 / math.log2(sum(math.comb(2 * (n - k), i) for i in range(1, k + 1)))
    return 1.0 / math.log2(2.0 ** (2 * (n - k)) - 1.0)


def check_thresholds(rows, n_min: int, n_max: int):
    want = [(n, k) for n in range(n_min, n_max + 1) for k in range(2, n)]
    got = [(r["n"], r["k"]) for r in rows]
    if got != want:
        return f"threshold table covers {len(got)} cases, expected {len(want)}"
    for r in rows:
        if _rel(r["pbar"], pbar_expected(r["n"], r["k"])) > PBAR_RTOL:
            return f"pbar_({r['n']},{r['k']}) = {r['pbar']!r}, expected {pbar_expected(r['n'], r['k'])!r}"
    return None


def check_christoffel(max_abs_residual: float):
    if not max_abs_residual <= CHRISTOFFEL_ATOL:
        return f"Christoffel residual at the unit ball {max_abs_residual!r}"
    return None


def check_poincare(n: int, ell: int, ratio: float):
    """int psi^2 / ((1/2n) int |grad psi|^2) = 2n / (ell (ell + n - 2)) for a degree-ell harmonic."""
    want = 2.0 * n / (ell * (ell + n - 2))
    if _rel(ratio, want) > POINCARE_RTOL:
        return f"Poincare ratio {ratio!r}, expected {want!r}"
    return None


def check_size(what: str, got, want):
    """Input size of a job: a change may not shrink the work unnoticed."""
    if got != want:
        return f"{what} = {got!r}, expected {want!r}"
    return None
