"""Explicit failure of the p-Brunn-Minkowski inequality for V_k, 2 <= k <= n-1.

Take two k-cubes of side 2 spanning complementary-ish coordinate blocks:
K_0 on coordinates {n-k+1, ..., n} and K_1 on {1, ..., k} (1-based), so
V_k(K_0) = V_k(K_1) = 2^k.  For K_p = (1/2).K_0 +_p (1/2).K_1 the gauge at
a coordinate direction +-e_i is

    2^{-1/p}  if exactly one cube has support 1 there,
    1         if both do (overlap block, k > n/2),
    0         if neither (gap block, k < n/2),

and K_p is exactly the axis-aligned box B_p with those half-lengths (see
``enclosing_box``), so V_k(K_p) = V_k(B_p).  Bounding V_k(B_p) by a
per-branch closed form and setting it equal to 2^k gives the threshold

    pbar_{n,k} =
      k / log2 binom(2k, k)                          if 2k <= n      (low)
      1 / log2 ( sum_{i=1}^k binom(2(n-k), i) )      if n < 2k <= 4n/3 - ...
                                                     i.e. 3k <= 2n   (middle)
      1 / log2 ( 2^{2(n-k)} - 1 )                    if 3k > 2n      (high)

for the inequality

    V_k((1-t).K_0 +_p t.K_1)^{p/k} >= (1-t) V_k(K_0)^{p/k} + t V_k(K_1)^{p/k}

at t = 1/2.  Since V_k(K_p) = V_k(B_p), comparing V_k(B_p) with 2^k
decides the cube pair exactly, up to rounding; what is certified is
failure wherever V_k(B_p) < 2^k.  The report keeps the name
``vk_upper_bound`` for this exact value.  On the low and middle branches
the closed form bounds V_k(B_p) from above, so the pair fails for every
p < pbar.  On the high branch it does not.  For k = n - 1 the box gives
V_{n-1} = 2^{n-1} (2h + (n-2) h^2) with h = 2^{-1/p}, so the pair fails
exactly for h < 1/(sqrt(n-1) + 1), i.e. below p* = 1/log2(sqrt(n-1) + 1),
while pbar = 1/log2(3).  For n >= 6, p* < pbar: just below pbar the
inequality holds for this pair at t = 1/2, and ``verify_counterexample``
is inconclusive at 0.99 pbar for exactly the 25 pairs k = n - 1,
6 <= n <= 30, among all pairs with n <= 30 (p*/pbar = 0.59 at n = 30).
At pbar/2 (h = 1/9) the pair fails up to n = 64, meets 2^k with equality
at n = 65 and satisfies the inequality from n = 66 on.  Along every
branch pbar < 1: the low branch decreases to 1/2 as k grows, the middle
branch is below 1/log2(2n/3), and the high branch is at most 1/log2(3).

In contrast, for k = 1 the reverse inequality always holds:

    V_1((1-t).K_0 +_p t.K_1)^p <= (1-t) V_1(K_0)^p + t V_1(K_1)^p,

with equality iff one body is {0} or the bodies are dilates.  V_1 is
(1/kappa_{n-1}) int h, linear in h, so integrating the combination gauge
(an upper bound for the support of the Wulff shape) bounds the left side
from above, up to the quadrature error of that integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import Body, Box, PMeanSpec, WulffSampled, coordinate_cube, pmean_values
from .errors import DomainError
from .intrinsic import unit_ball_volume, vk_box, vk_closed_form
from .sphere import REFERENCE_RESOLUTION, SphericalGrid, _check_grid_dimension, build_grid

#: Relative guard band for strict comparisons of rigorously bounded quantities.
COMPARISON_GUARD = 1e-12
#: Slack allowed when the V_1 bound is compared with the reverse inequality.
REVERSE_TOLERANCE = 1e-9


def _check_nk(n: int, k: int) -> None:
    if n < 3:
        raise DomainError(f"counterexamples need n >= 3, got n={n}")
    if not 2 <= k <= n - 1:
        raise DomainError(f"order k must satisfy 2 <= k <= n-1, got k={k}")


def cube_pair(n: int, k: int) -> tuple[Box, Box]:
    """The two k-cubes: K_0 on the last k coordinates, K_1 on the first k."""
    _check_nk(n, k)
    return coordinate_cube(n, range(n - k, n)), coordinate_cube(n, range(k))


def branch(n: int, k: int) -> str:
    """Which threshold formula applies; decided by exact integer comparisons."""
    _check_nk(n, k)
    if 2 * k <= n:
        return "low"
    if 3 * k <= 2 * n:
        return "middle"
    return "high"


def _branch_constants(n: int, k: int) -> tuple[int, int]:
    """(C, e) of the branch: the closed form is 2^k C 2^{-e/p}, so pbar = e / log2 C."""
    b = branch(n, k)
    if b == "low":
        return math.comb(2 * k, k), k
    if b == "middle":
        return sum(math.comb(2 * (n - k), i) for i in range(1, k + 1)), 1
    return 4 ** (n - k) - 1, 1


def threshold_pbar(n: int, k: int) -> float:
    """Threshold pbar_{n,k}: the per-branch closed form for V_k(K_p) equals 2^k.

    On the low and middle branches the cube pair fails the inequality for
    every p < pbar.  On the high branch with k = n - 1 and n >= 6 it fails
    only below p* = 1 / log2(sqrt(n-1) + 1) < pbar (module docstring).
    """
    count, exponent = _branch_constants(n, k)
    return exponent / math.log2(count)


def enclosing_box(n: int, k: int, p: float) -> Box:
    """The axis-aligned box B_p, which equals K_p = (1/2).K_0 +_p (1/2).K_1.

    The half-length on coordinate i is the gauge g of K_p at +-e_i, the
    p-mean M_p(a_i, b_i; 1/2) = ((a_i + b_i)/2)^{1/p} of the cubes'
    half-lengths a_i, b_i in {0, 1}: 0, 2^{-1/p} or 1 as zero, one or both
    cubes cover i.  K_p lies in B_p because a Wulff shape lies in every
    half-space {x.v <= g(v)}.  B_p lies in K_p because g >= h_{B_p}
    everywhere: for 0 < p <= 1, M_p is concave and 1-homogeneous, hence
    superadditive, so splitting h_0(u) and h_1(u) over the coordinates
    gives g(u) >= sum_i M_p(a_i, b_i; 1/2) |u_i| = h_{B_p}(u).  So
    g = h_{B_p}, and K_p = B_p exactly.
    """
    _check_nk(n, k)
    if not 0.0 < p <= 1.0:
        raise DomainError(f"p must lie in (0, 1], got {p}")
    m_p = (0.0, 0.5 ** (1.0 / p), 1.0)
    return Box(tuple([m_p[(i < k) + (i >= n - k)] for i in range(n)]))


@dataclass(frozen=True)
class Verdict:
    """Outcome of a rigorous inequality check.

    ``lhs`` and ``rhs`` are on the comparison scale stated by ``method``;
    ``margin`` = rhs - lhs is positive when the inequality under test
    fails by a certified amount.  ``conclusion`` is one of
    ``inequality-fails``, ``holds``, ``inconclusive``.
    """

    lhs: float
    rhs: float
    margin: float
    tolerance: float
    method: str
    conclusion: str
    extras: dict = field(default_factory=dict)


def verify_counterexample(n: int, k: int, p: float) -> Verdict:
    """Certify failure of the p-Brunn-Minkowski inequality for V_k at t = 1/2.

    The inequality would give V_k(K_p)^{p/k} >= (1/2) V_k(K_0)^{p/k} +
    (1/2) V_k(K_1)^{p/k}, i.e. V_k(K_p) >= 2^k.  The verdict compares
    V_k(K_p) = V_k(B_p), exact up to rounding (``enclosing_box``), with 2^k:

    - V_k(B_p) < 2^k (1 - COMPARISON_GUARD) -> ``inequality-fails`` with
      positive margin;
    - otherwise -> ``inconclusive``.

    ``extras`` carries V_k(B_p) as ``vk_upper_bound`` and the per-branch
    closed form 2^k [ binom(2k,k) 2^{-k/p} | C_{n,k} 2^{-1/p} |
    (2^{2(n-k)} - 1) 2^{-1/p} ] that defines pbar as ``vk_displayed_bound``.
    DomainError if either, or 2^k, is not a finite double.
    """
    count, exponent = _branch_constants(n, k)
    try:
        box_value = vk_box(enclosing_box(n, k, p).half_lengths, k).value
        target = 2.0 ** k  # V_k(K_0) = V_k(K_1) = 2^k; OverflowError past the range
        displayed = target * count * 2.0 ** (-exponent / p)
        finite = math.isfinite(box_value) and math.isfinite(displayed)
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(f"n={n}, k={k} is out of double range: V_k(B_p), 2^k or the "
                          f"per-branch closed form is not a finite double")
    # Comparison scale of the stated inequality: V_k^{p/k}.
    lhs_scaled = box_value ** (p / k)
    rhs_scaled = target ** (p / k)
    fails = box_value < target * (1.0 - COMPARISON_GUARD)
    verdict = "inequality-fails" if fails else "inconclusive"
    return Verdict(
        lhs=lhs_scaled,
        rhs=rhs_scaled,
        margin=rhs_scaled - lhs_scaled,
        tolerance=COMPARISON_GUARD,
        method="enclosing-box",
        conclusion=verdict,
        extras={
            "n": n, "k": k, "p": p, "t": 0.5,
            "branch": branch(n, k),
            "pbar": threshold_pbar(n, k),
            "vk_upper_bound": box_value,
            "vk_displayed_bound": displayed,
            "vk_target": target,
            "vk_margin": target - box_value,
        },
    )


def threshold_table(n_min: int = 3, n_max: int = 10) -> list[dict]:
    """Rows (n, k, branch, pbar) for all valid (n, k) in the range."""
    if n_min < 3 or n_max < n_min:
        raise DomainError("need 3 <= n_min <= n_max")
    rows = []
    for n in range(n_min, n_max + 1):
        for k in range(2, n):
            rows.append({
                "n": n,
                "k": k,
                "branch": branch(n, k),
                "pbar": threshold_pbar(n, k),
            })
    return rows


def containment_check(n: int, k: int, p: float, grid: SphericalGrid) -> float:
    """Max over grid nodes u of (a bound on h_P(u)) - h_box(u).

    P = {x : x.v <= g(v)} is the outer polytope of K_p: its directions v
    are the grid nodes plus all +-e_i, and g is the p-mean gauge.  Weak
    duality bounds its support without solving an LP: the multipliers
    (u_i)_+ on the +e_i rows and (-u_i)_+ on the -e_i rows are nonnegative
    and combine the rows to u exactly, so for every x in P

        u.x <= sum_i (u_i)_+ g(e_i) + (-u_i)_+ g(-e_i).

    A return <= 1e-9 therefore certifies P inside the enclosing box, and
    the bound holds at every unit u, not only at the nodes.  It costs
    O(mn) for m nodes; only the 2n gauge values at +-e_i are evaluated.
    DomainError unless the grid is on S^{n-1}.
    """
    _check_nk(n, k)
    _check_grid_dimension(grid, n)
    K0, K1 = cube_pair(n, k)
    g = pmean_values(PMeanSpec(p, 0.5, K0, K1), np.vstack([np.eye(n), -np.eye(n)]))
    U = grid.nodes
    bound = np.clip(U, 0.0, None) @ g[:n] + np.clip(-U, 0.0, None) @ g[n:]
    h_box = enclosing_box(n, k, p).support_values(U)
    return float(np.max(bound - h_box))


def v1_reverse_check(body0: Body, body1: Body, p: float, t: float, n: int,
                     grid: SphericalGrid | None = None,
                     wulff_estimate: bool = False) -> Verdict:
    """Check the reverse inequality for the mean-width functional V_1:

        V_1((1-t).K_0 +_p t.K_1)^p <= (1-t) V_1(K_0)^p + t V_1(K_1)^p.

    The left side is bounded from above by integrating the combination
    gauge:  V_1(K[f]) = (1/kappa_{n-1}) int h_{K[f]} <= (1/kappa_{n-1}) int f,
    because the support function of a Wulff shape never exceeds its gauge
    and V_1 is linear and monotone in h.  int f is a quadrature value, so
    the bound holds up to the quadrature error of int f.  Two
    equality configurations short-circuit to exact values: one body {0}
    (gauge is t^{1/p} h_1, itself a support function) and dilate pairs
    (gauge pointwise proportional to a support function), so the
    acceptance-grade equality cases carry no quadrature error at all.

    ``conclusion`` is ``holds`` when the bound certifies the inequality
    within ``REVERSE_TOLERANCE``, else ``inconclusive`` (the bound, not the
    inequality, failed; refine the grid).  The non-rigorous arithmetic-mean bound and,
    optionally, a Wulff LP estimate of the left side land in ``extras``.

    ``grid=None`` picks a product-angular grid for 3 <= n <= 6 (finer for
    kinked bodies); other n raise ``DomainError`` and need an explicit grid,
    which must be on S^{n-1} (else ``DomainError``).
    """
    spec = PMeanSpec(p, t, body0, body1)
    v0 = vk_closed_form(body0, 1, n).value
    v1 = vk_closed_form(body1, 1, n).value
    if p == 0.0:
        rhs = v0 ** (1.0 - t) * v1 ** t if v0 > 0.0 and v1 > 0.0 else 0.0
    else:
        rhs = (1.0 - t) * v0 ** p + t * v1 ** p

    if grid is None:
        # Kinked gauges converge only at rate resolution^-2; compensate.
        kinked_res = {3: 400, 4: 48, 5: 20, 6: 10}
        if n not in kinked_res:
            raise DomainError(f"no default grid for n={n}; pass an explicit grid")
        smooth = getattr(body0, "is_smooth", False) and getattr(body1, "is_smooth", False)
        res = REFERENCE_RESOLUTION[n] if smooth else kinked_res[n]
        grid = build_grid(n, res, "product-angular")
    _check_grid_dimension(grid, n)
    gauge = pmean_values(spec, grid.nodes)
    kappa = unit_ball_volume(n - 1)
    mean_width_bound = float(np.dot(grid.weights, gauge)) / kappa

    extras = {
        "v1_body0": v0,
        "v1_body1": v1,
        "v1_gauge_bound": mean_width_bound,
        "arithmetic_mean_v1": (1.0 - t) * v0 + t * v1,
    }

    h0 = np.asarray(body0.support_values(grid.nodes), dtype=float)
    h1 = np.asarray(body1.support_values(grid.nodes), dtype=float)
    zero_body = (v0 == 0.0 or v1 == 0.0) and p > 0.0
    dilate_scale = None
    if not zero_body and v0 > 0.0 and np.all(h0 > 0.0):
        ratios = gauge / h0
        if np.max(ratios) - np.min(ratios) <= 1e-12 * np.max(ratios):
            dilate_scale = float(np.max(ratios))

    if zero_body:
        # Gauge is an exact support function of a scaled body: no Wulff gap.
        scale = ((1.0 - t) if v1 == 0.0 else t) ** (1.0 / p)
        exact = scale * (v0 if v1 == 0.0 else v1)
        lhs = exact ** p
        method = "degenerate-exact"
    elif dilate_scale is not None:
        lhs = (dilate_scale * v0) ** p if p > 0.0 else dilate_scale * v0
        method = "dilate-exact"
    else:
        lhs = mean_width_bound ** p if p > 0.0 else mean_width_bound
        method = "gauge-mean-width-bound"
    if wulff_estimate:
        vals = WulffSampled(grid.nodes, gauge).support_values(grid.nodes)
        est = float(np.dot(grid.weights, vals)) / kappa
        extras["v1_wulff_estimate"] = est ** p if p > 0.0 else est

    margin = rhs - lhs
    conclusion = "holds" if lhs <= rhs + REVERSE_TOLERANCE else "inconclusive"
    return Verdict(
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        tolerance=REVERSE_TOLERANCE,
        method=method,
        conclusion=conclusion,
        extras=extras,
    )
