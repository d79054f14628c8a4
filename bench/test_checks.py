"""Each correctness check accepts the program's answer and rejects a perturbed one.

Run from the repository root:  python -m pytest bench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import quermass as q  # noqa: E402
from quermass import counterexamples as cx  # noqa: E402

import checks  # noqa: E402
from workloads import trace_free  # noqa: E402

#: Relative perturbation applied to a correct answer; every check must catch it.
WRONG = 1e-3


def accepts_and_rejects(check, value, *args):
    assert check(*args, value) is None
    assert check(*args, value * (1.0 + WRONG)) is not None
    assert check(*args, value * (1.0 - WRONG)) is not None


@pytest.fixture(scope="module")
def grid3():
    return q.build_grid(3, 14, "product-angular")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_scan_closed_forms(grid3, k):
    A = trace_free(np.random.default_rng(k), 3)
    path = q.VariationPath(q.Ball(1.0), q.TestFunction.quadratic(A, amplitude=0.01), k, grid3)
    rep = q.concavity_scan(path, [0.0])
    accepts_and_rejects(checks.check_fk0, rep.f_values[0], 3, k)
    accepts_and_rejects(checks.check_fk2, rep.fsecond_values[0], 3, k, 0.01, A)
    assert checks.check_scan_verdict(k, rep.verdict) is None
    wrong = "strictly-concave" if k == 1 else "violated"
    assert checks.check_scan_verdict(k, wrong) is not None


@pytest.mark.parametrize("k", [1, 2, 3])
def test_scan_taylor(grid3, k):
    """Every s of a scan is checked, not only s = 0."""
    A = trace_free(np.random.default_rng(k), 3)
    path = q.VariationPath(q.Ball(1.0), q.TestFunction.quadratic(A, amplitude=0.01), k, grid3)
    for s in (-1.9, 0.3, 1.3):
        rep = q.concavity_scan(path, [s])
        f, f1, f2 = rep.f_values[0], rep.fprime_values[0], rep.fsecond_values[0]
        assert checks.check_scan_taylor(3, k, 0.01, A, s, f, f1, f2) is None
        assert checks.check_scan_taylor(3, k, 0.01, A, s, f * (1.0 + WRONG), f1, f2) is not None
        assert checks.check_scan_taylor(3, k, 0.01, A, s, f * (1.0 - WRONG), f1, f2) is not None
        # f_k' and f_k'' are a^2 smaller than f_k, and the cubic remainder allowed
        # for them is a few percent of their size at |s| ~ 1, so perturb them by half.
        assert checks.check_scan_taylor(3, k, 0.01, A, s, f, 1.5 * f1, f2) is not None
        assert checks.check_scan_taylor(3, k, 0.01, A, s, f, f1, 1.5 * f2) is not None


def test_sweep_case():
    n, k = 7, 3
    p = cx.threshold_pbar(n, k) / 2.0
    v = q.verify_counterexample(n, k, p)
    bound = v.extras["vk_upper_bound"]
    assert checks.check_sweep_case(n, k, p, v.conclusion, bound) is None
    assert checks.check_sweep_case(n, k, p, v.conclusion, bound * (1.0 + WRONG)) is not None
    assert checks.check_sweep_case(n, k, p, "inconclusive", bound) is not None
    # Near pbar the box no longer proves failure, whatever the program says.
    p_hi = 0.999 * cx.threshold_pbar(29, 28)
    b_hi = 2.0 ** 28 * checks.elementary_symmetric(checks.box_half_lengths(29, 28, p_hi), 28)
    assert checks.check_sweep_case(29, 28, p_hi, "inequality-fails", b_hi) is not None


@pytest.mark.parametrize("n,k", [(3, 2), (5, 2)])
def test_containment(n, k):
    grid = q.build_grid(n, 3, "product-angular")
    viol = q.containment_check(n, k, 0.3, grid)
    assert checks.check_containment(n, k, viol) is None
    assert checks.check_containment(n, k, 1e-6) is not None
    ref = checks.containment_reference(n, k, 0.3, grid.nodes)
    assert checks.check_containment_value(n, k, viol, ref) is None
    assert checks.check_containment_value(n, k, viol - 1e-3, ref) is not None
    assert checks.check_containment_value(n, k, -math.inf, ref) is not None


def test_box_half_lengths_match_program():
    for n, k, p in [(3, 2, 0.3), (5, 2, 0.2), (5, 3, 0.4)]:
        assert checks.box_half_lengths(n, k, p) == list(cx.enclosing_box(n, k, p).half_lengths)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2)])
def test_lp_value_against_highs(n, k):
    nodes = q.build_grid(n, 3, "product-angular").nodes
    D = np.vstack([nodes, np.eye(n), -np.eye(n)])
    f = checks.cube_pair_gauge(n, k, 0.2, D)
    u = nodes[5]
    value, _ = q.wulff_support_upper(D, f, u)
    ref = checks.highs_support(D, f, u)
    accepts_and_rejects(lambda v: checks.check_lp_value(v, ref), value)


def test_cube_pair_gauge_matches_program():
    U = q.build_grid(5, 3, "product-angular").nodes
    K0, K1 = q.cube_pair(5, 2)
    want = q.pmean_values(q.PMeanSpec(0.3, 0.5, K0, K1), U)
    np.testing.assert_allclose(checks.cube_pair_gauge(5, 2, 0.3, U), want, rtol=1e-14)


def test_wulff_estimate():
    grid = q.build_grid(3, 4, "product-angular")
    half = (1.0, 0.5, 2.0)
    v = q.v1_reverse_check(q.Box(half), q.Ball(0.8), 0.5, 0.3, 3,
                           grid=grid, wulff_estimate=True)
    est, bound = v.extras["v1_wulff_estimate"], v.extras["v1_gauge_bound"]
    assert checks.check_wulff_estimate(est, bound, 0.5) is None
    assert checks.check_wulff_estimate(math.sqrt(bound) * (1.0 + WRONG), bound, 0.5) is not None
    ref = checks.wulff_estimate_reference(half, 0.8, 0.5, 0.3, grid.nodes, grid.weights)
    accepts_and_rejects(lambda e: checks.check_wulff_value(e, ref), est)


def test_box_ball_gauge_matches_program():
    U = q.build_grid(4, 3, "product-angular").nodes
    half = (0.7, 1.2, 0.5, 1.9)
    want = q.pmean_values(q.PMeanSpec(0.4, 0.6, q.Box(half), q.Ball(1.3)), U)
    np.testing.assert_allclose(checks.box_ball_gauge(half, 1.3, 0.4, 0.6, U), want, rtol=1e-14)


def test_ibp(grid3):
    rng = np.random.default_rng(0)

    def quad():
        M = rng.standard_normal((3, 3))
        return q.TestFunction.quadratic((M + M.T) / 2.0, constant=1.0, amplitude=0.1)

    r = q.ibp_check(q.LogPerturbedBall(quad(), 0.5), quad(), quad(), quad(), 2, grid3)
    assert checks.check_ibp(r.residual_first, r.scale_first, "first") is None
    assert checks.check_ibp(r.residual_second, r.scale_second, "second") is None
    assert checks.check_ibp(WRONG * r.scale_first, r.scale_first, "first") is not None


@pytest.mark.parametrize("r", [2, 3, 4])
def test_second_cofactor(r):
    rng = np.random.default_rng(r)
    M, Y = rng.standard_normal((2, 4, 4))
    A, X = np.eye(4) + 0.2 * (M + M.T), (Y + Y.T) / 2.0
    value = float(np.einsum("ijkl,ij,kl->", q.second_cofactor(r, A), X, X))
    accepts_and_rejects(lambda v: checks.check_second_cofactor(v, A, X, r), value)


def test_second_cofactor_reference_at_identity():
    # S_2(I + eps X) = C(N,2) + (N-1) eps tr X + eps^2 S_2(X)
    X = np.diag([1.0, 2.0, 3.0])
    assert math.isclose(checks.second_cofactor_contraction(np.eye(3), X, 2), 2.0 * 11.0)


def test_third(grid3):
    A = trace_free(np.random.default_rng(3), 3)
    path = q.VariationPath(q.Ball(1.0), q.TestFunction.quadratic(A, amplitude=0.05), 3, grid3)
    s, d = 0.37, 0.01
    f3 = q.f_k_third(path, s)
    f2p, f2m = q.f_k_second(path, s + d), q.f_k_second(path, s - d)
    assert checks.check_third(f3, f2p, f2m, d) is None
    assert checks.check_third(f3 * (1.0 + 10 * WRONG), f2p, f2m, d) is not None


def test_cli_checks():
    assert checks.check_exit(0, 0) is None
    assert checks.check_exit(3, 0) is not None
    accepts_and_rejects(checks.check_vk_ball, q.vk_ball(3, 2, 1.7).value, 3, 2, 1.7)
    accepts_and_rejects(checks.check_vk_box, q.vk_box((0.5, 1.0, 2.0, 0.25), 2).value,
                        (0.5, 1.0, 2.0, 0.25), 2)
    ball = q.vk_ball(5, 3).value
    assert checks.check_vk_sandwich(5, 3, 0.01, ball) is None
    assert checks.check_vk_sandwich(5, 3, 0.01, ball * 1.05) is not None
    assert checks.check_christoffel(1e-10) is None
    assert checks.check_christoffel(1e-4) is not None
    accepts_and_rejects(checks.check_poincare, 1.0 / 3.0, 4, 4)
    rows = q.threshold_table(3, 8)
    assert checks.check_thresholds(rows, 3, 8) is None
    bad = [dict(r) for r in rows]
    bad[7]["pbar"] *= 1.0 + WRONG
    assert checks.check_thresholds(bad, 3, 8) is not None
    assert checks.check_thresholds(rows[:-1], 3, 8) is not None


def test_sizes():
    assert checks.check_size("nodes", 4802, 4802) is None
    assert checks.check_size("nodes", 2 * 6 ** 4, 4802) is not None
