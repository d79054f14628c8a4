import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quermass import (
    Ball,
    Box,
    DomainError,
    EvaluationError,
    LogPerturbedBall,
    PathValidityError,
    TestFunction,
    UnsupportedBodyError,
    VariationPath,
    WulffSampled,
    ball_fk,
    ball_fk_prime,
    ball_fk_second,
    center_test_function,
    christoffel_residual_grid,
    concavity_scan,
    f_k,
    f_k_prime,
    f_k_second,
    f_k_third,
    ibp_check,
    integrate,
    poincare_check,
    build_grid,
    vk_quadrature,
)
from quermass import bodies, calculus, intrinsic
from quermass.calculus import Jet
from quermass.sphere import HalfRule
from quermass.variation import _derivatives


def _centered_quadratic(rng, n, amplitude):
    # traceless quadratic plus a constant kept away from zero
    M = rng.standard_normal((n, n))
    A = (M + M.T) / 2.0
    A -= np.trace(A) / n * np.eye(n)
    c0 = float(rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0]))
    return TestFunction.quadratic(A, constant=c0, amplitude=amplitude)


# -- path construction ------------------------------------------------------

def test_path_validation(grid3):
    psi = TestFunction.coordinate_harmonic(3).scaled(0.05)
    with pytest.raises(DomainError):
        VariationPath(Ball(1.0), psi, 0, grid3)
    with pytest.raises(DomainError):
        VariationPath(Ball(1.0), psi, 4, grid3)
    with pytest.raises(UnsupportedBodyError):
        VariationPath(Box((1.0, 1.0, 1.0)), psi, 2, grid3)


def test_path_leaves_cone_for_large_amplitude(grid3):
    # e^{s psi} with a big harmonic coefficient loses Q > 0 inside [-2, 2]
    psi = TestFunction.coordinate_harmonic(3).scaled(5.0)
    with pytest.raises(PathValidityError) as exc_info:
        VariationPath(Ball(1.0), psi, 2, grid3)
    assert abs(exc_info.value.s) <= 2.0
    assert exc_info.value.node_index >= 0


def test_non_finite_support_raises_evaluation_error(grid3):
    # a NaN log-perturbation is not a path that left the cone: every node is
    # NaN, and the first one is named
    psi = TestFunction.coordinate_harmonic(3)
    body = LogPerturbedBall(psi, float("nan"))
    with pytest.raises(EvaluationError) as exc_info:
        VariationPath(body, psi, 2, grid3)
    assert exc_info.value.node_index == 0
    assert_allclose(exc_info.value.point, grid3.nodes[0], rtol=0, atol=0)
    with pytest.raises(EvaluationError) as exc_info:
        christoffel_residual_grid(body, 0.5, 2, grid3)
    assert exc_info.value.node_index == 0


def test_non_finite_psi_raises_evaluation_error(grid3):
    # a NaN amplitude used to read as "residual above tolerance" in ibp_check
    # and as "inequality not satisfied" in poincare_check
    nan_psi = TestFunction.coordinate_harmonic(3).scaled(float("nan"))
    good = TestFunction.coordinate_harmonic(3).scaled(0.05)
    with pytest.raises(EvaluationError) as exc_info:
        poincare_check(nan_psi, grid3)
    assert exc_info.value.node_index == 0
    for body, phi, psi in ((Ball(1.0), nan_psi, good), (Ball(1.0), good, nan_psi),
                           (LogPerturbedBall(nan_psi, 1.0), good, good)):
        with pytest.raises(EvaluationError):
            ibp_check(body, phi, good, psi, 1, grid3)
    with pytest.raises(EvaluationError):
        VariationPath(Ball(1.0), nan_psi, 2, grid3)


# -- values and closed forms ------------------------------------------------

def test_ball_fk_values(grid3):
    # f_k(0) = |S^{n-1}| binom(n-1, k-1) / k
    assert_allclose(ball_fk(3, 1), 4.0 * math.pi, rtol=1e-15)
    assert_allclose(ball_fk(3, 2), 4.0 * math.pi, rtol=1e-15)
    assert_allclose(ball_fk(3, 3), 4.0 * math.pi / 3.0, rtol=1e-15)
    psi = TestFunction.coordinate_harmonic(3).scaled(0.01)
    for k in (1, 2, 3):
        path = VariationPath(Ball(1.0), psi, k, grid3)
        # Q is exact; the bound dates from the finite-difference Hessian
        assert_allclose(f_k(path, 0.0), ball_fk(3, k), rtol=1e-10)


def test_first_and_second_variation_closed_forms(grid3, grid4, rng):
    # f'(0) = binom(n-1, k-1) int psi
    # f''(0) = binom(n-2, n-k) [ (n-1)k/(k-1) int psi^2 + int psi lap psi ]
    for grid, n in ((grid3, 3), (grid4, 4)):
        for _ in range(3):
            psi = _centered_quadratic(rng, n, 0.05)
            for k in range(2, n + 1):
                path = VariationPath(Ball(1.0), psi, k, grid)
                a1 = f_k_prime(path, 0.0)
                a2 = f_k_second(path, 0.0)
                assert_allclose(a1, ball_fk_prime(n, k, psi, grid), rtol=1e-6)
                assert_allclose(a2, ball_fk_second(n, k, psi, grid), rtol=1e-6)


def test_ball_fk_second_k1_rejected(grid3):
    psi = TestFunction.coordinate_harmonic(3).scaled(0.05)
    with pytest.raises(DomainError):
        ball_fk_second(3, 1, psi, grid3)


def test_ball_fk_prime_rejects_a_grid_of_another_dimension(grid4):
    with pytest.raises(DomainError, match=r"grid on S\^2"):
        ball_fk_prime(3, 2, lambda X: X[:, 0] ** 2, grid4)


def test_ball_fk_second_rejects_a_grid_of_another_dimension(grid4):
    # psi fits the grid, so only n = 3 against the grid's n = 4 is wrong
    with pytest.raises(DomainError, match=r"grid on S\^2"):
        ball_fk_second(3, 2, TestFunction.coordinate_harmonic(4).scaled(0.05), grid4)


def test_constant_psi_exponential(grid3):
    # h_s = e^{s c} h makes f_k(s) = e^{k c s} f_k(0) exactly
    c = 0.3
    psi = TestFunction.constant(3, c)
    for k in (1, 2, 3):
        path = VariationPath(Ball(1.0), psi, k, grid3)
        f0 = f_k(path, 0.0)
        for s in (-1.5, 0.5, 2.0):
            # exact Q leaves only rounding and quadrature error on both sides
            assert_allclose(f_k(path, s), f0 * math.exp(k * c * s), rtol=1e-9)


def test_derivatives_fd_consistency(grid3):
    # high-amplitude path keeps the derivatives well above the evaluation
    # noise floor at these step sizes
    psi = TestFunction(3, ((0.8, (0, 0, 0)), (0.1, (2, 0, 0))), 1.0)
    psi = psi.shifted(-0.1 / 3.0)
    path = VariationPath(Ball(1.0), psi, 2, grid3)
    a1 = f_k_prime(path, 0.0)
    a2 = f_k_second(path, 0.0)
    for d in (1e-3, 5e-4):
        fd1 = (f_k(path, d) - f_k(path, -d)) / (2.0 * d)
        fd2 = (f_k(path, d) - 2.0 * f_k(path, 0.0) + f_k(path, -d)) / (d * d)
        assert_allclose(fd1, a1, rtol=1e-4)
        assert_allclose(fd2, a2, rtol=1e-4)


def test_third_derivative_fd_consistency(grid3):
    # the 1/d^3 amplification forces larger steps; Richardson over the
    # pair (0.2, 0.1) removes the leading truncation term
    psi = TestFunction(3, ((0.8, (0, 0, 0)), (0.1, (2, 0, 0))), 1.0)
    psi = psi.shifted(-0.1 / 3.0)
    path = VariationPath(Ball(1.0), psi, 2, grid3)
    a3 = f_k_third(path, 0.0)

    def stencil(d):
        return (
            f_k(path, 2 * d) - 2 * f_k(path, d) + 2 * f_k(path, -d) - f_k(path, -2 * d)
        ) / (2.0 * d**3)

    richardson = (4.0 * stencil(0.1) - stencil(0.2)) / 3.0
    assert_allclose(richardson, a3, rtol=1e-3)


def test_third_derivative_n6_matches_fd_of_second():
    # no dimension limit: at n = 6 the analytic third derivative agrees
    # with a Richardson-extrapolated central difference of the analytic f_k''
    g6 = build_grid(6, 3, "product-angular")
    psi = TestFunction(6, ((0.3, (0,) * 6), (0.1, (2, 0, 0, 0, 0, 0)),
                           (-0.05, (0, 2, 0, 0, 0, 0))), 1.0)
    for k in (2, 4, 6):
        path = VariationPath(Ball(1.0), psi, k, g6)

        def central(d):
            return (f_k_second(path, d) - f_k_second(path, -d)) / (2.0 * d)

        richardson = (4.0 * central(0.005) - central(0.01)) / 3.0
        assert_allclose(f_k_third(path, 0.0), richardson, rtol=1e-6)


def test_centering_identity(grid3):
    # removing the mean multiplies f_k by e^{-k s m}
    A = np.array([[0.4, 0.1, 0.0], [0.1, -0.2, 0.0], [0.0, 0.0, -0.2]])
    psi = TestFunction.quadratic(A, constant=0.6, amplitude=0.1)
    pbar, m = center_test_function(psi, grid3)
    assert_allclose(m, 0.06, rtol=1e-12)
    assert abs(integrate(grid3, pbar)) < 1e-12 * grid3.area
    for k in (1, 2, 3):
        p_raw = VariationPath(Ball(1.0), psi, k, grid3)
        p_cen = VariationPath(Ball(1.0), pbar, k, grid3)
        for s in (-1.0, 1.0):
            assert_allclose(
                f_k(p_cen, s), math.exp(-k * s * m) * f_k(p_raw, s), rtol=1e-9
            )


def test_centering_needs_a_test_function(grid3):
    with pytest.raises(DomainError, match="TestFunction"):
        center_test_function(lambda X: X[:, 0] ** 2, grid3)


def test_k1_derivatives_are_moments_of_h_s(grid3, rng):
    # f_1 = int h_s is linear in h (T_0 = 0, no cofactor terms), so on the
    # grid f_1'' = int psi^2 h_s and f_1''' = int psi^3 h_s
    base = LogPerturbedBall(_centered_quadratic(rng, 3, 0.05), 0.5)
    psi = _centered_quadratic(rng, 3, 0.05)
    path = VariationPath(base, psi, 1, grid3)
    w, vals = grid3.weights, psi(grid3.nodes)
    s_values = [-1.5, 0.0, 0.7]
    for s in s_values:
        h_s = base.support_values(grid3.nodes) * np.exp(s * vals)
        assert_allclose(f_k_second(path, s), np.dot(w, vals ** 2 * h_s), rtol=1e-13)
        assert_allclose(f_k_third(path, s), np.dot(w, vals ** 3 * h_s), rtol=1e-13)
    # the scan's numbers are the public functions' numbers, bit for bit
    rep = concavity_scan(path, s_values)
    for i, s in enumerate(s_values):
        assert (rep.f_values[i], rep.fprime_values[i], rep.fsecond_values[i]) == \
            (f_k(path, s), f_k_prime(path, s), f_k_second(path, s))


def test_epsilon_scaling(grid3):
    # constant psi = eps moves f at first order; a zero-mean harmonic only
    # at second order
    eps_list = np.array([0.005, 0.01, 0.02, 0.04])
    d_const, d_harm = [], []
    for eps in eps_list:
        pc = VariationPath(Ball(1.0), TestFunction.constant(3, float(eps)), 2, grid3)
        d_const.append(abs(f_k(pc, 1.0) / f_k(pc, 0.0) - 1.0))
        ph = VariationPath(
            Ball(1.0), TestFunction.coordinate_harmonic(3).scaled(float(eps)), 2, grid3
        )
        d_harm.append(abs(f_k(ph, 1.0) - f_k(ph, 0.0)))
    slope_const = np.polyfit(np.log(eps_list), np.log(d_const), 1)[0]
    slope_harm = np.polyfit(np.log(eps_list), np.log(d_harm), 1)[0]
    assert abs(slope_const - 1.0) < 0.1
    assert abs(slope_harm - 2.0) < 0.1


# -- concavity scans --------------------------------------------------------

def test_scan_strictly_concave(grid3):
    psi = TestFunction.coordinate_harmonic(3).scaled(0.01)
    rep = concavity_scan(VariationPath(Ball(1.0), psi, 2, grid3))
    assert rep.verdict == "strictly-concave"
    assert rep.violation_s is None
    assert len(rep.s_values) == 21
    assert rep.s_values[0] == -2.0 and rep.s_values[-1] == 2.0
    assert max(rep.concavity_values) < -rep.tolerance


def test_scan_concave_for_constant(grid3):
    rep = concavity_scan(VariationPath(Ball(1.0), TestFunction.constant(3, 0.3), 2, grid3))
    assert rep.verdict == "concave"
    assert max(abs(h) for h in rep.concavity_values) <= rep.tolerance


def test_scan_violated_for_k1(grid3):
    # f_1(s) = int h e^{s psi} is log-convex in s (Holder), so H >= 0 with
    # strict inequality for non-constant psi: an honest violation case
    psi = TestFunction.coordinate_harmonic(3).scaled(0.1)
    rep = concavity_scan(VariationPath(Ball(1.0), psi, 1, grid3))
    assert rep.verdict == "violated"
    assert min(rep.concavity_values) > 0.0
    assert rep.violation_s is not None


def test_scan_report_serialization(grid3):
    psi = TestFunction.coordinate_harmonic(3).scaled(0.01)
    rep = concavity_scan(VariationPath(Ball(1.0), psi, 2, grid3))
    doc = asdict(rep)
    assert doc["verdict"] == "strictly-concave"
    assert len(doc["s_values"]) == 21
    assert json.loads(json.dumps(doc))["f_values"] == list(rep.f_values)


def test_s_outside_the_window_is_rejected(grid3):
    path = VariationPath(Ball(1.0), TestFunction.coordinate_harmonic(3).scaled(0.01), 2, grid3)
    with pytest.raises(DomainError, match=r"s must lie in \[-2.0, 2.0\], got 2.5"):
        f_k(path, 2.5)


def test_scan_custom_s_values(grid3):
    psi = TestFunction.coordinate_harmonic(3).scaled(0.01)
    rep = concavity_scan(
        VariationPath(Ball(1.0), psi, 2, grid3), s_values=np.array([-1.0, 0.0, 1.0])
    )
    assert rep.s_values == (-1.0, 0.0, 1.0)


def test_scan_caches_two_s_values(grid3):
    # node data is kept for s = 0 and the latest s only, and the values do
    # not depend on what the cache held before
    psi = TestFunction.quadratic(np.diag([1.0, -0.5, -0.5]), amplitude=0.02)
    s_values = np.linspace(-2.0, 2.0, 41)
    path = VariationPath(Ball(1.0), psi, 3, grid3)
    rep = concavity_scan(path, s_values)
    assert set(path._cache) == {0.0, 2.0}
    assert concavity_scan(path, s_values) == rep
    fresh_path = VariationPath(Ball(1.0), psi, 3, grid3)
    fresh = concavity_scan(fresh_path, s_values[::-1])
    assert set(fresh_path._cache) == {0.0, -2.0}
    for name in ("s_values", "f_values", "fprime_values", "fsecond_values",
                 "concavity_values"):
        assert getattr(fresh, name)[::-1] == getattr(rep, name)
    assert (fresh.tolerance, fresh.verdict) == (rep.tolerance, rep.verdict)


def test_new_s_needs_no_jets(grid4, monkeypatch):
    # after construction, a new s takes every Q from the path's coefficients
    # in closed form: no R^n jet is built or projected per s
    psi = TestFunction.quadratic(np.diag([1.0, -0.5, 0.25, -0.75]), amplitude=0.02)
    body = LogPerturbedBall(TestFunction.zonal_degree4(4).scaled(0.1), 0.5)
    reference, path = (VariationPath(body, psi, 3, grid4) for _ in range(2))
    expected = _derivatives(reference, 0.37, 3)

    def no_jets(*args, **kwargs):
        raise AssertionError("a jet was used for a new s")

    monkeypatch.setattr(calculus, "q_from_jet", no_jets)
    monkeypatch.setattr(Jet, "__mul__", no_jets, raising=False)
    monkeypatch.setattr(Jet, "exp", no_jets)
    assert _derivatives(path, 0.37, 3) == expected


def test_one_faddeev_leverrier_pass_per_q(grid5, monkeypatch):
    # S_{k-1}(Q) and T_{k-1}(Q) come from one pass stopped at r = k - 1 (k
    # for ibp_check); only the second-cofactor tangent pass, two steps per
    # order above 1, adds steps
    steps = []
    fl_step = intrinsic._fl_step

    def counted(AB, j):
        steps.append(j)
        return fl_step(AB, j)

    def count(fn, *args):
        steps.clear()
        fn(*args)
        return len(steps)

    monkeypatch.setattr(intrinsic, "_fl_step", counted)
    psi = TestFunction.zonal_degree4(5).scaled(0.05)
    phi, phibar = (TestFunction.coordinate_harmonic(5).scaled(a) for a in (0.1, 0.2))
    body = LogPerturbedBall(TestFunction.coordinate_harmonic(5), 0.1)
    for k in range(1, 6):
        path = VariationPath(body, psi, k, grid5)
        assert count(_derivatives, path, 0.3, 2) == k - 1
        assert count(_derivatives, path, 0.7, 3) == k - 1 + 2 * max(k - 2, 0)
        assert count(vk_quadrature, body, k, grid5) == 2 * (k - 1)
        if k < 5:
            assert count(ibp_check, body, phi, phibar, psi, k, grid5) == k + 2 * (k - 1)


def test_scan_rejects_empty_s_values(grid3):
    # np.all of an empty array is true, so an empty scan would read strictly-concave
    path = VariationPath(Ball(1.0), TestFunction.coordinate_harmonic(3).scaled(0.01), 2, grid3)
    with pytest.raises(DomainError, match="at least one s value"):
        concavity_scan(path, [])


# -- the antipodal half rule ------------------------------------------------

def _full_rule(grid):
    """A copy of the grid whose half rule is every node at its own weight, so
    the half-rule quadratures sum over the full arrays."""
    full = build_grid(grid.dimension, grid.resolution, grid.method, seed=grid.seed)
    vars(full)["half"] = HalfRule(full.nodes, full.weights)
    return full


@pytest.mark.parametrize("n,res,method", [(3, 13, "product-angular"), (4, 8, "product-angular"),
                                          (5, 5, "product-angular"), (4, 2000, "monte-carlo")])
def test_half_rule_sums_equal_full_grid_sums(n, res, method, rng):
    # f_k to f_k''', scan verdicts, V_k and the IBP residuals on one node per
    # antipodal pair agree with the sums over every node to rounding
    grid = build_grid(n, res, method, seed=1)
    full = _full_rule(grid)
    for base in (Ball(1.0), LogPerturbedBall(_centered_quadratic(rng, n, 0.1), 0.5)):
        for k in range(1, n + 1):
            psi = _centered_quadratic(rng, n, 0.05) if k % 2 else TestFunction.zonal_degree4(n)
            paths = [VariationPath(base, psi.scaled(0.05), k, g) for g in (grid, full)]
            for s in (-1.3, 0.0, 0.8):
                got, want = (_derivatives(p, s, 3) for p in paths)
                for a, b in zip(got, want):
                    assert abs(a - b) <= 1e-13 * max(abs(b), want[0])
            got, want = (concavity_scan(p) for p in paths)
            assert got.verdict == want.verdict
            got, want = (vk_quadrature(base, k, g) for g in (grid, full))
            assert abs(got.value - want.value) <= 1e-13 * want.value
            assert got.q_positive_definite == want.q_positive_definite
        for k in range(1, n):
            fields = [_centered_quadratic(rng, n, 0.1) for _ in range(3)]
            got, want = (ibp_check(base, *fields, k, g) for g in (grid, full))
            assert abs(got.residual_first - want.residual_first) <= 1e-13 * want.scale_first
            assert abs(got.residual_second - want.residual_second) <= 1e-13 * want.scale_second


def test_path_arrays_have_one_row_per_antipodal_pair(grid5):
    psi = TestFunction.zonal_degree4(5).scaled(0.05)
    path = VariationPath(LogPerturbedBall(TestFunction.coordinate_harmonic(5), 0.1), psi, 3, grid5)
    _derivatives(path, 0.4, 3)
    assert path.grid.node_count == 4802
    arrays = [path._psi, path._h, *path._u, *path._q_derivatives(0.4, 2)]
    arrays += [a for record in path._cache.values() for a in record.values()]
    assert {a.shape[0] for a in arrays} == {4802 // 2}


def test_path_leaving_the_cone_names_the_lowest_node_of_a_tie(grid4):
    # psi = 5 (x_1^2 - 1/4) leaves the cone at s = -2 on a ring of 256 nodes
    # (the two t-rings next to the equator of the product grid) that share
    # one least eigenvalue up to rounding; the lowest full-grid index is
    # named, whichever node rounds lowest
    psi = TestFunction.coordinate_harmonic(4).scaled(5.0)
    with pytest.raises(PathValidityError) as exc_info:
        VariationPath(Ball(1.0), psi, 3, grid4)
    s = exc_info.value.s
    jet = LogPerturbedBall(psi, s).support_jet(grid4.nodes)
    lo = np.linalg.eigvalsh(calculus.q_from_jet(jet, grid4.nodes, grid4.frames))[:, 0]
    ring = np.flatnonzero(np.abs(lo - lo.min()) <= 1e-12 * abs(lo.min()))
    assert s == -2.0 and ring.size == 256
    assert exc_info.value.node_index == ring[0]


# -- sharpened Poincare -----------------------------------------------------

def test_poincare_degree2_equality(grid3, grid4):
    for grid, n in ((grid3, 3), (grid4, 4)):
        res = poincare_check(TestFunction.coordinate_harmonic(n), grid)
        assert res.satisfied
        assert_allclose(res.ratio, 1.0, atol=1e-9)


def test_poincare_degree4_strict(grid3):
    # eigenvalue 4(n+2) gives ratio 2n / (4(n+2)) = 0.3 for n = 3
    res = poincare_check(TestFunction.zonal_degree4(3), grid3)
    assert res.satisfied
    assert_allclose(res.ratio, 0.3, atol=1e-9)


def test_poincare_mixture_ratio(grid3):
    # mixture of degree-2 and degree-4 parts lands strictly between
    psi = TestFunction(
        3,
        tuple(TestFunction.coordinate_harmonic(3).terms)
        + tuple(TestFunction.zonal_degree4(3).scaled(2.0).terms),
        1.0,
    )
    res = poincare_check(psi, grid3)
    assert res.satisfied
    assert 0.3 < res.ratio < 1.0


def test_poincare_preconditions(grid3):
    with pytest.raises(DomainError):
        poincare_check(TestFunction.constant(3, 0.5), grid3)  # non-zero mean
    with pytest.raises(DomainError):
        poincare_check(lambda X: X[:, 0], grid3)  # odd
    res = poincare_check(TestFunction.constant(3, 0.0), grid3)
    assert res.degenerate and res.satisfied and res.ratio == 0.0


class _OddWithJet:
    """x -> x_1 with its exact jet: a field that reaches the evenness check."""

    def __call__(self, X):
        return X[:, 0]

    def jet(self, X):
        m, n = X.shape
        grad = np.zeros((m, n))
        grad[:, 0] = 1.0
        return Jet(X[:, 0], grad, np.zeros((m, n, n)))


def test_poincare_rejects_odd_field_with_jet(grid3):
    with pytest.raises(DomainError, match="even"):
        poincare_check(_OddWithJet(), grid3)


def test_half_rule_sums_reject_fields_other_than_test_functions(grid3):
    # an odd field would read as twice its half-grid sum: f_k'(0) of x_1
    # would be about -12.6 instead of 0
    psi = TestFunction.coordinate_harmonic(3).scaled(0.05)
    with pytest.raises(DomainError, match="TestFunctions"):
        VariationPath(Ball(1.0), _OddWithJet(), 2, grid3)
    for fields in ((_OddWithJet(), psi, psi), (psi, _OddWithJet(), psi), (psi, psi, _OddWithJet())):
        with pytest.raises(DomainError, match="TestFunctions"):
            ibp_check(Ball(1.0), *fields, 1, grid3)


# -- integration by parts ---------------------------------------------------

def test_ibp_residuals_small(grid3, rng):
    for k in (1, 2):
        for _ in range(5):
            base = LogPerturbedBall(_centered_quadratic(rng, 3, 0.1), 0.5)
            phi = _centered_quadratic(rng, 3, 0.1)
            phibar = _centered_quadratic(rng, 3, 0.1)
            psi = _centered_quadratic(rng, 3, 0.1)
            res = ibp_check(base, phi, phibar, psi, k, grid3)
            assert res.residual_first <= 1e-5
            assert res.residual_second <= 1e-5
            assert res.scale_first > 0.0


@pytest.mark.parametrize("seed, rnd", [(101, 35), (19, 131)])
def test_ibp_residuals_are_quadrature_error(seed, rnd):
    # the inputs of a round of the benchmark's identities workload (n = 5,
    # k = 4) with a residual above the benchmark's 1e-6 bound on the
    # resolution-7 grid: the second at (101, 35), 1.16e-6, and both at
    # (19, 131), 1.40e-6 and 1.23e-6.  Refining the grid drives both residuals
    # to zero, so they are quadrature error and not a program fault
    rng = np.random.default_rng([seed, rnd])

    def quadratic():
        M = rng.standard_normal((5, 5))
        return TestFunction.quadratic((M + M.T) / 2.0, constant=rng.standard_normal(),
                                      amplitude=0.1)

    base = LogPerturbedBall(quadratic(), 0.5)
    phi, phibar, psi = quadratic(), quadratic(), quadratic()
    res = [ibp_check(base, phi, phibar, psi, 4, build_grid(5, r, "product-angular"))
           for r in (7, 9, 11)]
    second = [r.residual_second for r in res]
    assert second[1] <= second[0] / 100.0 and second[2] <= second[1] / 100.0
    first = [r.residual_first for r in res]
    assert first[1] < first[0] and first[2] <= first[1] / 100.0


def test_ibp_k_range(grid3):
    psi = TestFunction.coordinate_harmonic(3).scaled(0.05)
    with pytest.raises(DomainError):
        ibp_check(Ball(1.0), psi, psi, psi, 0, grid3)
    with pytest.raises(DomainError):
        ibp_check(Ball(1.0), psi, psi, psi, 3, grid3)


# -- Christoffel residual ---------------------------------------------------

def test_christoffel_zero_at_unit_ball(grid3):
    vals, max_abs = christoffel_residual_grid(Ball(1.0), 0.5, 2, grid3)
    assert max_abs <= 1e-8
    vals, max_abs = christoffel_residual_grid(Ball(1.0), 0.0, 3, grid3)
    assert max_abs <= 1e-8


def test_christoffel_scaled_ball_closed_form(grid3):
    # Ball(R): h^{1-p} S_{k-1} - binom = (R^{k-p} - 1) binom(n-1, k-1)
    R, p, k = 1.1, 0.5, 2
    expected = (R ** (k - p) - 1.0) * math.comb(2, k - 1)
    vals, max_abs = christoffel_residual_grid(Ball(R), p, k, grid3)
    assert_allclose(vals, expected, rtol=1e-8)
    assert_allclose(max_abs, abs(expected), rtol=1e-8)


def test_christoffel_perturbed_ball_scales_linearly(grid3):
    psi = TestFunction.coordinate_harmonic(3)
    _, m1 = christoffel_residual_grid(LogPerturbedBall(psi, 0.05), 0.5, 2, grid3)
    _, m2 = christoffel_residual_grid(LogPerturbedBall(psi, 0.1), 0.5, 2, grid3)
    assert m1 > 1e-3
    assert 1.8 < m2 / m1 < 2.5


def test_christoffel_rejects_non_smooth_body_before_any_lp(grid3, monkeypatch):
    # a WulffSampled body would cost one LP per node before Q[h] rejects it
    def no_lp(*args):
        raise AssertionError("support_lp called for a non-smooth body")

    monkeypatch.setattr(bodies, "support_lp", no_lp)
    body = WulffSampled(grid3.nodes, np.ones(grid3.node_count))
    with pytest.raises(UnsupportedBodyError, match="christoffel_residual_grid"):
        christoffel_residual_grid(body, 0.5, 2, grid3)


def test_christoffel_domain(grid3):
    with pytest.raises(DomainError):
        christoffel_residual_grid(Ball(1.0), 1.0, 2, grid3)  # p must be < 1
    with pytest.raises(DomainError):
        christoffel_residual_grid(Ball(1.0), 0.5, 1, grid3)  # k must be >= 2
    with pytest.raises(DomainError, match="positive support"):
        christoffel_residual_grid(Ball(0.0), 0.5, 2, grid3)
