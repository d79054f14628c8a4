import itertools
import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from quermass import (
    Ball,
    Body,
    DomainError,
    EvaluationError,
    LogPerturbedBall,
    TestFunction,
    WulffSampled,
    cofactor,
    elem_sym,
    second_cofactor,
    unit_ball_volume,
    vk_ball,
    vk_box,
    vk_closed_form,
    vk_quadrature,
)
from quermass import calculus, intrinsic, sphere
from quermass.intrinsic import _pd_violation, _second_cofactor_batch


def _random_symmetric(rng, N):
    M = rng.standard_normal((N, N))
    return (M + M.T) / 2.0


def _elem_sym_values(r, w):
    # e_r of a vector: sum over r-subsets of products
    return float(sum(np.prod(list(c)) for c in itertools.combinations(w, r)))


def _elem_sym_eigen(r, A):
    # oracle: e_r of the eigenvalues
    return _elem_sym_values(r, np.linalg.eigvalsh(A))


def _second_cofactor_eigen(r, A, X):
    # oracle: 2 [e^2] S_r(A + e X); S_r(A + e X) is a polynomial of degree r
    # in e, fitted exactly on r + 1 Chebyshev points in [-1, 1]
    if r < 2:
        return 0.0
    eps = np.cos(np.pi * (np.arange(r + 1) + 0.5) / (r + 1))
    vals = [_elem_sym_eigen(r, A + e * X) for e in eps]
    coeffs = np.linalg.solve(np.vander(eps, r + 1, increasing=True), vals)
    return 2.0 * float(coeffs[2])


def _fd_cofactor(r, A, eps=1e-6):
    # independent-entry derivative of S_r with symmetric-pair displacement;
    # off-diagonal halved because d a_ij and d a_ji each contribute
    N = A.shape[0]
    out = np.empty((N, N))
    for i in range(N):
        for j in range(N):
            E = np.zeros((N, N))
            E[i, j] = eps
            E[j, i] = eps
            d = (elem_sym(r, A + E) - elem_sym(r, A - E)) / (2.0 * eps)
            out[i, j] = d if i == j else d / 2.0
    return out


def test_unit_ball_volume_values():
    assert unit_ball_volume(0) == 1.0
    assert unit_ball_volume(1) == 2.0
    assert_allclose(unit_ball_volume(2), math.pi, rtol=1e-15)
    assert_allclose(unit_ball_volume(3), 4.0 * math.pi / 3.0, rtol=1e-15)
    assert_allclose(unit_ball_volume(5), 8.0 * math.pi**2 / 15.0, rtol=1e-15)
    # the recurrence agrees with the gamma-function formula where that is finite
    assert_allclose(
        unit_ball_volume(17), math.pi**8.5 / math.gamma(9.5), rtol=1e-14
    )
    assert_allclose(
        unit_ball_volume(300), math.pi**150 / math.gamma(151.0), rtol=1e-12
    )
    with pytest.raises(DomainError):
        unit_ball_volume(-1)
    # kappa_j is subnormal from j = 436 on and 0 from j = 453
    assert unit_ball_volume(435) > 0.0
    for j in (436, 452, 453):
        with pytest.raises(DomainError, match=f"kappa_{j} underflows"):
            unit_ball_volume(j)


def test_one_kappa_table():
    # intrinsic re-exports the sphere's unit_ball_volume; surface areas use
    # the same recurrence
    assert intrinsic.unit_ball_volume is sphere.unit_ball_volume
    for n in range(1, 17):
        assert sphere.surface_area(n) == n * sphere.unit_ball_volume(n)


def test_unit_ball_volume_monte_carlo_crosscheck():
    # volume of B_5 from a seeded hypercube sample
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, size=(400000, 5))
    frac = np.mean(np.sum(pts**2, axis=1) <= 1.0)
    estimate = 32.0 * frac
    assert abs(estimate - unit_ball_volume(5)) < 0.05


def test_elem_sym_matches_eigen_oracle(rng):
    for N in (2, 3, 4, 5, 6):
        for _ in range(5):
            A = _random_symmetric(rng, N)
            for r in range(N + 1):
                assert_allclose(
                    elem_sym(r, A), _elem_sym_eigen(r, A), rtol=1e-9, atol=1e-9
                )


def test_elem_sym_identity_exact():
    # S_r(I_N) = binom(N, r), bitwise for N <= 8
    for N in range(1, 9):
        for r in range(N + 1):
            assert elem_sym(r, np.eye(N)) == float(math.comb(N, r))


def test_elem_sym_input_validation():
    with pytest.raises(DomainError):
        elem_sym(1, np.array([[0.0, 1.0], [0.0, 0.0]]))  # not symmetric
    with pytest.raises(DomainError, match="square"):
        elem_sym(1, np.ones((2, 3)))
    with pytest.raises(DomainError):
        elem_sym(3, np.eye(2))  # r out of range
    with pytest.raises(DomainError):
        elem_sym(-1, np.eye(2))


def test_cofactor_small_cases():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    # S_1^{ij} = identity
    assert np.array_equal(cofactor(1, A), np.eye(2))
    # S_2^{ij} for N = 2 is the adjugate
    assert_allclose(cofactor(2, A), np.array([[3.0, -1.0], [-1.0, 2.0]]), atol=1e-14)


def test_cofactor_identity_matrix_exact():
    # T_r(I_N) = binom(N-1, r-1) I, exactly
    for N in range(1, 9):
        for r in range(1, N + 1):
            expected = float(math.comb(N - 1, r - 1)) * np.eye(N)
            assert np.array_equal(cofactor(r, np.eye(N)), expected)


def test_cofactor_batch_stops_the_elem_sym_pass_at_r(rng):
    # S_r of the pass stopped at r is bitwise column r of the full pass, and
    # T_0 = 0
    for N in (1, 2, 3, 4, 5):
        A = np.stack([_random_symmetric(rng, N) for _ in range(7)])
        S_all = intrinsic._elem_sym_all_batch(A)
        for r in range(N + 1):
            assert np.array_equal(intrinsic._cofactor_batch(A, r)[0], S_all[:, r])
        assert np.array_equal(intrinsic._cofactor_batch(A, 0)[1], np.zeros(A.shape))
    # the pass's T_1 is a read-only view of I; cofactor returns its own array
    T1 = cofactor(1, A[0])
    assert T1.flags.writeable and T1.flags.owndata
    T1[0, 0] = 5.0
    assert np.array_equal(cofactor(1, A[0]), np.eye(5))


def test_cofactor_matches_fd_oracle(rng):
    for N in (2, 3, 4, 5):
        A = _random_symmetric(rng, N)
        for r in range(1, N + 1):
            assert_allclose(cofactor(r, A), _fd_cofactor(r, A), rtol=2e-7, atol=2e-7)


def test_cofactor_top_is_adjugate(rng):
    for N in (3, 4, 5):
        A = _random_symmetric(rng, N) + 3.0 * np.eye(N)
        adj = np.linalg.det(A) * np.linalg.inv(A)
        assert_allclose(cofactor(N, A), adj, rtol=1e-10)


def test_cofactor_trace_identity(rng):
    # sum_i S_r^{ii} = (N - r + 1) S_{r-1}
    for N in (3, 4, 5, 6):
        A = _random_symmetric(rng, N)
        for r in range(1, N + 1):
            assert_allclose(
                np.trace(cofactor(r, A)),
                (N - r + 1) * elem_sym(r - 1, A),
                rtol=1e-11,
                atol=1e-11,
            )


def test_second_cofactor_n2_frozen():
    # S_2 = a11 a22 - a12 a21; the tensor stores the symmetric-pair
    # average over each index pair, so the off-diagonal second derivative
    # -1 is spread as -1/2 over (12),(12) and (12),(21).  Contractions
    # against symmetric matrices are unaffected by this choice.
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    T = second_cofactor(2, A)
    expected = np.zeros((2, 2, 2, 2))
    expected[0, 0, 1, 1] = expected[1, 1, 0, 0] = 1.0
    for idx in ((0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)):
        expected[idx] = -0.5
    assert_allclose(T, expected, atol=1e-12)


def test_second_cofactor_r1_zero():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.array_equal(second_cofactor(1, A), np.zeros((2, 2, 2, 2)))


def test_second_cofactor_exchange_symmetry(rng):
    for N, r in ((3, 2), (3, 3), (4, 3), (5, 4)):
        A = _random_symmetric(rng, N)
        T = second_cofactor(r, A)
        assert_allclose(T, np.transpose(T, (2, 3, 0, 1)), atol=1e-7)


def test_second_cofactor_matches_eigen_closed_form(rng):
    # relative to the larger of the value and |X|^2, so that a value which
    # cancels to near zero is not judged on its last digits
    for N in range(1, 6):
        for _ in range(4):
            A = _random_symmetric(rng, N)
            X = _random_symmetric(rng, N)
            for r in range(1, N + 1):
                got = float(np.einsum("ijkl,ij,kl->", second_cofactor(r, A), X, X))
                want = _second_cofactor_eigen(r, A, X)
                if r == 1:
                    assert got == 0.0
                else:
                    assert abs(got - want) <= 1e-12 * max(abs(want), np.sum(X * X))


def _symmetric_matrices(N):
    entries = st.floats(-2.0, 2.0, allow_subnormal=False)
    return hnp.arrays(np.float64, (N, N), elements=entries).map(lambda M: (M + M.T) / 2.0)


def _unit(X):
    norm = np.linalg.norm(X)
    return X / norm if norm > 0.0 else X


@st.composite
def _cofactor_cases(draw):
    # the contraction is bilinear in the directions, so unit directions
    # lose nothing and fix the scale of the comparison
    N = draw(st.integers(1, 5))
    r = draw(st.integers(1, N))
    A, X, Y = (draw(_symmetric_matrices(N)) for _ in range(3))
    return r, A, _unit(X), _unit(Y)


@st.composite
def _symmetric_cases(draw, r_min):
    N = draw(st.integers(max(r_min, 1), 5))
    return draw(st.integers(r_min, N)), draw(_symmetric_matrices(N))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_symmetric_cases(0))
def test_elem_sym_is_eigenvalue_elem_sym(case):
    r, A = case
    assert abs(elem_sym(r, A) - _elem_sym_eigen(r, A)) <= 1e-12 * (1.0 + np.linalg.norm(A)) ** r


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_symmetric_cases(1))
def test_cofactor_is_eigenvector_formula(case):
    # with A = V diag(w) V^T, dS_r/dA = V diag(e_{r-1}(w without w_i)) V^T
    r, A = case
    w, V = np.linalg.eigh(A)
    d = [_elem_sym_values(r - 1, np.delete(w, i)) for i in range(w.size)]
    want = (V * d) @ V.T
    err = np.max(np.abs(cofactor(r, A) - want))
    assert err <= 1e-12 * (1.0 + np.linalg.norm(A)) ** (r - 1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_cofactor_cases())
def test_second_cofactor_batch_symmetric(case):
    # <dT[X], Y> = <dT[Y], X>: the second cofactor is symmetric in its pairs
    r, A, X, Y = case
    dX = _second_cofactor_batch(A[None], r, X)[0]
    dY = _second_cofactor_batch(A[None], r, Y)[0]
    lhs, rhs = float(np.sum(dX * Y)), float(np.sum(dY * X))
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, np.linalg.norm(A)) ** r


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_cofactor_cases())
def test_second_cofactor_batch_is_second_derivative(case):
    # <dT[X], X> = 2 [e^2] S_r(A + e X); the oracle's rounding scales with
    # the values of S_r it fits, of size (|A| + |X|)^r
    r, A, X, _ = case
    got = float(np.sum(_second_cofactor_batch(A[None], r, X)[0] * X))
    want = _second_cofactor_eigen(r, A, X)
    assert abs(got - want) <= 1e-12 * (1.0 + np.linalg.norm(A)) ** r


def test_second_cofactor_contraction_matches_fd(rng):
    # <S^{ij,kl}, B x C> equals the second directional derivative of S_r
    for N, r in ((3, 2), (4, 3)):
        A = _random_symmetric(rng, N)
        B = _random_symmetric(rng, N)
        C = _random_symmetric(rng, N)
        T = second_cofactor(r, A)
        lhs = float(np.einsum("ijkl,ij,kl->", T, B, C))
        d = 1e-4
        fd = (
            elem_sym(r, A + d * B + d * C)
            - elem_sym(r, A + d * B - d * C)
            - elem_sym(r, A - d * B + d * C)
            + elem_sym(r, A - d * B - d * C)
        ) / (4.0 * d * d)
        assert_allclose(lhs, fd, rtol=1e-4, atol=1e-6)


def test_q_matrix_ball(grid3):
    X = grid3.nodes
    _, Q_all, _, _ = intrinsic._curvature(Ball(2.0).support_jet(X), X, grid3.frames, 0)
    assert Q_all.shape == (grid3.node_count, 2, 2)
    assert_allclose(Q_all, np.broadcast_to(2.0 * np.eye(2), Q_all.shape), atol=1e-9)


def test_elem_syms_frame_invariant(rng, grid3):
    # S_r(Q) must not depend on the orthonormal tangent basis used
    body = LogPerturbedBall(TestFunction.coordinate_harmonic(3), 0.3)
    X, frames = grid3.nodes, grid3.frames
    jet = body.support_jet(X)
    Q1 = calculus.q_from_jet(jet, X, frames)

    theta = rng.uniform(0.0, 2.0 * np.pi)
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    Q2 = calculus.q_from_jet(jet, X, R @ frames)
    assert_allclose(intrinsic._elem_sym_all_batch(Q1), intrinsic._elem_sym_all_batch(Q2),
                    rtol=1e-9)


def test_area_measure_density_ball(grid4):
    # S_{k-1}(R I_{n-1}) = binom(n-1, k-1) R^{k-1} at every node
    X = grid4.nodes
    for R in (1.0, 1.5):
        for k in (1, 2, 3, 4):
            _, _, S, _ = intrinsic._curvature(Ball(R).support_jet(X), X, grid4.frames, k - 1)
            assert_allclose(S, math.comb(3, k - 1) * R ** (k - 1), rtol=1e-8)


def test_vk_ball_closed_form():
    assert_allclose(vk_ball(3, 1).value, 4.0, rtol=1e-15)
    assert_allclose(vk_ball(3, 2).value, 2.0 * math.pi, rtol=1e-15)
    assert_allclose(vk_ball(3, 3).value, 4.0 * math.pi / 3.0, rtol=1e-15)
    assert_allclose(vk_ball(4, 4).value, math.pi**2 / 2.0, rtol=1e-15)
    # scaling in the radius is R^k
    assert_allclose(vk_ball(5, 3, 2.0).value, 8.0 * vk_ball(5, 3).value, rtol=1e-15)
    assert vk_ball(3, 0).value == 1.0
    # V_2(B_n) = binom(n, 2) kappa_n / kappa_{n-2} = binom(n, 2) 2 pi / n, past
    # the dimension where the gamma-function formula for kappa_n overflows
    assert_allclose(vk_ball(400, 2).value, math.comb(400, 2) * 2.0 * math.pi / 400,
                    rtol=1e-12)


def test_vk_box_values():
    assert vk_box((1.0, 1.0, 1.0), 0).value == 1.0
    assert vk_box((1.0, 1.0, 1.0), 1).value == 6.0
    assert vk_box((1.0, 1.0, 1.0), 2).value == 12.0
    assert vk_box((1.0, 1.0, 1.0), 3).value == 8.0
    assert vk_box((1.0, 1.0, 1.0, 1.0), 2).value == 24.0
    # degenerate box: zero half-length kills the top-degree term only
    assert vk_box((1.0, 1.0, 0.0), 3).value == 0.0
    assert vk_box((1.0, 1.0, 0.0), 2).value == 4.0


@pytest.mark.parametrize("size", [math.nan, math.inf, -1.0])
def test_vk_closed_forms_reject_bad_sizes(size):
    # a NaN passes a plain `< 0` test and used to give V_k = nan
    with pytest.raises(DomainError, match="finite and non-negative"):
        vk_ball(3, 2, size)
    with pytest.raises(DomainError, match="finite and non-negative"):
        vk_box([size, 1.0, 1.0], 2)


def test_vk_quadrature_ball(grid3, grid4):
    for grid, n in ((grid3, 3), (grid4, 4)):
        for k in range(1, n + 1):
            res = vk_quadrature(Ball(1.0), k, grid)
            exact = vk_ball(n, k).value
            assert_allclose(res.value, exact, rtol=1e-8)
            assert res.q_positive_definite
            assert res.error_estimate < 1e-6


def test_vk_quadrature_scaled_ball(grid3):
    res = vk_quadrature(Ball(1.3), 2, grid3)
    assert_allclose(res.value, vk_ball(3, 2, 1.3).value, rtol=1e-8)


def test_vk_quadrature_perturbed_ball_consistency(grid3):
    # two resolutions agree to quadrature accuracy on a smooth body
    from quermass import build_grid

    body = LogPerturbedBall(TestFunction.coordinate_harmonic(3), 0.15)
    fine = vk_quadrature(body, 2, build_grid(3, 20, "product-angular"))
    coarse = vk_quadrature(body, 2, grid3)
    assert_allclose(coarse.value, fine.value, rtol=1e-7)


def test_vk_quadrature_rejects_bad_k(grid3):
    with pytest.raises(DomainError):
        vk_quadrature(Ball(1.0), 0, grid3)
    with pytest.raises(DomainError):
        vk_quadrature(Ball(1.0), 4, grid3)


class _NanHessianAt(Body):
    """The unit ball with a NaN in the support Hessian at one node."""

    is_smooth = True

    def __init__(self, node):
        self.node = node

    def support_jet(self, U):
        jet = Ball(1.0).support_jet(U)
        jet.hess[self.node, 0, 0] = np.nan
        return jet


def test_non_finite_support_raises_evaluation_error(grid3):
    # NaN in h (a NaN log-perturbation) or in one entry of Q names the first
    # bad node instead of returning V_k = nan
    nan_body = LogPerturbedBall(TestFunction.coordinate_harmonic(3), float("nan"))
    for body, node in ((nan_body, 0), (_NanHessianAt(7), 7)):
        with pytest.raises(EvaluationError) as exc_info:
            vk_quadrature(body, 2, grid3)
        assert exc_info.value.node_index == node
        assert_allclose(exc_info.value.point, grid3.nodes[node], rtol=0, atol=0)
    with pytest.raises(EvaluationError) as exc_info:
        intrinsic._curvature(nan_body.support_jet(grid3.nodes), grid3.nodes, grid3.frames, 1)
    assert exc_info.value.node_index == 0


def _known_spectrum_batch(rng, N, m):
    # V diag(lam) V^T with the largest eigenvalue L, one eigenvalue of either
    # sign at 1e-10 .. 1e-2 of L, and the rest log-uniform in [1e-8 L, L]
    # (spectra like {+-0.01, 1e-4, 1, 1e4}, where the signs of S_1..S_N
    # computed in floating point do not tell positive definiteness)
    L = 10.0 ** rng.uniform(-3.0, 3.0, m)
    lam = L[:, None] * 10.0 ** rng.uniform(-8.0, 0.0, (m, N))
    lam[:, 0] = L
    lam[:, -1] = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-10.0, -2.0, m) * L
    V, _ = np.linalg.qr(rng.standard_normal((m, N, N)))
    return (V * lam[:, None, :]) @ np.swapaxes(V, 1, 2)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_pd_violation_agrees_with_least_eigenvalue(N):
    rng = np.random.default_rng(100 + N)
    Q = _known_spectrum_batch(rng, N, 800)
    lo = np.linalg.eigvalsh(Q)[:, 0]
    # the sign is decided by construction, far above rounding
    assert 0 < np.count_nonzero(lo > 0.0) < len(lo)
    verdicts = np.array([_pd_violation(Q[i:i + 1]) is None for i in range(len(Q))])
    assert np.array_equal(verdicts, lo > 0.0)
    # on the whole batch: the worst matrix and its least eigenvalue
    assert _pd_violation(Q) == (int(np.argmin(lo)), float(lo.min()))
    assert _pd_violation(Q[lo > 0.0]) is None


def test_vk_monotone_under_inclusion(grid3):
    # Ball(1) inside Ball(1.2): every V_k must not decrease
    for k in (1, 2, 3):
        small = vk_quadrature(Ball(1.0), k, grid3).value
        big = vk_quadrature(Ball(1.2), k, grid3).value
        assert small < big


@pytest.mark.parametrize("body", [
    LogPerturbedBall(TestFunction.coordinate_harmonic(3), 0.1),
    WulffSampled(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)),
    Ball(1.0),  # no ambient dimension given
], ids=["log-perturbed-ball", "wulff-sampled", "ball-without-n"])
def test_vk_closed_form_rejects(body):
    with pytest.raises(DomainError):
        vk_closed_form(body, 1)
