import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from quermass import (
    Ball,
    Body,
    DomainError,
    LogPerturbedBall,
    TestFunction,
    VariationPath,
    ball_fk_second,
    build_grid,
    elem_sym,
    ibp_check,
    poincare_check,
    tangent_hessian,
    vk_quadrature,
)
from quermass.calculus import Jet, q_from_jet
from quermass.intrinsic import _curvature


def _support_field(body):
    return lambda X: body.support_values(X)


def test_ball_hessian_is_radius_times_identity(grid3):
    # Q[h] = R I for the ball of radius R, at every node
    for R in (1.0, 2.5):
        Q, err = tangent_hessian(_support_field(Ball(R)), grid3.nodes, grid3.frames)
        expected = np.broadcast_to(R * np.eye(2), Q.shape)
        assert_allclose(Q, expected, atol=1e-9)
        # the estimate reports the pre-extrapolation truncation, so it is
        # conservative: small, but far above the actual extrapolated error
        assert err.max() < 1e-5


def test_hessian_output_symmetric(grid4):
    body = LogPerturbedBall(TestFunction.coordinate_harmonic(4), 0.3)
    Q, err = tangent_hessian(_support_field(body), grid4.nodes, grid4.frames)
    assert np.array_equal(Q, np.swapaxes(Q, 1, 2))
    assert err.max() < 1e-4


def test_gradient_of_coordinate_harmonic(grid3):
    # on the sphere, grad (x_1^2) = 2 x_1 (e_1 - x_1 x): the tangential part
    # (I - x x^T) of the jet's ambient gradient
    psi = TestFunction.coordinate_harmonic(3)
    X = grid3.nodes
    grad = psi.jet(X).grad
    G = grad - np.einsum("mi,mi->m", grad, X)[:, None] * X
    expected = 2.0 * X[:, [0]] * (np.eye(3)[0][None, :] - X[:, [0]] * X)
    assert_allclose(G, expected, atol=1e-8)
    # gradient is tangential
    assert_allclose(np.einsum("mi,mi->m", G, X), 0.0, atol=1e-12)


def test_hessian_error_estimate_tracks_accuracy(grid3):
    body = LogPerturbedBall(TestFunction.coordinate_harmonic(3), 0.2)
    Q_ref, _ = tangent_hessian(_support_field(body), grid3.nodes, grid3.frames,
                               step=5e-4)
    Q, err = tangent_hessian(_support_field(body), grid3.nodes, grid3.frames)
    actual = np.max(np.abs(Q - Q_ref))
    assert actual < 1e-7
    # conservative: the estimate should not undershoot the actual deviation
    assert err.max() >= actual
    assert err.max() < 1e-4


# -- the exact jet route against the finite-difference oracle ---------------

@st.composite
def _even_polynomials(draw, n, total):
    """An even polynomial of degree <= 4 in n variables with sum |c| = total."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        axes = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=4)
                    .filter(lambda a: len(a) % 2 == 0))
        exps = tuple(axes.count(a) for a in range(n))
        terms.append((draw(st.floats(0.1, 1.0)) * draw(st.sampled_from([-1.0, 1.0])), exps))
    norm = sum(abs(c) for c, _ in terms)
    return TestFunction(n, tuple(terms), total / norm)


@st.composite
def _path_fields(draw):
    n = draw(st.integers(2, 6))
    psi = draw(_even_polynomials(n, 0.03))
    if draw(st.booleans()):
        body = Ball(draw(st.floats(0.5, 2.0)))
    else:
        body = LogPerturbedBall(draw(_even_polynomials(n, 0.03)), draw(st.floats(-1.0, 1.0)))
    return n, psi, body, draw(st.floats(-2.0, 2.0)), draw(st.integers(0, 2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_path_fields())
def test_path_q_matches_finite_difference_oracle(case):
    # Q[psi^j h e^{s psi}] of a VariationPath against tangent_hessian of the
    # same field, within the oracle's own error estimate
    n, psi, body, s, j = case
    grid = build_grid(n, 24, "monte-carlo", seed=n)
    path = VariationPath(body, psi, 1, grid)
    Q = path._q_derivatives(s, j)[j]

    def field(X):
        return psi(X) ** j * body.support_values(X) * np.exp(s * psi(X))

    Q_fd, err = tangent_hessian(field, grid.nodes, grid.frames)
    assert np.all(np.abs(Q - Q_fd).max(axis=(1, 2)) <= err + 1e-9)


def _jet_product(a, b):
    """The product rule on R^n jets: the jet of the product of two fields."""
    cross = a.grad[:, :, None] * b.grad[:, None, :]
    return Jet(a.value * b.value,
               a.value[:, None] * b.grad + b.value[:, None] * a.grad,
               a.value[:, None, None] * b.hess + b.value[:, None, None] * a.hess
               + cross + np.swapaxes(cross, 1, 2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_path_fields())
def test_path_q_matches_jet_product_route(case):
    # the path's closed form in s, e^{s psi} (U_0 + s U_1 + s^2 U_2) and its
    # s-derivatives, against q_from_jet of the jet of psi^j h e^{s psi}
    n, psi, body, s, j = case
    grid = build_grid(n, 24, "monte-carlo", seed=n)
    path = VariationPath(body, psi, 1, grid)
    psi_jet = psi.jet(grid.nodes)
    jet = _jet_product(body.support_jet(grid.nodes), psi_jet.scaled(s).exp())
    for _ in range(j):
        jet = _jet_product(psi_jet, jet)
    Q_jet = q_from_jet(jet, grid.nodes, grid.frames)
    Q = path._q_derivatives(s, j)[j]
    assert np.abs(Q - Q_jet).max() <= 1e-12 * np.abs(Q_jet).max()


def test_ball_q_is_radius_times_identity_exactly(grid3, grid5):
    for grid in (grid3, grid5):
        N = grid.dimension - 1
        for R in (1.0, 2.5, 0.3):
            _, Q, _, _ = _curvature(Ball(R).support_jet(grid.nodes), grid.nodes, grid.frames, 0)
            assert Q.shape == (grid.node_count, N, N)
            assert_allclose(Q, np.broadcast_to(R * np.eye(N), Q.shape), rtol=0, atol=1e-15)


def _jet_laplacian(psi, grid):
    jet = psi.jet(grid.nodes)
    Q = q_from_jet(jet, grid.nodes, grid.frames)
    return np.einsum("mii->m", Q) - (grid.dimension - 1) * jet.value


def test_jet_laplacian_eigenfunctions(grid2, grid3, grid4, grid5):
    # Lap (x_1^2 - 1/n) = -2n psi and Lap zonal_degree4 = -4(n+2) psi, exactly
    for grid in (grid2, grid3, grid4, grid5, build_grid(6, 3, "product-angular")):
        n = grid.dimension
        psi2 = TestFunction.coordinate_harmonic(n, axis=n - 1)
        assert_allclose(_jet_laplacian(psi2, grid), -2.0 * n * psi2(grid.nodes),
                        rtol=0, atol=1e-12)
        psi4 = TestFunction.zonal_degree4(n)
        assert_allclose(_jet_laplacian(psi4, grid), -4.0 * (n + 2) * psi4(grid.nodes),
                        rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    _even_polynomials(n, 1.0), st.integers(0, 2 ** 16), st.integers(0, 6))))
def test_elementary_symmetric_functions_frame_invariant(case):
    # S_r(Q) does not depend on the orthonormal tangent frame
    psi, seed, r = case
    n = psi.dimension
    N = n - 1
    grid = build_grid(n, 16, "monte-carlo", seed=seed)
    rot, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((N, N)))
    jet = psi.jet(grid.nodes)
    Q1 = q_from_jet(jet, grid.nodes, grid.frames)
    Q2 = q_from_jet(jet, grid.nodes, rot @ grid.frames)
    r = min(r, N)
    S1 = np.array([elem_sym(r, Q) for Q in Q1])
    S2 = np.array([elem_sym(r, Q) for Q in Q2])
    scale = (1.0 + np.abs(Q1).max(axis=(1, 2))) ** r
    assert np.all(np.abs(S1 - S2) <= 1e-12 * scale)


def test_fields_without_a_jet_raise_domain_error(grid3):
    psi = TestFunction.coordinate_harmonic(3)

    def field(X):
        return psi(X)

    class SmoothWithoutJet(Body):
        is_smooth = True

        def support_values(self, U):
            return np.ones(U.shape[0])

    with pytest.raises(DomainError):
        VariationPath(Ball(1.0), field, 2, grid3)
    with pytest.raises(DomainError):
        VariationPath(SmoothWithoutJet(), psi, 2, grid3)
    with pytest.raises(DomainError):
        vk_quadrature(SmoothWithoutJet(), 2, grid3)
    with pytest.raises(DomainError):
        ibp_check(Ball(1.0), psi, field, psi, 1, grid3)
    with pytest.raises(DomainError):
        ball_fk_second(3, 2, field, grid3)
    with pytest.raises(DomainError):
        poincare_check(field, grid3)
