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
    integrate,
    poincare_check,
    q_matrix_nodes,
    spherical_gradient,
    spherical_laplacian,
    tangent_hessian,
)
from quermass.calculus import q_from_jet


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


def test_laplacian_eigenfunction_degree2(grid3, grid4):
    # x_1^2 - 1/n is a spherical harmonic with eigenvalue 2n
    for grid, n in ((grid3, 3), (grid4, 4)):
        psi = TestFunction.coordinate_harmonic(n)
        lap = spherical_laplacian(psi, grid.nodes, grid.frames)
        assert_allclose(lap, -2.0 * n * psi(grid.nodes), atol=5e-8)


def test_laplacian_eigenfunction_degree4(grid3):
    # the zonal degree-4 harmonic has eigenvalue 4(n+2)
    n = 3
    psi = TestFunction.zonal_degree4(n)
    lap = spherical_laplacian(psi, grid3.nodes, grid3.frames)
    assert_allclose(lap, -4.0 * (n + 2) * psi(grid3.nodes), atol=5e-8)


def test_gradient_of_coordinate_harmonic(grid3):
    # on the sphere, grad (x_1^2) = 2 x_1 (e_1 - x_1 x)
    psi = TestFunction.coordinate_harmonic(3)
    G = spherical_gradient(psi, grid3.nodes)
    X = grid3.nodes
    expected = 2.0 * X[:, [0]] * (np.eye(3)[0][None, :] - X[:, [0]] * X)
    assert_allclose(G, expected, atol=1e-8)
    # gradient is tangential
    assert_allclose(np.einsum("mi,mi->m", G, X), 0.0, atol=1e-12)


def test_gradient_norm_integral_matches_eigenvalue(grid3):
    # int |grad psi|^2 = 2n int psi^2 for a degree-2 harmonic
    n = 3
    psi = TestFunction.coordinate_harmonic(n)
    G = spherical_gradient(psi, grid3.nodes)
    lhs = float(np.dot(grid3.weights, np.einsum("mi,mi->m", G, G)))
    rhs = 2.0 * n * integrate(grid3, lambda X: psi(X) ** 2)
    assert_allclose(lhs, rhs, rtol=1e-7)


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
    Q = (path._node_data(s)["Q"], path._q_psih(s), path._q_psi2h(s))[j]

    def field(X):
        return psi(X) ** j * body.support_values(X) * np.exp(s * psi(X))

    Q_fd, err = tangent_hessian(field, grid.nodes, grid.frames)
    assert np.all(np.abs(Q - Q_fd).max(axis=(1, 2)) <= err + 1e-9)


def test_ball_q_is_radius_times_identity_exactly(grid3, grid5):
    for grid in (grid3, grid5):
        N = grid.dimension - 1
        for R in (1.0, 2.5, 0.3):
            Q, err = q_matrix_nodes(Ball(R), grid)
            assert_allclose(Q, np.broadcast_to(R * np.eye(N), Q.shape), rtol=0, atol=1e-15)
            assert not err.any()


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
        q_matrix_nodes(SmoothWithoutJet(), grid3)
    with pytest.raises(DomainError):
        ibp_check(Ball(1.0), psi, field, psi, 1, grid3)
    with pytest.raises(DomainError):
        ball_fk_second(3, 2, field, grid3)
    with pytest.raises(DomainError):
        poincare_check(field, grid3)
