import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_jacobi

import quermass

from quermass import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    TestFunction,
    build_grid,
    integrate,
    surface_area,
)
from quermass.sphere import GRID_METHODS, REFERENCE_RESOLUTION, _jacobi_rule


def test_surface_area_values():
    # n kappa_n for n = 2..5
    assert_allclose(surface_area(2), 2 * math.pi, rtol=1e-15)
    assert_allclose(surface_area(3), 4 * math.pi, rtol=1e-15)
    assert_allclose(surface_area(4), 2 * math.pi**2, rtol=1e-15)
    assert_allclose(surface_area(5), 8 * math.pi**2 / 3, rtol=1e-15)
    with pytest.raises(DomainError):
        surface_area(0)


@pytest.mark.parametrize("n,res", [(2, 10), (3, 6), (4, 5), (5, 4), (6, 3)])
def test_product_grid_basic(n, res):
    g = build_grid(n, res, "product-angular")
    assert g.nodes.shape == (g.node_count, n)
    assert g.weights.shape == (g.node_count,)
    assert g.frames.shape == (g.node_count, n - 1, n)
    # nodes on the unit sphere
    assert_allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-14)
    # weights positive and summing to the sphere area almost exactly
    assert np.all(g.weights > 0)
    assert_allclose(g.weights.sum(), surface_area(n), rtol=1e-13)


@pytest.mark.parametrize("n,res", [(2, 10), (3, 6), (4, 5), (5, 4), (6, 3)])
def test_product_grid_antipodal_closure(n, res):
    g = build_grid(n, res, "product-angular")
    # -x present bitwise with the same weight; +0.0 normalizes signed zeros
    seen = {(x + 0.0).tobytes(): w for x, w in zip(g.nodes, g.weights)}
    for x, w in zip(g.nodes, g.weights):
        key = ((-x) + 0.0).tobytes()
        assert key in seen
        assert seen[key] == w


def test_icosphere_antipodal_closure():
    g = build_grid(3, 4, "icosphere-n3")
    m = g.node_count
    assert np.array_equal(g.nodes[m // 2:], -g.nodes[: m // 2])
    assert np.array_equal(g.weights[m // 2:], g.weights[: m // 2])


def _half_rule_cases():
    for n in range(2, 7):
        yield from ((n, res, "product-angular") for res in (3, 4))
        yield from ((n, res, "monte-carlo") for res in (7, 8, 9))
    yield from ((3, res, "icosphere-n3") for res in (3, 4))


@pytest.mark.parametrize("n,res,method", list(_half_rule_cases()))
def test_half_rule_holds_one_node_of_each_antipodal_pair(n, res, method):
    g = build_grid(n, res, method, seed=n)
    half, m = g.half, g.node_count
    # the antipode of each node, by bytes; +0.0 normalizes signed zeros
    where = {(x + 0.0).tobytes(): i for i, x in enumerate(g.nodes)}
    assert len(where) == m
    anti = np.array([where[((-x) + 0.0).tobytes()] for x in g.nodes])
    assert np.array_equal(anti[anti], np.arange(m)) and np.all(anti != np.arange(m))
    # the first half holds exactly one node of each pair, at twice its weight
    assert half.node_count == m // 2
    assert np.all(anti[: m // 2] >= m // 2)
    assert np.array_equal(g.weights[anti], g.weights)
    assert np.array_equal(g.frames[anti], g.frames)
    assert np.array_equal(half.nodes, g.nodes[: m // 2])
    assert np.array_equal(half.frames, g.frames[: m // 2])
    assert np.array_equal(half.weights, 2.0 * g.weights[: m // 2])
    assert_allclose(half.weights.sum(), g.area, rtol=1e-13)


def test_half_rule_is_built_on_first_use():
    g = build_grid(4, 5, "product-angular")
    fingerprint = g.fingerprint()
    assert "half" not in vars(g)
    half = g.half
    assert g.half is half
    assert g.node_count == 2 * 5 ** 3 and g.fingerprint() == fingerprint
    for arr in (half.nodes, half.weights, half.frames):
        assert not arr.flags.writeable


def test_odd_functions_cancel(grid4):
    val = integrate(grid4, lambda X: X[:, 0] ** 3 * X[:, 1] ** 2)
    assert abs(val) < 1e-14
    val = integrate(grid4, lambda X: X[:, 2])
    assert abs(val) < 1e-14


@pytest.mark.parametrize("n,res", [(3, 6), (4, 6), (5, 5)])
def test_product_grid_moment_exactness(n, res):
    # low-order even moments with known closed forms
    g = build_grid(n, res, "product-angular")
    area = surface_area(n)
    m2 = integrate(g, lambda X: X[:, 0] ** 2)
    m4 = integrate(g, lambda X: X[:, 0] ** 4)
    m22 = integrate(g, lambda X: X[:, 0] ** 2 * X[:, 1] ** 2)
    assert_allclose(m2, area / n, rtol=1e-13)
    assert_allclose(m4, 3.0 * area / (n * (n + 2)), rtol=1e-13)
    assert_allclose(m22, area / (n * (n + 2)), rtol=1e-13)


def test_product_grid_spectral_accuracy(grid3):
    # int_{S^2} exp(x_1) = 4 pi sinh(1); smooth integrand converges fast
    val = integrate(grid3, lambda X: np.exp(X[:, 0]))
    exact = 4 * math.pi * math.sinh(1.0)
    assert_allclose(val, exact, rtol=1e-14)


def test_icosphere_refinement():
    exact = 4 * math.pi * math.sinh(1.0)
    errs = []
    for res in (4, 8, 16):
        g = build_grid(3, res, "icosphere-n3")
        errs.append(abs(integrate(g, lambda X: np.exp(X[:, 0])) - exact))
    # roughly second order in the subdivision frequency
    assert errs[1] < errs[0] / 3.0
    assert errs[2] < errs[1] / 3.0


def test_monte_carlo_grid():
    g = build_grid(3, 5000, "monte-carlo", seed=1)
    assert g.node_count == 5000
    assert_allclose(g.weights.sum(), surface_area(3), rtol=1e-14)
    assert_allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-14)
    exact = 4 * math.pi * math.sinh(1.0)
    val = integrate(g, lambda X: np.exp(X[:, 0]))
    assert abs(val - exact) < 0.12

    # same seed reproduces bitwise, different seed does not
    g_same = build_grid(3, 5000, "monte-carlo", seed=1)
    assert np.array_equal(g.nodes, g_same.nodes)
    g_other = build_grid(3, 5000, "monte-carlo", seed=2)
    assert not np.array_equal(g.nodes, g_other.nodes)


def test_build_grid_argument_errors():
    with pytest.raises(ConfigurationError):
        build_grid(7, 4, "product-angular")  # dimension cap for product rules
    with pytest.raises(ConfigurationError):
        build_grid(4, 4, "icosphere-n3")
    with pytest.raises(ConfigurationError):
        build_grid(3, 4, "no-such-method")
    with pytest.raises(DomainError):
        build_grid(1, 4, "product-angular")
    with pytest.raises(DomainError):
        build_grid(3, 0, "product-angular")


def test_grid_methods_registry():
    assert set(GRID_METHODS) == {"product-angular", "icosphere-n3", "monte-carlo"}
    assert set(REFERENCE_RESOLUTION) == {2, 3, 4, 5, 6}


@pytest.mark.parametrize("n,res", [(3, 6), (4, 5), (6, 3)])
def test_frames_orthonormal(n, res):
    g = build_grid(n, res, "product-angular")
    F = g.frames
    for i in range(0, g.node_count, max(1, g.node_count // 50)):
        x = g.nodes[i]
        G = F[i] @ F[i].T
        assert_allclose(G, np.eye(n - 1), atol=2e-15)
        assert_allclose(F[i] @ x, 0.0, atol=2e-15)


@pytest.mark.parametrize("n", range(2, 7))
def test_jacobi_rule_matches_scipy(n):
    # Golub-Welsch against scipy's rule for the polar weight (1-t^2)^((n-3)/2);
    # n = 2 is the a = -1/2 (Chebyshev) case with its 0/0 first coefficient
    alpha = (n - 3) / 2.0
    for m in range(1, 65):
        t, w = _jacobi_rule(m, alpha)
        t_ref, w_ref = roots_jacobi(m, alpha, alpha)
        order = np.argsort(t_ref)
        assert np.max(np.abs(t - t_ref[order])) <= 1e-13
        assert np.max(np.abs(w - w_ref[order])) <= 1e-13


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(quermass.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, quermass, quermass.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_grid_fingerprint_and_json_roundtrip(grid3):
    fp = grid3.fingerprint()
    assert isinstance(fp, str) and len(fp) == 64
    assert build_grid(3, 6, "product-angular").fingerprint() != fp

    # a report records (n, resolution, method, seed); rebuilding from those
    # four values, read back from JSON, gives the same grid bit for bit
    doc = json.loads(json.dumps({"n": grid3.dimension, "resolution": grid3.resolution,
                                 "method": grid3.method, "seed": grid3.seed}))
    again = build_grid(**doc)
    assert again.fingerprint() == fp
    assert np.array_equal(again.nodes, grid3.nodes)
    assert np.array_equal(again.weights, grid3.weights)
    assert np.array_equal(again.frames, grid3.frames)


def test_grid_arrays_read_only(grid3):
    with pytest.raises(ValueError):
        grid3.nodes[0, 0] = 2.0
    with pytest.raises(ValueError):
        grid3.weights[0] = 2.0


def test_integrate_rejects_non_finite(grid3):
    def bad(X):
        out = np.ones(len(X))
        out[3] = np.nan
        return out

    with pytest.raises(EvaluationError) as exc_info:
        integrate(grid3, bad)
    assert exc_info.value.node_index == 3


def test_integrate_rejects_scalar_field(grid3):
    # the field is called once on all nodes; a single-point callable returns
    # one value for the whole array, which is rejected instead of looped over
    with pytest.raises(DomainError):
        integrate(grid3, lambda x: float(np.sum(x**2)))
    val = integrate(grid3, lambda X: np.sum(X**2, axis=1))
    assert_allclose(val, surface_area(3), rtol=1e-13)


def test_test_function_evenness_enforced():
    with pytest.raises(DomainError):
        TestFunction(3, (((1.0, (1, 0, 0)),)), 1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: TestFunction(3, ((1.0, (2, 0)),)), "length must equal the dimension"),
    (lambda: TestFunction(3, ((1.0, (4, -2, 0)),)), "non-negative"),
    (lambda: TestFunction.quadratic(np.array([[1.0, 0.5], [0.0, 1.0]])), "symmetric matrix"),
], ids=["exponent-length", "negative-exponent", "asymmetric-quadratic"])
def test_test_function_rejects_malformed_terms(make, message):
    with pytest.raises(DomainError, match=message):
        make()


@pytest.mark.parametrize("shape", [(5, 4), (5, 2), (3,), (2, 5, 3)])
@pytest.mark.parametrize("method", ["__call__", "jet"])
def test_test_function_rejects_nodes_of_other_dimension(shape, method):
    # a psi of dimension 3 used to index past the nodes' last axis or to
    # read only their first 3 coordinates
    psi = TestFunction.quadratic(np.diag([1.0, 0.0, -1.0]), constant=0.5)
    with pytest.raises(DomainError, match=r"\(m, 3\) node array"):
        getattr(psi, method)(np.ones(shape))


def test_test_function_constructors(grid3):
    n = 3
    harm = TestFunction.coordinate_harmonic(n)
    X = grid3.nodes
    assert_allclose(harm(X), X[:, 0] ** 2 - 1.0 / n, atol=1e-15)
    # zero mean on the sphere
    assert abs(integrate(grid3, harm)) < 1e-13

    zon = TestFunction.zonal_degree4(n)
    e1 = np.array([1.0, 0.0, 0.0])
    expected = 1.0 - 6.0 / (n + 4) + 3.0 / ((n + 2) * (n + 4))
    assert_allclose(zon(e1[None, :])[0], expected, rtol=1e-14)
    assert abs(integrate(grid3, zon)) < 1e-13

    const = TestFunction.constant(n, 0.7)
    assert_allclose(const(X), 0.7, atol=1e-15)

    A = np.diag([1.0, 2.0, 3.0])
    quad = TestFunction.quadratic(A, constant=0.5, amplitude=0.1)
    expected = 0.1 * (np.einsum("mi,ij,mj->m", X, A, X) + 0.5)
    assert_allclose(quad(X), expected, atol=1e-14)


def test_test_function_scaled_shifted(grid3):
    harm = TestFunction.coordinate_harmonic(3)
    X = grid3.nodes
    assert_allclose(harm.scaled(0.25)(X), 0.25 * harm(X), atol=1e-15)
    assert_allclose(harm.shifted(-0.1)(X), harm(X) - 0.1, atol=1e-15)
    # at amplitude 0 the shift is the whole function
    assert_allclose(harm.scaled(0.0).shifted(0.3)(X), 0.3, atol=1e-15)


def test_test_function_json_roundtrip():
    quad = TestFunction.quadratic(np.array([[1.0, 0.5], [0.5, 2.0]]), constant=0.3,
                                  amplitude=0.05)
    doc = quad.to_json()
    again = TestFunction.from_json(json.loads(json.dumps(doc)))
    X = np.array([[0.6, 0.8], [-1.0, 0.0]])
    assert_allclose(again(X), quad(X), atol=1e-15)
