import numpy as np
import pytest
from numpy.testing import assert_allclose

from quermass import WulffUnboundedError
from quermass.simplex import support_lp


def test_box_support_exact(rng):
    # constraints +-e_i with box values reproduce sum a_i |u_i| exactly
    n = 3
    dirs = np.vstack([np.eye(n), -np.eye(n)])
    a = np.array([1.0, 2.0, 0.5])
    vals = np.abs(dirs) @ a
    for _ in range(100):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        value, x = support_lp(dirs, vals, u)
        assert_allclose(value, np.abs(u) @ a, atol=1e-12)
        # optimum is feasible
        assert np.max(dirs @ x - vals) <= 1e-9


def test_unit_values_at_constraint_directions(grid3):
    # f = 1 on the constraint set: the direction itself is feasible, so the
    # support value at any constraint direction is exactly 1
    vals = np.ones(grid3.node_count)
    for i in range(0, grid3.node_count, 7):
        value, _ = support_lp(grid3.nodes, vals, grid3.nodes[i])
        assert_allclose(value, 1.0, atol=1e-12)


def test_outer_polytope_value_bounded_below(grid3, rng):
    # the feasible region contains the unit ball, so support >= 1 everywhere
    vals = np.ones(grid3.node_count)
    for _ in range(10):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        value, x = support_lp(grid3.nodes, vals, u)
        assert value >= 1.0 - 1e-12
        assert value < 1.1
        assert np.max(grid3.nodes @ x - vals) <= 1e-9


def test_unbounded_detected():
    dirs = np.array([[1.0, 0.0, 0.0]])
    vals = np.array([1.0])
    with pytest.raises(WulffUnboundedError):
        support_lp(dirs, vals, np.array([0.0, 1.0, 0.0]))


def test_zero_value_constraints():
    # slab degenerate in two coordinates
    dirs = np.vstack([np.eye(3), -np.eye(3)])
    vals = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    v1, x1 = support_lp(dirs, vals, np.array([1.0, 0.0, 0.0]))
    assert_allclose(v1, 1.0, atol=1e-12)
    assert_allclose(x1, [1.0, 0.0, 0.0], atol=1e-12)
    v2, _ = support_lp(dirs, vals, np.array([0.0, 1.0, 0.0]))
    assert_allclose(v2, 0.0, atol=1e-12)


def test_random_polytope_consistency(rng):
    # support is positively homogeneous and subadditive in the direction
    n = 4
    dirs = rng.standard_normal((30, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, -dirs])
    vals = np.full(len(dirs), 1.0) + 0.2 * rng.random(len(dirs))
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    su, _ = support_lp(dirs, vals, u)
    sv, _ = support_lp(dirs, vals, v)
    suv, _ = support_lp(dirs, vals, u + v)
    s2u, _ = support_lp(dirs, vals, 2.0 * u)
    assert suv <= su + sv + 1e-9
    assert_allclose(s2u, 2.0 * su, rtol=1e-10)


def test_redundant_equality_row_is_dropped():
    # no direction has an e_3 component and u_3 = 0, so the third dual row
    # is 0 = 0: its artificial variable stays basic at zero level
    dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    value, x = support_lp(dirs, np.ones(4), np.array([0.6, 0.8, 0.0]))
    assert_allclose(value, 1.4, rtol=1e-15)
    assert_allclose(x, [1.0, 1.0, 0.0], atol=1e-15)
    with pytest.raises(WulffUnboundedError):
        support_lp(dirs, np.ones(4), np.array([0.6, 0.0, 0.8]))
