import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from quermass import (
    Ball,
    Box,
    PMeanSpec,
    WulffSampled,
    WulffUnboundedError,
    build_grid,
    pmean_values,
)
from quermass.bodies import coordinate_cube
from quermass.simplex import _dense_lp, support_lp


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


# -- constraint generation against the full row set -------------------------

# n = 5 is the 4802-node grid whose small row subsets are degenerate (a
# redundant dual equality row)
_LP_GRIDS = {n: build_grid(n, res, "product-angular") for n, res in ((3, 14), (4, 8), (5, 7))}


def _cubes(n, k):
    # the k-cubes of cube_pair, for any 1 <= k < n
    return coordinate_cube(n, range(n - k, n)), coordinate_cube(n, range(k))


@st.composite
def _lp_cases(draw):
    n = draw(st.integers(3, 5))
    p = draw(st.floats(0.0, 1.0))
    t = draw(st.floats(0.05, 0.95))
    if draw(st.booleans()):
        # with 2k < n some coordinate is in neither cube: zero-gauge rows at +-e_i
        bodies = _cubes(n, draw(st.integers(1, n - 1)))
    else:
        half = draw(st.lists(st.floats(0.2, 2.0), min_size=n, max_size=n))
        bodies = Box(tuple(half)), Ball(draw(st.floats(0.2, 2.0)))
    D = np.vstack([_LP_GRIDS[n].nodes, np.eye(n), -np.eye(n)])
    f = pmean_values(PMeanSpec(p, t, *bodies), D)
    if draw(st.booleans()):
        u = D[draw(st.integers(0, len(D) - 1))]
    else:
        u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return D, f, u


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_lp_cases())
def test_constraint_generation_matches_full_rows(case):
    D, f, u = case
    value, x = support_lp(D, f, u)
    full, _ = _dense_lp(D, f, u)
    assert_allclose(value, full, rtol=1e-12, atol=1e-12)
    assert np.max(D @ x - f) <= 1e-9


def _one_sided_rows():
    # ten rows around e_1, all with positive e_2 and e_3 parts: the first
    # 2n rows by d.u miss e_1 from their positive span
    theta = np.linspace(0.1, 1.4, 10)
    arc = np.stack([np.ones(10), 0.1 * np.cos(theta), 0.1 * np.sin(theta)], axis=1)
    return arc / np.linalg.norm(arc, axis=1, keepdims=True)


def test_unbounded_subset_is_doubled():
    D = np.vstack([_one_sided_rows(), -np.eye(3), np.eye(3)[1:]])
    f = np.linspace(1.0, 2.0, len(D))
    u = np.array([1.0, 0.0, 0.0])
    value, _ = support_lp(D, f, u)
    assert_allclose(value, _dense_lp(D, f, u)[0], rtol=1e-12)


def test_unbounded_needs_every_row():
    # the rows lie in the half-space x_1 > 0, so -e_1 is unbounded however many are used
    with pytest.raises(WulffUnboundedError):
        support_lp(_one_sided_rows(), np.ones(10), np.array([-1.0, 0.0, 0.0]))


@pytest.mark.parametrize("n, res, k", [(3, 6, 1), (4, 4, 2), (4, 4, 1)])
def test_wulff_support_values_at_own_nodes(n, res, k, rng):
    # tight-vertex reuse gives the per-node full solve and never exceeds the
    # gauge; the random gauge leaves many rows slack at every vertex
    nodes = build_grid(n, res, "product-angular").nodes
    gauges = [pmean_values(PMeanSpec(0.5, 0.3, *bodies), nodes)
              for bodies in (_cubes(n, k), (Box(tuple(np.linspace(0.5, 1.5, n))), Ball(1.1)))]
    gauges.append(1.0 + 0.3 * rng.random(len(nodes)))
    for f in gauges:
        values = WulffSampled(nodes, f).support_values(nodes)
        full = np.array([_dense_lp(nodes, f, u)[0] for u in nodes])
        assert_allclose(values, full, rtol=1e-12, atol=1e-12)
        assert np.all(values <= f)


def test_reuse_needs_a_tight_vertex():
    # the +-e_i rows carve the unit cube and every node's value sits 1e-9
    # (relative) above the cube's support there: no vertex is tight at a node
    nodes = build_grid(3, 6, "product-angular").nodes
    D = np.vstack([np.eye(3), -np.eye(3), nodes])
    f = np.abs(D).sum(axis=1)
    f[6:] *= 1.0 + 1e-9
    values = WulffSampled(D, f).support_values(nodes)
    assert_allclose(values, np.abs(nodes).sum(axis=1), rtol=1e-13)
