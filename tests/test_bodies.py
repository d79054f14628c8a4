import re

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from quermass import (
    Ball,
    Box,
    DomainError,
    LogPerturbedBall,
    PMeanSpec,
    TestFunction,
    UnsupportedBodyError,
    WulffSampled,
    body_from_json,
    pmean_values,
    wulff_support_upper,
)
from quermass.bodies import coordinate_cube, require_smooth


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_support_values():
    e1 = np.array([1.0, 0.0, 0.0])
    u = _unit([1.0, -2.0, 2.0])
    U = np.array([e1, u, [0.0, 1.0, 0.0]])

    assert np.array_equal(Ball(1.5).support_values(U), [1.5, 1.5, 1.5])

    h = Box((1.0, 2.0, 0.5)).support_values(U)
    assert h[0] == 1.0
    assert_allclose(h[1], (1.0 * 1 + 2.0 * 2 + 0.5 * 2) / 3.0, rtol=1e-15)

    h = coordinate_cube(3, (0, 2)).support_values(U)
    assert h[0] == 1.0 and h[2] == 0.0
    assert_allclose(h[1], (1.0 + 2.0) / 3.0, rtol=1e-15)

    psi = TestFunction.coordinate_harmonic(3)
    pb = LogPerturbedBall(psi, 0.1)
    assert_allclose(pb.support_values(U)[0], np.exp(0.1 * (1.0 - 1.0 / 3.0)), rtol=1e-15)


def test_body_validation():
    with pytest.raises(DomainError):
        Ball(-1.0)
    with pytest.raises(DomainError):
        Box((1.0, -2.0))
    with pytest.raises(DomainError, match="out of range"):
        coordinate_cube(3, (0, 5))
    with pytest.raises(DomainError, match="must be distinct"):
        coordinate_cube(3, (1, 1))


def test_smoothness_flags():
    assert Ball(1.0).is_smooth
    assert LogPerturbedBall(TestFunction.constant(3, 0.0), 1.0).is_smooth
    assert not Box((1.0, 1.0)).is_smooth
    assert not coordinate_cube(3, (0,)).is_smooth
    require_smooth(Ball(1.0), "test")
    with pytest.raises(UnsupportedBodyError):
        require_smooth(Box((1.0, 1.0)), "test")


def test_pmean_spec_validation():
    b = Ball(1.0)
    with pytest.raises(DomainError):
        PMeanSpec(1.5, 0.5, b, b)
    with pytest.raises(DomainError):
        PMeanSpec(-0.1, 0.5, b, b)
    with pytest.raises(DomainError):
        PMeanSpec(0.5, 1.5, b, b)


def test_pmean_endpoints_and_zero_convention(grid3):
    U = grid3.nodes
    cube0 = coordinate_cube(3, (1, 2))
    cube1 = coordinate_cube(3, (0, 1))
    h0 = cube0.support_values(U)
    h1 = cube1.support_values(U)

    # t endpoints return the respective support exactly, even for p = 0
    assert np.array_equal(pmean_values(PMeanSpec(0.0, 0.0, cube0, cube1), U), h0)
    assert np.array_equal(pmean_values(PMeanSpec(0.0, 1.0, cube0, cube1), U), h1)

    # p = 0 geometric mean vanishes where either factor vanishes
    g = pmean_values(PMeanSpec(0.0, 0.5, cube0, cube1), U)
    dead = (h0 == 0.0) | (h1 == 0.0)
    assert np.all(g[dead] == 0.0)
    live = ~dead
    assert_allclose(g[live], np.sqrt(h0[live] * h1[live]), rtol=1e-14)

    e1 = np.array([[1.0, 0.0, 0.0]])
    # 2^{-1/p} gap value from the acceptance example family
    assert_allclose(pmean_values(PMeanSpec(0.5, 0.5, cube0, cube1), e1), [0.25], rtol=1e-14)


def test_pmean_ordering(rng):
    # 0-mean <= p-mean <= arithmetic mean, pointwise, over random data
    b0 = Box((1.0, 2.0, 0.5))
    b1 = Ball(1.3)
    for _ in range(1000):
        U = rng.standard_normal((10, 3))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        p = rng.uniform(0.05, 1.0)
        t = rng.uniform(0.0, 1.0)
        g0 = pmean_values(PMeanSpec(0.0, t, b0, b1), U)
        gp = pmean_values(PMeanSpec(p, t, b0, b1), U)
        g1 = pmean_values(PMeanSpec(1.0, t, b0, b1), U)
        assert np.all(g0 <= gp + 1e-12)
        assert np.all(gp <= g1 + 1e-12)


def test_pmean_monotone_in_p(rng):
    b0 = Box((1.0, 2.0, 0.5))
    b1 = Ball(1.3)
    for _ in range(100):
        u = _unit(rng.standard_normal(3))
        t = rng.uniform(0.1, 0.9)
        ps = np.sort(rng.uniform(0.05, 1.0, size=4))
        vals = [pmean_values(PMeanSpec(p, t, b0, b1), u[None, :])[0] for p in ps]
        assert np.all(np.diff(vals) >= -1e-12)


@st.composite
def _pmean_cases(draw):
    n = draw(st.integers(2, 5))
    sizes = st.floats(0.0, 3.0, allow_subnormal=False)
    balls = st.floats(0.1, 3.0).map(Ball)
    boxes = st.lists(sizes, min_size=n, max_size=n).map(lambda a: Box(tuple(a)))
    body0, body1 = draw(balls | boxes), draw(balls | boxes)
    U = draw(hnp.arrays(np.float64, (4, n), elements=st.floats(-1.0, 1.0)))
    U = U[np.linalg.norm(U, axis=1) > 1e-3]
    t = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    p_lo, p_hi = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
    return PMeanSpec(p_lo, t, body0, body1), PMeanSpec(p_hi, t, body0, body1), U


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_pmean_cases())
def test_pmean_values_non_decreasing_in_p(case):
    # power-mean inequality: M_p <= M_q for p <= q, with p = 0 the geometric mean
    lo, hi, U = case
    U = U / np.linalg.norm(U, axis=1, keepdims=True)
    g_lo, g_hi = pmean_values(lo, U), pmean_values(hi, U)
    assert np.all(g_lo <= g_hi * (1.0 + 1e-12))


def test_zero_sum_scaling_identity(grid3, rng):
    # 0-combination of dilates: gauge(lam0 K0, lam1 K1) = lam0^{1-t} lam1^t gauge(K0, K1)
    U = grid3.nodes
    b0 = Box((1.0, 2.0, 0.5))
    b1 = Ball(1.3)
    for _ in range(10):
        lam0, lam1 = rng.uniform(0.2, 3.0, size=2)
        t = rng.uniform(0.0, 1.0)
        lhs = pmean_values(
            PMeanSpec(0.0, t, Box((lam0 * 1.0, lam0 * 2.0, lam0 * 0.5)), Ball(lam1 * 1.3)),
            U,
        )
        rhs = lam0 ** (1.0 - t) * lam1**t * pmean_values(PMeanSpec(0.0, t, b0, b1), U)
        assert_allclose(lhs, rhs, rtol=1e-12)


def test_wulff_ball_and_box(grid3, rng):
    # constant gauge R on the grid: support bound at grid nodes is exactly R
    R = 1.7
    vals = np.full(grid3.node_count, R)
    for i in range(0, grid3.node_count, 11):
        value, _ = wulff_support_upper(grid3.nodes, vals, grid3.nodes[i])
        assert_allclose(value, R, atol=1e-12)

    # box gauge on +-e_i reproduces the box support function exactly
    dirs = np.vstack([np.eye(3), -np.eye(3)])
    a = np.array([1.0, 2.0, 0.5])
    fvals = np.abs(dirs) @ a
    for _ in range(25):
        u = _unit(rng.standard_normal(3))
        value, x = wulff_support_upper(dirs, fvals, u)
        assert_allclose(value, np.abs(u) @ a, atol=1e-12)

    with pytest.raises(DomainError):
        wulff_support_upper(dirs, -fvals, _unit([1, 0, 0]))
    with pytest.raises(DomainError, match="unit vector"):
        wulff_support_upper(dirs, fvals, np.array([1.0, 1.0, 0.0]))


def test_wulff_sampled_body(grid3):
    vals = np.full(grid3.node_count, 2.0)
    body = WulffSampled(grid3.nodes, vals)
    assert not body.is_smooth
    out = body.support_values(grid3.nodes[:5])
    assert_allclose(out, 2.0, atol=1e-12)
    with pytest.raises(DomainError):
        WulffSampled(grid3.nodes, -vals)


@pytest.mark.parametrize("directions, values, message", [
    ([1.0, 0.0, 0.0], [1.0], "(m, n) array"),
    (np.eye(3), [1.0, 1.0], "shape (3,)"),
    (np.eye(3), np.ones((3, 1)), "shape (3,)"),
    (np.eye(3), [1.0, np.nan, 1.0], "finite"),
    ([[1.0, 0.0, np.inf], [0.0, 1.0, 0.0]], [1.0, 1.0], "finite"),
    (np.eye(3), [1.0, np.inf, 1.0], "finite"),
])
def test_wulff_sampled_rejects_malformed_input(directions, values, message):
    # the body and the LP entry share one gauge check; a NaN or infinite
    # gauge used to reach the LP and return a NaN or infinite support
    D, f = np.asarray(directions, dtype=float), np.asarray(values, dtype=float)
    with pytest.raises(DomainError, match=re.escape(message)):
        WulffSampled(D, f)
    with pytest.raises(DomainError, match=re.escape(message)):
        wulff_support_upper(D, f, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("u", [
    [np.nan, 0.0, 0.0],
    [np.inf, 0.0, 0.0],
    [1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [[1.0, 0.0, 0.0]],
], ids=["nan", "inf", "short", "long", "2-d"])
def test_wulff_support_upper_rejects_bad_direction(u):
    # a NaN u used to pass the unit check and end in a bare ValueError, and
    # a u of the wrong length in a bare numpy error
    dirs = np.vstack([np.eye(3), -np.eye(3)])
    with pytest.raises(DomainError, match="finite unit vector of length 3"):
        wulff_support_upper(dirs, np.ones(6), np.array(u))


def test_inclusion_chain_of_wulff_gauges(grid3, rng):
    # gauges are ordered pointwise, hence the Wulff shapes are nested:
    # any point of the outer polytope for the 0-gauge satisfies the
    # constraints of the p-gauge polytope, and so on up to p = 1
    b0 = Box((1.0, 2.0, 0.5))
    b1 = Ball(1.3)
    U = grid3.nodes
    g0 = pmean_values(PMeanSpec(0.0, 0.4, b0, b1), U)
    gp = pmean_values(PMeanSpec(0.5, 0.4, b0, b1), U)
    g1 = pmean_values(PMeanSpec(1.0, 0.4, b0, b1), U)
    assert np.all(g0 <= gp + 1e-12)
    assert np.all(gp <= g1 + 1e-12)
    for _ in range(5):
        u = _unit(rng.standard_normal(3))
        _, x = wulff_support_upper(U, g0, u)
        assert np.all(U @ x <= gp + 1e-9)
        _, x = wulff_support_upper(U, gp, u)
        assert np.all(U @ x <= g1 + 1e-9)


def test_body_from_json_literals():
    # the JSON body types the CLI reads
    psi = TestFunction.coordinate_harmonic(3)
    cases = [
        ({"type": "ball", "radius": 1.25}, Ball(1.25)),
        ({"type": "box", "half_lengths": [1, 2, 0.5]}, Box((1.0, 2.0, 0.5))),
        ({"type": "embedded_cube", "dimension": 4, "indices": [0, 1]}, Box((1.0, 1.0, 0.0, 0.0))),
        ({"type": "log_perturbed_ball", "s": 0.2, "psi": psi.to_json()},
         LogPerturbedBall(psi, 0.2)),
    ]
    U3 = np.array([_unit([1.0, -0.3, 0.4])])
    for doc, body in cases:
        parsed = body_from_json(doc)
        assert type(parsed) is type(body)
        if isinstance(body, Box):
            assert parsed == body
        else:
            assert_allclose(parsed.support_values(U3), body.support_values(U3), rtol=1e-15)
    with pytest.raises(DomainError, match="out of range"):
        body_from_json({"type": "embedded_cube", "dimension": 3, "indices": [0, 3]})
    for kind in ("dodecahedron", "wulff_sampled"):
        with pytest.raises(DomainError, match=f"unknown body type '{kind}'"):
            body_from_json({"type": kind, "directions": [[1.0]], "values": [1.0]})
