import math
import re
from dataclasses import asdict

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

import quermass.counterexamples as cx
from quermass.bodies import coordinate_cube
from quermass import (
    Ball,
    Box,
    DomainError,
    PMeanSpec,
    WulffSampled,
    build_grid,
    branch,
    containment_check,
    cube_pair,
    enclosing_box,
    pmean_values,
    threshold_pbar,
    threshold_table,
    v1_reverse_check,
    verify_counterexample,
    vk_ball,
    vk_closed_form,
)


def test_cube_pair_geometry():
    K0, K1 = cube_pair(5, 2)
    assert K0 == Box((0.0, 0.0, 0.0, 1.0, 1.0))
    assert K1 == Box((1.0, 1.0, 0.0, 0.0, 0.0))
    e1 = np.zeros(5)
    e1[0] = 1.0
    assert K1.support_values(e1[None, :])[0] == 1.0
    assert K0.support_values(e1[None, :])[0] == 0.0


def test_branch_selector():
    # recompute the integer conditions independently
    for n in range(3, 13):
        for k in range(2, n):
            if 2 * k <= n:
                expected = "low"
            elif 3 * k <= 2 * n:
                expected = "middle"
            else:
                expected = "high"
            assert branch(n, k) == expected
    assert branch(6, 3) == "low"
    assert branch(6, 4) == "middle"
    assert branch(6, 5) == "high"


def test_nk_validation():
    for n, k in ((2, 1), (4, 1), (4, 4), (5, 0)):
        with pytest.raises(DomainError):
            threshold_pbar(n, k)


def test_threshold_frozen_values():
    assert_allclose(threshold_pbar(3, 2), 1.0 / math.log2(3.0), rtol=1e-15)
    assert_allclose(threshold_pbar(3, 2), 0.6309297535714575, rtol=1e-14)
    assert_allclose(threshold_pbar(4, 2), 2.0 / math.log2(6.0), rtol=1e-15)
    assert_allclose(threshold_pbar(4, 2), 0.7737056144690833, rtol=1e-14)
    assert_allclose(threshold_pbar(4, 3), 1.0 / math.log2(3.0), rtol=1e-15)
    assert_allclose(threshold_pbar(5, 3), 1.0 / math.log2(14.0), rtol=1e-15)
    assert_allclose(threshold_pbar(5, 3), 0.26264953503719357, rtol=1e-14)
    assert_allclose(threshold_pbar(6, 3), 3.0 / math.log2(20.0), rtol=1e-15)
    assert_allclose(threshold_pbar(6, 4), 1.0 / math.log2(15.0), rtol=1e-15)
    assert_allclose(threshold_pbar(10, 7), 1.0 / math.log2(63.0), rtol=1e-15)


def test_threshold_bounds_sweep():
    # pbar < 1 everywhere; branch-specific bounds
    for n in range(3, 51):
        for k in range(2, n):
            pbar = threshold_pbar(n, k)
            b = branch(n, k)
            assert pbar < 1.0
            if b == "low":
                assert pbar > 0.5
            elif b == "middle":
                assert pbar < 1.0 / math.log2(2.0 * n / 3.0)
            else:
                assert pbar <= 1.0 / math.log2(3.0) + 1e-15


def test_low_branch_decreasing_in_k():
    # low-branch value k / log2 binom(2k, k) depends only on k and
    # decreases towards 1/2
    vals = [k / math.log2(math.comb(2 * k, k)) for k in range(2, 26)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.5


def test_threshold_table_shape():
    rows = threshold_table(3, 10)
    assert len(rows) == sum(n - 2 for n in range(3, 11))
    first = rows[0]
    assert first["n"] == 3 and first["k"] == 2 and first["branch"] == "middle"
    with pytest.raises(DomainError):
        threshold_table(2, 10)
    with pytest.raises(DomainError):
        threshold_table(5, 4)


def test_enclosing_box_half_lengths_bitwise():
    # K_p's half-length is 0, 2^{-1/p} or 1 as zero, one or both cubes cover
    # the coordinate, exactly: the certificate compares V_k of these values
    rng = np.random.default_rng(16)
    for p in [1.0, *map(float, 1.0 - rng.random(199))]:
        h = 2.0 ** (-1.0 / p)
        for n in range(3, 13):
            for k in range(2, n):
                covered = [(i < k) + (i >= n - k) for i in range(n)]
                expected = tuple((0.0, h, 1.0)[c] for c in covered)
                assert enclosing_box(n, k, p).half_lengths == expected


def test_enclosing_box_structure():
    # disjoint blocks: all active coordinates carry 2^{-1/p}
    assert enclosing_box(4, 2, 0.5).half_lengths == (0.25, 0.25, 0.25, 0.25)
    # one overlap coordinate in the middle
    assert enclosing_box(3, 2, 0.5).half_lengths == (0.25, 1.0, 0.25)
    # gap coordinate neither cube touches
    assert enclosing_box(5, 2, 0.5).half_lengths == (0.25, 0.25, 0.0, 0.25, 0.25)
    with pytest.raises(DomainError):
        enclosing_box(4, 2, 0.0)
    with pytest.raises(DomainError):
        enclosing_box(4, 2, 1.5)


def test_upper_bound_relations():
    # on the low and middle branches the box value never exceeds the
    # displayed closed form, and on the low branch (scaled 2k-cube) they
    # coincide; on the high branch the displayed form is only the
    # threshold-generating expression and can drop below the box value
    for n in range(3, 13):
        for k in range(2, n):
            for p in (threshold_pbar(n, k) / 2.0, threshold_pbar(n, k)):
                ex = verify_counterexample(n, k, p).extras
                b = branch(n, k)
                if b != "high":
                    assert ex["vk_upper_bound"] <= ex["vk_displayed_bound"] * (1.0 + 1e-12)
                if b == "low":
                    assert_allclose(ex["vk_upper_bound"], ex["vk_displayed_bound"],
                                    rtol=1e-12)


def test_high_branch_box_can_exceed_displayed():
    # frozen instance of the crossover: (6,5) at p = pbar
    ex = verify_counterexample(6, 5, threshold_pbar(6, 5)).extras
    assert_allclose(ex["vk_upper_bound"], 32.0 * 10.0 / 9.0, rtol=1e-12)
    assert ex["vk_upper_bound"] > ex["vk_displayed_bound"]


def test_displayed_bound_hits_target_at_pbar():
    for n, k in ((3, 2), (4, 2), (4, 3), (5, 3), (6, 4), (7, 5)):
        ex = verify_counterexample(n, k, threshold_pbar(n, k)).extras
        assert_allclose(ex["vk_displayed_bound"], 2.0**k, rtol=1e-12)


def test_box_bound_at_half_threshold_frozen():
    ex = verify_counterexample(4, 2, 0.5).extras
    assert_allclose(ex["vk_upper_bound"], 1.5, rtol=1e-12)
    # (3,2): half-lengths (1/9, 1, 1/9) at p = pbar/2 give 4 e_2 = 0.938...
    ex = verify_counterexample(3, 2, threshold_pbar(3, 2) / 2.0).extras
    assert_allclose(ex["vk_upper_bound"], 4.0 * (2.0 / 9.0 + 1.0 / 81.0), rtol=1e-12)


def test_verify_counterexample_below_threshold():
    # the module docstring claims p = pbar/2 is decided for 3 <= n <= 30
    for n in range(3, 31):
        for k in range(2, n):
            v = verify_counterexample(n, k, threshold_pbar(n, k) / 2.0)
            assert v.conclusion == "inequality-fails"
            assert v.margin > 0.0
            assert v.extras["branch"] == branch(n, k)
            assert v.lhs < v.rhs


def test_k_n_minus_1_not_decided_just_below_pbar():
    # V_{n-1}(K_p) = 2^{n-1} (2h + (n-2) h^2), h = 2^{-1/p}, meets 2^{n-1} at
    # p* = 1/log2(sqrt(n-1) + 1), which is below pbar = 1/log2(3) for n >= 6
    undecided = {(n, k) for n in range(3, 31) for k in range(2, n)
                 if verify_counterexample(n, k, 0.99 * threshold_pbar(n, k)).conclusion
                 != "inequality-fails"}
    assert undecided == {(n, n - 1) for n in range(6, 31)}
    for n in range(6, 31):
        p_star = 1.0 / math.log2(math.sqrt(n - 1) + 1.0)
        assert p_star < 0.99 * threshold_pbar(n, n - 1)
        assert verify_counterexample(n, n - 1, 0.99 * p_star).conclusion == "inequality-fails"
        assert verify_counterexample(n, n - 1, 1.01 * p_star).margin < 0.0


def test_k_n_minus_1_at_half_pbar_onset():
    # at pbar/2, h = 1/9: the pair fails for n <= 64, meets 2^{n-1} exactly at
    # n = 65 (h* = 1/(sqrt(64) + 1)) and holds from n = 66 on
    def undecided(n, k):
        return verify_counterexample(n, k, threshold_pbar(n, k) / 2.0).conclusion != \
            "inequality-fails"

    assert not any(undecided(n, k) for n in range(3, 65) for k in range(2, n))
    at_onset = verify_counterexample(65, 64, threshold_pbar(65, 64) / 2.0)
    assert at_onset.conclusion == "inconclusive"
    assert_allclose(at_onset.extras["vk_upper_bound"], 2.0 ** 64, rtol=1e-14)
    later = {(n, k) for n in range(66, 121) for k in range(2, n) if undecided(n, k)}
    assert later == {(n, n - 1) for n in range(66, 121)}
    assert all(verify_counterexample(n, n - 1, threshold_pbar(n, n - 1) / 2.0).margin < 0.0
               for n in range(66, 121))


def test_verify_counterexample_low_branch_at_pbar_inconclusive():
    # on the low branch box and displayed bounds coincide, so at p = pbar
    # the bound equals the target exactly and proves nothing
    v = verify_counterexample(4, 2, threshold_pbar(4, 2))
    assert v.conclusion == "inconclusive"
    assert_allclose(v.margin, 0.0, atol=1e-12)


def test_verify_counterexample_middle_branch_at_pbar_still_fails():
    # the box bound is strictly tighter than the displayed one on the
    # middle branch: V_2(box) = 28/9 < 4 even at p = pbar
    v = verify_counterexample(3, 2, threshold_pbar(3, 2))
    assert v.conclusion == "inequality-fails"
    assert_allclose(v.extras["vk_upper_bound"], 28.0 / 9.0, rtol=1e-12)


def test_high_branch_threshold_from_exact_integer():
    # the constant 4^{n-k} - 1 is an exact integer: the same doubles as the
    # float form below n = 120, and a finite threshold where 2.0^{2(n-k)} overflows
    for n in range(3, 120):
        for k in range(2, n):
            if branch(n, k) == "high":
                assert threshold_pbar(n, k) == 1.0 / math.log2(2.0 ** (2 * (n - k)) - 1.0)
    assert threshold_pbar(1600, 1068) == 1.0 / 1064.0
    # there 2^k is past the double range, so the verdict cannot be computed
    with pytest.raises(DomainError, match="n=1600, k=1068 is out of double range"):
        verify_counterexample(1600, 1068, threshold_pbar(1600, 1068) / 2.0)


def test_verify_counterexample_large_p_inconclusive():
    v = verify_counterexample(4, 2, 0.9)
    assert v.conclusion == "inconclusive"
    assert v.margin < 0.0


@pytest.mark.parametrize("check, message", [
    (lambda: verify_counterexample(4, 2, 0.0), "(0, 1]"),
    (lambda: verify_counterexample(4, 2, 1.5), "(0, 1]"),
    (lambda: v1_reverse_check(Ball(1.0), Ball(2.0), -0.1, 0.5, 3), "p must lie in [0, 1]"),
    (lambda: v1_reverse_check(Ball(1.0), Ball(2.0), 0.5, 1.5, 3), "t must lie in [0, 1]"),
], ids=["verify-p-zero", "verify-p-above-1", "reverse-p", "reverse-t"])
def test_p_and_t_outside_their_range_rejected(check, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        check()


def test_verdict_serialization():
    doc = asdict(verify_counterexample(4, 2, 0.5))
    assert doc["conclusion"] == "inequality-fails"
    assert doc["method"] == "enclosing-box"
    assert doc["extras"]["vk_target"] == 4.0
    assert doc["extras"]["pbar"] == threshold_pbar(4, 2)


def test_containment_certificate(grid4):
    worst = containment_check(4, 2, 0.5, grid4)
    assert worst <= 1e-9


def test_containment_certificate_overlap_case(grid3):
    worst = containment_check(3, 2, 0.4, grid3)
    assert worst <= 1e-9


def test_containment_rejects_a_grid_of_another_dimension(grid4):
    with pytest.raises(DomainError, match=r"grid on S\^2"):
        containment_check(3, 2, 0.3, grid4)


def _lp_containment(n, k, p, grid):
    # the LP route: support of the outer polytope by simplex at every node
    K0, K1 = cube_pair(n, k)
    dirs = np.vstack([grid.nodes, np.eye(n), -np.eye(n)])
    gauge = pmean_values(PMeanSpec(p, 0.5, K0, K1), dirs)
    lp = WulffSampled(dirs, gauge).support_values(grid.nodes)
    return float(np.max(lp - enclosing_box(n, k, p).support_values(grid.nodes)))


def test_containment_matches_lp_oracle():
    grid = build_grid(3, 5, "product-angular")
    assert abs(containment_check(3, 2, 0.4, grid) - _lp_containment(3, 2, 0.4, grid)) <= 1e-12


def test_containment_detects_a_too_small_box(grid3, monkeypatch):
    # shrinking one nonzero half-length by 1% must make the certificate fail
    def shrunk(n, k, p):
        a = list(enclosing_box(n, k, p).half_lengths)
        a[0] *= 0.99
        return Box(tuple(a))

    monkeypatch.setattr(cx, "enclosing_box", shrunk)
    assert containment_check(3, 2, 0.4, grid3) > 1e-9
    assert containment_check(4, 2, 0.5, build_grid(4, 4, "product-angular")) > 1e-9


_CONTAINMENT_GRIDS = {n: build_grid(n, 3, "product-angular") for n in range(3, 7)}


@st.composite
def _containment_cases(draw):
    n = draw(st.integers(3, 6))
    k = draw(st.integers(2, n - 1))
    return n, k, draw(st.floats(0.0, threshold_pbar(n, k), exclude_min=True))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_containment_cases())
def test_containment_certified_below_pbar(case):
    n, k, p = case
    assert containment_check(n, k, p, _CONTAINMENT_GRIDS[n]) <= 1e-12


def test_exact_v1_values():
    # the V_1 values v1_reverse_check starts from
    def v1(body, n=None):
        return vk_closed_form(body, 1, n).value

    assert_allclose(vk_ball(3, 1, 1.0).value, 4.0, rtol=1e-15)
    assert_allclose(v1(Ball(1.0), n=3), 4.0, rtol=1e-15)
    assert_allclose(v1(Ball(2.0), n=4), 2.0 * unit_ball_ratio(4), rtol=1e-12)
    assert v1(coordinate_cube(5, (0, 1))) == 4.0
    assert v1(Box((1.0, 1.0, 1.0))) == 6.0
    assert v1(Box((0.5, 2.0))) == 5.0
    with pytest.raises(DomainError):
        v1(Ball(1.0))


def unit_ball_ratio(n):
    from quermass import unit_ball_volume

    return n * unit_ball_volume(n) / unit_ball_volume(n - 1)


def test_v1_reverse_homothetic_equality():
    # dilates achieve equality; handled by the exact dilate branch
    v = v1_reverse_check(Box((1.0, 2.0, 0.5)), Box((2.0, 4.0, 1.0)), 0.5, 0.3, 3)
    assert v.method == "dilate-exact"
    assert v.conclusion == "holds"
    assert abs(v.margin) <= 1e-9

    v = v1_reverse_check(Ball(1.0), Ball(2.5), 0.7, 0.6, 4)
    assert v.method == "dilate-exact"
    assert abs(v.margin) <= 1e-9

    # p = 0 dilates are exact as well
    v = v1_reverse_check(Ball(1.0), Ball(3.0), 0.0, 0.5, 3)
    assert v.method == "dilate-exact"
    assert abs(v.margin) <= 1e-9


def test_v1_reverse_default_grid_outside_3_to_6():
    # defaults cover n = 3..6 only; elsewhere an explicit grid is required
    with pytest.raises(DomainError, match="explicit grid"):
        v1_reverse_check(*cube_pair(7, 3), 0.5, 0.5, 7)
    with pytest.raises(DomainError, match="explicit grid"):
        v1_reverse_check(Ball(1.0), Ball(2.0), 0.5, 0.5, 2)


def test_v1_reverse_rejects_a_grid_of_another_dimension(grid4):
    # on the wrong sphere the dilate pair would read `holds`, and a box of the
    # wrong length would fail in numpy
    with pytest.raises(DomainError, match=r"grid on S\^2"):
        v1_reverse_check(Ball(1.0), Ball(2.0), 0.5, 0.5, 3, grid=grid4)
    with pytest.raises(DomainError, match=r"grid on S\^2"):
        v1_reverse_check(Box((1.0, 1.0, 1.0)), Ball(1.0), 0.5, 0.5, 3, grid=grid4)


def test_v1_reverse_zero_factor():
    # {0} as one factor, p = 0: combination is {0}, gauge identically zero,
    # so the general bound already gives exact 0 = 0
    zero = Box((0.0, 0.0, 0.0))
    v = v1_reverse_check(zero, Box((1.0, 1.0, 1.0)), 0.0, 0.5, 3)
    assert v.method == "gauge-mean-width-bound"
    assert v.conclusion == "holds"
    assert v.lhs == 0.0 and v.rhs == 0.0

    # p > 0 with a {0} factor scales the other body exactly
    v = v1_reverse_check(zero, Box((1.0, 1.0, 1.0)), 0.5, 0.5, 3)
    assert v.method == "degenerate-exact"
    assert v.conclusion == "holds"
    assert_allclose(v.lhs, 0.5 * math.sqrt(6.0), rtol=1e-12)
    assert abs(v.margin) <= 1e-9

    v = v1_reverse_check(Box((1.0, 1.0, 1.0)), zero, 0.5, 0.25, 3)
    assert v.method == "degenerate-exact"
    assert abs(v.margin) <= 1e-9


def test_v1_reverse_strict_for_box_vs_ball():
    # non-homothetic pair: strict inequality with a certified margin
    v = v1_reverse_check(Box((1.0, 1.0, 1.0)), Ball(1.0), 0.5, 0.5, 3)
    assert v.method == "gauge-mean-width-bound"
    assert v.conclusion == "holds"
    assert v.margin > 5e-4


def test_v1_reverse_wulff_estimate():
    # the Wulff shape of a gauge never has support above the gauge, and the
    # gauge of a dilate pair is itself a support function
    grid = build_grid(3, 6, "product-angular")
    v = v1_reverse_check(Ball(1.0), Ball(2.0), 0.5, 0.5, 3, grid, wulff_estimate=True)
    assert v.method == "dilate-exact"
    assert_allclose(v.extras["v1_wulff_estimate"], v.lhs, rtol=1e-12)
    v = v1_reverse_check(Box((1.0, 0.5, 2.0)), Ball(1.0), 0.5, 0.5, 3, grid,
                         wulff_estimate=True)
    assert v.method == "gauge-mean-width-bound"
    assert v.extras["v1_wulff_estimate"] <= v.extras["v1_gauge_bound"] ** 0.5 * (1 + 1e-12)


def test_v1_reverse_embedded_cubes(grid4):
    # the section-7 pair at k = 1 scale: reverse inequality holds
    K0, K1 = cube_pair(4, 2)
    v = v1_reverse_check(K0, K1, 0.5, 0.5, 4)
    assert v.conclusion == "holds"
    assert v.margin > 0.0
