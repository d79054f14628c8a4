import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quermass import (
    Ball,
    Box,
    DomainError,
    EmbeddedCube,
    branch,
    containment_check,
    cube_pair,
    enclosing_box,
    exact_v1,
    threshold_pbar,
    threshold_table,
    upper_bound_vk_kp,
    v1_reverse_check,
    verify_counterexample,
)
from quermass.counterexamples import exact_v1_ball


def test_cube_pair_geometry():
    K0, K1 = cube_pair(5, 2)
    assert K0.indices == (3, 4)
    assert K1.indices == (0, 1)
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
                ub = upper_bound_vk_kp(n, k, p)
                b = branch(n, k)
                if b != "high":
                    assert ub.box_value <= ub.displayed_value * (1.0 + 1e-12)
                if b == "low":
                    assert_allclose(ub.box_value, ub.displayed_value, rtol=1e-12)


def test_high_branch_box_can_exceed_displayed():
    # frozen instance of the crossover: (6,5) at p = pbar
    ub = upper_bound_vk_kp(6, 5, threshold_pbar(6, 5))
    assert_allclose(ub.box_value, 32.0 * 10.0 / 9.0, rtol=1e-12)
    assert ub.box_value > ub.displayed_value


def test_displayed_bound_hits_target_at_pbar():
    for n, k in ((3, 2), (4, 2), (4, 3), (5, 3), (6, 4), (7, 5)):
        ub = upper_bound_vk_kp(n, k, threshold_pbar(n, k))
        assert_allclose(ub.displayed_value, 2.0**k, rtol=1e-12)


def test_box_bound_at_half_threshold_frozen():
    ub = upper_bound_vk_kp(4, 2, 0.5)
    assert_allclose(ub.box_value, 1.5, rtol=1e-12)
    # (3,2): half-lengths (1/9, 1, 1/9) at p = pbar/2 give 4 e_2 = 0.938...
    ub = upper_bound_vk_kp(3, 2, threshold_pbar(3, 2) / 2.0)
    assert_allclose(ub.box_value, 4.0 * (2.0 / 9.0 + 1.0 / 81.0), rtol=1e-12)


def test_verify_counterexample_below_threshold():
    # the module docstring claims p = pbar/2 is decided for 3 <= n <= 30
    for n in range(3, 31):
        for k in range(2, n):
            v = verify_counterexample(n, k, threshold_pbar(n, k) / 2.0)
            assert v.conclusion == "inequality-fails"
            assert v.margin > 0.0
            assert v.extras["branch"] == branch(n, k)
            assert v.lhs < v.rhs


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


def test_verify_counterexample_large_p_inconclusive():
    v = verify_counterexample(4, 2, 0.9)
    assert v.conclusion == "inconclusive"
    assert v.margin < 0.0


def test_verdict_serialization():
    doc = verify_counterexample(4, 2, 0.5).to_json()
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


def test_exact_v1_values():
    assert_allclose(exact_v1_ball(3, 1.0), 4.0, rtol=1e-15)
    assert_allclose(exact_v1(Ball(1.0), n=3), 4.0, rtol=1e-15)
    assert_allclose(exact_v1(Ball(2.0), n=4), 2.0 * unit_ball_ratio(4), rtol=1e-12)
    assert exact_v1(EmbeddedCube(5, (0, 1))) == 4.0
    assert exact_v1(Box((1.0, 1.0, 1.0))) == 6.0
    assert exact_v1(Box((0.5, 2.0))) == 5.0
    with pytest.raises(DomainError):
        exact_v1(Ball(1.0))


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


def test_v1_reverse_embedded_cubes(grid4):
    # the section-7 pair at k = 1 scale: reverse inequality holds
    K0, K1 = cube_pair(4, 2)
    v = v1_reverse_check(K0, K1, 0.5, 0.5, 4)
    assert v.conclusion == "holds"
    assert v.margin > 0.0
