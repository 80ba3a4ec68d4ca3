"""Euler-characteristic tables: building blocks, fiber sums, distinctness."""

from __future__ import annotations

import pytest

from lbfkit.topo import (
    Disk,
    DiskBundleOverQuadric,
    DiskCotangentSphere,
    EulerReport,
    Quadric,
    Sphere,
    chi_fiber_sum,
    chi_filling,
    chi_space,
    distinctness_report,
    filling_slope,
    milnor_fiber_chi,
)


def test_sphere_chi():
    assert chi_space(Sphere(2)) == 2
    assert chi_space(Sphere(3)) == 0
    assert chi_space(Sphere(0)) == 2


def test_quadric_conventions_agree_for_odd_n():
    # Q^1 is a conic, a 2-sphere; both conventions see chi = 2
    assert chi_space(Quadric(1), "betti") == 2
    assert chi_space(Quadric(1), "alternate") == 2
    assert chi_space(Quadric(3), "betti") == chi_space(Quadric(3), "alternate") == 4


def test_quadric_conventions_split_for_even_n():
    # betti counts the doubled middle class, the closed expression misses it
    assert chi_space(Quadric(2), "betti") == 4
    assert chi_space(Quadric(2), "alternate") == 2
    assert chi_space(Quadric(4), "betti") == 6
    assert chi_space(Quadric(4), "alternate") == 4


def test_remaining_building_blocks():
    assert chi_space(Disk()) == 1
    assert chi_space(Disk(dim=7)) == 1
    assert chi_space(DiskBundleOverQuadric(2)) == chi_space(Quadric(2))
    assert chi_space(DiskBundleOverQuadric(3), "alternate") == 4
    assert chi_space(DiskCotangentSphere(2)) == 2
    assert chi_space(DiskCotangentSphere(3)) == 0


def test_chi_space_validation():
    with pytest.raises(ValueError, match="convention"):
        chi_space(Sphere(2), "euler")
    with pytest.raises(ValueError):
        Sphere(-1)
    with pytest.raises(ValueError):
        Quadric(-2)


def test_fiber_sum_examples():
    assert chi_fiber_sum([4, 1], 2) == 3
    assert chi_fiber_sum([9], 5) == 9
    assert chi_fiber_sum([1, 1, 1, 1], 2) == -2
    with pytest.raises(ValueError, match="at least one part"):
        chi_fiber_sum([], 2)


def test_fiber_sum_associative(rng):
    # folding in any binary grouping must match the closed form
    for _ in range(100):
        parts = [rng.randrange(-5, 9) for _ in range(rng.randrange(1, 7))]
        chi_f = rng.randrange(-3, 4)
        total = chi_fiber_sum(parts, chi_f)
        acc = parts[0]
        for p in parts[1:]:
            acc = chi_fiber_sum([acc, p], chi_f)
        assert acc == total


def test_filling_chi_examples():
    assert chi_filling(2, 3, 1) == 2
    assert chi_filling(2, 3, 0) == -2
    assert chi_filling(2, 3, 0) == milnor_fiber_chi(2, 3)
    assert [chi_filling(2, 5, ell) for ell in (1, 2, 3)] == [0, 4, 8]


def test_filling_chi_validation():
    with pytest.raises(ValueError, match="0 <= 2l <= k\\+1"):
        chi_filling(2, 3, 3)
    with pytest.raises(ValueError):
        chi_filling(2, 3, -1)
    with pytest.raises(ValueError):
        chi_filling(0, 3, 1)
    with pytest.raises(ValueError):
        chi_filling(2, 0, 0)
    with pytest.raises(ValueError):
        chi_filling(2, 3, 1, convention="paper")


def test_milnor_cross_check_everywhere():
    for n in range(1, 9):
        for k in range(1, 16):
            assert chi_filling(n, k, 0) == milnor_fiber_chi(n, k)


def test_filling_chi_affine_in_ell():
    for n in range(1, 7):
        for k in (1, 4, 9, 15):
            base = chi_filling(n, k, 0)
            slope = filling_slope(n)
            for ell in range((k + 1) // 2 + 1):
                assert chi_filling(n, k, ell) == base + slope * ell


def test_alternate_column_is_affine_too():
    for n in (2, 3, 4):
        k = 9
        base = chi_filling(n, k, 0, "alternate")
        slope = filling_slope(n, "alternate")
        for ell in range((k + 1) // 2 + 1):
            assert chi_filling(n, k, ell, "alternate") == base + slope * ell


def test_oracle_column_monotone_for_n_at_least_2():
    for n in (2, 3, 4, 5):
        vals = [chi_filling(n, 11, ell) for ell in range(7)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_slope_examples():
    assert filling_slope(3) == 2            # chi(Q^3) - 2 + chi(S^3) = 4 - 2 + 0
    assert filling_slope(2, "alternate") == -1   # 3 + 2 - 6
    assert filling_slope(1) == 0
    with pytest.raises(ValueError):
        filling_slope(2, "typo")


def test_distinctness_report_n3():
    rep = distinctness_report(3, 7)
    assert isinstance(rep, EulerReport)
    assert rep.betti_slope == 2
    assert rep.verdict == "distinct"
    assert rep.betti_injective
    assert len(rep.rows) == 5          # l = 0 .. ceil(7/2)
    # odd n: the quadric chi values agree, so no disagreement note; the
    # columns still differ because the alternate convention swaps the
    # summand labels
    assert not any("disagree" in note for note in rep.notes)
    assert rep.alternate_slope == 3 + 2 * (-1) ** 3 - 2 * 4
    assert [r[2] for r in rep.rows] == [32, 25, 18, 11, 4]


def test_distinctness_report_even_n_flags_disagreement():
    rep = distinctness_report(2, 5)
    assert any("disagree" in note for note in rep.notes)
    assert all(differs for (_, _, _, differs) in rep.rows)
    assert rep.milnor_value == milnor_fiber_chi(2, 5) == -4
    assert rep.rows[0][1] == -4
    assert rep.alternate_slope == -1


def test_distinctness_report_n1_not_distinguished():
    rep = distinctness_report(1, 6)
    assert rep.betti_slope == 0
    assert not rep.betti_injective
    assert rep.verdict == "not distinguished by chi"
