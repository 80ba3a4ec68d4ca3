"""Contact profile, corner curve, and base profile: plateaus, joins, signs."""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest

from lbfkit.cli import _clean, main
from lbfkit.contact import (
    BOUNDARY_HAMILTONIAN,
    make_base_profile,
    make_corner_curve,
    make_profile,
    verify_base_profile,
    verify_profile,
)


def test_boundary_hamiltonian_constant():
    assert BOUNDARY_HAMILTONIAN == 2.0 * math.pi


def test_profile_plateau_values_exact():
    p = make_profile()
    assert p.f(0.0) == 2.0
    assert p.g(0.0) == 0.0
    assert p.f(0.05) == 2.0              # eps/2 endpoint of the flat cap
    assert p.g(0.03) == 1.0 * 0.03 ** 2
    assert p.f(1.0) == 1.0               # e^0
    assert p.g(1.0) == 1.0               # K
    assert p.f(1.1) == math.exp(1.0 - 1.1)
    assert p.g(1.1) == 1.0


def test_profile_determinant_near_zero_is_2c0c1r():
    p = make_profile(c0=3.0, c1=2.0)
    for r in (0.001, 0.01, 0.02):
        assert p.determinant(r) == 2.0 * 3.0 * 2.0 * r


def test_profile_determinant_on_outer_plateau():
    p = make_profile(k=1.5)
    for r in (1.0, 1.02, 1.08, 1.1):
        # g' = 0 and g = K there, so det = -f' g = e^{1-r} K exactly
        assert p.determinant(r) == math.exp(1.0 - r) * 1.5


def test_profile_domain_checks():
    p = make_profile()
    assert p.r_max == 1.1
    with pytest.raises(ValueError):
        p.f(-0.01)
    with pytest.raises(ValueError):
        p.g(1.2)


def test_profile_joins_are_c2_to_rounding():
    p = make_profile()
    step = 1e-6
    for r in (0.05, 1.0):
        left = p.f(r - step)
        right = p.f(r + step)
        assert abs(left - right) < 1e-4
        assert abs(p.f_prime(r - step) - p.f_prime(r + step)) < 1e-3
        assert abs(p.g_prime(r - step) - p.g_prime(r + step)) < 1e-3


def test_profile_positivity_across_dimensions():
    p = make_profile()
    for n in range(1, 7):
        report = verify_profile(p, n=n)
        assert report.passed
        assert report.min_value > 0.0
        assert report.n == n
        assert 0.0 < report.argmin <= p.r_max


def test_profile_report_serialization():
    report = verify_profile(make_profile(), n=2, grid=2_000)
    d = _clean(report)
    assert d["grid"] == 2_000
    assert d["passed"] is True
    assert d["params"]["c0"] == 2.0
    assert any("C2" in note for note in d["notes"])
    assert isinstance(d["notes"], list)


def test_degenerate_profile_detected():
    # g = 3 f on a middle window makes the curve parallel to its tangent;
    # verify_profile samples whole arrays, so the stub takes arrays
    class Stub:
        r_max = 1.0

        def _window(self, r):
            return (0.4 <= r) & (r <= 0.6)

        def f(self, r):
            return 2.0 - r

        def f_prime(self, r):
            return np.full_like(r, -1.0)

        def g(self, r):
            return np.where(self._window(r), 3.0 * self.f(r), r * r)

        def g_prime(self, r):
            return np.where(self._window(r), -3.0, 2.0 * r)

    report = verify_profile(Stub(), n=2, grid=500)
    assert not report.passed
    assert report.min_value <= 0.0


def test_make_profile_validation():
    with pytest.raises(ValueError):
        make_profile(c0=1.0)             # needs c0 > 1
    with pytest.raises(ValueError):
        make_profile(c1=0.0)
    with pytest.raises(ValueError):
        make_profile(k=-2.0)
    with pytest.raises(ValueError):
        make_profile(eps=0.5)


def test_profile_csv_shape(capsys):
    assert main(["contact-check", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "r,f,g,determinant"
    assert len(lines) == 514             # header + 512 steps + endpoint row
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    p = make_profile()
    assert rows[0][:2] == [0.0, 2.0]
    assert rows[-1][0] == p.r_max
    assert [row[3] for row in rows] == [p.determinant(row[0]) for row in rows]


def test_corner_endpoints_exact():
    curve, report = make_corner_curve(0.1)
    assert curve.f(-0.1) == 0.1
    assert curve.g(-0.1) == 0.9          # 1 + r at r = -eps
    assert curve.f(0.1) == -0.1
    assert curve.g(0.1) == 1.0
    assert report.endpoints_exact


def test_corner_bridge_signs():
    curve, report = make_corner_curve(0.1)
    for r in (-0.049, -0.03, -0.01, -0.001):
        assert curve.f_prime(r) < 0.0
        assert curve.g_prime(r) > 0.0
    assert report.interior_signs_ok
    assert report.joins_c1
    assert report.passed


def test_corner_monotonicity_and_eps_variants():
    for eps in (0.05, 0.1, 0.3):
        curve, report = make_corner_curve(eps)
        assert report.f_nonincreasing
        assert report.g_nondecreasing
        assert report.eps == eps
        assert report.samples >= 1_000


def test_corner_validation():
    with pytest.raises(ValueError):
        make_corner_curve(0.0)
    with pytest.raises(ValueError):
        make_corner_curve(0.1, samples=10)


def test_base_profile_plateaus():
    bp = make_base_profile(k=2.0, eps=0.1)
    for s in (0.0, 0.02, 0.05, 0.1):
        assert bp.h(s) == 2.0 * s * s
    for s in (0.9, 0.95, 1.0):
        assert bp.h(s) == 2.0 * math.exp(s - 1.0)
    assert bp.h(0.0) == 0.0
    assert bp.boundary_hamiltonian == BOUNDARY_HAMILTONIAN


def test_base_profile_monotone():
    report = verify_base_profile(make_base_profile())
    assert report.zero_at_origin
    assert report.plateaus_exact
    assert report.increasing
    assert report.passed
    d = asdict(report)
    assert d["passed"] is True
    assert d["samples"] >= 100


def test_base_profile_derivative_positive_inside():
    bp = make_base_profile()
    for s in (0.01, 0.1, 0.3, 0.7, 0.95, 1.0):
        assert bp.h_prime(s) > 0.0
    assert bp.h_prime(0.0) == 0.0


def test_base_profile_validation():
    with pytest.raises(ValueError):
        make_base_profile(k=0.0)
    with pytest.raises(ValueError):
        verify_base_profile(make_base_profile(), samples=10)
