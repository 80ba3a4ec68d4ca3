"""Contact profile, corner curve, and base profile: plateaus, joins, signs."""

from __future__ import annotations

import json
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lbfkit import cli
from lbfkit.cli import main
from lbfkit.config import DomainError
from lbfkit.contact import (
    BOUNDARY_HAMILTONIAN,
    make_base_profile,
    make_corner_curve,
    make_profile,
    verify_base_profile,
    verify_profile,
)


def _determinant(profile, r: float) -> float:
    """f g' - f' g at r: positive exactly when the curve misses its tangent."""
    f, g, fp, gp = profile.point_and_tangent(r)
    return f * gp - fp * g


def test_boundary_hamiltonian_constant():
    assert BOUNDARY_HAMILTONIAN == 2.0 * math.pi


def test_profile_plateau_values_exact():
    p = make_profile()
    assert p.point_and_tangent(0.0)[:2] == (2.0, 0.0)
    assert p.point_and_tangent(0.05)[0] == 2.0     # eps/2 endpoint of the flat cap
    assert p.point_and_tangent(0.03)[1] == 1.0 * 0.03 ** 2
    assert p.point_and_tangent(1.0)[:2] == (1.0, 1.0)    # e^0 and K
    assert p.point_and_tangent(1.1)[0] == math.exp(1.0 - 1.1)
    assert p.point_and_tangent(1.1)[1] == 1.0


def test_profile_determinant_near_zero_is_2c0c1r():
    p = make_profile(c0=3.0, c1=2.0)
    for r in (0.001, 0.01, 0.02):
        assert _determinant(p, r) == 2.0 * 3.0 * 2.0 * r


def test_profile_determinant_on_outer_plateau():
    p = make_profile(k=1.5)
    for r in (1.0, 1.02, 1.08, 1.1):
        # g' = 0 and g = K there, so det = -f' g = e^{1-r} K exactly
        assert _determinant(p, r) == math.exp(1.0 - r) * 1.5


def test_profile_domain_checks():
    p = make_profile()
    assert p.r_max == 1.1
    with pytest.raises(ValueError):
        p.point_and_tangent(-0.01)
    with pytest.raises(ValueError):
        p.point_and_tangent(1.2)


def test_profile_joins_are_c2_to_rounding():
    p = make_profile()
    step = 1e-6
    for r in (0.05, 1.0):
        left_f, _, left_fp, left_gp = p.point_and_tangent(r - step)
        right_f, _, right_fp, right_gp = p.point_and_tangent(r + step)
        assert abs(left_f - right_f) < 1e-4
        assert abs(left_fp - right_fp) < 1e-3
        assert abs(left_gp - right_gp) < 1e-3


def test_profile_positivity_across_dimensions():
    p = make_profile()
    for n in range(1, 7):
        report = verify_profile(p, n=n)
        assert report["passed"]
        assert report["min_value"] > 0.0
        assert report["n"] == n
        assert 0.0 < report["argmin"] <= p.r_max


def test_profile_report_serialization():
    report = verify_profile(make_profile(), n=2, grid=2_000)
    d = json.loads(cli._json_text(report))
    assert d["grid"] == 2_000
    assert d["passed"] is True
    assert d["params"]["c0"] == 2.0
    assert any("C2" in note for note in d["notes"])
    assert isinstance(d["notes"], list)


def test_degenerate_profile_detected():
    # g = 3 f on a middle window makes the curve parallel to its tangent
    class Stub:
        r_max = 1.0

        def point_and_tangent(self, r):
            if 0.4 <= r <= 0.6:
                return 2.0 - r, 3.0 * (2.0 - r), -1.0, -3.0
            return 2.0 - r, r * r, -1.0, 2.0 * r

    report = verify_profile(Stub(), n=2, grid=500)
    assert not report["passed"]
    assert report["min_value"] <= 0.0


def test_non_finite_contact_quantity_is_a_domain_error():
    # f g' = c0 * 2 c1 r overflows a double near r = 0 while f^(n-1) does not
    with pytest.raises(DomainError, match="n = 2 overflows"):
        verify_profile(make_profile(c0=1e200, c1=1e200), n=2)


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
    assert [row[3] for row in rows] == [_determinant(p, row[0]) for row in rows]


def test_corner_endpoints_exact():
    curve, report = make_corner_curve(0.1)
    assert curve.point_and_tangent(-0.1)[:2] == (0.1, 0.9)    # g = 1 + r at r = -eps
    assert curve.point_and_tangent(0.1)[:2] == (-0.1, 1.0)
    assert report["endpoints_exact"]


def test_corner_bridge_signs():
    curve, report = make_corner_curve(0.1)
    for r in (-0.049, -0.03, -0.01, -0.001):
        _, _, fp, gp = curve.point_and_tangent(r)
        assert fp < 0.0
        assert gp > 0.0
    assert report["interior_signs_ok"]
    assert report["joins_c1"]
    assert report["passed"]


def test_corner_monotonicity_and_eps_variants():
    for eps in (0.05, 0.1, 0.3):
        curve, report = make_corner_curve(eps)
        assert report["f_nonincreasing"]
        assert report["g_nondecreasing"]
        assert report["eps"] == eps
        assert report["samples"] >= 1_000


def test_corner_validation():
    with pytest.raises(ValueError):
        make_corner_curve(0.0)
    with pytest.raises(ValueError, match="subnormal"):
        make_corner_curve(math.nextafter(sys.float_info.min, 0.0))


def test_base_profile_plateaus():
    bp = make_base_profile(k=2.0, eps=0.1)
    for s in (0.0, 0.02, 0.05, 0.1):
        assert bp.h_and_slope(s)[0] == 2.0 * s * s
    for s in (0.9, 0.95, 1.0):
        assert bp.h_and_slope(s)[0] == 2.0 * math.exp(s - 1.0)
    assert bp.h_and_slope(0.0)[0] == 0.0


def test_base_profile_monotone():
    report = verify_base_profile(make_base_profile())
    assert report["zero_at_origin"]
    assert report["plateaus_exact"]
    assert report["increasing"]
    assert report["passed"]
    d = json.loads(cli._json_text(report))
    assert d["passed"] is True
    assert d["samples"] >= 100


def test_base_profile_derivative_positive_inside():
    bp = make_base_profile()
    for s in (0.01, 0.1, 0.3, 0.7, 0.95, 1.0):
        assert bp.h_and_slope(s)[1] > 0.0
    assert bp.h_and_slope(0.0)[1] == 0.0


def test_base_profile_validation():
    with pytest.raises(ValueError):
        make_base_profile(k=0.0)


@settings(max_examples=30, deadline=None)
@given(eps=st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True))
@example(eps=0.4172110217520951).via("verify_profile sampled r = 1 + eps + 1 ulp")
@example(eps=0.15207751844459297).via("make_corner_curve sampled r = eps + 1 ulp")
@example(eps=0.2228028226392911).via("verify_base_profile took eps * 10 / 10 for a plateau")
@example(eps=5e-16).via("the corner bridge's g' lost its sign")
@example(eps=sys.float_info.min)
@example(eps=math.nextafter(0.5, 0.0))
def test_contact_verifiers_pass_for_every_eps(eps):
    # every sample stays in its domain, and every check holds; the corner
    # curve refuses a subnormal eps
    for grid in (1_000, 10_000):
        assert verify_profile(make_profile(eps=eps), grid=grid)["passed"], grid
    if eps < sys.float_info.min:
        with pytest.raises(ValueError, match="subnormal"):
            make_corner_curve(eps)
    else:
        assert make_corner_curve(eps)[1]["passed"]
    assert verify_base_profile(make_base_profile(eps=eps))["passed"]


def _quintic_reference(tau, p0, m0, s0, p1, m1, s1, w):
    """One quintic Hermite blend with its own basis, as each blend was evaluated
    before f and g shared one basis per point: the reference for bit equality."""
    t2 = tau * tau
    t3 = t2 * tau
    t4 = t3 * tau
    t5 = t4 * tau
    h00 = 1.0 - 10.0 * t3 + 15.0 * t4 - 6.0 * t5
    h10 = tau - 6.0 * t3 + 8.0 * t4 - 3.0 * t5
    h20 = 0.5 * (t2 - 3.0 * t3 + 3.0 * t4 - t5)
    h01 = 10.0 * t3 - 15.0 * t4 + 6.0 * t5
    h11 = -4.0 * t3 + 7.0 * t4 - 3.0 * t5
    h21 = 0.5 * (t3 - 2.0 * t4 + t5)
    d00 = -30.0 * t2 + 60.0 * t3 - 30.0 * t4
    d10 = 1.0 - 18.0 * t2 + 32.0 * t3 - 15.0 * t4
    d20 = 0.5 * (2.0 * tau - 9.0 * t2 + 12.0 * t3 - 5.0 * t4)
    d01 = 30.0 * t2 - 60.0 * t3 + 30.0 * t4
    d11 = -12.0 * t2 + 28.0 * t3 - 15.0 * t4
    d21 = 0.5 * (3.0 * t2 - 8.0 * t3 + 5.0 * t4)
    value = (p0 * h00 + w * m0 * h10 + w * w * s0 * h20
             + p1 * h01 + w * m1 * h11 + w * w * s1 * h21)
    dtau = (p0 * d00 + w * m0 * d10 + w * w * s0 * d20
            + p1 * d01 + w * m1 * d11 + w * w * s1 * d21)
    return value, dtau / w


def _reference_point_and_tangent(p, r):
    """``ContactProfile.point_and_tangent`` on the blend, with two separate quintics."""
    a = p.eps / 2.0
    tau = (r - a) / (1.0 - a)
    f, fp = _quintic_reference(tau, p.c0, 0.0, 0.0, 1.0, -1.0, 1.0, 1.0 - a)
    g, gp = _quintic_reference(tau, p.c1 * a * a, 2.0 * p.c1 * a, 2.0 * p.c1,
                               p.k, 0.0, 0.0, 1.0 - a)
    return f, g, fp, gp


def _hex(values):
    return [float.hex(v) for v in values]


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
EPS = st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(c0=st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
       c1=POSITIVE, k=POSITIVE, eps=EPS, data=st.data())
def test_shared_quintic_basis_keeps_every_bit(c0, c1, k, eps, data):
    # f and g share one Hermite basis per point; every bit equals two separate
    # quintic evaluations, for r drawn over [0, 1 + eps] and on the blend
    p = make_profile(c0, c1, k, eps)
    a = eps / 2.0
    rs = [a + (1.0 - a) * i / 16 for i in range(1, 16)]
    rs += data.draw(st.lists(st.floats(0.0, p.r_max), min_size=1, max_size=16))
    for r in rs:
        got = p.point_and_tangent(r)
        if a < r < 1.0:
            assert _hex(got) == _hex(_reference_point_and_tangent(p, r)), r
    # the base profile's single blend keeps its bits too
    bp, e = make_base_profile(k, eps), k * math.exp(-eps)
    for i in range(1, 16):
        s = eps + (1.0 - 2.0 * eps) * i / 16
        if eps < s < 1.0 - eps:
            want = _quintic_reference((s - eps) / (1.0 - 2.0 * eps), k * eps ** 2,
                                      2.0 * k * eps, 2.0 * k, e, e, e, 1.0 - 2.0 * eps)
            assert _hex(bp.h_and_slope(s)) == _hex(want), s
