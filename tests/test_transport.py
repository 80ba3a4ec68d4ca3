"""Parallel transport ODE: conservation, closed forms, monodromy profile."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lbfkit import cli, transport
from lbfkit.config import DEFAULT_CONFIG, DomainError, ModelConfig
from lbfkit.transport import (
    IntegrationFailureError,
    RegimeError,
    SingularTransportError,
    closed_form,
    initial_condition,
    integrate,
    limits_at_zero,
    monodromy_profile,
)

# Wide collar keeps the small-t regime assumptions valid out to s = 0.1.
WIDE = ModelConfig(collar_width=0.32, ramp_lo=0.5, ramp_hi=0.7, disk1_radius=0.9)


def test_initial_condition_branches():
    assert initial_condition(0.25) == (0.0, 0.5)
    r1, r2 = initial_condition(-0.04)
    assert (r1, r2) == (0.2, 0.0)
    with pytest.raises(ValueError):
        initial_condition(0.0)


def test_integrate_s_max_zero_returns_initial_point():
    for traj in integrate(DEFAULT_CONFIG, 0.25, 0.0).values():
        assert traj.s.size == 1
        assert traj.endpoint == (0.0, 0.5)
        assert traj.max_h_drift == 0.0


def test_h_conserved_in_inner_regime():
    # dh/ds = 0 identically; drift measures only stepper noise
    traj = integrate(DEFAULT_CONFIG, 0.01, 0.05)["weighted"]
    assert traj.max_h_drift < 1e-9


def test_radial_invariant_everywhere():
    for t in (0.01, 0.2, -0.1, 25.0):
        traj = integrate(DEFAULT_CONFIG, t, 0.3)["weighted"]
        assert traj.max_radial_drift < 1e-7, f"t={t}"


def test_flat_region_fixes_r2_to_s0():
    s0 = 1e-3
    for t in (-0.24, -0.235, -0.23):
        traj = integrate(DEFAULT_CONFIG, t, s0)["weighted"]
        _, r2 = traj.endpoint
        assert abs(r2 - s0) < 1e-6


def test_denominator_variants_agree_where_mu_is_radius():
    # mu = r1 and mu' = 1 inside the collar, so both denominators coincide;
    # the arc must stay short enough that r1 never leaves the collar
    trajectories = integrate(DEFAULT_CONFIG, 0.01, 0.003)
    w, u = trajectories["weighted"], trajectories["unweighted"]
    assert np.max(w.r1) < DEFAULT_CONFIG.collar_width
    assert np.allclose(w.r1, u.r1, atol=1e-9)
    assert np.allclose(w.r2, u.r2, atol=1e-9)


def test_batched_variants_equal_each_variant_alone():
    # integrate steps both variants as one two-column batch; each column
    # must equal its variant integrated on its own, bit for bit
    for t in (1e-4, 0.25, -0.2, 50.0):
        batch = integrate(DEFAULT_CONFIG, t, 0.5)
        for name, weight in (("weighted", True), ("unweighted", False)):
            alone = transport._transport(DEFAULT_CONFIG, np.array([t]),
                                         batch[name].s, weight)[:, :, 0]
            for k, got in enumerate((batch[name].r1, batch[name].r2)):
                assert np.array_equal(got.view(np.int64),
                                      alone[:, k].view(np.int64)), (t, name, k)


def test_unweighted_variant_loses_the_radial_invariant():
    # outside the collar the printed denominator breaks mu*r2 = s
    u = integrate(DEFAULT_CONFIG, 0.25, 0.5)["unweighted"]
    assert u.max_radial_drift > 1e-3


# Levels over the documented range [-0.25, 100], log-spaced in |t| down to
# just above the singular floor, plus plain uniform draws.
LEVELS = st.one_of(
    st.floats(min_value=-12.0, max_value=2.0).map(lambda e: 10.0 ** e),
    st.floats(min_value=-12.0, max_value=math.log10(0.25)).map(lambda e: -min(10.0 ** e, 0.25)),
    st.floats(min_value=-0.25, max_value=100.0).filter(lambda t: abs(t) > 1e-12),
)


@settings(max_examples=12, deadline=None)
@given(t=LEVELS)
@example(t=0.0037121).via("h drift 1.2e-8 with scipy RK45 at 1e-10")
@example(t=-0.1403).via("radial drift 1.6e-8 with scipy RK45 at 1e-10")
@example(t=7.257).via("radial drift 2.1e-8 with scipy RK45 at 1e-10")
@example(t=23.29).via("radial drift 2.4e-8 with scipy RK45 at 1e-10")
def test_drift_gate_holds_over_the_documented_range(t):
    # the CLI's audit: both variants to s_max = 0.5, h drift for both,
    # radial drift for the weighted denominator only
    trajectories = integrate(DEFAULT_CONFIG, t, 0.5)
    weighted, unweighted = trajectories["weighted"], trajectories["unweighted"]
    assert transport.DRIFT_GATE == 1e-8
    assert weighted.max_h_drift <= 1e-8
    assert weighted.max_radial_drift <= 1e-8
    assert unweighted.max_h_drift <= 1e-8


def test_step_size_underflow_raises():
    # a field that jumps by 1e6 at s = 0.5 cannot be stepped across within
    # the tolerance: the step shrinks under 16 ulp of s
    def jump(s, y, cols):
        return np.where(s < 0.5, 0.0, 1e6) + 0.0 * y

    with pytest.raises(IntegrationFailureError, match="underflowed at s=0.5"):
        transport._dopri5(jump, np.array([[1.0], [0.0]]), np.array([0.0, 1.0]))


def test_invalid_t_rejected():
    # +-1e-14: the starting denominator 2|t| is under the singular floor
    for t in (0.0, -0.26, 101.0, 1e-14, -1e-14):
        with pytest.raises(DomainError):
            integrate(DEFAULT_CONFIG, t, 0.1)
    with pytest.raises(ValueError):
        integrate(DEFAULT_CONFIG, 0.25, 1.5)


def test_singular_error_carries_location():
    err = SingularTransportError(0.3, 0.1, 0.2, 1e-13)
    assert "below 1e-12" in str(err)
    assert "s=0.3" in str(err).replace("s = ", "s=")
    assert err.location == (0.3, 0.1, 0.2)
    # in a batch, the first column whose denominator vanishes is named
    with pytest.raises(SingularTransportError) as raised:
        transport._field(DEFAULT_CONFIG, True, np.array([0.1, 0.2]),
                         np.array([[0.01, 0.0], [0.3, 0.0]]))
    assert raised.value.location == (0.2, 0.0, 0.0)


# ---------------------------------------------------------------------------
# closed forms


def test_small_t_closed_form_at_zero_arclength():
    assert closed_form("small_t", 0.0, 0.25, WIDE) == (0.0, 0.5)


def test_small_t_closed_form_documented_point():
    r1, r2 = closed_form("small_t", 0.1, 0.01, WIDE)
    assert r1 == pytest.approx(0.3084, abs=5e-4)
    assert r2 == pytest.approx(0.3242, abs=5e-4)
    assert r2 ** 2 - r1 ** 2 == pytest.approx(0.01, abs=1e-15)


def test_small_t_closed_form_tracks_the_integrator():
    for s, t in [(0.02, 0.01), (0.05, -0.02), (0.1, 0.01), (0.08, 0.03)]:
        traj = integrate(WIDE, t, s)["weighted"]
        r1c, r2c = closed_form("small_t", s, t, WIDE)
        r1n, r2n = traj.endpoint
        assert abs(r1c - r1n) < 1e-6
        assert abs(r2c - r2n) < 1e-6


def test_outer_closed_form_initial_point():
    assert closed_form("outer_large_t", 0.0, 4.0) == (0.0, 2.0)


def test_outer_closed_form_r1_stays_in_collar():
    for s in (0.0, 0.01, 0.04):
        r1, r2 = closed_form("outer_large_t", s, 25.0)
        assert 0.0 <= r1 <= DEFAULT_CONFIG.collar_width + 1e-12
        assert r2 > 0.0


def test_closed_form_regime_refusals():
    with pytest.raises(RegimeError):
        closed_form("small_t", 0.4, 0.01)          # leaves the collar
    with pytest.raises(RegimeError):
        closed_form("outer_large_t", 0.0, 0.05)    # t below the ramp plateau
    with pytest.raises(RegimeError):
        closed_form("outer_large_t", 0.0, -4.0)    # negative t has no outer branch
    with pytest.raises(RegimeError):
        closed_form("mid_t", 0.0, 0.25)            # unknown regime label


# ---------------------------------------------------------------------------
# monodromy


def test_limits_at_zero_are_plus_minus_half():
    plus, minus = limits_at_zero(DEFAULT_CONFIG, 1e-3)
    assert plus == pytest.approx(0.5, abs=1e-3)
    assert minus == pytest.approx(-0.5, abs=1e-3)


def test_profile_on_the_documented_grid():
    s0 = 1e-3
    grid = [1e-2, -1e-2] + [s0 * 2 ** k for k in range(3)] \
        + [-s0 * 2 ** k for k in range(3)]
    prof = monodromy_profile(DEFAULT_CONFIG, s0, grid)
    assert prof.t.size == len(grid)
    # R' has the sign of t on both sides of 0
    for t, d in zip(prof.t, prof.dR):
        assert d * t > 0.0


def test_batched_profile_equals_levels_one_by_one():
    grid = [-0.24, -0.1403, -1e-3, 2e-4, 0.0037121, 0.5, 7.257, 23.29, 99.0]
    batch = monodromy_profile(DEFAULT_CONFIG, 1e-3, grid)
    alone = [monodromy_profile(DEFAULT_CONFIG, 1e-3, [t]) for t in grid]
    for name in ("R", "dR", "dR_cut"):
        one_by_one = np.concatenate([getattr(p, name) for p in alone])
        assert np.array_equal(getattr(batch, name).view(np.int64),
                              one_by_one.view(np.int64)), name


def test_profile_flat_region_derivative_vanishes():
    prof = monodromy_profile(DEFAULT_CONFIG, 1e-3, [-0.24, -0.235])
    assert np.all(np.abs(prof.dR) < 1e-6)


def test_cutoff_corrected_derivative_dies_near_the_top():
    # sigma is identically 1 above 0.9 c^2 = 90
    prof = monodromy_profile(DEFAULT_CONFIG, 1e-3, [91.0, 95.0, 99.0])
    assert np.all(prof.dR_cut == 0.0)


def test_outer_profile_positive_and_decaying():
    # t = 100 sits on the fiber-coordinate boundary where the central
    # stencil has no room, so the grid stops just short of it
    ts = [1.0, 2.0, 5.0, 10.0, 30.0, 99.0]
    prof = monodromy_profile(DEFAULT_CONFIG, 1e-3, ts)
    assert np.all(prof.dR > 0.0)
    assert np.all(np.diff(prof.dR) < 0.0)


def test_trajectories_depend_continuously_on_t():
    spacing = 0.01
    for t in (0.05, 0.2, -0.1):
        a = integrate(DEFAULT_CONFIG, t, 0.3)["weighted"].endpoint
        b = integrate(DEFAULT_CONFIG, t + spacing, 0.3)["weighted"].endpoint
        assert math.hypot(a[0] - b[0], a[1] - b[1]) < 10.0 * spacing


def test_monodromy_rejects_bad_grids():
    cfg = DEFAULT_CONFIG
    with pytest.raises(DomainError):
        monodromy_profile(cfg, 1e-3, [])
    with pytest.raises(DomainError):
        monodromy_profile(cfg, 1e-3, [0.0, 0.1])
    with pytest.raises(DomainError):
        monodromy_profile(cfg, 0.5, [0.1])  # s0 beyond collar_width/4
    with pytest.raises(DomainError, match="critical value"):
        monodromy_profile(cfg, 1e-3, [5e-8])  # stencil step under 1e-8
    with pytest.raises(DomainError, match="boundary"):
        monodromy_profile(cfg, 1e-3, [-0.25 + 1e-9])


# ---------------------------------------------------------------------------
# serialization


def test_profile_csv_shape(capsys):
    assert cli.main(["transport", "--grid=0.1:0.2:2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,R,dR,dR_cut"
    assert len(lines) == 3
    assert [float(row.split(",")[0]) for row in lines[1:]] == [0.1, 0.2]


def test_integration_failure_error_is_distinct():
    assert issubclass(IntegrationFailureError, RuntimeError)
    assert not issubclass(IntegrationFailureError, SingularTransportError)
