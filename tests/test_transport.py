"""Parallel transport ODE: conservation, closed forms, monodromy profile."""

from __future__ import annotations

import contextlib
import io
import json
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lbfkit import cli, transport
from lbfkit.config import DEFAULT_CONFIG, DomainError, ModelConfig, linspace
from lbfkit.transport import (
    IntegrationFailureError,
    SingularTransportError,
    initial_condition,
    integrate,
    limits_at_zero,
    monodromy_profile,
)
from reference import RegimeError, closed_form

# Wide collar keeps the small-t regime assumptions valid out to s = 0.1.
WIDE = ModelConfig(collar_width=0.32, ramp_lo=0.5, ramp_hi=0.7, disk1_radius=0.9)


def test_initial_condition_branches():
    assert initial_condition(0.25) == (0.0, 0.5)
    r1, r2 = initial_condition(-0.04)
    assert (r1, r2) == (0.2, 0.0)
    with pytest.raises(ValueError):
        initial_condition(0.0)


def test_integrate_s_max_zero_returns_initial_point():
    for audit in integrate(DEFAULT_CONFIG, 0.25, 0.0).values():
        assert audit == {"max_h_drift": 0.0, "max_radial_drift": 0.0, "endpoint": (0.0, 0.5)}


def test_h_conserved_in_inner_regime():
    # dh/ds = 0 identically; drift measures only stepper noise
    assert integrate(DEFAULT_CONFIG, 0.01, 0.05)["weighted"]["max_h_drift"] < 1e-9


def test_radial_invariant_everywhere():
    for t in (0.01, 0.2, -0.1, 25.0):
        assert integrate(DEFAULT_CONFIG, t, 0.3)["weighted"]["max_radial_drift"] < 1e-7, f"t={t}"


def test_flat_region_fixes_r2_to_s0():
    s0 = 1e-3
    for t in (-0.24, -0.235, -0.23):
        _, r2 = integrate(DEFAULT_CONFIG, t, s0)["weighted"]["endpoint"]
        assert abs(r2 - s0) < 1e-6


def test_denominator_variants_agree_where_mu_is_radius():
    # inside the collar mu' = (1 - 0.0) + (1 - r1) * 0.0 / w is exactly 1.0,
    # so both denominators are the same float and so is every state; arcs
    # that leave the collar (r1 past 0.05 by s = 0.003) part
    stops = linspace(0.0, 0.003, transport.TRAJECTORY_SAMPLES)

    def states(t, weight):
        (path,) = transport._transport(DEFAULT_CONFIG, [t], stops, weight=weight)
        return [(r1.hex(), r2.hex()) for r1, r2 in path]

    for t in (0.01, 0.002, 0.02):
        assert states(t, True) == states(t, False), t
    assert any(states(t, True) != states(t, False) for t in (1e-4, 9e-4))


@settings(max_examples=30, deadline=None)
@given(samples=st.lists(st.floats(allow_nan=False), min_size=2, max_size=20), data=st.data())
def test_drift_maxima_keep_a_nan_sample(samples, data):
    assert transport._max_abs(samples) == max(map(abs, samples))
    # max(map(abs, ...)) alone keeps a NaN only when it comes first
    at = data.draw(st.integers(1, len(samples) - 1))
    with_nan = samples[:at] + [math.nan] + samples[at + 1:]
    assert math.isnan(transport._max_abs(with_nan))


def test_unweighted_variant_loses_the_radial_invariant():
    # outside the collar the printed denominator breaks mu*r2 = s
    assert integrate(DEFAULT_CONFIG, 0.25, 0.5)["unweighted"]["max_radial_drift"] > 1e-3


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
    audits = integrate(DEFAULT_CONFIG, t, 0.5)
    weighted, unweighted = audits["weighted"], audits["unweighted"]
    assert transport.DRIFT_GATE == 1e-8
    assert weighted["max_h_drift"] <= 1e-8
    assert weighted["max_radial_drift"] <= 1e-8
    assert unweighted["max_h_drift"] <= 1e-8


# ---------------------------------------------------------------------------
# reference stepper: the Dormand-Prince step in loop form over the tableau
# of Hairer, Norsett and Wanner, Solving ODEs I, Table II.5.2


_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _stage_sum(weights, ks):
    """sum(w * k for w, k in zip(weights, ks) if w) per component, left to right from 0.0."""
    a = b = 0.0
    for w, k in zip(weights, ks):
        if w:
            a += w * k[0]
            b += w * k[1]
    return a, b


def _attempt(rhs, end, s, y, f, h, rejected):
    """One step of size h from s towards ``end``, cut to land on it."""
    room = end - s
    last = h >= room
    step = room if last else h
    ks = [f]
    for c, row in zip(_C, _A):
        a, b = _stage_sum(row, ks)
        y_new = (y[0] + step * a, y[1] + step * b)
        ks.append(rhs(s + c * step, *y_new))
    a, b = _stage_sum(_E, ks)
    norm = transport._rms(
        step * a / (transport.ATOL + transport.RTOL * max(abs(y[0]), abs(y_new[0]))),
        step * b / (transport.ATOL + transport.RTOL * max(abs(y[1]), abs(y_new[1]))))
    ok = norm <= 1.0
    grow = min(1.0 if rejected else 10.0, max(0.2, 0.9 * max(norm, 1e-10) ** -0.2))
    h_next = h if ok and last else step * grow
    return ok, end if last else s + step, y_new, ks[-1], h_next


def _reference_dopri5(rhs, y, stops):
    out = [y]
    s = stops[0]
    f = rhs(s, *y)
    h = transport._initial_step(rhs, s, y, f)
    rejected = False
    for end in stops[1:]:
        while s < end:
            assert h >= 16.0 * math.ulp(s)
            ok, s_new, y_new, f_new, h = _attempt(rhs, end, s, y, f, h, rejected)
            rejected = not ok
            if ok:
                s, y, f = s_new, y_new, f_new
        out.append(y)
    return out


def _counted(rhs):
    calls = [0]

    def counted(s, y, z):
        calls[0] += 1
        return rhs(s, y, z)

    return counted, calls


def _assert_equals_reference(rhs, start, stops):
    """``_dopri5``'s states and right-hand-side calls equal the reference's, bit for bit."""
    fast, fast_calls = _counted(rhs)
    slow, slow_calls = _counted(rhs)
    got = transport._dopri5(fast, start, stops)
    want = _reference_dopri5(slow, start, stops)
    assert [(a.hex(), b.hex()) for a, b in got] == [(a.hex(), b.hex()) for a, b in want]
    assert fast_calls == slow_calls


@settings(max_examples=12, deadline=None)
@given(t=LEVELS)
@example(t=0.0037121)
@example(t=-0.1403)
@example(t=7.257)
@example(t=23.29)
def test_explicit_stages_equal_the_loop_form_bit_for_bit(t):
    # the stops of integrate and of the profile's levels, for both variants
    for stops in (linspace(0.0, 0.5, transport.TRAJECTORY_SAMPLES), [0.0, 1e-3]):
        for weight in (True, False):
            _assert_equals_reference(transport._field(DEFAULT_CONFIG, weight),
                                     initial_condition(t), stops)


def test_explicit_stages_place_the_nodes_as_the_loop_form():
    # the transport field does not depend on s, so the stage nodes are
    # checked on a field that does
    def rhs(s, y, z):
        return z * math.cos(3.0 * s), -y * math.sin(5.0 * s) + s * s

    _assert_equals_reference(rhs, (1.0, 0.5), linspace(0.0, 2.0, 9))


def test_step_size_underflow_raises():
    # a field that jumps by 1e6 at s = 0.5 cannot be stepped across within
    # the tolerance: the step shrinks under 16 ulp of s
    def jump(s, y, z):
        return (0.0, 0.0) if s < 0.5 else (1e6, 1e6)

    with pytest.raises(IntegrationFailureError, match="underflowed at s=0.5"):
        transport._dopri5(jump, (1.0, 0.0), [0.0, 1.0])


def test_invalid_t_rejected():
    # +-1e-14: the starting denominator 2|t| is under the singular floor
    for t in (0.0, -0.26, 101.0, 1e-14, -1e-14):
        with pytest.raises(DomainError):
            integrate(DEFAULT_CONFIG, t, 0.1)
    for s_max in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="s_max must lie in"):
            integrate(DEFAULT_CONFIG, 0.25, s_max)


def test_singular_error_carries_location():
    err = SingularTransportError(0.3, 0.1, 0.2, 1e-13)
    assert "below 1e-12" in str(err)
    assert "s=0.3" in str(err).replace("s = ", "s=")
    assert err.location == (0.3, 0.1, 0.2)
    # the field raises it where its denominator vanishes
    with pytest.raises(SingularTransportError) as raised:
        transport._field(DEFAULT_CONFIG, True)(0.2, 0.0, 0.0)
    assert str(raised.value) == ("transport denominator 0.000e+00 below 1e-12 at "
                                 "s=0.2, (r1, r2)=(0, 0)")
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
        r1c, r2c = closed_form("small_t", s, t, WIDE)
        r1n, r2n = integrate(WIDE, t, s)["weighted"]["endpoint"]
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


# The default configuration, whose collar sets the upper end of the s0
# range, and a configuration drawn from the valid ones whose ramp_lo sets it.
S0_CONFIGS = {
    "default": DEFAULT_CONFIG,
    "ramp-bound": ModelConfig(collar_width=0.65, ramp_lo=0.7, ramp_hi=0.9, disk1_radius=0.99),
}


def _log_spaced_s0(cfg: ModelConfig, u: float) -> float:
    """The s0 a fraction u of the way across the log-scaled range; u = 0, 1 give its ends."""
    lo, hi = cfg.s0_range
    if u == 1.0:
        return hi
    return min(max(lo * (hi / lo) ** u, math.nextafter(lo, math.inf)), hi)


@pytest.mark.parametrize("cfg", S0_CONFIGS.values(), ids=S0_CONFIGS.keys())
@settings(max_examples=10, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1.0))
@example(u=0.0)
@example(u=1.0)
def test_limits_hold_across_the_s0_range(cfg, u):
    s0 = _log_spaced_s0(cfg, u)
    plus, minus = limits_at_zero(cfg, s0)
    assert abs(plus - 0.5) <= 1e-3 and abs(minus + 0.5) <= 1e-3, (s0, plus, minus)


@pytest.mark.parametrize("cfg", S0_CONFIGS.values(), ids=S0_CONFIGS.keys())
@settings(max_examples=10, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1.0))
@example(u=0.0)
@example(u=1.0)
def test_limits_equal_the_profile_rule_bit_for_bit(cfg, u):
    s0 = _log_spaced_s0(cfg, u)
    dR = monodromy_profile(cfg, s0, [s0 / 8.0, s0 / 4.0, -s0 / 8.0, -s0 / 4.0])["dR"]
    assert limits_at_zero(cfg, s0) == (2.0 * dR[0] - dR[1], 2.0 * dR[2] - dR[3])


def _count_dopri5(monkeypatch) -> list:
    starts = []
    dopri5 = transport._dopri5
    monkeypatch.setattr(transport, "_dopri5",
                        lambda rhs, start, stops: starts.append(start) or dopri5(rhs, start, stops))
    return starts


def test_limits_step_only_their_four_levels(monkeypatch):
    starts = _count_dopri5(monkeypatch)
    limits_at_zero(DEFAULT_CONFIG, 1e-3)
    assert len(starts) == 4     # one level at each of the labels +-s0/8 and +-s0/4


@pytest.mark.parametrize("count", [1, 6, 64])
def test_profile_steps_one_level_per_label(monkeypatch, count):
    starts = _count_dopri5(monkeypatch)
    monodromy_profile(DEFAULT_CONFIG, 1e-3, linspace(-0.2, 0.2, 2 * count)[:count])
    assert len(starts) == count


# The sweeps a documented label is drawn along: log-spaced toward t = 0 on
# either side, log-spaced toward either end of the level range, or uniform
# across it.
SWEEPS = ("0+", "0-", "lo", "hi", "across")


def _label(cfg: ModelConfig, sweep: str, x: float) -> float:
    """The label a fraction x along ``sweep``; x = 0 gives +-nextafter(5e-13) or the end itself."""
    lo, hi = cfg.level_range
    floor = math.nextafter(5e-13, math.inf)
    near = max(floor * (0.1 / floor) ** x, floor)
    return {"0+": near, "0-": -near, "lo": lo + (near - floor), "hi": hi - (near - floor),
            "across": lo + x * (hi - lo)}[sweep]


@pytest.mark.parametrize("cfg", S0_CONFIGS.values(), ids=S0_CONFIGS.keys())
@settings(max_examples=40, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1.0),
       picks=st.lists(st.tuples(st.sampled_from(SWEEPS), st.floats(0.0, 1.0)),
                      min_size=1, max_size=4))
@example(u=0.0, picks=[(sweep, 0.0) for sweep in SWEEPS[:4]])
@example(u=1.0, picks=[(sweep, 0.0) for sweep in SWEEPS[:4]])
def test_profile_is_finite_across_the_documented_domain(cfg, u, picks):
    # every label the domain admits, |t| > 5e-13 inside the level range,
    # gives a finite R, dR and dR_cut from its own endpoint across the s0 range
    ts = [_label(cfg, sweep, x) for sweep, x in picks]
    assume(all(abs(t) > 5e-13 for t in ts))
    prof = monodromy_profile(cfg, _log_spaced_s0(cfg, u), ts)
    for name in ("R", "dR", "dR_cut"):
        assert all(map(math.isfinite, prof[name])), (name, ts, prof[name])


def _small_t_slope(s0: float, t: float) -> float:
    """R' in the small-t regime: r2^2 = (hypot(2 s0, t) + t) / 2 differentiated in t."""
    q = math.hypot(2.0 * s0, t)
    return (1.0 - t / q) / 2.0 if t > 0 else -(1.0 + t / q) / 2.0


@pytest.mark.parametrize("cfg", S0_CONFIGS.values(), ids=S0_CONFIGS.keys())
@settings(max_examples=25, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1.0), e=st.floats(min_value=-7.0, max_value=-1.0),
       sign=st.sampled_from([1.0, -1.0]))
@example(u=0.5, e=-3.0, sign=1.0)
@example(u=0.5, e=-3.0, sign=-1.0)
def test_small_t_derivative_matches_the_closed_form(cfg, u, e, sign):
    # the endpoint derivative carries no truncation error: it differs from
    # the closed form's t-derivative by ODE noise alone
    s0, t = _log_spaced_s0(cfg, u), sign * 10.0 ** e
    try:
        closed_form("small_t", s0, t, cfg)
    except RegimeError:
        assume(False)
    (dR,) = monodromy_profile(cfg, s0, [t])["dR"]
    assert abs(dR - _small_t_slope(s0, t)) <= 1e-9, (s0, t, dR)


@settings(max_examples=25, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1.0),
       t=st.one_of(st.floats(min_value=-0.2499, max_value=-2e-3),
                   st.floats(min_value=-1.0, max_value=2.0).map(lambda e: min(10.0 ** e, 99.99))))
@example(u=0.5, t=-0.1403)
@example(u=1.0, t=7.257)
def test_derivative_matches_a_difference_of_R_outside_the_small_t_regime(u, t):
    s0 = _log_spaced_s0(DEFAULT_CONFIG, u)
    try:
        closed_form("small_t", s0, t)
    except RegimeError:
        pass
    else:
        assume(False)
    h = 1e-4 * max(abs(t), 1e-2)
    prof = monodromy_profile(DEFAULT_CONFIG, s0, [t - h, t, t + h])
    dR, difference = prof["dR"][1], (prof["R"][2] - prof["R"][0]) / (2.0 * h)
    # R sums terms of size up to 1 + |t|, so each R carries a few of their
    # ulps of rounding, which the quotient divides by h
    if abs(dR) > 1e-8:
        assert abs(dR - difference) <= 1e-4 * abs(dR) + 4.0 * math.ulp(1.0 + abs(t)) / h, \
            (s0, t, dR, difference)


@settings(max_examples=6, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1.0))
@example(u=0.0)
@example(u=1.0)
def test_transport_passes_across_the_s0_range(u):
    s0 = _log_spaced_s0(DEFAULT_CONFIG, u)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["transport", f"--s0={s0!r}"]) == 0
    assert json.loads(out.getvalue())["profile"]["s0"] == s0


def test_s0_outside_its_range_is_refused(capsys):
    lo, hi = DEFAULT_CONFIG.s0_range
    assert (lo, hi) == (4e-12, 0.0022069555463432975)        # as README and --help state
    for s0 in (lo, 1e-12, math.nextafter(hi, math.inf), 0.003, 0.0125):
        assert cli.main(["transport", f"--s0={s0!r}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"lbfkit: usage error: s0 = {s0!r} outside ({lo!r}, {hi!r}]"), err


def test_profile_on_the_documented_grid():
    s0 = 1e-3
    grid = [1e-2, -1e-2] + [s0 * 2 ** k for k in range(3)] \
        + [-s0 * 2 ** k for k in range(3)]
    prof = monodromy_profile(DEFAULT_CONFIG, s0, grid)
    assert len(prof["t"]) == len(grid)
    # R' has the sign of t on both sides of 0
    for t, d in zip(prof["t"], prof["dR"]):
        assert d * t > 0.0


def test_profile_equals_levels_one_by_one():
    grid = [-0.24, -0.1403, -1e-3, 2e-4, 0.0037121, 0.5, 7.257, 23.29, 99.0]
    joint = monodromy_profile(DEFAULT_CONFIG, 1e-3, grid)
    alone = [monodromy_profile(DEFAULT_CONFIG, 1e-3, [t]) for t in grid]
    for name in ("R", "dR", "dR_cut"):
        one_by_one = [x for p in alone for x in p[name]]
        assert list(map(float.hex, joint[name])) == list(map(float.hex, one_by_one)), name


def test_profile_flat_region_derivative_vanishes():
    prof = monodromy_profile(DEFAULT_CONFIG, 1e-3, [-0.24, -0.235])
    assert all(abs(d) < 1e-6 for d in prof["dR"])


def test_cutoff_corrected_derivative_dies_near_the_top():
    # sigma is identically 1 above 0.9 c^2 = 90
    prof = monodromy_profile(DEFAULT_CONFIG, 1e-3, [91.0, 95.0, 99.0])
    assert prof["dR_cut"] == [0.0] * 3


def test_outer_profile_positive_and_decaying():
    # sampled from t = 1 up to 99, short of the fiber-coordinate boundary t = 100
    ts = [1.0, 2.0, 5.0, 10.0, 30.0, 99.0]
    prof = monodromy_profile(DEFAULT_CONFIG, 1e-3, ts)
    assert all(d > 0.0 for d in prof["dR"])
    assert all(b < a for a, b in zip(prof["dR"], prof["dR"][1:]))


def test_trajectories_depend_continuously_on_t():
    spacing = 0.01
    for t in (0.05, 0.2, -0.1):
        a = integrate(DEFAULT_CONFIG, t, 0.3)["weighted"]["endpoint"]
        b = integrate(DEFAULT_CONFIG, t + spacing, 0.3)["weighted"]["endpoint"]
        assert math.hypot(a[0] - b[0], a[1] - b[1]) < 10.0 * spacing


def test_monodromy_rejects_bad_grids():
    cfg = DEFAULT_CONFIG
    with pytest.raises(DomainError):
        monodromy_profile(cfg, 1e-3, [])
    with pytest.raises(DomainError):
        monodromy_profile(cfg, 1e-3, [0.0, 0.1])
    with pytest.raises(DomainError):
        monodromy_profile(cfg, 0.5, [0.1])  # s0 beyond cfg.s0_range
    with pytest.raises(DomainError, match=r"\|t\| = 1e-13 is at most 5e-13"):
        monodromy_profile(cfg, 1e-3, [1e-13])  # the denominator would start under its floor
    # a label needs no room inside the range's end
    assert math.isfinite(monodromy_profile(cfg, 1e-3, [-0.25 + 1e-9])["dR"][0])


# ---------------------------------------------------------------------------
# serialization


def test_profile_csv_shape(capsys):
    assert cli.main(["transport", "--grid=0.1:0.2:2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,R,dR,dR_cut"
    assert len(lines) == 3
    assert [float(row.split(",")[0]) for row in lines[1:]] == [0.1, 0.2]


def test_an_exact_zero_derivative_prints_zero_not_minus_zero(capsys):
    # r1 >= mu_flat_radius at the first two levels, so mu' = 0 and R' = 0 exactly
    assert cli.main(["transport", "--grid=-0.2499:-0.2:4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [row.split(",")[2:] for row in lines[1:3]] == [["0.0", "0.0"]] * 2
    assert "-0.0," not in "\n".join(lines) and not any(row.endswith("-0.0") for row in lines)


def test_integration_failure_error_is_distinct():
    assert issubclass(IntegrationFailureError, RuntimeError)
    assert not issubclass(IntegrationFailureError, SingularTransportError)
