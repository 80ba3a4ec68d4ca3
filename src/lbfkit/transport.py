"""Parallel transport in the (r1, r2) quadrant and the monodromy profile.

The transport ODE follows a fixed level of the fiber-cutting function
h = -r1^2 + r2^2 - f r1^2 r2^2 while the fibration radius s = mu(r1) r2
advances at unit speed:

    dr1/ds = (dh/dr2) / D,   dr2/ds = (-dh/dr1) / D,
    D = mu'(r1) r2 dh/dr2 - mu(r1) dh/dr1,

started from (0, sqrt(t)) for t > 0 and (sqrt(-t), 0) for t < 0.  Two exact
invariants follow: h stays equal to t (the field is orthogonal to grad h),
and mu(r1) r2 = s (the denominator is exactly the s-derivative of mu(r1) r2
times D, so that coordinate moves at unit speed).

The denominator above carries a mu' factor on its first term.  The variant
without it ("unweighted") is also implemented: the two coincide wherever
mu(r) = r, but only the weighted one keeps mu(r1) r2 = s once mu flattens,
which the flat-region argument r2(s0, t) = s0 depends on.  ``integrate``
steps both variants of one level and returns, per variant, the largest
drift of each invariant over its samples and the endpoint: the records
the report prints side by side.

The ODE is stepped by one Dormand & Prince (1980) 5(4) pair with the step
control of Hairer, Norsett and Wanner (Solving ODEs I, II.4-5), on Python
floats, one level at a time: ``_transport`` validates the levels, builds
the right-hand side once and runs ``_dopri5`` on each.  ``integrate``'s two
trajectories, the 4 levels of ``limits_at_zero`` and ``monodromy_profile``'s
C labels all go through it.  Each step writes its stages out with the
tableau's named coefficients; every stage sum starts from 0.0 and adds
left to right, so its bits equal the loop over the tableau that the tests
keep as a reference.  Steps are cut to land exactly on each stop (no dense
output), and the step control's fifth roots are Python's ``**``, the C
library's pow.  The local tolerances ATOL = RTOL sit four decades under DRIFT_GATE, the
bound the reports audit both invariants against.  No step is projected
back onto the invariants: that would zero the very drift the audit
reports.

The monodromy angle profile is

    R(t) = -r2(s0, t)^2 + t   (t > 0),      R(t) = -r2(s0, t)^2 - 1  (t < 0),

with one-sided limits R'(0+) = 1/2 and R'(0-) = -1/2, R' = 0 on the inner
flat region, and, after the cutoff correction ((1 - sigma) R)', identically
zero derivative near the outer ceiling.  One level per label gives R and R'.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .config import (DEFAULT_CONFIG, MAX_GRID_COUNT, SINGULAR_FLOOR, DomainError, ModelConfig,
                     linspace, smoothstep_and_slope)
from .report import SuiteResult, cell, config_dict, float_rows, result_row, timed

__all__ = [
    "SingularTransportError",
    "IntegrationFailureError",
    "initial_condition",
    "integrate",
    "monodromy_profile",
    "limits_at_zero",
    "suite",
]


# The drift gate the reports audit both invariants against, and the
# stepper's local tolerances, four decades under it so that the error
# accumulated over a few hundred steps stays well inside the gate.
DRIFT_GATE = 1e-8
ATOL = RTOL = DRIFT_GATE * 1e-4
# R'(0+) = LIMIT_TARGET and R'(0-) = -LIMIT_TARGET, and the window around
# each that the transport report audits ``limits_at_zero`` against.
LIMIT_TARGET = 0.5
LIMIT_TOLERANCE = 1e-3
# The values of s each audit trajectory lands on, evenly spaced from 0.
TRAJECTORY_SAMPLES = 129

# Dormand & Prince (1980) 5(4) pair, as in Hairer, Norsett and Wanner,
# Solving ODEs I, Table II.5.2: stage nodes Ci and coefficients Aij of the
# stages after the first (the nodes of stages 6 and 7 are 1).  Stage 7 sits
# at the fifth-order solution, whose weights Bj are its coefficients, so its
# slope is the field at the new point (first same as last).  Ej are the
# fifth- minus fourth-order weights, the local error estimate; B2 = E2 = 0.
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200,
                          22 / 525, -1 / 40)


class SingularTransportError(RuntimeError):
    """Transport denominator vanished; carries the location it happened at."""

    def __init__(self, s: float, r1: float, r2: float, value: float):
        super().__init__(
            f"transport denominator {value:.3e} below {SINGULAR_FLOOR:g} at "
            f"s={s:.6g}, (r1, r2)=({r1:.6g}, {r2:.6g})"
        )
        self.location = (s, r1, r2)
        self.value = value


class IntegrationFailureError(RuntimeError):
    """The adaptive stepper gave up (step-size underflow or similar)."""


def _max_abs(values: list[float]) -> float:
    """The largest |value|, or NaN if any value is NaN (``max`` skips a NaN after the first)."""
    return math.nan if any(map(math.isnan, values)) else max(map(abs, values))


# ---------------------------------------------------------------------------
# field evaluation


def initial_condition(t: float) -> tuple[float, float]:
    """(0, sqrt(t)) for t > 0, (sqrt(-t), 0) for t < 0."""
    if t > 0:
        return 0.0, math.sqrt(t)
    if t < 0:
        return math.sqrt(-t), 0.0
    raise ValueError("t = 0 is the critical value; no transport is defined there")


def h_value(cfg: ModelConfig, r1: float, r2: float) -> float:
    f = cfg.ramp_and_slope(r1 * r1 + r2 * r2)[0]
    return -r1 * r1 + r2 * r2 - f * r1 * r1 * r2 * r2


def _field(cfg: ModelConfig, weight: bool):
    """The right-hand side rhs(s, r1, r2) = d(r1, r2)/ds = (dh/dr2, -dh/dr1) / D.

    ``weight`` keeps the mu' factor on the first term of D; the unweighted
    variant drops it.  ``s`` only locates a vanished denominator.
    """
    # ramp_and_slope and mu_and_slope written out, operation for operation
    smooth, ramp_lo, ramp_w = smoothstep_and_slope, cfg.ramp_lo, cfg.ramp_hi - cfg.ramp_lo
    collar, mu_w = cfg.collar_width, cfg.mu_flat_radius - cfg.collar_width

    def rhs(s: float, r1: float, r2: float) -> tuple[float, float]:
        f, up = smooth((r1 * r1 + r2 * r2 - ramp_lo) / ramp_w)
        cross = up / ramp_w * r1 * r1 * r2 * r2
        dh_r1 = -2.0 * r1 * (1.0 + f * r2 * r2 + cross)
        dh_r2 = 2.0 * r2 * (1.0 - f * r1 * r1 - cross)
        blend, slope = smooth((r1 - collar) / mu_w)
        m, m_d = r1 + (1.0 - r1) * blend, (1.0 - blend) + (1.0 - r1) * slope / mu_w
        den = (m_d * r2 if weight else r2) * dh_r2 - m * dh_r1
        if abs(den) < SINGULAR_FLOOR:
            raise SingularTransportError(s, r1, r2, den)
        return dh_r2 / den, -dh_r1 / den

    return rhs


def _rms(a: float, b: float) -> float:
    return math.sqrt(0.5 * (a * a + b * b))


def _initial_step(rhs, s: float, y, f) -> float:
    """A first step size (Hairer, Norsett and Wanner, II.4)."""
    scale = (ATOL + RTOL * abs(y[0]), ATOL + RTOL * abs(y[1]))
    d0 = _rms(y[0] / scale[0], y[1] / scale[1])
    d1 = _rms(f[0] / scale[0], f[1] / scale[1])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / max(d1, 1e-5)
    f1 = rhs(s + h0, y[0] + h0 * f[0], y[1] + h0 * f[1])
    d2 = _rms((f1[0] - f[0]) / scale[0], (f1[1] - f[1]) / scale[1]) / h0
    d = max(d1, d2)
    h1 = max(1e-6, 1e-3 * h0) if d <= 1e-15 else (0.01 / max(d, 1e-15)) ** 0.2
    return min(100.0 * h0, h1)


def _dopri5(rhs, start: tuple[float, float],
            stops: Sequence[float]) -> list[tuple[float, float]]:
    """Integrate d(y, z)/ds = rhs(s, y, z) from ``start`` through the increasing ``stops``.

    The integration starts at s = stops[0]; ``rhs`` returns a pair of
    floats.  The step that reaches a stop is cut to land on it exactly.
    Returns the states at the stops.

    The six stages after the first are written out.  Each stage sum starts
    from 0.0 and adds its terms left to right, leaving out the zero weights
    B2 and E2 (``0.0 * inf`` is not 0).
    """
    y, z = start
    out = [start]
    s = stops[0]
    k1y, k1z = rhs(s, y, z)
    h = _initial_step(rhs, s, start, (k1y, k1z))
    rejected = False
    for end in stops[1:]:
        while s < end:
            if h < 16.0 * math.ulp(s):
                raise IntegrationFailureError(
                    f"step size {h:.3e} underflowed at s={s:.6g}, "
                    f"(r1, r2)=({y:.6g}, {z:.6g})"
                )
            room = end - s
            last = h >= room
            step = room if last else h
            k2y, k2z = rhs(s + C2 * step,
                           y + step * (0.0 + A21 * k1y),
                           z + step * (0.0 + A21 * k1z))
            k3y, k3z = rhs(s + C3 * step,
                           y + step * (0.0 + A31 * k1y + A32 * k2y),
                           z + step * (0.0 + A31 * k1z + A32 * k2z))
            k4y, k4z = rhs(s + C4 * step,
                           y + step * (0.0 + A41 * k1y + A42 * k2y + A43 * k3y),
                           z + step * (0.0 + A41 * k1z + A42 * k2z + A43 * k3z))
            k5y, k5z = rhs(s + C5 * step,
                           y + step * (0.0 + A51 * k1y + A52 * k2y + A53 * k3y + A54 * k4y),
                           z + step * (0.0 + A51 * k1z + A52 * k2z + A53 * k3z + A54 * k4z))
            k6y, k6z = rhs(s + step,
                           y + step * (0.0 + A61 * k1y + A62 * k2y + A63 * k3y + A64 * k4y
                                       + A65 * k5y),
                           z + step * (0.0 + A61 * k1z + A62 * k2z + A63 * k3z + A64 * k4z
                                       + A65 * k5z))
            y_new = y + step * (0.0 + B1 * k1y + B3 * k3y + B4 * k4y + B5 * k5y + B6 * k6y)
            z_new = z + step * (0.0 + B1 * k1z + B3 * k3z + B4 * k4z + B5 * k5z + B6 * k6z)
            k7y, k7z = rhs(s + step, y_new, z_new)
            err_y = 0.0 + E1 * k1y + E3 * k3y + E4 * k4y + E5 * k5y + E6 * k6y + E7 * k7y
            err_z = 0.0 + E1 * k1z + E3 * k3z + E4 * k4z + E5 * k5z + E6 * k6z + E7 * k7z
            ey = step * err_y / (ATOL + RTOL * max(abs(y), abs(y_new)))
            ez = step * err_z / (ATOL + RTOL * max(abs(z), abs(z_new)))
            norm = math.sqrt(0.5 * (ey * ey + ez * ez))    # _rms written out
            ok = norm <= 1.0
            # step-size control of II.4: no growth right after a rejection;
            # max and min written out as the builtins compare, NaN included
            grow = 0.9 * (1e-10 if 1e-10 > norm else norm) ** -0.2
            grow, cap = grow if grow > 0.2 else 0.2, 1.0 if rejected else 10.0
            grow = grow if grow < cap else cap
            # a step cut short to land on a stop keeps the proposal it cut
            h = h if ok and last else step * grow
            rejected = not ok
            if ok:
                s = end if last else s + step
                y, z, k1y, k1z = y_new, z_new, k7y, k7z
        out.append((y, z))
    return out


def _validate_t(cfg: ModelConfig, t: float) -> None:
    lo, hi = cfg.level_range
    if t == 0.0:
        raise DomainError("t = 0 is the critical value; no transport is defined there")
    if not (lo <= t <= hi):
        raise DomainError(f"t = {t} outside the fiber-coordinate range [{lo}, {hi}]")
    # Both start points give the denominator 2|t|; at |t| = floor/2 exactly
    # the computed value still rounds just under the floor.
    if 2.0 * abs(t) <= SINGULAR_FLOOR:
        raise DomainError(
            f"|t| = {abs(t)} is at most {SINGULAR_FLOOR / 2:g}: the transport "
            f"denominator starts at 2|t|, not above the singular floor {SINGULAR_FLOOR:g}"
        )


def _transport(cfg: ModelConfig, levels: Sequence[float], stops: Sequence[float],
               weight: bool = True) -> list[list[tuple[float, float]]]:
    """(r1, r2) at each stop, per level.

    The one function that steps the ODE: every level is validated, then
    stepped alone.  ``weight`` selects the denominator that carries mu'.
    """
    for t in levels:
        _validate_t(cfg, t)
    rhs = _field(cfg, weight)
    return [_dopri5(rhs, initial_condition(t), stops) for t in levels]


def integrate(cfg: ModelConfig, t: float, s_max: float) -> dict[str, dict]:
    """Integrate the transport ODE from s = 0 to s = s_max at level t, and audit it.

    Both denominator variants are stepped, each landing on the
    ``TRAJECTORY_SAMPLES`` evenly spaced values of s.  The result maps
    "weighted" and "unweighted" to the record the report prints:
    ``max_h_drift``, the largest |h(r1, r2) - t|, ``max_radial_drift``, the
    largest |mu(r1) r2 - s|, both over the samples through ``_max_abs``,
    and ``endpoint``, (r1, r2) at s_max.
    """
    if not 0.0 <= s_max <= 1.0:
        raise ValueError(f"s_max must lie in [0, 1], got {s_max}")
    grid = linspace(0.0, s_max, TRAJECTORY_SAMPLES)
    audit = {}
    for name, weight in (("weighted", True), ("unweighted", False)):
        (states,) = _transport(cfg, [t], grid, weight)
        audit[name] = {
            "max_h_drift": _max_abs([h_value(cfg, a, b) - t for a, b in states]),
            "max_radial_drift": _max_abs([cfg.mu_and_slope(a)[0] * b - s
                                          for (a, b), s in zip(states, grid)]),
            "endpoint": states[-1],
        }
    return audit


# ---------------------------------------------------------------------------
# monodromy profile


def _validate_s0(cfg: ModelConfig, s0: float) -> None:
    lo, hi = cfg.s0_range
    if not lo < s0 <= hi:
        raise DomainError(
            f"s0 = {s0} outside ({lo!r}, {hi!r}]: the limit levels +-s0/8 and +-s0/4 need "
            f"|t| above {SINGULAR_FLOOR / 2:g} and their arcs inside the small-t regime"
        )


def _angles(cfg: ModelConfig, s0: float, ts: Sequence[float]) -> tuple[list, list, list]:
    """R, dR and dR_cut at the labels ts, all checked, then each integrated once to s0.

    At the endpoint (r1, r2) both invariants hold, h = t and mu(r1) r2 = s0.
    Their t-derivatives h_r1 r1' + h_r2 r2' = 1 and mu' r2 r1' + mu r2' = 0
    have determinant -D, D the weighted denominator computed as the field
    computes it, so the field kept it above the singular floor there; then
    r2' = mu' r2 / D and R' = [t > 0] - 2 r2 r2'.
    """
    lo, width = cfg.cutoff_lo, cfg.cutoff_hi - cfg.cutoff_lo
    R, dR, dR_cut = [], [], []
    for t, (_, (r1, r2)) in zip(ts, _transport(cfg, ts, [0.0, s0])):
        f, up = cfg.ramp_and_slope(r1 * r1 + r2 * r2)
        cross = up * r1 * r1 * r2 * r2
        dh_r1 = -2.0 * r1 * (1.0 + f * r2 * r2 + cross)
        dh_r2 = 2.0 * r2 * (1.0 - f * r1 * r1 - cross)
        m, m_d = cfg.mu_and_slope(r1)
        r2_t = m_d * r2 / (m_d * r2 * dh_r2 - m * dh_r1)
        sigma, sigma_t = smoothstep_and_slope((t - lo) / width)
        R.append(-r2 * r2 + t if t > 0 else -r2 * r2 - 1.0)
        # 0.0 - 0.0 and x + 0.0 turn an exact zero derivative into 0.0, not -0.0
        dR.append((1.0 if t > 0 else 0.0) - 2.0 * r2 * r2_t)
        dR_cut.append((1.0 - sigma) * dR[-1] - sigma_t / width * R[-1] + 0.0)
    return R, dR, dR_cut


def monodromy_profile(
    cfg: ModelConfig,
    s0: float,
    t_grid: Sequence[float],
) -> dict:
    """Angle profile R, its derivative, and the cutoff-corrected derivative.

    Returns the report's ``profile`` entry: ``s0``, the levels ``t``, ``R``
    there, its t-derivative ``dR`` and that of (1 - sigma) R, ``dR_cut``.

    One level per grid label: each derivative comes from the endpoint its
    own level reaches (see ``_angles``), so a label needs only what its
    level needs to be stepped, which ``_validate_t`` checks: t inside the
    fiber-coordinate range with |t| > SINGULAR_FLOOR / 2 = 5e-13.
    """
    _validate_s0(cfg, s0)
    ts = [float(t) for t in t_grid]
    if not ts:
        raise DomainError("empty t grid")
    R, dR, dR_cut = _angles(cfg, s0, ts)
    return {"s0": s0, "t": ts, "R": R, "dR": dR, "dR_cut": dR_cut}


def limits_at_zero(cfg: ModelConfig, s0: float) -> tuple[float, float]:
    """One-sided limits of R' at 0, Richardson-extrapolated from s0/4, s0/8.

    R'(t) is linear in t to leading order near 0 on either side, so the
    two-point rule 2 R'(+-s0/8) - R'(+-s0/4) cancels the linear term and
    leaves a cubic remainder well inside the LIMIT_TOLERANCE window around
    +-LIMIT_TARGET.  s0 must lie in ``cfg.s0_range``, where every level
    stays in the small-t regime; only those 4 levels are integrated.
    """
    _validate_s0(cfg, s0)
    dR = _angles(cfg, s0, [s0 / 8.0, s0 / 4.0, -s0 / 8.0, -s0 / 4.0])[1]
    return 2.0 * dR[0] - dR[1], 2.0 * dR[2] - dR[3]


# ---------------------------------------------------------------------------
# the transport suite


def _parse_grid(spec: str) -> list[float]:
    """The levels of a LO:HI:COUNT spec; LO and HI, its ends, meet ``_validate_t`` here.

    The levels between them meet it in ``_transport``, after ``--t`` and ``--s0``.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid spec must be lo:hi:count, got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise DomainError(f"unparseable grid spec {spec!r}") from exc
    if not 1 <= count <= MAX_GRID_COUNT:
        raise DomainError(f"grid count must be in 1..{MAX_GRID_COUNT}, got {count}")
    if hi < lo:
        raise DomainError(f"grid bounds out of order in {spec!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"grid bounds must be finite, got {spec!r}")
    _validate_t(DEFAULT_CONFIG, lo)
    _validate_t(DEFAULT_CONFIG, hi)
    return linspace(lo, hi, count)


def suite(t: float, s0: float, grid: str) -> SuiteResult:
    """transport: both trajectories at level ``t``, the limits at 0 and the profile on ``grid``."""
    cfg = DEFAULT_CONFIG
    # usage errors, refused in this order before any level is stepped: the
    # grid spec and its two bounds, --t, --s0, then the grid's other levels
    levels = _parse_grid(grid)
    _validate_t(cfg, t)
    timing: dict[str, float] = {}
    prof = timed(timing, "profile_ms", monodromy_profile, cfg, s0, levels)

    # Both denominator conventions ride along on every trajectory report.
    # Only the corrected one is expected to conserve mu*r2 - s; the other
    # column documents how far the uncorrected form drifts.
    trajectories = {
        variant: {**audit, "radial_drift_gated": variant == "weighted"}
        for variant, audit in timed(timing, "integrate_ms", integrate, cfg, t, 0.5).items()
    }

    lim_plus, lim_minus = timed(timing, "limits_ms", limits_at_zero, cfg, s0)

    gate, target, tol = DRIFT_GATE, LIMIT_TARGET, LIMIT_TOLERANCE
    gates = []
    for variant, data in trajectories.items():
        gates.append((data["max_h_drift"], gate, "<=",
                      f"{variant} h drift {data['max_h_drift']} above {gate:g}"))
        if data["radial_drift_gated"]:
            gates.append((data["max_radial_drift"], gate, "<=",
                          f"{variant} radial drift {data['max_radial_drift']} above {gate:g}"))
    gates += [(abs(lim_plus - target), tol, "<=",
               f"limit at 0+ = {lim_plus}, expected 0.5 within 1e-3"),
              (abs(lim_minus + target), tol, "<=",
               f"limit at 0- = {lim_minus}, expected -0.5 within 1e-3")]

    report = {
        "config": config_dict(cfg, t=t, s0=s0, grid=grid),
        "trajectory": {"t": t, "s_max": 0.5, "variants": trajectories},
        "limits_at_zero": {
            "plus": lim_plus,
            "minus": lim_minus,
            "target": target,
            "tolerance": tol,
        },
        "profile": prof,
    }

    header = ["t", "R", "dR", "dR_cut"]
    rows = [header] + float_rows(*(prof[key] for key in header))
    table_rows = rows + [
        [f"{variant} drifts", cell(data["max_h_drift"]),
         cell(data["max_radial_drift"]), ""]
        for variant, data in trajectories.items()
    ]
    table_rows += [["limits at 0", cell(lim_plus), cell(lim_minus), ""], result_row(gates, 4)]
    return SuiteResult(report, gates, rows, table_rows, timing)
