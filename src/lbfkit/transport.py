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
which the flat-region argument r2(s0, t) = s0 depends on.  Reports print the
invariant drifts of both variants side by side.

The monodromy angle profile is

    R(t) = -r2(s0, t)^2 + t   (t > 0),      R(t) = -r2(s0, t)^2 - 1  (t < 0),

with one-sided limits R'(0+) = 1/2 and R'(0-) = -1/2, R' = 0 on the inner
flat region, and, after the cutoff correction ((1 - sigma) R)', identically
zero derivative near the outer ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .config import DEFAULT_CONFIG, FloatOrArray, ModelConfig, float_csv

__all__ = [
    "TransportParams",
    "Trajectory",
    "MonodromyProfile",
    "SingularTransportError",
    "IntegrationFailureError",
    "RegimeError",
    "initial_condition",
    "integrate",
    "closed_form",
    "small_t_branch_audit",
    "monodromy_profile",
    "limits_at_zero",
    "trajectory_csv",
    "profile_csv",
]


# The stepper's tolerances, and the floor below which the transport
# denominator counts as vanished.
ATOL = 1e-10
RTOL = 1e-10
SINGULAR_FLOOR = 1e-12


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


class RegimeError(ValueError):
    """Closed-form evaluation requested outside its validity regime."""


@dataclass
class TransportParams:
    """The model configuration and the denominator convention.

    The profiles u, u', mu, mu' and sigma are the smoothstep realizations of
    ``cfg``; ``denominator="weighted"`` carries the mu' factor.
    """

    cfg: ModelConfig = DEFAULT_CONFIG
    denominator: str = "weighted"

    def __post_init__(self) -> None:
        if self.denominator not in ("weighted", "unweighted"):
            raise ValueError(
                f"denominator must be 'weighted' or 'unweighted', got {self.denominator!r}"
            )


@dataclass
class Trajectory:
    t: float
    s: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    h_drift: np.ndarray            # h(r1, r2) - t per sample
    radial_residual: np.ndarray    # mu(r1) r2 - s per sample

    @property
    def max_h_drift(self) -> float:
        return float(np.max(np.abs(self.h_drift)))

    @property
    def max_radial_drift(self) -> float:
        return float(np.max(np.abs(self.radial_residual)))

    @property
    def endpoint(self) -> tuple[float, float]:
        return float(self.r1[-1]), float(self.r2[-1])


@dataclass
class MonodromyProfile:
    s0: float
    t: np.ndarray
    R: np.ndarray
    dR: np.ndarray       # central finite differences of R
    dR_cut: np.ndarray   # central differences of (1 - sigma) R


# ---------------------------------------------------------------------------
# field evaluation


def initial_condition(t: float) -> tuple[float, float]:
    """(0, sqrt(t)) for t > 0, (sqrt(-t), 0) for t < 0."""
    if t > 0:
        return 0.0, math.sqrt(t)
    if t < 0:
        return math.sqrt(-t), 0.0
    raise ValueError("t = 0 is the critical value; no transport is defined there")


def h_value(params: TransportParams, r1: FloatOrArray, r2: FloatOrArray) -> FloatOrArray:
    f = params.cfg.ramp(r1 * r1 + r2 * r2)
    return -r1 * r1 + r2 * r2 - f * r1 * r1 * r2 * r2


def _field_parts(params: TransportParams, r1: float, r2: float) -> tuple[float, float, float]:
    """(dh/dr1, dh/dr2, denominator) at a point."""
    cfg = params.cfg
    sq = r1 * r1 + r2 * r2
    f = cfg.ramp(sq)
    up = cfg.ramp_d(sq)
    dh_r1 = -2.0 * r1 * (1.0 + f * r2 * r2 + up * r1 * r1 * r2 * r2)
    dh_r2 = 2.0 * r2 * (1.0 - f * r1 * r1 - up * r1 * r1 * r2 * r2)
    m = cfg.mu(r1)
    if params.denominator == "weighted":
        den = cfg.mu_d(r1) * r2 * dh_r2 - m * dh_r1
    else:
        den = r2 * dh_r2 - m * dh_r1
    return dh_r1, dh_r2, den


def _validate_t(cfg: ModelConfig, t: float) -> None:
    lo = -cfg.disk1_radius ** 2
    hi = cfg.disk2_radius ** 2
    if t == 0.0:
        raise ValueError("t = 0 is the critical value; no transport is defined there")
    if not (lo <= t <= hi):
        raise ValueError(f"t = {t} outside the fiber-coordinate range [{lo}, {hi}]")
    # Both start points give the denominator 2|t|; at |t| = floor/2 exactly
    # the computed value still rounds just under the floor.
    if 2.0 * abs(t) <= SINGULAR_FLOOR:
        raise ValueError(
            f"|t| = {abs(t)} is at most {SINGULAR_FLOOR / 2:g}: the transport "
            f"denominator starts at 2|t|, not above the singular floor {SINGULAR_FLOOR:g}"
        )


def integrate(
    params: TransportParams,
    t: float,
    s_max: float,
    samples: int = 129,
) -> Trajectory:
    """Integrate the transport ODE from s = 0 to s = s_max at level t."""
    _validate_t(params.cfg, t)
    if s_max < 0 or s_max > 1:
        raise ValueError(f"s_max must lie in [0, 1], got {s_max}")
    r1_0, r2_0 = initial_condition(t)

    if s_max == 0.0:
        zero = np.zeros(1)
        return Trajectory(
            t=t,
            s=zero,
            r1=np.array([r1_0]),
            r2=np.array([r2_0]),
            h_drift=zero.copy(),
            radial_residual=zero.copy(),
        )

    def rhs(s: float, y: np.ndarray) -> list[float]:
        # Python floats, not numpy scalars: the profiles run at float speed.
        r1, r2 = y.tolist()
        dh_r1, dh_r2, den = _field_parts(params, r1, r2)
        if abs(den) < SINGULAR_FLOOR:
            raise SingularTransportError(s, r1, r2, den)
        return [dh_r2 / den, -dh_r1 / den]

    grid = np.linspace(0.0, s_max, samples)
    result = solve_ivp(
        rhs,
        (0.0, s_max),
        [r1_0, r2_0],
        method="RK45",
        t_eval=grid,
        atol=ATOL,
        rtol=RTOL,
    )
    if not result.success:
        raise IntegrationFailureError(
            f"integration stalled at level t={t}: {result.message}"
        )
    r1, r2 = result.y
    h_drift = h_value(params, r1, r2) - t
    radial = params.cfg.mu(r1) * r2 - grid
    return Trajectory(t=t, s=grid, r1=r1, r2=r2, h_drift=h_drift, radial_residual=radial)


# ---------------------------------------------------------------------------
# closed forms


def closed_form(
    regime: str,
    s: float,
    t: float,
    cfg: ModelConfig = DEFAULT_CONFIG,
) -> tuple[float, float]:
    """Closed-form (r1, r2) at arc parameter s on level t, per regime.

    ``small_t``: valid while the interpolation profile vanishes
    (r1^2 + r2^2 <= ramp_lo) and the radial reparametrization is the
    identity (r1 <= collar_width); both branches collapse to

        r1^2 = (sqrt(4s^2 + t^2) - t) / 2,  r2^2 = (sqrt(4s^2 + t^2) + t) / 2,

    which satisfies r2^2 - r1^2 = t and r1 r2 = s exactly.

    ``outer_large_t``: valid for t > 0 with the profile saturated
    (r1^2 + r2^2 >= ramp_hi) and r1 still below collar_width; uses the
    real rewriting

        r2 = sqrt((t - s^2 + D) / (2 + t + s^2 - D)),
        D  = sqrt(t^2 + 4 s^2 + 2 t s^2 + s^4),

    and the algebraically identical but cancellation-free
    r1 = s sqrt(2 / (D + t + s^2)).
    """
    if s < 0:
        raise RegimeError(f"arc parameter must be nonnegative, got s = {s}")
    if regime == "small_t":
        if t == 0:
            raise RegimeError("t = 0 is the critical value")
        d = math.hypot(2.0 * s, t)
        if d > cfg.ramp_lo:
            raise RegimeError(
                f"r1^2 + r2^2 = {d:.6g} exceeds ramp_lo = {cfg.ramp_lo}; "
                "the interpolation profile no longer vanishes"
            )
        r1_sq = 0.5 * (d - t)
        if r1_sq > cfg.collar_width ** 2 + 1e-15:
            raise RegimeError(
                f"r1 = {math.sqrt(r1_sq):.6g} exceeds collar_width = "
                f"{cfg.collar_width}; the radial reparametrization is not the identity"
            )
        return math.sqrt(max(r1_sq, 0.0)), math.sqrt(0.5 * (d + t))
    if regime == "outer_large_t":
        if t <= 0:
            raise RegimeError(
                f"outer closed form starts from (0, sqrt(t)) and needs t > 0, got {t}"
            )
        if t < cfg.ramp_hi:
            raise RegimeError(
                f"t = {t} below ramp_hi = {cfg.ramp_hi}; "
                "the interpolation profile is not saturated at the start"
            )
        delta = math.hypot(t + s * s, 2.0 * s)
        r1 = s * math.sqrt(2.0 / (delta + t + s * s))
        if r1 > cfg.collar_width:
            raise RegimeError(
                f"r1 = {r1:.6g} exceeds collar_width = {cfg.collar_width}; "
                "the radial reparametrization is not the identity"
            )
        r2 = math.sqrt((t - s * s + delta) / (2.0 + t + s * s - delta))
        return r1, r2
    raise RegimeError(f"unknown regime {regime!r}; use 'small_t' or 'outer_large_t'")


def small_t_branch_audit(s: float, t: float) -> dict[str, float]:
    """Compare the two branch assignments of the small-t closed form.

    The assignment used here puts the larger radius on the disk matching the
    start point; the alternative (roles of r1 and r2 exchanged per branch)
    misses the start point by sqrt(|t|) and flips the sign of the conserved
    difference r2^2 - r1^2.  Returns the start-point and conservation errors
    of both so the discrepancy stays visible in reports.
    """
    if t == 0:
        raise ValueError("t = 0 is the critical value")
    at = abs(t)
    u = 2.0 * s / at + math.sqrt(4.0 * s * s / (at * at) + 1.0)
    ru = math.sqrt(u)
    plus = 0.5 * (ru + 1.0 / ru) * math.sqrt(at)
    minus = 0.5 * (ru - 1.0 / ru) * math.sqrt(at)
    if t > 0:
        used = (minus, plus)
        alternative = (plus, minus)
    else:
        used = (plus, minus)
        alternative = (minus, plus)
    start = initial_condition(t)
    # at s = 0 the auxiliary quotient is exactly 1, so the radii collapse
    start_used = (
        (0.5 * (1.0 - 1.0) * math.sqrt(at), 0.5 * (1.0 + 1.0) * math.sqrt(at))
        if t > 0
        else (0.5 * (1.0 + 1.0) * math.sqrt(at), 0.5 * (1.0 - 1.0) * math.sqrt(at))
    )
    start_alt = (start_used[1], start_used[0])

    def dist(a: tuple[float, float], b: tuple[float, float]) -> float:
        return math.hypot(a[0] - b[0], a[1] - b[1])

    return {
        "s": s,
        "t": t,
        "used_r1": used[0],
        "used_r2": used[1],
        "alt_r1": alternative[0],
        "alt_r2": alternative[1],
        "used_start_error": dist(start_used, start),
        "alt_start_error": dist(start_alt, start),
        "used_conservation": used[1] ** 2 - used[0] ** 2 - t,
        "alt_conservation": alternative[1] ** 2 - alternative[0] ** 2 - t,
    }


# ---------------------------------------------------------------------------
# monodromy profile


def _angle_value(r2_end: float, t: float) -> float:
    return -r2_end * r2_end + t if t > 0 else -r2_end * r2_end - 1.0


def _fd_step(cfg: ModelConfig, t: float) -> float:
    step = min(abs(t) / 8.0, 1e-3)
    if step <= 1e-8:
        raise ValueError(
            f"t = {t} too close to the critical value t = 0 for a central stencil"
        )
    if t > 0:
        step = min(step, 0.5 * (cfg.disk2_radius ** 2 - t))
    else:
        step = min(step, 0.5 * (t + cfg.disk1_radius ** 2))
    if step <= 1e-8:
        raise ValueError(
            f"t = {t} too close to the fiber-coordinate boundary for a central stencil"
        )
    return step


def _angle_at(params: TransportParams, s0: float, t: float) -> float:
    traj = integrate(params, t, s0, samples=2)
    return _angle_value(traj.r2[-1], t)


def monodromy_profile(
    params: TransportParams,
    s0: float,
    t_grid: Sequence[float],
) -> MonodromyProfile:
    """Angle profile R, its derivative, and the cutoff-corrected derivative.

    Three integrations per grid label: the label itself and a central
    stencil t +/- step with step = min(|t|/8, 1e-3), shrunk near the
    domain ends.  The grid must avoid the critical value 0.
    """
    cfg = params.cfg
    if not (0.0 < s0 <= cfg.collar_width / 4.0):
        raise ValueError(
            f"s0 must lie in (0, collar_width/4 = {cfg.collar_width / 4}], got {s0}"
        )
    ts = np.asarray(list(t_grid), dtype=float)
    if ts.size == 0:
        raise ValueError("empty t grid")
    if np.any(ts == 0.0):
        raise ValueError("t grid must avoid the critical value 0")
    R = np.empty(ts.size)
    dR = np.empty(ts.size)
    dR_cut = np.empty(ts.size)
    for i, t in enumerate(ts):
        step = _fd_step(cfg, t)
        center = _angle_at(params, s0, t)
        hi = _angle_at(params, s0, t + step)
        lo = _angle_at(params, s0, t - step)
        R[i] = center
        dR[i] = (hi - lo) / (2.0 * step)
        cut_hi = (1.0 - cfg.cutoff(t + step)) * hi
        cut_lo = (1.0 - cfg.cutoff(t - step)) * lo
        dR_cut[i] = (cut_hi - cut_lo) / (2.0 * step)
    return MonodromyProfile(s0=s0, t=ts, R=R, dR=dR, dR_cut=dR_cut)


def limits_at_zero(params: TransportParams, s0: float) -> tuple[float, float]:
    """One-sided limits of R' at 0, Richardson-extrapolated from s0/4, s0/8.

    R'(t) is linear in t to leading order near 0 on either side, so the
    two-point rule 2 R'(+-s0/8) - R'(+-s0/4) cancels the linear term and
    leaves a cubic remainder well below the 1e-3 acceptance window.
    """
    prof = monodromy_profile(params, s0, [s0 / 8.0, s0 / 4.0, -s0 / 8.0, -s0 / 4.0])
    plus = 2.0 * prof.dR[0] - prof.dR[1]
    minus = 2.0 * prof.dR[2] - prof.dR[3]
    return float(plus), float(minus)


# ---------------------------------------------------------------------------
# CSV dumps


def trajectory_csv(traj: Trajectory) -> str:
    return float_csv("s,r1,r2,h_drift,mu_r2_minus_s", traj.s, traj.r1, traj.r2,
                     traj.h_drift, traj.radial_residual)


def profile_csv(prof: MonodromyProfile) -> str:
    return float_csv("t,R,dR,dR_cut", prof.t, prof.R, prof.dR, prof.dR_cut)
