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
which the flat-region argument r2(s0, t) = s0 depends on.  Each batch
column carries its own variant flag, so ``integrate`` steps both variants
of one level as a single two-column batch, and reports print their
invariant drifts side by side.

The ODE is stepped by one Dormand & Prince (1980) 5(4) pair with the step
control of Hairer, Norsett and Wanner (Solving ODEs I, II.4-5).  It steps a
(2, N) numpy batch of levels at once: each column has its own step size,
its own accept/reject decision and its own position, and columns never mix,
so a level integrated in a batch equals the level integrated alone, bit
for bit.  ``integrate`` cuts steps to land exactly on each of its sample
points (no dense output); ``monodromy_profile`` integrates its 3C stencil
levels in one batch, and ``limits_at_zero`` its 12.  The local tolerances
ATOL = RTOL sit four decades under DRIFT_GATE, the bound the reports audit
both invariants against.  No step is projected back onto the invariants:
that would zero the very drift the audit reports.

The monodromy angle profile is

    R(t) = -r2(s0, t)^2 + t   (t > 0),      R(t) = -r2(s0, t)^2 - 1  (t < 0),

with one-sided limits R'(0+) = 1/2 and R'(0-) = -1/2, R' = 0 on the inner
flat region, and, after the cutoff correction ((1 - sigma) R)', identically
zero derivative near the outer ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, DomainError, FloatOrArray, ModelConfig

__all__ = [
    "Trajectory",
    "MonodromyProfile",
    "SingularTransportError",
    "IntegrationFailureError",
    "RegimeError",
    "initial_condition",
    "integrate",
    "closed_form",
    "monodromy_profile",
    "limits_at_zero",
]


# The drift gate the reports audit both invariants against; the stepper's
# local tolerances, four decades under it so that the error accumulated
# over a few hundred steps stays well inside the gate; and the floor below
# which the transport denominator counts as vanished.
DRIFT_GATE = 1e-8
ATOL = RTOL = DRIFT_GATE * 1e-4
SINGULAR_FLOOR = 1e-12

# Dormand & Prince (1980) 5(4) pair, as in Hairer, Norsett and Wanner,
# Solving ODEs I, Table II.5.2: stage nodes _C and rows _A of the stages
# after the first.  The last row is also the fifth-order solution's weights,
# so the last stage is the field at the new point (first same as last).
# _E holds the fifth- minus fourth-order weights, the local error estimate.
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


def h_value(cfg: ModelConfig, r1: FloatOrArray, r2: FloatOrArray) -> FloatOrArray:
    f = cfg.ramp(r1 * r1 + r2 * r2)
    return -r1 * r1 + r2 * r2 - f * r1 * r1 * r2 * r2


def _field(cfg: ModelConfig, weight: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(r1, r2)/ds = (dh/dr2, -dh/dr1) / D for a (2, N) batch at arc parameters s.

    ``weight`` flags the columns whose denominator carries the mu' factor;
    the others multiply by 1.0, which leaves r2 bit for bit.
    """
    r1, r2 = y[0], y[1]
    f, up = cfg.ramp_and_slope(r1 * r1 + r2 * r2)
    cross = up * r1 * r1 * r2 * r2
    dh_r1 = -2.0 * r1 * (1.0 + f * r2 * r2 + cross)
    dh_r2 = 2.0 * r2 * (1.0 - f * r1 * r1 - cross)
    m, m_d = cfg.mu_and_slope(r1)
    den = np.where(weight, m_d, 1.0) * r2 * dh_r2 - m * dh_r1
    singular = np.abs(den) < SINGULAR_FLOOR
    if singular.any():
        i = int(np.argmax(singular))
        raise SingularTransportError(float(s[i]), float(r1[i]), float(r2[i]), float(den[i]))
    return np.array([dh_r2, -dh_r1]) / den


def _rms(x: np.ndarray) -> np.ndarray:
    """Root mean square of each column of a (2, N) array."""
    return np.sqrt(0.5 * (x * x).sum(axis=0))


def _initial_step(rhs, s: np.ndarray, y: np.ndarray, f: np.ndarray,
                  cols: np.ndarray) -> np.ndarray:
    """A first step size per column (Hairer, Norsett and Wanner, II.4)."""
    scale = ATOL + RTOL * np.abs(y)
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-5))
    d2 = _rms((rhs(s + h0, y + h0 * f, cols) - f) / scale) / h0
    d = np.maximum(d1, d2)
    h1 = np.where(d <= 1e-15, np.maximum(1e-6, 1e-3 * h0),
                  (0.01 / np.maximum(d, 1e-15)) ** 0.2)
    return np.minimum(100.0 * h0, h1)


def _dopri5(rhs, y0: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Integrate dy/ds = rhs(s, y, cols) for a (2, N) batch y0 through ``stops``.

    ``stops`` increase from the common start s = stops[0].  Every column
    keeps its own step size and accept/reject decision; a column that
    reaches a stop waits there for the others, and the step that reaches it
    is cut to land on it exactly.  Columns never mix, so a column computed
    in a batch equals the same column computed alone, bit for bit.
    ``rhs`` sees only the columns still stepping; ``cols`` holds their
    indices into the batch.  Returns the states at the stops, shape
    (len(stops), 2, N).
    """
    y = np.array(y0, dtype=float)
    out = np.empty((len(stops),) + y.shape)
    out[0] = y
    s = np.full(y.shape[1], float(stops[0]))
    every = np.arange(s.size)
    f = rhs(s, y, every)
    h = _initial_step(rhs, s, y, f, every)
    rejected = np.zeros(s.size, dtype=bool)
    for j in range(1, len(stops)):
        end = float(stops[j])
        live = np.flatnonzero(s < end)
        while live.size:
            ss, ys, hs = s[live], y[:, live], h[live]
            underflow = hs < 16.0 * np.spacing(ss)
            if underflow.any():
                i = int(np.argmax(underflow))
                raise IntegrationFailureError(
                    f"step size {hs[i]:.3e} underflowed at s={ss[i]:.6g}, "
                    f"(r1, r2)=({ys[0, i]:.6g}, {ys[1, i]:.6g})"
                )
            room = end - ss
            last = hs >= room
            step = np.where(last, room, hs)
            ks = [f[:, live]]
            for c, row in zip(_C, _A):
                y_new = ys + step * sum(a * k for a, k in zip(row, ks) if a)
                ks.append(rhs(ss + c * step, y_new, live))
            error = step * sum(e * k for e, k in zip(_E, ks) if e)
            norm = _rms(error / (ATOL + RTOL * np.maximum(np.abs(ys), np.abs(y_new))))
            ok = norm <= 1.0
            # step-size control of II.4: no growth right after a rejection
            grow = np.fmin(np.where(rejected[live], 1.0, 10.0),
                           np.fmax(0.2, 0.9 * np.maximum(norm, 1e-10) ** -0.2))
            # a step cut short to land on a stop keeps the proposal it cut
            h[live] = np.where(ok & last, hs, step * grow)
            rejected[live] = ~ok
            done = live[ok]
            s[done] = np.where(last[ok], end, ss[ok] + step[ok])
            y[:, done] = y_new[:, ok]
            f[:, done] = ks[-1][:, ok]
            live = live[s[live] < end]
        out[j] = y
    return out


def _validate_t(cfg: ModelConfig, t: float) -> None:
    lo = -cfg.disk1_radius ** 2
    hi = cfg.disk2_radius ** 2
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


def _transport(cfg: ModelConfig, levels: np.ndarray, stops: np.ndarray,
               weight: bool | np.ndarray = True) -> np.ndarray:
    """(r1, r2) at each stop for each level, shape (len(stops), 2, len(levels)).

    ``weight`` flags the levels (one bool: all of them) whose D carries mu'.
    """
    for t in levels:
        _validate_t(cfg, t)
    y0 = np.array([initial_condition(t) for t in levels]).T
    weight = np.broadcast_to(weight, levels.shape)
    return _dopri5(lambda s, y, cols: _field(cfg, weight[cols], s, y), y0, stops)


def integrate(
    cfg: ModelConfig,
    t: float,
    s_max: float,
    samples: int = 129,
) -> dict[str, Trajectory]:
    """Integrate the transport ODE from s = 0 to s = s_max at level t.

    Both denominator variants run as one two-column batch; the result maps
    "weighted" and "unweighted" to their trajectories.  The stepper lands
    on each of the ``samples`` evenly spaced values of s.
    """
    if s_max < 0 or s_max > 1:
        raise ValueError(f"s_max must lie in [0, 1], got {s_max}")
    grid = np.linspace(0.0, s_max, samples if s_max > 0 else 1)
    ys = _transport(cfg, np.array([t, t]), grid, np.array([True, False]))
    r1, r2 = ys[:, 0], ys[:, 1]
    h_drift = h_value(cfg, r1, r2) - t
    radial = cfg.mu(r1) * r2 - grid[:, None]
    return {
        name: Trajectory(t=t, s=grid, r1=r1[:, k], r2=r2[:, k], h_drift=h_drift[:, k],
                         radial_residual=radial[:, k])
        for k, name in enumerate(("weighted", "unweighted"))
    }


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


# ---------------------------------------------------------------------------
# monodromy profile


def _fd_step(cfg: ModelConfig, t: float) -> float:
    step = min(abs(t) / 8.0, 1e-3)
    if step <= 1e-8:
        raise DomainError(
            f"t = {t} too close to the critical value t = 0 for a central stencil"
        )
    if t > 0:
        step = min(step, 0.5 * (cfg.disk2_radius ** 2 - t))
    else:
        step = min(step, 0.5 * (t + cfg.disk1_radius ** 2))
    if step <= 1e-8:
        raise DomainError(
            f"t = {t} too close to the fiber-coordinate boundary for a central stencil"
        )
    return step


def monodromy_profile(
    cfg: ModelConfig,
    s0: float,
    t_grid: Sequence[float],
) -> MonodromyProfile:
    """Angle profile R, its derivative, and the cutoff-corrected derivative.

    Three levels per grid label: the label itself and a central stencil
    t +/- step with step = min(|t|/8, 1e-3), shrunk near the domain ends.
    All 3C levels are integrated to s0 in one batch.  The grid must avoid
    the critical value 0.
    """
    if not (0.0 < s0 <= cfg.collar_width / 4.0):
        raise DomainError(
            f"s0 must lie in (0, collar_width/4 = {cfg.collar_width / 4}], got {s0}"
        )
    ts = np.asarray(list(t_grid), dtype=float)
    if ts.size == 0:
        raise DomainError("empty t grid")
    if np.any(ts == 0.0):
        raise DomainError("t grid must avoid the critical value 0")
    step = np.array([_fd_step(cfg, t) for t in ts])
    levels = np.concatenate([ts, ts + step, ts - step])
    r2 = _transport(cfg, levels, np.array([0.0, s0]))[-1, 1]
    R = np.where(levels > 0, -r2 * r2 + levels, -r2 * r2 - 1.0)
    center, hi, lo = R.reshape(3, ts.size)
    dR = (hi - lo) / (2.0 * step)
    cut_hi = (1.0 - cfg.cutoff(ts + step)) * hi
    cut_lo = (1.0 - cfg.cutoff(ts - step)) * lo
    dR_cut = (cut_hi - cut_lo) / (2.0 * step)
    return MonodromyProfile(s0=s0, t=ts, R=center, dR=dR, dR_cut=dR_cut)


def limits_at_zero(cfg: ModelConfig, s0: float) -> tuple[float, float]:
    """One-sided limits of R' at 0, Richardson-extrapolated from s0/4, s0/8.

    R'(t) is linear in t to leading order near 0 on either side, so the
    two-point rule 2 R'(+-s0/8) - R'(+-s0/4) cancels the linear term and
    leaves a cubic remainder well below the 1e-3 acceptance window.
    """
    prof = monodromy_profile(cfg, s0, [s0 / 8.0, s0 / 4.0, -s0 / 8.0, -s0 / 4.0])
    plus = 2.0 * prof.dR[0] - prof.dR[1]
    minus = 2.0 * prof.dR[2] - prof.dR[3]
    return float(plus), float(minus)
