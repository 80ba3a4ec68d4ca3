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
steps both variants of one level, and reports print their invariant
drifts side by side.

The ODE is stepped by one Dormand & Prince (1980) 5(4) pair with the step
control of Hairer, Norsett and Wanner (Solving ODEs I, II.4-5).  The step
(``_attempt``) and the starting-step rule (``_initial_step``) are written
once, for a pair (r1, r2) of floats or of 1-D arrays and a namespace of
the numpy functions they call, and two drivers loop around them.
``_dopri5`` steps a (2, N) numpy batch of levels at once: each column has
its own step size, its own accept/reject decision and its own position,
and columns never mix, so a level integrated in a batch equals the level
integrated alone, bit for bit.  ``_dopri5_column`` steps one level on
Python floats and gives the batch's bits too.  ``_transport`` is the one
entry point, and it picks the driver from the level count: numpy's
per-call overhead outweighs the arithmetic on a few columns, so fewer
than ``BATCH_MIN`` levels are stepped one after the other on floats and
more in one batch.  ``integrate``'s two trajectories (one level each) and
the 12 levels of ``limits_at_zero`` run on floats; ``monodromy_profile``'s
3C stencil levels run in the batch once 3C reaches ``BATCH_MIN``.  Steps
are cut to land exactly on each stop (no dense output).
The local tolerances ATOL = RTOL sit four decades under DRIFT_GATE, the
bound the reports audit both invariants against.  No step is projected
back onto the invariants: that would zero the very drift the audit
reports.

The monodromy angle profile is

    R(t) = -r2(s0, t)^2 + t   (t > 0),      R(t) = -r2(s0, t)^2 - 1  (t < 0),

with one-sided limits R'(0+) = 1/2 and R'(0-) = -1/2, R' = 0 on the inner
flat region, and, after the cutoff correction ((1 - sigma) R)', identically
zero derivative near the outer ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, STENCIL_FLOOR, DomainError, FloatOrArray, ModelConfig

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
# The values of s each audit trajectory lands on, evenly spaced from 0.
TRAJECTORY_SAMPLES = 129
# The level count from which ``_transport`` steps one numpy batch instead
# of one float column per level.  On profile stencils to s0 = 1e-3 (2-core
# x86-64, numpy 2.4) the floats were faster up to 42 levels and the batch
# from 48 on, by 1.25x at 72 levels and 2x at 192.
BATCH_MIN = 48

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


def _field_terms(cfg: ModelConfig, weight: bool, r1: FloatOrArray,
                 r2: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray, FloatOrArray]:
    """(dh/dr2, -dh/dr1) and the denominator D at (r1, r2), floats or arrays alike.

    ``weight`` keeps the mu' factor on the first term of D; the unweighted
    variant drops it.
    """
    f, up = cfg.ramp_and_slope(r1 * r1 + r2 * r2)
    cross = up * r1 * r1 * r2 * r2
    dh_r1 = -2.0 * r1 * (1.0 + f * r2 * r2 + cross)
    dh_r2 = 2.0 * r2 * (1.0 - f * r1 * r1 - cross)
    m, m_d = cfg.mu_and_slope(r1)
    den = (m_d * r2 if weight else r2) * dh_r2 - m * dh_r1
    return dh_r2, -dh_r1, den


def _field(cfg: ModelConfig, weight: bool, s, y, xp):
    """d(r1, r2)/ds = (dh/dr2, -dh/dr1) / D at arc parameters s, as a pair.

    ``y`` is the pair (r1, r2) of floats or of 1-D arrays, and ``xp`` the
    matching namespace (``_FLOATS`` or numpy).  A vanished denominator is
    reported at the first column it vanishes in.
    """
    r1, r2 = y
    a, b, den = _field_terms(cfg, weight, r1, r2)
    singular = abs(den) < SINGULAR_FLOOR
    if xp.any(singular):
        i = np.argmax(singular)
        raise SingularTransportError(*(float(np.ravel(v)[i]) for v in (s, r1, r2, den)))
    return a / den, b / den


def _pow(x: float, e: float) -> float:
    """x ** e rounded as numpy's array loop rounds it.

    libm's pow (Python's **) and numpy's scalar power each differ from
    numpy's array loop in the last bit on about 5% of inputs; a one-element
    array takes the array loop.
    """
    return float((np.array([x]) ** e)[0])


# The numpy functions the step calls, on Python floats: a column stepped on
# floats performs the batch's operations in the batch's order, so it gets
# the batch's bits.  +, -, *, /, abs and sqrt round the same way in Python
# and numpy; x ** e does not, hence ``_pow``.
_FLOATS = SimpleNamespace(
    any=bool,
    where=lambda cond, a, b: a if cond else b,
    maximum=max, fmax=max,
    minimum=min, fmin=min,
    sqrt=math.sqrt,
    power=_pow,
)


def _rms(a, b, xp):
    """Root mean square of the pair (a, b), per column."""
    return xp.sqrt(0.5 * (a * a + b * b))


def _stage_sum(weights: Sequence[float], ks: list) -> tuple:
    """sum(w * k for w, k in zip(weights, ks) if w), per component of the pairs ks.

    Accumulated left to right from 0, as sum() adds arrays; sum() of floats
    compensates its rounding from Python 3.12 on, so it is not used here.
    """
    a = b = 0
    for w, k in zip(weights, ks):
        if w:
            a += w * k[0]
            b += w * k[1]
    return a, b


def _initial_step(rhs, s, y, f, xp):
    """A first step size per column (Hairer, Norsett and Wanner, II.4)."""
    scale = (ATOL + RTOL * abs(y[0]), ATOL + RTOL * abs(y[1]))
    d0 = _rms(y[0] / scale[0], y[1] / scale[1], xp)
    d1 = _rms(f[0] / scale[0], f[1] / scale[1], xp)
    h0 = xp.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / xp.maximum(d1, 1e-5))
    f1 = rhs(s + h0, (y[0] + h0 * f[0], y[1] + h0 * f[1]))
    d2 = _rms((f1[0] - f[0]) / scale[0], (f1[1] - f[1]) / scale[1], xp) / h0
    d = xp.maximum(d1, d2)
    h1 = xp.where(d <= 1e-15, xp.maximum(1e-6, 1e-3 * h0),
                  xp.power(0.01 / xp.maximum(d, 1e-15), 0.2))
    return xp.minimum(100.0 * h0, h1)


def _attempt(rhs, end: float, s, y, f, h, rejected, xp):
    """One Dormand-Prince step of size h from s towards ``end``, per column.

    ``y`` and its slope ``f`` are pairs; a step that would pass ``end`` is
    cut to land on it.  Returns whether the step is accepted, the new s, y
    and slope, and the next step size.  The drivers negate ``ok``
    themselves: ``~`` on a Python bool is integer negation (~True == -2).
    """
    room = end - s
    last = h >= room
    step = xp.where(last, room, h)
    ks = [f]
    for c, row in zip(_C, _A):
        a, b = _stage_sum(row, ks)
        y_new = (y[0] + step * a, y[1] + step * b)
        ks.append(rhs(s + c * step, y_new))
    a, b = _stage_sum(_E, ks)
    norm = _rms(step * a / (ATOL + RTOL * xp.maximum(abs(y[0]), abs(y_new[0]))),
                step * b / (ATOL + RTOL * xp.maximum(abs(y[1]), abs(y_new[1]))), xp)
    ok = norm <= 1.0
    # step-size control of II.4: no growth right after a rejection
    grow = xp.fmin(xp.where(rejected, 1.0, 10.0),
                   xp.fmax(0.2, 0.9 * xp.power(xp.maximum(norm, 1e-10), -0.2)))
    # a step cut short to land on a stop keeps the proposal it cut
    h_next = xp.where(ok & last, h, step * grow)
    return ok, xp.where(last, end, s + step), y_new, ks[-1], h_next


def _underflow(h: float, s: float, y) -> IntegrationFailureError:
    """The error either driver raises when its step size h underflows at (s, y)."""
    return IntegrationFailureError(
        f"step size {h:.3e} underflowed at s={s:.6g}, (r1, r2)=({y[0]:.6g}, {y[1]:.6g})"
    )


def _dopri5(rhs, y0: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Integrate dy/ds = rhs(s, y) for a (2, N) batch y0 through ``stops``.

    ``stops`` increase from the common start s = stops[0].  Every column
    keeps its own step size and accept/reject decision; a column that
    reaches a stop waits there for the others, and the step that reaches it
    is cut to land on it exactly.  Columns never mix, so a column computed
    in a batch equals the same column computed alone, bit for bit.
    ``rhs`` sees only the columns still stepping, as a pair of rows, and
    returns a pair.  Returns the states at the stops, shape (len(stops), 2, N).
    """
    y = np.array(y0, dtype=float)
    out = np.empty((len(stops),) + y.shape)
    out[0] = y
    s = np.full(y.shape[1], float(stops[0]))
    f = np.array(rhs(s, y))
    h = _initial_step(rhs, s, y, f, np)
    rejected = np.zeros(s.size, dtype=bool)
    for j in range(1, len(stops)):
        end = float(stops[j])
        live = np.flatnonzero(s < end)
        while live.size:
            ss, ys, hs = s[live], y[:, live], h[live]
            underflow = hs < 16.0 * np.spacing(ss)
            if underflow.any():
                i = int(np.argmax(underflow))
                raise _underflow(hs[i], ss[i], ys[:, i])
            ok, s_new, y_new, f_new, h_next = _attempt(
                rhs, end, ss, ys, f[:, live], hs, rejected[live], np)
            h[live] = h_next
            rejected[live] = ~ok
            done = live[ok]
            s[done] = s_new[ok]
            for i in (0, 1):
                y[i, done] = y_new[i][ok]
                f[i, done] = f_new[i][ok]
            live = live[s[live] < end]
        out[j] = y
    return out


def _dopri5_column(rhs, y0: tuple[float, float], stops: Sequence[float]) -> np.ndarray:
    """``_dopri5`` for one column on floats: rhs(s, (r1, r2)) returns a pair of floats.

    Returns the states at the stops, shape (len(stops), 2), equal bit for
    bit to the column ``_dopri5`` computes.
    """
    y = y0
    out = [y]
    s = float(stops[0])
    f = rhs(s, y)
    h = _initial_step(rhs, s, y, f, _FLOATS)
    rejected = False
    for end in stops[1:]:
        end = float(end)
        while s < end:
            if h < 16.0 * math.ulp(s):    # math.ulp(s) == np.spacing(s) for s >= 0
                raise _underflow(h, s, y)
            ok, s_new, y_new, f_new, h = _attempt(rhs, end, s, y, f, h, rejected, _FLOATS)
            rejected = not ok
            if ok:
                s, y, f = s_new, y_new, f_new
        out.append(y)
    return np.array(out)


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
               weight: bool = True) -> np.ndarray:
    """(r1, r2) at each stop for each level, shape (len(stops), 2, len(levels)).

    The one function that steps the ODE: every level is validated, and
    fewer than ``BATCH_MIN`` levels run one by one on floats, more in one
    numpy batch.  ``weight`` selects the denominator that carries mu'.
    """
    for t in levels:
        _validate_t(cfg, t)
    if len(levels) < BATCH_MIN:
        columns = [_dopri5_column(lambda s, y: _field(cfg, weight, s, y, _FLOATS),
                                  initial_condition(t), stops) for t in levels]
        return np.stack(columns, axis=2)
    y0 = np.array([initial_condition(t) for t in levels]).T
    return _dopri5(lambda s, y: _field(cfg, weight, s, y, np), y0, stops)


def integrate(cfg: ModelConfig, t: float, s_max: float) -> dict[str, Trajectory]:
    """Integrate the transport ODE from s = 0 to s = s_max at level t.

    Both denominator variants are stepped; the result maps "weighted" and
    "unweighted" to their trajectories.  The stepper lands on each of
    ``TRAJECTORY_SAMPLES`` evenly spaced values of s.
    """
    if s_max < 0 or s_max > 1:
        raise ValueError(f"s_max must lie in [0, 1], got {s_max}")
    grid = np.linspace(0.0, s_max, TRAJECTORY_SAMPLES if s_max > 0 else 1)
    ys = np.concatenate([_transport(cfg, [t], grid, weight) for weight in (True, False)],
                        axis=2)
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
    if step <= STENCIL_FLOOR:
        raise DomainError(
            f"t = {t} too close to the critical value t = 0 for a central stencil"
        )
    if t > 0:
        step = min(step, 0.5 * (cfg.disk2_radius ** 2 - t))
    else:
        step = min(step, 0.5 * (t + cfg.disk1_radius ** 2))
    if step <= STENCIL_FLOOR:
        raise DomainError(
            f"t = {t} too close to the fiber-coordinate boundary for a central stencil"
        )
    return step


def _validate_s0(cfg: ModelConfig, s0: float) -> None:
    lo, hi = cfg.s0_range
    if not lo < s0 <= hi:
        raise DomainError(
            f"s0 = {s0} outside ({lo!r}, {hi!r}]: the limit stencil needs s0/64 above "
            f"{STENCIL_FLOOR:g} and its arcs inside the small-t regime"
        )


def monodromy_profile(
    cfg: ModelConfig,
    s0: float,
    t_grid: Sequence[float],
) -> MonodromyProfile:
    """Angle profile R, its derivative, and the cutoff-corrected derivative.

    Three levels per grid label: the label itself and a central stencil
    t +/- step with step = min(|t|/8, 1e-3), shrunk near the domain ends.
    All 3C levels are integrated to s0 in one ``_transport`` call.  The
    grid must avoid the critical value 0.
    """
    _validate_s0(cfg, s0)
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
    leaves a cubic remainder well below the 1e-3 acceptance window.  s0
    must lie in ``cfg.s0_range``, where every stencil level stays in the
    small-t regime.
    """
    prof = monodromy_profile(cfg, s0, [s0 / 8.0, s0 / 4.0, -s0 / 8.0, -s0 / 4.0])
    plus = 2.0 * prof.dR[0] - prof.dR[1]
    minus = 2.0 * prof.dR[2] - prof.dR[3]
    return float(plus), float(minus)
