"""Profile functions for the boundary open book and their verification.

Three constructions live here, each a concrete realization of a pair
of plateau conditions joined by a polynomial blend:

  * ContactProfile: a plane curve r -> (f(r), g(r)) with f = C0 and
    g = C1 r^2 near 0, and f = e^(1-r), g = K past r = 1.  The contact
    condition for the associated 1-form f*lambda + g*dphi reduces to
    positivity of f^(n-1) (f g' - f' g), so the curve must never be
    parallel to its own tangent.
  * CornerCurve: the corner-rounding arc from (eps, 1-eps) to (-eps, 1),
    monotone in both coordinates.
  * BaseProfile: a radial weight h(s) with h = K s^2 near 0 and
    h = K e^(s-1) near 1, strictly increasing away from 0.

The blends are Hermite polynomials (quintic where two derivatives must
match, cubic where one does).  The plateau bullets pin endpoint values
and derivatives but not the shape in between; the realization here is
one admissible representative, and every strict inequality is verified
on a sampling grid rather than assumed.

Every profile function takes and returns Python floats, and the
verifiers loop over plain lists, so the layer needs nothing beyond the
standard library.  Each curve has one evaluator, which picks a point's
piece once and returns its values and slopes together
(``point_and_tangent``, ``h_and_slope``); callers index the tuple for a
single value.
"""

from __future__ import annotations

import math
import sys

from .config import DEFAULT_CONFIG, DomainError
from .report import SuiteResult, cell, config_dict, float_rows, pass_fail, result_row, timed

# Mapping-cylinder Hamiltonian value held constant near the boundary.
BOUNDARY_HAMILTONIAN = 2.0 * math.pi

# Sample points of the profile's, the corner curve's and the base profile's
# sampled checks.
PROFILE_SAMPLES = 10_000
CORNER_SAMPLES = BASE_SAMPLES = 2_000


# ---------------------------------------------------------------------------
# Hermite blends


def _quintic_basis(tau: float) -> tuple[float, ...]:
    """The six quintic Hermite basis values at tau in [0, 1], then their six tau-slopes."""
    t2 = tau * tau
    t3 = t2 * tau
    t4 = t3 * tau
    t5 = t4 * tau
    return (1.0 - 10.0 * t3 + 15.0 * t4 - 6.0 * t5,
            tau - 6.0 * t3 + 8.0 * t4 - 3.0 * t5,
            0.5 * (t2 - 3.0 * t3 + 3.0 * t4 - t5),
            10.0 * t3 - 15.0 * t4 + 6.0 * t5,
            -4.0 * t3 + 7.0 * t4 - 3.0 * t5,
            0.5 * (t3 - 2.0 * t4 + t5),
            -30.0 * t2 + 60.0 * t3 - 30.0 * t4,
            1.0 - 18.0 * t2 + 32.0 * t3 - 15.0 * t4,
            0.5 * (2.0 * tau - 9.0 * t2 + 12.0 * t3 - 5.0 * t4),
            30.0 * t2 - 60.0 * t3 + 30.0 * t4,
            -12.0 * t2 + 28.0 * t3 - 15.0 * t4,
            0.5 * (3.0 * t2 - 8.0 * t3 + 5.0 * t4))


def _quintic(basis: tuple[float, ...], p0: float, m0: float, s0: float,
             p1: float, m1: float, s1: float, w: float) -> tuple[float, float]:
    """Quintic Hermite value and slope: endpoint values, slopes, curvatures given.

    ``basis`` is ``_quintic_basis(tau)``, so two blends over the same tau
    share one basis.  Slopes and curvatures, the returned slope included,
    are with respect to the original variable, over an interval of width w.
    """
    h00, h10, h20, h01, h11, h21, d00, d10, d20, d01, d11, d21 = basis
    value = (p0 * h00 + w * m0 * h10 + w * w * s0 * h20
             + p1 * h01 + w * m1 * h11 + w * w * s1 * h21)
    dtau = (p0 * d00 + w * m0 * d10 + w * w * s0 * d20
            + p1 * d01 + w * m1 * d11 + w * w * s1 * d21)
    return value, dtau / w


def _cubic(tau: float, p0: float, m0: float, p1: float, m1: float,
           w: float) -> tuple[float, float]:
    """Cubic Hermite value and slope, as ``_quintic`` with slopes alone given."""
    t2 = tau * tau
    t3 = t2 * tau
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + tau
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    d00 = 6.0 * t2 - 6.0 * tau
    d10 = 3.0 * t2 - 4.0 * tau + 1.0
    d01 = -6.0 * t2 + 6.0 * tau
    d11 = 3.0 * t2 - 2.0 * tau
    return (p0 * h00 + w * m0 * h10 + p1 * h01 + w * m1 * h11,
            (p0 * d00 + w * m0 * d10 + p1 * d01 + w * m1 * d11) / w)


def _check_within(name: str, x: float, lo: float, hi: float) -> None:
    if not lo <= x <= hi:
        raise ValueError(f"{name}={x} outside [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# contact profile


class ContactProfile:
    """Plane profile curve with exact plateaus and a C2 quintic blend.

    Domain of r is [0, 1 + eps].  The blend occupies (eps/2, 1) and
    matches value, slope, and curvature of both plateaus, so f and g
    are C2 throughout.
    """

    __slots__ = ("c0", "c1", "k", "eps")

    def __init__(self, c0: float, c1: float, k: float, eps: float) -> None:
        self.c0 = c0
        self.c1 = c1
        self.k = k
        self.eps = eps

    @property
    def r_max(self) -> float:
        return 1.0 + self.eps

    def point_and_tangent(self, r: float) -> tuple[float, float, float, float]:
        """f, g, f' and g' at r."""
        _check_within("r", r, 0.0, self.r_max)
        a = self.eps / 2.0
        if r <= a:
            return self.c0, self.c1 * r * r, 0.0, 2.0 * self.c1 * r
        if r >= 1.0:
            e = math.exp(1.0 - r)
            return e, self.k, -e, 0.0
        basis = _quintic_basis((r - a) / (1.0 - a))
        f, fp = _quintic(basis, self.c0, 0.0, 0.0, 1.0, -1.0, 1.0, 1.0 - a)
        g, gp = _quintic(basis, self.c1 * a * a, 2.0 * self.c1 * a, 2.0 * self.c1,
                         self.k, 0.0, 0.0, 1.0 - a)
        return f, g, fp, gp

    def params(self) -> dict[str, float]:
        return {"c0": self.c0, "c1": self.c1, "k": self.k, "eps": self.eps}


def make_profile(c0: float = 2.0, c1: float = 1.0, k: float = 1.0,
                 eps: float = 0.1) -> ContactProfile:
    """Build the profile after validating the plateau constants."""
    if not c0 > 1.0:
        raise ValueError(f"c0 must exceed 1, got {c0}")
    if not c1 > 0.0:
        raise ValueError(f"c1 must be positive, got {c1}")
    if not k > 0.0:
        raise ValueError(f"k must be positive, got {k}")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    return ContactProfile(c0=c0, c1=c1, k=k, eps=eps)


def verify_profile(profile: ContactProfile, n: int) -> dict:
    """Sample f^(n-1) (f g' - f' g) on (0, 1+eps]: the report's ``profile`` entry.

    The PROFILE_SAMPLES points are evenly spaced and end at r_max.  The
    argmin is the first sample that attains the minimum.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    grid = PROFILE_SAMPLES
    r_max, best, argmin = profile.r_max, math.inf, 0.0
    for i in range(1, grid + 1):
        r = r_max * i / grid if i < grid else r_max    # r_max * i / grid can round past it
        f, g, fp, gp = profile.point_and_tangent(r)
        try:
            value = f ** (n - 1) * (f * gp - fp * g)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(f"n = {n} overflows f^(n-1) (f g' - f' g) in floating point")
        if value < best:
            best, argmin = value, r
    return {
        "n": n,
        "grid": grid,
        "min_value": best,
        "argmin": argmin,
        "passed": best > 0.0,
        "params": profile.params(),
        "notes": ["blend regularity: C2 quintic joins, not C-infinity"],
    }


def profile_samples(profile: ContactProfile
                    ) -> tuple[list[float], list[float], list[float], list[float]]:
    """r, f, g and the determinant at 513 evenly spaced r from 0 to 1+eps."""
    rs = [profile.r_max * i / 512 for i in range(513)]
    points = [profile.point_and_tangent(r) for r in rs]
    return (rs, [f for f, _, _, _ in points], [g for _, g, _, _ in points],
            [f * gp - fp * g for f, g, fp, gp in points])


# ---------------------------------------------------------------------------
# corner curve


class CornerCurve:
    """Corner-rounding arc r -> (f, g) on [-eps, eps], C1 at the joins.

    Straight pieces (eps, 1+r) for r <= -eps/2 and (-r, 1) for r >= 0;
    a cubic Hermite bridge in between with f strictly falling and g
    strictly rising.
    """

    __slots__ = ("eps",)

    def __init__(self, eps: float) -> None:
        self.eps = eps

    def point_and_tangent(self, r: float) -> tuple[float, float, float, float]:
        """f, g, f' and g' at r."""
        _check_within("r", r, -self.eps, self.eps)
        w = self.eps / 2.0
        if r <= -w:
            return self.eps, 1.0 + r, 0.0, 1.0
        if r >= 0.0:
            return -r, 1.0, -1.0, 0.0
        tau = (r + w) / w
        f, fp = _cubic(tau, self.eps, 0.0, 0.0, -1.0, w)
        # g - 1, so that g' is not the difference of two values near 1
        # divided by w, which loses its sign once eps nears 1e-16
        dg, gp = _cubic(tau, -w, 1.0, 0.0, 0.0, w)
        return f, 1.0 + dg, fp, gp


def make_corner_curve(eps: float) -> tuple[CornerCurve, dict]:
    """Build the corner arc and verify its three bullet conditions (the ``corner`` entry).

    Endpoint identities are checked exactly; the strict interior signs
    and the global monotonicity are sampled at CORNER_SAMPLES points.  eps must
    be a normal float: a subnormal eps/2 has too few bits to place the
    bridge samples strictly inside the bridge.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    if eps < sys.float_info.min:
        raise ValueError(f"eps = {eps} is subnormal; the corner curve needs a normal float")
    curve = CornerCurve(eps=eps)

    endpoints_exact = (
        curve.point_and_tangent(-eps)[:2] == (eps, 1.0 - eps)
        and curve.point_and_tangent(eps)[:2] == (-eps, 1.0)
        and curve.point_and_tangent(0.0)[:2] == (0.0, 1.0)
    )

    samples = CORNER_SAMPLES
    half = eps / 2.0
    bridge = [curve.point_and_tangent(-half + half * i / samples) for i in range(1, samples)]
    interior = all(fp < 0.0 and gp > 0.0 for _, _, fp, gp in bridge)

    # the last point is eps itself: -eps + 2 eps can round past it
    rs = [-eps + 2.0 * eps * i / samples for i in range(samples)] + [eps]
    points = [curve.point_and_tangent(r) for r in rs]
    f_noninc = all(b[0] <= a[0] + 1e-15 for a, b in zip(points, points[1:]))
    g_nondec = all(b[1] >= a[1] - 1e-15 for a, b in zip(points, points[1:]))

    # One-sided limits of the bridge at tau = 0, 1 against the plateau
    # values and slopes; all closed forms, so 1e-12 is generous.
    f_args, g_args = (eps, 0.0, 0.0, -1.0, half), (1.0 - half, 1.0, 1.0, 0.0, half)
    bridge_ends = (_cubic(0.0, *f_args) + _cubic(1.0, *f_args)
                   + _cubic(0.0, *g_args) + _cubic(1.0, *g_args))
    plateau_ends = (eps, 0.0, 0.0, -1.0, 1.0 - half, 1.0, 1.0, 0.0)
    joins = max(abs(got - want) for got, want in zip(bridge_ends, plateau_ends)) < 1e-12

    report = {
        "eps": eps,
        "samples": samples,
        "endpoints_exact": endpoints_exact,
        "interior_signs_ok": interior,
        "f_nonincreasing": f_noninc,
        "g_nondecreasing": g_nondec,
        "joins_c1": joins,
        "passed": endpoints_exact and interior and f_noninc and g_nondec and joins,
    }
    return curve, report


# ---------------------------------------------------------------------------
# base profile


class BaseProfile:
    """Radial weight h(s) on [0, 1]: K s^2 near 0, K e^(s-1) near 1.

    The quintic bridge on (eps, 1-eps) matches two derivatives at both
    ends.
    """

    __slots__ = ("k", "eps")

    def __init__(self, k: float, eps: float) -> None:
        self.k = k
        self.eps = eps

    def h_and_slope(self, s: float) -> tuple[float, float]:
        """h and h' at s."""
        _check_within("s", s, 0.0, 1.0)
        if s <= self.eps:
            return self.k * s * s, 2.0 * self.k * s
        if s >= 1.0 - self.eps:
            e = self.k * math.exp(s - 1.0)
            return e, e
        e = self.k * math.exp(-self.eps)
        return _quintic(_quintic_basis((s - self.eps) / (1.0 - 2.0 * self.eps)),
                        self.k * self.eps ** 2,
                        2.0 * self.k * self.eps, 2.0 * self.k, e, e, e, 1.0 - 2.0 * self.eps)


def make_base_profile(k: float = 1.0, eps: float = 0.1) -> BaseProfile:
    if not k > 0.0:
        raise ValueError(f"k must be positive, got {k}")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    return BaseProfile(k=k, eps=eps)


def verify_base_profile(bp: BaseProfile) -> dict:
    """Check h(0) = 0, the two plateau formulas, and h' > 0 off the origin (the ``base`` entry)."""
    h = bp.h_and_slope
    zero = h(0.0)[0] == 0.0

    # the last tenth is eps itself: eps * 10 / 10 can round past it, into the bridge
    tenths = [bp.eps * i / 10.0 for i in range(1, 10)] + [bp.eps]
    plateaus = (all(h(s)[0] == bp.k * s * s for s in tenths)
                and all(h(s)[0] == bp.k * math.exp(s - 1.0)
                        for s in (1.0 - bp.eps + x for x in tenths)))

    increasing = all(h(i / BASE_SAMPLES)[1] > 0.0 for i in range(1, BASE_SAMPLES + 1))
    return {
        "k": bp.k,
        "eps": bp.eps,
        "samples": BASE_SAMPLES,
        "zero_at_origin": zero,
        "plateaus_exact": plateaus,
        "increasing": increasing,
        "passed": zero and plateaus and increasing,
    }


# ---------------------------------------------------------------------------
# the contact-check suite


def suite(n: int) -> SuiteResult:
    """contact-check: the profile at ``n``, the corner curve and the base profile."""
    timing: dict[str, float] = {}
    profile = make_profile()
    prof_report = timed(timing, "profile_ms", verify_profile, profile, n=n)
    _, corner_report = timed(timing, "corner_ms", make_corner_curve, profile.eps)
    base_report = timed(timing, "base_ms", verify_base_profile, make_base_profile())
    samples = timed(timing, "samples_ms", profile_samples, profile)

    gates = [
        (prof_report["min_value"], 0.0, ">", f"profile minimum {prof_report['min_value']} at "
                                             f"r={prof_report['argmin']} is not positive"),
        (corner_report["passed"], True, "==", "corner curve bullet verification failed"),
        (base_report["passed"], True, "==", "base profile verification failed"),
    ]

    report = {
        "config": config_dict(DEFAULT_CONFIG, n=n),
        "profile": prof_report,
        "corner": corner_report,
        "base": base_report,
        "boundary_hamiltonian": BOUNDARY_HAMILTONIAN,
    }

    csv_rows = [["r", "f", "g", "determinant"]]
    csv_rows += float_rows(*samples)
    table_rows = [
        ["check", "outcome", "detail"],
        ["profile min", cell(prof_report["min_value"]),
         f"at r={cell(prof_report['argmin'])}"],
        ["corner", pass_fail(corner_report["passed"]), ""],
        ["base", pass_fail(base_report["passed"]), ""],
        result_row(gates, 3),
    ]
    return SuiteResult(report, gates, csv_rows, table_rows, timing)
