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

Every profile function accepts a float or a numpy array.  Arrays are
filled piece by piece through masks, and exponentials and powers go
through libm either way, so a value sampled on a grid has the same bits
as the same value computed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DomainError, FloatOrArray

# Mapping-cylinder Hamiltonian value held constant near the boundary.
BOUNDARY_HAMILTONIAN = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Hermite blends


def _quintic(tau: float, p0: float, m0: float, s0: float,
             p1: float, m1: float, s1: float, w: float) -> float:
    """Quintic Hermite value: endpoint values, slopes, curvatures given.

    Slopes and curvatures are with respect to the original variable,
    over an interval of width w; tau runs over [0, 1].
    """
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
    return (p0 * h00 + w * m0 * h10 + w * w * s0 * h20
            + p1 * h01 + w * m1 * h11 + w * w * s1 * h21)


def _quintic_d(tau: float, p0: float, m0: float, s0: float,
               p1: float, m1: float, s1: float, w: float) -> float:
    """Derivative of _quintic with respect to the original variable."""
    t2 = tau * tau
    t3 = t2 * tau
    t4 = t3 * tau
    d00 = -30.0 * t2 + 60.0 * t3 - 30.0 * t4
    d10 = 1.0 - 18.0 * t2 + 32.0 * t3 - 15.0 * t4
    d20 = 0.5 * (2.0 * tau - 9.0 * t2 + 12.0 * t3 - 5.0 * t4)
    d01 = 30.0 * t2 - 60.0 * t3 + 30.0 * t4
    d11 = -12.0 * t2 + 28.0 * t3 - 15.0 * t4
    d21 = 0.5 * (3.0 * t2 - 8.0 * t3 + 5.0 * t4)
    dtau = (p0 * d00 + w * m0 * d10 + w * w * s0 * d20
            + p1 * d01 + w * m1 * d11 + w * w * s1 * d21)
    return dtau / w


def _cubic(tau: float, p0: float, m0: float, p1: float, m1: float, w: float) -> float:
    t2 = tau * tau
    t3 = t2 * tau
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + tau
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    return p0 * h00 + w * m0 * h10 + p1 * h01 + w * m1 * h11


def _cubic_d(tau: float, p0: float, m0: float, p1: float, m1: float, w: float) -> float:
    t2 = tau * tau
    d00 = 6.0 * t2 - 6.0 * tau
    d10 = 3.0 * t2 - 4.0 * tau + 1.0
    d01 = -6.0 * t2 + 6.0 * tau
    d11 = 3.0 * t2 - 2.0 * tau
    return (p0 * d00 + w * m0 * d10 + p1 * d01 + w * m1 * d11) / w


def _libm(fn, x: FloatOrArray) -> FloatOrArray:
    """fn(x) for a float, fn of each element for an array.

    numpy's vectorized exp and power round differently from libm at a few
    points in a thousand (this is what ``math.exp`` and ``**`` use), which
    would make a grid value differ from the same value computed alone.
    """
    if isinstance(x, np.ndarray):
        return np.array([fn(v) for v in x.tolist()], dtype=float).reshape(x.shape)
    return fn(x)


def _pieces(x: FloatOrArray, lo: float, hi: float, below, between, above) -> FloatOrArray:
    """below(x) for x <= lo, above(x) for x >= hi, between(x) otherwise.

    A float picks its piece by comparison; an array is filled through one
    mask per piece, each piece evaluated only where it applies.  A piece
    may return a constant.
    """
    if not isinstance(x, np.ndarray):
        return below(x) if x <= lo else above(x) if x >= hi else between(x)
    out = np.empty(x.shape)
    low, high = x <= lo, x >= hi
    for mask, piece in ((low, below), (high, above), (~(low | high), between)):
        out[mask] = piece(x[mask])
    return out


def _check_within(name: str, x: FloatOrArray, lo: float, hi: float) -> None:
    least, most = np.min(x), np.max(x)
    if not (lo <= least and most <= hi):
        bad = most if lo <= least else least
        raise ValueError(f"{name}={bad} outside [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# contact profile


@dataclass(frozen=True)
class ContactProfile:
    """Plane profile curve with exact plateaus and a C2 quintic blend.

    Domain of r is [0, 1 + eps].  The blend occupies (eps/2, 1) and
    matches value, slope, and curvature of both plateaus, so f and g
    are C2 throughout.
    """

    c0: float
    c1: float
    k: float
    eps: float

    @property
    def r_max(self) -> float:
        return 1.0 + self.eps

    def _tau(self, r: FloatOrArray) -> FloatOrArray:
        a = self.eps / 2.0
        return (r - a) / (1.0 - a)

    def _by_piece(self, r: FloatOrArray, below, between, above) -> FloatOrArray:
        _check_within("r", r, 0.0, self.r_max)
        return _pieces(r, self.eps / 2.0, 1.0, below, between, above)

    def f(self, r: FloatOrArray) -> FloatOrArray:
        w = 1.0 - self.eps / 2.0
        return self._by_piece(
            r,
            lambda r: self.c0,
            lambda r: _quintic(self._tau(r), self.c0, 0.0, 0.0, 1.0, -1.0, 1.0, w),
            lambda r: _libm(math.exp, 1.0 - r),
        )

    def f_prime(self, r: FloatOrArray) -> FloatOrArray:
        w = 1.0 - self.eps / 2.0
        return self._by_piece(
            r,
            lambda r: 0.0,
            lambda r: _quintic_d(self._tau(r), self.c0, 0.0, 0.0, 1.0, -1.0, 1.0, w),
            lambda r: -_libm(math.exp, 1.0 - r),
        )

    def g(self, r: FloatOrArray) -> FloatOrArray:
        a = self.eps / 2.0
        return self._by_piece(
            r,
            lambda r: self.c1 * r * r,
            lambda r: _quintic(self._tau(r), self.c1 * a * a, 2.0 * self.c1 * a,
                               2.0 * self.c1, self.k, 0.0, 0.0, 1.0 - a),
            lambda r: self.k,
        )

    def g_prime(self, r: FloatOrArray) -> FloatOrArray:
        a = self.eps / 2.0
        return self._by_piece(
            r,
            lambda r: 2.0 * self.c1 * r,
            lambda r: _quintic_d(self._tau(r), self.c1 * a * a, 2.0 * self.c1 * a,
                                 2.0 * self.c1, self.k, 0.0, 0.0, 1.0 - a),
            lambda r: 0.0,
        )

    def determinant(self, r: FloatOrArray) -> FloatOrArray:
        """f g' - f' g: positive exactly when the curve misses its tangent."""
        return self.f(r) * self.g_prime(r) - self.f_prime(r) * self.g(r)

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


@dataclass(frozen=True)
class ProfileReport:
    """Grid minimum of f^(n-1) (f g' - f' g) over (0, 1+eps]."""

    n: int
    grid: int
    min_value: float
    argmin: float
    passed: bool
    params: dict[str, float] = field(default_factory=dict)
    notes: tuple[str, ...] = ()


def verify_profile(profile: ContactProfile, n: int = 2, grid: int = 10_000) -> ProfileReport:
    """Sample the contact positivity quantity on (0, 1+eps].

    Works on anything exposing f, f_prime, g, g_prime, and r_max, so a
    deliberately degenerate profile can be fed in to watch it fail.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    r = profile.r_max * np.arange(1, grid + 1) / grid
    try:
        with np.errstate(over="raise"):
            fv = profile.f(r)
            values = _libm(lambda v: v ** (n - 1), fv) * (
                fv * profile.g_prime(r) - profile.f_prime(r) * profile.g(r))
    except (OverflowError, FloatingPointError) as exc:
        raise DomainError(
            f"n = {n} overflows f^(n-1) (f g' - f' g) in floating point"
        ) from exc
    i = int(np.argmin(values))
    best = float(values[i])
    params = profile.params() if hasattr(profile, "params") else {}
    return ProfileReport(
        n=n,
        grid=grid,
        min_value=best,
        argmin=float(r[i]),
        passed=best > 0.0,
        params=params,
        notes=("blend regularity: C2 quintic joins, not C-infinity",),
    )


def profile_samples(profile: ContactProfile
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """r, f, g and the determinant at 513 evenly spaced r from 0 to 1+eps."""
    r = profile.r_max * np.arange(513) / 512
    return r, profile.f(r), profile.g(r), profile.determinant(r)


# ---------------------------------------------------------------------------
# corner curve


@dataclass(frozen=True)
class CornerCurve:
    """Corner-rounding arc r -> (f, g) on [-eps, eps], C1 at the joins.

    Straight pieces (eps, 1+r) for r <= -eps/2 and (-r, 1) for r >= 0;
    a cubic Hermite bridge in between with f strictly falling and g
    strictly rising.
    """

    eps: float

    def _tau(self, r: FloatOrArray) -> FloatOrArray:
        w = self.eps / 2.0
        return (r + w) / w

    def _by_piece(self, r: FloatOrArray, below, between, above) -> FloatOrArray:
        _check_within("r", r, -self.eps, self.eps)
        return _pieces(r, -self.eps / 2.0, 0.0, below, between, above)

    def f(self, r: FloatOrArray) -> FloatOrArray:
        w = self.eps / 2.0
        return self._by_piece(
            r,
            lambda r: self.eps,
            lambda r: _cubic(self._tau(r), self.eps, 0.0, 0.0, -1.0, w),
            lambda r: -r,
        )

    def f_prime(self, r: FloatOrArray) -> FloatOrArray:
        w = self.eps / 2.0
        return self._by_piece(
            r,
            lambda r: 0.0,
            lambda r: _cubic_d(self._tau(r), self.eps, 0.0, 0.0, -1.0, w),
            lambda r: -1.0,
        )

    def g(self, r: FloatOrArray) -> FloatOrArray:
        w = self.eps / 2.0
        return self._by_piece(
            r,
            lambda r: 1.0 + r,
            lambda r: _cubic(self._tau(r), 1.0 - w, 1.0, 1.0, 0.0, w),
            lambda r: 1.0,
        )

    def g_prime(self, r: FloatOrArray) -> FloatOrArray:
        w = self.eps / 2.0
        return self._by_piece(
            r,
            lambda r: 1.0,
            lambda r: _cubic_d(self._tau(r), 1.0 - w, 1.0, 1.0, 0.0, w),
            lambda r: 0.0,
        )


@dataclass(frozen=True)
class CornerReport:
    eps: float
    samples: int
    endpoints_exact: bool
    interior_signs_ok: bool
    f_nonincreasing: bool
    g_nondecreasing: bool
    joins_c1: bool
    passed: bool


def make_corner_curve(eps: float, samples: int = 2_000) -> tuple[CornerCurve, CornerReport]:
    """Build the corner arc and verify its three bullet conditions.

    Endpoint identities are checked exactly; the strict interior signs
    and the global monotonicity are sampled (samples >= 1000).
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    if samples < 1_000:
        raise ValueError(f"need at least 1000 sample points, got {samples}")
    curve = CornerCurve(eps=eps)

    endpoints_exact = (
        curve.f(-eps) == eps
        and curve.g(-eps) == 1.0 - eps
        and curve.f(eps) == -eps
        and curve.g(eps) == 1.0
        and curve.f(0.0) == 0.0
        and curve.g(0.0) == 1.0
    )

    half = eps / 2.0
    r = -half + half * np.arange(1, samples) / samples
    interior = bool(np.all(curve.f_prime(r) < 0.0) and np.all(curve.g_prime(r) > 0.0))

    r = -eps + 2.0 * eps * np.arange(samples + 1) / samples
    fv, gv = curve.f(r), curve.g(r)
    f_noninc = bool(np.all(fv[1:] <= fv[:-1] + 1e-15))
    g_nondec = bool(np.all(gv[1:] >= gv[:-1] - 1e-15))

    # One-sided limits of the bridge at tau = 0, 1 against the plateau
    # values and slopes; all closed forms, so 1e-12 is generous.
    w = half
    join_residuals = (
        _cubic(0.0, eps, 0.0, 0.0, -1.0, w) - eps,
        _cubic(1.0, eps, 0.0, 0.0, -1.0, w) - 0.0,
        _cubic_d(0.0, eps, 0.0, 0.0, -1.0, w) - 0.0,
        _cubic_d(1.0, eps, 0.0, 0.0, -1.0, w) - (-1.0),
        _cubic(0.0, 1.0 - half, 1.0, 1.0, 0.0, w) - (1.0 - half),
        _cubic(1.0, 1.0 - half, 1.0, 1.0, 0.0, w) - 1.0,
        _cubic_d(0.0, 1.0 - half, 1.0, 1.0, 0.0, w) - 1.0,
        _cubic_d(1.0, 1.0 - half, 1.0, 1.0, 0.0, w) - 0.0,
    )
    joins = max(abs(v) for v in join_residuals) < 1e-12

    report = CornerReport(
        eps=eps,
        samples=samples,
        endpoints_exact=endpoints_exact,
        interior_signs_ok=interior,
        f_nonincreasing=f_noninc,
        g_nondecreasing=g_nondec,
        joins_c1=joins,
        passed=endpoints_exact and interior and f_noninc and g_nondec and joins,
    )
    return curve, report


# ---------------------------------------------------------------------------
# base profile


@dataclass(frozen=True)
class BaseProfile:
    """Radial weight h(s) on [0, 1]: K s^2 near 0, K e^(s-1) near 1.

    The quintic bridge on (eps, 1-eps) matches two derivatives at both
    ends.  The boundary Hamiltonian constant rides along for report
    embedding; nothing here recomputes it.
    """

    k: float
    eps: float
    boundary_hamiltonian: float = BOUNDARY_HAMILTONIAN

    def _by_piece(self, s: FloatOrArray, below, between, above) -> FloatOrArray:
        _check_within("s", s, 0.0, 1.0)
        return _pieces(s, self.eps, 1.0 - self.eps, below, between, above)

    def _tau(self, s: FloatOrArray) -> FloatOrArray:
        return (s - self.eps) / (1.0 - 2.0 * self.eps)

    def h(self, s: FloatOrArray) -> FloatOrArray:
        e = self.k * math.exp(-self.eps)
        return self._by_piece(
            s,
            lambda s: self.k * s * s,
            lambda s: _quintic(self._tau(s), self.k * self.eps ** 2, 2.0 * self.k * self.eps,
                               2.0 * self.k, e, e, e, 1.0 - 2.0 * self.eps),
            lambda s: self.k * _libm(math.exp, s - 1.0),
        )

    def h_prime(self, s: FloatOrArray) -> FloatOrArray:
        e = self.k * math.exp(-self.eps)
        return self._by_piece(
            s,
            lambda s: 2.0 * self.k * s,
            lambda s: _quintic_d(self._tau(s), self.k * self.eps ** 2, 2.0 * self.k * self.eps,
                                 2.0 * self.k, e, e, e, 1.0 - 2.0 * self.eps),
            lambda s: self.k * _libm(math.exp, s - 1.0),
        )


@dataclass(frozen=True)
class BaseReport:
    k: float
    eps: float
    samples: int
    zero_at_origin: bool
    plateaus_exact: bool
    increasing: bool
    passed: bool


def make_base_profile(k: float = 1.0, eps: float = 0.1) -> BaseProfile:
    if not k > 0.0:
        raise ValueError(f"k must be positive, got {k}")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    return BaseProfile(k=k, eps=eps)


def verify_base_profile(bp: BaseProfile, samples: int = 2_000) -> BaseReport:
    """Check h(0) = 0, the two plateau formulas, and h' > 0 off the origin."""
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    zero = bp.h(0.0) == 0.0

    tenths = bp.eps * np.arange(1, 11) / 10.0
    inner, outer = tenths, 1.0 - bp.eps + tenths
    plateaus = bool(np.all(bp.h(inner) == bp.k * inner * inner)
                    and np.all(bp.h(outer) == bp.k * _libm(math.exp, outer - 1.0)))

    increasing = bool(np.all(bp.h_prime(np.arange(1, samples + 1) / samples) > 0.0))
    return BaseReport(
        k=bp.k,
        eps=bp.eps,
        samples=samples,
        zero_at_origin=zero,
        plateaus_exact=plateaus,
        increasing=increasing,
        passed=zero and plateaus and increasing,
    )
