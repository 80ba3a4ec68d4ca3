"""Model configuration and the concrete smooth profiles built from it.

Every cutoff or interpolation profile in the package is realized from one
clamped quintic smoothstep, so each is C^2 with an explicitly known first
derivative.  The symbolic identity layer never sees these numbers; they
only feed the numeric positivity grids and the transport integrator.

Every profile works on Python floats alone, and so does ``linspace``, the
one evenly spaced grid of the package (the ``--grid`` levels, the
trajectory samples and the positivity grid's axes); this module imports
nothing beyond the standard library.
"""

from __future__ import annotations

import math


# The transport denominator counts as vanished below the singular floor.  A
# level t starts it at 2|t|, so this floor alone bounds every stepped level
# (|t| > SINGULAR_FLOOR / 2) and, through the limit levels, the s0 range.
SINGULAR_FLOOR = 1e-12
# Largest --grid COUNT, checked before the grid is allocated; timings in README.
MAX_GRID_COUNT = 10_000


class DomainError(ValueError):
    """Input outside the domain the README and ``--help`` document.

    The command line reports it as a usage error (exit 2); any other
    exception that reaches it is an internal failure (exit 3).
    """


def linspace(lo: float, hi: float, num: int) -> list[float]:
    """``num`` evenly spaced floats from lo to hi, equal bit for bit to ``np.linspace``.

    Point i is i * step + lo with step = (hi - lo) / (num - 1), or
    (i / (num - 1)) * (hi - lo) + lo where that step rounds to 0; the last
    point is hi itself, and a single point is lo.
    """
    div = num - 1
    delta = hi - lo
    if div <= 0:
        return [0.0 * delta + lo] * num
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + lo for i in range(num)]
    else:
        points = [i * step + lo for i in range(num)]
    points[-1] = hi
    return points


def smoothstep_and_slope(x: float) -> tuple[float, float]:
    """The clamped quintic step S and its slope S'.

    S is 0 below 0, 1 above 1 and 6x^5 - 15x^4 + 10x^3 between.  The
    clamped ends return the polynomial's own values at 0 and 1, both slopes
    +0.0; NaN passes to the polynomial.
    """
    if x >= 1.0:
        return 1.0, 0.0
    if x <= 0.0:
        return 0.0, 0.0
    s = x * x * x * (x * (6.0 * x - 15.0) + 10.0)
    d = x - 1.0
    # the polynomial rounds a few ulps above 1 just below x = 1
    return min(s, 1.0), 30.0 * x * x * d * d


class ModelConfig:
    """Geometry parameters shared by the model forms and the transport ODE.

    Attributes:
        n: half-dimension parameter; the ambient model has dimension 2n+2.
        collar_width: radius below which the radial reparametrization is the
            identity; also the base scale for every other cutoff.
        ramp_lo: the interpolation profile vanishes for squared radius below
            this value.
        ramp_hi: ... and equals 1 above this value.
        disk1_radius: outer radius of the first disk factor.
        disk2_radius: outer radius of the second disk factor.

    A validated config refuses assignment: the positivity grid's proof
    relies on its fields as checked.
    """

    # the six parameters, in constructor order; the reports print these
    FIELDS = ("n", "collar_width", "ramp_lo", "ramp_hi", "disk1_radius", "disk2_radius")
    __slots__ = FIELDS

    def __init__(self, n: int = 2, collar_width: float = 0.05, ramp_lo: float = 0.1,
                 ramp_hi: float = 0.2, disk1_radius: float = 0.5,
                 disk2_radius: float = 10.0) -> None:
        values = (n, collar_width, ramp_lo, ramp_hi, disk1_radius, disk2_radius)
        for name, value in zip(self.FIELDS, values):
            object.__setattr__(self, name, value)
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not (0.0 < self.collar_width < self.ramp_lo < self.ramp_hi < 1.0):
            raise ValueError(
                "need 0 < collar_width < ramp_lo < ramp_hi < 1, got "
                f"{self.collar_width}, {self.ramp_lo}, {self.ramp_hi}"
            )
        if not (self.collar_width < self.mu_flat_radius and self.disk1_radius < 1.0):
            raise ValueError(
                "disk1_radius must lie in (1.5 collar_width, 1) so that mu is the "
                f"identity up to collar_width and flat from mu_flat_radius, got "
                f"{self.disk1_radius} with collar_width {self.collar_width}"
            )
        # level_range and the positivity grid square disk2_radius
        if not (0.0 < self.disk2_radius
                and math.isfinite(self.disk2_radius * self.disk2_radius)):
            raise ValueError("disk2_radius must be finite and positive, with a finite "
                             f"square, got {self.disk2_radius}")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ModelConfig is read-only: cannot assign {name!r}")

    def __repr__(self) -> str:
        return f"ModelConfig({', '.join(f'{k}={getattr(self, k)!r}' for k in self.FIELDS)})"

    # -- interpolation profile u and its derivative, as functions of the
    #    squared total radius

    def ramp_and_slope(self, sq: float) -> tuple[float, float]:
        """u and u': 0 below ramp_lo, 1 above ramp_hi, monotone C^2 in between."""
        w = self.ramp_hi - self.ramp_lo
        s, ds = smoothstep_and_slope((sq - self.ramp_lo) / w)
        return s, ds / w

    # -- radial reparametrization mu: identity near 0, constant 1 before
    #    disk1_radius, nondecreasing throughout

    @property
    def mu_flat_radius(self) -> float:
        """Radius from which mu is identically 1."""
        return self.disk1_radius - self.collar_width / 2.0

    def mu_and_slope(self, radius: float) -> tuple[float, float]:
        """mu and mu': the blend radius + (1 - radius) S over the clamped smoothstep S.

        S = 0 up to collar_width, so mu is exactly the radius there; S = 1
        from mu_flat_radius on, and radius + (1 - radius) rounds to exactly
        1 for every radius in [0, 1].
        """
        w = self.mu_flat_radius - self.collar_width
        s, ds = smoothstep_and_slope((radius - self.collar_width) / w)
        rest = 1.0 - radius
        # S <= 1 by its clamp, S' >= 0 and radius < 1, so mu' >= 0
        return radius + rest * s, (1.0 - s) + rest * ds / w

    # -- levels t of the fibration: their documented range, and the
    #    interval [cutoff_lo, cutoff_hi] where the monodromy cutoff rises

    @property
    def level_range(self) -> tuple[float, float]:
        """The documented range [-disk1_radius^2, disk2_radius^2] of levels t."""
        return -self.disk1_radius ** 2, self.disk2_radius ** 2

    @property
    def s0_range(self) -> tuple[float, float]:
        """The documented range (lo, hi] of the arc length s0 of the angle profile.

        The limits of R' at 0 are read at the levels +-s0/8 and +-s0/4.
        lo = 4 SINGULAR_FLOOR keeps the smallest of them, s0/8, above
        SINGULAR_FLOOR / 2, so the transport denominator starts there at
        2|t| = s0/4, above the singular floor.  At arc length s0 on level t
        the small-t closed form puts r1^2 at (hypot(2 s0, t) - t) / 2 and
        r1^2 + r2^2 at hypot(2 s0, t).  hi keeps every level up to the
        reach |t| = s0/4 inside the form's regime, r1 <= collar_width and
        r1^2 + r2^2 <= ramp_lo, so the limits there are the regime's own
        values; just past hi the minus limit moves.
        """
        reach = 1.0 / 4.0
        spread = math.hypot(2.0, reach)
        hi = min(2.0 * self.collar_width ** 2 / (spread + reach), self.ramp_lo / spread)
        return 4.0 * SINGULAR_FLOOR, hi

    @property
    def cutoff_lo(self) -> float:
        return 0.6 * self.disk2_radius ** 2

    @property
    def cutoff_hi(self) -> float:
        return 0.9 * self.disk2_radius ** 2


DEFAULT_CONFIG = ModelConfig()
