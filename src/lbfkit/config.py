"""Model configuration and the concrete smooth profiles built from it.

Every cutoff or interpolation profile in the package is realized from one
clamped quintic smoothstep, so each is C^2 with an explicitly known first
derivative.  The symbolic identity layer never sees these numbers; they
only feed the numeric positivity grids and the transport integrator.

Each profile is written once and accepts a float or a numpy array: the
argument is clamped to [0, 1] and the same polynomial runs either way, so
a value computed alone and the same value computed on a grid agree to the
last bit.  Floats keep float speed (the transport ODE evaluates profiles
one point at a time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A profile argument or value: one float, or a numpy array of them.
FloatOrArray = float | np.ndarray


class DomainError(ValueError):
    """Input outside the domain the README and ``--help`` document.

    The command line reports it as a usage error (exit 2); any other
    exception that reaches it is an internal failure (exit 3).
    """


def _clamp01(x: FloatOrArray) -> FloatOrArray:
    """x clamped to [0, 1]: ndarray.clip for arrays, a compare for floats."""
    if isinstance(x, np.ndarray):
        return x.clip(0.0, 1.0)
    return 0.0 if x <= 0.0 else 1.0 if x >= 1.0 else x


def smoothstep_and_slope(x: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray]:
    """The clamped quintic step S and its slope S'.

    S is 0 below 0, 1 above 1 and 6x^5 - 15x^4 + 10x^3 between.
    """
    x = _clamp01(x)
    s = x * x * x * (x * (6.0 * x - 15.0) + 10.0)
    # the polynomial rounds a few ulps above 1 just below x = 1
    s = np.minimum(s, 1.0) if isinstance(s, np.ndarray) else min(s, 1.0)
    d = x - 1.0
    return s, 30.0 * x * x * d * d


def smoothstep(x: FloatOrArray) -> FloatOrArray:
    return smoothstep_and_slope(x)[0]


@dataclass(frozen=True)
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
    """

    n: int = 2
    collar_width: float = 0.05
    ramp_lo: float = 0.1
    ramp_hi: float = 0.2
    disk1_radius: float = 0.5
    disk2_radius: float = 10.0

    def __post_init__(self) -> None:
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
        if self.disk2_radius <= 0.0:
            raise ValueError(f"disk2_radius must be positive, got {self.disk2_radius}")

    # -- interpolation profile u and its derivative, as functions of the
    #    squared total radius

    def ramp_and_slope(self, sq: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray]:
        """u and u': 0 below ramp_lo, 1 above ramp_hi, monotone C^2 in between."""
        w = self.ramp_hi - self.ramp_lo
        s, ds = smoothstep_and_slope((sq - self.ramp_lo) / w)
        return s, ds / w

    def ramp(self, sq: FloatOrArray) -> FloatOrArray:
        return self.ramp_and_slope(sq)[0]

    # -- radial reparametrization mu: identity near 0, constant 1 before
    #    disk1_radius, nondecreasing throughout

    @property
    def mu_flat_radius(self) -> float:
        """Radius from which mu is identically 1."""
        return self.disk1_radius - self.collar_width / 2.0

    def mu_and_slope(self, radius: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray]:
        """mu and mu': the blend radius + (1 - radius) S over the clamped smoothstep S.

        S = 0 up to collar_width, so mu is exactly the radius there; S = 1
        from mu_flat_radius on, and radius + (1 - radius) rounds to exactly
        1 for every radius in [0, 1].
        """
        lo, hi = self.collar_width, self.mu_flat_radius
        w = hi - lo
        s, ds = smoothstep_and_slope((radius - lo) / w)
        rest = 1.0 - radius
        # S <= 1 by its clamp, S' >= 0 and radius < 1, so mu' >= 0
        return radius + rest * s, (1.0 - s) + rest * ds / w

    def mu(self, radius: FloatOrArray) -> FloatOrArray:
        return self.mu_and_slope(radius)[0]

    # -- monodromy cutoff sigma, a function of the fibration value t

    @property
    def cutoff_lo(self) -> float:
        return 0.6 * self.disk2_radius ** 2

    @property
    def cutoff_hi(self) -> float:
        return 0.9 * self.disk2_radius ** 2

    def cutoff(self, t: FloatOrArray) -> FloatOrArray:
        return smoothstep((t - self.cutoff_lo) / (self.cutoff_hi - self.cutoff_lo))


DEFAULT_CONFIG = ModelConfig()
