"""Euler-characteristic calculus for iterated fiber sums of fillings.

Two conventions run side by side everywhere and disagreements are surfaced,
never adjudicated:

* ``betti``     -- chi of the smooth complex quadric from its Betti numbers
  (one class per even degree, plus an extra middle class in even complex
  dimension), with the building blocks labeled by homotopy type: the
  disk-bundle summand contributes chi of its quadric base, the disk
  summand contributes 1.
* ``alternate`` -- the closed expression ((-1)^(n+1) - 1)/2 + n + 1 for the
  quadric, with the two summand labels exchanged (the quadric value rides
  on the disk slot).  Kept verbatim as a second column because its slope
  3 + 2(-1)^n - 2(n+1) is quoted downstream; for even n it differs from
  the betti value and every report flags the difference.

The per-word chi is an iterated fiber sum: chi(A #_F B) = chi A + chi B
- chi F, folded over l disk-bundle summands and k + 1 - 2l disk summands
with fiber DT*S^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

__all__ = [
    "Sphere",
    "Quadric",
    "DiskBundleOverQuadric",
    "Disk",
    "DiskCotangentSphere",
    "SpaceDescriptor",
    "EulerReport",
    "chi_space",
    "chi_fiber_sum",
    "chi_filling",
    "milnor_fiber_chi",
    "filling_slope",
    "distinctness_report",
]

CONVENTIONS = ("betti", "alternate")


@dataclass(frozen=True)
class Sphere:
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"sphere dimension must be >= 0, got {self.n}")


@dataclass(frozen=True)
class Quadric:
    """Smooth quadric hypersurface of complex dimension n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"quadric dimension must be >= 0, got {self.n}")


@dataclass(frozen=True)
class DiskBundleOverQuadric:
    n: int


@dataclass(frozen=True)
class Disk:
    dim: int = 2


@dataclass(frozen=True)
class DiskCotangentSphere:
    n: int


SpaceDescriptor = Sphere | Quadric | DiskBundleOverQuadric | Disk | DiskCotangentSphere


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def chi_space(space: SpaceDescriptor, convention: str = "betti") -> int:
    """Euler characteristic of a building block.

    The convention flag only matters for quadrics (and disk bundles over
    them): ``betti`` counts Betti numbers, ``alternate`` evaluates the
    closed expression; they agree for odd n and differ by n+1 vs n for
    even n.
    """
    _check_convention(convention)
    if isinstance(space, Sphere):
        return 1 + (-1) ** space.n
    if isinstance(space, Quadric):
        if convention == "betti":
            return space.n + 1 + (1 if space.n % 2 == 0 else 0)
        return ((-1) ** (space.n + 1) - 1) // 2 + space.n + 1
    if isinstance(space, DiskBundleOverQuadric):
        # deformation retract onto the base
        return chi_space(Quadric(space.n), convention)
    if isinstance(space, Disk):
        return 1
    if isinstance(space, DiskCotangentSphere):
        return 1 + (-1) ** space.n
    raise TypeError(f"unknown space descriptor {space!r}")


def chi_fiber_sum(parts: list[int], chi_fiber: int) -> int:
    """chi of an iterated fiber sum: sum of parts minus (count - 1) fibers."""
    if not parts:
        raise ValueError("fiber sum needs at least one part")
    return sum(parts) - (len(parts) - 1) * chi_fiber


def chi_filling(n: int, k: int, ell: int, convention: str = "betti") -> int:
    """chi of the l-th filling of the A_k boundary in half-dimension n.

    betti: l disk-bundle-over-quadric summands and k + 1 - 2l disk
    summands, fiber DT*S^n.  alternate: the same sum with the two summand
    labels exchanged and the alternate quadric value.
    """
    _check_convention(convention)
    if n < 1:
        raise ValueError(f"half-dimension must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if ell < 0 or 2 * ell > k + 1:
        raise ValueError(f"need 0 <= 2l <= k+1, got l={ell}, k={k}")
    chi_fiber = chi_space(DiskCotangentSphere(n))
    if convention == "betti":
        bundle = chi_space(DiskBundleOverQuadric(n), "betti")
        parts = [bundle] * ell + [chi_space(Disk())] * (k + 1 - 2 * ell)
    else:
        quadric = chi_space(Quadric(n), "alternate")
        parts = [chi_space(Disk())] * ell + [quadric] * (k + 1 - 2 * ell)
    return chi_fiber_sum(parts, chi_fiber)


def milnor_fiber_chi(n: int, k: int) -> int:
    """Independent count for the l = 0 word: 1 + k (-1)^(n+1).

    One 0-cell plus k middle-dimensional n-spheres' worth of homology.
    """
    return 1 + k * (-1) ** (n + 1)


def filling_slope(n: int, convention: str = "betti") -> int:
    """Increment of chi_filling per unit of l, exact in the integers."""
    _check_convention(convention)
    if convention == "betti":
        return chi_space(Quadric(n)) - 2 + chi_space(Sphere(n))
    return 3 + 2 * (-1) ** n - 2 * (n + 1)


@dataclass
class EulerReport:
    """Two-convention chi table over l = 0 .. ceil(k/2) with verdicts."""

    n: int
    k: int
    rows: list[tuple[int, int, int, bool]]   # (l, chi betti, chi alternate, differs)
    betti_injective: bool
    alternate_injective: bool
    betti_slope: int
    alternate_slope: int
    milnor_value: int
    verdict: str
    notes: list[str]


def distinctness_report(n: int, k: int) -> EulerReport:
    """Tabulate both conventions over l and decide distinguishability."""
    rows = []
    for ell in range(0, ceil(k / 2) + 1):
        a = chi_filling(n, k, ell, "betti")
        b = chi_filling(n, k, ell, "alternate")
        rows.append((ell, a, b, a != b))
    betti_vals = [r[1] for r in rows]
    alt_vals = [r[2] for r in rows]
    betti_inj = len(set(betti_vals)) == len(betti_vals)
    alt_inj = len(set(alt_vals)) == len(alt_vals)
    notes = []
    qb = chi_space(Quadric(n), "betti")
    qa = chi_space(Quadric(n), "alternate")
    if qb != qa:
        notes.append(
            f"quadric chi conventions disagree at n={n}: betti {qb} vs alternate {qa}"
        )
    notes.append(
        "alternate column exchanges the two summand labels "
        "(quadric value on the disk slot); betti column follows homotopy type"
    )
    verdict = "distinct" if betti_inj else "not distinguished by chi"
    return EulerReport(
        n=n,
        k=k,
        rows=rows,
        betti_injective=betti_inj,
        alternate_injective=alt_inj,
        betti_slope=filling_slope(n, "betti"),
        alternate_slope=filling_slope(n, "alternate"),
        milnor_value=milnor_fiber_chi(n, k),
        verdict=verdict,
        notes=notes,
    )
