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
with fiber DT*S^n.  Each building block's chi is one integer function of
n: ``chi_sphere`` for the fiber (DT*S^n retracts onto S^n),
``chi_quadric`` for the disk bundle (it retracts onto its quadric base),
and the literal 1 for a disk.
"""

from __future__ import annotations

from math import ceil

from . import mcg
from .config import DEFAULT_CONFIG
from .report import SuiteResult, config_dict, timed

__all__ = [
    "chi_sphere",
    "chi_quadric",
    "chi_fiber_sum",
    "chi_filling",
    "milnor_fiber_chi",
    "filling_slope",
    "distinctness_report",
    "suite",
]

CONVENTIONS = ("betti", "alternate")


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")


def chi_sphere(n: int) -> int:
    """chi(S^n), which is also chi(DT*S^n): the disk bundle retracts onto the sphere."""
    if n < 0:
        raise ValueError(f"sphere dimension must be >= 0, got {n}")
    return 1 + (-1) ** n


def chi_quadric(n: int, convention: str = "betti") -> int:
    """chi of the smooth quadric of complex dimension n, and of a disk bundle over it.

    ``betti`` counts Betti numbers, ``alternate`` evaluates the closed
    expression; they agree for odd n and differ by n+1 vs n for even n.
    """
    if n < 0:
        raise ValueError(f"quadric dimension must be >= 0, got {n}")
    _check_convention(convention)
    if convention == "betti":
        return n + 1 + (1 if n % 2 == 0 else 0)
    return ((-1) ** (n + 1) - 1) // 2 + n + 1


def chi_fiber_sum(parts: list[int], chi_fiber: int) -> int:
    """chi of an iterated fiber sum: sum of parts minus (count - 1) fibers."""
    if not parts:
        raise ValueError("fiber sum needs at least one part")
    return sum(parts) - (len(parts) - 1) * chi_fiber


def chi_filling(n: int, k: int, ell: int, convention: str) -> int:
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
    # a disk summand contributes 1
    if convention == "betti":
        parts = [chi_quadric(n, "betti")] * ell + [1] * (k + 1 - 2 * ell)
    else:
        parts = [1] * ell + [chi_quadric(n, "alternate")] * (k + 1 - 2 * ell)
    return chi_fiber_sum(parts, chi_sphere(n))


def milnor_fiber_chi(n: int, k: int) -> int:
    """Independent count for the l = 0 word: 1 + k (-1)^(n+1).

    One 0-cell plus k middle-dimensional n-spheres' worth of homology.
    """
    return 1 + k * (-1) ** (n + 1)


def filling_slope(n: int, convention: str) -> int:
    """Increment of chi_filling per unit of l, exact in the integers."""
    _check_convention(convention)
    if convention == "betti":
        return chi_quadric(n) - 2 + chi_sphere(n)
    return 3 + 2 * (-1) ** n - 2 * (n + 1)


def distinctness_report(n: int, k: int) -> dict:
    """Tabulate both conventions over l = 0 .. ceil(k/2) and decide distinguishability.

    ``rows`` holds (l, chi betti, chi alternate, differs) per l, beside the
    two slopes, the Milnor fiber's chi, the verdict and the notes.
    """
    rows = []
    for ell in range(0, ceil(k / 2) + 1):
        a = chi_filling(n, k, ell, "betti")
        b = chi_filling(n, k, ell, "alternate")
        rows.append((ell, a, b, a != b))
    betti_vals = [r[1] for r in rows]
    betti_inj = len(set(betti_vals)) == len(betti_vals)
    notes = []
    qb = chi_quadric(n, "betti")
    qa = chi_quadric(n, "alternate")
    if qb != qa:
        notes.append(
            f"quadric chi conventions disagree at n={n}: betti {qb} vs alternate {qa}"
        )
    notes.append(
        "alternate column exchanges the two summand labels "
        "(quadric value on the disk slot); betti column follows homotopy type"
    )
    verdict = "distinct" if betti_inj else "not distinguished by chi"
    return {
        "n": n,
        "k": k,
        "rows": rows,
        "betti_injective": betti_inj,
        "betti_slope": filling_slope(n, "betti"),
        "alternate_slope": filling_slope(n, "alternate"),
        "milnor_value": milnor_fiber_chi(n, k),
        "verdict": verdict,
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# the fillings suite


def suite(n: int, k: int, include_zero: bool) -> SuiteResult:
    """fillings: one row per filling word of the A_k boundary, with both chi columns."""
    timing: dict[str, float] = {}
    words = timed(timing, "words_ms", mcg.enumerate_fillings, k, include_zero=include_zero)
    euler = timed(timing, "euler_ms", distinctness_report, n, k)

    rows_data = []
    for word in words:
        ell = word.count(mcg.BOUNDARY)
        _, chi_betti, chi_alternate, differs = euler["rows"][ell]    # rows run over l = 0, 1, ...
        rows_data.append({
            "ell": ell,
            "word": " ".join(word),
            "weight": mcg.weight(word),
            "chi_betti": chi_betti,
            "chi_alternate": chi_alternate,
            "conventions_differ": differs,
        })

    chis = [row["chi_betti"] for row in rows_data]
    distinct = len(set(chis)) == len(chis)
    summary = (
        f"{len(words)} fillings, "
        + ("pairwise distinct" if distinct else "not distinguished by chi")
    )

    bad_weight = [r["ell"] for r in rows_data if r["weight"] != k + 1]
    gates = [(distinct, True, "==", "emitted Euler characteristics are not pairwise distinct"),
             (bad_weight, [], "==", f"weight != k+1 at ell in {bad_weight}")]

    report = {
        "config": config_dict(DEFAULT_CONFIG, n=n, k=k, include_zero=include_zero),
        "fillings": rows_data,
        "summary": summary,
        "milnor_chi": euler["milnor_value"],
        "slopes": {"betti": euler["betti_slope"], "alternate": euler["alternate_slope"]},
        "euler_verdict": euler["verdict"],
        "notes": euler["notes"],
    }

    rows = [["ell", "word", "weight", "chi_betti", "chi_alternate", "differs"]]
    rows += [[str(r["ell"]), r["word"], str(r["weight"]), str(r["chi_betti"]),
              str(r["chi_alternate"]), str(r["conventions_differ"]).lower()]
             for r in rows_data]
    table_rows = rows + [[summary, "", "", "", "", ""]]
    return SuiteResult(report, gates, rows, table_rows, timing)
