"""Independent references the tests compare the program against.

No program path runs these; each is kept apart from the code it checks:

* ``closed_form``        -- closed-form transport solutions per regime, which
  acceptance criterion 3 checks ``transport.integrate`` against;
* ``substitution_chain`` -- the greedy twist-word chain, which criterion 5
  checks ``blowup.resolution_word_chain`` against;
* ``aa_count``           -- the cyclic-cover twist count of criterion 6;
* ``substitute``         -- exact evaluation of a ``ScalarExpr`` at constants.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from lbfkit import exterior, poly
from lbfkit.config import DEFAULT_CONFIG, ModelConfig
from lbfkit.exterior import ScalarExpr
from lbfkit.mcg import BOUNDARY, weight
from lbfkit.mcg import substitute as substitute_word
from lbfkit.poly import Rational


# ---------------------------------------------------------------------------
# transport


class RegimeError(ValueError):
    """Closed-form evaluation requested outside its validity regime."""


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
# twist words


class NotRelatedError(ValueError):
    """Two words cannot be joined by substitutions (their weights differ)."""


def aa_count(d: int, n: int) -> int:
    """d (d-1)^n, the twist count in the cyclic-cover factorization family."""
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    if n < 0:
        raise ValueError(f"exponent must be >= 0, got {n}")
    return d * (d - 1) ** n


def substitution_chain(source: str, target: str) -> list[tuple[int, str, str, str]]:
    """Greedy left-to-right chain of substitutions carrying source to target.

    Each step is (position, direction, before, after), as in
    ``blowup.resolution_word_chain``.  Scans both words in parallel.  Where
    the target wants a boundary twist and the source offers spheres, two
    spheres are contracted (expanding first if the second letter is itself
    a boundary twist); where the target wants a sphere and the source offers
    a boundary twist, it is expanded.  Equal weights guarantee the scan
    never runs off either word.
    """
    if weight(source) != weight(target):
        raise NotRelatedError(
            f"not related: weights differ ({weight(source)} vs {weight(target)})"
        )
    steps: list[tuple[int, str, str, str]] = []
    current = source
    i = 0
    for need in target:
        if current[i] == need:
            i += 1
            continue
        if need == BOUNDARY:
            # have a sphere; a second unit of weight follows because the
            # target still owes weight 2 here and weights agree
            if current[i + 1] == BOUNDARY:
                nxt = substitute_word(current, i + 1, "expand")
                steps.append((i + 1, "expand", current, nxt))
                current = nxt
            nxt = substitute_word(current, i, "contract")
            steps.append((i, "contract", current, nxt))
            current = nxt
        else:
            nxt = substitute_word(current, i, "expand")
            steps.append((i, "expand", current, nxt))
            current = nxt
        i += 1
    assert current == target, "scan invariant broken"
    return steps


# ---------------------------------------------------------------------------
# scalar expressions


def substitute(expr: ScalarExpr, values: Mapping[str, Rational]) -> ScalarExpr:
    """Replace atoms of expr by int or Fraction constants; floats raise ``TypeError``."""
    out: dict = {}
    for mono, coeff in expr.terms.items():
        acc = coeff
        rest: dict[str, int] = {}
        for atom, exp in mono:
            if atom in values:
                v = exterior._rational(values[atom])
                if v == 0 and exp < 0:
                    raise ZeroDivisionError(f"substituting 0 for {atom}^{exp}")
                acc = acc * poly.rpow(v, exp)
            else:
                rest[atom] = exp
        poly.accumulate(out, poly.monomial(rest), acc)
    return ScalarExpr(out)
