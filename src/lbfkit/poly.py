"""Sparse polynomials with exact rational coefficients: one normal form.

A polynomial is a dict from monomial to coefficient.  A monomial is a tuple
of ``(variable, exp)`` pairs sorted by variable, with no zero exponent;
the constant monomial is ``()``.  The variable is any orderable key:
``exterior.ScalarExpr`` uses atom names, ``blowup.MultiPoly`` slot
indices.  Exponents may be negative (the Liouville field needs 1/r).

Coefficients are in normal form: never zero, an ``int`` when the
denominator is 1 and a ``Fraction`` only otherwise, so the common integer
case never pays for ``Fraction`` arithmetic and a dict of coefficients
compares, hashes and prints alike whichever type built it.  The kernel
trusts its input: each caller validates a coefficient where it enters.
Only ``accumulate`` mutates; every other function returns a new value.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from fractions import Fraction

Rational = int | Fraction
Monomial = tuple[tuple[Hashable, int], ...]
Poly = dict[Monomial, Rational]


def norm(q: Rational) -> Rational:
    """Coefficient normal form: an int when the denominator is 1."""
    if q.__class__ is Fraction and q.denominator == 1:
        return q.numerator
    return q


def rpow(q: Rational, exp: int) -> Rational:
    """Exact power of a coefficient; a negative exponent inverts exactly."""
    return norm(Fraction(q) ** exp)


def monomial(powers: Mapping[Hashable, int]) -> Monomial:
    """The monomial of a variable -> exponent map, zero exponents dropped."""
    return tuple(sorted((v, e) for v, e in powers.items() if e != 0))


def mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    """Merge two variable-sorted monomials, adding exponents and dropping zeros."""
    if not m2:
        return m1
    if not m1:
        return m2
    out: list[tuple[Hashable, int]] = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        (a, e), (b, f) = m1[i], m2[j]
        if a < b:
            out.append(m1[i])
            i += 1
        elif b < a:
            out.append(m2[j])
            j += 1
        else:
            if e + f:
                out.append((a, e + f))
            i += 1
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def accumulate(out: Poly, mono: Monomial, coeff: Rational) -> None:
    """Add coeff * mono into out in place, dropping the monomial at zero."""
    acc = out.get(mono, 0) + coeff
    if acc:
        out[mono] = norm(acc)
    else:
        out.pop(mono, None)


def add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for mono, coeff in b.items():
        accumulate(out, mono, coeff)
    return out


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    get = out.get
    # accumulate, inlined: this loop is most of the TOP_POWER identity's time
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = mul_monomials(m1, m2)
            acc = get(mono, 0) + c1 * c2
            if acc:
                out[mono] = norm(acc)
            else:
                out.pop(mono, None)
    return out
