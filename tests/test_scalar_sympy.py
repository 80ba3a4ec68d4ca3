"""Differential tests of the exact polynomial layers against sympy.

Random chains of +, *, ** and d/dvar over mixed int and Fraction(p, q)
coefficients run side by side in ``ScalarExpr`` and in sympy; after every
operation the two must agree exactly.  Random ``blowup.MultiPoly``s that
vanish at the origin, over 1-12 variables, go through ``proper_transform``
on a random chart j; the result must equal sympy's pullback
x_i -> x_i*x_j (i != j) divided by x_j^m, where m is the smallest total
degree, and must not be divisible by y_j.  Every stored term must be in the
normal form of ``lbfkit.poly``: a variable-sorted monomial with no zero
exponent, and a coefficient that is an int, or a Fraction whose denominator
is not 1.  sympy is in the ``test`` extra, not a runtime dependency of
lbfkit; the module is skipped when it is absent.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lbfkit import poly
from lbfkit.blowup import MultiPoly, proper_transform
from lbfkit.exterior import ScalarExpr
from reference import substitute

sympy = pytest.importorskip("sympy")

# coordinate variables only: their derivative rules are d(v)/d(v) = 1
VARS = ("r1", "r2", "r", "t", "s")
SYMBOLS = {v: sympy.Symbol(v) for v in VARS}
MAX_NVARS = 12
XS = sympy.symbols(f"x0:{MAX_NVARS}")


def _to_sympy(expr: ScalarExpr | MultiPoly):
    symbols = XS if isinstance(expr, MultiPoly) else SYMBOLS
    total = sympy.Integer(0)
    for mono, coeff in expr.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for var, exp in mono:
            term *= symbols[var] ** exp
        total += term
    return total


def _coeff(rng: random.Random) -> int | Fraction:
    if rng.random() < 0.5:
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def _random_pair(rng: random.Random):
    expr, sym = ScalarExpr.const(0), sympy.Integer(0)
    for _ in range(rng.randint(1, 3)):
        c = _coeff(rng)
        term, sterm = ScalarExpr.const(c), sympy.Rational(c.numerator, c.denominator)
        for _ in range(rng.randint(0, 2)):
            v, e = rng.choice(VARS), rng.randint(1, 2)
            term, sterm = term * ScalarExpr.atom(v) ** e, sterm * SYMBOLS[v] ** e
        expr, sym = expr + term, sym + sterm
    return expr, sym


def _assert_normal_form(expr: ScalarExpr | MultiPoly) -> None:
    for mono, coeff in expr.terms.items():
        assert list(mono) == sorted(mono) and len({v for v, _ in mono}) == len(mono), mono
        assert all(exp != 0 for _, exp in mono), mono
        assert coeff != 0
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator != 1), coeff


def _assert_same(expr: ScalarExpr | MultiPoly, sym) -> None:
    _assert_normal_form(expr)
    assert sympy.expand(_to_sympy(expr) - sym) == 0, (expr, sym)


def test_scalar_ring_matches_sympy():
    rng = random.Random(7)
    for _ in range(60):
        a, sa = _random_pair(rng)
        _assert_same(a, sa)
        for _ in range(4):
            op = rng.choice(("add", "sub", "mul", "pow", "diff", "const"))
            if op in ("add", "sub", "mul"):
                b, sb = _random_pair(rng)
                if op == "add":
                    a, sa = a + b, sa + sb
                elif op == "sub":
                    a, sa = a - b, sa - sb
                else:
                    a, sa = a * b, sa * sb
            elif op == "pow":
                e = rng.randint(0, 3 if len(a.terms) <= 4 else 1)
                a, sa = a ** e, sa ** e
            elif op == "diff":
                v = rng.choice(VARS)
                a, sa = a.diff(v), sympy.diff(sa, SYMBOLS[v])
            else:
                c = _coeff(rng)
                a, sa = c * a + c, (sa + 1) * sympy.Rational(c.numerator, c.denominator)
            _assert_same(a, sa)


def test_monomial_inverse_and_substitution_match_sympy():
    rng = random.Random(11)
    for _ in range(40):
        c = _coeff(rng) or 1
        v, e = rng.choice(VARS), rng.randint(1, 3)
        mono = ScalarExpr.atom(v) ** e * c
        smono = SYMBOLS[v] ** e * sympy.Rational(c.numerator, c.denominator)
        k = rng.randint(-3, -1)
        _assert_same(mono ** k, smono ** k)
        a, sa = _random_pair(rng)
        value = _coeff(rng)
        subbed = substitute(a, {v: value})
        _assert_same(subbed, sa.subs(SYMBOLS[v], sympy.Rational(value.numerator, value.denominator)))


def _random_vanishing(rng: random.Random, nvars: int):
    # built through the constructor, as the resolution builds its inputs:
    # normal-form monomials and coefficients, no constant term
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = [rng.randint(0, 3) if rng.random() < 0.4 else 0 for _ in range(nvars)]
        if not any(exps):
            exps[rng.randrange(nvars)] = rng.randint(1, 3)
        terms[poly.monomial(dict(enumerate(exps)))] = poly.norm(_coeff(rng)) or 1
    return MultiPoly(nvars, terms)


def test_proper_transform_matches_sympy():
    rng = random.Random(13)
    for _ in range(80):
        nvars = rng.randint(1, MAX_NVARS)
        p = _random_vanishing(rng, nvars)
        j = rng.randrange(nvars)
        q, m = proper_transform(p, j)
        sp = _to_sympy(p)
        assert m == min(sum(e for _, e in mono) for mono in p.terms)
        pulled = sp.subs({XS[i]: XS[i] * XS[j] for i in range(nvars) if i != j},
                         simultaneous=True)
        _assert_same(q, sympy.expand(sympy.expand(pulled) / XS[j] ** m))
        # y_j^m is the whole exceptional factor: some term is free of y_j
        assert min(dict(mono).get(j, 0) for mono in q.terms) == 0
