"""Shared generators for randomized algebra tests.

The builders here produce small random scalar expressions, forms, and
tangent fields over each of the three generator algebras.  Sizes stay
tiny on purpose: the laws under test are linear in each argument, so
small dense cases probe every code path without blowing up runtime.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lbfkit import exterior
from lbfkit.exterior import Algebra, Form, ScalarExpr

# Atoms with registered derivative chains deep enough for d-after-d.
SAFE_ATOMS = ("f", "up", "mu", "sigma", "fc", "gc", "r1", "r2", "r", "t", "s")

DUALS = {
    "disk": ("d_r", "d_theta", "reeb"),
    "double": ("d_r1", "d_theta1", "d_r2", "d_theta2", "reeb"),
    "collar": ("d_r", "d_phi", "reeb"),
}


def make_algebras(n: int = 2) -> dict[str, Algebra]:
    return {
        "disk": exterior.disk_bundle_algebra(n),
        "double": exterior.double_disk_algebra(n),
        "collar": exterior.collar_algebra(n),
    }


def random_scalar(rng: random.Random, depth: int = 2) -> ScalarExpr:
    total = ScalarExpr.const(Fraction(rng.randint(-3, 3)))
    for _ in range(rng.randint(0, depth)):
        term = ScalarExpr.const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in range(rng.randint(1, 2)):
            term = term * ScalarExpr.atom(rng.choice(SAFE_ATOMS)) ** rng.randint(1, 2)
        total = total + term
    return total


def random_form(algebra: Algebra, rng: random.Random, max_terms: int = 3) -> Form:
    """A random inhomogeneous form with small scalar coefficients."""
    result = Form(algebra)
    for _ in range(rng.randint(0, max_terms)):
        word = []
        for idx in range(len(algebra.names)):
            cap = 1 if idx != algebra.even else algebra.n - 1
            power = rng.randint(0, min(cap, 2))
            if power:
                word.append((idx, power))
        coeff = random_scalar(rng)
        term = Form.scalar(algebra, coeff)
        for idx, power in word:
            for _ in range(power):
                term = exterior.wedge(term, Form.gen(algebra, algebra.names[idx]))
        result = result + term
    return result


def random_even_form(algebra: Algebra, rng: random.Random, max_terms: int = 4) -> Form:
    """A random even form (a central element): a scalar plus terms made of
    zero, two or four odd generators and up to two even ones."""
    odd = [g for idx, g in enumerate(algebra.names) if idx != algebra.even]
    even = [algebra.names[algebra.even]]
    result = Form.scalar(algebra, random_scalar(rng, depth=1))
    for _ in range(rng.randint(1, max_terms)):
        names = rng.sample(odd, rng.choice([c for c in (0, 2, 2, 4) if c <= len(odd)]))
        names += [rng.choice(even)] * rng.randint(0, 2)
        term = Form.scalar(algebra, random_scalar(rng, depth=1))
        for name in names:
            term = exterior.wedge(term, Form.gen(algebra, name))
        result = result + term
    return result


def random_homogeneous(algebra: Algebra, rng: random.Random) -> Form:
    """Random form whose terms all share one wedge word (hence one degree)."""
    form = random_form(algebra, rng, max_terms=1)
    degs = form.degrees()
    if len(degs) > 1:  # pragma: no cover - max_terms=1 keeps this unreachable
        raise AssertionError("single-term form came out inhomogeneous")
    return form


def random_tangent(algebra: Algebra, kind: str, rng: random.Random) -> dict[str, ScalarExpr]:
    """A random tangent field over ``algebra``: a dict from some of its duals to coefficients."""
    parts = {}
    for dual in DUALS[kind]:
        if rng.random() < 0.7:
            parts[dual] = random_scalar(rng, depth=1)
    if not parts:
        parts[DUALS[kind][0]] = ScalarExpr.const(1)
    return parts


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260822)
