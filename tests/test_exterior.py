"""Engine laws for the symbolic exterior calculus."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lbfkit import exterior
from lbfkit.exterior import (
    AlgebraMismatchError,
    Form,
    MissingRuleError,
    ONE,
    ScalarExpr,
    ZERO,
    ext_d,
    interior,
    wedge,
    wedge_power,
)

from conftest import (
    DUALS,
    make_algebras,
    random_even_form,
    random_form,
    random_homogeneous,
    random_scalar,
    random_tangent,
)
from reference import substitute


# ---------------------------------------------------------------------------
# scalar layer


def test_scalar_arithmetic_is_exact():
    third = ScalarExpr.const(Fraction(1, 3))
    assert third + third + third == ScalarExpr.const(1)
    a = ScalarExpr.atom("f")
    assert (a + 1) * (a - 1) == a * a - 1


def test_scalar_power_and_monomial_inverse():
    a = ScalarExpr.atom("mu") ** 2 * 4
    assert a ** 0 == ScalarExpr.const(1)
    assert a ** 2 == ScalarExpr.atom("mu") ** 4 * 16
    inv = a ** -1
    assert a * inv == ScalarExpr.const(1)


def test_scalar_power_is_a_left_fold(monkeypatch):
    # one product by the base per unit of the exponent, so every product
    # has the sparse base as one factor
    base = ScalarExpr.atom("f") + 1
    mul = ScalarExpr.__mul__
    factors = []

    def recording_mul(self, other):
        factors.append(other)
        return mul(self, other)

    monkeypatch.setattr(ScalarExpr, "__mul__", recording_mul)
    for exponent in range(41):
        factors.clear()
        base ** exponent
        assert len(factors) == exponent, exponent
        assert all(f is base for f in factors), exponent


def test_scalar_negative_power_rejects_sums():
    with pytest.raises(ValueError):
        (ScalarExpr.atom("f") + 1) ** -1


def test_substitute_and_evaluate_agree():
    expr = ScalarExpr.atom("f") * ScalarExpr.atom("r1") ** 2 + Fraction(1, 2)
    subbed = substitute(expr, {"f": Fraction(3), "r1": Fraction(2)})
    assert subbed == ScalarExpr.const(Fraction(25, 2))


def test_coefficients_are_ints_when_the_denominator_is_1():
    three = ScalarExpr.const(Fraction(6, 2))
    assert three.terms == {(): 3} and type(three.terms[()]) is int
    half = ScalarExpr.const(Fraction(1, 2))
    assert type((half + half).terms[()]) is int
    assert type((half * 2).terms[()]) is int
    assert type((ScalarExpr.atom("r") * half).diff("r").terms[()]) is Fraction
    assert type((ScalarExpr.atom("r") ** 2 * half).diff("r").terms[(("r", 1),)]) is int
    assert type(substitute(ScalarExpr.atom("f") * Fraction(2, 3), {"f": Fraction(3, 2)}).terms[()]) is int
    assert type(((half * ScalarExpr.atom("f")) ** -1).terms[(("f", -1),)]) is int
    # 3 and Fraction(3) print, compare and hash alike
    raw = ScalarExpr({(("f", 1),): Fraction(3)})
    assert raw == ScalarExpr.atom("f") * 3 and hash(raw) == hash(ScalarExpr.atom("f") * 3)
    assert raw.to_text() == (ScalarExpr.atom("f") * 3).to_text() == "3*f"


@pytest.mark.parametrize("bad", [0.1, 1.0, float("nan"), "1/2", None])
def test_const_and_ring_operators_refuse_non_rationals(bad):
    with pytest.raises(TypeError, match="int or a Fraction"):
        ScalarExpr.const(bad)
    with pytest.raises(TypeError):
        ScalarExpr.const(1) + bad
    with pytest.raises(TypeError):
        ScalarExpr.atom("f") * bad
    with pytest.raises(TypeError):
        Form.gen(exterior.disk_bundle_algebra(2), "dr", bad)


def test_substitute_refuses_floats():
    with pytest.raises(TypeError, match="int or a Fraction"):
        substitute(ScalarExpr.atom("f"), {"f": 0.1})
    # an unused binding is never read
    assert substitute(ScalarExpr.atom("r"), {"f": 0.1}) == ScalarExpr.atom("r")
    assert substitute(ScalarExpr.atom("f") ** -2, {"f": 2}) == ScalarExpr.const(Fraction(1, 4))


def test_constants_hash_as_their_coefficients():
    for value in (3, 0, -7, Fraction(1, 2), Fraction(6, 2)):
        const = ScalarExpr.const(value)
        assert const == value and hash(const) == hash(value)
        assert len({const, value}) == 1


def test_chain_rule_depth_and_missing_rule():
    expr = ScalarExpr.atom("f")
    for _ in range(exterior.CHAIN_DEPTH):
        expr = expr.diff("r1")
    with pytest.raises(MissingRuleError):
        for _ in range(4):
            expr = expr.diff("r1")


def test_each_chain_differentiates_against_its_own_variables():
    for head, stem, factors in (
        ("f", "u", {"r1": 2 * ScalarExpr.atom("r1"), "r2": 2 * ScalarExpr.atom("r2")}),
        ("mu", "mu", {"r1": 1}),
        ("sigma", "sigma", {"t": 1}),
        ("fc", "fc", {"r": 1}),
        ("gc", "gc", {"r": 1}),
    ):
        for v in exterior.VARIABLES:
            expected = factors[v] * ScalarExpr.atom(stem + "p") if v in factors else ZERO
            assert ScalarExpr.atom(head).diff(v) == expected
        deepest = ScalarExpr.atom(stem + "p" * (exterior.CHAIN_DEPTH + 1))
        with pytest.raises(MissingRuleError):
            deepest.diff(next(iter(factors)))


def test_mu_is_constant_in_r2():
    assert ScalarExpr.atom("mu").diff("r2").is_zero()
    assert ScalarExpr.atom("mu").diff("r1") == ScalarExpr.atom("mup")


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_scalar_ring_laws(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    a, b, c = (random_scalar(rng) for _ in range(3))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert (a - a).is_zero()


# ---------------------------------------------------------------------------
# algebra layer


def test_known_expansion_of_the_primitive_derivative():
    alg = exterior.disk_bundle_algebra(2)
    r = ScalarExpr.atom("r")
    one_form = wedge(Form.scalar(alg, 1 + r * r),
                     Form.gen(alg, "alpha") + Form.gen(alg, "dtheta"))
    d = ext_d(one_form)
    expected = (
        wedge(Form.gen(alg, "dr", 2 * r), Form.gen(alg, "alpha") + Form.gen(alg, "dtheta"))
        + Form.gen(alg, "dalpha", 1 + r * r)
    )
    assert d == expected


def test_odd_generator_squares_to_zero():
    alg = exterior.double_disk_algebra(2)
    a = Form.gen(alg, "alpha")
    assert wedge(a, a).is_zero()


def test_even_generator_power_cap():
    # dalpha caps at n - 1, so the n-th power dies and the (n-1)-th does not
    for n in (2, 3):
        alg = exterior.disk_bundle_algebra(n)
        da = Form.gen(alg, "dalpha")
        assert not wedge_power(da, n - 1).is_zero()
        assert wedge_power(da, n).is_zero()


# Each algebra's layout: generator names in index order, the index of the
# contact form, coordinate forms (radius -> generator index) and duals (dual
# -> the one generator it contracts).  The even generator d<contact> is last.
LAYOUTS = {
    exterior.disk_bundle_algebra: (
        ("dr", "dtheta", "alpha", "dalpha"), 2,
        {"r": 0},
        {"d_r": 0, "d_theta": 1, "reeb": 2},
    ),
    exterior.double_disk_algebra: (
        ("dr1", "dtheta1", "dr2", "dtheta2", "alpha", "dalpha"), 4,
        {"r1": 0, "r2": 2},
        {"d_r1": 0, "d_theta1": 1, "d_r2": 2, "d_theta2": 3, "reeb": 4},
    ),
    exterior.collar_algebra: (
        ("dr", "dphi", "lam", "dlam"), 2,
        {"r": 0},
        {"d_r": 0, "d_phi": 1, "reeb": 2},
    ),
}


@pytest.mark.parametrize("n", [2, 5])
def test_algebra_layouts(n):
    for build, (names, contact, coord_forms, duals) in LAYOUTS.items():
        alg = build(n)
        assert alg.n == n
        assert alg.names == names
        assert alg.contact == contact
        assert alg.even == len(names) - 1
        assert alg.coord_forms == coord_forms
        assert alg.duals == duals


def _assert_power_matches_fold(form: Form, kmax: int) -> None:
    folded = Form.scalar(form.algebra, 1)          # plain left fold of wedge
    for k in range(kmax + 1):
        assert wedge_power(form, k) == folded, (form, k)
        folded = wedge(folded, form)


def test_binomial_wedge_power_matches_a_plain_fold(rng):
    for n in (2, 3, 4, 5):
        for alg in make_algebras(n).values():
            for _ in range(5):
                _assert_power_matches_fold(random_even_form(alg, rng), n + 2)


def test_wedge_power_of_a_model_form_matches_a_plain_fold():
    alg = exterior.double_disk_algebra(4)
    omega = ext_d(wedge(Form.scalar(alg, ScalarExpr.atom("f") * ScalarExpr.atom("r1") ** 2),
                        Form.gen(alg, "dtheta1") - Form.gen(alg, "alpha"))
                  + Form.gen(alg, "dtheta2", ScalarExpr.atom("r2") ** 2))
    _assert_power_matches_fold(omega + Form.scalar(alg, Fraction(1, 3)), 6)


def test_wedge_power_refuses_odd_and_mixed_forms():
    alg = exterior.double_disk_algebra(3)
    odd = Form.gen(alg, "alpha")
    mixed = Form.gen(alg, "dalpha") + Form.gen(alg, "dr1")
    for form in (odd, mixed, Form.scalar(alg, 1) + odd):
        with pytest.raises(ValueError, match="even"):
            wedge_power(form, 2)
    with pytest.raises(ValueError):
        wedge_power(Form.gen(alg, "dalpha"), -1)
    assert wedge_power(Form(alg), 0) == Form.scalar(alg, 1)
    assert wedge_power(Form(alg), 3).is_zero()


def test_algebra_mismatch_raises():
    a2 = exterior.disk_bundle_algebra(2)
    a3 = exterior.disk_bundle_algebra(3)
    with pytest.raises(AlgebraMismatchError):
        wedge(Form.gen(a2, "dr"), Form.gen(a3, "dr"))
    with pytest.raises(AlgebraMismatchError):
        Form.gen(a2, "dr") + Form.gen(a3, "dr")


def test_forms_over_different_algebras_are_unequal():
    # == compares, it does not combine: no error, and never equal, even for
    # two zero forms or the same generator name
    disk2, disk3, collar2 = (exterior.disk_bundle_algebra(2), exterior.disk_bundle_algebra(3),
                             exterior.collar_algebra(2))
    assert Form(disk2) != Form(collar2)
    assert not Form.gen(disk2, "dr") == Form.gen(disk3, "dr")
    assert Form.gen(disk2, "dr") not in [Form.gen(disk3, "dr"), Form(collar2)]
    assert Form.gen(disk2, "dr") in [Form(collar2), Form.gen(exterior.disk_bundle_algebra(2), "dr")]


def test_interior_pairings():
    alg = exterior.disk_bundle_algebra(2)
    reeb = {"reeb": 1}
    d_r = {"d_r": 1}
    assert interior(reeb, Form.gen(alg, "alpha")) == Form.scalar(alg, 1)
    assert interior(reeb, Form.gen(alg, "dr")).is_zero()
    assert interior(d_r, Form.gen(alg, "dr")) == Form.scalar(alg, 1)
    # even generators contract to zero against every dual
    assert interior(reeb, Form.gen(alg, "dalpha")).is_zero()
    # a zero coefficient contributes nothing
    both = Form.gen(alg, "dr") + Form.gen(alg, "alpha")
    assert interior({"d_r": 0, "reeb": 1}, both) == Form.scalar(alg, 1)


def test_interior_rejects_unknown_dual():
    # the names are checked against the form's algebra: a dual of another
    # algebra is refused like a misspelt one
    alg = exterior.disk_bundle_algebra(2)
    for dual in ("d_bogus", "d_theta1"):
        with pytest.raises(AlgebraMismatchError) as refusal:
            interior({"reeb": 1, dual: 1}, Form.gen(alg, "alpha"))
        assert str(refusal.value) == f"algebra 'disk_bundle' has no dual symbol '{dual}'"


def test_interior_refuses_a_float_coefficient():
    alg = exterior.disk_bundle_algebra(2)
    with pytest.raises(TypeError, match="0.5 of type float"):
        interior({"d_r": 0.5}, Form.gen(alg, "dr"))


# ---------------------------------------------------------------------------
# randomized laws (bulk runs live in the acceptance suite)


def _degree(form: Form) -> int:
    degs = form.degrees()
    return next(iter(degs)) if degs else 0


def test_d_squared_vanishes_randomized(rng):
    algebras = make_algebras(2) | {k + "3": a for k, a in make_algebras(3).items()}
    for _ in range(120):
        alg = rng.choice(list(algebras.values()))
        form = random_form(alg, rng)
        assert ext_d(ext_d(form)).is_zero()


def _ext_d_reference(a: Form) -> Form:
    """d with every piece a wedge of two forms, summed with +."""
    alg = a.algebra
    out = Form(alg)
    for word, coeff in a.terms.items():
        for var, idx in alg.coord_forms.items():
            dc = coeff.diff(var)
            if not dc.is_zero():
                out = out + wedge(Form.gen(alg, alg.names[idx], dc), Form(alg, {word: ONE}))
        # the sign's parity is the total degree in front, dalpha counting 2
        parity = 0
        for pos, (idx, exp) in enumerate(word):
            if idx == alg.contact:
                rest = word[:pos] + word[pos + 1 :]
                piece = Form.gen(alg, alg.names[alg.even], coeff * (-1) ** parity)
                out = out + wedge(piece, Form(alg, {rest: ONE}))
            parity += (2 if idx == alg.even else 1) * exp
    return out


def test_ext_d_matches_a_wedge_built_reference(rng):
    for n in (2, 3):
        for alg in make_algebras(n).values():
            for _ in range(40):
                form = random_form(alg, rng)
                assert ext_d(form).terms == _ext_d_reference(form).terms


def test_graded_commutativity_randomized(rng):
    algebras = make_algebras(2)
    for _ in range(150):
        kind = rng.choice(list(algebras))
        alg = algebras[kind]
        a = random_homogeneous(alg, rng)
        b = random_homogeneous(alg, rng)
        sign = (-1) ** (_degree(a) * _degree(b))
        assert wedge(a, b) == wedge(b, a).scale(sign)


def test_wedge_associativity_randomized(rng):
    algebras = make_algebras(3)
    for _ in range(100):
        alg = rng.choice(list(algebras.values()))
        a, b, c = (random_form(alg, rng, 2) for _ in range(3))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_leibniz_rule_randomized(rng):
    algebras = make_algebras(2)
    for _ in range(100):
        kind = rng.choice(list(algebras))
        alg = algebras[kind]
        a = random_homogeneous(alg, rng)
        b = random_form(alg, rng, 2)
        sign = (-1) ** _degree(a)
        lhs = ext_d(wedge(a, b))
        rhs = wedge(ext_d(a), b) + wedge(a, ext_d(b)).scale(sign)
        assert lhs == rhs


def test_interior_is_a_graded_derivation_randomized(rng):
    algebras = make_algebras(2)
    for _ in range(150):
        kind = rng.choice(list(algebras))
        alg = algebras[kind]
        v = random_tangent(alg, kind, rng)
        a = random_homogeneous(alg, rng)
        b = random_form(alg, rng, 2)
        sign = (-1) ** _degree(a)
        lhs = interior(v, wedge(a, b))
        rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)).scale(sign)
        assert lhs == rhs


def test_interior_squares_to_zero_on_basis_duals(rng):
    # iota_v twice along a single dual direction kills every form
    algebras = make_algebras(2)
    for _ in range(60):
        kind = rng.choice(list(algebras))
        alg = algebras[kind]
        dual = rng.choice(DUALS[kind])
        v = {dual: 1}
        form = random_form(alg, rng)
        assert interior(v, interior(v, form)).is_zero()
