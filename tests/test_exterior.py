"""Engine laws for the symbolic exterior calculus."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lbfkit import exterior
from lbfkit.blowup import MultiPoly
from lbfkit.exterior import (
    AlgebraMismatchError,
    Form,
    MissingRuleError,
    ScalarExpr,
    TangentSymbol,
    UnboundAtomError,
    ZERO,
    ext_d,
    equals,
    interior,
    standard_rules,
    wedge,
    wedge_all,
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


# ---------------------------------------------------------------------------
# scalar layer


def test_scalar_arithmetic_is_exact():
    third = ScalarExpr.const(Fraction(1, 3))
    assert third + third + third == ScalarExpr.const(1)
    a = ScalarExpr.atom("f")
    assert (a + 1) * (a - 1) == a * a - 1


def test_scalar_power_and_monomial_inverse():
    a = ScalarExpr.atom("mu", 2) * 4
    assert a ** 0 == ScalarExpr.const(1)
    assert a ** 2 == ScalarExpr.atom("mu", 4) * 16
    inv = a ** -1
    assert a * inv == ScalarExpr.const(1)


def test_scalar_power_squares_only_up_to_the_top_bit(monkeypatch):
    # square-and-multiply needs bit_length - 1 squares and popcount products,
    # both in the exact engine and in the blow-up layer's polynomials
    calls = 0
    bases = [ScalarExpr.atom("f") + 1,
             MultiPoly.variable(1, 0) + MultiPoly.constant(1, 1)]
    for base in bases:
        mul = type(base).__mul__

        def counting_mul(self, other, _mul=mul):
            nonlocal calls
            calls += 1
            return _mul(self, other)

        monkeypatch.setattr(type(base), "__mul__", counting_mul)
        for exponent in range(1, 41):
            calls = 0
            base ** exponent
            assert calls <= exponent.bit_length() - 1 + bin(exponent).count("1"), \
                (type(base).__name__, exponent)


def test_scalar_negative_power_rejects_sums():
    with pytest.raises(ValueError):
        (ScalarExpr.atom("f") + 1) ** -1


def test_substitute_and_evaluate_agree():
    expr = ScalarExpr.atom("f") * ScalarExpr.atom("r1", 2) + Fraction(1, 2)
    subbed = expr.substitute({"f": Fraction(3), "r1": Fraction(2)})
    assert subbed == ScalarExpr.const(Fraction(25, 2))
    assert expr.evaluate({"f": 3.0, "r1": 2.0}) == 12.5


def test_coefficients_are_ints_when_the_denominator_is_1():
    three = ScalarExpr.const(Fraction(6, 2))
    assert three.terms == {(): 3} and type(three.terms[()]) is int
    half = ScalarExpr.const(Fraction(1, 2))
    assert type((half + half).terms[()]) is int
    assert type((half * 2).terms[()]) is int
    assert type((ScalarExpr.atom("r") * half).diff("r", standard_rules()).terms[()]) is Fraction
    assert type((ScalarExpr.atom("r", 2) * half).diff("r", standard_rules()).terms[(("r", 1),)]) is int
    assert type((ScalarExpr.atom("f") * Fraction(2, 3)).substitute({"f": Fraction(3, 2)}).terms[()]) is int
    assert type(((half * ScalarExpr.atom("f")) ** -1).terms[(("f", -1),)]) is int
    # 3 and Fraction(3) print, compare, hash and convert alike
    raw = ScalarExpr({(("f", 1),): Fraction(3)})
    assert raw == ScalarExpr.atom("f") * 3 and hash(raw) == hash(ScalarExpr.atom("f") * 3)
    assert raw.to_text() == (ScalarExpr.atom("f") * 3).to_text() == "3*f"
    assert raw.evaluate({"f": 0.1}) == (ScalarExpr.atom("f") * 3).evaluate({"f": 0.1})


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
        ScalarExpr.atom("f").substitute({"f": 0.1})
    # an unused binding is never read
    assert ScalarExpr.atom("r").substitute({"f": 0.1}) == ScalarExpr.atom("r")
    assert ScalarExpr.atom("f", -2).substitute({"f": 2}) == ScalarExpr.const(Fraction(1, 4))


def test_interior_refuses_float_pairings():
    alg = exterior.Algebra(
        "toy", 2, [exterior.Generator("dx", 1, None, None)], {}, {"d_x": {"dx": 0.5}}
    )
    with pytest.raises(TypeError, match="int or a Fraction"):
        interior(TangentSymbol(alg, {"d_x": 1}), Form.gen(alg, "dx"))


def test_evaluate_names_the_unbound_atom():
    expr = ScalarExpr.atom("sigma") + ScalarExpr.atom("t")
    with pytest.raises(UnboundAtomError, match="sigma"):
        expr.evaluate({"t": 1.0})


def test_chain_rule_depth_and_missing_rule():
    rules = standard_rules()
    expr = ScalarExpr.atom("f")
    for _ in range(exterior.CHAIN_DEPTH):
        expr = expr.diff("r1", rules)
    with pytest.raises(MissingRuleError):
        for _ in range(4):
            expr = expr.diff("r1", rules)


def test_mu_is_constant_in_r2():
    rules = standard_rules()
    assert ScalarExpr.atom("mu").diff("r2", rules).is_zero()
    assert ScalarExpr.atom("mu").diff("r1", rules) == ScalarExpr.atom("mup")


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
    assert equals(d, expected)


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


def _assert_power_matches_fold(form: Form, kmax: int) -> None:
    folded = Form.scalar(form.algebra, 1)          # plain left fold of wedge
    for k in range(kmax + 1):
        assert equals(wedge_power(form, k), folded), (form, k)
        folded = wedge(folded, form)


def test_binomial_wedge_power_matches_a_plain_fold(rng):
    for n in (2, 3, 4, 5):
        for alg in make_algebras(n).values():
            for _ in range(5):
                _assert_power_matches_fold(random_even_form(alg, rng), n + 2)


def test_wedge_power_of_a_model_form_matches_a_plain_fold():
    alg = exterior.double_disk_algebra(4)
    omega = ext_d(wedge(Form.scalar(alg, ScalarExpr.atom("f") * ScalarExpr.atom("r1", 2)),
                        Form.gen(alg, "dtheta1") - Form.gen(alg, "alpha"))
                  + Form.gen(alg, "dtheta2", ScalarExpr.atom("r2", 2)))
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
    assert equals(wedge_power(Form.zero(alg), 0), Form.scalar(alg, 1))
    assert wedge_power(Form.zero(alg), 3).is_zero()


def test_algebra_mismatch_raises():
    a2 = exterior.disk_bundle_algebra(2)
    a3 = exterior.disk_bundle_algebra(3)
    with pytest.raises(AlgebraMismatchError):
        wedge(Form.gen(a2, "dr"), Form.gen(a3, "dr"))


def test_interior_pairings():
    alg = exterior.disk_bundle_algebra(2)
    reeb = TangentSymbol(alg, {"reeb": 1})
    d_r = TangentSymbol(alg, {"d_r": 1})
    assert equals(interior(reeb, Form.gen(alg, "alpha")), Form.scalar(alg, 1))
    assert interior(reeb, Form.gen(alg, "dr")).is_zero()
    assert equals(interior(d_r, Form.gen(alg, "dr")), Form.scalar(alg, 1))
    # even generators contract to zero against every dual
    assert interior(reeb, Form.gen(alg, "dalpha")).is_zero()


def test_tangent_symbol_rejects_unknown_dual():
    alg = exterior.disk_bundle_algebra(2)
    with pytest.raises(AlgebraMismatchError):
        TangentSymbol(alg, {"d_bogus": 1})


def test_wedge_all_needs_an_argument():
    with pytest.raises(ValueError):
        wedge_all()


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


def test_graded_commutativity_randomized(rng):
    algebras = make_algebras(2)
    for _ in range(150):
        kind = rng.choice(list(algebras))
        alg = algebras[kind]
        a = random_homogeneous(alg, rng)
        b = random_homogeneous(alg, rng)
        sign = (-1) ** (_degree(a) * _degree(b))
        assert equals(wedge(a, b), wedge(b, a).scale(sign))


def test_wedge_associativity_randomized(rng):
    algebras = make_algebras(3)
    for _ in range(100):
        alg = rng.choice(list(algebras.values()))
        a, b, c = (random_form(alg, rng, 2) for _ in range(3))
        assert equals(wedge(wedge(a, b), c), wedge(a, wedge(b, c)))


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
        assert equals(lhs, rhs)


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
        assert equals(lhs, rhs)


def test_interior_squares_to_zero_on_basis_duals(rng):
    # iota_v twice along a single dual direction kills every form
    algebras = make_algebras(2)
    for _ in range(60):
        kind = rng.choice(list(algebras))
        alg = algebras[kind]
        dual = rng.choice(DUALS[kind])
        v = TangentSymbol(alg, {dual: 1})
        form = random_form(alg, rng)
        assert interior(v, interior(v, form)).is_zero()
