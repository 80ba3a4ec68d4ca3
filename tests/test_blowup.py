"""Blow-up charts, A-type classification, and the resolution trace."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from lbfkit import cli, mcg
from lbfkit.blowup import (
    MultiPoly,
    NonRationalCoefficientError,
    OriginError,
    SingularityVerdict,
    a_type_polynomial,
    blowup_chart,
    classify,
    milnor_word,
    proper_transform,
    resolution_word_chain,
    resolve_A,
)


def var(nvars: int, index: int, power: int = 1) -> MultiPoly:
    return MultiPoly.variable(nvars, index, power=power)


def test_polynomial_arithmetic_is_exact():
    x0, x1 = var(2, 0), var(2, 1)
    p = (x0 + x1) * (x0 - x1)
    assert p == x0 ** 2 - x1 ** 2
    assert (p - p).is_zero()
    q = x0.scale(Fraction(1, 3)) + x0.scale(Fraction(2, 3))
    assert q == x0
    assert (x0 + x1) ** 2 == x0 ** 2 + (x0 * x1).scale(2) + x1 ** 2


def test_zero_coefficients_never_stored():
    x0 = var(1, 0)
    assert not (x0 - x0).terms
    combined = x0.scale(2) + x0.scale(-2)
    assert combined.is_zero()


def test_float_coefficients_rejected():
    with pytest.raises(NonRationalCoefficientError):
        MultiPoly.constant(2, 0.5)
    with pytest.raises(NonRationalCoefficientError):
        var(2, 0).scale(1.5)
    # strings and Fractions pass through exactly
    assert MultiPoly.constant(1, "1/3").constant_term == Fraction(1, 3)


def test_mismatched_variable_counts_rejected():
    with pytest.raises(ValueError, match="mixing rings"):
        var(2, 0) + var(3, 0)


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        var(2, 0) ** -1


def test_canonical_text_order():
    # ascending total degree; within a degree the first variable dominates
    x0, x1 = var(2, 0), var(2, 1)
    p = x1 ** 4 + x0 ** 2 * x1 ** 2 + x0
    assert p.to_text() == "x0 + x0^2*x1^2 + x1^4"
    assert (x0 - x1.scale(Fraction(3, 2))).to_text() == "x0 - 3/2*x1"
    assert MultiPoly.zero(2).to_text() == "0"


def test_print_order_is_index_order_above_ten_variables():
    # as strings x10 < x2; the printed order follows the slot index
    assert (var(12, 10) + var(12, 2)).to_text() == "x2 + x10"
    assert (var(12, 10, 2) + var(12, 11) * var(12, 2)).to_text() == "x2*x11 + x10^2"
    for k in (1, 2, 5, 12):
        for dim in (9, 10, 30, 100):
            trace = resolve_A(k, dim)
            squares = [f"y{i}^2" for i in range(dim + 1)]
            last = f"y{dim + 1}"
            assert trace.step_count == -(-k // 2)
            for step, s in enumerate(trace.steps, 1):
                e = k + 1 - 2 * step
                if e >= 2:
                    expected = squares + [f"{last}^{e}"]
                else:
                    expected = ["1" if e == 0 else last] + squares
                assert s.polynomial.to_text() == " + ".join(expected), (k, dim, step)


def test_a_type_polynomial_shape():
    p = a_type_polynomial(3, 1)
    # x0^2 + x1^2 + x2^4 in three variables
    assert p.nvars == 3
    assert p.to_text() == "x0^2 + x1^2 + x2^4"
    assert a_type_polynomial(1, 0).to_text() == "x0^2 + x1^2"


def test_chart_example_from_the_a3_pattern():
    p = a_type_polynomial(3, 1)
    total = blowup_chart(p, 2)
    y0, y1, y2 = (var(3, i) for i in range(3))
    assert total == y2 ** 2 * (y0 ** 2 + y1 ** 2 + y2 ** 2)
    assert total.to_text() == "y0^2*y2^2 + y1^2*y2^2 + y2^4"


def test_chart_two_squares():
    p = var(2, 0) ** 2 + var(2, 1) ** 2
    total = blowup_chart(p, 0)
    y0, y1 = var(2, 0), var(2, 1)
    assert total == y0 ** 2 * (MultiPoly.constant(2, 1) + y1 ** 2)


def test_chart_single_variable():
    assert blowup_chart(var(2, 0), 0) == var(2, 0)
    assert blowup_chart(var(2, 0), 0).to_text() == "y0"


def test_chart_requires_vanishing_at_origin():
    p = MultiPoly.constant(2, 1) + var(2, 0)
    with pytest.raises(OriginError, match="constant term"):
        blowup_chart(p, 0)
    with pytest.raises(ValueError, match="chart index"):
        blowup_chart(var(2, 0), 5)


def test_proper_transform_designated_chart():
    for k, n in ((3, 1), (5, 2), (2, 0)):
        p = a_type_polynomial(k, n)
        q, m = proper_transform(p, n + 1)
        assert m == 2
        expect = sum(
            (var(n + 2, i) ** 2 for i in range(n + 1)),
            var(n + 2, n + 1) ** (k - 1),
        )
        assert q == expect


def test_proper_transform_k1_lands_smooth():
    p = var(3, 0) ** 2 + var(3, 1) ** 2 + var(3, 2) ** 2
    q, m = proper_transform(p, 2)
    assert m == 2
    assert q == MultiPoly.constant(3, 1) + var(3, 0) ** 2 + var(3, 1) ** 2
    assert classify(q).is_smooth


def test_proper_transform_strips_maximal_power():
    # the single-variable input x1: total transform y0*y1, one factor out
    q, m = proper_transform(var(2, 1), 0)
    assert (q, m) == (var(2, 1), 1)
    # the product x0*x1 picks up an extra factor from the x0 slot, so the
    # maximal stripped power is 2, not 1
    q2, m2 = proper_transform(var(2, 0) * var(2, 1), 0)
    assert (q2, m2) == (var(2, 1), 2)
    assert not q2.divisible_by(0)


def test_proper_transform_never_divisible(rng):
    for _ in range(60):
        nv = rng.randrange(2, 5)
        p = MultiPoly.zero(nv)
        for _ in range(rng.randrange(1, 5)):
            exps = [rng.randrange(0, 4) for _ in range(nv)]
            if sum(exps) == 0:
                exps[rng.randrange(nv)] = 1
            term = MultiPoly.constant(nv, 1)
            for i, e in enumerate(exps):
                if e:
                    term = term * var(nv, i, e)
            p = p + term.scale(rng.choice((1, 2, -1, Fraction(1, 2))))
        if p.is_zero():
            continue
        j = rng.randrange(nv)
        q, m = proper_transform(p, j)
        assert not q.divisible_by(j)
        assert m >= p.multiplicity_at_origin()


def test_classify_normal_forms():
    for k in (1, 2, 5, 9):
        v = classify(a_type_polynomial(k, 2))
        assert v.is_a_type and v.m == k
        assert str(v) == f"AType({k})"
    assert str(classify(a_type_polynomial(1, 3))) == "AType(1)"


def test_classify_accepts_unit_rescale_and_permutation():
    p = a_type_polynomial(4, 1).scale(Fraction(-2, 7))
    assert classify(p).is_a_type
    # variables permuted: x1^5 + x0^2 + x2^2
    q = var(3, 1, 5) + var(3, 0) ** 2 + var(3, 2) ** 2
    v = classify(q)
    assert v.is_a_type and v.m == 4


def test_classify_smooth_cases():
    assert classify(MultiPoly.constant(2, 3)).is_smooth
    assert classify(var(2, 0) + var(2, 1) ** 2).is_smooth
    one = MultiPoly.constant(3, 1)
    assert classify(one + var(3, 0) ** 2 + var(3, 1) ** 2).is_smooth


def test_classify_unclassified_reasons():
    v = classify(var(2, 0) ** 3 + var(2, 1) ** 3)
    assert not v.is_smooth and not v.is_a_type
    assert "not A-type normal form" in str(v)
    v2 = classify(var(2, 0) ** 2 + var(2, 0) ** 4 + var(2, 1) ** 2)
    assert "two terms" in v2.reason
    v3 = classify(var(2, 0) ** 2)
    assert "absent" in v3.reason
    v4 = classify(var(2, 0) ** 2 + var(2, 1).scale(3) ** 2)
    assert "coefficients differ" in v4.reason
    assert classify(MultiPoly.zero(2)).reason.startswith("zero polynomial")


def test_resolution_k3():
    trace = resolve_A(3, 1)
    assert trace.step_count == 2
    assert trace.resolved
    assert [str(s.verdict) for s in trace.steps] == ["AType(1)", "Smooth"]
    assert str(classify(trace.initial)) == "AType(3)"


def test_resolution_k1_immediately_smooth():
    trace = resolve_A(1, 1)
    assert trace.step_count == 1
    assert trace.steps[0].verdict.is_smooth


def test_resolution_k8_type_ladder():
    trace = resolve_A(8, 2)
    kinds = [str(s.verdict) for s in trace.steps]
    assert kinds == ["AType(6)", "AType(4)", "AType(2)", "Smooth"]


def test_resolution_step_counts_sweep():
    for k in range(1, 16):
        for n in range(0, 5):
            trace = resolve_A(k, n)
            assert trace.resolved, (k, n)
            assert trace.step_count == -(-k // 2)
            assert all(s.multiplicity == 2 for s in trace.steps)
            assert all(
                not s.polynomial.divisible_by(s.chart) for s in trace.steps
            )


def test_resolution_first_step_literal_shape():
    trace = resolve_A(5, 2)
    step = trace.steps[0]
    y = [var(4, i) for i in range(4)]
    assert step.polynomial == y[0] ** 2 + y[1] ** 2 + y[2] ** 2 + y[3] ** 4
    assert step.chart == 3


def test_trace_json_round_trip():
    data = json.loads(cli._json_text(cli._suite_resolve(4, 1).report))["trace"]
    assert data["k"] == 4
    assert data["n"] == 1
    assert data["initial_verdict"] == "AType(4)"
    assert len(data["steps"]) == 2
    first = data["steps"][0]
    assert first["chart"] == 2
    assert first["multiplicity"] == 2
    assert first["polynomial"] == "y0^2 + y1^2 + y2^3"
    assert first["verdict"] == "AType(2)"
    assert "diagnostic" not in data      # only present on halted runs
    assert data["resolved"] is True


def test_off_chart_reports_match_recomputation():
    # On a chart j <= n the first proper transform is, from the substitution
    # rule alone, 1 + sum of y_i^2 over i <= n, i != j + y_j^(k-1) y_(n+1)^(k+1).
    n, last = 2, 3
    for k in (1, 2, 3, 6):
        for j in range(0, last):
            proper, m = proper_transform(a_type_polynomial(k, n), j)
            expected = MultiPoly.constant(n + 2, 1)
            for i in range(n + 1):
                if i != j:
                    expected = expected + var(n + 2, i, 2)
            mixed = var(n + 2, last, k + 1)
            if k > 1:
                mixed = var(n + 2, j, k - 1) * mixed
            assert proper == expected + mixed
            assert m == 2
            assert classify(proper).is_smooth


def test_milnor_word_examples():
    w = milnor_word(1)
    assert w.serialize() == "S S"
    assert w.fiber == "DT*S2"
    assert len(milnor_word(3)) == 4
    for k in (1, 4, 9):
        assert milnor_word(k).weight == k + 1


def test_word_chain_mirrors_the_resolution():
    for k in (1, 2, 5, 8, 11):
        chain = resolution_word_chain(k)
        trace = resolve_A(k, 2)
        assert len(chain) == trace.step_count
        source = milnor_word(k)
        target = mcg.enumerate_fillings(k)[-1]
        assert chain == mcg.substitution_chain(source, target)
        assert all(s.direction == "contract" for s in chain)


def test_verdict_constructors():
    assert SingularityVerdict.smooth().is_smooth
    assert SingularityVerdict.a_type(3).m == 3
    with pytest.raises(ValueError):
        SingularityVerdict.a_type(0)
    u = SingularityVerdict.unclassified("why not")
    assert str(u) == "Unclassified(why not)"
