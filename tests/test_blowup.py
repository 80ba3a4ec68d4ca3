"""Blow-up charts, A-type classification, and the resolution trace."""

from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lbfkit import cli, mcg
from lbfkit.blowup import (
    MultiPoly,
    OriginError,
    SMOOTH,
    a_type_polynomial,
    classify,
    milnor_word,
    proper_transform,
    resolution_word_chain,
    resolve_A,
    suite,
)
from reference import monomial, substitution_chain


def poly_of(nvars: int, *terms: dict[int, int]) -> MultiPoly:
    """The sum of distinct monomials, each a variable -> exponent map, with coefficient 1."""
    return MultiPoly(nvars, {monomial(powers): 1 for powers in terms})


def y_power(p: MultiPoly, j: int) -> int:
    """The largest power of the j-th variable dividing p."""
    return min(dict(mono).get(j, 0) for mono in p.terms)


def test_canonical_text_order():
    # ascending total degree; within a degree the first variable dominates
    p = poly_of(2, {1: 4}, {0: 2, 1: 2}, {0: 1})
    assert p.to_text() == "x0 + x0^2*x1^2 + x1^4"


def test_print_order_is_index_order_above_ten_variables():
    # as strings x10 < x2; the printed order follows the slot index
    assert poly_of(12, {10: 1}, {2: 1}).to_text() == "x2 + x10"
    assert poly_of(12, {10: 2}, {2: 1, 11: 1}).to_text() == "x2*x11 + x10^2"
    for k in (1, 2, 5, 12):
        for dim in (9, 10, 30, 100):
            steps = resolve_A(k, dim)
            squares = [f"y{i}^2" for i in range(dim + 1)]
            last = f"y{dim + 1}"
            assert len(steps) == -(-k // 2)
            for step, s in enumerate(steps, 1):
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
    # total transform y2^2 * (y0^2 + y1^2 + y2^2); the proper one drops y2^2
    q, m = proper_transform(a_type_polynomial(3, 1), 2)
    assert m == 2
    assert q == poly_of(3, {0: 2}, {1: 2}, {2: 2})
    assert q.to_text() == "y0^2 + y1^2 + y2^2"


def test_chart_two_squares():
    # total transform y0^2 * (1 + y1^2)
    q, m = proper_transform(poly_of(2, {0: 2}, {1: 2}), 0)
    assert (q, m) == (poly_of(2, {}, {1: 2}), 2)


def test_chart_single_variable():
    # total transform y0, so the proper transform is the unit
    q, m = proper_transform(poly_of(2, {0: 1}), 0)
    assert (q, m) == (poly_of(2, {}), 1)
    assert q.to_text() == "1"


def test_chart_requires_vanishing_at_origin():
    p = poly_of(2, {}, {0: 1})
    with pytest.raises(OriginError, match="constant term"):
        proper_transform(p, 0)
    with pytest.raises(ValueError, match="zero polynomial"):
        proper_transform(MultiPoly(2, {}), 0)
    # the chart index is checked first
    for bad in (poly_of(2, {0: 1}), p, MultiPoly(2, {})):
        with pytest.raises(ValueError, match="chart index"):
            proper_transform(bad, 5)


def test_proper_transform_designated_chart():
    for k, n in ((3, 1), (5, 2), (2, 0)):
        p = a_type_polynomial(k, n)
        q, m = proper_transform(p, n + 1)
        assert m == 2
        expect = poly_of(n + 2, *({i: 2} for i in range(n + 1)), {n + 1: k - 1})
        assert q == expect


def test_proper_transform_k1_lands_smooth():
    p = poly_of(3, {0: 2}, {1: 2}, {2: 2})
    q, m = proper_transform(p, 2)
    assert m == 2
    assert q == poly_of(3, {}, {0: 2}, {1: 2})
    assert classify(q) == SMOOTH


def test_proper_transform_strips_maximal_power():
    # the single-variable input x1: total transform y0*y1, one factor out
    q, m = proper_transform(poly_of(2, {1: 1}), 0)
    assert (q, m) == (poly_of(2, {1: 1}), 1)
    # the product x0*x1 picks up an extra factor from the x0 slot, so the
    # maximal stripped power is 2, not 1
    q2, m2 = proper_transform(poly_of(2, {0: 1, 1: 1}), 0)
    assert (q2, m2) == (poly_of(2, {1: 1}), 2)
    assert y_power(q2, 0) == 0


def test_proper_transform_never_divisible(rng):
    for _ in range(60):
        nv = rng.randrange(2, 5)
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            exps = [rng.randrange(0, 4) for _ in range(nv)]
            if sum(exps) == 0:
                exps[rng.randrange(nv)] = 1
            terms[monomial(dict(enumerate(exps)))] = rng.choice((1, 2, -1, Fraction(1, 2)))
        p = MultiPoly(nv, terms)
        j = rng.randrange(nv)
        q, m = proper_transform(p, j)
        assert y_power(q, j) == 0
        assert m == p.multiplicity_at_origin()


def test_classify_normal_forms():
    for k in (1, 2, 5, 9):
        assert classify(a_type_polynomial(k, 2)) == f"AType({k})"
    assert classify(a_type_polynomial(1, 3)) == "AType(1)"


def test_classify_smooth_cases():
    assert classify(MultiPoly(2, {(): 3})) == SMOOTH
    assert classify(poly_of(2, {0: 1}, {1: 2})) == SMOOTH
    assert classify(poly_of(3, {}, {0: 2}, {1: 2})) == SMOOTH
    # the zero polynomial has no verdict
    with pytest.raises(ValueError, match="the zero polynomial has no multiplicity"):
        classify(MultiPoly(2, {}))


@pytest.mark.parametrize("p", [
    pytest.param(poly_of(2, {0: 3}, {1: 3}), id="no-square"),
    pytest.param(poly_of(2, {0: 2}, {0: 4}, {1: 2}), id="variable-in-two-terms"),
    pytest.param(poly_of(2, {0: 2}), id="variable-absent"),
    pytest.param(MultiPoly(2, {((0, 2),): 1, ((1, 2),): 9}), id="coefficients-differ"),
    pytest.param(MultiPoly(3, {mono: Fraction(-2, 7) for mono in a_type_polynomial(4, 1).terms}),
                 id="unit-rescale"),
    pytest.param(poly_of(3, {1: 5}, {0: 2}, {2: 2}), id="permuted"),
    pytest.param(poly_of(1, {0: 2}), id="one-variable"),
])
def test_classify_refuses_what_is_not_a_normal_form(p):
    # only Smooth and the A_m normal forms themselves are verdicts; the
    # refusal names the polynomial by its terms
    with pytest.raises(ValueError, match=re.escape(
            f"the polynomial {p.terms} in {p.nvars} variables is neither smooth at the "
            "origin nor an A-type normal form")):
        classify(p)


def test_resolution_k3():
    assert [s.verdict for s in resolve_A(3, 1)] == ["AType(1)", "Smooth"]
    assert classify(a_type_polynomial(3, 1)) == "AType(3)"


def test_resolution_k1_immediately_smooth():
    assert [s.verdict for s in resolve_A(1, 1)] == [SMOOTH]


def test_resolution_k8_type_ladder():
    kinds = [s.verdict for s in resolve_A(8, 2)]
    assert kinds == ["AType(6)", "AType(4)", "AType(2)", "Smooth"]


def test_resolution_step_counts_sweep():
    for k in range(1, 16):
        for n in range(0, 5):
            steps = resolve_A(k, n)
            assert steps[-1].verdict == SMOOTH, (k, n)
            assert len(steps) == -(-k // 2)
            assert all(s.multiplicity == 2 for s in steps)
            assert all(y_power(s.polynomial, s.chart) == 0 for s in steps)


def test_resolution_first_step_literal_shape():
    step = resolve_A(5, 2)[0]
    assert step.polynomial == poly_of(4, {0: 2}, {1: 2}, {2: 2}, {3: 4})
    assert step.chart == 3


def test_trace_json_round_trip():
    data = json.loads(cli._json_text(suite(4, 1).report))["trace"]
    assert data["k"] == 4
    assert data["n"] == 1
    assert data["initial_verdict"] == "AType(4)"
    assert len(data["steps"]) == 2
    first = data["steps"][0]
    assert first["chart"] == 2
    assert first["multiplicity"] == 2
    assert first["polynomial"] == "y0^2 + y1^2 + y2^3"
    assert first["verdict"] == "AType(2)"
    assert data["resolved"] is True


@settings(max_examples=8, deadline=None)
@given(k=st.integers(1, cli.MAX_K), dim=st.integers(0, cli.MAX_DIM))
@example(k=1, dim=0)
@example(k=1, dim=cli.MAX_DIM)
@example(k=cli.MAX_K, dim=0)
@example(k=cli.MAX_K, dim=cli.MAX_DIM)
def test_resolution_ladder_over_the_documented_domain(k, dim):
    # over resolve's whole --k and --dim domain, step j is AType(k - 2j)
    # until Smooth at step ceil(k/2), each of multiplicity 2 in the last
    # chart, and its transform is y_0^2 + ... + y_dim^2 + y_last^(k+1-2j):
    # the chart's normal form, ending in y_last or the constant 1
    steps = resolve_A(k, dim)
    last = dim + 1
    assert len(steps) == -(-k // 2)
    assert classify(a_type_polynomial(k, dim)) == f"AType({k})"
    for j, step in enumerate(steps, 1):
        assert step.verdict == (f"AType({k - 2 * j})" if k - 2 * j >= 1 else SMOOTH), (k, dim, j)
        assert (step.chart, step.multiplicity) == (last, 2)
        squares = ({i: 2} for i in range(last))
        assert step.polynomial == poly_of(dim + 2, *squares, {last: k + 1 - 2 * j}), (k, dim, j)


def test_off_chart_reports_match_recomputation():
    # On a chart j <= n the first proper transform is, from the substitution
    # rule alone, 1 + sum of y_i^2 over i <= n, i != j + y_j^(k-1) y_(n+1)^(k+1).
    n, last = 2, 3
    for k in (1, 2, 3, 6):
        for j in range(0, last):
            proper, m = proper_transform(a_type_polynomial(k, n), j)
            squares = ({i: 2} for i in range(n + 1) if i != j)
            mixed = {j: k - 1, last: k + 1}
            assert proper == poly_of(n + 2, {}, *squares, mixed)
            assert m == 2
            assert classify(proper) == SMOOTH


def test_milnor_word_examples():
    assert milnor_word(1) == "SS"
    assert len(milnor_word(3)) == 4
    for k in (1, 4, 9):
        assert mcg.weight(milnor_word(k)) == k + 1


def test_word_chain_mirrors_the_resolution():
    for k in (1, 2, 5, 8, 11):
        chain = resolution_word_chain(k)
        assert len(chain) == len(resolve_A(k, 2))
        source = milnor_word(k)
        target = mcg.enumerate_fillings(k, include_zero=False)[-1]
        assert chain == substitution_chain(source, target)
        assert all(direction == "contract" for _, direction, _, _ in chain)
