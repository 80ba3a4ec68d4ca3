"""Exact blow-up calculus for isolated A-type hypersurface singularities.

Everything here is exact: ``MultiPoly`` keeps the coefficients it is
given, ``a_type_polynomial`` writes the normal form with unit
coefficients and ``proper_transform`` only rewrites exponents, so every
term of a resolution trace has coefficient 1.  A point blow-up of affine
space replaces the origin by a projective space; on the j-th standard
chart the pullback of coordinates reads

    x_i = y_i * y_j   (i != j),        x_j = y_j,

so a polynomial vanishing at the origin picks up a factor y_j^m, where
m is its multiplicity there.  Stripping that factor gives the proper
transform.  On a monomial the pullback and the division are one exponent
rewrite, the j-th exponent becoming the term's total degree minus m, so
``proper_transform`` builds the proper transform in one pass without the
total transform.  For the family

    x_0^2 + ... + x_n^2 + x_{n+1}^{k+1}

the transform in the last chart is again of the same shape with k
dropped by two, which is why ceil(k/2) blow-ups smooth it out.
``resolve_A`` lists each step together with a classification of the
transform, and the whole process mirrors a word rewrite on twist words:
each blow-up trades two sphere twists for one boundary twist.
"""

from __future__ import annotations

from math import ceil

from .config import DEFAULT_CONFIG
from .mcg import SPHERE, substitute
from .report import SuiteResult, config_dict, result_row, timed

SMOOTH = "Smooth"


class OriginError(ValueError):
    """Raised when a blow-up is requested for a polynomial not vanishing at 0."""


class MultiPoly:
    """Multivariate polynomial with exact rational coefficients.

    ``terms`` maps each monomial to its coefficient, kept as given.  A
    monomial is a tuple of ``(index, exp)`` pairs over the slots
    0..nvars-1, sorted by index, with no zero exponent; the constant
    monomial is ``()``.  The printed form is canonical: graded
    lexicographic, lowest total degree first.
    """

    __slots__ = ("nvars", "terms", "prefix")

    def __init__(self, nvars: int, terms: dict, *, prefix: str = "x") -> None:
        self.nvars = nvars
        self.terms = terms
        self.prefix = prefix

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> int:
        return self.terms.get((), 0)

    def multiplicity_at_origin(self) -> int:
        """Minimal total degree over all terms; the order of vanishing at 0."""
        if not self.terms:
            raise ValueError("the zero polynomial has no multiplicity")
        return min(sum(e for _, e in mono) for mono in self.terms)

    # -- canonical form ----------------------------------------------------

    def to_text(self) -> str:
        """The printed form, which takes every coefficient to be 1, as in a trace.

        Within a degree the variable with the smallest index dominates, so
        y0^2 prints before y1^2: the (index, -exp) pairs order like the
        negated dense exponent vectors, because of two monomials of one
        degree neither is a proper prefix.
        """
        ordered = sorted(self.terms, key=lambda mono: (sum(e for _, e in mono),
                                                       tuple((i, -e) for i, e in mono)))
        return " + ".join([
            "*".join([f"{self.prefix}{i}" + (f"^{e}" if e > 1 else "") for i, e in mono]) or "1"
            for mono in ordered])

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_text()})"

    def __eq__(self, other: object) -> bool:
        # Prefix is presentation only; equality is ring plus terms.
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms


def a_type_polynomial(k: int, n: int) -> MultiPoly:
    """x_0^2 + ... + x_n^2 + x_{n+1}^(k+1) in n+2 variables."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    terms = {((i, 2),): 1 for i in range(n + 1)}
    terms[((n + 1, k + 1),)] = 1
    return MultiPoly(n + 2, terms)


# ---------------------------------------------------------------------------
# blow-up charts


def proper_transform(p: MultiPoly, j: int) -> tuple[MultiPoly, int]:
    """Proper transform of p on the j-th chart, and p's multiplicity m at 0.

    The pullback x_i -> y_i y_j (i != j), x_j -> y_j and the division by
    y_j^m set each term's j-th exponent to its total degree minus m and
    keep the others, in one pass.  That map is injective (the old j-th
    exponent is the total minus the others), so no two terms collide; a
    term of least degree loses y_j, so the result is not divisible by
    y_j.  m does not depend on the chart.
    """
    if not 0 <= j < p.nvars:
        raise ValueError(f"chart index {j} outside 0..{p.nvars - 1}")
    if p.constant_term != 0:
        raise OriginError(
            f"polynomial has constant term {p.constant_term}; "
            "blow-up charts are defined only for polynomials vanishing at the origin"
        )
    if p.is_zero():
        raise ValueError("the zero polynomial has no proper transform")
    m = p.multiplicity_at_origin()
    terms = {}
    for mono, c in p.terms.items():
        powers = dict(mono)
        powers[j] = sum(powers.values()) - m
        terms[tuple(sorted((i, e) for i, e in powers.items() if e))] = c
    return MultiPoly(p.nvars, terms, prefix="y"), m


# ---------------------------------------------------------------------------
# classification


def classify(p: MultiPoly) -> str:
    """The verdict the report prints for the hypersurface p = 0 at its chart's origin.

    "Smooth" when p's multiplicity at 0 is at most 1, so the origin is off
    the surface or a regular point of it.  "AType(m)" when p is the A_m
    normal form ``a_type_polynomial(m, nvars - 2)``, whatever its prefix.
    Those are the only transforms an A_k trace reaches; any other p raises
    ValueError naming it.
    """
    if p.multiplicity_at_origin() <= 1:
        return SMOOTH
    # the normal form's top degree is the last variable's exponent, m + 1
    m = max(sum(e for _, e in mono) for mono in p.terms) - 1
    if p.nvars >= 2 and p == a_type_polynomial(m, p.nvars - 2):
        return f"AType({m})"
    raise ValueError(f"the polynomial {p.terms} in {p.nvars} variables is neither smooth at "
                     "the origin nor an A-type normal form")


# ---------------------------------------------------------------------------
# resolution traces


class ResolutionStep:
    __slots__ = ("chart", "polynomial", "multiplicity", "verdict")

    def __init__(self, chart: int, polynomial: MultiPoly, multiplicity: int,
                 verdict: str) -> None:
        self.chart = chart
        self.polynomial = polynomial
        self.multiplicity = multiplicity
        self.verdict = verdict


def resolve_A(k: int, n: int) -> list[ResolutionStep]:
    """Blow up x_0^2+...+x_n^2+x_{n+1}^(k+1) in the last chart until smooth.

    The residual singularity always sits at the origin of the last
    chart, so each step recurses there.  Each step records the proper
    transform, the stripped multiplicity, and its classification; the
    last step's is "Smooth".  ceil(k/2) steps are expected.  A transform
    that ``classify`` refuses raises its ValueError, and no smooth
    transform after k + 1 steps raises RuntimeError.
    """
    last = n + 1
    current = a_type_polynomial(k, n)
    steps: list[ResolutionStep] = []
    for _ in range(k + 1):
        current, mult = proper_transform(current, last)
        verdict = classify(current)
        steps.append(
            ResolutionStep(chart=last, polynomial=current, multiplicity=mult, verdict=verdict)
        )
        if verdict == SMOOTH:
            return steps
    raise RuntimeError(f"no smooth transform after {k + 1} steps")


# ---------------------------------------------------------------------------
# word-rewrite mirror


def milnor_word(k: int) -> str:
    """The word of k+1 sphere twists."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return SPHERE * (k + 1)


def resolution_word_chain(k: int) -> list[tuple[int, str, str, str]]:
    """Word rewrite mirroring resolve_A, one contraction per blow-up.

    Each step is (position, direction, before, after).  The j-th blow-up
    (1-based) trades the leftmost remaining pair of sphere twists for a
    boundary twist; j-1 boundary twists already sit to its left, so the
    contraction lands at position j-1.
    """
    word = milnor_word(k)
    chain: list[tuple[int, str, str, str]] = []
    for j in range(ceil(k / 2)):
        after = substitute(word, j, "contract")
        chain.append((j, "contract", word, after))
        word = after
    return chain


# ---------------------------------------------------------------------------
# the resolve suite


def suite(k: int, dim: int) -> SuiteResult:
    """resolve: the resolution trace of the A_k singularity in ``dim`` + 2 variables."""
    timing: dict[str, float] = {}
    trace = timed(timing, "trace_ms", resolve_A, k, dim)
    chain = timed(timing, "word_chain_ms", resolution_word_chain, k)

    expected_steps = -(-k // 2)
    gates = [
        (len(trace), expected_steps, "==",
         f"step count {len(trace)}, expected ceil(k/2) = {expected_steps}"),
        (len(chain), len(trace), "==",
         f"word chain length {len(chain)} != step count {len(trace)}"),
    ]

    # each step's cells, formatted once for the json record and the rows
    header = ["step", "chart", "polynomial", "multiplicity", "verdict"]
    steps = timed(timing, "text_ms", lambda: [
        (s.chart, s.polynomial.to_text(), s.multiplicity, s.verdict) for s in trace])
    initial = a_type_polynomial(k, dim)
    trace_report = {
        "k": k,
        "n": dim,
        "initial": initial.to_text(),
        "initial_verdict": classify(initial),
        "steps": [dict(zip(header[1:], step)) for step in steps],
        "step_count": len(trace),
        "resolved": True,                   # resolve_A ends each trace Smooth or raises
    }

    report = {
        "config": config_dict(DEFAULT_CONFIG, k=k, dim=dim),
        "trace": trace_report,
        "word_chain": [
            {"position": position, "direction": direction,
             "before": " ".join(before), "after": " ".join(after)}
            for position, direction, before, after in chain
        ],
    }

    cells = [[str(i), str(c), p, str(m), v] for i, (c, p, m, v) in enumerate(steps, 1)]
    # the csv quotes the polynomial, the one cell that holds spaces and signs
    csv_rows = [header] + [[i, c, f'"{p}"', m, v] for i, c, p, m, v in cells]
    table_rows = [header] + cells + [result_row(gates, 5)]
    return SuiteResult(report, gates, csv_rows, table_rows, timing)
