"""Exact blow-up calculus for isolated A-type hypersurface singularities.

Everything here is polynomial algebra over exact rationals.  A point
blow-up of affine space replaces the origin by a projective space; on
the j-th standard chart the pullback of coordinates reads

    x_i = y_i * y_j   (i != j),        x_j = y_j,

so a polynomial vanishing at the origin picks up a factor y_j^m, where
m is its multiplicity there.  Stripping that factor gives the proper
transform.  For the family

    x_0^2 + ... + x_n^2 + x_{n+1}^{k+1}

the transform in the last chart is again of the same shape with k
dropped by two, which is why ceil(k/2) blow-ups smooth it out.  The
resolution trace records each step together with a classification of
the transform, and the whole process mirrors a word rewrite on twist
words: each blow-up trades two sphere twists for one boundary twist.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from . import poly
from .mcg import (
    SPHERE,
    SubstitutionStep,
    TwistWord,
    disk_cotangent_sphere,
    substitute,
)
from .poly import Monomial, Rational

SMOOTH = "Smooth"


class NonRationalCoefficientError(TypeError):
    """Raised when a coefficient cannot be represented exactly."""


class OriginError(ValueError):
    """Raised when a blow-up is requested for a polynomial not vanishing at 0."""


def _rational(value: object) -> Rational:
    """Validate an incoming exact coefficient and put it in normal form."""
    # Fraction(float) would silently take the binary expansion; refuse it.
    if isinstance(value, (Fraction, str)):
        return poly.norm(Fraction(value))
    if isinstance(value, int):
        return int(value)
    raise NonRationalCoefficientError(
        f"coefficient {value!r} of type {type(value).__name__} is not an exact rational; "
        "use int, Fraction, or a rational string"
    )


class MultiPoly:
    """Multivariate polynomial with exact rational coefficients.

    ``terms`` is a ``poly`` dict keyed by sparse ``(index, exp)`` monomials
    over the slots 0..nvars-1.  The constructor trusts it, so internal
    results skip validation; ``zero``, ``constant`` and ``variable`` check
    what enters from outside.  The printed form is canonical: graded
    lexicographic, lowest total degree first.
    """

    __slots__ = ("nvars", "terms", "prefix")

    def __init__(self, nvars: int, terms: poly.Poly, *, prefix: str = "x") -> None:
        self.nvars = nvars
        self.terms = terms
        self.prefix = prefix

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        if nvars < 1:
            raise ValueError(f"need at least one variable, got nvars={nvars}")
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: object) -> "MultiPoly":
        p = cls.zero(nvars)
        c = _rational(value)
        if c:
            p.terms[()] = c
        return p

    @classmethod
    def variable(cls, nvars: int, index: int, power: int = 1) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} outside 0..{nvars - 1}")
        if power < 1:
            raise ValueError(f"power must be >= 1, got {power}")
        return cls(nvars, {((index, power),): 1})

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"mixing rings with {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return MultiPoly(self.nvars, poly.add(self.terms, other.terms), prefix=self.prefix)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(
            self.nvars, {e: -c for e, c in self.terms.items()}, prefix=self.prefix
        )

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return MultiPoly(self.nvars, poly.mul(self.terms, other.terms), prefix=self.prefix)

    def scale(self, value: object) -> "MultiPoly":
        return self * MultiPoly.constant(self.nvars, value)

    def __pow__(self, power: int) -> "MultiPoly":
        if power < 0:
            raise ValueError("negative powers are not polynomial")
        out = MultiPoly(self.nvars, {(): 1}, prefix=self.prefix)
        for _ in range(power):
            out = out * self
        return out

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> Rational:
        return self.terms.get((), 0)

    def gradient_at_origin(self) -> tuple[Rational, ...]:
        """Coefficients of the linear part, one slot per variable."""
        grad: list[Rational] = [0] * self.nvars
        for mono, c in self.terms.items():
            if len(mono) == 1 and mono[0][1] == 1:
                grad[mono[0][0]] += c
        return tuple(grad)

    def multiplicity_at_origin(self) -> int:
        """Minimal total degree over all terms; the order of vanishing at 0."""
        if not self.terms:
            raise ValueError("the zero polynomial has no multiplicity")
        return min(sum(e for _, e in mono) for mono in self.terms)

    def min_exponent(self, index: int) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no exponents")
        return min(next((e for i, e in mono if i == index), 0) for mono in self.terms)

    def divisible_by(self, index: int) -> bool:
        return bool(self.terms) and self.min_exponent(index) >= 1

    # -- canonical form ----------------------------------------------------

    def _ordered(self) -> list[tuple[Monomial, Rational]]:
        # Graded lex, ascending degree; within a degree the variable with
        # the smallest index dominates, so y0^2 prints before y1^2.  The
        # (index, -exp) pairs order like the negated dense exponent vectors,
        # because of two monomials of one degree neither is a proper prefix.
        def key(item: tuple[Monomial, Rational]) -> tuple[int, Monomial]:
            mono = item[0]
            return sum(e for _, e in mono), tuple((i, -e) for i, e in mono)

        return sorted(self.terms.items(), key=key)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for mono, coeff in self._ordered():
            mono_text = "*".join(
                f"{self.prefix}{i}" + (f"^{e}" if e > 1 else "") for i, e in mono
            )
            if not mono_text:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono_text
            else:
                body = f"{abs(coeff)}*{mono_text}"
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        head_sign, head = pieces[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_text()})"

    def __eq__(self, other: object) -> bool:
        # Prefix is presentation only; equality is ring plus terms.
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))


def a_type_polynomial(k: int, n: int) -> MultiPoly:
    """x_0^2 + ... + x_n^2 + x_{n+1}^(k+1) in n+2 variables."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    nvars = n + 2
    p = MultiPoly.zero(nvars)
    for i in range(n + 1):
        p = p + MultiPoly.variable(nvars, i, 2)
    return p + MultiPoly.variable(nvars, n + 1, k + 1)


# ---------------------------------------------------------------------------
# blow-up charts


def blowup_chart(p: MultiPoly, j: int) -> MultiPoly:
    """Total transform of p on the j-th chart of the point blow-up.

    On monomials the substitution x_i -> y_i y_j (i != j), x_j -> y_j
    keeps every exponent except the j-th, which becomes the term's total
    degree.  That map is injective (the old j-th exponent is the total
    minus the others), so no two terms collide.
    """
    if not 0 <= j < p.nvars:
        raise ValueError(f"chart index {j} outside 0..{p.nvars - 1}")
    if p.constant_term != 0:
        raise OriginError(
            f"polynomial has constant term {p.constant_term}; "
            "blow-up charts are defined only for polynomials vanishing at the origin"
        )
    terms = {
        poly.monomial({**dict(mono), j: sum(e for _, e in mono)}): c
        for mono, c in p.terms.items()
    }
    return MultiPoly(p.nvars, terms, prefix="y")


def proper_transform(p: MultiPoly, j: int) -> tuple[MultiPoly, int]:
    """Strip the exceptional factor y_j^m from the total transform.

    Returns the divided polynomial and the multiplicity m, which equals
    the order of vanishing of p at the origin and so does not depend on
    the chart.
    """
    total = blowup_chart(p, j)
    if total.is_zero():
        raise ValueError("the zero polynomial has no proper transform")
    # m >= 1: every term of the total transform has y_j to its total degree
    m = total.min_exponent(j)
    strip = ((j, -m),)
    terms = {poly.mul_monomials(mono, strip): c for mono, c in total.terms.items()}
    return MultiPoly(p.nvars, terms, prefix="y"), m


# ---------------------------------------------------------------------------
# classification


def classify(p: MultiPoly) -> str:
    """Classify the hypersurface p = 0 at the origin of its chart.

    The verdict is the text the report prints.  "Smooth" when the origin
    is off the surface or a regular point of it.  "AType(m)" when p is a
    unit rescale of a permuted A_m normal form, a sum of squares of all
    but one variable plus the last variable to the power m+1.  Anything
    else is "Unclassified(reason)"; that is a value, not an error.
    """
    if p.is_zero():
        return "Unclassified(zero polynomial, no hypersurface)"
    if p.constant_term != 0:
        # The surface misses the origin entirely; nothing to classify there.
        return SMOOTH
    if any(p.gradient_at_origin()):
        return SMOOTH

    per_var: dict[int, tuple[int, Rational]] = {}
    for mono, c in p.terms.items():
        if len(mono) != 1:
            return "Unclassified(not A-type normal form)"
        ((i, e),) = mono
        if i in per_var:
            return f"Unclassified(variable {p.prefix}{i} appears in two terms)"
        per_var[i] = (e, c)
    missing = [i for i in range(p.nvars) if i not in per_var]
    if missing:
        return f"Unclassified(variable {p.prefix}{missing[0]} absent; singular locus not isolated)"
    coeffs = {c for _, c in per_var.values()}
    if len(coeffs) != 1:
        return "Unclassified(coefficients differ; not a single unit rescale of the normal form)"
    exps = sorted(e for e, _ in per_var.values())
    if exps[0] < 2:
        # Exponent 1 cannot occur: it would have shown in the gradient.
        return "Unclassified(not A-type normal form)"
    if all(e == 2 for e in exps):
        return "AType(1)"
    if exps[:-1] == [2] * (len(exps) - 1) and exps[-1] > 2:
        return f"AType({exps[-1] - 1})"
    return "Unclassified(not A-type normal form)"


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


class ResolutionTrace:
    __slots__ = ("k", "n", "initial", "steps", "diagnostic")

    def __init__(self, k: int, n: int, initial: MultiPoly,
                 steps: list[ResolutionStep] | None = None,
                 diagnostic: str | None = None) -> None:
        self.k = k
        self.n = n
        self.initial = initial
        self.steps = [] if steps is None else steps
        self.diagnostic = diagnostic

    @property
    def step_count(self) -> int:
        return len(self.steps)

    @property
    def resolved(self) -> bool:
        return bool(self.steps) and self.steps[-1].verdict == SMOOTH and self.diagnostic is None


def resolve_A(k: int, n: int) -> ResolutionTrace:
    """Blow up x_0^2+...+x_n^2+x_{n+1}^(k+1) in the last chart until smooth.

    The residual singularity always sits at the origin of the last
    chart, so each step recurses there.  The trace records the proper
    transform, the stripped multiplicity, and a fresh classification;
    a non-A-type verdict before smoothness halts with a diagnostic.
    """
    trace = ResolutionTrace(k=k, n=n, initial=a_type_polynomial(k, n))
    last = n + 1
    current = trace.initial
    # ceil(k/2) steps are expected; anything beyond k is a runaway.
    for _ in range(k + 1):
        proper, mult = proper_transform(current, last)
        verdict = classify(proper)
        trace.steps.append(
            ResolutionStep(chart=last, polynomial=proper, multiplicity=mult, verdict=verdict)
        )
        if verdict == SMOOTH:
            return trace
        if not verdict.startswith("AType("):
            trace.diagnostic = (
                f"classification failed after {trace.step_count} steps: {verdict}"
            )
            return trace
        current = proper
    trace.diagnostic = f"no smooth transform after {trace.step_count} steps"
    return trace


# ---------------------------------------------------------------------------
# word-rewrite mirror


def milnor_word(k: int, n: int = 2) -> TwistWord:
    """Word of k+1 sphere twists over the disk cotangent fiber."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return TwistWord(SPHERE * (k + 1), disk_cotangent_sphere(n))


def resolution_word_chain(k: int, n: int = 2) -> list[SubstitutionStep]:
    """Word rewrite mirroring resolve_A, one contraction per blow-up.

    The j-th blow-up (1-based) trades the leftmost remaining pair of
    sphere twists for a boundary twist; j-1 boundary twists already sit
    to its left, so the contraction lands at position j-1.
    """
    word = milnor_word(k, n)
    chain: list[SubstitutionStep] = []
    for j in range(ceil(k / 2)):
        after = substitute(word, j, "contract")
        chain.append(
            SubstitutionStep(position=j, direction="contract", before=word, after=after)
        )
        word = after
    return chain
