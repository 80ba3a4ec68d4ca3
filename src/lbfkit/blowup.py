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

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

from .mcg import (
    SubstitutionStep,
    TwistGen,
    TwistWord,
    disk_cotangent_sphere,
    substitute,
)

Exponents = tuple[int, ...]

SMOOTH = "smooth"
A_TYPE = "a_type"
UNCLASSIFIED = "unclassified"


class NonRationalCoefficientError(TypeError):
    """Raised when a coefficient cannot be represented exactly."""


class OriginError(ValueError):
    """Raised when a blow-up is requested for a polynomial not vanishing at 0."""


def _as_fraction(value: object) -> Fraction:
    # Fraction(float) would silently take the binary expansion; refuse it.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise NonRationalCoefficientError(
        f"coefficient {value!r} of type {type(value).__name__} is not an exact rational; "
        "use int, Fraction, or a rational string"
    )


class MultiPoly:
    """Multivariate polynomial with exact rational coefficients.

    Terms live in a dict mapping exponent vectors (one slot per ring
    variable) to nonzero Fractions.  The printed form is canonical:
    graded lexicographic, lowest total degree first.
    """

    __slots__ = ("nvars", "terms", "prefix")

    def __init__(
        self,
        nvars: int,
        terms: dict[Exponents, object] | None = None,
        *,
        prefix: str = "x",
    ) -> None:
        if nvars < 1:
            raise ValueError(f"need at least one variable, got nvars={nvars}")
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _as_fraction(coeff)
            if c:
                c = clean.get(exps, Fraction(0)) + c
                if c:
                    clean[exps] = c
                else:
                    del clean[exps]
        self.nvars = nvars
        self.terms = clean
        self.prefix = prefix

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, *, prefix: str = "x") -> "MultiPoly":
        return cls(nvars, {}, prefix=prefix)

    @classmethod
    def constant(cls, nvars: int, value: object, *, prefix: str = "x") -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value}, prefix=prefix)

    @classmethod
    def variable(
        cls, nvars: int, index: int, power: int = 1, *, prefix: str = "x"
    ) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} outside 0..{nvars - 1}")
        if power < 1:
            raise ValueError(f"power must be >= 1, got {power}")
        exps = tuple(power if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1}, prefix=prefix)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"mixing rings with {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + c
        return MultiPoly(self.nvars, terms, prefix=self.prefix)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(
            self.nvars, {e: -c for e, c in self.terms.items()}, prefix=self.prefix
        )

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms: dict[Exponents, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(a + b for a, b in zip(ea, eb))
                terms[exps] = terms.get(exps, Fraction(0)) + ca * cb
        return MultiPoly(self.nvars, terms, prefix=self.prefix)

    def scale(self, value: object) -> "MultiPoly":
        c = _as_fraction(value)
        return MultiPoly(
            self.nvars, {e: c * v for e, v in self.terms.items()}, prefix=self.prefix
        )

    def __pow__(self, power: int) -> "MultiPoly":
        if power < 0:
            raise ValueError("negative powers are not polynomial")
        out = MultiPoly.constant(self.nvars, 1, prefix=self.prefix)
        base = self
        while power:
            if power & 1:
                out = out * base
            power >>= 1
            if power:    # a square past the top bit would go unused
                base = base * base
        return out

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def gradient_at_origin(self) -> tuple[Fraction, ...]:
        """Coefficients of the linear part, one slot per variable."""
        grad = [Fraction(0)] * self.nvars
        for exps, c in self.terms.items():
            if sum(exps) == 1:
                grad[exps.index(1)] += c
        return tuple(grad)

    def multiplicity_at_origin(self) -> int:
        """Minimal total degree over all terms; the order of vanishing at 0."""
        if not self.terms:
            raise ValueError("the zero polynomial has no multiplicity")
        return min(sum(e) for e in self.terms)

    def min_exponent(self, index: int) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no exponents")
        return min(e[index] for e in self.terms)

    def divisible_by(self, index: int) -> bool:
        return bool(self.terms) and self.min_exponent(index) >= 1

    # -- canonical form ----------------------------------------------------

    def _ordered(self) -> list[tuple[Exponents, Fraction]]:
        # Graded lex, ascending degree; within a degree the variable with
        # the smallest index dominates, so y0^2 prints before y1^2.
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), tuple(-e for e in item[0])),
        )

    def to_text(self, prefix: str | None = None) -> str:
        if not self.terms:
            return "0"
        pfx = self.prefix if prefix is None else prefix
        pieces: list[str] = []
        for exps, coeff in self._ordered():
            factors = [
                f"{pfx}{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            ]
            mono = "*".join(factors)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
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


def a_type_polynomial(k: int, n: int, *, prefix: str = "x") -> MultiPoly:
    """x_0^2 + ... + x_n^2 + x_{n+1}^(k+1) in n+2 variables."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    nvars = n + 2
    p = MultiPoly.zero(nvars, prefix=prefix)
    for i in range(n + 1):
        p = p + MultiPoly.variable(nvars, i, 2, prefix=prefix)
    return p + MultiPoly.variable(nvars, n + 1, k + 1, prefix=prefix)


# ---------------------------------------------------------------------------
# blow-up charts


def blowup_chart(p: MultiPoly, j: int) -> MultiPoly:
    """Total transform of p on the j-th chart of the point blow-up.

    On exponent vectors the substitution x_i -> y_i y_j (i != j),
    x_j -> y_j sends a term to the same vector except that the j-th
    slot becomes the term's total degree.
    """
    if not 0 <= j < p.nvars:
        raise ValueError(f"chart index {j} outside 0..{p.nvars - 1}")
    if p.constant_term != 0:
        raise OriginError(
            f"polynomial has constant term {p.constant_term}; "
            "blow-up charts are defined only for polynomials vanishing at the origin"
        )
    terms: dict[Exponents, Fraction] = {}
    for exps, c in p.terms.items():
        new = list(exps)
        new[j] = sum(exps)
        key = tuple(new)
        terms[key] = terms.get(key, Fraction(0)) + c
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
    m = total.min_exponent(j)
    terms: dict[Exponents, Fraction] = {}
    for exps, c in total.terms.items():
        new = list(exps)
        new[j] -= m
        terms[tuple(new)] = c
    return MultiPoly(p.nvars, terms, prefix="y"), m


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class SingularityVerdict:
    kind: str                 # SMOOTH, A_TYPE, or UNCLASSIFIED
    m: int | None = None
    reason: str = ""

    @classmethod
    def smooth(cls) -> "SingularityVerdict":
        return cls(SMOOTH)

    @classmethod
    def a_type(cls, m: int) -> "SingularityVerdict":
        if m < 1:
            raise ValueError(f"A-type index must be >= 1, got {m}")
        return cls(A_TYPE, m=m)

    @classmethod
    def unclassified(cls, reason: str) -> "SingularityVerdict":
        return cls(UNCLASSIFIED, reason=reason)

    @property
    def is_smooth(self) -> bool:
        return self.kind == SMOOTH

    @property
    def is_a_type(self) -> bool:
        return self.kind == A_TYPE

    def __str__(self) -> str:
        if self.kind == SMOOTH:
            return "Smooth"
        if self.kind == A_TYPE:
            return f"AType({self.m})"
        return f"Unclassified({self.reason})"


def classify(p: MultiPoly) -> SingularityVerdict:
    """Classify the hypersurface p = 0 at the origin of its chart.

    Smooth when the origin is off the surface or a regular point of it.
    AType(m) when p is a unit rescale of a permuted A_m normal form,
    a sum of squares of all but one variable plus the last variable to
    the power m+1.  Anything else is Unclassified with a reason; that
    is a value, not an error.
    """
    if p.is_zero():
        return SingularityVerdict.unclassified("zero polynomial, no hypersurface")
    if p.constant_term != 0:
        # The surface misses the origin entirely; nothing to classify there.
        return SingularityVerdict.smooth()
    if any(p.gradient_at_origin()):
        return SingularityVerdict.smooth()

    per_var: dict[int, tuple[int, Fraction]] = {}
    for exps, c in p.terms.items():
        support = [i for i, e in enumerate(exps) if e]
        if len(support) != 1:
            return SingularityVerdict.unclassified(
                "not A-type normal form"
            )
        i = support[0]
        if i in per_var:
            return SingularityVerdict.unclassified(
                f"variable {p.prefix}{i} appears in two terms"
            )
        per_var[i] = (exps[i], c)
    missing = [i for i in range(p.nvars) if i not in per_var]
    if missing:
        return SingularityVerdict.unclassified(
            f"variable {p.prefix}{missing[0]} absent; singular locus not isolated"
        )
    coeffs = {c for _, c in per_var.values()}
    if len(coeffs) != 1:
        return SingularityVerdict.unclassified(
            "coefficients differ; not a single unit rescale of the normal form"
        )
    exps = sorted(e for e, _ in per_var.values())
    if exps[0] < 2:
        # Exponent 1 cannot occur: it would have shown in the gradient.
        return SingularityVerdict.unclassified("not A-type normal form")
    if all(e == 2 for e in exps):
        return SingularityVerdict.a_type(1)
    if exps[:-1] == [2] * (len(exps) - 1) and exps[-1] > 2:
        return SingularityVerdict.a_type(exps[-1] - 1)
    return SingularityVerdict.unclassified("not A-type normal form")


# ---------------------------------------------------------------------------
# resolution traces


@dataclass(frozen=True)
class ResolutionStep:
    chart: int
    polynomial: MultiPoly
    multiplicity: int
    verdict: SingularityVerdict

    def as_dict(self) -> dict[str, object]:
        return {
            "chart": self.chart,
            "polynomial": self.polynomial.to_text(),
            "multiplicity": self.multiplicity,
            "verdict": str(self.verdict),
        }


@dataclass
class ResolutionTrace:
    k: int
    n: int
    initial: MultiPoly
    steps: list[ResolutionStep] = field(default_factory=list)
    diagnostic: str | None = None

    @property
    def step_count(self) -> int:
        return len(self.steps)

    @property
    def final_verdict(self) -> SingularityVerdict | None:
        return self.steps[-1].verdict if self.steps else None

    @property
    def resolved(self) -> bool:
        final = self.final_verdict
        return final is not None and final.is_smooth and self.diagnostic is None

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "k": self.k,
            "n": self.n,
            "initial": self.initial.to_text(),
            "initial_verdict": str(classify(self.initial)),
            "steps": [s.as_dict() for s in self.steps],
            "step_count": self.step_count,
            "resolved": self.resolved,
        }
        if self.diagnostic is not None:
            out["diagnostic"] = self.diagnostic
        return out


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
        if verdict.is_smooth:
            return trace
        if not verdict.is_a_type:
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
    letters = tuple(TwistGen.sphere() for _ in range(k + 1))
    return TwistWord(letters, disk_cotangent_sphere(n))


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
