"""Symbolic exterior calculus over a fixed, finite generator set.

The engine works with differential forms whose coefficients are polynomials
(with exact rational coefficients) in a small set of atoms: coordinate
variables (r1, r2, r, t, s, z1, z2) and opaque function symbols (f, u', mu,
mu', sigma, the contact-profile symbols fc, gc, ...).  One table, built at
import, holds the partial derivative of every atom against every variable;
function symbols carry those entries and nothing else, so identities proved
here hold identically in them.

Every model downstream is a set of disk factors over a contact base, and one
``Algebra`` layout covers them all: per factor, the odd closed generators
d<radius> and d<angle>; then the odd contact form, whose d is the even
generator d<contact>, last in index order.  Three builders name the models:

* ``disk_bundle_algebra``  -- one disk factor over a contact base
  (generators dr, dtheta, alpha, dalpha),
* ``double_disk_algebra``  -- two disk factors over a contact base
  (dr1, dtheta1, dr2, dtheta2, alpha, dalpha),
* ``collar_algebra``       -- a collar [0, 1+eps] x boundary x S^1
  (dr, dphi, lam, dlam).

A tangent field is a dict from dual symbol to coefficient, such as
``{"reeb": 1, "d_theta": -1}``: ``d_<coord>`` pairs to 1 with d<coord>,
``reeb`` with the contact form.  ``interior`` contracts a form with one.

Truncation encodes the contact dimension: odd generators square to zero and
the even generator satisfies (dalpha)^m = 0 for m >= n.  The parameter n is
fixed per algebra instance; identity checks loop over small n.

A scalar is a sparse polynomial in the atoms: a dict from monomial to
coefficient.  A monomial is a tuple of ``(atom, exp)`` pairs sorted by atom,
with no zero exponent; the constant monomial is ``()``.  Exponents may be
negative (the Liouville field needs 1/r).  Coefficients are exact and in
normal form: never zero, an ``int`` when the denominator is 1 and a
``Fraction`` only otherwise, so the common integer case never pays for
``Fraction`` arithmetic and a dict of coefficients compares, hashes and
prints alike whichever type built it.  Floats are refused with
``TypeError`` wherever a coefficient enters (``ScalarExpr.const`` and the
ring operators), since ``Fraction(0.1)`` would silently take the binary
expansion of 0.1.

``wedge_power`` takes even forms only (every word of even degree, so the
form is central) and expands the power by the binomial theorem; odd or
mixed-parity input raises ``ValueError``.

All values are immutable; all operations are pure.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import comb

Rational = int | Fraction
ScalarMonomial = tuple[tuple[str, int], ...]

# A wedge monomial maps generator index -> exponent, sorted by index.  Odd
# generators always carry exponent 1.
WedgeWord = tuple[tuple[int, int], ...]


class MissingRuleError(KeyError):
    """Raised when differentiation hits an (atom, variable) pair with no table entry."""


class AlgebraMismatchError(ValueError):
    """Raised when forms over different algebras meet, or a name is not in the algebra."""


# ---------------------------------------------------------------------------
# scalar layer


def _norm(q: Rational) -> Rational:
    """Coefficient normal form: an int when the denominator is 1."""
    if q.__class__ is Fraction and q.denominator == 1:
        return q.numerator
    return q


def _mul_monomials(m1: ScalarMonomial, m2: ScalarMonomial) -> ScalarMonomial:
    """Merge two atom-sorted monomials, adding exponents and dropping zeros."""
    if not m2:
        return m1
    if not m1:
        return m2
    out: list[tuple[str, int]] = []
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


def _rational(value: object) -> Rational:
    """Validate an incoming exact coefficient and put it in normal form."""
    if isinstance(value, Fraction):
        return _norm(value)
    if isinstance(value, int):
        return int(value)
    raise TypeError(
        f"exact coefficient {value!r} of type {type(value).__name__} is not an "
        "int or a Fraction"
    )


class ScalarExpr:
    """A finite sum of atom monomials with exact rational coefficients.

    The stored dict *is* the normal form of the module docstring, so
    equality is dict equality; ``3`` and ``Fraction(3)`` print, compare and
    hash alike.  Anything other than an int or a Fraction raises
    ``TypeError``.  The constructor keeps the dict it is given, uncopied;
    every caller passes a new one.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[ScalarMonomial, Rational]):
        self.terms = terms

    # -- constructors

    @staticmethod
    def const(value: Rational) -> "ScalarExpr":
        q = _rational(value)
        return ScalarExpr({(): q} if q else {})

    @staticmethod
    def atom(name: str) -> "ScalarExpr":
        return ScalarExpr({((name, 1),): 1})

    # -- ring structure

    def __add__(self, other: "ScalarExpr | Rational") -> "ScalarExpr":
        out = dict(self.terms)
        for mono, coeff in _as_scalar(other).terms.items():
            acc = out.get(mono, 0) + coeff
            if acc:
                out[mono] = _norm(acc)
            else:
                out.pop(mono, None)
        return ScalarExpr(out)

    __radd__ = __add__

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "ScalarExpr | Rational") -> "ScalarExpr":
        return self + (-_as_scalar(other))

    def __mul__(self, other: "ScalarExpr | Rational") -> "ScalarExpr":
        b = _as_scalar(other).terms
        out: dict[ScalarMonomial, Rational] = {}
        get = out.get
        # this loop is most of the TOP_POWER identity's time
        for m1, c1 in self.terms.items():
            for m2, c2 in b.items():
                mono = _mul_monomials(m1, m2)
                acc = get(mono, 0) + c1 * c2
                if acc:
                    out[mono] = _norm(acc)
                else:
                    out.pop(mono, None)
        return ScalarExpr(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ScalarExpr":
        if exponent < 0:
            # exact inversion works only for a single monomial
            if len(self.terms) == 1:
                ((mono, coeff),) = self.terms.items()
                return ScalarExpr(
                    {tuple((a, e * exponent) for a, e in mono): _norm(Fraction(coeff) ** exponent)}
                )
            raise ValueError("negative power of a non-monomial expression")
        # a left fold: for a sparse base it beats repeated squaring
        out = ScalarExpr.const(1)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ScalarExpr.const(other)
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # a constant, zero included, equals its coefficient and hashes alike
        if self.terms.keys() <= {()}:
            return hash(self.terms.get((), 0))
        return hash(tuple(sorted(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- calculus

    def diff(self, var: str) -> "ScalarExpr":
        """Partial derivative; linear, product rule over monomials."""
        out = ScalarExpr.const(0)
        for mono, coeff in self.terms.items():
            for atom, exp in mono:
                datom = derivative(atom, var)
                if datom.is_zero():
                    continue
                rest = _mul_monomials(mono, ((atom, -1),))
                out = out + ScalarExpr({rest: _norm(coeff * exp)}) * datom
        return out

    # -- display

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self.terms.items()):
            factors = [str(coeff)]
            for atom, exp in mono:
                factors.append(atom if exp == 1 else f"{atom}^{exp}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ScalarExpr({self.to_text()})"


def _as_scalar(x: "ScalarExpr | Rational") -> ScalarExpr:
    return x if isinstance(x, ScalarExpr) else ScalarExpr.const(x)


ZERO = ScalarExpr.const(0)
ONE = ScalarExpr.const(1)


# ---------------------------------------------------------------------------
# derivative table


VARIABLES = ("r1", "r2", "r", "t", "s", "z1", "z2")

# Derivative chains reach this depth; d^2-style tests consume two extra
# primes per pass, so 8 leaves ample headroom.
CHAIN_DEPTH = 8


def _derivative_table() -> dict[tuple[str, str], ScalarExpr]:
    """The partial derivative of each atom against each variable, one entry a pair.

    Coordinate variables obey d(var)/d(var) = 1 and vanish against the other
    variables.  f stands for u(r1^2 + r2^2) composed with the radii, hence
    the 2*r_i chain factor at every order.  mu and its primes are functions
    of r1 alone; sigma of t; fc/gc of the collar radius r.  Every function
    atom has an entry for every variable, explicit zeros included; a pair
    without one raises MissingRuleError rather than silently vanishing.
    """
    table = {(a, v): ONE if a == v else ZERO for a in VARIABLES for v in VARIABLES}
    # (head, stem of the primed names, chain factor per variable); every
    # other variable gets an explicit zero
    chains = (
        ("f", "u", {v: 2 * ScalarExpr.atom(v) for v in ("r1", "r2")}),
        ("mu", "mu", {"r1": ONE}),
        ("sigma", "sigma", {"t": ONE}),
        ("fc", "fc", {"r": ONE}),
        ("gc", "gc", {"r": ONE}),
    )
    for head, stem, factors in chains:
        names = [head] + [stem + "p" * k for k in range(1, CHAIN_DEPTH + 2)]
        # the deepest atom gets no entries: forces an explicit error
        for name, nxt in zip(names, names[1:]):
            for v in VARIABLES:
                table[name, v] = factors[v] * ScalarExpr.atom(nxt) if v in factors else ZERO
    return table


DERIVATIVES = _derivative_table()


def derivative(atom: str, var: str) -> ScalarExpr:
    """d(atom)/d(var) from DERIVATIVES."""
    try:
        return DERIVATIVES[atom, var]
    except KeyError:
        raise MissingRuleError(
            f"no derivative rule for atom '{atom}' with respect to '{var}'"
        ) from None


# ---------------------------------------------------------------------------
# generator algebras


class Algebra:
    """Disk factors (radius, angle) over a contact base with 1-form ``contact``.

    ``names`` lists the generators in the module docstring's index order;
    ``contact`` and ``even`` are the indices of the contact form and of
    d<contact>; ``coord_forms`` maps each radius to the index of d<radius>,
    which drives d on coefficients; ``duals`` maps each dual symbol to the
    one odd generator it contracts to 1: d_<coord> to d<coord>, ``reeb`` to
    the contact form.
    """

    def __init__(self, name: str, n: int, disks: tuple[tuple[str, str], ...], contact: str):
        if n < 1:
            raise ValueError("truncation parameter n must be >= 1")
        self.name = name
        self.n = n
        coords = [coord for disk in disks for coord in disk]
        self.names = tuple("d" + coord for coord in coords) + (contact, "d" + contact)
        self.contact = len(coords)
        self.even = len(coords) + 1
        self.coord_forms = {radius: self.names.index("d" + radius) for radius, _ in disks}
        self.duals = {"d_" + coord: i for i, coord in enumerate(coords)} | {"reeb": self.contact}

    def gen(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise AlgebraMismatchError(
                f"algebra '{self.name}' has no generator '{name}'"
            ) from None

    def __repr__(self) -> str:
        return f"Algebra({self.name}, n={self.n})"


def disk_bundle_algebra(n: int) -> Algebra:
    """One disk factor (r, theta) over a contact base with form alpha."""
    return Algebra("disk_bundle", n, (("r", "theta"),), "alpha")


def double_disk_algebra(n: int) -> Algebra:
    """Two disk factors (r1, theta1), (r2, theta2) over a contact base."""
    return Algebra("double_disk", n, (("r1", "theta1"), ("r2", "theta2")), "alpha")


def collar_algebra(n: int) -> Algebra:
    """Collar [0, 1+eps] x (contact boundary) x S^1 with angle phi."""
    return Algebra("collar", n, (("r", "phi"),), "lam")


# ---------------------------------------------------------------------------
# wedge-word arithmetic


def _word_degree(algebra: Algebra, word: WedgeWord) -> int:
    return sum(e if i != algebra.even else 2 * e for i, e in word)


def _mul_words(algebra: Algebra, w1: WedgeWord, w2: WedgeWord) -> tuple[int, WedgeWord] | None:
    """Product of canonical wedge words: (sign, merged word) or None if zero.

    Sign counts transpositions of odd generators only; the even generator is
    central.  Returns None when an odd generator repeats or the even
    generator's power exceeds its cap n - 1.
    """
    even = algebra.even
    odd1 = [i for i, _ in w1 if i != even]
    odd2 = [i for i, _ in w2 if i != even]
    if set(odd1) & set(odd2):
        return None
    inversions = 0
    for a in odd1:
        for b in odd2:
            if a > b:
                inversions += 1
    powers: dict[int, int] = dict(w1)
    for i, e in w2:
        powers[i] = powers.get(i, 0) + e
    if powers.get(even, 0) >= algebra.n:
        return None
    word = tuple(sorted(powers.items()))
    return (-1) ** inversions, word


# ---------------------------------------------------------------------------
# forms


def _add_product(out: dict[WedgeWord, ScalarExpr], algebra: Algebra,
                 w1: WedgeWord, c1: ScalarExpr, w2: WedgeWord, c2: ScalarExpr) -> None:
    """Add (c1 w1) ^ (c2 w2) into out in place; a vanishing word product costs no c1 * c2."""
    merged = _mul_words(algebra, w1, w2)
    if merged is not None:
        sign, word = merged
        _accumulate(out, word, c1 * c2 * sign)


def _same_algebra(a: Algebra, b: Algebra) -> bool:
    """One algebra, or distinct instances with identical settings."""
    return a is b or (a.name, a.n) == (b.name, b.n)


def _accumulate(out: dict[WedgeWord, ScalarExpr], word: WedgeWord, coeff: ScalarExpr) -> None:
    """Add coeff into out[word] in place, dropping the word when the sum is zero."""
    acc = out.get(word, ZERO) + coeff
    if acc.is_zero():
        out.pop(word, None)
    else:
        out[word] = acc


class Form:
    """A differential form: wedge words with ScalarExpr coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: Mapping[WedgeWord, ScalarExpr] | None = None):
        self.algebra = algebra
        self.terms: dict[WedgeWord, ScalarExpr] = {
            w: c for w, c in (terms or {}).items() if not c.is_zero()
        }

    # -- constructors

    @staticmethod
    def scalar(algebra: Algebra, value: "ScalarExpr | Rational") -> "Form":
        return Form(algebra, {(): _as_scalar(value)})

    @staticmethod
    def gen(algebra: Algebra, name: str, coeff: "ScalarExpr | Rational" = 1) -> "Form":
        idx = algebra.gen(name)
        return Form(algebra, {((idx, 1),): _as_scalar(coeff)})

    # -- linear structure

    def _check(self, other: "Form") -> None:
        a, b = self.algebra, other.algebra
        if not _same_algebra(a, b):
            raise AlgebraMismatchError(
                f"cannot combine forms over '{a.name}' (n={a.n}) and '{b.name}' (n={b.n})"
            )

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _accumulate(out, w, c)
        return Form(self.algebra, out)

    def __neg__(self) -> "Form":
        return Form(self.algebra, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, factor: "ScalarExpr | Rational") -> "Form":
        factor = _as_scalar(factor)
        return Form(self.algebra, {w: c * factor for w, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {_word_degree(self.algebra, w) for w in self.terms}

    def __eq__(self, other: object) -> bool:
        # forms over different algebras are unequal, not an error
        if not isinstance(other, Form):
            return NotImplemented
        return _same_algebra(self.algebra, other.algebra) and self.terms == other.terms

    # -- display

    def to_text(self) -> str:
        """Canonical text: one "coeff * g1^g2^..." chunk per wedge word."""
        if not self.terms:
            return "0"
        algebra = self.algebra
        chunks = []
        for word in sorted(self.terms, key=lambda w: (_word_degree(algebra, w), w)):
            coeff = self.terms[word]
            names: list[str] = []
            for idx, exp in word:
                names.extend([algebra.names[idx]] * exp)
            if names:
                chunks.append(f"({coeff.to_text()}) * " + "^".join(names))
            else:
                chunks.append(f"({coeff.to_text()})")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"Form[{self.algebra.name}]({self.to_text()})"


# ---------------------------------------------------------------------------
# operations


def wedge(a: Form, b: Form) -> Form:
    a._check(b)
    algebra = a.algebra
    out: dict[WedgeWord, ScalarExpr] = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            _add_product(out, algebra, w1, c1, w2, c2)
    return Form(algebra, out)


def wedge_power(a: Form, k: int) -> Form:
    """k-th wedge power of an even form, by the binomial theorem.

    Every word of ``a`` must have even degree; odd or mixed-parity input
    raises ValueError.  Even forms are central, so split a = P + Q, where Q
    holds the words made only of even generators (the scalar word included)
    and P the rest.  Every word of P holds at least two distinct odd
    generators, so P^j = 0 once 2j exceeds the number of odd generators, and
    a^k = sum_j C(k, j) P^j ^ Q^(k-j) takes a few wedges of P-sized forms
    plus the powers of Q.
    """
    if k < 0:
        raise ValueError("negative wedge power")
    algebra = a.algebra
    if any(d % 2 for d in a.degrees()):
        raise ValueError("wedge_power needs an even form: every word of even degree")
    p_terms: dict[WedgeWord, ScalarExpr] = {}
    q_terms: dict[WedgeWord, ScalarExpr] = {}
    for word, coeff in a.terms.items():
        odd = any(i != algebra.even for i, _ in word)
        (p_terms if odd else q_terms)[word] = coeff
    p, q = Form(algebra, p_terms), Form(algebra, q_terms)

    p_powers = [Form.scalar(algebra, 1)]          # P^0 .. P^top, all nonzero
    while len(p_powers) <= k:
        nxt = wedge(p_powers[-1], p)
        if nxt.is_zero():
            break
        p_powers.append(nxt)
    top = len(p_powers) - 1

    q_power = Form.scalar(algebra, 1)
    for _ in range(k - top):
        q_power = wedge(q_power, q)
    out = Form(algebra)
    for j in range(top, -1, -1):
        out = out + wedge(p_powers[j], q_power).scale(comb(k, j))
        if j:
            q_power = wedge(q_power, q)
    return out


def ext_d(a: Form) -> Form:
    """Exterior derivative: Leibniz over wedge words, chain rules on atoms.

    Only the contact form has a nonzero d.  Every generator before it in a
    word is odd with exponent 1, so moving d<contact> to the front costs the
    sign (-1)^position.
    """
    algebra = a.algebra
    target = ((algebra.even, 1),)
    out: dict[WedgeWord, ScalarExpr] = {}
    for word, coeff in a.terms.items():
        # d of the coefficient
        for var, idx in algebra.coord_forms.items():
            dc = coeff.diff(var)
            if not dc.is_zero():
                _add_product(out, algebra, ((idx, 1),), dc, word, ONE)
        # d of the word itself; the even target commutes, so re-merging the
        # words fixes the ordering and the cap
        for pos, (idx, _) in enumerate(word):
            if idx == algebra.contact:
                rest = word[:pos] + word[pos + 1 :]
                _add_product(out, algebra, target, coeff * (-1) ** pos, rest, ONE)
    return Form(algebra, out)


def interior(v: Mapping[str, "ScalarExpr | Rational"], a: Form) -> Form:
    """Contraction with a tangent field: a graded degree -1 derivation.

    The field is a dict from dual symbol to coefficient, over the form's
    algebra.  Each dual contracts its one odd generator to 1; the generators
    before it in a word are odd, so the sign is (-1)^position.
    """
    algebra = a.algebra
    out: dict[WedgeWord, ScalarExpr] = {}
    for dual, vcoeff in v.items():
        target = algebra.duals.get(dual)
        if target is None:
            raise AlgebraMismatchError(f"algebra '{algebra.name}' has no dual symbol '{dual}'")
        vcoeff = _as_scalar(vcoeff)
        for word, coeff in a.terms.items():
            for pos, (idx, _) in enumerate(word):
                if idx == target:
                    rest = word[:pos] + word[pos + 1 :]
                    _accumulate(out, rest, coeff * vcoeff * (-1) ** pos)
    return Form(algebra, out)
