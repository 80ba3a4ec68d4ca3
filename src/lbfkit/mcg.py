"""Word calculus for twist factorizations on a fibered boundary.

Words are ordered tuples of two letter kinds: sphere twists along a fixed
zero-section cycle (serialized ``S``) and fibered twists along the boundary
(serialized ``D``).  The only relation used is that one boundary twist
matches two sphere twists, which induces the substitution moves

    contract:  (S, S) at a position  ->  (D)
    expand:    (D) at a position     ->  (S, S)

and the invariant weight = #S + 2 #D.  Word equality beyond this relation
(general mapping-class-group equality, Hurwitz moves, conjugation) is out of
scope on purpose; the A_k filling family needs exactly this much.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FiberDescriptor",
    "TwistGen",
    "TwistWord",
    "SubstitutionStep",
    "PatternMismatchError",
    "NotRelatedError",
    "disk_cotangent_sphere",
    "substitute",
    "aa_count",
    "enumerate_fillings",
    "substitution_chain",
]

SPHERE = "sphere"
BOUNDARY = "boundary"


class PatternMismatchError(ValueError):
    """The requested local replacement does not match the word at pos."""


class NotRelatedError(ValueError):
    """Two words cannot be joined by substitutions (weight or fiber differ)."""


@dataclass(frozen=True)
class FiberDescriptor:
    """The common fiber of a factorization: name, half-dimension, Euler number."""

    name: str
    half_dim: int
    chi: int


def disk_cotangent_sphere(n: int) -> FiberDescriptor:
    """Disk cotangent bundle of the n-sphere; chi equals chi(S^n)."""
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    return FiberDescriptor(name=f"DT*S{n}", half_dim=n, chi=1 + (-1) ** n)


@dataclass(frozen=True)
class TwistGen:
    kind: str          # SPHERE or BOUNDARY
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (SPHERE, BOUNDARY):
            raise ValueError(f"unknown twist kind {self.kind!r}")
        if not self.label:
            object.__setattr__(self, "label", "S0" if self.kind == SPHERE else "D")

    @staticmethod
    def sphere(label: str = "S0") -> "TwistGen":
        return TwistGen(SPHERE, label)

    @staticmethod
    def boundary(label: str = "D") -> "TwistGen":
        return TwistGen(BOUNDARY, label)

    @property
    def weight(self) -> int:
        return 1 if self.kind == SPHERE else 2


@dataclass(frozen=True)
class TwistWord:
    letters: tuple[TwistGen, ...]
    fiber: FiberDescriptor

    @property
    def weight(self) -> int:
        return sum(g.weight for g in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def serialize(self) -> str:
        return " ".join("S" if g.kind == SPHERE else "D" for g in self.letters)

    def __repr__(self) -> str:
        return f"TwistWord({self.serialize() or 'empty'}; fiber={self.fiber.name})"


@dataclass(frozen=True)
class SubstitutionStep:
    position: int
    direction: str     # "contract" or "expand"
    before: TwistWord
    after: TwistWord


def substitute(word: TwistWord, pos: int, direction: str) -> TwistWord:
    """Apply one local replacement at pos; everything else is untouched."""
    letters = word.letters
    if direction == "contract":
        if pos < 0 or pos + 1 >= len(letters):
            raise PatternMismatchError(
                f"contract needs two letters at positions {pos}, {pos + 1}; "
                f"word has length {len(letters)}"
            )
        a, b = letters[pos], letters[pos + 1]
        if a.kind != SPHERE or b.kind != SPHERE:
            raise PatternMismatchError(
                f"pattern mismatch at {pos}: contract expects (S, S), "
                f"found ({a.label}, {b.label})"
            )
        new = letters[:pos] + (TwistGen.boundary(),) + letters[pos + 2 :]
        return TwistWord(new, word.fiber)
    if direction == "expand":
        if pos < 0 or pos >= len(letters):
            raise PatternMismatchError(
                f"expand needs a letter at position {pos}; word has length {len(letters)}"
            )
        a = letters[pos]
        if a.kind != BOUNDARY:
            raise PatternMismatchError(
                f"pattern mismatch at {pos}: expand expects (D), found ({a.label})"
            )
        new = letters[:pos] + (TwistGen.sphere(), TwistGen.sphere()) + letters[pos + 1 :]
        return TwistWord(new, word.fiber)
    raise ValueError(f"unknown direction {direction!r}; use 'contract' or 'expand'")


def aa_count(d: int, n: int) -> int:
    """d (d-1)^n, the twist count in the cyclic-cover factorization family."""
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    if n < 0:
        raise ValueError(f"exponent must be >= 0, got {n}")
    return d * (d - 1) ** n

def enumerate_fillings(
    k: int,
    n: int = 2,
    include_zero: bool = False,
) -> list[TwistWord]:
    """The filling family for the A_k boundary: one word per l.

    For l = 1 .. ceil(k/2), the word carries l boundary twists followed by
    k + 1 - 2l sphere twists.  With include_zero the all-sphere word of
    length k + 1 (the Milnor fiber factorization, l = 0) is prepended.
    Every word has weight k + 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 2:
        raise ValueError(f"fiber half-dimension must be >= 2, got {n}")
    fiber = disk_cotangent_sphere(n)
    words = []
    start = 0 if include_zero else 1
    for ell in range(start, (k + 1) // 2 + 1):
        letters = (TwistGen.boundary(),) * ell + (TwistGen.sphere(),) * (k + 1 - 2 * ell)
        words.append(TwistWord(letters, fiber))
    return words


def substitution_chain(source: TwistWord, target: TwistWord) -> list[SubstitutionStep]:
    """Greedy left-to-right chain of substitutions carrying source to target.

    Scans both words in parallel.  Where the target wants a boundary twist
    and the source offers spheres, two spheres are contracted (expanding
    first if the second letter is itself a boundary twist); where the target
    wants a sphere and the source offers a boundary twist, it is expanded.
    Equal weights guarantee the scan never runs off either word.
    """
    if source.fiber != target.fiber:
        raise NotRelatedError(
            f"not related: fiber descriptors differ "
            f"({source.fiber.name} vs {target.fiber.name})"
        )
    if source.weight != target.weight:
        raise NotRelatedError(
            f"not related: weights differ ({source.weight} vs {target.weight})"
        )
    steps: list[SubstitutionStep] = []
    current = source
    i = 0
    for j in range(len(target.letters)):
        need = target.letters[j].kind
        have = current.letters[i].kind
        if have == need:
            i += 1
            continue
        if need == BOUNDARY:
            # have a sphere; a second unit of weight follows because the
            # target still owes weight 2 here and weights agree
            if current.letters[i + 1].kind == BOUNDARY:
                nxt = substitute(current, i + 1, "expand")
                steps.append(SubstitutionStep(i + 1, "expand", current, nxt))
                current = nxt
            nxt = substitute(current, i, "contract")
            steps.append(SubstitutionStep(i, "contract", current, nxt))
            current = nxt
        else:
            nxt = substitute(current, i, "expand")
            steps.append(SubstitutionStep(i, "expand", current, nxt))
            current = nxt
        i += 1
    assert current == target, "scan invariant broken"
    return steps
