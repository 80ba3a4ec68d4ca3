"""Word calculus for twist factorizations on a fibered boundary.

A word is a string over two letters: ``S`` (``SPHERE``), a sphere twist
along a fixed zero-section cycle, and ``D`` (``BOUNDARY``), a fibered twist
along the boundary; its serialization is the letters joined by spaces.
The only relation used is that one boundary twist matches two sphere
twists, which induces the substitution moves

    contract:  (S, S) at a position  ->  (D)
    expand:    (D) at a position     ->  (S, S)

and the invariant weight = #S + 2 #D.  A word carries its fiber by name
(``disk_cotangent_sphere``), and only words over the same fiber are
related; the fiber's Euler number is ``topo.chi_sphere``.  Word equality
beyond this relation (general mapping-class-group equality, Hurwitz moves,
conjugation) is out of scope on purpose; the A_k filling family needs
exactly this much.
"""

from __future__ import annotations

__all__ = [
    "SPHERE",
    "BOUNDARY",
    "TwistWord",
    "SubstitutionStep",
    "PatternMismatchError",
    "disk_cotangent_sphere",
    "substitute",
    "enumerate_fillings",
]

SPHERE = "S"
BOUNDARY = "D"
_LABELS = {SPHERE: "S0", BOUNDARY: "D"}   # a letter's name in error texts


class PatternMismatchError(ValueError):
    """The requested local replacement does not match the word at pos."""


def disk_cotangent_sphere(n: int) -> str:
    """The name of the fiber, the disk cotangent bundle of the n-sphere."""
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    return f"DT*S{n}"


class TwistWord:
    """A word over one fiber; two words are equal when letters and fiber agree."""

    __slots__ = ("letters", "fiber")

    def __init__(self, letters: str, fiber: str) -> None:
        unknown = letters.strip(SPHERE + BOUNDARY)   # from the first other letter on
        if unknown:
            raise ValueError(f"unknown twist letter {unknown[0]!r}; "
                             f"use {SPHERE!r} or {BOUNDARY!r}")
        self.letters = letters
        self.fiber = fiber   # the fiber's name, from disk_cotangent_sphere

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TwistWord)
                and (self.letters, self.fiber) == (other.letters, other.fiber))

    @property
    def weight(self) -> int:
        return len(self.letters) + self.letters.count(BOUNDARY)

    def serialize(self) -> str:
        return " ".join(self.letters)

    def __repr__(self) -> str:
        return f"TwistWord({self.serialize() or 'empty'}; fiber={self.fiber})"


class SubstitutionStep:
    """One move of a chain; two steps are equal when all four fields agree."""

    __slots__ = ("position", "direction", "before", "after")

    def __init__(self, position: int, direction: str, before: TwistWord,
                 after: TwistWord) -> None:
        self.position = position
        self.direction = direction   # "contract" or "expand"
        self.before = before
        self.after = after

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SubstitutionStep)
                and (self.position, self.direction, self.before, self.after)
                == (other.position, other.direction, other.before, other.after))


def substitute(word: TwistWord, pos: int, direction: str) -> TwistWord:
    """Apply one local replacement at pos; everything else is untouched."""
    letters = word.letters
    if direction == "contract":
        if pos < 0 or pos + 1 >= len(letters):
            raise PatternMismatchError(
                f"contract needs two letters at positions {pos}, {pos + 1}; "
                f"word has length {len(letters)}"
            )
        if letters[pos : pos + 2] != SPHERE * 2:
            raise PatternMismatchError(
                f"pattern mismatch at {pos}: contract expects (S, S), "
                f"found ({_LABELS[letters[pos]]}, {_LABELS[letters[pos + 1]]})"
            )
        return TwistWord(letters[:pos] + BOUNDARY + letters[pos + 2 :], word.fiber)
    if direction == "expand":
        if pos < 0 or pos >= len(letters):
            raise PatternMismatchError(
                f"expand needs a letter at position {pos}; word has length {len(letters)}"
            )
        if letters[pos] != BOUNDARY:
            raise PatternMismatchError(
                f"pattern mismatch at {pos}: expand expects (D), found ({_LABELS[letters[pos]]})"
            )
        return TwistWord(letters[:pos] + SPHERE * 2 + letters[pos + 1 :], word.fiber)
    raise ValueError(f"unknown direction {direction!r}; use 'contract' or 'expand'")


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
    return [TwistWord(BOUNDARY * ell + SPHERE * (k + 1 - 2 * ell), fiber)
            for ell in range(0 if include_zero else 1, (k + 1) // 2 + 1)]
