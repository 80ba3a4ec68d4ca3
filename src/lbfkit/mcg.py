"""Word calculus for twist factorizations on a fibered boundary.

A word is a string over two letters: ``S`` (``SPHERE``), a sphere twist
along a fixed zero-section cycle, and ``D`` (``BOUNDARY``), a fibered twist
along the boundary; the reports print it with its letters joined by spaces.
The only relation used is that one boundary twist matches two sphere
twists, which induces the substitution moves

    contract:  (S, S) at a position  ->  (D)
    expand:    (D) at a position     ->  (S, S)

and the invariant weight = #S + 2 #D.  Word equality beyond this relation
(general mapping-class-group equality, Hurwitz moves, conjugation) is out
of scope on purpose; the A_k filling family needs exactly this much.
"""

from __future__ import annotations

__all__ = [
    "SPHERE",
    "BOUNDARY",
    "PatternMismatchError",
    "weight",
    "substitute",
    "enumerate_fillings",
]

SPHERE = "S"
BOUNDARY = "D"
_LABELS = {SPHERE: "S0", BOUNDARY: "D"}   # a letter's name in error texts


class PatternMismatchError(ValueError):
    """The requested local replacement does not match the word at pos."""


def weight(word: str) -> int:
    """#S + 2 #D, the invariant of every substitution."""
    return len(word) + word.count(BOUNDARY)


def substitute(word: str, pos: int, direction: str) -> str:
    """Apply one local replacement at pos; everything else is untouched."""
    if direction == "contract":
        if pos < 0 or pos + 1 >= len(word):
            raise PatternMismatchError(
                f"contract needs two letters at positions {pos}, {pos + 1}; "
                f"word has length {len(word)}"
            )
        if word[pos : pos + 2] != SPHERE * 2:
            raise PatternMismatchError(
                f"pattern mismatch at {pos}: contract expects (S, S), "
                f"found ({_LABELS[word[pos]]}, {_LABELS[word[pos + 1]]})"
            )
        return word[:pos] + BOUNDARY + word[pos + 2 :]
    if direction == "expand":
        if pos < 0 or pos >= len(word):
            raise PatternMismatchError(
                f"expand needs a letter at position {pos}; word has length {len(word)}"
            )
        if word[pos] != BOUNDARY:
            raise PatternMismatchError(
                f"pattern mismatch at {pos}: expand expects (D), found ({_LABELS[word[pos]]})"
            )
        return word[:pos] + SPHERE * 2 + word[pos + 1 :]
    raise ValueError(f"unknown direction {direction!r}; use 'contract' or 'expand'")


def enumerate_fillings(k: int, include_zero: bool) -> list[str]:
    """The filling family for the A_k boundary: one word per l.

    For l = 1 .. ceil(k/2), the word carries l boundary twists followed by
    k + 1 - 2l sphere twists.  With include_zero the all-sphere word of
    length k + 1 (the Milnor fiber factorization, l = 0) is prepended.
    Every word has weight k + 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [BOUNDARY * ell + SPHERE * (k + 1 - 2 * ell)
            for ell in range(0 if include_zero else 1, (k + 1) // 2 + 1)]
