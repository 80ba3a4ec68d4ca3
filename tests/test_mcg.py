"""Twist-word calculus: substitutions, weight invariance, filling family."""

from __future__ import annotations

import pytest

from lbfkit import topo
from lbfkit.mcg import (
    BOUNDARY,
    SPHERE,
    PatternMismatchError,
    enumerate_fillings,
    substitute,
    weight,
)
from lbfkit.topo import chi_sphere
from reference import NotRelatedError, aa_count, substitution_chain


def word(text: str) -> str:
    """A word from its printed form, e.g. 'D S S'."""
    return "".join(text.split())


def test_generator_defaults_and_weights():
    # the letters are the characters of the printed word
    assert (SPHERE, BOUNDARY) == ("S", "D")
    assert weight(SPHERE) == 1
    assert weight(BOUNDARY) == 2
    assert word("D S S") == "DSS"


def test_fiber_descriptor_euler_numbers():
    # the fiber DT*S^n has the Euler number chi(S^n), kept in topo
    assert [chi_sphere(n) for n in (2, 3, 5, 6)] == [2, 0, 0, 2]


def test_contract_at_front():
    assert substitute(word("S S S S"), 0, "contract") == word("D S S")


def test_expand_at_front():
    assert substitute(word("D S"), 0, "expand") == word("S S S")


def test_contract_needs_two_spheres():
    for text, found in (("S D", "S0, D"), ("D S", "D, S0"), ("D D", "D, D")):
        with pytest.raises(PatternMismatchError) as info:
            substitute(word(text), 0, "contract")
        assert str(info.value) == (
            f"pattern mismatch at 0: contract expects (S, S), found ({found})")


def test_contract_out_of_range_message():
    with pytest.raises(PatternMismatchError, match="positions 2, 3; word has length 3"):
        substitute(word("S S S"), 2, "contract")


def test_expand_requires_boundary_letter():
    with pytest.raises(PatternMismatchError) as info:
        substitute(word("S S"), 1, "expand")
    assert str(info.value) == "pattern mismatch at 1: expand expects (D), found (S0)"
    with pytest.raises(PatternMismatchError, match="word has length 2"):
        substitute(word("S S"), 5, "expand")


def test_unknown_direction():
    with pytest.raises(ValueError, match="unknown direction"):
        substitute(word("S S"), 0, "rotate")


def test_substitute_leaves_other_letters_alone():
    w = word("S D S S D")
    out = substitute(w, 2, "contract")
    assert out == word("S D D D")
    assert out[0] == w[0]
    assert out[-1] == w[-1]


def test_weight_examples():
    assert weight(word("S S S S")) == 4
    assert weight(word("D S S")) == 4
    assert weight("") == 0


def test_weight_counts_both_kinds():
    assert weight(word("D D S")) == 5


def test_reports_print_words_space_joined():
    # the fillings report prints each word with its letters joined by spaces
    rows = topo.suite(2, 5, include_zero=True).report["fillings"]
    assert [row["word"] for row in rows] == [
        "S S S S S S", "D S S S S", "D D S S", "D D D"]
    assert [word(row["word"]) for row in rows] == enumerate_fillings(5, include_zero=True)


def test_aa_count_values():
    # degree 2 collapses to two twists whatever the exponent
    for n in range(0, 11):
        assert aa_count(2, n) == 2
    assert aa_count(3, 2) == 12
    assert aa_count(4, 3) == 4 * 27


def test_aa_count_rejects_bad_arguments():
    with pytest.raises(ValueError, match="degree"):
        aa_count(1, 2)
    with pytest.raises(ValueError, match="exponent"):
        aa_count(3, -1)


def test_filling_family_k5():
    words = enumerate_fillings(5, include_zero=False)
    assert [len(w) for w in words] == [5, 4, 3]
    assert words == ["DSSSS", "DDSS", "DDD"]
    assert all(weight(w) == 6 for w in words)


def test_filling_family_k1():
    (only,) = enumerate_fillings(1, include_zero=False)
    assert only == BOUNDARY


def test_filling_family_include_zero_prepends_milnor_word():
    words = enumerate_fillings(4, include_zero=True)
    assert words[0] == SPHERE * 5
    assert len(words) == 3      # l = 0, 1, 2
    assert all(weight(w) == 5 for w in words)


def test_filling_family_weights_and_counts():
    for k in range(1, 13):
        words = enumerate_fillings(k, include_zero=False)
        assert len(words) == -(-k // 2)
        assert all(weight(w) == k + 1 for w in words)


def test_filling_family_validation():
    with pytest.raises(ValueError):
        enumerate_fillings(0, include_zero=False)


def test_chain_full_contraction_count():
    for k in (1, 2, 5, 8, 11):
        milnor = word("S " * (k + 1))
        target = enumerate_fillings(k, include_zero=False)[-1]
        steps = substitution_chain(milnor, target)
        assert len(steps) == -(-k // 2)
        assert all(direction == "contract" for _, direction, _, _ in steps)


def test_chain_of_equal_words_is_empty():
    w = word("D S S")
    assert substitution_chain(w, w) == []


def test_chain_rejects_unequal_weights():
    with pytest.raises(NotRelatedError, match="weights differ"):
        substitution_chain(word("S S"), word("S"))


def replay(source: str, steps) -> str:
    current = source
    for position, direction, before, after in steps:
        assert before == current
        current = substitute(current, position, direction)
        assert after == current
    return current


def test_chain_replay_mixed_directions():
    # needs a contract then an expand
    src, dst = word("S S D"), word("D S S")
    steps = substitution_chain(src, dst)
    assert [direction for _, direction, _, _ in steps] == ["contract", "expand"]
    assert replay(src, steps) == dst


def test_chain_expand_before_contract_when_boundary_blocks():
    # target wants D at 0 but the source letter after the sphere is a D,
    # so the chain must expand it first to free two spheres
    src, dst = word("S D S"), word("D S S")
    steps = substitution_chain(src, dst)
    assert [direction for _, direction, _, _ in steps] == ["expand", "contract"]
    assert replay(src, steps) == dst


def test_all_fillings_pairwise_related():
    words = enumerate_fillings(9, include_zero=True)
    for a in words:
        for b in words:
            assert replay(a, substitution_chain(a, b)) == b


def random_word(rng, max_len: int = 12) -> str:
    n = rng.randrange(0, max_len + 1)
    return "".join(SPHERE if rng.random() < 0.6 else BOUNDARY for _ in range(n))


def test_weight_invariant_under_random_substitutions(rng):
    hits = 0
    for _ in range(500):
        w = random_word(rng)
        before = weight(w)
        pos = rng.randrange(0, max(len(w), 1))
        direction = rng.choice(("contract", "expand"))
        try:
            out = substitute(w, pos, direction)
        except PatternMismatchError:
            continue
        hits += 1
        assert weight(out) == before
    assert hits > 100     # the loop must actually exercise the invariant


def test_random_chains_replay_exactly(rng):
    for _ in range(200):
        a, b = random_word(rng), random_word(rng)
        if weight(a) != weight(b):
            with pytest.raises(NotRelatedError):
                substitution_chain(a, b)
            continue
        assert replay(a, substitution_chain(a, b)) == b
