"""Twist-word calculus: substitutions, weight invariance, filling family."""

from __future__ import annotations

import pytest

from lbfkit.mcg import (
    BOUNDARY,
    SPHERE,
    FiberDescriptor,
    NotRelatedError,
    PatternMismatchError,
    TwistGen,
    TwistWord,
    aa_count,
    disk_cotangent_sphere,
    enumerate_fillings,
    substitute,
    substitution_chain,
)

FIBER = disk_cotangent_sphere(2)


def word(text: str) -> TwistWord:
    """Build a word from its serialized form, e.g. 'D S S'."""
    letters = tuple(
        TwistGen.sphere() if c == "S" else TwistGen.boundary()
        for c in text.split()
    )
    return TwistWord(letters, FIBER)


def test_generator_defaults_and_weights():
    s = TwistGen.sphere()
    d = TwistGen.boundary()
    assert (s.kind, s.label, s.weight) == (SPHERE, "S0", 1)
    assert (d.kind, d.label, d.weight) == (BOUNDARY, "D", 2)


def test_generator_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown twist kind"):
        TwistGen("torus")


def test_fiber_descriptor_euler_numbers():
    assert disk_cotangent_sphere(2) == FiberDescriptor("DT*S2", 2, 2)
    assert disk_cotangent_sphere(3) == FiberDescriptor("DT*S3", 3, 0)
    assert disk_cotangent_sphere(5).chi == 0
    assert disk_cotangent_sphere(6).chi == 2
    with pytest.raises(ValueError):
        disk_cotangent_sphere(0)


def test_contract_at_front():
    assert substitute(word("S S S S"), 0, "contract").serialize() == "D S S"


def test_expand_at_front():
    assert substitute(word("D S"), 0, "expand").serialize() == "S S S"


def test_contract_needs_two_spheres():
    with pytest.raises(PatternMismatchError, match="pattern mismatch"):
        substitute(word("S D"), 0, "contract")


def test_contract_out_of_range_message():
    with pytest.raises(PatternMismatchError, match="positions 2, 3; word has length 3"):
        substitute(word("S S S"), 2, "contract")


def test_expand_requires_boundary_letter():
    with pytest.raises(PatternMismatchError, match=r"expects \(D\), found \(S0\)"):
        substitute(word("S S"), 1, "expand")
    with pytest.raises(PatternMismatchError, match="word has length 2"):
        substitute(word("S S"), 5, "expand")


def test_unknown_direction():
    with pytest.raises(ValueError, match="unknown direction"):
        substitute(word("S S"), 0, "rotate")


def test_substitute_leaves_other_letters_alone():
    w = word("S D S S D")
    out = substitute(w, 2, "contract")
    assert out.serialize() == "S D D D"
    assert out.letters[0] == w.letters[0]
    assert out.letters[-1] == w.letters[-1]


def test_weight_examples():
    assert word("S S S S").weight == 4
    assert word("D S S").weight == 4
    assert TwistWord((), FIBER).weight == 0


def test_weight_counts_both_kinds():
    assert word("D D S").weight == 5


def test_serialize_and_repr():
    w = word("D S")
    assert w.serialize() == "D S"
    assert "fiber=DT*S2" in repr(w)
    assert "empty" in repr(TwistWord((), FIBER))


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
    words = enumerate_fillings(5)
    assert [len(w) for w in words] == [5, 4, 3]
    assert [w.serialize() for w in words] == ["D S S S S", "D D S S", "D D D"]
    assert all(w.weight == 6 for w in words)


def test_filling_family_k1():
    (only,) = enumerate_fillings(1)
    assert only.serialize() == "D"


def test_filling_family_include_zero_prepends_milnor_word():
    words = enumerate_fillings(4, include_zero=True)
    assert words[0].serialize() == "S S S S S"
    assert len(words) == 3      # l = 0, 1, 2
    assert all(w.weight == 5 for w in words)


def test_filling_family_weights_and_counts():
    for k in range(1, 13):
        words = enumerate_fillings(k)
        assert len(words) == -(-k // 2)
        assert all(w.weight == k + 1 for w in words)
        assert all(w.fiber == FIBER for w in words)


def test_filling_family_validation():
    with pytest.raises(ValueError):
        enumerate_fillings(0)
    with pytest.raises(ValueError):
        enumerate_fillings(3, n=1)


def test_chain_full_contraction_count():
    for k in (1, 2, 5, 8, 11):
        milnor = word("S " * (k + 1))
        target = enumerate_fillings(k)[-1]
        steps = substitution_chain(milnor, target)
        assert len(steps) == -(-k // 2)
        assert all(s.direction == "contract" for s in steps)


def test_chain_of_equal_words_is_empty():
    w = word("D S S")
    assert substitution_chain(w, w) == []


def test_chain_rejects_unequal_weights():
    with pytest.raises(NotRelatedError, match="weights differ"):
        substitution_chain(word("S S"), word("S"))


def test_chain_rejects_fiber_mismatch():
    a = word("S S")
    b = TwistWord(a.letters, disk_cotangent_sphere(3))
    with pytest.raises(NotRelatedError, match="fiber descriptors differ"):
        substitution_chain(a, b)


def replay(source: TwistWord, steps) -> TwistWord:
    current = source
    for step in steps:
        assert step.before == current
        current = substitute(current, step.position, step.direction)
        assert step.after == current
    return current


def test_chain_replay_mixed_directions():
    # needs a contract then an expand
    src, dst = word("S S D"), word("D S S")
    steps = substitution_chain(src, dst)
    assert [s.direction for s in steps] == ["contract", "expand"]
    assert replay(src, steps) == dst


def test_chain_expand_before_contract_when_boundary_blocks():
    # target wants D at 0 but the source letter after the sphere is a D,
    # so the chain must expand it first to free two spheres
    src, dst = word("S D S"), word("D S S")
    steps = substitution_chain(src, dst)
    assert [s.direction for s in steps] == ["expand", "contract"]
    assert replay(src, steps) == dst


def test_all_fillings_pairwise_related():
    words = enumerate_fillings(9, include_zero=True)
    for a in words:
        for b in words:
            assert replay(a, substitution_chain(a, b)) == b


def random_word(rng, max_len: int = 12) -> TwistWord:
    n = rng.randrange(0, max_len + 1)
    letters = tuple(
        TwistGen.sphere() if rng.random() < 0.6 else TwistGen.boundary()
        for _ in range(n)
    )
    return TwistWord(letters, FIBER)


def test_weight_invariant_under_random_substitutions(rng):
    hits = 0
    for _ in range(500):
        w = random_word(rng)
        before = w.weight
        pos = rng.randrange(0, max(len(w), 1))
        direction = rng.choice(("contract", "expand"))
        try:
            out = substitute(w, pos, direction)
        except PatternMismatchError:
            continue
        hits += 1
        assert out.weight == before
    assert hits > 100     # the loop must actually exercise the invariant


def test_random_chains_replay_exactly(rng):
    for _ in range(200):
        a, b = random_word(rng), random_word(rng)
        if a.weight != b.weight:
            with pytest.raises(NotRelatedError):
                substitution_chain(a, b)
            continue
        assert replay(a, substitution_chain(a, b)) == b
