"""Garside normal forms and the independent breadth-first oracle.

The two word-problem routes share no code: normal forms go through
Delta-factor combinatorics, the oracle through string rewriting.  The
full cross-validation sweep lives in test_acceptance; here we pin the
algebra and a sampled agreement check.
"""

import random

import pytest

from artinflats import dihedral
from artinflats.dihedral import (
    OracleBudgetError,
    balanced_rules,
    bfs_oracle_is_trivial,
    delta_word,
    identity_ball,
    invert,
    is_trivial,
    multiply,
    normal_form,
    word_to_string,
)
from artinflats.presentation import ArtinPresentation, Word


def random_word(rng, max_syllables=6, bound=2):
    gens = "st"
    start = rng.randrange(2)
    n = rng.randint(0, max_syllables)
    syls = []
    for i in range(n):
        e = rng.choice([k for k in range(-bound, bound + 1) if k])
        syls.append((gens[(start + i) % 2], e))
    return Word.from_letters(
        (g, 1 if e > 0 else -1) for g, e in syls for _ in range(abs(e))
    )


def test_braid_relation_is_the_garside_element(m3, m4):
    assert str(normal_form(m3, Word.parse("s1 t1 s1"))) == "delta^1"
    assert str(normal_form(m3, Word.parse("t1 s1 t1"))) == "delta^1"
    assert str(normal_form(m4, Word.parse("s1 t1 s1 t1"))) == "delta^1"
    assert normal_form(m3, Word.parse("")).is_identity


def test_normal_form_roundtrips_through_to_word(m2, m3, m4, m5, m6):
    rng = random.Random(11)
    for pres in (m2, m3, m4, m5, m6):
        for _ in range(120):
            w = random_word(rng)
            nf = normal_form(pres, w)
            again = normal_form(pres, nf.to_word())
            assert again == nf


def test_multiply_and_invert_match_word_operations(m2, m3, m4, m5, m6):
    rng = random.Random(23)
    for pres in (m2, m3, m4, m5, m6):
        for _ in range(80):
            u, v = random_word(rng), random_word(rng)
            assert multiply(normal_form(pres, u), normal_form(pres, v)) == normal_form(pres, u * v)
            assert invert(normal_form(pres, u)) == normal_form(pres, u.inverse())


def test_is_trivial_known_words(m2, m3):
    assert is_trivial(m3, Word.parse(""))
    assert is_trivial(m3, Word.parse("s1 t1 s1 t-1 s-1 t-1"))
    assert not is_trivial(m3, Word.parse("s1 t1 s-1 t-1"))
    # m = 2 is the free abelian group on two letters
    assert is_trivial(m2, Word.parse("s1 t1 s-1 t-1"))
    assert is_trivial(m2, Word.parse("s2 t-1 s-2 t1"))
    assert not is_trivial(m2, Word.parse("s1 t1 s-1 t1"))


def test_delta_squared_is_central():
    for m in range(2, 9):
        pres = ArtinPresentation(("s", "t"), {("s", "t"): m})
        d2 = delta_word(pres) * delta_word(pres)
        for g in ("s1", "t1", "s-1", "t-1"):
            w = Word.parse(g)
            assert is_trivial(pres, d2 * w * d2.inverse() * w.inverse())
        # delta itself is central only for even m
        d = delta_word(pres)
        conj = d * Word.parse("s1") * d.inverse() * Word.parse("s-1")
        assert is_trivial(pres, conj) == (m % 2 == 0)


def test_balanced_rules_are_length_preserving_and_invertible():
    for m in (2, 3, 4, 5):
        rules = balanced_rules(m)
        for u, vs in rules.items():
            assert len(u) == m
            for v in vs:
                assert len(v) == m
                assert u in rules[v]  # closed under inversion


def test_word_to_string(m3):
    assert word_to_string(m3, Word.parse("s2 t-1")) == "aaB"
    assert word_to_string(m3, Word.parse("")) == ""


def test_bfs_oracle_agrees_with_normal_form_sampled(m3):
    # direct closure per word; exhausting a nontrivial word's component
    # needs a tight length cap to stay cheap
    rng = random.Random(5)
    for _ in range(40):
        w = random_word(rng, max_syllables=3)
        assert bfs_oracle_is_trivial(m3, w, max_len=10) == is_trivial(m3, w)


def test_bfs_oracle_budget_error():
    pres = ArtinPresentation(("s", "t"), {("s", "t"): 5})
    with pytest.raises(OracleBudgetError):
        bfs_oracle_is_trivial(pres, Word.parse("s2 t2 s2 t2 s2 t2"), max_states=30)


def test_identity_ball_membership_is_the_oracle(m3):
    ball = identity_ball(3, 8)
    rng = random.Random(17)
    for _ in range(80):
        w = random_word(rng, max_syllables=3)
        s = word_to_string(m3, w)
        if len(s) <= 6:  # room to wiggle inside the cap
            assert (s in ball) == is_trivial(m3, w)


def test_identity_ball_frozen_sizes():
    # regression values from the full cross-validation runs
    assert len(identity_ball(2, 10)) == 68_845
    assert len(identity_ball(3, 12)) == 319_425
    assert len(identity_ball(4, 12)) == 229_197


def test_subpresentation(e333):
    sub = dihedral.subpresentation(e333, "t", "r")
    assert sub.generators == ("t", "r")
    assert sub.m("t", "r") == 3
