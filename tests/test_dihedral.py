"""Garside normal forms and the independent breadth-first oracle.

The two word-problem routes share no code: normal forms go through
Delta-factor combinatorics, the oracle through string rewriting.  The
full cross-validation sweep lives in test_acceptance; here we pin the
algebra and a sampled agreement check.
"""

import hashlib
import itertools
import random
from collections import deque

import pytest

from artinflats import dihedral
from artinflats.dihedral import (
    OracleBudgetError,
    _canonical,
    _closed_under_cancels,
    _neighbours,
    balanced_rules,
    bfs_oracle_is_trivial,
    closure,
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


def _letter_by_letter(m, word):
    """Reference chain: (power, factors) of the normal form, built one
    positive letter at a time; an inverse letter c^-1 is Delta^-1 and
    then the m - 1 letters of the simple L with L c = Delta."""
    power = twist = 0
    factors = []

    def positive(letter):
        nonlocal power, twist
        letter ^= twist
        if factors:
            start, ln = factors[-1]
            if letter == start ^ (ln & 1):
                if ln + 1 == m:
                    factors.pop()
                    power += 1
                    twist ^= m & 1
                else:
                    factors[-1] = (start, ln + 1)
                return
        factors.append((letter, 1))

    for g, sign in word.letters():
        letter = "st".index(g)
        if sign > 0:
            positive(letter)
        else:
            power -= 1
            twist ^= m & 1
            start = (1 - letter) ^ (m & 1)
            for i in range(m - 1):
                positive(start ^ (i & 1))
    return power, tuple((s ^ twist, ln) for s, ln in factors)


@pytest.mark.parametrize("m", range(2, 10))
def test_whole_simple_pushes_match_a_letter_by_letter_chain(m):
    pres = ArtinPresentation(("s", "t"), {("s", "t"): m})
    rng = random.Random(m)
    for _ in range(300):
        u, v = random_word(rng, 8, 3), random_word(rng, 8, 3)
        nf_u = normal_form(pres, u)
        assert (nf_u.power, nf_u.factors) == _letter_by_letter(m, u)
        inv = invert(nf_u)
        assert (inv.power, inv.factors) == _letter_by_letter(m, u.inverse())
        prod = multiply(nf_u, normal_form(pres, v))
        assert (prod.power, prod.factors) == _letter_by_letter(m, u * v)


def test_inverse_letters_at_a_huge_exponent():
    """An inverse letter is one push of a simple element of length m - 1,
    so m = 10^9 costs no more than m = 6 (letter by letter it would take
    10^9 steps per inverse letter)."""
    word = Word.parse("s-1 t-1 s1 t2")
    for m in (6, 8, 10, 10**9):
        pres = ArtinPresentation(("s", "t"), {("s", "t"): m})
        nf = normal_form(pres, word)
        assert (nf.power, nf.factors) == (-1, ((1, m - 2), (0, 2), (1, 1)))
        if m <= 10:
            assert (nf.power, nf.factors) == _letter_by_letter(m, word)
        assert multiply(nf, invert(nf)).is_identity


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


def test_oracle_rejects_letters_outside_the_presentation(m3):
    w = Word.parse("s1 x1 t-1")
    for route in (normal_form, word_to_string, bfs_oracle_is_trivial):
        with pytest.raises(ValueError, match="letter 'x' is not a generator"):
            route(m3, w)


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


# The eight string symmetries, written out independently of the module:
# a letter permutation (swap a/b, invert, both, or neither), then
# optionally reverse.
def _symmetries():
    out = []
    for perm in ("abAB", "baBA", "ABab", "BAba"):
        table = str.maketrans("abAB", perm)
        out.append(lambda s, t=table: s.translate(t))
        out.append(lambda s, t=table: s[::-1].translate(t))
    return out


SYMMETRIES = _symmetries()


def _random_strings(rng, count, max_len):
    return ["".join(rng.choice("abAB") for _ in range(rng.randint(0, max_len))) for _ in range(count)]


def test_moves_commute_with_the_eight_symmetries():
    rng = random.Random(41)
    for m in range(2, 7):
        rules = balanced_rules(m)
        for s in _random_strings(rng, 150, 10):
            for sigma in SYMMETRIES:
                image = {sigma(x) for x in _neighbours(s, rules, 12)}
                assert image == set(_neighbours(sigma(s), rules, 12)), (m, s)


def test_canonical_is_the_least_image():
    rng = random.Random(43)
    strings = _random_strings(rng, 3000, 12) + ["", "a", "B", "aA", "abBA", "abab"]
    for s in strings:
        assert _canonical(s) == min(sigma(s) for sigma in SYMMETRIES), s


def _plain_ball(m, cap):
    rules = balanced_rules(m)
    seen = {""}
    queue = deque([""])
    while queue:
        for nxt in _neighbours(queue.popleft(), rules, cap):
            if len(nxt) <= cap and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


@pytest.mark.parametrize("m", [2, 3, 4])
def test_identity_ball_equals_a_plain_closure(m):
    cap = 8
    ball = identity_ball(m, cap)
    plain = _plain_ball(m, cap)
    assert len(ball) == len(plain)
    for n in range(cap + 1):
        for letters in itertools.product("abAB", repeat=n):
            s = "".join(letters)
            assert (s in ball) == (s in plain), s
    assert "x" not in ball and "axA" not in ball


def test_closure_start_decides_where_it_stops():
    # a non-empty start stops on the empty string; the empty start runs
    # to the whole ball
    word = closure(3, "abaBAB", 6, 100)
    assert word.reached_target and "" not in word.states
    ball = closure(3, "", 6, 10_000)
    assert not ball.reached_target and ball.complete
    assert ball.states == identity_ball(3, 6).reps


def test_edge_count_decides_closure_under_cancels():
    reps = identity_ball(3, 8).reps
    assert _closed_under_cancels(reps, 8)
    # without "" its four insert edges go missing, and no cancel with them
    assert not _closed_under_cancels(reps - {""}, 8)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_identity_ball_fallback_with_cancels_gives_the_same_ball(m, monkeypatch):
    ball = identity_ball(m, 8).reps
    monkeypatch.setattr(dihedral, "_closed_under_cancels", lambda reps, max_len: False)
    assert identity_ball(m, 8).reps == ball


def test_identity_ball_budget_counts_representatives():
    with pytest.raises(OracleBudgetError) as err:
        identity_ball(3, 10, max_states=1000)
    assert err.value.visited == 1000


def test_identity_balls_need_no_fallback(monkeypatch):
    verdicts = []

    def spy(reps, max_len):
        verdicts.append(_closed_under_cancels(reps, max_len))
        return verdicts[-1]

    monkeypatch.setattr(dihedral, "_closed_under_cancels", spy)
    for m in range(2, 9):
        for cap in range(9):
            identity_ball(m, cap)
    assert len(verdicts) == 7 * 9 and all(verdicts)


def _inverse(s):
    return s[::-1].swapcase()


def _order_starts(rng, m):
    """Eight random strings and four conjugates of a relator rotation."""
    relator = "".join("ab"[i % 2] for i in range(m)) + _inverse("".join("ba"[i % 2] for i in range(m)))
    starts = ["".join(rng.choice("abAB") for _ in range(rng.randint(1, 6))) for _ in range(8)]
    for _ in range(4):
        u = "".join(rng.choice("abAB") for _ in range(rng.randint(0, 1)))
        r = rng.randrange(2 * m)
        starts.append(u + relator[r:] + relator[:r] + _inverse(u))
    return starts


# sha256 of the closures below.  A budget-cut run keeps whatever its
# search order met first, so the hash pins the order in which `closure`
# lists, canonicalises and dedupes neighbours.
CLOSURE_ORDER_SHA256 = "15256f0a750a9ba7e6bb94b6c95f58eb003a09f28e4f181ffc29e15a6bae198c"


def test_closure_search_order_from_nonempty_starts_is_pinned():
    rng = random.Random(22)
    h = hashlib.sha256()
    for m in range(2, 6):
        for s in _order_starts(rng, m):
            for budget in (50, 500, 100_000):
                r = closure(m, s, len(s) + 2, budget)
                h.update(repr((r.reached_target, r.complete, r.visited_count, sorted(r.states))).encode())
    assert h.hexdigest() == CLOSURE_ORDER_SHA256
