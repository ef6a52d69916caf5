"""Flat rank-two families, the Klein-bottle pair, and tiling read-off.

Each family instance is a pair of words generating a free abelian group
of rank two; `verify_abelian` returns a replayable commutator
certificate and the read-off functions recover such pairs from directed
patches.  Move counts of searched certificates are deterministic and
frozen as regression values.
"""

import random

import pytest

from artinflats.presentation import ArtinPresentation, Word
from artinflats.prover import Budget, SearchBudgetError, replay
from artinflats.subgroups import (
    FAMILY_CASES,
    abelianization_independent,
    family,
    flat_family,
    klein_composite,
    klein_pair,
    matches_family,
    read_off_generators,
    verify_abelian,
)
from artinflats.tiling import (
    TriangleType,
    enumerate_consistent_directions,
    minimal_patch,
    scaled_patch,
    standard_directions,
    validate_directions,
)


def test_family_words_fixed_instances():
    assert tuple(map(str, family("b", [1]))) == ("s1 t1 r1 s1 t1 r1", "t1 s1 t1 r1")
    assert tuple(map(str, family("b", [2, 1]))) == (
        "s1 t1 r1 s1 t1 r1",
        "t2 s1 t1 r1 t1 s1 t1 r1",
    )
    assert tuple(map(str, family("c", [(1, 1)]))) == ("s1 t1 r1 t1", "r1 t-1 s1 t1")
    assert tuple(map(str, family("d", [1]))) == ("s1 t1 s1 r1 t1 r1", "t1 s1 t1 r1")
    assert tuple(map(str, family("e", [1]))) == (
        "s1 t1 s1 t1 s1 r1 t1 s1 t1 r1",
        "t1 s1 t1 s1 t1 r1",
    )
    assert tuple(map(str, family("f", [1]))) == ("t1 s1 t1 s1 t1 r1", "s1 t1 s1 t1 r1 t-1")


def test_family_rejects_zero_exponent():
    for case in "bcdef":
        with pytest.raises(ValueError):
            family(case, [(0, 1)] if case == "c" else [0])


def test_family_rejects_degenerate_sums():
    # a zero bullet-sum collapses the abelianized pair to rank one
    for case in ("b", "d", "e"):
        with pytest.raises(ValueError):
            family(case, [1, -1])
        family(case, [1, 1])  # fine
    with pytest.raises(ValueError):
        family("c", [(1, 1), (-1, -1)])
    family("c", [(1, -1)])  # only both sums zero is degenerate
    family("f", [1, -1])  # the f shape is never degenerate


def test_family_case_a_requires_commuting_sides(e333):
    four = ArtinPresentation(
        ("s", "t", "u", "v"),
        {("s", "t"): 3, ("u", "v"): 4, ("s", "u"): 2, ("s", "v"): 2, ("t", "u"): 2, ("t", "v"): 2},
    )
    w1, w2 = family("a", presentation=four, left=Word.parse("s1 t-2"), right=Word.parse("u1 v1"))
    assert str(w1) == "s1 t-2" and str(w2) == "u1 v1"
    with pytest.raises(ValueError):
        family("a", presentation=e333, left=Word.parse("s1"), right=Word.parse("t1"))
    with pytest.raises(ValueError):
        # overlapping generator sets
        family("a", presentation=four, left=Word.parse("s1"), right=Word.parse("s1 v1"))


def test_abelianization_independent():
    gens = ("s", "t", "r")
    assert abelianization_independent(Word.parse("s1 t1"), Word.parse("t1 r1"), gens)
    assert not abelianization_independent(Word.parse("s1 t1"), Word.parse("s2 t2"), gens)
    assert not abelianization_independent(Word.parse(""), Word.parse("s1"), gens)


def test_flat_family_templates_match_their_words():
    for case in "bcdef":
        fam = flat_family(case)
        exps = [(1, 1)] if case == "c" else [1]
        w1, w2 = family(case, exps)
        assert w1 == fam.w1
        assert fam.template.matches(w2)


# certificate move counts are deterministic; frozen from the first runs
VERIFY_MOVES = {
    ("b", (1,)): 36,
    ("b", (2, 1)): 101,
    ("c", ((1, 1),)): 27,
    ("c", ((-2, 1),)): 54,
    ("d", (1,)): 32,
    ("e", (1,)): 50,
    ("f", (1,)): 67,
}


def test_verify_abelian_certificates_replay():
    for (case, exps), moves in VERIFY_MOVES.items():
        cert = verify_abelian(case, list(exps))
        assert replay(cert)
        assert not cert.end.syllables
        assert len(cert.moves) == moves, (case, exps)


def test_verify_abelian_case_a():
    four = ArtinPresentation(
        ("s", "t", "u", "v"),
        {("s", "t"): 3, ("u", "v"): 4, ("s", "u"): 2, ("s", "v"): 2, ("t", "u"): 2, ("t", "v"): 2},
    )
    cert = verify_abelian(
        "a", presentation=four, left=Word.parse("s1 t1"), right=Word.parse("u2 v-1")
    )
    assert replay(cert) and not cert.end.syllables


def test_verify_abelian_budget_exhaustion_raises():
    with pytest.raises(SearchBudgetError):
        verify_abelian("e", [2, 2], budget=Budget(max_states=50))


def test_klein_pair_and_composite():
    expected = {1: (11, 1, 23), 2: (36, 8, 73)}
    for k, (rel_moves, prod_moves, comp_moves) in expected.items():
        pair = klein_pair(k)
        assert str(pair.a) == "s1 t1 r1"
        assert pair.gprime == Word.parse(f"t{k} s1 r{-k} s-1")
        assert replay(pair.relation) and replay(pair.product)
        assert len(pair.relation.moves) == rel_moves
        assert len(pair.product.moves) == prod_moves
        # a^-1 g' a -> g'^-1
        assert pair.relation.end == pair.gprime.inverse()
        comp = klein_composite(pair)
        assert len(comp.moves) == comp_moves
        assert replay(comp)
        # a^-2 g' a^2 -> g': the conjugation by a^2 fixes g'
        a2 = pair.a * pair.a
        assert comp.start == Word.from_letters(
            list(a2.inverse().letters()) + list(pair.gprime.letters()) + list(a2.letters())
        )
        assert comp.end == pair.gprime


def test_klein_pair_rejects_zero():
    with pytest.raises(ValueError):
        klein_pair(0)


# ---------------------------------------------------------------------------
# read-off
# ---------------------------------------------------------------------------


def test_read_off_standard_directions():
    expected = {
        "E333": ("b", "s1 t1 r1 s1 t1 r1", "t-1 s1 t1 r1"),
        "E244": ("d", "s1 t1 s1 r1 t1 r1", "t1 s1 t1 r1"),
        "E236": ("f", "t1 s1 t1 s1 t1 r1", "s-1 t1 s1 t1 r1 t-1"),
    }
    for name, (case, w1_str, w2_str) in expected.items():
        patch = minimal_patch(TriangleType[name])
        d = standard_directions(patch)
        w1, w2 = read_off_generators(patch, d)
        assert (str(w1), str(w2)) == (w1_str, w2_str), name
        assert matches_family(case, w1, w2)


def test_read_off_rejects_invalid_directions(patch333):
    from artinflats.tiling import DirectedEdge

    d = standard_directions(patch333)
    e = patch333.edges[0]
    d[0] = DirectedEdge(e.v if d[0].source == e.u else e.u, d[0].label)
    with pytest.raises(ValueError):
        read_off_generators(patch333, d)


def test_read_off_matches_case_on_sampled_assignments():
    # the full per-type histograms run in test_acceptance; spot-check a
    # deterministic sample that includes label-2 assignments here
    patch = minimal_patch(TriangleType.E244)
    cons = [d for d in enumerate_consistent_directions(patch) if validate_directions(patch, d).ok]
    rng = random.Random(57)
    picked = rng.sample(range(len(cons)), 10)
    seen_long = False
    for i in picked:
        w1, w2 = read_off_generators(patch, cons[i])
        case = next(c for c in "cd" if matches_family(c, w1, w2))
        assert case in ("c", "d")
        seen_long |= any(abs(s.exponent) == 2 for s in w2.syllables)
    assert seen_long


def test_read_off_square_periods():
    for k, expect in ((2, ("s2", "t2")), (3, ("s3", "t3"))):
        patch = scaled_patch(TriangleType.SQUARE, k)
        d = standard_directions(patch)
        w1, w2 = read_off_generators(patch, d)
        assert (str(w1), str(w2)) == expect


def test_matches_family_respects_symmetry_and_inversion():
    w1, w2 = family("b", [2])
    assert matches_family("b", w1, w2)
    assert matches_family("b", w1.inverse(), w2)
    # swapping t and r is the exponent-matrix symmetry of the all-threes shape
    swapped = {"t": "r", "r": "t"}
    assert matches_family("b", w1.substitute(swapped), w2.substitute(swapped))
    assert not matches_family("b", w1, w1)


def test_matches_family_has_no_factor_bound():
    for case in "bcdef":
        for n in (5, 6):
            exps = [(1, 2 - i % 2) if case == "c" else 1 + i % 2 for i in range(n)]
            assert matches_family(case, *family(case, exps)), (case, n)


def test_family_cases_constant():
    assert FAMILY_CASES == ("a", "b", "c", "d", "e", "f")
