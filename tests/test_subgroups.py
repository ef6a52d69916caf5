"""Flat rank-two families, the Klein-bottle pair, and tiling read-off.

Each family instance is a pair of words generating a free abelian group
of rank two; `verify_abelian` returns a replayable commutator
certificate and the read-off functions recover such pairs from directed
patches.  Move counts of searched certificates are deterministic and
frozen as regression values.
"""

import hashlib
import random
import sys
import tracemalloc

import pytest

from artinflats.presentation import ArtinPresentation, Word
from artinflats import presentation, prover, subgroups
from artinflats.prover import (
    MAX_CERT_LETTERS,
    Budget,
    Certificate,
    SearchBudgetError,
    WordTooLongError,
    mirror_certificate,
    prove_commutator,
    replay,
)
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
from helpers import invert_certificate


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


def test_family_case_a_refuses_a_generator_outside_the_presentation():
    # refused before m(x, u) is read, so a ValueError and not a KeyError
    four = ArtinPresentation(
        ("s", "t", "u", "v"),
        {("s", "t"): 3, ("u", "v"): 4, ("s", "u"): 2, ("s", "v"): 2, ("t", "u"): 2, ("t", "v"): 2},
    )
    for left in ("x1", Word.parse("x1")):
        with pytest.raises(ValueError, match=r"generators \['x'\] outside the presentation"):
            family("a", presentation=four, left=left, right="u1")


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
    ("b", (1,)): 22,
    ("b", (2, 1)): 65,
    ("c", ((1, 1),)): 25,
    ("c", ((-2, 1),)): 52,
    ("d", (1,)): 28,
    ("e", (1,)): 36,
    ("f", (1,)): 45,
}


def test_verify_abelian_certificates_replay():
    for (case, exps), moves in VERIFY_MOVES.items():
        cert = verify_abelian(case, list(exps))
        assert replay(cert)
        assert not cert.end.syllables
        assert len(cert.moves) == moves, (case, exps)


FOUR = ArtinPresentation(
    ("s", "t", "u", "v"),
    {("s", "t"): 3, ("u", "v"): 4, ("s", "u"): 2, ("s", "v"): 2, ("t", "u"): 2, ("t", "v"): 2},
)


def test_verify_abelian_case_a(monkeypatch):
    four = FOUR

    def no_search(*args, **kwargs):
        raise AssertionError("case a reached the search")

    monkeypatch.setattr(prover, "_search", no_search)
    for left, right in (("s1 t1", "u2 v-1"), ("s2 t-1", "u1 v2"), ("t-2", "v1 u-1 v3")):
        cert = verify_abelian("a", presentation=four, left=left, right=right)
        a, b = Word.parse(left), Word.parse(right)
        assert cert.start == a * b * a.inverse() * b.inverse()
        assert replay(cert) and not cert.end.syllables
        # |a| |b| swaps and |a| + |b| cancels
        la, lb = a.letter_length(), b.letter_length()
        assert len(cert.moves) == la * lb + la + lb, (left, right)
    # a presentation the search would refuse is refused here too
    monkeypatch.setattr(prover, "MAX_CODES", 6)
    with pytest.raises(WordTooLongError, match="more than 6 letter codes"):
        verify_abelian("a", presentation=four, left="s1", right="u1")


def test_case_a_refuses_a_certificate_over_the_move_cap(monkeypatch):
    # s1000000 and u1000000 pass the word check, but their certificate
    # would take 10^12 moves: it is refused before a letter is expanded
    tracemalloc.start()
    try:
        with pytest.raises(WordTooLongError, match=f"more than {MAX_CERT_LETTERS} moves"):
            verify_abelian("a", presentation=FOUR, left="s1000000", right="u1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the cap counts |a| |b| swaps and |a| + |b| cancels: under a cap of
    # 35, s5 vs u5 (25 + 10) is built and s5 vs u6 (30 + 11) is refused
    monkeypatch.setattr(subgroups, "MAX_CERT_LETTERS", 35)
    assert len(verify_abelian("a", presentation=FOUR, left="s5", right="u5").moves) == 35
    with pytest.raises(WordTooLongError, match="more than 35 moves"):
        verify_abelian("a", presentation=FOUR, left="s5", right="u6")


def test_verify_abelian_budget_exhaustion_raises():
    # the memo holds the default budget's certificates; a smaller budget
    # must still search, and fail, on its own
    assert replay(verify_abelian("e", [2, 2]))
    with pytest.raises(SearchBudgetError):
        verify_abelian("e", [2, 2], budget=Budget(max_states=50))


def test_factor_memo_hit_equals_a_fresh_search(monkeypatch):
    calls = []
    prove = prover.prove_conjugation

    def counting_prove(*args):
        calls.append(args)
        return prove(*args)

    monkeypatch.setattr(prover, "prove_conjugation", counting_prove)
    subgroups._factor_certificate.cache_clear()
    fresh = verify_abelian("c", [(1, 2), (1, 2)])
    assert len(calls) == 1  # the repeated factor is searched once
    hit = verify_abelian("c", [(1, 2), (1, 2)])
    assert len(calls) == 1
    assert hit == fresh and hit.to_json() == fresh.to_json()


def test_verify_abelian_builds_one_rule_table(monkeypatch):
    # with warm caches nothing would be built, and the bound would hold
    # vacuously
    prover._rule_table.cache_clear()
    subgroups._factor_certificate.cache_clear()
    built = []
    init = prover._Rules.__init__

    def counting_init(self, pres):
        built.append(pres)
        init(self, pres)

    monkeypatch.setattr(prover._Rules, "__init__", counting_init)
    verify_abelian("b", [2, 1])
    assert len(built) == 1


def test_klein_pair_and_composite():
    expected = {1: (11, 1, 23), 2: (30, 8, 61)}
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


# sha256 over the to_json() texts, joined by newlines, of the VERIFY_MOVES
# certificates, the relation, product and composite of klein_pair(k) for
# k = 1, -1, 2, -2, and the README's `prove --commutator` certificate:
# the search must reproduce each certificate byte for byte, not only its
# move count
CERTIFICATE_SHA256 = "509940457cd8744792fd6392b492dcdf6a36a5d20740f90bb955bf1a7d12a878"


def test_certificate_bytes_are_pinned(m3):
    certs = [verify_abelian(case, list(exps)) for case, exps in VERIFY_MOVES]
    for k in (1, -1, 2, -2):
        pair = klein_pair(k)
        certs += [pair.relation, pair.product, klein_composite(pair)]
    certs.append(prove_commutator(m3, Word.parse("s1 t1 s1 s1 t1 s1"), Word.parse("t-1 s1 t1")))
    text = "\n".join(cert.to_json() for cert in certs)
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_SHA256


def test_replay_shares_no_code_with_the_search(monkeypatch, m3, m4):
    from test_prover import found_certs

    rng = random.Random(17)
    certs = found_certs(m3, rng, 10) + found_certs(m4, rng, 10)
    certs += [verify_abelian(case, list(exps)) for case, exps in VERIFY_MOVES]
    for k in (1, -1, 2, -2):
        pair = klein_pair(k)
        certs += [pair.relation, pair.product, klein_composite(pair)]

    def search_table(*args, **kwargs):
        raise AssertionError("replay reached the search's rule table")

    for name in ("relator_rules", "_Rules", "_rule_table"):
        monkeypatch.setattr(prover, name, search_table)
    # the shared rule builder, in presentation and wherever it is bound
    builder = presentation.balanced_rewrites
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "artinflats":
            for name, value in list(vars(module).items()):
                if value is builder:
                    monkeypatch.setattr(module, name, search_table)
    assert presentation.balanced_rewrites is prover.balanced_rewrites is search_table
    for cert in certs:
        assert replay(cert)
        loaded = Certificate.from_json(cert.to_json())
        assert loaded == cert and replay(loaded)
        assert replay(invert_certificate(cert))
        assert mirror_certificate(mirror_certificate(cert)) == cert


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


def test_read_off_rejects_invalid_square_directions():
    from artinflats.tiling import DirectedEdge

    patch = scaled_patch(TriangleType.SQUARE, 2)
    d = standard_directions(patch)
    e = patch.edges[0]
    d[0] = DirectedEdge(e.v if d[0].source == e.u else e.u, d[0].label)
    with pytest.raises(ValueError):
        read_off_generators(patch, d)


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


# sha256 over the lines f"{name}x{scale} {i} {w1} | {w2}", joined by
# newlines, one per validating assignment i of
# enumerate_consistent_directions on E333/E244/E236 x1 and E333 x2: the
# read-off must reproduce every pair, not only the case histograms
READ_OFF_SHA256 = "780e392ecc86609b5cee6eb1957a540634d67b9216e5b7c33ddd5de2fd70c4f4"


def test_read_off_pairs_are_pinned():
    lines = []
    for name, scale in (("E333", 1), ("E244", 1), ("E236", 1), ("E333", 2)):
        tt = TriangleType[name]
        patch = minimal_patch(tt) if scale == 1 else scaled_patch(tt, scale)
        for i, d in enumerate(enumerate_consistent_directions(patch)):
            if validate_directions(patch, d).ok:
                w1, w2 = read_off_generators(patch, d)
                lines.append(f"{name}x{scale} {i} {w1} | {w2}")
    assert len(lines) == 204
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == READ_OFF_SHA256


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
