"""Words, presentations, and the star-of-factors word templates."""

import hashlib
import random
import time

import pytest

from artinflats import dihedral
from artinflats.presentation import (
    INFINITY,
    ArtinPresentation,
    LanguageTemplate,
    Word,
    balanced_rewrites,
    reduce,
)


def test_parse_str_roundtrip():
    for text in ["", "s1", "s2 t-1", "s-3 t1 s1 t-2", "r1 t1 r-1"]:
        assert str(Word.parse(text)) == text


def test_parse_rejects_garbage():
    for bad in ["s", "1", "s1t1", "s 1"]:
        with pytest.raises(ValueError):
            Word.parse(bad)
    # a zero exponent is legal input and reduces away
    assert str(Word.parse("s0")) == ""


def test_reduce_merges_and_drops():
    w = reduce([("s", 1), ("s", 1), ("t", -1), ("t", 1), ("s", 2)])
    assert str(w) == "s4"
    assert str(reduce([("s", 1), ("s", -1)])) == ""


def test_reduce_idempotent_random():
    rng = random.Random(71)
    gens = "str"
    for _ in range(200):
        syls = [(rng.choice(gens), rng.randint(-3, 3)) for _ in range(rng.randint(0, 12))]
        w = reduce(syls)
        assert reduce(w.syllables) == w
        # letters() spells the same element back
        assert Word.from_letters(w.letters()) == w


def test_inverse_and_concat():
    w = Word.parse("s2 t-1 r1")
    assert str(w.inverse()) == "r-1 t1 s-2"
    assert str(w * w.inverse()) == ""
    assert (w * Word.parse("r1")).syllables[-1].exponent == 2


def test_substitute():
    w = Word.parse("s1 t-2 s1")
    assert str(w.substitute({"s": "t", "t": "s"})) == "t1 s-2 t1"
    # substitution that merges adjacent syllables
    assert str(Word.parse("s1 t1").substitute({"t": "s"})) == "s2"


def test_exponent_sum():
    w = Word.parse("s2 t-1 s-1 t1")
    assert w.exponent_sum("s") == 1
    assert w.exponent_sum("t") == 0
    assert w.exponent_sum("r") == 0


# sha256 over the concatenated repr of the rule tables: the search's
# balanced_rewrites("a", "b", m) for m = 2..64, and the oracle's
# "abAB" view dihedral.balanced_rules(m) for m = 2..12.  A version 1
# certificate names a rule by its index in the first table, and the
# search's certificate bytes follow its order.
RULES_SHA256 = "7d8cf9a05aa01ed76d0f6cdf4864a7a197c296f7737919fcd8e522cdf78df190"
ORACLE_RULES_SHA256 = "540ce6b1c6676e3eda0e809dfd39ad23e57d3217a93d5dd33ac282a37caae347"


def test_relator_rule_order_is_pinned():
    text = "".join(repr(balanced_rewrites("a", "b", m)) for m in range(2, 65))
    assert hashlib.sha256(text.encode()).hexdigest() == RULES_SHA256
    text = "".join(repr(dihedral.balanced_rules(m)) for m in range(2, 13))
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_RULES_SHA256


def test_presentation_lookup_and_symmetry():
    pres = ArtinPresentation(("s", "t", "r"), {("s", "t"): 3, ("t", "r"): 4})
    assert pres.m("s", "t") == pres.m("t", "s") == 3
    assert pres.m("s", "r") is INFINITY
    with pytest.raises(KeyError):
        pres.m("s", "s")


def reference_finite_pairs(pres):
    """One test per generator pair: the reference for `finite_pairs`."""
    gens = pres.generators
    return [(a, b) for i, a in enumerate(gens) for b in gens[i + 1 :] if pres.m(a, b) is not None]


def test_finite_pairs_match_the_double_loop():
    rng = random.Random(29)
    for _ in range(300):
        gens = rng.sample([f"g{i}" for i in range(12)], rng.randint(1, 12))
        pairs = [(a, b) for i, a in enumerate(gens) for b in gens[i + 1 :]]
        table = {}
        for a, b in rng.sample(pairs, rng.randint(0, len(pairs))):
            table[(a, b) if rng.random() < 0.5 else (b, a)] = rng.choice((2, 3, 4, None))
        pres = ArtinPresentation(gens, table)
        assert pres.finite_pairs() == reference_finite_pairs(pres), (gens, table)


def test_finite_pairs_cost_the_relations_not_the_generators():
    # 4,002 generators and one relation: about 8 million pair tests for
    # the double loop, one table entry here
    pres = ArtinPresentation(["s", "t"] + [f"g{i}" for i in range(4000)], {("t", "s"): 3})
    t0 = time.perf_counter()
    assert pres.finite_pairs() == [("s", "t")]
    assert time.perf_counter() - t0 < 0.1


def test_presentation_rejects_bad_exponent():
    with pytest.raises(ValueError):
        ArtinPresentation(("s", "t"), {("s", "t"): 1})
    with pytest.raises(ValueError):
        ArtinPresentation(("s", "t"), {("s", "u"): 3})
    with pytest.raises(ValueError):
        ArtinPresentation(("s", 1))


def test_from_dict_rejects_non_integer_exponents():
    for m in (3.5, "3", True, 3.0):
        with pytest.raises(ValueError):
            ArtinPresentation.from_dict({"generators": ["s", "t"], "exponents": [["s", "t", m]]})


def test_from_dict_rejects_malformed_documents():
    for data in (
        [1, 2],
        "s t",
        {},
        {"generators": "st"},
        {"generators": [1, 2]},
        {"generators": ["s", "t"], "exponents": {"s": 3}},
        {"generators": ["s", "t"], "exponents": [["s", "t"]]},
        {"generators": ["s", "t"], "exponents": ["st3"]},
        {"generators": ["s", "t"], "exponents": [["s", "t", 3], ["s", "t", 4]]},
        {"generators": ["s", "t"], "exponents": [["s", "t", 3], ["t", "s", 4]]},
    ):
        with pytest.raises(ValueError):
            ArtinPresentation.from_dict(data)
    # an equal repeat, in either order, is the same presentation
    for exps in ([["s", "t", 3], ["s", "t", 3]], [["s", "t", 3], ["t", "s", 3]]):
        pres = ArtinPresentation.from_dict({"generators": ["s", "t"], "exponents": exps})
        assert pres.m("s", "t") == 3


def test_two_dimensional():
    flat = ArtinPresentation(("s", "t", "r"), {("s", "t"): 3, ("t", "r"): 3, ("s", "r"): 3})
    assert flat.two_dimensional()
    spherical = ArtinPresentation(("s", "t", "r"), {("s", "t"): 3, ("t", "r"): 3, ("s", "r"): 2})
    assert not spherical.two_dimensional()
    # missing relations count as infinity and can only help
    free_ish = ArtinPresentation(("s", "t", "r"), {("s", "t"): 2})
    assert free_ish.two_dimensional()


def test_json_roundtrip():
    pres = ArtinPresentation(("s", "t", "r"), {("s", "t"): 6, ("t", "r"): 3, ("s", "r"): 2})
    back = ArtinPresentation.from_json(pres.to_json())
    assert back == pres
    # an explicit INFINITY pair, a JSON null and an absent pair are one presentation
    explicit = ArtinPresentation(("s", "t", "r"), {("s", "t"): 3, ("t", "r"): INFINITY})
    absent = ArtinPresentation(("s", "t", "r"), {("s", "t"): 3})
    null = ArtinPresentation.from_dict(
        {"generators": ["s", "t", "r"], "exponents": [["s", "t", 3], ["t", "r", None]]}
    )
    for pres in (explicit, null):
        assert ArtinPresentation.from_json(pres.to_json()) == pres
        assert pres == absent and hash(pres) == hash(absent)


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------


CASE_B = LanguageTemplate((("t", "s1 t1 r1"),))


def test_concat_respects_syllable_boundaries():
    # t^k . s t r : the k-power and the fixed tail stay separate syllables
    assert CASE_B.matches(Word.parse("t2 s1 t1 r1"))
    assert CASE_B.matches(Word.parse("t-1 s1 t1 r1"))
    assert not CASE_B.matches(Word.parse("s1 t1 r1"))
    assert CASE_B.exponents(Word.parse("t2 s1 t1 r1")) == ((2,),)
    assert str(CASE_B.word([(-3,)])) == "t-3 s1 t1 r1"


def test_star_repeats():
    one = Word.parse("t1 s1 t1 r1")
    two = Word.parse("t1 s1 t1 r1 t-2 s1 t1 r1")
    assert CASE_B.matches(one)
    assert CASE_B.matches(two)
    assert CASE_B.exponents(two) == ((1,), (-2,))
    assert not CASE_B.matches(Word.parse("t1 s1 t1"))
    # at least one factor is required
    assert not CASE_B.matches(Word.parse(""))
    with pytest.raises(ValueError):
        CASE_B.word([])


def test_star_enumerate_agrees_with_matches():
    t = LanguageTemplate((("t", "s1 r1"),))
    words = [w for n in (1, 2) for w in t.members(n, 1)]
    assert len(words) == len(set(map(str, words)))
    for w in words:
        assert t.matches(w)
    # a one-factor and a two-factor member both appear
    lens = {len(w.syllables) for w in words}
    assert lens == {3, 6}


def test_members_order():
    # exponents run 1, -1, 2, -2, ... with the last one varying fastest
    assert [str(w) for w in CASE_B.members(1, 2)] == [
        "t1 s1 t1 r1", "t-1 s1 t1 r1", "t2 s1 t1 r1", "t-2 s1 t1 r1",
    ]
    case_c = LanguageTemplate((("r", "t-1"), ("s", "t1")))
    assert [w.syllables[0].exponent for w in case_c.members(1, 1)] == [1, 1, -1, -1]
    assert [CASE_B.exponents(w) for w in CASE_B.members(2, 1)] == [
        ((1,), (1,)), ((1,), (-1,)), ((-1,), (1,)), ((-1,), (-1,)),
    ]


def test_star_matches_beyond_any_enumeration_bound():
    factors = ["t1 s1 t1 r1", "t-2 s1 t1 r1", "t2 s1 t1 r1"]
    for n in (5, 6, 9):
        w = Word.parse(" ".join(factors[i % 3] for i in range(n)))
        assert CASE_B.matches(w)
        assert not CASE_B.matches(Word.parse(str(w) + " t1"))
        assert not CASE_B.matches(Word.parse(str(w) + " t1 s1"))
    assert CASE_B.matches(Word.parse("t7 s1 t1 r1 t-9 s1 t1 r1"))


def test_word_exponents_round_trip():
    from artinflats.subgroups import flat_family

    rng = random.Random(77)
    for case in "bcdef":
        t = flat_family(case).template
        for n in range(1, 7):
            for _ in range(10):
                e = tuple(
                    tuple(rng.choice((-1, 1)) * rng.randint(1, 50) for _ in t.shape)
                    for _ in range(n)
                )
                assert t.exponents(t.word(e)) == e, (case, e)


def test_matches_agrees_with_enumeration_on_mutations():
    # every listed member matches, and on one-syllable mutations
    # (exponent moved by +-1 within [-2, 2], or last syllable dropped)
    # `matches` agrees with membership in the same list
    from artinflats.subgroups import flat_family

    rng = random.Random(404)
    for case in "bcdef":
        t = flat_family(case).template
        members = {w for n in (1, 2) for w in t.members(n, 2)}
        assert all(t.matches(w) for w in members)
        for w in rng.sample(sorted(members, key=str), min(40, len(members))):
            syls = list(w.syllables)
            i = rng.randrange(len(syls))
            e = syls[i].exponent + rng.choice((-1, 1))
            mutants = [reduce(syls[:-1])]
            if e and abs(e) <= 2:
                mutants.append(reduce(syls[:i] + [(syls[i].generator, e)] + syls[i + 1 :]))
            for m in mutants:
                assert t.matches(m) == (m in members), (case, str(m))


def test_templates_whose_parts_merge_are_rejected():
    bad = (
        (("t", "t1 s1"),),  # power meets its own tail
        (("t", "s1 t1"),),  # last tail meets the power of the next factor
        (("t", "s1"), ("s", "r1")),  # first tail meets the second power
        (("r", "t1"), ("s", "r1")),  # second tail wraps into the first power
        (("t", ""),),
        (("t", "s1"), ("r", "")),
        (),
    )
    for shape in bad:
        with pytest.raises(ValueError):
            LanguageTemplate(shape)
