"""Words, presentations, and the one-variable word templates."""

import random

import pytest

from artinflats.presentation import (
    INFINITY,
    ArtinPresentation,
    Concat,
    Fixed,
    PowerAtom,
    Star,
    Word,
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


def test_presentation_lookup_and_symmetry():
    pres = ArtinPresentation(("s", "t", "r"), {("s", "t"): 3, ("t", "r"): 4})
    assert pres.m("s", "t") == pres.m("t", "s") == 3
    assert pres.m("s", "r") is INFINITY
    with pytest.raises(KeyError):
        pres.m("s", "s")


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
    ):
        with pytest.raises(ValueError):
            ArtinPresentation.from_dict(data)


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


def test_fixed_template():
    t = Fixed(Word.parse("s1 t1"))
    assert t.matches(Word.parse("s1 t1"))
    assert not t.matches(Word.parse("s1 t2"))
    assert list(t.enumerate(2, 2)) == [Word.parse("s1 t1")]


def test_power_atom():
    t = PowerAtom("t")
    assert t.matches(Word.parse("t-3"))
    assert not t.matches(Word.parse("s1"))
    assert not t.matches(Word.parse(""))
    got = {str(w) for w in t.enumerate(2, 1)}
    assert got == {"t1", "t-1", "t2", "t-2"}


def test_concat_respects_syllable_boundaries():
    # t^k . s t r : the k-power and the fixed tail stay separate syllables
    t = Concat(PowerAtom("t"), Fixed(Word.parse("s1 t1 r1")))
    assert t.matches(Word.parse("t2 s1 t1 r1"))
    assert t.matches(Word.parse("t-1 s1 t1 r1"))
    assert not t.matches(Word.parse("s1 t1 r1"))


def test_star_repeats():
    t = Star(Concat(PowerAtom("t"), Fixed(Word.parse("s1 t1 r1"))))
    one = Word.parse("t1 s1 t1 r1")
    two = Word.parse("t1 s1 t1 r1 t-2 s1 t1 r1")
    assert t.matches(one)
    assert t.matches(two)
    assert not t.matches(Word.parse("t1 s1 t1"))
    # at least one repetition is required
    assert not t.matches(Word.parse(""))


def test_star_enumerate_agrees_with_matches():
    t = Star(Concat(PowerAtom("t"), Fixed(Word.parse("s1 r1"))))
    words = list(t.enumerate(1, 2))
    assert len(words) == len(set(map(str, words)))
    for w in words:
        assert t.matches(w)
    # a one-rep and a two-rep instance both appear
    lens = {len(w.syllables) for w in words}
    assert lens == {3, 6}


def test_star_matches_beyond_any_enumeration_bound():
    t = Star(Concat(PowerAtom("t"), Fixed(Word.parse("s1 t1 r1"))))
    factors = ["t1 s1 t1 r1", "t-2 s1 t1 r1", "t2 s1 t1 r1"]
    for n in (5, 6, 9):
        w = Word.parse(" ".join(factors[i % 3] for i in range(n)))
        assert t.matches(w)
        assert not t.matches(Word.parse(str(w) + " t1"))
        assert not t.matches(Word.parse(str(w) + " t1 s1"))
    assert t.matches(Word.parse("t7 s1 t1 r1 t-9 s1 t1 r1"))


def test_matches_agrees_with_enumeration_on_mutations():
    # every enumerated member matches, and on one-syllable mutations
    # (exponent moved by +-1 within [-2, 2], or last syllable dropped)
    # `matches` agrees with membership in the same enumeration
    from artinflats.subgroups import flat_family

    rng = random.Random(404)
    for case in "bcdef":
        t = flat_family(case).template
        members = t.enumerate(2, 2)
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
        lambda: Concat(PowerAtom("t"), Fixed("t1 s1")),
        lambda: Concat(Fixed("s1 t1"), PowerAtom("t")),
        lambda: Concat(PowerAtom("s"), PowerAtom("s")),
        lambda: Star(Fixed("s1 t1 s1")),
        lambda: Star(PowerAtom("t")),
        lambda: Star(Concat(PowerAtom("t"), Fixed("s1 t1"))),
        lambda: Fixed(""),
        lambda: Concat(),
    )
    for make in bad:
        with pytest.raises(ValueError):
            make()
