"""The syntactic classifier for trivial minimal-girth boundary words.

A nontrivial word with fewer than 2m syllables bounds no van Kampen
diagram, and at exactly 2m syllables the trivial words form a single
rotated one-parameter family.  The classifier is validated here against
the Garside oracle over the full m = 3 sweep.  `girth_sweep` meets in
the middle on both sides: the half-word keys are checked against the
classifier on every word of the sweeps up to m = 5, b = 2, and the
whole sweep against a word-by-word loop on every sweep of at most 4,096
words; the larger sweeps run here with frozen counts and in
test_acceptance.
"""

import itertools
import random

import pytest

from artinflats import girth
from artinflats.dihedral import is_trivial
from artinflats.girth import (
    GirthPreconditionError,
    classify,
    classify_commutator,
    minimum_boundary_syllables,
    template_word,
)
from artinflats.presentation import ArtinPresentation, Word


def rotate(word, r):
    syls = word.syllables
    return Word.from_letters(
        (s.generator, 1 if s.exponent > 0 else -1)
        for s in syls[r:] + syls[:r]
        for _ in range(abs(s.exponent))
    )


def test_template_word_shapes():
    # m odd: x^k then alternating, closing with inverses
    assert str(template_word(3, 2)) == "s2 t1 s1 t-2 s-1 t-1"
    assert str(template_word(3, 1)) == "s1 t1 s1 t-1 s-1 t-1"
    # m even: the two k-powers sit on the same generator
    assert str(template_word(4, 3)) == "s3 t1 s1 t1 s-3 t-1 s-1 t-1"
    assert str(template_word(4, -2, swap=True)) == "t-2 s1 t1 s1 t2 s-1 t-1 s-1"


def test_templates_are_trivial():
    for m in (3, 4, 5):
        pres = ArtinPresentation(("s", "t"), {("s", "t"): m})
        for k in (-3, -1, 1, 2):
            for swap in (False, True):
                assert is_trivial(pres, template_word(m, k, swap))


def test_classify_recovers_rotation_and_k():
    for m in (3, 4):
        for k in (-2, 1, 3):
            for swap in (False, True):
                base = template_word(m, k, swap)
                for r in range(2 * m):
                    w = rotate(base, r)
                    if len(w.syllables) != 2 * m:
                        continue  # rotation through the k-power merged syllables
                    hit = classify(m, w)
                    assert hit is not None, (m, k, swap, r)
                    back = rotate(w, hit.rotation)
                    assert back == template_word(m, hit.k, hit.swap)


def test_classify_rejects_perturbations():
    rng = random.Random(9)
    m = 3
    pres = ArtinPresentation(("s", "t"), {("s", "t"): m})
    for _ in range(100):
        exps = [rng.choice([-2, -1, 1, 2]) for _ in range(2 * m)]
        word = Word.from_letters(
            ("st"[i % 2], 1 if e > 0 else -1) for i, e in enumerate(exps) for _ in range(abs(e))
        )
        hit = classify(m, word)
        assert (hit is not None) == is_trivial(pres, word)


def test_classify_shape_preconditions():
    with pytest.raises(GirthPreconditionError):
        classify(3, Word.parse("s1 t1 s1 t1"))  # wrong syllable count
    with pytest.raises(GirthPreconditionError):
        classify(3, Word.parse("s1 t1 r1 s1 t1 r1"))  # third generator
    with pytest.raises(GirthPreconditionError):
        classify(2, Word.parse("s1 t1 s-1 t-1"))


def test_classify_commutator():
    assert classify_commutator(Word.parse("s2 t-1 s-2 t1")) is not None
    assert classify_commutator(Word.parse("t1 s2 t-1 s-2")) is not None
    assert classify_commutator(Word.parse("s2 t-1 s-2 t-1")) is None
    hit = classify_commutator(Word.parse("t3 s1 t-3 s-1"))
    assert (hit.k, hit.l, hit.swap) == (3, 1, True)


def test_full_sweep_m3():
    """Every alternating 6-syllable word with exponents in {+-1, +-2}:
    classifier and oracle agree, and exactly 18 words are trivial."""
    m = 3
    pres = ArtinPresentation(("s", "t"), {("s", "t"): m})
    trivial = 0
    for exps in itertools.product([-2, -1, 1, 2], repeat=2 * m):
        word = Word.from_letters(
            ("st"[i % 2], 1 if e > 0 else -1) for i, e in enumerate(exps) for _ in range(abs(e))
        )
        matched = classify(m, word) is not None
        oracle = is_trivial(pres, word)
        assert matched == oracle, word
        trivial += oracle
    assert trivial == 18


def test_minimum_boundary_syllables():
    assert [minimum_boundary_syllables(m) for m in (2, 3, 4, 5)] == [4, 6, 8, 10]


def _word_by_word_sweep(m, bound):
    """Reference route: one Word and one full normal form per word."""
    pres = ArtinPresentation(("s", "t"), {("s", "t"): m})
    exps = [e for k in range(1, bound + 1) for e in (k, -k)]
    total = trivial = agree = 0
    first = None
    for combo in itertools.product(exps, repeat=2 * m):
        word = Word.from_letters(("st"[i % 2], e) for i, e in enumerate(combo))
        matched = (classify_commutator(word) if m == 2 else classify(m, word)) is not None
        oracle = is_trivial(pres, word)
        total += 1
        trivial += oracle
        agree += matched == oracle
        if matched != oracle and first is None:
            first = word
    return total, trivial, agree, first


@pytest.mark.parametrize(
    "m, bound", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1), (6, 1)]
)
def test_girth_sweep_matches_word_by_word(m, bound):
    result = girth.girth_sweep(m, bound)
    assert tuple(result) == _word_by_word_sweep(m, bound)
    assert result.agree == result.total and result.first_disagreement is None
    if m >= 3:
        assert result.trivial == 2 * m * (2 * bound - 1)


@pytest.mark.parametrize("m, bound", [(m, b) for m in (2, 3, 4, 5) for b in (1, 2)])
def test_half_word_keys_propose_every_template_match(m, bound):
    """Exhaustive: the pairs of halves that share a key are exactly the
    words the classifier core matches.  The sweep never runs the core
    on any other word, so this is what rules out false negatives."""
    exps = [e for k in range(1, bound + 1) for e in (k, -k)]
    core = girth._is_commutator if m == 2 else lambda w: girth.match_exponents(m, w)
    matched = {(w[:m], w[m:]) for w in itertools.product(exps, repeat=2 * m) if core(w)}
    assert girth._template_pairs(m, exps) == matched


@pytest.mark.parametrize("m, bound, trivial", [(6, 2, 36), (7, 2, 42)])
def test_girth_sweep_frozen_counts_beyond_criterion_1(m, bound, trivial):
    result = girth.girth_sweep(m, bound)
    total = (2 * bound) ** (2 * m)
    assert tuple(result) == (total, trivial, total, None)
    assert result.trivial == 2 * m * (2 * bound - 1)


@pytest.fixture
def misses_k_minus_1(monkeypatch):
    """A mutant classifier core that never matches a template with k = -1."""
    real = girth.match_exponents

    def mutant(m, exps):
        hit = real(m, exps)
        return None if hit is not None and hit[0] == -1 else hit

    monkeypatch.setattr(girth, "match_exponents", mutant)


def test_girth_sweep_reports_the_first_disagreement(misses_k_minus_1, run_cli):
    result = girth.girth_sweep(3, 1)
    assert (result.total, result.trivial) == (64, 6) and result.agree < result.total
    assert tuple(result) == _word_by_word_sweep(3, 1)
    first = result.first_disagreement
    assert first == Word.parse("s1 t1 s-1 t-1 s-1 t1")
    assert rotate(first, 4) == template_word(3, -1) and is_trivial(
        ArtinPresentation(("s", "t"), {("s", "t"): 3}), first
    )
    code, out, err = run_cli("girth-sweep", "-m", "3", "--exponent-bound", "1")
    assert code == 2
    assert f"agreement {result.agree}/64" in out and "first disagreement: s1 t1 s-1 t-1 s-1 t1" in out
    assert "Traceback" not in err
