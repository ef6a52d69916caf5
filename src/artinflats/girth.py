"""Syntactic classification of minimal disc boundaries.

In a dihedral Artin group with exponent m >= 3, a nontrivial cyclic
word bounding a van Kampen diagram has at least 2m syllables, and the
trivial words with exactly 2m syllables are precisely the cyclic
rotations of the one-parameter family

    x^k  y x y x ...   y^{-k} x^{-1} y^{-1} ...      (m odd)
    x^k  y x ... x y   x^{-k} y^{-1} ... y^{-1}      (m even)

with k a nonzero integer and m - 1 single letters between the two
k-powers; {x, y} may be taken in either order.  The classifier below is
purely syntactic -- it never consults a word-problem oracle -- and the
tests drive it against the Garside normal form over full sweeps.

For m = 2 the analogous family is x^k y^l x^{-k} y^{-l} (k, l nonzero),
every cyclic rotation of which is again of that shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from artinflats import dihedral
from artinflats.presentation import ArtinPresentation, Word


class GirthPreconditionError(ValueError):
    """The word does not meet the classifier's shape requirements."""


@dataclass(frozen=True)
class TemplateMatch:
    """rotate(word, rotation) == template_word(m, k, swap)."""

    k: int
    swap: bool
    rotation: int


@dataclass(frozen=True)
class CommutatorMatch:
    """The m = 2 shape x^k y^l x^{-k} y^{-l} (after the stated swap)."""

    k: int
    l: int
    swap: bool


def template_exponents(m: int, k: int) -> tuple[int, ...]:
    if m < 3:
        raise ValueError("template_exponents needs m >= 3")
    if k == 0:
        raise ValueError("k must be nonzero")
    return (k,) + (1,) * (m - 1) + (-k,) + (-1,) * (m - 1)


def template_word(m: int, k: int, swap: bool = False, generators: tuple[str, str] = ("s", "t")) -> Word:
    """The distinguished trivial word with 2m syllables.

    With swap=False the word starts on generators[0]; swap=True starts
    it on generators[1] (exchanging the roles of x and y throughout).
    """
    g0, g1 = generators
    if swap:
        g0, g1 = g1, g0
    exps = template_exponents(m, k)
    return Word.from_letters(
        ((g0 if i % 2 == 0 else g1), 1 if e > 0 else -1)
        for i, e in enumerate(exps)
        for _ in range(abs(e))
    )


def match_exponents(m: int, exps: tuple[int, ...]) -> tuple[int, int] | None:
    """Find (k, rotation) with exps rotated left by `rotation` equal to
    template_exponents(m, k); smallest rotation wins.  Exponent-only
    core used by the full classifier and by bulk sweeps."""
    n = 2 * m
    for r in range(n):
        k = exps[r]
        if k == 0 or exps[(r + m) % n] != -k:
            continue
        if all(exps[(r + i) % n] == 1 for i in range(1, m)) and all(
            exps[(r + m + i) % n] == -1 for i in range(1, m)
        ):
            return k, r
    return None


def _check_shape(word: Word, syllable_count: int) -> tuple[str, str]:
    if len(word) != syllable_count:
        raise GirthPreconditionError(
            f"classifier needs exactly {syllable_count} syllables, got {len(word)}"
        )
    gens = word.generators_used()
    if len(gens) != 2:
        raise GirthPreconditionError(f"classifier needs exactly two generators, got {gens}")
    return gens  # sorted; reduced words alternate automatically


def classify(m: int, word: Word) -> TemplateMatch | None:
    """Match a 2m-syllable word against the trivial-boundary family.

    Returns the smallest rotation r such that rotating the word left by
    r syllables gives template_word(m, k, swap) on the word's two
    generators in sorted order.  At a given rotation the swap flag is
    determined by the starting generator, so the smallest-rotation rule
    already breaks all ties.  Purely syntactic.
    """
    if m < 3:
        raise GirthPreconditionError("classify needs m >= 3; use classify_commutator for m = 2")
    g0, _ = _check_shape(word, 2 * m)
    exps = tuple(s.exponent for s in word.syllables)
    hit = match_exponents(m, exps)
    if hit is None:
        return None
    k, r = hit
    return TemplateMatch(k=k, swap=word.syllables[r].generator != g0, rotation=r)


def classify_commutator(word: Word) -> CommutatorMatch | None:
    """Match a 4-syllable word against x^k y^l x^{-k} y^{-l} (m = 2)."""
    g0, _ = _check_shape(word, 4)
    a, b, c, d = (s.exponent for s in word.syllables)
    if c != -a or d != -b:
        return None
    return CommutatorMatch(k=a, l=b, swap=word.syllables[0].generator != g0)


def minimum_boundary_syllables(m: int) -> int:
    """Syllable count below which only the empty word is trivial."""
    return 2 * m


def girth_sweep(m: int, bound: int) -> tuple[int, int, int]:
    """Drive the syntactic classifier against the Garside normal form over
    every alternating word with 2m syllables (4 for m = 2) and exponents
    in {+-1..+-bound}.  Returns (total, trivial, agreements).

    Raises ValueError unless 2 <= m <= 6 and 1 <= bound <= 3.
    """
    if not 2 <= m <= 6:
        raise ValueError("m must be in 2..6")
    if not 1 <= bound <= 3:
        raise ValueError("exponent bound must be in 1..3")
    pres = ArtinPresentation(("s", "t"), {("s", "t"): m})
    exps = [e for k in range(1, bound + 1) for e in (k, -k)]
    syllables = 4 if m == 2 else 2 * m
    total = trivial = agree = 0
    for combo in itertools.product(exps, repeat=syllables):
        word = Word.from_letters(
            (("s" if i % 2 == 0 else "t"), e) for i, e in enumerate(combo)
        )
        if m == 2:
            matched = classify_commutator(word) is not None
        else:
            matched = classify(m, word) is not None
        oracle = dihedral.is_trivial(pres, word)
        total += 1
        trivial += oracle
        agree += matched == oracle
    return total, trivial, agree
