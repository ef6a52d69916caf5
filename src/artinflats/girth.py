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

`trivial_words` meets in the middle (Horowitz and Sahni, 1974).
Garside normal forms are unique, so a word p q is trivial exactly when
NF(p) = NF(q^-1).  It computes the normal form of every left half p and
of every inverted right half q^-1, each as one `dihedral.multiply` onto
the form of its longest proper prefix, so halves that share a prefix
share its product; the trivial words are the pairs with equal forms:
2 (2b)^m normal forms instead of (2b)^(2m) for exponent bound b.  The
same table serves `girth_sweep` on the oracle side and the tiling layer,
whose cell signatures are such words with exponents in {+-1, +-2}.

`girth_sweep` also meets in the middle on the classifier side, which
splits by rotation.  With m syllables in each half, p q matches the
template at rotation r < m with power k exactly when

    p = ((-1)^r, k, 1^(m-1-r))   and   q = (1^r, -k, (-1)^(m-1-r)),

and at rotation m + r when the same holds with p and q swapped; for
m = 2, exactly when q = -p.  Each key (side, r, k) thus names one
left half and one right half, and those pairs are the only candidates.
`match_exponents` (or `_is_commutator`) decides each candidate, so the
classifier stays the arbiter; that no matching word lies outside the
candidates is checked word by word in the tests.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from artinflats import dihedral
from artinflats.presentation import ArtinPresentation, Word, alternating, reduce


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
    return alternating(generators[::-1] if swap else generators, template_exponents(m, k))


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
    exps = tuple(s.exponent for s in word.syllables)
    if not _is_commutator(exps):
        return None
    return CommutatorMatch(k=exps[0], l=exps[1], swap=word.syllables[0].generator != g0)


def _is_commutator(exps: tuple[int, ...]) -> bool:
    """Exponent-only core of classify_commutator: (a, b, -a, -b)."""
    a, b, c, d = exps
    return c == -a and d == -b


def minimum_boundary_syllables(m: int) -> int:
    """Syllable count below which only the empty word is trivial."""
    return 2 * m


class SweepResult(NamedTuple):
    total: int
    trivial: int
    agree: int
    first_disagreement: Word | None  # in sweep order; None on full agreement


def _half_forms(
    pres: ArtinPresentation, exps: Sequence[int], start: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, tuple[dihedral.Simple, ...]]]]:
    """(half, (power, factors) of its normal form) for every alternating
    word of m syllables starting on "st"[start] with exponents in `exps`,
    in the order of itertools.product.  Depth first along the shared
    prefixes, one `dihedral.multiply` per prefix."""
    m = pres.m("s", "t")
    syllables = [[dihedral.normal_form(pres, reduce(((g, e),))) for e in exps] for g in "st"]

    def grow(half: tuple[int, ...], nf: dihedral.NormalForm):
        if len(half) == m:
            yield half, (nf.power, nf.factors)
            return
        for e, form in zip(exps, syllables[(start + len(half)) % 2]):
            yield from grow(half + (e,), dihedral.multiply(nf, form))

    return grow((), dihedral.normal_form(pres, Word()))


def trivial_words(m: int, exps: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """The exponent tuples of every trivial alternating word with 2m
    syllables, starting on s, whose exponents lie in `exps`.

    A word p q splits into halves of m syllables; q^-1 starts on t and
    has its exponents in -exps.  Each half is reduced once along the
    shared prefixes (`_half_forms`), and p q is trivial exactly when the
    normal forms of p and q^-1 are equal.
    """
    pres = ArtinPresentation(("s", "t"), {("s", "t"): m})
    lefts: dict[tuple[int, tuple[dihedral.Simple, ...]], list[tuple[int, ...]]] = {}
    for p, key in _half_forms(pres, exps, 0):
        lefts.setdefault(key, []).append(p)
    words = set()
    for r, key in _half_forms(pres, [-e for e in exps], 1):
        q = tuple(-e for e in reversed(r))
        words.update(p + q for p in lefts.get(key, ()))
    return frozenset(words)


def _template_pairs(m: int, exps: list[int]) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The halves (p, q) that share a key: every word p q that can match
    the template, in the sweep over the exponents `exps`."""
    if m == 2:
        return {(p, tuple(-e for e in p)) for p in itertools.product(exps, repeat=2)}
    pairs = set()
    for r in range(m):
        for k in exps:
            left = (-1,) * r + (k,) + (1,) * (m - 1 - r)
            right = (1,) * r + (-k,) + (-1,) * (m - 1 - r)
            pairs.add((left, right))
            pairs.add((right, left))
    return pairs


MAX_SWEEP_HALVES = 65_536


def girth_sweep(m: int, bound: int) -> SweepResult:
    """Drive the syntactic classifier against the Garside normal form over
    every alternating word with 2m syllables, starting on s,
    with exponents in {+-1..+-bound}.

    Each word is split into a left half p of m syllables, starting on s,
    and a right half q, starting on s for even m and on t for odd m.  The
    oracle-trivial words are `trivial_words`, which meets in the middle
    on the Garside normal forms of p and q^-1.  The classifier
    runs on the candidate words that the half-word keys propose (see the
    module docstring); every other word is classifier-negative.  A word
    counts as a disagreement when exactly one side calls it trivial, and
    the first one is the least in the order of itertools.product over
    the exponents 1, -1, 2, -2, ...

    Raises ValueError unless 2 <= m <= 8, 1 <= bound <= 3 and the sweep
    has at most MAX_SWEEP_HALVES half-words, (2 bound)^m.
    """
    if not 2 <= m <= 8:
        raise ValueError("m must be in 2..8")
    if not 1 <= bound <= 3:
        raise ValueError("exponent bound must be in 1..3")
    if (2 * bound) ** m > MAX_SWEEP_HALVES:
        raise ValueError(
            f"m={m} bound={bound} has {(2 * bound) ** m} half-words, more than {MAX_SWEEP_HALVES}"
        )
    exps = [e for k in range(1, bound + 1) for e in (k, -k)]
    halves = list(itertools.product(exps, repeat=m))
    index = {h: i for i, h in enumerate(halves)}
    trivial = {(index[w[:m]], index[w[m:]]) for w in trivial_words(m, exps)}
    # The exponent-only classifier core; truthy exactly on a template match.
    core = _is_commutator if m == 2 else functools.partial(match_exponents, m)
    matched = {(index[p], index[q]) for p, q in _template_pairs(m, exps) if core(p + q)}
    disagree = trivial ^ matched
    first = None
    if disagree:
        i, j = min(disagree)
        first = alternating("st", halves[i] + halves[j])
    total = len(halves) ** 2
    return SweepResult(total, len(trivial), total - len(disagree), first)
