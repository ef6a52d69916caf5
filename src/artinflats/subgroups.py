"""Flat Z^2 families, the Klein-bottle pair, and tiling read-off.

A *flat family* is a pair of words generating a rank-two abelian
subgroup that translates a flat plane: a fixed first generator together
with a language of second generators, one family per Euclidean triangle
shape (plus the split case "a" where two commuting generator sets each
contribute one word).  `family` builds concrete pairs, `verify_abelian`
proves the defining commutator trivial and returns the replayable
certificate, and `klein_pair` builds the twisted (index-two) variant
a^-1 g a = g^-1 together with its certificate.

`verify_abelian` searches each star factor of cases b-f once per
process: a bounded memo keeps the factor certificates of the 64
(presentation, first generator, factor, budget) keys used last, so a
grid of instances or a repeated factor costs one search per key.  Case
a needs no search at all; its cross pairs all have m = 2, and the
certificate moves each letter of a^-1 through b by adjacent swaps.
Its |a| |b| + |a| + |b| moves are capped at MAX_CERT_LETTERS, the cap
on a certificate word, and a pair over the cap is refused before any
move is built.

`read_off_generators` closes the loop with the tiling side: given a
periodic patch with a consistent direction assignment, it derives the
induced polarisation, walks the quotient graph and reads off a generator
pair.  Each walk follows the direction labels; the first word's
displacement is plus or minus the minimal type-preserving multiple of a
rigidity-witness translation rho, and the second word's displacement is
transverse to it.  Nothing checks whether the second word acts as a
translation.  The pair lands in the family of the patch's triangle
shape, up to the symmetries of the exponent matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from artinflats import prover
from artinflats.presentation import ArtinPresentation, LanguageTemplate, Word
from artinflats.prover import (
    DEFAULT_BUDGET,
    Budget,
    Certificate,
    MAX_CERT_LETTERS,
    Move,
    SearchBudgetError,
    WordTooLongError,
    check_rule_table,
    commutator_from_conjugation,
    compose_certificates,
    conjugated_certificate,
    conjugation_product,
    mirror_certificate,
    prove_equal,
    reduction_moves,
)
from artinflats.tiling import (
    DirectionAssignment,
    Patch,
    TriangleType,
    Vec,
    _minimal_type_preserving_multiple,
    presentation_for,
    validate_directions,
)
from artinflats.polarisation import induced, rigidity_witnesses

# Exponent-matrix symmetries: generator swaps that preserve every
# pairwise exponent of the shape.  All three exponents of E236 differ,
# so only the identity remains there.
_SYMMETRIES = {
    TriangleType.E333: ({}, {"t": "r", "r": "t"}),
    TriangleType.E244: ({}, {"s": "r", "r": "s"}),
    TriangleType.E236: ({},),
}


@dataclass(frozen=True)
class FlatFamily:
    case: str
    triangle_type: TriangleType
    presentation: ArtinPresentation
    w1: Word
    template: LanguageTemplate


# One row per triangle case: its shape, its first generator, and the
# factor shape of its second generator, (power generator, fixed tail)
# pairs concatenated in order, where a factor substitutes a nonzero
# exponent for each power.  A patch reads off the cases of its shape in
# table order.  The split case "a" belongs to the square tiling and
# carries its presentation as a parameter instead.
_FAMILIES = {
    case: FlatFamily(case, tt, presentation_for(tt), Word.parse(w1), LanguageTemplate(shape))
    for case, tt, w1, shape in (
        ("b", TriangleType.E333, "s1 t1 r1 s1 t1 r1", (("t", "s1 t1 r1"),)),
        ("c", TriangleType.E244, "s1 t1 r1 t1", (("r", "t-1"), ("s", "t1"))),
        ("d", TriangleType.E244, "s1 t1 s1 r1 t1 r1", (("t", "s1 t1 r1"),)),
        ("e", TriangleType.E236, "s1 t1 s1 t1 s1 r1 t1 s1 t1 r1", (("t", "s1 t1 s1 t1 r1"),)),
        ("f", TriangleType.E236, "t1 s1 t1 s1 t1 r1", (("s", "t1 s1 t1 r1 t-1"),)),
    )
}

FAMILY_CASES = ("a", *_FAMILIES)


def flat_family(case: str) -> FlatFamily:
    """The family data (presentation, first word, second-word language)
    for one of the triangle cases b-f."""
    if case not in _FAMILIES:
        raise ValueError(f"no fixed family data for case {case!r}")
    return _FAMILIES[case]


def _factor_tuples(exponents: Sequence | None) -> list[tuple]:
    """`family`'s exponents as per-factor tuples; a bare int is a
    one-power factor."""
    return [tuple(e) if isinstance(e, (tuple, list)) else (e,) for e in exponents or ()]


def abelianization_independent(w1: Word, w2: Word, generators: Sequence[str]) -> bool:
    """Whether the exponent-sum vectors span a rank-two sublattice --
    necessary for the pair to generate Z^2."""
    v1 = [w1.exponent_sum(g) for g in generators]
    v2 = [w2.exponent_sum(g) for g in generators]
    n = len(generators)
    return any(
        v1[i] * v2[j] - v1[j] * v2[i] != 0 for i in range(n) for j in range(i + 1, n)
    )


def family(
    case: str,
    exponents: Sequence | None = None,
    *,
    presentation: ArtinPresentation | None = None,
    left: Word | str | None = None,
    right: Word | str | None = None,
) -> tuple[Word, Word]:
    """Concrete generator pair for a flat family.

    Cases b-f take `exponents`: one entry per star factor, an int for
    the one-power cases and a (k, l) pair for case c.  Case a takes
    a presentation and the two words directly; the generator sets must
    be disjoint with pairwise exponent 2 across them.

    Parameter choices whose exponent-sum vectors are linearly dependent
    are rejected: they cannot span a rank-two subgroup.
    """
    if case not in FAMILY_CASES:
        raise ValueError(f"unknown case {case!r}")
    if case == "a":
        if exponents is not None:
            raise ValueError("case 'a' takes words, not exponents")
        if presentation is None or left is None or right is None:
            raise ValueError("case 'a' needs presentation=, left=, right=")
        w1 = Word.parse(left) if isinstance(left, str) else left
        w2 = Word.parse(right) if isinstance(right, str) else right
        T, Tp = set(w1.generators_used()), set(w2.generators_used())
        if T & Tp:
            raise ValueError(f"generator sets overlap: {sorted(T & Tp)}")
        for a in sorted(T):
            for b in sorted(Tp):
                m = presentation.m(a, b)
                if m != 2:
                    raise ValueError(
                        f"exponent m({a},{b}) = {m} is not 2; the sides do not commute"
                    )
        gens = presentation.generators
    else:
        if presentation is not None or left is not None or right is not None:
            raise ValueError(f"case {case!r} is parametrised by exponents only")
        fam = flat_family(case)
        w1 = fam.w1
        w2 = fam.template.word(_factor_tuples(exponents))
        gens = fam.presentation.generators
    if not abelianization_independent(w1, w2, gens):
        raise ValueError(
            "degenerate exponent choice: the pair has linearly dependent "
            "exponent-sum vectors and cannot span a rank-two subgroup"
        )
    return w1, w2


def verify_abelian(
    case: str,
    exponents: Sequence | None = None,
    *,
    presentation: ArtinPresentation | None = None,
    left: Word | str | None = None,
    right: Word | str | None = None,
    budget: Budget = DEFAULT_BUDGET,
) -> Certificate:
    """Certificate that the family pair's commutator is trivial.

    For the factored cases the proof goes factor by factor: each star
    factor is shown to commute with the first generator, the factor
    certificates are spliced into one for the whole second generator,
    and that conjugation certificate is upgraded to a commutator one.
    Each factor certificate is searched once per (presentation, first
    generator, factor, budget) and kept in a bounded per-process memo
    of the 64 keys used last; a factor not found raises
    SearchBudgetError.

    Case a runs no search: every cross pair has m = 2, so adjacent swaps
    build the certificate, and `budget` does not apply to it.  A case a
    certificate of more than MAX_CERT_LETTERS moves raises
    WordTooLongError before it is built.
    """
    w1, w2 = family(case, exponents, presentation=presentation, left=left, right=right)
    if case == "a":
        return _swap_certificate(presentation, w1, w2)
    fam = flat_family(case)
    factors = [fam.template.word([f]) for f in _factor_tuples(exponents)]
    certs = []
    for f in factors:
        c = _factor_certificate(fam.presentation, w1, f, budget)
        if c is None:
            raise SearchBudgetError(f"no conjugation certificate for factor {f}")
        certs.append(c)
    conj = conjugation_product(fam.presentation, w1, factors, certs)
    return commutator_from_conjugation(conj)


@lru_cache(maxsize=64)
def _factor_certificate(
    pres: ArtinPresentation, w1: Word, factor: Word, budget: Budget
) -> Certificate | None:
    """`prove_conjugation` of one star factor, remembered for the 64 keys
    used last in this process: a grid of instances, or a factor repeated
    within one instance, proves the same factor again and again.  The
    budget is part of the key, so a miss (None) holds for its own budget
    only."""
    return prover.prove_conjugation(pres, w1, factor, budget)


def _swap_certificate(pres: ArtinPresentation, w1: Word, w2: Word) -> Certificate:
    """Certificate red(a b a^-1 b^-1) -> empty for words a, b on disjoint
    generator sets with m = 2 across them, built by adjacent swaps with
    no search.

    Each letter of a^-1, from the first, moves left through b by |b|
    window rules (y x) -> (x y) and cancels against its letter of a;
    then b b^-1 cancels: |a| |b| relator moves and |a| + |b| cancels.
    A certificate of more than MAX_CERT_LETTERS moves is refused with
    WordTooLongError before any move is built, and so is a presentation
    whose rule table the search would refuse.
    """
    la, lb = w1.letter_length(), w2.letter_length()
    if la * lb + la + lb > MAX_CERT_LETTERS:
        raise WordTooLongError(
            f"the swap certificate of {la} x {lb} letters would take more than {MAX_CERT_LETTERS} moves"
        )
    check_rule_table(pres)
    a, b = tuple(w1.letters()), tuple(w2.letters())
    # one rule tuple per (letter of b, letter of a^-1), shared by its moves
    rules: dict = {}
    moves = []
    for i in reversed(range(len(a))):
        g, s = a[i]
        x = (g, -s)
        for j in reversed(range(len(b))):
            window = (b[j], x)
            rule = rules.get(window)
            if rule is None:
                rule = rules[window] = (window, (x, b[j]))
            moves.append(Move(i + 1 + j, *rule))
        moves.append(Move(i, (a[i], x), ()))
    b_inv = tuple(w2.inverse().letters())
    moves += reduction_moves(b + b_inv)[1]
    start = Word.from_letters(a + b + tuple(w1.inverse().letters()) + b_inv)
    return Certificate(pres, start, Word(), tuple(moves))


# ---------------------------------------------------------------------------
# Klein-bottle pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KleinPair:
    """Generators (a, g') with a^-1 g' a = (g')^-1: the fundamental
    group of the Klein bottle, sitting over the all-threes shape.

    `relation` certifies red(a^-1 g' a) -> (g')^-1; `product` certifies
    that g' times the case-b first generator equals the glide product
    (t^k s t r)(t^-k s t r) it was derived from.
    """

    k: int
    presentation: ArtinPresentation
    a: Word
    gprime: Word
    relation: Certificate
    product: Certificate


def klein_pair(k: int, budget: Budget = DEFAULT_BUDGET) -> KleinPair:
    if k == 0:
        raise ValueError("k must be nonzero")
    fam = flat_family("b")
    pres = fam.presentation
    a = Word.parse("s1 t1 r1")
    gp = Word.parse(f"t{k} s1 r{-k} s-1")
    c1 = prove_equal(pres, a.inverse() * gp * a, gp.inverse(), budget)
    if c1 is None:
        raise SearchBudgetError(f"no twisting certificate at k={k}")
    glide = Word.parse(f"t{k} s1 t1 r1 t{-k} s1 t1 r1")
    c2 = prove_equal(pres, gp * fam.w1, glide, budget)
    if c2 is None:
        raise SearchBudgetError(f"no product certificate at k={k}")
    return KleinPair(k, pres, a, gp, c1, c2)


def klein_composite(pair: KleinPair) -> Certificate:
    """Certificate that a^-2 g' a^2 = g', composed from the twisting
    relation and its mirror without any further search: conjugating the
    relation by a^-1 rewrites red(a^-2 g' a^2) to red(a^-1 (g')^-1 a),
    and the mirrored relation rewrites that to g'."""
    step = conjugated_certificate(pair.relation, pair.a.inverse())
    return compose_certificates(step, mirror_certificate(pair.relation))


# ---------------------------------------------------------------------------
# Reading generator pairs off a direction-assigned patch
# ---------------------------------------------------------------------------


def _walk_word(patch: Patch, d: DirectionAssignment, start: int, word: Word) -> Vec | None:
    """Walk `word` from `start`, one edge per syllable; a k-syllable
    must cross a k-long edge in the matching direction.  Returns the
    lifted displacement, or None when some crossing disagrees with the
    direction assignment.

    The end of the walk needs no check: every stored position is reduced
    modulo the patch lattice, and each edge steps between its ends'
    positions by its delta, so a walk always ends at
    `patch.translate_vertex(start, displacement)`."""
    v = start
    x = y = 0
    for g, e in word.syllables:
        edge = patch._edge_at(v, g)
        if d[edge.index].signed(v) != e:
            return None
        dx, dy = edge.delta_from(v)
        x += dx
        y += dy
        v = edge.other(v)
    return x, y


def _find_transverse(
    patch: Patch,
    d: DirectionAssignment,
    v0: int,
    template: LanguageTemplate,
    sym: dict,
    delta1: Vec,
    bound: int,
) -> Word | None:
    for factors in (1, 2, 3):
        for instance in template.members(factors, bound):
            w = instance.substitute(sym)
            for cand in (w, w.inverse()):
                delta2 = _walk_word(patch, d, v0, cand)
                if delta2 is not None and delta1[0] * delta2[1] != delta1[1] * delta2[0]:
                    return cand
    return None


def _read_off_square(patch: Patch, d: DirectionAssignment) -> tuple[Word, Word]:
    """Square tilings split into commuting horizontal and vertical
    words: total signed crossing exponents over one quotient period."""
    out = []
    for gen, step in (("s", (1, 0)), ("t", (0, 1))):
        v = 0
        total = 0
        for _ in range(patch.vertex_count() + 1):
            edge = patch.edges[patch.edge_by_step[v, step]]
            total += d[edge.index].signed(v)
            v = edge.other(v)
            if v == 0:
                break
        else:
            raise AssertionError("period walk failed to close")
        if total == 0:
            raise ValueError(
                f"the {gen}-direction crossings cancel; no proper translation"
            )
        out.append(Word.parse(f"{gen}{total}"))
    return out[0], out[1]


def read_off_generators(patch: Patch, d: DirectionAssignment) -> tuple[Word, Word]:
    """Generator pair read off a consistently directed periodic patch.

    Each word is walked from one vertex, and every crossing must follow
    the direction labels.  The first word is a fixed first generator
    of a family of the patch's shape, up to exponent-matrix symmetry and
    inversion, whose displacement is plus or minus the minimal
    type-preserving multiple of a rigidity witness translation rho of
    the induced polarisation.  The second is a member of the matching
    factor language, walked from the same vertex, whose displacement is
    transverse to the first.  Nothing checks whether the second word
    acts on the patch as a translation.  An inconsistent assignment
    raises ValueError.
    """
    tt = patch.triangle_type
    if tt == TriangleType.SQUARE:
        report = validate_directions(patch, d)
        if not report.ok:
            raise ValueError(f"direction assignment is inconsistent: {report.violations}")
        return _read_off_square(patch, d)
    l = induced(patch, d)
    families = [fam for fam in _FAMILIES.values() if fam.triangle_type == tt]
    bound = max(de.label for de in d.values())
    for witness in rigidity_witnesses(patch, l):
        target = _minimal_type_preserving_multiple(tt, witness.rho)
        for fam in families:
            for sym in _SYMMETRIES[tt]:
                image = fam.w1.substitute(sym)
                for w1 in (image, image.inverse()):
                    for v0 in range(patch.vertex_count()):
                        delta1 = _walk_word(patch, d, v0, w1)
                        if delta1 not in (target, (-target[0], -target[1])):
                            continue
                        w2 = _find_transverse(patch, d, v0, fam.template, sym, delta1, bound)
                        if w2 is not None:
                            return w1, w2
    raise ValueError("no generator pair is readable from this assignment")


def matches_family(case: str, w1: Word, w2: Word) -> bool:
    """Whether (w1, w2) lies in the case's family up to exponent-matrix
    symmetry and inverting either generator."""
    fam = flat_family(case)
    for sym in _SYMMETRIES[fam.triangle_type]:
        cand1 = fam.w1.substitute(sym)
        if w1 not in (cand1, cand1.inverse()):
            continue
        back = w2.substitute(sym)  # the symmetries are involutions
        for cand2 in (back, back.inverse()):
            if fam.template.matches(cand2):
                return True
    return False
