"""Flat Z^2 families, the Klein-bottle pair, and tiling read-off.

A *flat family* is a pair of words generating a rank-two abelian
subgroup that translates a flat plane: a fixed first generator together
with a language of second generators, one family per Euclidean triangle
shape (plus the split case "a" where two commuting generator sets each
contribute one word).  `family` builds concrete pairs, `verify_abelian`
proves the defining commutator trivial and returns the replayable
certificate, and `klein_pair` builds the twisted (index-two) variant
a^-1 g a = g^-1 together with its certificate.

`read_off_generators` closes the loop with the tiling side: given a
periodic patch with a consistent direction assignment and its induced
polarisation, it walks the quotient graph and reads off a generator
pair -- the first word along a combinatorial axis of a rigidity-witness
translation, the second along a transverse type-preserving translation
-- and the result always lands in the family of the patch's triangle
shape, up to the symmetries of the exponent matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from artinflats.presentation import (
    ArtinPresentation,
    Concat,
    Fixed,
    LanguageTemplate,
    PowerAtom,
    Star,
    Word,
    reduce,
)
from artinflats.prover import (
    DEFAULT_BUDGET,
    Budget,
    Certificate,
    SearchBudgetError,
    commutator_from_conjugation,
    compose_certificates,
    conjugated_certificate,
    conjugation_product,
    mirror_certificate,
    prove_commutator,
    prove_conjugation,
    prove_equal,
)
from artinflats.tiling import (
    DirectionAssignment,
    Patch,
    TriangleType,
    Vec,
    presentation_for,
    translation_lattice,
    validate_directions,
)
from artinflats.polarisation import (
    Polarisation,
    induced,
    rigidity_witnesses,
)

FAMILY_CASES = ("a", "b", "c", "d", "e", "f")

# Which triangle shape each case lives on, and which cases a patch of
# that shape can read off.  The split case "a" belongs to the square
# tiling and carries its presentation as a parameter instead.
_CASE_TYPE = {
    "b": TriangleType.E333,
    "c": TriangleType.E244,
    "d": TriangleType.E244,
    "e": TriangleType.E236,
    "f": TriangleType.E236,
}
_TYPE_CASES = {
    TriangleType.E333: ("b",),
    TriangleType.E244: ("c", "d"),
    TriangleType.E236: ("e", "f"),
}

# Exponent-matrix symmetries: generator swaps that preserve every
# pairwise exponent of the shape.  All three exponents of E236 differ,
# so only the identity remains there.
_SYMMETRIES = {
    TriangleType.E333: ({}, {"t": "r", "r": "t"}),
    TriangleType.E244: ({}, {"s": "r", "r": "s"}),
    TriangleType.E236: ({},),
}

_FIRST_WORD = {
    "b": "s1 t1 r1 s1 t1 r1",
    "c": "s1 t1 r1 t1",
    "d": "s1 t1 s1 r1 t1 r1",
    "e": "s1 t1 s1 t1 s1 r1 t1 s1 t1 r1",
    "f": "t1 s1 t1 s1 t1 r1",
}

# Factor shape of the second generator: (bullet generator, fixed tail)
# pairs concatenated in order.  A factor instance substitutes a nonzero
# exponent for each bullet.
_FACTOR_SHAPE = {
    "b": (("t", "s1 t1 r1"),),
    "c": (("r", "t-1"), ("s", "t1")),
    "d": (("t", "s1 t1 r1"),),
    "e": (("t", "s1 t1 s1 t1 r1"),),
    "f": (("s", "t1 s1 t1 r1 t-1"),),
}


@dataclass(frozen=True)
class FlatFamily:
    case: str
    triangle_type: TriangleType
    presentation: ArtinPresentation
    w1: Word
    template: LanguageTemplate


def _build_family(case: str) -> FlatFamily:
    tt = _CASE_TYPE[case]
    factor = Concat(
        *itertools.chain.from_iterable(
            (PowerAtom(g), Fixed(tail)) for g, tail in _FACTOR_SHAPE[case]
        )
    )
    return FlatFamily(
        case, tt, presentation_for(tt), Word.parse(_FIRST_WORD[case]), Star(factor)
    )


_FAMILIES = {case: _build_family(case) for case in _CASE_TYPE}


def flat_family(case: str) -> FlatFamily:
    """The family data (presentation, first word, second-word language)
    for one of the triangle cases b-f."""
    if case not in _FAMILIES:
        raise ValueError(f"no fixed family data for case {case!r}")
    return _FAMILIES[case]


def _factor_word(case: str, param) -> Word:
    shape = _FACTOR_SHAPE[case]
    exps = param if isinstance(param, (tuple, list)) else (param,)
    if len(exps) != len(shape):
        raise ValueError(
            f"case {case!r} factors take {len(shape)} exponent(s), got {param!r}"
        )
    syls: list[tuple[str, int]] = []
    for (g, tail), k in zip(shape, exps):
        if not isinstance(k, int) or k == 0:
            raise ValueError(f"factor exponents must be nonzero integers, got {k!r}")
        syls.append((g, k))
        syls.extend((s.generator, s.exponent) for s in Word.parse(tail).syllables)
    return reduce(syls)


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
    the single-bullet cases and a (k, l) pair for case c.  Case a takes
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
        if not exponents:
            raise ValueError("need at least one star factor")
        fam = flat_family(case)
        w1 = fam.w1
        w2 = Word()
        for param in exponents:
            w2 = w2 * _factor_word(case, param)
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
    """
    w1, w2 = family(case, exponents, presentation=presentation, left=left, right=right)
    if case == "a":
        cert = prove_commutator(presentation, w1, w2, budget)
        if cert is None:
            raise SearchBudgetError(f"no commutator certificate for {w1} vs {w2}")
        return cert
    fam = flat_family(case)
    factors = [_factor_word(case, param) for param in exponents]
    certs = []
    for f in factors:
        c = prove_conjugation(fam.presentation, w1, f, budget)
        if c is None:
            raise SearchBudgetError(f"no conjugation certificate for factor {f}")
        certs.append(c)
    conj = conjugation_product(fam.presentation, w1, factors, certs)
    return commutator_from_conjugation(conj)


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


def _walk_word(
    patch: Patch, d: DirectionAssignment, start: int, word: Word
) -> tuple[int, Vec] | None:
    """Walk `word` from `start`, one edge per syllable; a k-syllable
    must cross a k-long edge in the matching direction.  Returns the
    final vertex and the lifted displacement, or None when some
    crossing disagrees with the direction assignment."""
    v = start
    x = y = 0
    for syl in word.syllables:
        edge = patch._edge_at(v, syl.generator)
        de = d[edge.index]
        sign = 1 if de.source == v else -1
        if sign * de.label != syl.exponent:
            return None
        dx, dy = edge.delta_from(v)
        x += dx
        y += dy
        v = edge.other(v)
    return v, (x, y)


def _is_lattice_translation(patch: Patch, v0: int, vend: int, delta: Vec) -> bool:
    """Whether the walk from v0 to vend with lifted displacement delta
    is a translation of the patch (rather than a glide or rotation)."""
    try:
        return vend == patch.translate_vertex(v0, delta)
    except KeyError:
        return False


def _minimal_type_preserving_multiple(tt: TriangleType, rho: Vec) -> Vec:
    """Smallest positive multiple of rho lying in the type-preserving
    translation lattice."""
    (a, b), (_, c) = translation_lattice(tt)
    for n in range(1, 2 * a * c + 1):
        x, y = n * rho[0], n * rho[1]
        if x % a == 0 and (y - (x // a) * b) % c == 0:
            return (x, y)
    raise ValueError(f"{rho} has no small type-preserving multiple")


def _factor_instances(case: str, factors: int, bound: int):
    """Second-generator instances with the given number of star factors
    and bullet exponents bounded by `bound`, in deterministic order."""
    exps = [e for k in range(1, bound + 1) for e in (k, -k)]
    shape = _FACTOR_SHAPE[case]
    per_factor = list(itertools.product(exps, repeat=len(shape)))
    for combo in itertools.product(per_factor, repeat=factors):
        w = Word()
        for param in combo:
            w = w * _factor_word(case, param if len(param) > 1 else param[0])
        yield w


def _find_transverse(
    patch: Patch,
    d: DirectionAssignment,
    v0: int,
    case: str,
    sym: dict,
    delta1: Vec,
    bound: int,
) -> Word | None:
    for factors in (1, 2, 3):
        for instance in _factor_instances(case, factors, bound):
            w = instance.substitute(sym)
            for cand in (w, w.inverse()):
                res = _walk_word(patch, d, v0, cand)
                if res is None:
                    continue
                vend, delta2 = res
                if delta1[0] * delta2[1] - delta1[1] * delta2[0] == 0:
                    continue
                if _is_lattice_translation(patch, v0, vend, delta2):
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
            edge = patch._edge_at(v, gen, step)
            de = d[edge.index]
            total += de.label if de.source == v else -de.label
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


def read_off_generators(
    patch: Patch, d: DirectionAssignment, l: Polarisation | None = None
) -> tuple[Word, Word]:
    """Generator pair read off a consistently directed periodic patch.

    The first word is read along a combinatorial axis of a rigidity
    witness translation (crossing only short edges, so it is one of the
    fixed first generators up to exponent-matrix symmetry and
    inversion); the second along a transverse type-preserving
    translation, giving a member of the matching factor language.
    """
    report = validate_directions(patch, d)
    if not report.ok:
        raise ValueError(f"direction assignment is inconsistent: {report.violations}")
    if patch.triangle_type == TriangleType.SQUARE:
        return _read_off_square(patch, d)
    expected = induced(patch, d)
    if l is None:
        l = expected
    elif l != expected:
        raise ValueError("polarisation is not the one induced by the directions")
    bound = max(de.label for de in d.values())
    for witness in rigidity_witnesses(patch, l):
        target = _minimal_type_preserving_multiple(patch.triangle_type, witness.rho)
        for case in _TYPE_CASES[patch.triangle_type]:
            w1_base = flat_family(case).w1
            for sym in _SYMMETRIES[patch.triangle_type]:
                image = w1_base.substitute(sym)
                for w1 in (image, image.inverse()):
                    for v0 in range(patch.vertex_count()):
                        res = _walk_word(patch, d, v0, w1)
                        if res is None:
                            continue
                        vend, delta1 = res
                        if delta1 not in (target, (-target[0], -target[1])):
                            continue
                        if not _is_lattice_translation(patch, v0, vend, delta1):
                            continue
                        w2 = _find_transverse(patch, d, v0, case, sym, delta1, bound)
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
