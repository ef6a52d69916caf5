"""Periodic patches of the Euclidean triangle tilings and their
direction assignments.

A patch is the quotient of the plane tiling by a sublattice of the
type-preserving translations; its cells are the 2m-gons of the dual
Coxeter tiling (squares for the SQUARE type).  Direction assignments
put an orientation and a length label on every edge so that each cell
boundary spells a relator.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt

import pytest

from artinflats.dihedral import is_trivial
from artinflats.girth import template_exponents
from artinflats.presentation import ArtinPresentation, Word
from artinflats import tiling
from artinflats.polarisation import enumerate_admissible, rigidity_witnesses
from artinflats.tiling import (
    _cell_checks,
    _cell_consistent,
    _cell_table,
    _lattice_basis,
    _reduce_mod,
    DirectedEdge,
    Edge,
    IncompatibleLatticeError,
    MAX_PATCH_INDEX,
    Patch,
    TooManyAssignmentsError,
    TriangleType,
    boundary_word,
    enumerate_consistent_directions,
    minimal_patch,
    presentation_for,
    scaled_patch,
    standard_directions,
    translation_lattice,
    validate_directions,
)
from helpers import lift_directions, subpresentation

# vertices / edges / cells of the smallest buildable patch per type
PATCH_SHAPE = {
    "E333": (6, 9, 3),
    "E244": (8, 12, 4),
    "E236": (12, 18, 6),
}


def test_presentations_for_types():
    p = presentation_for(TriangleType.E333)
    assert p.generators == ("s", "t", "r")
    assert (p.m("s", "t"), p.m("t", "r"), p.m("s", "r")) == (3, 3, 3)
    p = presentation_for(TriangleType.E244)
    assert (p.m("s", "t"), p.m("t", "r"), p.m("s", "r")) == (4, 4, 2)
    p = presentation_for(TriangleType.E236)
    assert (p.m("s", "t"), p.m("t", "r"), p.m("s", "r")) == (6, 3, 2)
    sq = presentation_for(TriangleType.SQUARE)
    assert sq.generators == ("s", "t")
    assert sq.m("s", "t") == 2


def test_translation_lattices_frozen():
    assert translation_lattice(TriangleType.E333) == ((3, 3), (0, 9))
    assert translation_lattice(TriangleType.E244) == ((4, 4), (0, 8))
    assert translation_lattice(TriangleType.E236) == ((6, 6), (0, 18))
    assert translation_lattice(TriangleType.SQUARE) == ((1, 0), (0, 1))


def test_minimal_patch_shapes():
    for name, (v, e, f) in PATCH_SHAPE.items():
        patch = minimal_patch(TriangleType[name])
        assert (len(patch.positions), len(patch.edges), len(patch.cells)) == (v, e, f)
        # torus: Euler characteristic zero, every edge in two cells
        assert len(patch.positions) - len(patch.edges) + len(patch.cells) == 0
        for cells in patch.edge_cells:
            assert len(cells) == 2


def test_square_unit_lattice_refused():
    with pytest.raises(IncompatibleLatticeError):
        minimal_patch(TriangleType.SQUARE)
    patch = scaled_patch(TriangleType.SQUARE, 2)
    assert (len(patch.positions), len(patch.edges), len(patch.cells)) == (4, 8, 4)


def _reference_square_grid(lattice):
    """Z^2 walked breadth first from the origin, modulo `lattice`: from
    each vertex the steps s by (+-1, 0), then t by (0, +-1), each edge
    kept once per endpoint pair, generator and direction."""
    positions = [_reduce_mod(lattice, (0, 0))]
    index = {positions[0]: 0}
    edges, vertex_edges, seen = [], [[]], set()
    i = 0
    while i < len(positions):
        x, y = positions[i]
        for gen, step in (("s", (1, 0)), ("s", (-1, 0)), ("t", (0, 1)), ("t", (0, -1))):
            q = _reduce_mod(lattice, (x + step[0], y + step[1]))
            if q not in index:
                index[q] = len(positions)
                positions.append(q)
                vertex_edges.append([])
            j = index[q]
            key = (min(i, j), max(i, j), gen, step if i < j else (-step[0], -step[1]))
            if key not in seen:
                seen.add(key)
                vertex_edges[i].append(len(edges))
                vertex_edges[j].append(len(edges))
                edges.append(Edge(len(edges), i, j, gen, step))
        i += 1
    return positions, edges, vertex_edges


SQUARE_LATTICES = [
    ((2, 0), (0, 2)), ((3, 0), (0, 3)), ((4, 0), (0, 4)),
    ((2, 0), (0, 3)), ((1, 1), (0, 2)), ((3, 1), (0, 2)), ((2, 1), (1, 3)),
]


@pytest.mark.parametrize("lattice", SQUARE_LATTICES)
def test_square_grid_numbering_matches_a_direct_walk(lattice):
    patch = Patch(TriangleType.SQUARE, lattice)
    assert (patch.positions, patch.edges, patch.vertex_edges) == _reference_square_grid(lattice)


def _scaled_lattice(name, factor):
    return tuple((factor * x, factor * y) for x, y in translation_lattice(TriangleType[name]))


@pytest.mark.parametrize(
    "name, lattice",
    [(name, _scaled_lattice(name, k)) for name in ("E333", "E244", "E236") for k in (1, 2, 3)]
    + [("SQUARE", lattice) for lattice in SQUARE_LATTICES],
)
def test_edge_by_step_indexes_both_ends_of_every_edge(name, lattice):
    patch = Patch(TriangleType[name], lattice)
    assert len(patch.edge_by_step) == 2 * len(patch.edges)
    for e in patch.edges:
        for v in (e.u, e.v):
            assert patch.edge_by_step[v, e.delta_from(v)] == e.index


@pytest.mark.parametrize(
    "name, scale",
    [(name, k) for name in ("E333", "E244", "E236") for k in (1, 2, 3)]
    + [("SQUARE", k) for k in (2, 3, 4)],
)
def test_every_edge_walk_ends_at_its_translate(name, scale):
    # positions are stored modulo the lattice and each edge steps between
    # its ends' positions by its delta, so any walk is the translation by
    # its summed displacement: the read-off relies on this and does not
    # check where a word's walk ends
    patch = scaled_patch(TriangleType[name], scale)
    rng = random.Random(f"{name}x{scale}")
    for _ in range(200):
        start = v = rng.randrange(patch.vertex_count())
        x = y = 0
        for _ in range(rng.randint(1, 40)):
            e = patch.edges[rng.choice(patch.vertex_edges[v])]
            dx, dy = e.delta_from(v)
            x, y, v = x + dx, y + dy, e.other(v)
        assert v == patch.translate_vertex(start, (x, y))


def test_scaled_patch_grows_quadratically():
    p1 = minimal_patch(TriangleType.E333)
    p2 = scaled_patch(TriangleType.E333, 2)
    assert len(p2.positions) == 4 * len(p1.positions)
    assert len(p2.edges) == 4 * len(p1.edges)
    assert len(p2.cells) == 4 * len(p1.cells)


def test_patch_index_cap():
    half = MAX_PATCH_INDEX // 2
    patch = Patch(TriangleType.SQUARE, ((half, 0), (0, 2)))
    assert len(patch.positions) == 2 * half
    with pytest.raises(IncompatibleLatticeError, match="MAX_PATCH_INDEX"):
        Patch(TriangleType.SQUARE, ((half + 1, 0), (0, 2)))
    with pytest.raises(IncompatibleLatticeError, match="MAX_PATCH_INDEX"):
        scaled_patch(TriangleType.E236, isqrt(MAX_PATCH_INDEX) + 1)


def test_direction_enumeration_partial_cap(monkeypatch):
    # the largest join step on E333 x2 keeps 696 partial assignments
    patch = scaled_patch(TriangleType.E333, 2)
    monkeypatch.setattr(tiling, "MAX_PARTIAL_ASSIGNMENTS", 696)
    assert len(enumerate_consistent_directions(patch)) == 90
    monkeypatch.setattr(tiling, "MAX_PARTIAL_ASSIGNMENTS", 695)
    with pytest.raises(TooManyAssignmentsError, match="MAX_PARTIAL_ASSIGNMENTS"):
        enumerate_consistent_directions(patch)


def test_incompatible_lattice_rejected():
    with pytest.raises(IncompatibleLatticeError):
        Patch(TriangleType.E333, ((1, 0), (0, 1)))
    with pytest.raises(IncompatibleLatticeError):
        Patch(TriangleType.E333, ((3, 3), (6, 6)))  # degenerate


def test_cell_degrees_and_vertex_figure(patch236):
    # every vertex of a Coxeter tiling patch meets one cell per pair class
    for v in range(len(patch236.positions)):
        incident = [patch236.edges[ei].gen for ei in patch236.vertex_edges[v]]
        assert sorted(incident) == ["r", "s", "t"]


def test_cell_lift_closes_up(patch244):
    for cell in patch244.cells:
        lift = patch244.cell_lift(cell)
        e = patch244.edges[cell.edges[-1]]
        d = e.delta_from(cell.vertices[-1])
        closed = (lift[-1][0] + d[0], lift[-1][1] + d[1])
        assert closed == lift[0]


def test_translate_vertex_by_lattice_vector(patch333):
    for v in range(len(patch333.positions)):
        assert patch333.translate_vertex(v, patch333.lattice[0]) == v
        assert patch333.translate_vertex(v, (0, 0)) == v


def test_standard_directions_validate():
    for name in PATCH_SHAPE:
        patch = minimal_patch(TriangleType[name])
        d = standard_directions(patch)
        report = validate_directions(patch, d)
        assert report.ok, report.violations
        # all labels 1: every boundary word is a bare relator word
        pres = patch.presentation
        for cell in patch.cells:
            w = boundary_word(patch, cell, d)
            assert len(w.syllables) == 2 * cell.m
            assert is_trivial(subpresentation(pres, *cell.pair), w)


def test_boundary_word_uses_labels(patch244):
    d = standard_directions(patch244)
    cell = next(c for c in patch244.cells if c.m == 4)
    ei = cell.edges[0]
    d[ei] = DirectedEdge(d[ei].source, 2)
    w = boundary_word(patch244, cell, d)
    assert any(abs(s.exponent) == 2 for s in w.syllables)


def test_enumerate_consistent_directions_frozen_counts():
    # (consistent under cell-word + long-pairing, single-direction ok)
    expected = {"E333": (18, 18), "E244": (72, 72), "E236": (36, 24)}
    for name, (raw, validated) in expected.items():
        patch = minimal_patch(TriangleType[name])
        cons = enumerate_consistent_directions(patch)
        assert len(cons) == raw
        # edges cell by cell, smallest cells first; assignments sorted edge
        # by edge by label, then by source, the smaller vertex first
        cells = sorted(patch.cells, key=lambda c: (c.m, c.index))
        order = list(dict.fromkeys(ei for c in cells for ei in c.edges))
        keys = []
        for d in cons:
            assert list(d) == order
            keys.append([(de.label, de.source != min(patch.edges[ei].u, patch.edges[ei].v)) for ei, de in d.items()])
        assert keys == sorted(keys) and len(set(map(tuple, keys))) == raw
        ok = [d for d in cons if validate_directions(patch, d).ok]
        assert len(ok) == validated
        for d in ok:
            for cell in patch.cells:
                sub = subpresentation(patch.presentation, *cell.pair)
                assert is_trivial(sub, boundary_word(patch, cell, d))


def test_validate_flags_bad_cell_word(patch333):
    d = standard_directions(patch333)
    e = patch333.edges[0]
    d[0] = DirectedEdge(e.v if d[0].source == e.u else e.u, 1)
    report = validate_directions(patch333, d)
    assert not report.ok
    assert any(v.check == "cell-word" for v in report.violations)


def test_lift_directions_is_periodic(patch333):
    # in SQUARE x2 two s-edges join vertices 0 and 1: only the step tells them apart
    e333x2 = scaled_patch(TriangleType.E333, 2)
    pairs = [
        (e333x2, patch333),
        (scaled_patch(TriangleType.SQUARE, 4), scaled_patch(TriangleType.SQUARE, 2)),
    ]
    for big, small in pairs:
        d = standard_directions(small)
        lifted = lift_directions(big, small, d)
        assert validate_directions(big, lifted).ok
        for e in big.edges:
            # each fine edge carries its coarse image's label and direction
            u_down = small.vertex_at[_reduce_mod(small.lattice, big.positions[e.u])]
            coarse_edge = small._edge_at(u_down, e.gen, e.delta)
            points_away = lifted[e.index].source == e.u
            assert points_away == (d[coarse_edge.index].source == u_down)
            assert lifted[e.index].label == d[coarse_edge.index].label
    with pytest.raises(ValueError):
        lift_directions(patch333, e333x2, standard_directions(e333x2))


def _reference_cell_checks(patch, cell, d) -> set[str]:
    """The failed checks of one cell, from the definitions: a long label
    must be mirrored on the opposite edge, and the boundary word must be
    trivial in the cell's dihedral Artin group."""
    failed = set()
    n = len(cell.edges)
    for k in range(n):
        label = d[cell.edges[k]].label
        if label >= 2 and d[cell.edges[(k + n // 2) % n]].label != label:
            failed.add("long-pairing")
    sub = subpresentation(patch.presentation, *cell.pair)
    if not is_trivial(sub, boundary_word(patch, cell, d)):
        failed.add("cell-word")
    return failed


@pytest.mark.parametrize("name", sorted(PATCH_SHAPE))
def test_cell_consistent_matches_cell_checks(name):
    # half the draws are uniform, half perturb a consistent assignment in
    # one or two edges, so that both verdicts occur on every cell size
    patch = minimal_patch(TriangleType[name])
    consistent = enumerate_consistent_directions(patch)
    rng = random.Random(len(patch.edges))
    verdicts = {True: 0, False: 0}
    for i in range(2000):
        if i % 2:
            d = dict(rng.choice(consistent))
            touched = rng.sample(range(len(patch.edges)), rng.randint(1, 2))
        else:
            d = {}
            touched = range(len(patch.edges))
        for ei in touched:
            e = patch.edges[ei]
            d[ei] = DirectedEdge(rng.choice((e.u, e.v)), rng.choice((1, 1, 2, 3)))
        for cell in patch.cells:
            ok = _cell_consistent(patch, cell, d)
            checks = _cell_checks(patch, cell, d)
            assert ok == (not checks)
            assert {v.check for v in checks} == _reference_cell_checks(patch, cell, d)
            verdicts[ok] += 1
    assert min(verdicts.values()) > 500, verdicts


def test_trivial_cell_words_pair_their_long_labels():
    # girth lemma: a trivial 2m-syllable cell word has its long labels on
    # opposite edges, so the cell-word check alone decides a cell.  The
    # brute-force hits with labels 1 and 2 are the cell table.
    for m, top in ((2, 4), (3, 3), (4, 2)):
        pres = ArtinPresentation(("a", "b"), {("a", "b"): m})
        labels = [sign * k for k in range(1, top + 1) for sign in (1, -1)]
        short = set()
        for exps in product(labels, repeat=2 * m):
            letters = []
            for k, e in enumerate(exps):
                letters.extend([("ab"[k % 2], 1 if e > 0 else -1)] * abs(e))
            if is_trivial(pres, Word.from_letters(letters)):
                for k in range(2 * m):
                    assert abs(exps[k]) < 2 or abs(exps[(k + m) % (2 * m)]) == abs(exps[k])
                if max(map(abs, exps)) <= 2:
                    short.add(exps)
        assert short and _cell_table(m) == short
    # m = 6: the classifier's family, every rotation of a template word
    rotations = set()
    for k in (1, -1, 2, -2):
        t = template_exponents(6, k)
        rotations.update(t[r:] + t[:r] for r in range(12))
    assert _cell_table(6) == rotations and len(rotations) == 36


def test_x2_e333_directions_pinned():
    fine, coarse = scaled_patch(TriangleType.E333, 2), minimal_patch(TriangleType.E333)
    found = enumerate_consistent_directions(fine)
    assert len(found) == 90
    for d in found:
        for cell in fine.cells:
            assert not _reference_cell_checks(fine, cell, d)
    lifts = [lift_directions(fine, coarse, d) for d in enumerate_consistent_directions(coarse)]
    assert len(lifts) == 18 and all(d in found for d in lifts)


def _reference_reduce_mod(basis, v):
    (a1, b1), (a2, b2) = basis
    det = a1 * b2 - b1 * a2
    fa = (Fraction(v[0] * b2 - v[1] * a2, det)).__floor__()
    fb = (Fraction(a1 * v[1] - b1 * v[0], det)).__floor__()
    return (v[0] - fa * a1 - fb * a2, v[1] - fa * b1 - fb * b2)


def test_reduce_mod_matches_fraction_reference():
    bases = [translation_lattice(tt) for tt in TriangleType]
    bases += [scaled_patch(TriangleType[name], 3).lattice for name in PATCH_SHAPE]
    # a negative determinant, and first basis vectors with b1 != 0
    bases += [((0, 5), (3, 0)), ((2, 7), (-3, 4)), ((4, -1), (1, 2)), ((-5, 3), (2, -7))]
    rng = random.Random(11)
    for basis in bases:
        (a1, b1), (a2, b2) = basis
        det = a1 * b2 - b1 * a2
        for _ in range(300):
            v = (rng.randint(-200, 200), rng.randint(-200, 200))
            r = _reduce_mod(basis, v)
            assert r == _reference_reduce_mod(basis, v)
            # r lies in the half-open fundamental parallelogram of the basis
            alpha = Fraction(r[0] * b2 - r[1] * a2, det)
            beta = Fraction(a1 * r[1] - b1 * r[0], det)
            assert 0 <= alpha < 1 and 0 <= beta < 1
    with pytest.raises(ValueError):
        _reduce_mod(((1, 2), (2, 4)), (3, 3))


def test_lattice_basis_is_the_hermite_basis():
    # characterised without its algorithm: ((a, b), (0, c)) in Hermite
    # form holding every input, with index a c equal to the gcd of the
    # inputs' 2x2 minors, which is the index of the lattice they span
    rng = random.Random(19)
    for _ in range(2000):
        vs = [(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(rng.randint(2, 5))]
        minors = 0
        for (x1, y1), (x2, y2) in combinations(vs, 2):
            minors = gcd(minors, x1 * y2 - y1 * x2)
        if minors == 0:
            with pytest.raises(ValueError):
                _lattice_basis(vs)
            continue
        basis = _lattice_basis(vs)
        (a, b), (zero, c) = basis
        assert a > 0 and c > 0 and 0 <= b < c and zero == 0
        assert all(_reduce_mod(basis, v) == (0, 0) for v in vs)
        assert a * c == minors
    # rank-deficient sets: multiples of one vector, or nothing nonzero
    for _ in range(200):
        p = (rng.randint(-5, 5), rng.randint(-5, 5))
        vs = [(k * p[0], k * p[1]) for k in (rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))]
        with pytest.raises(ValueError):
            _lattice_basis(vs)


def test_translation_matches_translate_vertex_and_cell():
    for name in PATCH_SHAPE:
        for scale in (1, 2):
            patch = scaled_patch(TriangleType[name], scale)
            rhos = {
                w.rho for l in enumerate_admissible(patch) for w in rigidity_witnesses(patch, l)
            }
            assert rhos
            for rho in sorted(rhos) + [patch.lattice[0], (0, 0)]:
                vmap, cmap = patch.translation(rho)
                assert vmap == [patch.translate_vertex(v, rho) for v in range(len(patch.positions))]
                # each cell goes to the cell on the images of its vertices
                assert sorted(cmap) == list(range(len(patch.cells)))
                for cell in patch.cells:
                    image = patch.cells[cmap[cell.index]]
                    assert set(image.vertices) == {vmap[v] for v in cell.vertices}
            # a vector outside the type-preserving lattice does not act
            assert patch.translation((1, 0)) is None
            with pytest.raises(KeyError):
                patch.translate_vertex(0, (1, 0))
