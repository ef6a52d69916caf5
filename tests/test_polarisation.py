"""Admissible polarisations and their rigidity.

A polarisation picks a long diagonal in every maximal cell; admissible
means every vertex lies on exactly one chosen diagonal.  The rigidity
check finds a lattice translation preserving the polarisation whose
axis crosses only edges of one parallel class.  Counts here are frozen
from exhaustive runs; the naive enumerator provides the independent
cross-check at the scales where it is feasible.
"""

import random
from itertools import product

import pytest

from artinflats.polarisation import (
    RigidityError,
    case0_instances,
    coverage,
    diagonal_vertices,
    e_translation,
    enumerate_admissible,
    induced,
    is_admissible,
    iter_admissible,
    naive_enumerate_admissible,
    polarisation_from_json,
    polarisation_to_json,
    rigidity_witnesses,
)
from artinflats.tiling import (
    IncompatibleLatticeError,
    Patch,
    TriangleType,
    _cell_table,
    enumerate_consistent_directions,
    minimal_patch,
    scaled_patch,
    standard_directions,
    validate_directions,
)

ADMISSIBLE_X1 = {"E333": 3, "E244": 8, "E236": 6}
ADMISSIBLE_X2 = {"E333": 9, "E244": 36, "E236": 18}
# witness multiplicities per polarisation, in enumeration order
WITNESS_COUNTS_X1 = {
    "E333": [2, 2, 2],
    "E244": [2, 1, 1, 2, 1, 2, 2, 1],
    "E236": [2, 2, 2, 2, 2, 2],
}


def test_enumerate_admissible_frozen_and_naive_x1():
    for name, count in ADMISSIBLE_X1.items():
        patch = minimal_patch(TriangleType[name])
        smart = enumerate_admissible(patch)
        naive = naive_enumerate_admissible(patch)
        assert len(smart) == count
        assert sorted(map(sorted, (l.items() for l in smart))) == sorted(
            map(sorted, (l.items() for l in naive))
        )
        for l in smart:
            assert is_admissible(patch, l)
            assert all(n == 1 for n in coverage(patch, l).values())


def test_enumerate_admissible_frozen_x2():
    for name, count in ADMISSIBLE_X2.items():
        patch = scaled_patch(TriangleType[name], 2)
        assert len(enumerate_admissible(patch)) == count


# admissible polarisations of scaled_patch(type, s) for s = 1..5; they fit
# 3(2^s - 1), 2*4^s + 2^(s+1) - 4 and 6(2^s - 1), closed forms found from
# the data, not derived
ADMISSIBLE_BY_SCALE = {
    "E333": [3, 9, 21, 45, 93],
    "E244": [8, 36, 140, 540, 2108],
    "E236": [6, 18, 42, 90, 186],
}


@pytest.mark.parametrize("name", sorted(ADMISSIBLE_BY_SCALE))
def test_enumerate_admissible_frozen_scales_1_to_5(name):
    counts = [
        len(enumerate_admissible(scaled_patch(TriangleType[name], s))) for s in range(1, 6)
    ]
    assert counts == ADMISSIBLE_BY_SCALE[name]


def set_intersection_enumerate_admissible(patch):
    """Reference: the exact cover as it was before the per-item counts,
    picking each branching item by intersecting its option set with the
    active options."""
    n_v = patch.vertex_count()
    options = []
    for cell in patch.cells:
        for d in range(cell.m):
            a, b = diagonal_vertices(cell, d)
            options.append((cell.index, d, (a, b, n_v + cell.index)))
    item_options = {}
    for oi, (_, _, items) in enumerate(options):
        for it in items:
            item_options.setdefault(it, set()).add(oi)
    active_items = set(item_options)
    active_options = set(range(len(options)))
    chosen = []
    results = []

    def cover(oi):
        removed_items, removed_options = [], []
        for it in options[oi][2]:
            if it not in active_items:
                continue
            active_items.discard(it)
            removed_items.append(it)
            for other in item_options[it]:
                if other in active_options:
                    active_options.discard(other)
                    removed_options.append(other)
        return removed_items, removed_options

    def uncover(removed):
        removed_items, removed_options = removed
        active_options.update(removed_options)
        active_items.update(removed_items)

    def search():
        if not active_items:
            results.append({options[oi][0]: options[oi][1] for oi in chosen})
            return
        item = min(
            active_items,
            key=lambda it: (len(item_options[it] & active_options), it),
        )
        for oi in sorted(item_options[item] & active_options):
            chosen.append(oi)
            removed = cover(oi)
            search()
            uncover(removed)
            chosen.pop()

    search()
    return results


@pytest.mark.parametrize(
    "name,scale",
    [(n, s) for n in ("E333", "E244", "E236") for s in (1, 2, 3)] + [("SQUARE", 2), ("SQUARE", 3)],
)
def test_enumerate_admissible_matches_set_intersection_reference(name, scale):
    # the same polarisations in the same order, each with its cells in
    # the same order
    patch = scaled_patch(TriangleType[name], scale)
    got = [list(l.items()) for l in enumerate_admissible(patch)]
    want = [list(l.items()) for l in set_intersection_enumerate_admissible(patch)]
    assert got == want


def test_naive_agrees_on_small_square_quotients():
    # small quotients fold a unit square onto one vertex twice, or leave
    # a vertex on no diagonal; 240 of these lattices build a patch
    built = 0
    for x1, y1, x2, y2 in product(range(-2, 3), repeat=4):
        if not 0 < abs(x1 * y2 - y1 * x2) <= 6:
            continue
        try:
            patch = Patch(TriangleType.SQUARE, ((x1, y1), (x2, y2)))
        except IncompatibleLatticeError:
            continue
        built += 1
        assert enumerate_admissible(patch) == naive_enumerate_admissible(patch), (x1, y1, x2, y2)
    assert built == 240


def test_coverage_counts_vertices(patch333):
    l = enumerate_admissible(patch333)[0]
    cov = coverage(patch333, l)
    assert set(cov) == set(range(len(patch333.positions)))
    assert all(n == 1 for n in cov.values())
    # rotating one diagonal doubles up somewhere and leaves a hole
    broken = dict(l)
    ci = sorted(broken)[0]
    broken[ci] = (broken[ci] + 1) % patch333.cells[ci].m
    cov = coverage(patch333, broken)
    assert 0 in cov.values() and 2 in cov.values()
    assert not is_admissible(patch333, broken)


def test_induced_from_consistent_directions_is_admissible(patch244):
    for d in enumerate_consistent_directions(patch244):
        if not validate_directions(patch244, d).ok:
            continue
        l = induced(patch244, d)
        assert is_admissible(patch244, l)


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_cell_table_rows_have_one_opposite_source_and_sink(m):
    # A corner k is a source when edge k leaves it and edge k - 1 enters
    # it, a sink the other way round; induced() reads the same rule off
    # a cell, so with labels 1 and 2 its two ValueErrors cannot fire.
    rows = _cell_table(m)
    assert rows
    for sig in rows:
        n = len(sig)
        assert n == 2 * m
        sources = [k for k in range(n) if sig[k] > 0 and sig[k - 1] < 0]
        sinks = [k for k in range(n) if sig[k] < 0 and sig[k - 1] > 0]
        assert len(sources) == len(sinks) == 1, sig
        assert (sources[0] + m) % n == sinks[0], sig


def test_induced_rejects_inconsistent(patch333):
    d = standard_directions(patch333)
    first = d[0]
    e = patch333.edges[0]
    d[0] = type(first)(e.v if first.source == e.u else e.u, first.label)
    with pytest.raises(ValueError):
        induced(patch333, d)


def test_rigidity_witness_counts_frozen():
    for name, counts in WITNESS_COUNTS_X1.items():
        patch = minimal_patch(TriangleType[name])
        got = [len(rigidity_witnesses(patch, l)) for l in enumerate_admissible(patch)]
        assert got == counts


# rho per edge class, the same at every scale; None for the E236
# classes between squares and hexagons, which have no edge on a 12-gon
E_TRANSLATIONS = {
    "E333": {(1, -2): (3, 0), (1, 1): (-3, 3), (2, -1): (0, 3)},
    "E244": {(0, 2): (4, 0), (1, -1): (4, 4), (1, 1): (-4, 4), (2, 0): (0, 4)},
    "E236": {
        (0, 2): (12, -6), (1, -2): (18, 0), (1, 1): (18, -18), (2, -2): (6, 6),
        (2, -1): (0, 18), (2, 0): (-6, 12), (2, -4): None, (2, 2): None, (4, -2): None,
    },
    "SQUARE": {(0, 1): (-1, 0), (1, 0): (0, -1)},
}


@pytest.mark.parametrize(
    "name,scale",
    [(n, s) for n in ("E333", "E244", "E236") for s in (1, 2, 3, 4)] + [("SQUARE", s) for s in (2, 3, 4)],
)
def test_e_translations_frozen(name, scale):
    patch = scaled_patch(TriangleType[name], scale)
    assert {e.direction_class for e in patch.edges} == set(E_TRANSLATIONS[name])
    for cls, rho in E_TRANSLATIONS[name].items():
        if rho is None:
            with pytest.raises(RigidityError, match="no edge on a maximal cell"):
                e_translation(patch, cls)
        else:
            assert e_translation(patch, cls) == rho, cls


def test_rigidity_witnesses_preserve_the_polarisation():
    for name in ADMISSIBLE_X1:
        patch = minimal_patch(TriangleType[name])
        for l in enumerate_admissible(patch):
            witnesses = rigidity_witnesses(patch, l)
            assert witnesses
            for w in witnesses:
                # rho maps chosen diagonals to chosen diagonals and is
                # not parallel to the edge class it pairs with
                ex, ey = w.edge_class
                assert ex * w.rho[1] != ey * w.rho[0]
                for ci, dpos in l.items():
                    cell = patch.cells[ci]
                    a, b = diagonal_vertices(cell, dpos)
                    ta, tb = (patch.translate_vertex(v, w.rho) for v in (a, b))
                    hit = [
                        (cj, dj)
                        for cj, dj in l.items()
                        if set(diagonal_vertices(patch.cells[cj], dj)) == {ta, tb}
                    ]
                    assert len(hit) == 1


def test_rigidity_witnesses_require_admissible(patch333):
    l = enumerate_admissible(patch333)[0]
    broken = dict(l)
    cells = sorted(broken)
    broken[cells[0]] = (broken[cells[0]] + 1) % patch333.cells[cells[0]].m
    assert not is_admissible(patch333, broken)
    with pytest.raises(ValueError):
        rigidity_witnesses(patch333, broken)


def _agreeing(admissible, partial):
    """Reference completion: the admissible polarisations that agree
    with `partial` on its cells."""
    return [l for l in admissible if all(l[ci] == d for ci, d in partial.items())]


DETERMINED_CASES = [("E244", 1), ("E236", 1), ("E244", 2), ("E236", 2)]


def test_determined_values_unique_completion():
    # the maximal cells' diagonals force everything else
    for name, scale in DETERMINED_CASES:
        patch = scaled_patch(TriangleType[name], scale)
        maximal = {c.index for c in patch.maximal_cells()}
        assert maximal != {c.index for c in patch.cells}
        admissible = enumerate_admissible(patch)
        for l in admissible:
            partial = {ci: d for ci, d in l.items() if ci in maximal}
            assert _agreeing(admissible, partial) == [l]


def test_determined_values_on_a_deep_patch():
    # 1,350 cells: the search needs no stack frame per cell
    patch = scaled_patch(TriangleType.E236, 15)
    assert len(patch.cells) == 1350
    assert is_admissible(patch, next(iter_admissible(patch)))


def test_determined_values_contradiction_is_none():
    # perturbing one maximal choice never sneaks back to the original;
    # on E244 (interacting octagons) and on E236 x2 some perturbations
    # have no completion at all.  The lone 12-gon of the smallest E236
    # patch completes for every choice by rotational symmetry, so no
    # contradiction can be forced there.
    for name, scale in DETERMINED_CASES:
        patch = scaled_patch(TriangleType[name], scale)
        maximal = {c.index for c in patch.maximal_cells()}
        admissible = enumerate_admissible(patch)
        hits = 0
        for l in admissible:
            partial = {ci: d for ci, d in l.items() if ci in maximal}
            for ci in sorted(partial):
                for shift in range(1, patch.cells[ci].m):
                    tweaked = dict(partial)
                    tweaked[ci] = (partial[ci] + shift) % patch.cells[ci].m
                    expected = _agreeing(admissible, tweaked)
                    assert len(expected) <= 1
                    hits += not expected
                    assert l not in expected
        assert (hits > 0) == ((name, scale) != ("E236", 1)), (name, scale)


def test_case0_configuration_absent_from_admissible():
    patch = scaled_patch(TriangleType.E236, 2)
    for l in enumerate_admissible(patch):
        assert case0_instances(patch, l) == []


def test_case0_fires_on_random_assignments():
    patch = scaled_patch(TriangleType.E236, 2)
    hexes = [c for c in patch.cells if c.m == 6]
    rng = random.Random(201)
    fired = instances = 0
    for _ in range(400):
        l = {c.index: rng.randrange(c.m) for c in hexes}
        found = case0_instances(patch, l)
        fired += bool(found)
        instances += len(found)
    # the detector is not vacuous at this scale; counts frozen
    assert (fired, instances) == (227, 546)


def test_polarisation_json_roundtrip(patch236):
    for l in enumerate_admissible(patch236):
        text = polarisation_to_json(patch236, l)
        assert polarisation_from_json(patch236, text) == l
