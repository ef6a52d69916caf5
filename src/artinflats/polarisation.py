"""Polarisations of periodic tilings and their rigidity.

A polarisation picks one longest diagonal in every 2-cell (a 2m-gon has
m of them, joining opposite boundary vertices).  It is *admissible*
when every vertex of the patch lies on exactly one chosen diagonal —
an exact-cover condition, enumerated here both by constraint
propagation and (for cross-checking on small patches) by brute force.
Every vertex and every cell is an item.  A diagonal is an option unless
its two ends are one vertex, which a small quotient can make; such a
diagonal would cover that vertex twice.  The exact cover branches on
the item with the fewest active options, ties to the smallest item, as
in the counted columns of Knuth's Dancing Links.  It keeps each item's
count in a list and one bitmask per count level, the active items with
exactly that count, so the branching item is the lowest bit of the
first non-empty level.  An item with one option is forced, and the
search takes it in a loop without a frame.  Covering an option appends
the options it removes to one trail; an explicit stack of branching
frames (options, next index, trail mark, length of the choice list, a
copy of the levels) undoes back to a mark, so the search depth is not
bounded by the interpreter's stack.  It yields each polarisation as its
cover completes, so a caller that counts them holds none.

Direction data induces a polarisation: a consistently directed cell
boundary decomposes into two directed paths between a unique source
corner and a unique sink corner, which are opposite; the induced
diagonal joins them.

The rigidity check finds, for an admissible polarisation, a single
edge-direction class `e` such that every maximal cell's diagonal ends
on `e`-parallel edges, together with a translation `rho` perpendicular
to `e` that maps maximal cell to maximal cell and preserves the whole
polarisation.  `rho` comes from one walk along a strip: from a maximal
cell on an `e`-edge, cross that edge, and leave each smaller cell by
its edge parallel to the one just crossed (a square's opposite edge, a
hexagon's parallel edge) until a maximal cell is reached; `rho` joins
the centres of the two maximal cells, their lifts glued edge to edge.
It is then verified exactly on the patch.  None of this depends on the
polarisation, so one table per patch, built on first use and kept in
`Patch.rigidity_table`, holds it all: each diagonal's endpoint
bitmask, which admissibility ORs; for each maximal cell and diagonal,
the classes its endpoints allow, as bits; and for each class whose
`rho` is transverse and acts on the patch, `rho`'s cell map and the
image of every diagonal of every cell, read through the translation's
vertex map (`Patch.translation`).  A polarisation then costs a few
passes of list lookups: the allowed bits ANDed over the maximal cells,
and per remaining class one comparison of the image diagonals its
choices pick with its choices read through the cell map.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import compress, product
from math import gcd
from operator import and_, getitem, itemgetter, or_
from typing import NamedTuple

from artinflats.tiling import (
    Cell,
    DirectionAssignment,
    Patch,
    TriangleType,
    Vec,
    validate_directions,
)

Polarisation = dict[int, int]  # cell index -> diagonal index in [0, m)


class RigidityError(Exception):
    """An edge class has no edge on a maximal cell, so it has no
    e-translation (raised by `e_translation`)."""


@dataclass(frozen=True)
class RigidityWitness:
    edge_class: Vec  # direction class of e
    rho: Vec  # polarisation-preserving translation, perpendicular to e


def diagonal_vertices(cell: Cell, d: int) -> tuple[int, int]:
    if not 0 <= d < cell.m:
        raise ValueError(f"diagonal index {d} out of range for a {2*cell.m}-gon")
    return cell.vertices[d], cell.vertices[d + cell.m]


def is_admissible(patch: Patch, l: Polarisation) -> bool:
    """Whether every vertex lies on exactly one chosen diagonal.  Raises
    ValueError unless `l` names exactly the patch's cells, each with a
    diagonal index in range."""
    table = _rigidity_table(patch)
    try:
        ds = table.read(l)
    except KeyError:  # a cell with no diagonal
        ds = None
    if ds is None or len(l) != len(ds):
        raise ValueError("polarisation must cover exactly the patch cells")
    if min(ds) >= 0:
        try:
            return reduce(or_, map(getitem, table.masks, ds)) == table.full
        except IndexError:  # an index of m or more
            pass
    for cell, d in zip(patch.cells, ds):
        diagonal_vertices(cell, d)  # raises on the first index out of range
    raise AssertionError("no diagonal index is out of range")


# ---------------------------------------------------------------------------
# Induced polarisation
# ---------------------------------------------------------------------------


def induced(patch: Patch, d: DirectionAssignment) -> Polarisation:
    report = validate_directions(patch, d)
    if not report.ok:
        raise ValueError(f"direction data inconsistent: {report.violations}")
    l: Polarisation = {}
    for cell in patch.cells:
        n = len(cell.edges)
        outgoing = [d[ei].source == v for v, ei in zip(cell.vertices, cell.edges)]
        sources = [k for k in range(n) if outgoing[k] and not outgoing[k - 1]]
        sinks = [k for k in range(n) if not outgoing[k] and outgoing[k - 1]]
        # With labels 1 and 2 neither error below can fire: a consistent
        # cell's signature is a row of tiling._cell_table, and every row
        # for m = 2, 3, 4, 6 has one source and one sink, opposite each
        # other (a test in tests/test_polarisation.py checks this).
        # Labels of 3 or more are decided by the normal form and were
        # never checked exhaustively, so the checks stay.
        if len(sources) != 1 or len(sinks) != 1:
            raise ValueError(
                f"cell {cell.index} boundary has {len(sources)} sources; not consistently directed"
            )
        src, snk = sources[0], sinks[0]
        if (src + cell.m) % n != snk:
            raise ValueError(f"cell {cell.index} source and sink are not opposite")
        l[cell.index] = min(src, snk)
    return l


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_admissible(patch: Patch) -> list[Polarisation]:
    """All admissible polarisations, in the order `iter_admissible`
    yields them."""
    return list(iter_admissible(patch))


def iter_admissible(patch: Patch) -> Iterator[Polarisation]:
    """Yield each admissible polarisation as its exact cover completes:
    items are the vertices (each covered once) and the cells (each
    choosing one diagonal); deterministic branching on the most
    constrained item."""
    n_v = patch.vertex_count()
    n_items = n_v + len(patch.cells)
    opt_cell: list[int] = []
    opt_diag: list[int] = []
    opt_items: list[tuple[int, int, int]] = []
    for cell in patch.cells:
        for d in range(cell.m):
            a, b = diagonal_vertices(cell, d)
            if a != b:
                opt_cell.append(cell.index)
                opt_diag.append(d)
                opt_items.append((a, b, n_v + cell.index))
    item_options: list[list[int]] = [[] for _ in range(n_items)]
    for oi, items in enumerate(opt_items):
        for it in items:
            item_options[it].append(oi)
    # count[it]: active options holding item it; level[c]: bitmask of the
    # active items with count c.  An active option's items are all active,
    # so covering one deactivates exactly its own items.
    count = [len(ois) for ois in item_options]
    bit = [1 << it for it in range(n_items)]
    level = [0] * (max(count, default=0) + 1)
    for it in range(n_items):
        level[count[it]] |= bit[it]
    alive = [True] * len(opt_items)
    trail: list[int] = []  # options removed by cover, in removal order
    chosen: list[int] = []

    def cover(oi: int) -> None:
        items = opt_items[oi]
        for it in items:
            level[count[it]] ^= bit[it]
        for it in items:
            for other in item_options[it]:
                if alive[other]:
                    alive[other] = False
                    trail.append(other)
                    for it2 in opt_items[other]:
                        c = count[it2]
                        count[it2] = c - 1
                        if it2 not in items:
                            level[c] ^= bit[it2]
                            level[c - 1] ^= bit[it2]

    # branching frames: [options, next index, trail mark, len(chosen), level]
    stack: list[list] = []
    while True:
        for c, lv in enumerate(level):
            if lv:
                break
        else:
            yield {opt_cell[oi]: opt_diag[oi] for oi in chosen}
            c = 0
        if c:
            # the smallest item of the lowest level: the (count, item) minimum
            item = (lv & -lv).bit_length() - 1
            opts = [oi for oi in item_options[item] if alive[oi]]
            if c > 1:
                stack.append([opts, 1, len(trail), len(chosen), level[:]])
            oi = opts[0]
        else:
            # a cover, or an item no option holds: resume the innermost frame
            if not stack:
                return
            frame = stack[-1]
            opts, k, mark, n_chosen, saved = frame
            for other in trail[mark:]:
                alive[other] = True
                for it in opt_items[other]:
                    count[it] += 1
            del trail[mark:]
            del chosen[n_chosen:]
            if k + 1 == len(opts):
                stack.pop()
                level = saved
            else:
                frame[1] = k + 1
                level = saved[:]
            oi = opts[k]
        chosen.append(oi)
        cover(oi)


def naive_enumerate_admissible(patch: Patch) -> list[Polarisation]:
    """Independent brute force over every per-cell diagonal choice, in
    `itertools.product` order; only usable on small patches.  With twice
    as many vertices as cells, a choice is admissible exactly when its
    diagonals' endpoint bitmasks OR to every vertex (a diagonal whose
    ends are one vertex has a one-bit mask, so its OR is never full)."""
    n_v = patch.vertex_count()
    if 2 * len(patch.cells) != n_v:
        return []
    full = (1 << n_v) - 1
    masks = [
        [(1 << a) | (1 << b) for a, b in (diagonal_vertices(cell, d) for d in range(cell.m))]
        for cell in patch.cells
    ]
    return [
        dict(enumerate(combo))
        for combo, ends in zip(product(*map(range, map(len, masks))), product(*masks))
        if reduce(or_, ends, 0) == full
    ]


# ---------------------------------------------------------------------------
# Rigidity
# ---------------------------------------------------------------------------


def _primitive(v: Vec) -> Vec:
    g = gcd(abs(v[0]), abs(v[1]))
    p = (v[0] // g, v[1] // g)
    return p if p > (0, 0) else (-p[0], -p[1])


def allowed_classes(patch: Patch, cell: Cell, d: int) -> set[Vec]:
    """Direction classes of the boundary edges meeting the chosen
    diagonal's endpoints (the same two classes at either endpoint, by
    central symmetry of maximal cells)."""
    n = len(cell.edges)
    p, q = d, d + cell.m
    cls_before = patch.edges[cell.edges[(p - 1) % n]].direction_class
    cls_after = patch.edges[cell.edges[p]].direction_class
    if cls_before != patch.edges[cell.edges[(q - 1) % n]].direction_class:
        raise AssertionError(f"cell {cell.index}, diagonal {d}: edges before its endpoints differ in class")
    if cls_after != patch.edges[cell.edges[q % n]].direction_class:
        raise AssertionError(f"cell {cell.index}, diagonal {d}: edges after its endpoints differ in class")
    return {cls_before, cls_after}


def _across(patch: Patch, cell: Cell, pos: int) -> tuple[Cell, int]:
    """The cell on the other side of the edge at boundary position `pos`
    of `cell`, and that edge's position in it.  No edge lies twice on
    one cell (its two cells differ in generator pair, or for SQUARE the
    patch would have a self-loop), so crossing back returns to
    (cell, pos)."""
    ei = cell.edges[pos]
    a, b = patch.edge_cells[ei]
    other = patch.cells[b if a == cell.index else a]
    return other, other.edges.index(ei)


def _center2m(lift: list[Vec]) -> Vec:
    return (sum(p[0] for p in lift), sum(p[1] for p in lift))


def _parallel_edge_position(patch: Patch, cell: Cell, k: int) -> int:
    """The unique other boundary position whose edge is parallel (as a
    direction, lengths may differ) to the edge at position k."""
    target = _primitive(patch.edges[cell.edges[k]].delta)
    hits = [
        j
        for j in range(len(cell.edges))
        if j != k and _primitive(patch.edges[cell.edges[j]].delta) == target
    ]
    if len(hits) != 1:
        raise AssertionError(
            f"expected one parallel edge in cell {cell.index}, found {len(hits)}"
        )
    return hits[0]


def e_translation(patch: Patch, e_class: Vec) -> Vec:
    """The translation mapping a maximal cell containing an e-edge to
    its partner in the type's defining configuration, read from the
    patch's rigidity table; raises RigidityError for a class with no
    edge on a maximal cell."""
    rho = _rigidity_table(patch).e_rho.get(e_class)
    if rho is None:
        raise RigidityError(f"class {e_class} has no edge on a maximal cell")
    return rho


def _e_translation(patch: Patch, e_class: Vec) -> Vec | None:
    """The strip walk of the module docstring, from the first maximal
    cell sigma on the first e-class edge, or None when that edge lies on
    no maximal cell.  Crossings are reversible and every cell edge has
    one parallel edge in its cell, so the walk ends on a maximal cell,
    sigma itself at the latest."""
    edge = next(e for e in patch.edges if e.direction_class == e_class)
    mm = patch.maximal_m()
    cells = [patch.cells[ci] for ci in patch.edge_cells[edge.index]]
    sigma = next((c for c in cells if c.m == mm), None)
    if sigma is None:
        return None
    cell, pos = sigma, sigma.edges.index(edge.index)
    lift = patch.cell_lift(sigma)
    start = _center2m(lift)
    while True:
        nxt, k = _across(patch, cell, pos)
        # glue: boundary vertex k of nxt is one end of the crossed edge
        anchor = lift[pos] if nxt.vertices[k] == cell.vertices[pos] else lift[(pos + 1) % len(lift)]
        lift = patch.cell_lift(nxt)
        sx, sy = anchor[0] - lift[k][0], anchor[1] - lift[k][1]
        lift = [(x + sx, y + sy) for x, y in lift]
        if nxt.m == mm:
            break
        cell, pos = nxt, _parallel_edge_position(patch, nxt, k)
    end = _center2m(lift)
    dx, dy = end[0] - start[0], end[1] - start[1]
    if dx % (2 * mm) or dy % (2 * mm):
        raise AssertionError("cell centres do not differ by a lattice vector")
    return (dx // (2 * mm), dy // (2 * mm))


class _RigidityTable(NamedTuple):
    """What admissibility and rigidity need from a patch, built once per
    patch (kept in `Patch.rigidity_table`), so that each polarisation
    costs a few passes of list lookups.  Cells are read in index order."""

    read: itemgetter  # a polarisation's diagonals as a tuple in cell order
    masks: list[list[int]]  # endpoint bitmask of each diagonal of each cell
    full: int  # every vertex's bit; -1, which no OR of masks is, unless 2 vertices per cell
    maximal: list[bool]  # which cells are maximal
    # per maximal cell and diagonal: the classes of `witnesses` its
    # diagonal admits, as bits
    classes: list[list[int]]
    # (bit, edge class, rho, reader of the diagonals through rho's cell
    # map, index of the image diagonal of each diagonal of each cell or
    # -1 where the image is no diagonal), in sorted class order, for
    # each class whose rho is transverse and acts on the patch
    witnesses: list[tuple[int, Vec, Vec, itemgetter, list[list[int]]]]
    e_rho: dict[Vec, Vec | None]  # e_translation per edge class, None for none


def _rigidity_table(patch: Patch) -> _RigidityTable:
    if patch.rigidity_table is None:
        patch.rigidity_table = _build_rigidity_table(patch)
    return patch.rigidity_table


def _build_rigidity_table(patch: Patch) -> _RigidityTable:
    """Every patch has at least two cells, so each itemgetter here
    returns a tuple."""
    ends = [[diagonal_vertices(cell, d) for d in range(cell.m)] for cell in patch.cells]
    by_ends = [{frozenset(ab): d for d, ab in enumerate(row)} for row in ends]
    if any(len(where) != len(row) for where, row in zip(by_ends, ends)):
        # no patch builds one: a square's would need a self-loop, and the
        # E-type minimal patches' cells have distinct corners
        raise AssertionError("two diagonals of a cell join the same vertices")
    e_rho: dict[Vec, Vec | None] = {}
    for edge in patch.edges:
        if edge.direction_class not in e_rho:
            e_rho[edge.direction_class] = _e_translation(patch, edge.direction_class)
    witnesses = []
    for cls, rho in sorted(e_rho.items()):
        if rho is None or cls[0] * rho[1] == cls[1] * rho[0]:
            continue  # no rho, or rho not transverse to e
        action = patch.translation(rho)
        if action is None:
            continue
        vmap, cmap = action
        image = [
            [by_ends[cmap[ci]].get(frozenset((vmap[a], vmap[b])), -1) for a, b in row]
            for ci, row in enumerate(ends)
        ]
        witnesses.append((1 << len(witnesses), cls, rho, itemgetter(*cmap), image))
    bit = {cls: b for b, cls, *_ in witnesses}
    maximal = patch.maximal_cells()
    maximal_index = {cell.index for cell in maximal}
    # with twice as many vertices as cells, the diagonals cover each
    # vertex once exactly when their masks OR to every vertex (see
    # naive_enumerate_admissible); otherwise no choice does
    n_v = patch.vertex_count()
    return _RigidityTable(
        read=itemgetter(*range(len(ends))),
        masks=[[(1 << a) | (1 << b) for a, b in row] for row in ends],
        full=(1 << n_v) - 1 if n_v == 2 * len(ends) else -1,
        maximal=[ci in maximal_index for ci in range(len(ends))],
        classes=[
            [sum(bit.get(cls, 0) for cls in allowed_classes(patch, cell, d)) for d in range(cell.m)]
            for cell in maximal
        ],
        witnesses=witnesses,
        e_rho=e_rho,
    )


def rigidity_witnesses(patch: Patch, l: Polarisation) -> list[RigidityWitness]:
    """All rigidity witnesses, in sorted edge-class order: edge classes
    shared by every maximal cell's diagonal endpoints whose associated
    translation is transverse and preserves the polarisation, that is,
    maps each cell's chosen diagonal to the chosen diagonal of its image
    cell."""
    if not is_admissible(patch, l):
        raise ValueError("polarisation is not admissible")
    table = patch.rigidity_table
    ds = table.read(l)
    shared = reduce(and_, map(getitem, table.classes, compress(ds, table.maximal)))
    return [
        RigidityWitness(cls, rho)
        for b, cls, rho, through, image in table.witnesses
        if shared & b and tuple(map(getitem, image, ds)) == through(ds)
    ]


# ---------------------------------------------------------------------------
# The excluded local configuration on 12-gon patches
# ---------------------------------------------------------------------------


def case0_instances(patch: Patch, l: Polarisation) -> list[tuple[int, int, int]]:
    """Occurrences of the forbidden configuration: a square v0 v1 u1 u0
    whose edge v0v1 lies on a 12-gon tau with l(tau) ending at v1,
    whose opposite edge u0u1 lies on a 12-gon sigma with
    l(sigma) = u4u10 in the labelling continuing past u1.

    This is the configuration the paper excludes on the 2-3-6 tiling,
    whose maximal cells are 12-gons: no admissible polarisation contains
    one.  Raises ValueError on any other tiling type."""
    if patch.triangle_type != TriangleType.E236:
        raise ValueError("configuration is specific to 12-gon patches")
    out = []
    mm = patch.maximal_m()
    for square in patch.cells:
        if square.m != 2:
            continue
        for q in range(4):
            tau, _ = _across(patch, square, q)
            sigma, j = _across(patch, square, (q + 2) % 4)
            if tau.m != mm or sigma.m != mm:
                continue
            # the square read as v0 v1 u1 u0, in either direction along edge q
            for v1, u0 in (
                (square.vertices[(q + 1) % 4], square.vertices[(q + 3) % 4]),
                (square.vertices[q], square.vertices[(q + 2) % 4]),
            ):
                if v1 not in diagonal_vertices(tau, l[tau.index]):
                    continue
                # sigma's labelling u0 u1 ... u11 starts at u0 on the shared edge
                if sigma.vertices[j] == u0:
                    start, step = j, 1
                elif sigma.vertices[(j + 1) % 12] == u0:
                    start, step = j + 1, -1
                else:
                    raise AssertionError("square and 12-gon disagree on the shared edge")
                d = l[sigma.index]
                if {d, d + 6} == {(start + 4 * step) % 12, (start + 10 * step) % 12}:
                    out.append((square.index, tau.index, sigma.index))
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def polarisation_to_dict(patch: Patch, l: Polarisation) -> dict[str, list[int]]:
    """Each cell index, as a string, to its chosen diagonal's two
    vertices, in cell order: the JSON object `polarisation_to_json`
    writes."""
    return {str(ci): list(diagonal_vertices(patch.cells[ci], d)) for ci, d in sorted(l.items())}


def polarisation_to_json(patch: Patch, l: Polarisation) -> str:
    return json.dumps(polarisation_to_dict(patch, l), indent=2)


def polarisation_from_json(patch: Patch, text: str) -> Polarisation:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("a polarisation must be a JSON object")
    # the one spelling of each cell index, so no cell is named twice
    cell_at = {str(cell.index): cell for cell in patch.cells}
    l: Polarisation = {}
    for key, pair in data.items():
        if key not in cell_at:
            raise ValueError(f"bad cell index {key!r}")
        if not isinstance(pair, list) or len(pair) != 2 or any(type(v) is not int for v in pair):
            raise ValueError(f"cell {key}: expected two vertex integers, got {pair!r}")
        cell = cell_at[key]
        want = set(pair)
        for d in range(cell.m):
            if set(diagonal_vertices(cell, d)) == want:
                l[cell.index] = d
                break
        else:
            raise ValueError(f"{pair} is not a diagonal of cell {key}")
    return l
