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
cover completes, so a caller that counts them holds none.  Completing a
polarisation from its values on the maximal cells is the same exact
cover, with those cells' options fixed, read to a second completion.

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
It is then verified exactly on the patch, through the translation's
vertex and cell maps, which the patch computes once per vector
(`Patch.translation`) and every polarisation of the patch reuses.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import islice, product
from math import gcd
from operator import or_

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


def coverage(patch: Patch, l: Polarisation) -> dict[int, int]:
    """How many chosen diagonals end at each vertex."""
    counts = {v: 0 for v in range(patch.vertex_count())}
    for cell in patch.cells:
        a, b = diagonal_vertices(cell, l[cell.index])
        counts[a] += 1
        counts[b] += 1
    return counts


def is_admissible(patch: Patch, l: Polarisation) -> bool:
    if sorted(l) != list(range(len(patch.cells))):
        raise ValueError("polarisation must cover exactly the patch cells")
    return all(c == 1 for c in coverage(patch, l).values())


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


def iter_admissible(patch: Patch, fixed: Polarisation | None = None) -> Iterator[Polarisation]:
    """Yield each admissible polarisation as its exact cover completes:
    items are the vertices (each covered once) and the cells (each
    choosing one diagonal); deterministic branching on the most
    constrained item.  Each cell of `fixed` is held to its given
    diagonal (its option chosen before the search); a fixed diagonal
    that is no option has no completion."""
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

    for ci, d in (fixed or {}).items():
        oi = next((oi for oi in item_options[n_v + ci] if opt_diag[oi] == d), None)
        if oi is None or not alive[oi]:
            return  # no option, or an end taken by an earlier fixed cell
        chosen.append(oi)
        cover(oi)

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
    its partner in the type's defining configuration.  Computed once per
    class and kept on the patch; raises RigidityError for a class with no
    edge on a maximal cell."""
    if e_class not in patch.e_translations:
        patch.e_translations[e_class] = _e_translation(patch, e_class)
    rho = patch.e_translations[e_class]
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


def preserves(patch: Patch, l: Polarisation, rho: Vec) -> bool:
    if rho == (0, 0):
        return False
    action = patch.translation(rho)
    if action is None:
        return False
    vmap, cmap = action
    try:
        for cell in patch.cells:
            image = patch.cells[cmap[cell.index]]
            a, b = diagonal_vertices(cell, l[cell.index])
            ia, ib = diagonal_vertices(image, l[image.index])
            if {vmap[a], vmap[b]} != {ia, ib}:
                return False
    except KeyError:
        return False
    return True


def rigidity_witnesses(patch: Patch, l: Polarisation) -> list[RigidityWitness]:
    """All rigidity witnesses, in sorted edge-class order: edge classes
    shared by every maximal cell's diagonal endpoints whose associated
    translation is transverse and preserves the polarisation."""
    if not is_admissible(patch, l):
        raise ValueError("polarisation is not admissible")
    candidates: set[Vec] | None = None
    for cell in patch.maximal_cells():
        classes = allowed_classes(patch, cell, l[cell.index])
        candidates = classes if candidates is None else candidates & classes
        if not candidates:
            break
    out = []
    for cls in sorted(candidates or ()):
        try:
            rho = e_translation(patch, cls)
        except RigidityError:
            continue
        if _primitive(rho) == _primitive(cls):
            continue  # rho must be transverse to e
        if preserves(patch, l, rho):
            out.append(RigidityWitness(cls, rho))
    return out


# ---------------------------------------------------------------------------
# Determination of small cells by maximal cells
# ---------------------------------------------------------------------------


def determined_values(patch: Patch, partial: Polarisation) -> Polarisation | None:
    """Complete a polarisation given only its values on maximal cells,
    by the exact cover with those cells' options fixed.  Returns the
    unique admissible completion, None if there is none, and raises if
    the completion is ambiguous (the maximal cells are expected to
    determine the rest)."""
    maximal = {c.index for c in patch.maximal_cells()}
    if set(partial) != maximal:
        raise ValueError("partial polarisation must cover exactly the maximal cells")
    for ci, d in partial.items():
        diagonal_vertices(patch.cells[ci], d)  # raises on an index out of range
    completions = list(islice(iter_admissible(patch, partial), 2))
    if len(completions) > 1:
        raise ValueError("maximal-cell values do not determine the completion")
    return completions[0] if completions else None


# ---------------------------------------------------------------------------
# The excluded local configuration on 12-gon patches
# ---------------------------------------------------------------------------


def case0_instances(patch: Patch, l: Polarisation) -> list[tuple[int, int, int]]:
    """Occurrences of the forbidden configuration: a square v0 v1 u1 u0
    whose edge v0v1 lies on a 12-gon tau with l(tau) ending at v1,
    whose opposite edge u0u1 lies on a 12-gon sigma with
    l(sigma) = u4u10 in the labelling continuing past u1.
    Admissible polarisations never contain one."""
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


def polarisation_to_json(patch: Patch, l: Polarisation) -> str:
    return json.dumps(
        {
            str(ci): list(diagonal_vertices(patch.cells[ci], d))
            for ci, d in sorted(l.items())
        },
        indent=2,
    )


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
