"""Polarisations of periodic tilings and their rigidity.

A polarisation picks one longest diagonal in every 2-cell (a 2m-gon has
m of them, joining opposite boundary vertices).  It is *admissible*
when every vertex of the patch lies on exactly one chosen diagonal —
an exact-cover condition, enumerated here both by constraint
propagation and (for cross-checking on small patches) by brute force.
The exact cover keeps, per item, the number of active options holding
it, updated when an option is covered or uncovered, and branches on the
item with the fewest (ties to the smallest item), as in the counted
columns of Knuth's Dancing Links.  Completing a polarisation from its
values on the maximal cells is the same exact cover, with those cells'
options fixed before the search.

Direction data induces a polarisation: a consistently directed cell
boundary decomposes into two directed paths between a unique source
corner and a unique sink corner, which are opposite; the induced
diagonal joins them.

The rigidity check finds, for an admissible polarisation, a single
edge-direction class `e` such that every maximal cell's diagonal ends
on `e`-parallel edges, together with a translation `rho` perpendicular
to `e` that maps maximal cell to maximal cell and preserves the whole
polarisation.  `rho` is constructed from the local configurations
(cell pair sharing an edge; square with parallel edges in two maximal
cells; the hexagon-square-hexagon chain of four parallel edges) and
then verified exactly on the patch, through the translation's vertex
and cell maps, which the patch computes once per vector
(`Patch.translation`) and every polarisation of the patch reuses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from math import gcd

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
    """No witness exists — a counterexample to the rigidity property."""


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


def _induced_unchecked(patch: Patch, d: DirectionAssignment) -> Polarisation:
    l: Polarisation = {}
    for cell in patch.cells:
        n = len(cell.edges)
        outgoing = []
        for k in range(n):
            de = d[cell.edges[k]]
            outgoing.append(de.source == cell.vertices[k])
        sources = [
            k for k in range(n) if outgoing[k] and not outgoing[(k - 1) % n]
        ]
        sinks = [
            k for k in range(n) if not outgoing[k] and outgoing[(k - 1) % n]
        ]
        if len(sources) != 1 or len(sinks) != 1:
            raise ValueError(
                f"cell {cell.index} boundary has {len(sources)} sources; not consistently directed"
            )
        src, snk = sources[0], sinks[0]
        if (src + cell.m) % n != snk:
            raise ValueError(f"cell {cell.index} source and sink are not opposite")
        l[cell.index] = min(src, snk)
    return l


def induced(patch: Patch, d: DirectionAssignment) -> Polarisation:
    report = validate_directions(patch, d)
    if not report.ok:
        raise ValueError(f"direction data inconsistent: {report.violations}")
    return _induced_unchecked(patch, d)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_admissible(patch: Patch) -> list[Polarisation]:
    """All admissible polarisations by exact cover: items are the
    vertices (each covered once) and the cells (each choosing one
    diagonal); deterministic branching on the most constrained item."""
    return _exact_cover(patch, {})


def _exact_cover(patch: Patch, fixed: Polarisation) -> list[Polarisation]:
    """The exact cover of `enumerate_admissible` with each cell of
    `fixed` held to its given diagonal (its option chosen before the
    search)."""
    n_v = patch.vertex_count()
    options: list[tuple[int, int, tuple[int, ...]]] = []
    first_option: dict[int, int] = {}
    for cell in patch.cells:
        first_option[cell.index] = len(options)
        for d in range(cell.m):
            a, b = diagonal_vertices(cell, d)
            options.append((cell.index, d, (a, b, n_v + cell.index)))
    item_options: dict[int, list[int]] = {}
    for oi, (_, _, items) in enumerate(options):
        for it in items:
            item_options.setdefault(it, []).append(oi)
    # count[it] = number of active options holding item it, kept up to
    # date by cover/uncover so that branching needs no set intersection
    count = {it: len(ois) for it, ois in item_options.items()}
    active_items = set(item_options)
    active_options = set(range(len(options)))
    chosen: list[int] = []
    results: list[Polarisation] = []

    def cover(oi: int) -> tuple[list[int], list[int]]:
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
                    for it2 in options[other][2]:
                        count[it2] -= 1
        return removed_items, removed_options

    def uncover(removed: tuple[list[int], list[int]]) -> None:
        removed_items, removed_options = removed
        for other in removed_options:
            for it2 in options[other][2]:
                count[it2] += 1
        active_options.update(removed_options)
        active_items.update(removed_items)

    def search() -> None:
        if not active_items:
            results.append({options[oi][0]: options[oi][1] for oi in chosen})
            return
        item = min([(count[it], it) for it in active_items])[1]
        # a list, not a generator: cover() shrinks active_options
        for oi in [oi for oi in item_options[item] if oi in active_options]:
            chosen.append(oi)
            removed = cover(oi)
            search()
            uncover(removed)
            chosen.pop()

    for ci, d in fixed.items():
        oi = first_option[ci] + d
        if oi not in active_options:
            return []  # a diagonal end already taken by an earlier fixed cell
        chosen.append(oi)
        cover(oi)
    search()
    return results


def naive_enumerate_admissible(patch: Patch) -> list[Polarisation]:
    """Independent brute force over every per-cell diagonal choice;
    only usable on small patches."""
    results = []
    ranges = [range(cell.m) for cell in patch.cells]
    for combo in product(*ranges):
        l = dict(enumerate(combo))
        if is_admissible(patch, l):
            results.append(l)
    return results


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


def _position_in_cell(cell: Cell, edge_index: int) -> int:
    for k, ei in enumerate(cell.edges):
        if ei == edge_index:
            return k
    raise ValueError(f"edge {edge_index} not on cell {cell.index}")


def _other_cell(patch: Patch, edge_index: int, cell: Cell) -> Cell:
    a, b = patch.edge_cells[edge_index]
    return patch.cells[b] if a == cell.index else patch.cells[a]


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


def _centers_difference(
    patch: Patch, start_cell: Cell, start_pos: int, chain: list[tuple[Cell, int]]
) -> Vec:
    """Difference of lifted centres between the last and first cell of
    a chain, where each chain entry (cell, boundary position) shares
    its edge with the previous entry and the lifts are glued along the
    shared edges."""
    lift = patch.cell_lift(start_cell)
    c0 = _center2m(lift)
    n0 = 2 * start_cell.m
    prev_cell, prev_pos, prev_lift = start_cell, start_pos, lift
    for cell, pos in chain:
        shared = prev_cell.edges[prev_pos]
        k = _position_in_cell(cell, shared)
        # glue: boundary vertex k of `cell` is one endpoint of `shared`
        u_prev = prev_cell.vertices[prev_pos]
        anchor = (
            prev_lift[prev_pos]
            if cell.vertices[k] == u_prev
            else prev_lift[(prev_pos + 1) % (2 * prev_cell.m)]
        )
        lift = patch.cell_lift(cell)
        sx, sy = anchor[0] - lift[k][0], anchor[1] - lift[k][1]
        prev_lift = [(x + sx, y + sy) for x, y in lift]
        prev_cell, prev_pos = cell, pos
    c1 = _center2m(prev_lift)
    if n0 != 2 * prev_cell.m:
        raise AssertionError("chain must start and end on cells of equal size")
    dx, dy = c1[0] - c0[0], c1[1] - c0[1]
    if dx % n0 or dy % n0:
        raise AssertionError("cell centres do not differ by a lattice vector")
    return (dx // n0, dy // n0)


def e_translation(patch: Patch, e_class: Vec) -> Vec:
    """The translation mapping a maximal cell containing an e-edge to
    its partner in the type's defining configuration.  Computed once per
    class and kept on the patch, a RigidityError included."""
    cache = patch.e_translations
    if e_class not in cache:
        try:
            cache[e_class] = _e_translation(patch, e_class)
        except RigidityError as exc:
            cache[e_class] = exc
    result = cache[e_class]
    if isinstance(result, RigidityError):
        raise result.with_traceback(None)
    return result


def _e_translation(patch: Patch, e_class: Vec) -> Vec:
    tt = patch.triangle_type
    edge = next(e for e in patch.edges if e.direction_class == e_class)
    cells = [patch.cells[ci] for ci in patch.edge_cells[edge.index]]
    mm = patch.maximal_m()
    maximal = [c for c in cells if c.m == mm]
    if tt == TriangleType.E333 or len(maximal) == 2:
        # both neighbours are maximal: rho maps one directly to the other
        sigma, sigma2 = cells
        k = _position_in_cell(sigma, edge.index)
        k2 = _position_in_cell(sigma2, edge.index)
        return _centers_difference(patch, sigma, k, [(sigma2, k2)])
    if not maximal:
        raise RigidityError(f"class {e_class} has no edge on a maximal cell")
    sigma = maximal[0]
    mediator = next(c for c in cells if c.index != sigma.index)
    if mediator.m == 2:
        # square with two parallel edges in maximal cells sigma, sigma'
        k_sq = _position_in_cell(mediator, edge.index)
        opp = (k_sq + 2) % 4
        sigma2 = _other_cell(patch, mediator.edges[opp], mediator)
        if sigma2.m != mm:
            raise RigidityError("opposite square edge is not on a maximal cell")
        k = _position_in_cell(sigma, edge.index)
        k2 = _position_in_cell(sigma2, mediator.edges[opp])
        return _centers_difference(
            patch, sigma, k, [(mediator, opp), (sigma2, k2)]
        )
    # E236 second configuration: four parallel edges e, e', e'', e''' with
    # e,e' in a hexagon, e',e'' in a square, e'',e''' in another hexagon,
    # and 12-gons containing e and e'''.
    phi = mediator
    k_phi = _position_in_cell(phi, edge.index)
    k_e1 = _parallel_edge_position(patch, phi, k_phi)
    square = _other_cell(patch, phi.edges[k_e1], phi)
    if square.m != 2:
        raise RigidityError("parallel hexagon edge is not on a square")
    k_sq = _position_in_cell(square, phi.edges[k_e1])
    k_e2 = (k_sq + 2) % 4
    phi2 = _other_cell(patch, square.edges[k_e2], square)
    if phi2.m != 3:
        raise RigidityError("opposite square edge is not on a hexagon")
    k_p2 = _position_in_cell(phi2, square.edges[k_e2])
    k_e3 = _parallel_edge_position(patch, phi2, k_p2)
    sigma2 = _other_cell(patch, phi2.edges[k_e3], phi2)
    if sigma2.m != mm:
        raise RigidityError("chain did not end on a maximal cell")
    k = _position_in_cell(sigma, edge.index)
    k2 = _position_in_cell(sigma2, phi2.edges[k_e3])
    return _centers_difference(
        patch,
        sigma,
        k,
        [(phi, k_e1), (square, k_e2), (phi2, k_e3), (sigma2, k2)],
    )


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


def check_rigidity(patch: Patch, l: Polarisation) -> RigidityWitness:
    """First witness for the rigidity property: raises RigidityError
    when no edge class + translation works, which would contradict the
    property and must never happen for admissible polarisations."""
    witnesses = rigidity_witnesses(patch, l)
    if not witnesses:
        raise RigidityError("no polarisation-preserving e-translation found")
    return witnesses[0]


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
    completions = _exact_cover(patch, partial)
    if not completions:
        return None
    if len(completions) > 1:
        raise ValueError("maximal-cell values do not determine the completion")
    return completions[0]


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
            edge = patch.edges[square.edges[q]]
            tau = _other_cell(patch, edge.index, square)
            if tau.m != mm:
                continue
            opp_edge = square.edges[(q + 2) % 4]
            sigma = _other_cell(patch, opp_edge, square)
            if sigma.m != mm:
                continue
            for v0, v1, u1, u0 in (
                (
                    square.vertices[q],
                    square.vertices[(q + 1) % 4],
                    square.vertices[(q + 2) % 4],
                    square.vertices[(q + 3) % 4],
                ),
                (
                    square.vertices[(q + 1) % 4],
                    square.vertices[q],
                    square.vertices[(q + 3) % 4],
                    square.vertices[(q + 2) % 4],
                ),
            ):
                if v1 not in diagonal_vertices(tau, l[tau.index]):
                    continue
                j = _position_in_cell(sigma, opp_edge)
                if sigma.vertices[j] == u0 and sigma.vertices[(j + 1) % 12] == u1:
                    pos = lambda i: (j + i) % 12
                elif sigma.vertices[j] == u1 and sigma.vertices[(j + 1) % 12] == u0:
                    pos = lambda i: (j + 1 - i) % 12
                else:
                    raise AssertionError("square and 12-gon disagree on the shared edge")
                d = l[sigma.index]
                if {d, d + 6} == {pos(4), pos(10)}:
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
    l: Polarisation = {}
    for key, pair in data.items():
        if not key.isdecimal() or int(key) >= len(patch.cells):
            raise ValueError(f"bad cell index {key!r}")
        if not isinstance(pair, list) or len(pair) != 2 or any(type(v) is not int for v in pair):
            raise ValueError(f"cell {key}: expected two vertex integers, got {pair!r}")
        cell = patch.cells[int(key)]
        want = set(pair)
        for d in range(cell.m):
            if set(diagonal_vertices(cell, d)) == want:
                l[cell.index] = d
                break
        else:
            raise ValueError(f"{pair} is not a diagonal of cell {key}")
    return l
