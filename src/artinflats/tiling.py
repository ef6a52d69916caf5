"""Periodic Euclidean tilings from triangle reflection groups.

Each tiling type is generated by a group acting on Z^2 by exact affine
maps, given as (generator, map) pairs.  For the three triangle types the
maps are the reflections in the sides of an integer-scaled triangle (for
the hexagonal and 4.6.12 tilings the coordinates live in an oblique
basis with a 60-degree angle; nothing here ever needs the metric).  For
the square grid they are the four unit translations, s by (+-1, 0) and
t by (0, +-1), so a generator may label several maps.  One orbit builder
makes every type's 1-skeleton, the dual chamber graph:

  * vertices  = group elements modulo a sublattice of translations,
                realised as the orbit of a generic base point: each is
                keyed by its position modulo the sublattice and numbered
                in the breadth-first order of discovery,
  * edges     = right multiplication by a generating map; the edge
                {w, wg} carries the generator labelling g, and one index
                maps (vertex, step from that vertex) to the edge,
  * 2m-cells  = cosets of the dihedral subgroup generated by a pair of
                reflections, traversed as alternating cycles (on the
                square grid, the unit squares) by one walk along each
                pair's boundary steps.

Because the group acts on the left and types come from right
multiplication, a translation preserves all edge types exactly when it
lies in the group itself; the *type-preserving translation lattice* is
therefore the translation subgroup, computed here by a breadth-first
enumeration and frozen by exact determinant checks.

A lattice is kept as a basis; a spanning set is brought to its Hermite
basis ((a, b), (0, c)) by the extended Euclid algorithm, and one
determinant and one reduction modulo a basis serve every membership and
index test.  Quotient lattices must lie inside the translation subgroup
("incompatible lattice" otherwise).  All positions, directions, and cell
centres are exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd

from artinflats.presentation import ArtinPresentation, Word, alternating, reduce
from artinflats import dihedral, girth

Vec = tuple[int, int]
# Affine map (a, b, c, d, tx, ty):  (x, y) -> (a x + b y + tx, c x + d y + ty)
Affine = tuple[int, int, int, int, int, int]

AFFINE_ID: Affine = (1, 0, 0, 1, 0, 0)


def affine_apply(f: Affine, p: Vec) -> Vec:
    a, b, c, d, tx, ty = f
    return (a * p[0] + b * p[1] + tx, c * p[0] + d * p[1] + ty)


def affine_compose(f: Affine, g: Affine) -> Affine:
    """f after g  (apply g first)."""
    a1, b1, c1, d1, tx1, ty1 = f
    a2, b2, c2, d2, tx2, ty2 = g
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
        a1 * tx2 + b1 * ty2 + tx1,
        c1 * tx2 + d1 * ty2 + ty1,
    )


class TriangleType(Enum):
    SQUARE = "SQUARE"
    E333 = "E333"
    E244 = "E244"
    E236 = "E236"


# Each type's group is generated by `maps`, (generator, affine map)
# pairs; a generator may label several maps.  For the triangle types they
# are the reflections in the three triangle sides, integer-scaled so that
# every map is integral.  Generator names follow the pair exponents:
#   E333: all pairs 3;  E244: m(s,t) = m(t,r) = 4, m(s,r) = 2;
#   E236: m(s,t) = 6, m(t,r) = 3, m(s,r) = 2.
_TYPE_DATA = {
    TriangleType.E333: {
        "generators": ("s", "t", "r"),
        "exponents": {("s", "t"): 3, ("t", "r"): 3, ("s", "r"): 3},
        # s: y = 0, t: x = 0, r: x + y = 3
        "maps": (
            ("s", (1, 1, 0, -1, 0, 0)),
            ("t", (-1, 0, 1, 1, 0, 0)),
            ("r", (0, -1, -1, 0, 3, 3)),
        ),
        "base_point": (1, 1),
        "point_group_order": 6,
        "translation_det": 27,
    },
    TriangleType.E244: {
        "generators": ("s", "t", "r"),
        "exponents": {("s", "t"): 4, ("t", "r"): 4, ("s", "r"): 2},
        # t: y = 0, s: x = y, r: x + y = 4  (orthogonal coordinates)
        "maps": (
            ("s", (0, 1, 1, 0, 0, 0)),
            ("t", (1, 0, 0, -1, 0, 0)),
            ("r", (0, -1, -1, 0, 4, 4)),
        ),
        "base_point": (2, 1),
        "point_group_order": 8,
        "translation_det": 32,
    },
    TriangleType.E236: {
        "generators": ("s", "t", "r"),
        "exponents": {("s", "t"): 6, ("t", "r"): 3, ("s", "r"): 2},
        # t: y = 0, s: x = y, r: x + y = 6  (oblique 60-degree basis)
        "maps": (
            ("s", (0, 1, 1, 0, 0, 0)),
            ("t", (1, 1, 0, -1, 0, 0)),
            ("r", (0, -1, -1, 0, 6, 6)),
        ),
        "base_point": (3, 1),
        "point_group_order": 12,
        "translation_det": 108,
    },
    TriangleType.SQUARE: {
        "generators": ("s", "t"),
        "exponents": {("s", "t"): 2},
        # unit translations: s by (+-1, 0), t by (0, +-1)
        "maps": (
            ("s", (1, 0, 0, 1, 1, 0)),
            ("s", (1, 0, 0, 1, -1, 0)),
            ("t", (1, 0, 0, 1, 0, 1)),
            ("t", (1, 0, 0, 1, 0, -1)),
        ),
        # every vertex carries two edges of each type, so a cell's steps
        # carry their direction: the unit square from its lower-left corner
        "cell_steps": (("s", (1, 0)), ("t", (0, 1)), ("s", (-1, 0)), ("t", (0, -1))),
        "base_point": (0, 0),
        "point_group_order": 1,
        "translation_det": 1,
    },
}


def presentation_for(tt: TriangleType) -> ArtinPresentation:
    data = _TYPE_DATA[tt]
    return ArtinPresentation(data["generators"], data["exponents"])


def _lattice_basis(vectors: list[Vec]) -> tuple[Vec, Vec]:
    """Hermite basis ((a, b), (0, c)) of the integer lattice spanned by
    `vectors`; a, c > 0 and 0 <= b < c.  Each vector (x, y) is absorbed
    by the extended Euclid algorithm on the first coordinates of (a, b)
    and (x, y): it leaves the pivot (gcd(a, x), b') and a vector (0, y')
    whose y' joins the gcd c."""
    a = b = c = 0
    for x, y in vectors:
        while x:
            q = a // x
            a, b, x, y = x, y, a - q * x, b - q * y
        c = gcd(c, y)
    if not a and not c:
        raise ValueError("no nonzero vectors")
    if not a or not c:
        raise ValueError("vectors span a rank-deficient lattice")
    return (abs(a), (b if a > 0 else -b) % c), (0, c)


def _det(basis: tuple[Vec, Vec]) -> int:
    (a1, b1), (a2, b2) = basis
    return a1 * b2 - b1 * a2


def _reduce_mod(basis: tuple[Vec, Vec], v: Vec) -> Vec:
    """v minus the lattice point whose fundamental parallelogram holds
    it: the floors of v's coordinates in `basis`, by integer floor
    division (which floors for either sign of the determinant)."""
    (a1, b1), (a2, b2) = basis
    det = _det(basis)
    if det == 0:
        raise ValueError("degenerate lattice")
    fa = (v[0] * b2 - v[1] * a2) // det
    fb = (a1 * v[1] - b1 * v[0]) // det
    return (v[0] - fa * a1 - fb * a2, v[1] - fa * b1 - fb * b2)


@lru_cache(maxsize=None)
def translation_lattice(tt: TriangleType) -> tuple[Vec, Vec]:
    """Canonical basis of the type-preserving translation lattice (the
    translation subgroup of the type's group), found by a group ball
    search and certified by the exact index/determinant check."""
    data = _TYPE_DATA[tt]
    gens = [g for _, g in data["maps"]]
    seen = {AFFINE_ID}
    frontier = [AFFINE_ID]
    translations: list[Vec] = []
    for _ in range(10):
        nxt = []
        for w in frontier:
            for g in gens:
                wg = affine_compose(w, g)
                if wg not in seen:
                    seen.add(wg)
                    nxt.append(wg)
                    if wg[:4] == (1, 0, 0, 1):
                        translations.append((wg[4], wg[5]))
        frontier = nxt
        if len(translations) >= 8:
            break
    basis = _lattice_basis(translations)
    det = _det(basis)
    if det != data["translation_det"]:
        raise AssertionError(
            f"translation search for {tt} gave determinant {det}, expected {data['translation_det']}"
        )
    return basis


def _minimal_type_preserving_multiple(tt: TriangleType, rho: Vec) -> Vec:
    """Smallest positive multiple of rho lying in the type-preserving
    translation lattice L.  The search ends by |det L|, the order of
    Z^2 / L, since that multiple of any vector lies in L."""
    basis = translation_lattice(tt)
    multiples = ((n * rho[0], n * rho[1]) for n in range(1, abs(_det(basis)) + 1))
    return next(v for v in multiples if _reduce_mod(basis, v) == (0, 0))


class IncompatibleLatticeError(ValueError):
    """The quotient lattice is not made of type-preserving translations,
    or is too small: an edge would join a vertex to itself, or too large:
    its index exceeds MAX_PATCH_INDEX."""


# The largest covering index (number of copies of the minimal patch) that
# Patch builds: scale 32.  An E236 patch at the cap has 12,288 vertices
# and builds in about half a second; an index of 10^10 would exhaust memory.
MAX_PATCH_INDEX = 1024

# The most partial assignments that enumerate_consistent_directions keeps
# after one join step.  The largest runs under it peak at 265,560 partials
# (E244 x3, 1 s) and 184,618 (E333 x4); E333 x5 would need 451,114 at its
# last steps and grows on from there.
MAX_PARTIAL_ASSIGNMENTS = 300_000


class TooManyAssignmentsError(ValueError):
    """Direction enumeration would keep more than MAX_PARTIAL_ASSIGNMENTS
    partial assignments after one join step."""


@dataclass(frozen=True)
class Edge:
    index: int
    u: int  # endpoint vertex indices, u < v: u is the endpoint
    v: int  # discovered first, delta points u -> v
    gen: str
    delta: Vec  # exact geometric step from u to v

    def other(self, vertex: int) -> int:
        return self.v if vertex == self.u else self.u

    def delta_from(self, vertex: int) -> Vec:
        if vertex == self.u:
            return self.delta
        return (-self.delta[0], -self.delta[1])

    @property
    def direction_class(self) -> Vec:
        d = self.delta
        return d if d > (0, 0) else (-d[0], -d[1])


@dataclass(frozen=True)
class Cell:
    index: int
    pair: tuple[str, str]
    m: int
    vertices: tuple[int, ...]  # 2m cycle, canonical rotation
    edges: tuple[int, ...]  # edges[i] joins vertices[i] and vertices[i+1]


class Patch:
    """A finite quotient of the tiling by a type-preserving lattice."""

    def __init__(self, triangle_type: TriangleType, lattice: tuple[Vec, Vec]):
        self.triangle_type = triangle_type
        self.lattice = (tuple(lattice[0]), tuple(lattice[1]))
        self.presentation = presentation_for(triangle_type)
        self.generators = _TYPE_DATA[triangle_type]["generators"]
        if _det(self.lattice) == 0:
            raise IncompatibleLatticeError("lattice is degenerate")
        tbasis = translation_lattice(triangle_type)
        for vec in self.lattice:
            if _reduce_mod(tbasis, vec) != (0, 0):
                raise IncompatibleLatticeError(
                    f"incompatible lattice: {vec} is not a type-preserving translation"
                )
        index = self._covering_index()
        if index > MAX_PATCH_INDEX:
            raise IncompatibleLatticeError(
                f"lattice index {index} exceeds MAX_PATCH_INDEX = {MAX_PATCH_INDEX}"
            )
        self.positions: list[Vec] = []
        self.vertex_at: dict[Vec, int] = {}
        self.edges: list[Edge] = []
        self.vertex_edges: list[list[int]] = []
        # (vertex, step from that vertex) -> index of the edge taking it
        self.edge_by_step: dict[tuple[int, Vec], int] = {}
        self.cells: list[Cell] = []
        self.edge_cells: list[list[int]] = []
        self._translations: dict[Vec, tuple[list[int], list[int]] | None] = {}
        # polarisation.e_translation's translation per edge class, None for
        # a class with no edge on a maximal cell; it depends only on the patch
        self.e_translations: dict[Vec, Vec | None] = {}
        self._build_orbit()
        self._build_cells()
        for ei, cells in enumerate(self.edge_cells):
            if len(cells) != 2:
                raise AssertionError(f"edge {ei} lies in {len(cells)} cells")

    # -- construction ------------------------------------------------

    def _add_vertex(self, position: Vec) -> None:
        self.vertex_at[position] = len(self.positions)
        self.positions.append(position)
        self.vertex_edges.append([])

    def _add_edge(self, u: int, v: int, gen: str, delta: Vec) -> None:
        idx = len(self.edges)
        self.edges.append(Edge(idx, u, v, gen, delta))
        self.vertex_edges[u].append(idx)
        self.vertex_edges[v].append(idx)
        self.edge_by_step[u, delta] = idx
        self.edge_by_step[v, (-delta[0], -delta[1])] = idx
        self.edge_cells.append([])

    def _build_orbit(self) -> None:
        """Breadth first over group elements w, each keyed by its vertex
        position w(p0) modulo the lattice; p0 is generic, so the position
        fixes w up to the lattice.  Every map's inverse is a map too, so
        the edge {w, wg} is added once, from its end found first."""
        data = _TYPE_DATA[self.triangle_type]
        p0 = data["base_point"]
        reps: list[Affine] = [AFFINE_ID]  # one element per vertex, by index
        self._add_vertex(_reduce_mod(self.lattice, p0))
        for i, w in enumerate(reps):  # reps grows as vertices are found
            x, y = affine_apply(w, p0)
            for gname, g in data["maps"]:
                wg = affine_compose(w, g)
                p = affine_apply(wg, p0)
                q = _reduce_mod(self.lattice, p)
                if q not in self.vertex_at:
                    self._add_vertex(q)
                    reps.append(wg)
                j = self.vertex_at[q]
                if i == j:
                    raise IncompatibleLatticeError("self-loop edge; lattice too small")
                if j > i:
                    self._add_edge(i, j, gname, (p[0] - x, p[1] - y))
        expected = data["point_group_order"] * self._covering_index()
        if len(self.positions) != expected:
            raise AssertionError(
                f"built {len(self.positions)} vertices, expected {expected}"
            )

    def _covering_index(self) -> int:
        det_t = _det(translation_lattice(self.triangle_type))
        index, rest = divmod(abs(_det(self.lattice)), abs(det_t))
        if rest:
            raise IncompatibleLatticeError("lattice index is not integral")
        return index

    def _edge_at(self, vertex: int, gen: str, delta: Vec | None = None) -> Edge:
        """The gen-edge at `vertex`; a step `delta` from it, when given,
        picks the edge by itself (a square-grid vertex has two of each)."""
        if delta is not None:
            return self.edges[self.edge_by_step[vertex, delta]]
        hits = []
        for ei in self.vertex_edges[vertex]:  # a loop: faster here than a comprehension
            e = self.edges[ei]
            if e.gen == gen:
                hits.append(e)
        if len(hits) != 1:
            raise KeyError(f"vertex {vertex} has {len(hits)} {gen}-edges")
        return hits[0]

    def _build_cells(self) -> None:
        """Walk each pair's cells along its boundary steps (generator,
        delta or None).  A triangle pair alternates its two generators m
        times; a square is the type's `cell_steps`.  The walks start from
        each vertex in index order, skipping a vertex whose first-step
        edge an earlier walk took as a first-type step: it lies in that
        cell already."""
        data, gens = _TYPE_DATA[self.triangle_type], self.generators
        for i, a in enumerate(gens):
            for b in gens[i + 1 :]:
                m = self.presentation.m(a, b)
                steps = data.get("cell_steps", ((a, None), (b, None)) * m)
                taken: set[int] = set()
                for start in range(len(self.positions)):
                    if self._edge_at(start, *steps[0]).index in taken:
                        continue
                    verts, edges, cur = [], [], start
                    for step in steps:
                        e = self._edge_at(cur, *step)
                        verts.append(cur)
                        edges.append(e.index)
                        if step == steps[0]:
                            taken.add(e.index)
                        cur = e.other(cur)
                    if cur != start:
                        raise AssertionError("cell cycle failed to close")
                    cell_index = len(self.cells)
                    vs, es = self._canonical_cycle(verts, edges, (a, b))
                    self.cells.append(Cell(cell_index, (a, b), m, vs, es))
                    for ei in es:
                        self.edge_cells[ei].append(cell_index)

    def _canonical_cycle(
        self, verts: list[int], edges: list[int], pair: tuple[str, str]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The least rotation or reflection of the cycle that starts at
        its least vertex along a pair[0]-edge, making cell data
        order-independent."""
        n = len(verts)
        back = [verts[-k] for k in range(n)], [edges[-k - 1] for k in range(n)]
        return min(
            (tuple(vs[k:] + vs[:k]), tuple(es[k:] + es[:k]))
            for vs, es in ((verts, edges), back)
            for k in range(n)
            if vs[k] == min(verts) and self.edges[es[k]].gen == pair[0]
        )

    # -- navigation ---------------------------------------------------

    def vertex_count(self) -> int:
        return len(self.positions)

    def maximal_m(self) -> int:
        return max(c.m for c in self.cells)

    def maximal_cells(self) -> list[Cell]:
        mm = self.maximal_m()
        return [c for c in self.cells if c.m == mm]

    def translate_vertex(self, vertex: int, vec: Vec) -> int:
        p = self.positions[vertex]
        q = _reduce_mod(self.lattice, (p[0] + vec[0], p[1] + vec[1]))
        try:
            return self.vertex_at[q]
        except KeyError:
            raise KeyError(f"translation {vec} does not preserve the vertex set")

    def translate_cell(self, cell: Cell, vec: Vec) -> Cell:
        mapped = [
            self.edge_by_step[self.translate_vertex(v, vec), self.edges[ei].delta_from(v)]
            for v, ei in zip(cell.vertices, cell.edges)
        ]
        common = set.intersection(*(set(self.edge_cells[ei]) for ei in mapped))
        if len(common) != 1:
            raise KeyError(f"translation {vec} does not act on cells")
        return self.cells[common.pop()]

    def translation(self, vec: Vec) -> tuple[list[int], list[int]] | None:
        """The action of `vec` as (vertex map, cell map), each a list
        indexed by vertex or cell index; None when `vec` does not act on
        the patch.  Computed once per vector and kept on the patch."""
        if vec not in self._translations:
            try:
                action = (
                    [self.translate_vertex(v, vec) for v in range(len(self.positions))],
                    [self.translate_cell(cell, vec).index for cell in self.cells],
                )
            except KeyError:
                action = None
            self._translations[vec] = action
        return self._translations[vec]

    def cell_lift(self, cell: Cell) -> list[Vec]:
        """Boundary vertex positions lifted coherently to the plane,
        anchored at the stored position of the first boundary vertex."""
        pos = list(self.positions[cell.vertices[0]])
        out = [tuple(pos)]
        for k in range(len(cell.edges) - 1):
            e = self.edges[cell.edges[k]]
            d = e.delta_from(cell.vertices[k])
            pos[0] += d[0]
            pos[1] += d[1]
            out.append(tuple(pos))
        return out


def minimal_patch(tt: TriangleType) -> Patch:
    return Patch(tt, translation_lattice(tt))


def scaled_patch(tt: TriangleType, factor: int) -> Patch:
    (a1, b1), (a2, b2) = translation_lattice(tt)
    return Patch(tt, ((factor * a1, factor * b1), (factor * a2, factor * b2)))


# ---------------------------------------------------------------------------
# Direction assignments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectedEdge:
    source: int
    label: int  # k >= 1

    def signed(self, vertex: int) -> int:
        """The label read from `vertex`, negated when the edge points
        into it."""
        return self.label if self.source == vertex else -self.label


DirectionAssignment = dict[int, DirectedEdge]

_DIRECTION_LABELS = (1, 2)


@dataclass
class Violation:
    check: str  # "cell-word" | "long-pairing" | "crossing-families"
    cell: int | None = None
    detail: str = ""


@dataclass
class ValidationReport:
    ok: bool
    violations: list[Violation]


def boundary_word(patch: Patch, cell: Cell, d: DirectionAssignment) -> Word:
    gens = (patch.edges[ei].gen for ei in cell.edges)
    return reduce(zip(gens, _cell_signature(patch, cell, d)))


@lru_cache(maxsize=None)
def _signed_boundary_trivial(m: int, exps: tuple[int, ...]) -> bool:
    """Triviality of a cell word given only its signed labels, since the
    generators alternate around the boundary starting with pair[0]."""
    pres = ArtinPresentation(("a", "b"), {("a", "b"): m})
    return dihedral.is_trivial(pres, alternating("ab", exps))


@lru_cache(maxsize=None)
def _cell_table(m: int) -> frozenset[tuple[int, ...]]:
    """The trivial signatures of a 2m-cell whose labels all lie in
    _DIRECTION_LABELS, from the girth layer's meet in the middle."""
    return girth.trivial_words(m, [e for k in _DIRECTION_LABELS for e in (k, -k)])


def _cell_signature(patch: Patch, cell: Cell, d: DirectionAssignment) -> tuple[int, ...]:
    return tuple(d[ei].signed(v) for v, ei in zip(cell.vertices, cell.edges))


def _cell_consistent(patch: Patch, cell: Cell, d: DirectionAssignment) -> bool:
    """Whether the cell passes the long-pairing and cell-word checks.
    The word check alone decides: by the girth lemma a trivial cell word
    has its long labels on opposite edges.  Labels in _DIRECTION_LABELS
    are looked up in the cell table; any other label is decided by the
    normal form of the boundary word."""
    sig = _cell_signature(patch, cell, d)
    if sig in _cell_table(cell.m):
        return True
    if all(abs(e) in _DIRECTION_LABELS for e in sig):
        return False
    return _signed_boundary_trivial(cell.m, sig)


def _cell_checks(patch: Patch, cell: Cell, d: DirectionAssignment) -> list[Violation]:
    if _cell_consistent(patch, cell, d):
        return []
    out = []
    labels = [d[ei].label for ei in cell.edges]
    for k, ke in enumerate(labels):
        if ke >= 2 and labels[k - cell.m] != ke:  # the opposite edge
            out.append(
                Violation(
                    "long-pairing",
                    cell.index,
                    f"label {ke} at position {k} not mirrored opposite",
                )
            )
    out.append(Violation("cell-word", cell.index, f"boundary spells {boundary_word(patch, cell, d)}"))
    return out


def validate_directions(patch: Patch, d: DirectionAssignment) -> ValidationReport:
    """Checks, in order: every cell boundary word is trivial in its
    dihedral group; long labels pair up on opposite edges; all long
    edges are parallel to a single direction."""
    violations: list[Violation] = []
    if sorted(d) != list(range(len(patch.edges))):
        raise ValueError("assignment must cover exactly the patch edges")
    for cell in patch.cells:
        violations.extend(_cell_checks(patch, cell, d))
    long_classes = {
        patch.edges[ei].direction_class for ei, de in d.items() if de.label >= 2
    }
    if len(long_classes) > 1:
        violations.append(
            Violation("crossing-families", None, f"long edges in {len(long_classes)} directions")
        )
    return ValidationReport(not violations, violations)


def standard_directions(patch: Patch) -> DirectionAssignment:
    """The all-labels-1 assignment directing every edge along a generic
    positive functional, so each cell boundary is a relator template."""
    d: DirectionAssignment = {}
    for e in patch.edges:
        # delta is never (0, 0); direct along lexicographically positive
        source = e.u if e.delta > (0, 0) else e.v
        d[e.index] = DirectedEdge(source, 1)
    return d


def enumerate_consistent_directions(patch: Patch) -> list[DirectionAssignment]:
    """All assignments with labels in _DIRECTION_LABELS passing the
    cell-word and long-pairing checks (the single-direction check is left
    to the caller, so that both the passing and the crossing-family
    assignments can be inspected).

    A join over cells.  Each row of a cell's table (`_cell_table`) fixes
    the source and label of every edge of the cell; the partial
    assignments grow one cell at a time, each keeping the rows that agree
    with it on the edges already assigned.  The next cell is the one with
    the most edges already assigned, the larger m first on a tie.  The
    long-pairing check needs no step of its own: by the girth lemma a
    trivial cell word pairs its long labels.  A partial assignment is one
    int, a few bits per edge, so a step looks its rows up by a mask and
    extends it by an OR.  A step that would keep more than
    MAX_PARTIAL_ASSIGNMENTS partials raises TooManyAssignmentsError.

    Deterministic: the edges are ordered cell by cell, smallest cells
    first, and the assignments are sorted edge by edge in that order by
    label, then by source (the smaller vertex index first).  Each dict
    lists its edges in that order.
    """
    cells = sorted(patch.cells, key=lambda c: (c.m, c.index))
    edge_order = list(dict.fromkeys(ei for cell in cells for ei in cell.edges))
    # An edge's value, 2 (label index) + (source is the larger endpoint),
    # indexes `values` and sorts as the order above.
    values = [
        [DirectedEdge(source, label) for label in _DIRECTION_LABELS for source in sorted((e.u, e.v))]
        for e in patch.edges
    ]
    larger = [max(e.u, e.v) for e in patch.edges]
    # A partial assignment packs its values into one int, `width` bits per
    # edge at the edge's place in it.
    width = (2 * len(_DIRECTION_LABELS) - 1).bit_length()
    low = (1 << width) - 1
    position: dict[int, int] = {}  # edge -> its place in a partial assignment
    partials = [0]
    while cells:
        cell = max(cells, key=lambda c: (len(set(c.edges) & position.keys()), c.m, -c.index))
        cells.remove(cell)
        edges = list(dict.fromkeys(cell.edges))
        known = sum(low << width * position[ei] for ei in edges if ei in position)
        for ei in edges:
            position.setdefault(ei, len(position))
        rows: dict[int, list[int]] = {}
        for sig in _cell_table(cell.m):
            row: dict[int, int] = {}
            for ei, vertex, e in zip(cell.edges, cell.vertices, sig):
                value = 2 * _DIRECTION_LABELS.index(abs(e)) + ((vertex == larger[ei]) == (e > 0))
                if row.setdefault(ei, value) != value:
                    break
            else:
                packed = sum(value << width * position[ei] for ei, value in row.items())
                rows.setdefault(packed & known, []).append(packed & ~known)
        matches = [rows.get(t & known, ()) for t in partials]
        size = sum(map(len, matches))
        if size > MAX_PARTIAL_ASSIGNMENTS:
            raise TooManyAssignmentsError(
                f"direction enumeration would keep {size} partial assignments,"
                f" above MAX_PARTIAL_ASSIGNMENTS = {MAX_PARTIAL_ASSIGNMENTS}"
            )
        partials = [t | x for t, xs in zip(partials, matches) for x in xs]
    shifts = [width * position[ei] for ei in edge_order]
    return [
        {ei: values[ei][v] for ei, v in zip(edge_order, key)}
        for key in sorted(tuple(t >> s & low for s in shifts) for t in partials)
    ]
