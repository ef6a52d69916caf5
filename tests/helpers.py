"""Constructions that the tests need and the library does not.

Each builds a reference object for a test to check the library
against: a word spelling a normal form, a certificate run backwards,
a cell's two-generator presentation, a direction assignment pulled
back along a covering of patches, a polarisation's vertex coverage and
its rigidity witnesses computed cell by cell.
"""

from artinflats.dihedral import NormalForm
from artinflats.polarisation import (
    Polarisation,
    RigidityError,
    RigidityWitness,
    _primitive,
    allowed_classes,
    diagonal_vertices,
    e_translation,
    is_admissible,
)
from artinflats.presentation import ArtinPresentation, Word, alternating
from artinflats.prover import Certificate, _undo
from artinflats.tiling import DirectedEdge, DirectionAssignment, Patch, Vec, _reduce_mod


def to_word(nf: NormalForm) -> Word:
    """A word spelling this element: Delta^power then the factors."""
    delta = alternating(nf.generators, (1,) * nf.m)
    parts = [delta if nf.power >= 0 else delta.inverse()] * abs(nf.power)
    gens = nf.generators
    parts += [alternating(gens[start:] + gens[:start], (1,) * ln) for start, ln in nf.factors]
    return Word.from_letters(l for w in parts for l in w.letters())


def invert_certificate(cert: Certificate) -> Certificate:
    return Certificate(cert.presentation, cert.end, cert.start, _undo(cert.moves))


def subpresentation(pres: ArtinPresentation, a: str, b: str) -> ArtinPresentation:
    """The two-generator presentation spanned by a and b (finite m required)."""
    m = pres.m(a, b)
    if m is None:
        raise ValueError(f"pair ({a}, {b}) has no relation")
    return ArtinPresentation((a, b), {(a, b): m})


def lift_directions(
    fine: Patch, coarse: Patch, d_coarse: DirectionAssignment
) -> DirectionAssignment:
    """Pull back an assignment along the covering fine -> coarse
    (the fine lattice must be a sublattice of the coarse one)."""
    if fine.triangle_type != coarse.triangle_type:
        raise ValueError("patches have different tiling types")
    for vec in fine.lattice:
        if _reduce_mod(coarse.lattice, vec) != (0, 0):
            raise ValueError("fine lattice is not a sublattice of the coarse one")
    out: DirectionAssignment = {}
    for e in fine.edges:
        cu = coarse.vertex_at[_reduce_mod(coarse.lattice, fine.positions[e.u])]
        ce = coarse.edges[coarse.edge_by_step[cu, e.delta]]
        de = d_coarse[ce.index]
        source = e.u if de.source == cu else e.v
        if de.source not in (ce.u, ce.v):
            raise ValueError("coarse assignment references a foreign vertex")
        out[e.index] = DirectedEdge(source, de.label)
    return out


def coverage(patch: Patch, l: Polarisation) -> dict[int, int]:
    """How many chosen diagonals end at each vertex."""
    counts = {v: 0 for v in range(patch.vertex_count())}
    for cell in patch.cells:
        a, b = diagonal_vertices(cell, l[cell.index])
        counts[a] += 1
        counts[b] += 1
    return counts


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


def reference_witnesses(patch: Patch, l: Polarisation) -> list[RigidityWitness]:
    """Rigidity witnesses computed cell by cell: the allowed classes
    intersected over the maximal cells, then each candidate's
    translation checked through `preserves`."""
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
