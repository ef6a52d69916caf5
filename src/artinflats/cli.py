"""Command-line surface: normal forms, exhaustive sweeps, polarisation
enumeration, proof search and replay, and SVG rendering of patches.

Exit codes follow a fixed contract so sweeps can run under CI:

    0   success
    1   usage error (bad arguments, words that do not parse, name a
        non-generator or spell over 10^6 letters, rule tables too long
        to search, normal forms too long to print, lattices that build
        no patch or one above tiling.MAX_PATCH_INDEX, direction
        enumeration above tiling.MAX_PARTIAL_ASSIGNMENTS, bad input
        files, output that cannot be written, stdout closed by its reader)
    2   verification failure (invalid certificate, missing witness)
    3   search budget exhausted, or a `prove --trivial`/`--equal` identity
        refuted by the abelianisation (`refute`; the reason on stderr)

Rendering uses exact lattice coordinates scaled by fixed integer
factors, so re-rendering the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from artinflats import dihedral, girth
from artinflats.dihedral import OracleBudgetError
from artinflats.polarisation import (
    induced,
    iter_admissible,
    polarisation_from_json,
    polarisation_to_dict,
    rigidity_witnesses,
)
from artinflats.presentation import MAX_CERT_LETTERS, ArtinPresentation, Word
from artinflats.prover import DEFAULT_BUDGET, Budget, Certificate, ReplayError, SearchBudgetError, WordTooLongError, check_rule_table, prove_commutator, prove_conjugation, prove_equal, prove_trivial, replay
from artinflats.refute import refute
from artinflats.subgroups import FAMILY_CASES, family, klein_composite, klein_pair, verify_abelian
from artinflats.tiling import (
    DirectionAssignment,
    Patch,
    TooManyAssignmentsError,
    TriangleType,
    enumerate_consistent_directions,
    scaled_patch,
    standard_directions,
    validate_directions,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; route through the
    # usage exit code instead.
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Shared input plumbing
# ---------------------------------------------------------------------------


def _read(path: str, what: str) -> str:
    """The text of an input file; a file that cannot be opened or is not
    UTF-8 text is a usage error."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what}: {exc}")


def _load_presentation(path: str) -> ArtinPresentation:
    text = _read(path, "presentation file")
    try:
        return ArtinPresentation.from_json(text)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise UsageError(f"bad presentation file {path}: {exc}")


def _parse_word(text: str, pres: ArtinPresentation) -> Word:
    try:
        return pres.parse_word(text)
    except ValueError as exc:
        raise UsageError(str(exc))


def _build_patch(args) -> Patch:
    tt = TriangleType[args.type]  # argparse's choices refuse any other name
    try:
        if args.lattice:
            rows = [tuple(int(c) for c in row.split(",")) for row in args.lattice.split(";")]
            if len(rows) != 2 or any(len(r) != 2 for r in rows):
                raise ValueError("expected 'a,b;c,d'")
            return Patch(tt, (rows[0], rows[1]))
        if args.scale < 1:
            raise UsageError("scale must be >= 1")
        return scaled_patch(tt, args.scale)
    except ValueError as exc:
        raise UsageError(f"cannot build {tt.name} patch: {exc}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")
    print(f"wrote {path}")


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        _write(args.output, text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# normalize / girth-sweep
# ---------------------------------------------------------------------------


def cmd_normalize(args) -> int:
    pres = _load_presentation(args.presentation)
    word = _parse_word(args.word, pres)
    try:
        nf = dihedral.normal_form(pres, word)
    except ValueError as exc:
        raise UsageError(str(exc))
    letters = sum(ln for _, ln in nf.factors)
    if letters > MAX_CERT_LETTERS:
        raise UsageError(f"normal form spells {letters} letters, more than {MAX_CERT_LETTERS}")
    print(nf)
    return EXIT_OK


def cmd_girth_sweep(args) -> int:
    try:
        result = girth.girth_sweep(args.m, args.exponent_bound)
    except ValueError as exc:
        raise UsageError(str(exc))
    total, agree = result.total, result.agree
    print(f"m={args.m} bound={args.exponent_bound}: {total} words, {result.trivial} trivial")
    print(f"classifier/oracle agreement {agree}/{total} ({100.0 * agree / total:.1f}%)")
    if result.first_disagreement is None:
        return EXIT_OK
    print(f"first disagreement: {result.first_disagreement}")
    return EXIT_VERIFY


# ---------------------------------------------------------------------------
# polarisations
# ---------------------------------------------------------------------------


def cmd_polarisations(args) -> int:
    patch = _build_patch(args)
    count = failed = 0
    first_failed = None  # enumeration index of the first non-rigid polarisation
    listed = []  # only --json prints the polarisations themselves
    for l in iter_admissible(patch):
        if args.check_rigidity and not rigidity_witnesses(patch, l):
            failed += 1
            if first_failed is None:
                first_failed = count
        count += 1
        if args.json:
            listed.append(polarisation_to_dict(patch, l))
    if args.json:
        report = {
            "type": patch.triangle_type.name,
            "lattice": [list(v) for v in patch.lattice],
            "count": count,
            "rigid": (not failed) if args.check_rigidity else None,
        }
        if failed:
            report["first_non_rigid"] = first_failed
        report["polarisations"] = listed
        print(json.dumps(report, indent=2))
    else:
        lat = ";".join(",".join(str(c) for c in v) for v in patch.lattice)
        print(f"{patch.triangle_type.name} lattice {lat}: {count} admissible polarisations")
        if args.check_rigidity:
            if failed:
                print(f"rigidity FAILED for {failed} polarisation(s)")
                print(f"first non-rigid polarisation: index {first_failed}")
            else:
                print(f"all rigid ({count} witnesses)")
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

_EDGE_COLORS = {"s": "#c1272d", "t": "#1f5fa8", "r": "#2d8a3e"}
_MARGIN = 24


def _projection(tt: TriangleType):
    # The reflection groups of the 60-degree shapes act on the triangular
    # lattice: send the basis to (40, 0) and (20, -36).  The right-angled
    # shapes use a square grid.  All outputs are multiples of 4 so that
    # midpoints and quarter points stay integral.
    if tt in (TriangleType.E244, TriangleType.SQUARE):
        return lambda p: (40 * p[0], -40 * p[1])
    return lambda p: (40 * p[0] + 20 * p[1], -36 * p[1])


def render_svg(
    patch: Patch,
    directions: DirectionAssignment | None = None,
    polarisation=None,
    edge_colors: bool = True,
    arrows: bool = True,
) -> str:
    """Draw the patch cell by cell, each 2m-gon lifted coherently to the
    plane, so wrap-around cells appear whole.  Shared edges coincide and
    are drawn once.  Deterministic: iteration follows cell/edge indices."""
    proj = _projection(patch.triangle_type)
    segments = []  # (p1, p2, edge_index) with p1 at the source end if directed
    seen = set()
    diagonals = []
    for cell in patch.cells:
        lift = patch.cell_lift(cell)
        pts = [proj(p) for p in lift]
        n = len(cell.edges)
        for k, ei in enumerate(cell.edges):
            p1, p2 = pts[k], pts[(k + 1) % n]
            key = (min(p1, p2), max(p1, p2), ei)
            if key in seen:
                continue
            seen.add(key)
            if directions is not None and directions[ei].source != cell.vertices[k]:
                p1, p2 = p2, p1
            segments.append((p1, p2, ei))
        if polarisation is not None and cell.index in polarisation:
            d = polarisation[cell.index]
            m = cell.m
            diagonals.append((pts[d], pts[d + m]))
    xs = [c[0] for s in segments for c in (s[0], s[1])]
    ys = [c[1] for s in segments for c in (s[0], s[1])]
    x0, y0 = min(xs) - _MARGIN, min(ys) - _MARGIN
    vw = max(xs) - min(xs) + 2 * _MARGIN
    vh = max(ys) - min(ys) + 2 * _MARGIN

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{vw // 2}" height="{vh // 2}" '
        f'viewBox="{x0} {y0} {vw} {vh}">'
    )
    draw_arrows = directions is not None and arrows
    if draw_arrows:
        out.append('  <defs>')
        out.append(
            '    <marker id="arrow" viewBox="0 0 8 8" refX="7" refY="4" '
            'markerWidth="6" markerHeight="6" orient="auto">'
        )
        out.append('      <path d="M0 0L8 4L0 8z" fill="context-stroke" />')
        out.append('    </marker>')
        out.append('  </defs>')
    out.append(f'  <rect x="{x0}" y="{y0}" width="{vw}" height="{vh}" fill="#ffffff" />')

    def color(ei: int) -> str:
        return _EDGE_COLORS[patch.edges[ei].gen] if edge_colors else "#444444"

    def line(p1, p2, stroke: str, width: int, extra: str = "") -> None:
        out.append(
            f'  <line x1="{p1[0]}" y1="{p1[1]}" x2="{p2[0]}" y2="{p2[1]}" '
            f'stroke="{stroke}" stroke-width="{width}"{extra} />'
        )

    long_edges = []
    for p1, p2, ei in segments:
        wide = directions is not None and directions[ei].label >= 2
        line(p1, p2, color(ei), 7 if wide else 3)
        if wide:
            long_edges.append((p1, p2))
    # a white core turns each wide stroke into a doubled line
    for p1, p2 in long_edges:
        line(p1, p2, "#ffffff", 3)
    if draw_arrows:
        for p1, p2, ei in segments:
            mid = (p1[0] + p2[0]) // 2, (p1[1] + p2[1]) // 2
            quarter = (p1[0] + mid[0]) // 2, (p1[1] + mid[1]) // 2
            line(quarter, mid, color(ei), 3, ' marker-end="url(#arrow)"')
    for p1, p2 in diagonals:
        line(p1, p2, "#555555", 2, ' stroke-dasharray="7 5"')
    dots = sorted({p for s in segments for p in (s[0], s[1])})
    for px, py in dots:
        out.append(f'  <circle cx="{px}" cy="{py}" r="4" fill="#222222" />')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _resolve_directions(patch: Patch, mode: str) -> DirectionAssignment | None:
    if mode == "none":
        return None
    if mode == "standard":
        return standard_directions(patch)
    if mode.startswith("index:"):
        try:
            want = int(mode.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad directions index in {mode!r}")
        try:
            enumerated = enumerate_consistent_directions(patch)
        except TooManyAssignmentsError as exc:
            raise UsageError(f"cannot enumerate directions: {exc}")
        consistent = [d for d in enumerated if validate_directions(patch, d).ok]
        if not 0 <= want < len(consistent):
            raise UsageError(
                f"directions index {want} out of range (patch has {len(consistent)})"
            )
        return consistent[want]
    raise UsageError(f"unknown directions mode {mode!r}")


def _resolve_polarisation(patch: Patch, mode: str, d: DirectionAssignment | None):
    if mode == "none":
        return None
    if mode == "induced":
        if d is None:
            raise UsageError("--polarisation induced needs a direction assignment")
        return induced(patch, d)
    if mode.startswith("file:"):
        path = mode.split(":", 1)[1]
        text = _read(path, "polarisation file")
        try:
            return polarisation_from_json(patch, text)
        except (ValueError, KeyError, IndexError, RecursionError) as exc:
            raise UsageError(f"bad polarisation file {path}: {exc}")
    raise UsageError(f"unknown polarisation mode {mode!r}")


def cmd_render(args) -> int:
    patch = _build_patch(args)
    d = _resolve_directions(patch, args.directions)
    if d is not None:
        report = validate_directions(patch, d)
        if not report.ok:
            raise UsageError(f"direction assignment is inconsistent: {report.violations[0]}")
    l = _resolve_polarisation(patch, args.polarisation, d)
    svg = render_svg(
        patch,
        directions=d,
        polarisation=l,
        edge_colors=not args.plain,
        arrows=not args.no_arrows,
    )
    _write(args.output, svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# prove / replay
# ---------------------------------------------------------------------------


def cmd_prove(args) -> int:
    pres = _load_presentation(args.presentation)
    budget = Budget(max_states=args.max_states, max_len=args.max_len)
    words = [_parse_word(w, pres) for w in args.commutator or args.conjugation or args.equal or (args.trivial,)]
    if args.commutator:
        cert = prove_commutator(pres, *words, budget)
    elif args.conjugation:
        cert = prove_conjugation(pres, *words, budget)
    else:
        target = words[0] * words[1].inverse() if args.equal else words[0]
        check_rule_table(pres)  # exit 1 first, as the search would
        try:
            found = refute(pres, target)
        except WordTooLongError:  # a u v^-1 too long to check is left to the search
            found = None
        if found is not None:
            print(f"no certificate: not {'equal' if args.equal else 'trivial'}: {found}", file=sys.stderr)
            return EXIT_BUDGET
        cert = prove_equal(pres, *words, budget) if args.equal else prove_trivial(pres, words[0], budget)
    if cert is None:
        print("no certificate within budget", file=sys.stderr)
        return EXIT_BUDGET
    if not replay(cert):
        print("found certificate FAILED to replay", file=sys.stderr)
        return EXIT_VERIFY
    _emit(args, cert.to_json())
    if args.output:
        print(f"certificate: {len(cert.moves)} moves, {cert.start or 'e'} -> {cert.end or 'e'}")
    return EXIT_OK


def cmd_replay(args) -> int:
    text = _read(args.certificate, "certificate")
    try:
        cert = Certificate.from_json(text)
    except ReplayError as exc:
        print(f"certificate does not parse: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if not replay(cert):
        print("certificate replay FAILED", file=sys.stderr)
        return EXIT_VERIFY
    print(f"valid: {cert.start or 'e'} -> {cert.end or 'e'} in {len(cert.moves)} moves")
    return EXIT_OK


# ---------------------------------------------------------------------------
# families / klein
# ---------------------------------------------------------------------------


def _parse_exponents(text: str):
    out = []
    try:
        for factor in text.split(";"):
            parts = [int(p) for p in factor.split(",")]
            if len(parts) == 1:
                out.append(parts[0])
            elif len(parts) == 2:
                out.append((parts[0], parts[1]))
            else:
                raise ValueError("each factor takes one or two integers")
    except ValueError as exc:
        raise UsageError(f"bad exponents {text!r}: {exc}")
    return out


def cmd_families(args) -> int:
    budget = Budget(max_states=args.max_states, max_len=args.max_len)
    # `family` reads the words and refuses every option its case does not take
    pres = None if args.presentation is None else _load_presentation(args.presentation)
    given = {"presentation": pres, "left": args.left, "right": args.right}
    exps = None if args.exponents is None else _parse_exponents(args.exponents)
    payload = {"case": args.case}
    if exps is not None:
        payload["exponents"] = exps
    try:
        w1, w2 = family(args.case, exps, **given)
    except ValueError as exc:
        raise UsageError(str(exc))
    payload.update(w1=str(w1), w2=str(w2))
    if args.verify:
        cert = verify_abelian(args.case, exps, budget=budget, **given)
        if not replay(cert):
            print("commutator certificate FAILED to replay", file=sys.stderr)
            return EXIT_VERIFY
        payload["certificate"] = cert.to_dict()
        payload["moves"] = len(cert.moves)
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_klein(args) -> int:
    if args.k == 0:
        raise UsageError("k must be nonzero")
    budget = Budget(max_states=args.max_states, max_len=args.max_len)
    pair = klein_pair(args.k, budget)
    composite = klein_composite(pair)
    certs = {"relation": pair.relation, "product": pair.product, "composite": composite}
    if args.verify:
        for name, cert in certs.items():
            if not replay(cert):
                print(f"{name} certificate FAILED to replay", file=sys.stderr)
                return EXIT_VERIFY
    if args.output:
        payload = {
            "k": args.k,
            "a": str(pair.a),
            "gprime": str(pair.gprime),
            **{name: cert.to_dict() for name, cert in certs.items()},
        }
        _emit(args, json.dumps(payload, indent=2))
    summary = ", ".join(f"{name} {len(cert.moves)} moves" for name, cert in certs.items())
    print(f"k={args.k}: a = {pair.a}, g' = {pair.gprime}; {summary}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_patch_args(p) -> None:
    p.add_argument("--type", required=True, choices=[t.name for t in TriangleType])
    p.add_argument("--scale", type=int, default=1, help="multiply the minimal lattice")
    p.add_argument("--lattice", help="explicit lattice 'a,b;c,d' (overrides --scale)")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_budget_args(p) -> None:
    p.add_argument("--max-states", type=_positive_int, default=DEFAULT_BUDGET.max_states)
    p.add_argument("--max-len", type=_positive_int, default=DEFAULT_BUDGET.max_len)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="artinflats")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="Garside normal form of a dihedral word.")
    p.add_argument("--presentation", required=True)
    p.add_argument("word")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("girth-sweep", help="Classifier vs oracle over all short alternating words.")
    p.add_argument(
        "-m",
        type=int,
        required=True,
        help="dihedral exponent, 2..8; the sweep computes 2*(2*bound)^m normal forms, "
        f"and (2*bound)^m may not exceed {girth.MAX_SWEEP_HALVES:,}",
    )
    p.add_argument("--exponent-bound", type=int, default=2, help="syllable exponents in 1..bound, bound <= 3")
    p.set_defaults(func=cmd_girth_sweep)

    p = sub.add_parser("polarisations", help="Count admissible polarisations of a patch; --json lists them.")
    _add_patch_args(p)
    p.add_argument("--check-rigidity", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_polarisations)

    p = sub.add_parser("render", help="Render a patch to SVG.")
    _add_patch_args(p)
    p.add_argument("--directions", default="none", help="none | standard | index:N")
    p.add_argument("--polarisation", default="none", help="none | induced | file:PATH")
    p.add_argument("--plain", action="store_true", help="no per-generator colors")
    p.add_argument("--no-arrows", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("prove", help="Search for a rewriting certificate.")
    p.add_argument("--presentation", required=True)
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--trivial", metavar="W")
    what.add_argument("--equal", nargs=2, metavar=("U", "V"))
    what.add_argument("--conjugation", nargs=2, metavar=("G", "X"))
    what.add_argument("--commutator", nargs=2, metavar=("A", "B"))
    _add_budget_args(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("replay", help="Validate a certificate file.")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("families", help="Flat-subgroup generator pairs and their certificates.")
    p.add_argument("--case", required=True, choices=FAMILY_CASES)
    p.add_argument("--exponents", help="star factors 'k;k,l;...' (cases b-f)")
    p.add_argument("--presentation", help="case a only")
    p.add_argument("--left", help="case a only")
    p.add_argument("--right", help="case a only")
    p.add_argument("--verify", action="store_true", help="search and replay the commutator certificate")
    _add_budget_args(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("klein", help="Klein-bottle pair over the all-threes shape.")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    _add_budget_args(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_klein)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`).  Point stdout at devnull
        # so that the flush at interpreter shutdown cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except (UsageError, WordTooLongError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SearchBudgetError, OracleBudgetError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
