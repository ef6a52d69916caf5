"""The acceptance gate: one test per criterion, each printing a single
[PASS]/[FAIL] line (visible with -s / -rA; the -v test line mirrors it).

Every criterion is exhaustive over its stated domain — no sampling.
Frozen counts are regression values from the first full runs; the
sweeps recompute them from scratch each time.
"""

import hashlib
import itertools
from pathlib import Path

import pytest

from artinflats import cli
from artinflats.dihedral import delta_word, identity_ball, is_trivial, normal_form, word_to_string
from artinflats.girth import girth_sweep
from artinflats.polarisation import (
    enumerate_admissible,
    induced,
    is_admissible,
    naive_enumerate_admissible,
    rigidity_witnesses,
)
from artinflats.presentation import ArtinPresentation, Word
from artinflats.prover import replay
from artinflats.subgroups import (
    abelianization_independent,
    family,
    klein_composite,
    klein_pair,
    matches_family,
    read_off_generators,
    verify_abelian,
)
from artinflats.tiling import (
    TriangleType,
    enumerate_consistent_directions,
    minimal_patch,
    scaled_patch,
    validate_directions,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_girth_lemma_equivalence():
    """Syntactic classification == oracle on every short alternating word."""
    expected = {3: (4096, 18), 4: (65536, 24), 5: (1048576, 30)}
    ok = True
    parts = []
    for m, (want_total, want_trivial) in expected.items():
        r = girth_sweep(m, 2)
        ok &= r.total == want_total and r.trivial == want_trivial and r.agree == r.total
        ok &= r.trivial == 2 * m * (2 * 2 - 1)
        parts.append(f"m={m} {r.agree}/{r.total}")
    r = girth_sweep(2, 3)
    ok &= r.total == 1296 and r.trivial == 36 and r.agree == r.total
    parts.append(f"m=2 {r.agree}/{r.total}")
    _report(1, ok, "girth-lemma agreement " + ", ".join(parts))


def test_criterion_2_dihedral_oracle_consistency():
    """Garside normal form vs breadth-first ball on every reduced word
    of <= 6 syllables; Delta^2 central for m in 2..8."""
    caps = {2: 10, 3: 12, 4: 12}
    checked = 0
    ok = True
    for m, cap in caps.items():
        pres = ArtinPresentation(("s", "t"), {("s", "t"): m})
        ball = identity_ball(m, cap)
        words = [Word.parse("")]
        for start in "st":
            for length in range(1, 7):
                gens = [("st" if start == "s" else "ts")[i % 2] for i in range(length)]
                for exps in itertools.product((-2, -1, 1, 2), repeat=length):
                    words.append(
                        Word.from_letters(
                            (g, 1 if e > 0 else -1)
                            for g, e in zip(gens, exps)
                            for _ in range(abs(e))
                        )
                    )
        for w in words:
            garside = is_trivial(pres, w)
            bfs = word_to_string(pres, w) in ball
            if garside != bfs:
                ok = False
                break
        checked += len(words)
    central = True
    for m in range(2, 9):
        pres = ArtinPresentation(("s", "t"), {("s", "t"): m})
        d2 = delta_word(pres) * delta_word(pres)
        for g in ("s1", "t1", "s-1", "t-1"):
            w = Word.parse(g)
            central &= normal_form(pres, d2 * w) == normal_form(pres, w * d2)
    _report(2, ok and central,
            f"two-route agreement on {checked} words, Delta^2 central for m=2..8")


def test_criterion_3_induced_polarisations_admissible():
    counts = {}
    ok = True
    for name in ("E333", "E244", "E236"):
        patch = minimal_patch(TriangleType[name])
        good = [
            d for d in enumerate_consistent_directions(patch)
            if validate_directions(patch, d).ok
        ]
        counts[name] = len(good)
        for d in good:
            ok &= is_admissible(patch, induced(patch, d))
    ok &= counts == {"E333": 18, "E244": 72, "E236": 24}
    _report(3, ok, f"induced admissible for all assignments {counts}")


def test_criterion_4_rigidity_exhaustive():
    """Every admissible polarisation on the 4x4 patches has a witness;
    counts frozen; the brute-force enumerator agrees wherever it is
    feasible (all types at x1, E333 at x2 — beyond that its state space
    is astronomically large)."""
    frozen = {"E333": 45, "E244": 540, "E236": 90}
    ok = True
    for name, want in frozen.items():
        patch = scaled_patch(TriangleType[name], 4)
        adm = enumerate_admissible(patch)
        ok &= len(adm) == want
        ok &= all(rigidity_witnesses(patch, l) for l in adm)
    naive_ok = True
    def canon(ls):
        return sorted(sorted(l.items()) for l in ls)
    for name in ("E333", "E244", "E236"):
        p1 = minimal_patch(TriangleType[name])
        naive_ok &= canon(enumerate_admissible(p1)) == canon(naive_enumerate_admissible(p1))
    p2 = scaled_patch(TriangleType.E333, 2)
    naive_ok &= canon(enumerate_admissible(p2)) == canon(naive_enumerate_admissible(p2))
    _report(4, ok and naive_ok,
            f"x4 counts {frozen} all rigid; naive enumeration agrees at x1 (all) and x2 (E333)")


# sha256 over the to_json() texts, joined by newlines, of criterion 5's
# 324 certificates for cases b-f in the order the criterion proves them
CRITERION_5_SHA256 = "adeeb824076147cf133f2c37687d9e118b91cf1c3dffe09cb2328c12c2d75869"


def test_criterion_5_flat_families_abelian():
    ks = (1, -1, 2, -2)
    proved = degenerate = 0
    ok = True
    texts = []

    def run(case, exps):
        nonlocal proved, degenerate, ok
        try:
            w1, w2 = family(case, exps)
        except ValueError:
            degenerate += 1
            return
        cert = verify_abelian(case, exps)
        ok &= replay(cert) and not cert.end.syllables
        ok &= abelianization_independent(w1, w2, ("s", "t", "r"))
        texts.append(cert.to_json())
        proved += 1

    for case in "bdef":
        for k in ks:
            run(case, [k])
        for pair in itertools.product(ks, ks):
            run(case, list(pair))
    for f1 in itertools.product(ks, ks):
        run("c", [f1])
    for f1 in itertools.product(ks, ks):
        for f2 in itertools.product(ks, ks):
            run("c", [f1, f2])
    bytes_pinned = hashlib.sha256("\n".join(texts).encode()).hexdigest() == CRITERION_5_SHA256
    ok &= bytes_pinned

    four = ArtinPresentation(
        ("s", "t", "u", "v"),
        {("s", "t"): 3, ("u", "v"): 4,
         ("s", "u"): 2, ("s", "v"): 2, ("t", "u"): 2, ("t", "v"): 2},
    )
    def side(a, b):
        return [Word.parse(f"{a}{k}") for k in ks] + [
            Word.parse(f"{a}{k} {b}{l}") for k in ks for l in ks
        ]
    for left in side("s", "t"):
        for right in side("u", "v"):
            cert = verify_abelian("a", presentation=four, left=left, right=right)
            ok &= replay(cert) and not cert.end.syllables
            ok &= abelianization_independent(left, right, four.generators)
            proved += 1

    # 4 cases x (4 + 12 surviving) + f's 20 + c's (16 + 240) + a's 400
    ok &= proved == 3 * 16 + 20 + 256 + 400 and degenerate == 3 * 4 + 16
    _report(5, ok, f"{proved} commutator certificates replayed, "
                   f"{degenerate} degenerate parameter tuples rejected, "
                   f"b-f certificate bytes {'match' if bytes_pinned else 'differ from'} the pin")


def test_criterion_6_klein_bottle_relation():
    ok = True
    for k in (1, 2):
        pair = klein_pair(k)
        ok &= replay(pair.relation) and pair.relation.end == pair.gprime.inverse()
        ok &= replay(pair.product)
        ok &= replay(klein_composite(pair))
    _report(6, ok, "a^-1 g' a = g'^-1 certified and replayed for k=1,2")


def test_criterion_7_geometry_algebra_loop():
    """Read off generator pairs from every consistent assignment on the
    minimal patches; each must template-match its tiling's family case."""
    expected = {
        "E333": {("b",): 18},
        "E244": {("c",): 60, ("d",): 12},
        "E236": {("e",): 6, ("f",): 18},
    }
    cases_for = {"E333": "b", "E244": "cd", "E236": "ef"}
    ok = True
    got = {}
    for name in expected:
        patch = minimal_patch(TriangleType[name])
        hist = {}
        for d in enumerate_consistent_directions(patch):
            if not validate_directions(patch, d).ok:
                continue
            w1, w2 = read_off_generators(patch, d)
            matched = tuple(c for c in cases_for[name] if matches_family(c, w1, w2))
            ok &= len(matched) >= 1
            hist[matched] = hist.get(matched, 0) + 1
        got[name] = hist
        ok &= hist == expected[name]
    _report(7, ok, f"read-off case histograms {got}")


def test_criterion_8_render_determinism(tmp_path):
    renders = {
        "e333_bare.svg": ["--type", "E333"],
        "e333_directions.svg": ["--type", "E333", "--directions", "standard",
                                "--polarisation", "induced"],
        "e244_long_edges.svg": ["--type", "E244", "--directions", "index:4",
                                "--polarisation", "induced"],
        "e236_directions.svg": ["--type", "E236", "--directions", "standard",
                                "--polarisation", "induced"],
        "square_grid.svg": ["--type", "SQUARE", "--scale", "2", "--plain"],
    }
    ok = True
    for name, args in renders.items():
        out = tmp_path / name
        code = cli.main(["render", *args, "-o", str(out)])
        ok &= code == 0 and out.read_bytes() == (GOLDEN / name).read_bytes()
    _report(8, ok, f"{len(renders)} golden SVG renders byte-identical")
