"""Seeded inputs, ops and verdict checks for the benchmark workloads.

``build(name, seed, workdir)`` is the set-up step of a pass: it
generates the workload's inputs from the seed (argument lists, words,
presentation files written to ``workdir``) and returns the ops.  It
calls no program code that the timed phase measures.

An ``Op`` is one call through the surface a user has: ``cli.main`` in
process where a subcommand exists, the public library function where
none does.  An op with ``items`` is a batch of small ops (one per word
or per assignment) that are timed and checked one by one but traced as
one span.  Ops call the program through module attributes
(``dihedral.identity_ball``), never through names bound at import, so
the tracer's wrappers see every call.

Each op's ``check`` is the verdict gate: it runs after the timed phase
and returns ``(failure message or None, certificate moves emitted)``.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from artinflats import cli, dihedral, polarisation, prover, subgroups, tiling
from artinflats.presentation import ArtinPresentation, Word

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable
    items: list | None = None
    units: int = 1  # latency is reported per unit (per word on girth_sweep)


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _exit(result, want: int) -> str | None:
    if result[0] != want:
        return f"exit {result[0]} (want {want}): {result[2].strip()[:200]}"
    return None


def _replayed(cert_json: str, end: Word | None) -> tuple[str | None, int]:
    """Parse and replay an emitted certificate; ``end`` is the word it
    must end at (None: the empty word)."""
    cert = prover.Certificate.from_json(cert_json)
    if not prover.replay(cert):
        return "certificate does not replay", 0
    want = end if end is not None else Word()
    if cert.end != want:
        return f"certificate ends at {cert.end}, want {want}", 0
    return None, len(cert.moves)


def _inverse_text(text: str) -> str:
    return str(Word.parse(text).inverse())


# ---------------------------------------------------------------------------
# girth_sweep
# ---------------------------------------------------------------------------

# (m, exponent bound) -> (words, trivial words), frozen from the first runs.
GIRTH_COUNTS = {
    (2, 3): (1296, 36),
    (3, 2): (4096, 18),
    (4, 2): (65536, 24),
    (5, 1): (1024, 10),
    (6, 1): (4096, 12),
}


def _check_girth(m: int, bound: int, result) -> tuple[str | None, int]:
    err = _exit(result, 0)
    if err:
        return err, 0
    words = re.search(r"(\d+) words, (\d+) trivial", result[1])
    agree = re.search(r"agreement (\d+)/(\d+)", result[1])
    if not words or not agree:
        return f"unreadable output {result[1]!r}", 0
    got = (int(words[1]), int(words[2]))
    if got != GIRTH_COUNTS[(m, bound)]:
        return f"m={m} bound={bound}: {got}, want {GIRTH_COUNTS[(m, bound)]}", 0
    if agree[1] != agree[2] or int(agree[2]) != got[0]:
        return f"m={m} bound={bound}: agreement {agree[1]}/{agree[2]}", 0
    return None, 0


def _girth(seed: int, workdir: Path) -> list[Op]:
    pairs = list(GIRTH_COUNTS)
    random.Random(seed).shuffle(pairs)
    ops = []
    for m, bound in pairs:
        argv = ["girth-sweep", "-m", str(m), "--exponent-bound", str(bound)]
        ops.append(Op(
            " ".join(argv),
            lambda argv=argv: cli_call(argv),
            lambda r, m=m, bound=bound: _check_girth(m, bound, r),
            units=GIRTH_COUNTS[(m, bound)][0],
        ))
    return ops


# ---------------------------------------------------------------------------
# oracle_crosscheck
# ---------------------------------------------------------------------------

# m -> (identity-ball length cap, frozen ball size)
BALLS = {2: (10, 68845), 3: (12, 319425), 4: (12, 229197)}


def criterion2_words(m: int) -> list[Word]:
    """Every syllable-reduced alternating word of 1..6 syllables with
    exponents in {+-1, +-2}, plus the empty word (10,921 words)."""
    words = [Word()]
    for start in "st":
        for length in range(1, 7):
            gens = [("st" if start == "s" else "ts")[i % 2] for i in range(length)]
            for exps in itertools.product((-2, -1, 1, 2), repeat=length):
                words.append(
                    Word.from_letters(
                        (g, 1 if e > 0 else -1) for g, e in zip(gens, exps) for _ in range(abs(e))
                    )
                )
    return words


def relator_rotations(m: int) -> list[Word]:
    """Cyclic rotations of the braid relator (ab...)(ba...)^-1 and of its
    inverse: trivial words built without the program's normal form."""
    a = [("s" if i % 2 == 0 else "t", 1) for i in range(m)]
    b = [("t" if i % 2 == 0 else "s", 1) for i in range(m)]
    rel = a + [(g, -e) for g, e in reversed(b)]
    out = []
    for base in (rel, [(g, -e) for g, e in reversed(rel)]):
        for r in range(len(base)):
            out.append(Word.from_letters(base[r:] + base[:r]))
    return out


def _bfs_draw(m: int, words: list[Word], rng: random.Random) -> list[Word]:
    # Strata by letter length keep the draw's cost nearly seed-independent:
    # nontrivial words exhaust the closure at |w|+2, which stays small up
    # to 6 letters for m = 2 and 8 letters otherwise.
    longest = 6 if m == 2 else 8
    by_len: dict[int, list[Word]] = {}
    for w in words:
        n = w.letter_length()
        if 1 <= n <= longest:
            by_len.setdefault(n, []).append(w)
    draw = []
    for n in (2, 4, longest - 1, longest):
        draw.extend(rng.sample(by_len[n], 2))
    draw.extend(rng.sample(relator_rotations(m), 2))
    return draw


def _check_word(pres, w, r) -> tuple[str | None, int]:
    garside, member, inverse_ok = r
    if garside != member:
        return f"m={pres.m('s', 't')} {w}: normal form says {garside}, identity ball {member}", 0
    if not inverse_ok:
        return f"m={pres.m('s', 't')} {w}: nf * invert(nf) is not the identity", 0
    return None, 0


def _oracle_block(m: int, words: list[Word], bfs: list[Word]) -> Iterator[Op]:
    cap, size = BALLS[m]
    pres = ArtinPresentation(("s", "t"), {("s", "t"): m})
    state = {}

    def ball():
        state["ball"] = dihedral.identity_ball(m, cap)
        return len(state["ball"])

    yield Op(
        f"identity_ball({m}, {cap})",
        ball,
        lambda n: (None if n == size else f"ball size {n}, want {size}", 0),
    )

    def word(w):
        nf = dihedral.normal_form(pres, w)
        return (
            dihedral.is_trivial(pres, w),
            dihedral.word_to_string(pres, w) in state["ball"],
            dihedral.multiply(nf, dihedral.invert(nf)).is_identity,
        )

    yield Op(f"m={m} word checks", word, lambda w, r: _check_word(pres, w, r), items=words)
    state.clear()

    def bfs_op(w):
        return dihedral.bfs_oracle_is_trivial(pres, w, max_len=w.letter_length() + 2)

    def bfs_check(w, r):
        want = dihedral.is_trivial(pres, w)
        return (None if r == want else f"m={m} {w}: BFS says {r}, normal form {want}"), 0

    yield Op(f"m={m} bfs_oracle_is_trivial", bfs_op, bfs_check, items=bfs)


def _delta_central(m: int) -> bool:
    pres = ArtinPresentation(("s", "t"), {("s", "t"): m})
    d2 = dihedral.delta_word(pres) * dihedral.delta_word(pres)
    return all(
        dihedral.normal_form(pres, d2 * Word.parse(g)) == dihedral.normal_form(pres, Word.parse(g) * d2)
        for g in ("s1", "t1", "s-1", "t-1")
    )


def _oracle(seed: int, workdir: Path) -> Iterator[Op]:
    rng = random.Random(seed)
    blocks = []
    for m in BALLS:
        words = criterion2_words(m)
        bfs = _bfs_draw(m, words, rng)
        rng.shuffle(words)
        blocks.append((m, words, bfs))
    return _oracle_ops(blocks)


def _oracle_ops(blocks) -> Iterator[Op]:
    for m, words, bfs in blocks:
        yield from _oracle_block(m, words, bfs)
    for m in range(2, 9):
        yield Op(
            f"Delta^2 central m={m}",
            lambda m=m: _delta_central(m),
            lambda ok, m=m: (None if ok else f"Delta^2 not central for m={m}", 0),
        )


# ---------------------------------------------------------------------------
# flat_certificates
# ---------------------------------------------------------------------------

KS = (1, -1, 2, -2)
FOUR_GENERATORS = {
    "generators": ["s", "t", "u", "v"],
    "exponents": [["s", "t", 3], ["u", "v", 4], ["s", "u", 2], ["s", "v", 2], ["t", "u", 2], ["t", "v", 2]],
}
M3 = {"generators": ["s", "t"], "exponents": [["s", "t", 3]]}
DELTA_SQUARED = "s1 t1 s1 s1 t1 s1"  # central in the m = 3 group
# case -> (single-factor, two-factor, degenerate) instances drawn.  The
# single-factor strata of b, d, e and f are taken whole and fewer of the
# costly two-factor instances are drawn, so that the draw's total cost
# and latency quantiles barely depend on the seed.
STRATA = {"b": (4, 1, 1), "c": (4, 2, 1), "d": (4, 2, 1), "e": (4, 1, 1), "f": (4, 2, 0)}


def _family_grid(case: str) -> tuple[list, list]:
    """Criterion 5's grid as --exponents values: one or two factors, each
    a single-bullet exponent (b, d, e, f) or a (k, l) pair (c)."""
    if case == "c":
        factors = [f"{k},{l}" for k in KS for l in KS]
    else:
        factors = [str(k) for k in KS]
    return factors, [f"{a};{b}" for a in factors for b in factors]


def _degenerate(case: str, exponents: str) -> bool:
    """Frozen rule: the 28 degenerate tuples of criterion 5 are exactly
    the two-factor ones of cases b-e whose second factor negates the
    first (their exponent-sum vectors are dependent)."""
    parts = exponents.split(";")
    if case == "f" or len(parts) != 2:
        return False
    first = [int(x) for x in parts[0].split(",")]
    second = [int(x) for x in parts[1].split(",")]
    return second == [-x for x in first]


def _check_family(result) -> tuple[str | None, int]:
    err = _exit(result, 0)
    if err:
        return err, 0
    payload = json.loads(result[1])
    err, moves = _replayed(json.dumps(payload["certificate"]), None)
    if err is None and payload["moves"] != moves:
        err = f"reported {payload['moves']} moves, certificate has {moves}"
    return err, moves


def _check_klein(k: int, path: Path, result) -> tuple[str | None, int]:
    err = _exit(result, 0)
    if err:
        return err, 0
    payload = json.loads(path.read_text())
    gprime = Word.parse(payload["gprime"])
    glide = Word.parse(f"t{k} s1 t1 r1 t{-k} s1 t1 r1")
    total = 0
    for name, end in (("relation", gprime.inverse()), ("product", glide), ("composite", gprime)):
        err, moves = _replayed(json.dumps(payload[name]), end)
        if err:
            return f"{name}: {err}", 0
        total += moves
    return None, total


def _check_proved(path: Path, end: str, result) -> tuple[str | None, int]:
    err = _exit(result, 0)
    if err:
        return err, 0
    return _replayed(path.read_text(), Word.parse(end))


def _flat(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    four, m3 = workdir / "four.json", workdir / "m3.json"
    four.write_text(json.dumps(FOUR_GENERATORS))
    m3.write_text(json.dumps(M3))
    blocks: list[list[Op]] = []

    degenerate = 0
    for case, (n_single, n_pair, n_degenerate) in STRATA.items():
        singles, pairs = _family_grid(case)
        bad = [p for p in pairs if _degenerate(case, p)]
        good = [p for p in pairs if p not in bad]
        degenerate += len(bad)
        draw = rng.sample(singles, n_single) + rng.sample(good, n_pair) + rng.sample(bad, n_degenerate)
        for exps in draw:
            argv = ["families", "--case", case, f"--exponents={exps}", "--verify"]
            check = (lambda r: (_exit(r, 1), 0)) if exps in bad else _check_family
            blocks.append([Op(" ".join(argv), lambda argv=argv: cli_call(argv), check)])
    if degenerate != 28:
        raise AssertionError(f"criterion 5 grid has {degenerate} degenerate tuples, want 28")

    lefts = [f"s{k}" for k in KS], [f"s{k} t{l}" for k in KS for l in KS]
    rights = [f"u{k}" for k in KS], [f"u{k} v{l}" for k in KS for l in KS]
    for li, ri in ((0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1)):
        argv = ["families", "--case", "a", "--presentation", str(four),
                "--left", rng.choice(lefts[li]), "--right", rng.choice(rights[ri]), "--verify"]
        blocks.append([Op(" ".join(argv[:3] + argv[5:]), lambda argv=argv: cli_call(argv), _check_family)])

    for k in KS:
        path = workdir / f"klein{k}.json"
        argv = ["klein", f"--k={k}", "--verify", "-o", str(path)]
        blocks.append([Op(f"klein --k {k}", lambda argv=argv: cli_call(argv),
                          lambda r, k=k, path=path: _check_klein(k, path, r))])

    pool = [f"{a}{x} {b}{y}" for a, b in (("s", "t"), ("t", "s")) for x in KS for y in KS]
    x1, x2, x3, x4 = rng.sample(pool, 4)
    proofs = (
        ("commutator", [DELTA_SQUARED, x1], ""),
        ("conjugation", [x4, DELTA_SQUARED], DELTA_SQUARED),
        ("equal", [f"{x2} s1 t1 s1 {_inverse_text(x2)}", f"{x2} t1 s1 t1 {_inverse_text(x2)}"],
         f"{x2} t1 s1 t1 {_inverse_text(x2)}"),
        ("trivial", [f"{x3} s1 t1 s1 t-1 s-1 t-1 {_inverse_text(x3)}"], ""),
    )
    for kind, words, end in proofs:
        path = workdir / f"{kind}.json"
        argv = ["prove", "--presentation", str(m3), f"--{kind}", *words, "-o", str(path)]
        blocks.append([
            Op(f"prove --{kind}", lambda argv=argv: cli_call(argv),
               lambda r, path=path, end=end: _check_proved(path, end, r)),
            Op(f"replay {kind}", lambda path=path: cli_call(["replay", str(path)]),
               lambda r: (_exit(r, 0) or (None if r[1].startswith("valid:") else "no 'valid:' line"), 0)),
        ])
    argv = ["prove", "--presentation", str(m3), "--trivial", "s1 t1"]
    blocks.append([Op("prove --trivial s1 t1 (budget)", lambda: cli_call(argv), lambda r: (_exit(r, 3), 0))])

    rng.shuffle(blocks)
    return [op for block in blocks for op in block]


# ---------------------------------------------------------------------------
# tiling_pipeline
# ---------------------------------------------------------------------------

CASES_FOR = {"E333": "b", "E244": "cd", "E236": "ef"}
# type -> (assignments enumerated, consistent ones, read-off histogram,
#          admissible polarisations at x1 by brute force)
PIPELINE = {
    "E333": (18, 18, {("b",): 18}, 3),
    "E244": (72, 72, {("c",): 60, ("d",): 12}, 8),
    "E236": (36, 24, {("e",): 6, ("f",): 18}, 6),
}
# type -> admissible polarisations at scales 1..5 (rigidity checked at 1..4)
POLARISATIONS = {
    "E333": (3, 9, 21, 45, 93),
    "E244": (8, 36, 140, 540, 2108),
    "E236": (6, 18, 42, 90, 186),
}
RENDERS = {
    "e333_bare.svg": ["--type", "E333"],
    "e333_directions.svg": ["--type", "E333", "--directions", "standard", "--polarisation", "induced"],
    "e244_long_edges.svg": ["--type", "E244", "--directions", "index:4", "--polarisation", "induced"],
    "e236_directions.svg": ["--type", "E236", "--directions", "standard", "--polarisation", "induced"],
    "square_grid.svg": ["--type", "SQUARE", "--scale", "2", "--plain"],
}


def _canon(ls) -> list:
    return sorted(sorted(l.items()) for l in ls)


def _pipeline(name: str, rng: random.Random) -> Iterator[Op]:
    n_enum, n_ok, hist_want, n_naive = PIPELINE[name]
    state: dict = {}
    hist: dict = {}

    def patch():
        state["patch"] = tiling.minimal_patch(tiling.TriangleType[name])
        return len(state["patch"].cells)

    yield Op(f"{name} minimal_patch", patch, lambda r: (None, 0))

    def directions():
        state["directions"] = tiling.enumerate_consistent_directions(state["patch"])
        return len(state["directions"])

    def directions_check(n):
        ok = sum(hist.values())
        if (n, ok, hist) != (n_enum, n_ok, hist_want):
            return f"{name}: {n} assignments, {ok} consistent, histogram {hist}", 0
        return None, 0

    yield Op(f"{name} enumerate_consistent_directions", directions, directions_check)

    def assignment(i):
        p, d = state["patch"], state["directions"][i]
        if not tiling.validate_directions(p, d).ok:
            return None
        admissible = polarisation.is_admissible(p, polarisation.induced(p, d))
        w1, w2 = subgroups.read_off_generators(p, d)
        matched = tuple(c for c in CASES_FOR[name] if subgroups.matches_family(c, w1, w2))
        hist[matched] = hist.get(matched, 0) + 1
        return admissible, matched

    def assignment_check(i, r):
        if r is not None and not (r[0] and r[1]):
            return f"{name}: admissible={r[0]}, matched cases {r[1]}", 0
        return None, 0

    # Items are indices, so the assignments are freed with the block's
    # state and the pass's peak memory does not depend on the op order.
    items = list(range(len(state["directions"])))
    rng.shuffle(items)
    yield Op(f"{name} assignment pipeline", assignment, assignment_check, items=items)

    def naive():
        p = state["patch"]
        exact = polarisation.enumerate_admissible(p)
        brute = polarisation.naive_enumerate_admissible(p)
        return _canon(exact) == _canon(brute), len(brute)

    yield Op(f"{name} naive_enumerate_admissible", naive,
             lambda r: (None if r == (True, n_naive) else f"{name}: naive cross-check {r}", 0))
    state.clear()


def _check_polarisations(count: int, rigid: bool, result) -> tuple[str | None, int]:
    err = _exit(result, 0)
    if err:
        return err, 0
    if f": {count} admissible polarisations" not in result[1]:
        return f"want {count} admissible polarisations, got {result[1].strip()!r}", 0
    if rigid and f"all rigid ({count} witnesses)" not in result[1]:
        return f"want all rigid ({count} witnesses), got {result[1].strip()!r}", 0
    return None, 0


def _check_render(path: Path, golden: Path, result) -> tuple[str | None, int]:
    err = _exit(result, 0)
    if err:
        return err, 0
    if path.read_bytes() != golden.read_bytes():
        return f"{path.name} differs from the golden render", 0
    return None, 0


def _tiling(seed: int, workdir: Path) -> Iterator[Op]:
    # The pipelines and polarisation calls run in a fixed order: the order
    # of the large ops changes the allocator's fragmentation, and with it
    # the peak RSS by about 10%.  The seed orders the assignments within
    # each pipeline and the renders.
    rng = random.Random(seed)
    calls = []
    for name, counts in POLARISATIONS.items():
        for scale, count in enumerate(counts, start=1):
            rigid = scale <= 4
            argv = ["polarisations", "--type", name, "--scale", str(scale)]
            argv += ["--check-rigidity"] if rigid else []
            calls.append(Op(" ".join(argv), lambda argv=argv: cli_call(argv),
                            lambda r, c=count, rigid=rigid: _check_polarisations(c, rigid, r)))
    renders = []
    for svg, args in RENDERS.items():
        path = workdir / svg
        argv = ["render", *args, "-o", str(path)]
        renders.append(Op(f"render {svg}", lambda argv=argv: cli_call(argv),
                          lambda r, path=path, g=GOLDEN / svg: _check_render(path, g, r)))
    rng.shuffle(renders)
    return itertools.chain(*(_pipeline(name, rng) for name in PIPELINE), calls, renders)


BUILDERS = {
    "girth_sweep": _girth,
    "oracle_crosscheck": _oracle,
    "flat_certificates": _flat,
    "tiling_pipeline": _tiling,
}


def build(name: str, seed: int, workdir: Path) -> Iterator[Op]:
    return BUILDERS[name](seed, workdir)
