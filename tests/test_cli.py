"""End-to-end checks of the command-line surface and its exit codes.

Exit contract: 0 success, 1 usage, 2 verification failure, 3 budget.
Rendering is covered by byte-comparison against the golden files.
"""

import copy
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import artinflats
from artinflats import cli
from artinflats.cli import build_parser
from artinflats.presentation import ArtinPresentation
from artinflats.prover import DEFAULT_BUDGET, MAX_CERT_LETTERS, V1_MAX_M, Budget, Certificate, ReplayError, replay

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def pres_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("pres")
    m3 = d / "m3.json"
    m3.write_text(ArtinPresentation(("s", "t"), {("s", "t"): 3}).to_json())
    e333 = d / "e333.json"
    e333.write_text(
        ArtinPresentation(
            ("s", "t", "r"), {("s", "t"): 3, ("t", "r"): 3, ("s", "r"): 3}
        ).to_json()
    )
    return {"m3": str(m3), "e333": str(e333)}


def test_normalize(run_cli, pres_files):
    code, out, _ = run_cli("normalize", "--presentation", pres_files["m3"], "s1 t1 s1")
    assert code == 0 and out.strip() == "delta^1"
    code2, out2, _ = run_cli("normalize", "--presentation", pres_files["m3"], "t1 s1 t1")
    assert out2 == out
    code, out, _ = run_cli("normalize", "--presentation", pres_files["m3"], "")
    assert code == 0 and out.strip() == "e"


def test_normalize_errors(run_cli, pres_files):
    code, _, err = run_cli("normalize", "--presentation", pres_files["m3"], "s1 u1")
    assert code == 1 and "word uses generators ['u'] outside the presentation" in err
    code, _, err = run_cli("normalize", "--presentation", pres_files["e333"], "s1 t1")
    assert code == 1
    code, _, err = run_cli("normalize", "--presentation", "/nonexistent.json", "s1")
    assert code == 1


def test_normalize_refuses_a_form_too_long_to_print(run_cli, tmp_path):
    # s^-1 t at m = 10^9 is Delta^-1 times factors of 10^9 letters in all
    pres = tmp_path / "huge.json"
    pres.write_text(ArtinPresentation(("s", "t"), {("s", "t"): 10**9}).to_json())
    t0 = time.perf_counter()
    code, out, err = run_cli("normalize", "--presentation", str(pres), "s-1 t1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == "" and "Traceback" not in err
    assert f"more than {MAX_CERT_LETTERS}" in err


def test_normalize_refuses_a_word_too_long_to_expand(run_cli, pres_files):
    t0 = time.perf_counter()
    code, out, err = run_cli("normalize", "--presentation", pres_files["m3"], "s100000000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == "" and "Traceback" not in err
    assert f"more than {MAX_CERT_LETTERS}" in err


def test_usage_errors(run_cli):
    assert run_cli()[0] == 1
    assert run_cli("bogus")[0] == 1
    assert run_cli("girth-sweep", "-m", "9")[0] == 1
    assert run_cli("girth-sweep", "-m", "7", "--exponent-bound", "3")[0] == 1
    assert run_cli("girth-sweep", "-m", "3", "--exponent-bound", "0")[0] == 1


def test_girth_sweep(run_cli):
    code, out, _ = run_cli("girth-sweep", "-m", "2", "--exponent-bound", "1")
    assert code == 0
    assert "16 words" in out and "16/16" in out and "100.0%" in out
    code, out, _ = run_cli("girth-sweep", "-m", "3", "--exponent-bound", "1")
    assert code == 0 and "64/64" in out
    code, out, _ = run_cli("girth-sweep", "-m", "7", "--exponent-bound", "1")
    assert code == 0 and "16384 words, 14 trivial" in out


def test_polarisations(run_cli):
    code, out, _ = run_cli("polarisations", "--type", "E333", "--check-rigidity")
    assert code == 0
    assert "3 admissible" in out and "all rigid" in out
    code, out, _ = run_cli("polarisations", "--type", "E244", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 8 and data["rigid"] is None
    assert len(data["polarisations"]) == 8
    code, _, err = run_cli("polarisations", "--type", "E333", "--lattice", "1,0;0,1")
    assert code == 1


def test_polarisations_report_the_first_non_rigid_index(run_cli, monkeypatch):
    from artinflats import cli

    calls = []

    def third_fails(patch, l):
        calls.append(l)
        return [] if len(calls) == 3 else ["witness"]

    monkeypatch.setattr(cli, "rigidity_witnesses", third_fails)
    args = ("polarisations", "--type", "E333", "--scale", "2", "--check-rigidity")
    code, out, _ = run_cli(*args)
    assert code == 2 and len(calls) == 9
    assert out.splitlines()[1:] == [
        "rigidity FAILED for 1 polarisation(s)",
        "first non-rigid polarisation: index 2",
    ]
    calls.clear()
    code, out, _ = run_cli(*args, "--json")
    data = json.loads(out)
    assert code == 2 and data["rigid"] is False and data["first_non_rigid"] == 2


@pytest.mark.parametrize("name,scale", [("E333", 1), ("E333", 2), ("E333", 3), ("E244", 2), ("E236", 2)])
def test_polarisations_json_bytes_match_a_round_trip_per_polarisation(run_cli, name, scale):
    # the same bytes as loading polarisation_to_json's text back for
    # each entry, as the listing was once built
    from artinflats.polarisation import iter_admissible, polarisation_to_json
    from artinflats.tiling import TriangleType, scaled_patch

    patch = scaled_patch(TriangleType[name], scale)
    listed = [json.loads(polarisation_to_json(patch, l)) for l in iter_admissible(patch)]
    for rigid in (False, True):
        report = {
            "type": name,
            "lattice": [list(v) for v in patch.lattice],
            "count": len(listed),
            "rigid": True if rigid else None,
            "polarisations": listed,
        }
        flags = ["--check-rigidity"] if rigid else []
        code, out, _ = run_cli("polarisations", "--type", name, "--scale", str(scale), "--json", *flags)
        assert code == 0 and out == json.dumps(report, indent=2) + "\n"


def test_polarisations_on_square_quotients_that_fold_a_cell(run_cli):
    # the unit square meets one vertex twice on these quotients, so no
    # polarisation is admissible
    for lattice in ("1,1;0,3", "1,1;-1,1"):
        code, out, err = run_cli(
            "polarisations", "--type", "SQUARE", "--lattice", lattice, "--check-rigidity"
        )
        assert code == 0 and "Traceback" not in err
        assert f"SQUARE lattice {lattice}: 0 admissible polarisations" in out


RENDER_ARGS = {
    "e333_bare.svg": ["--type", "E333"],
    "e333_directions.svg": ["--type", "E333", "--directions", "standard", "--polarisation", "induced"],
    "e244_long_edges.svg": ["--type", "E244", "--directions", "index:4", "--polarisation", "induced"],
    "e236_directions.svg": ["--type", "E236", "--directions", "standard", "--polarisation", "induced"],
    "square_grid.svg": ["--type", "SQUARE", "--scale", "2", "--plain"],
}


def test_render_matches_goldens(run_cli, tmp_path):
    for name, args in RENDER_ARGS.items():
        out_file = tmp_path / name
        code, _, _ = run_cli("render", *args, "-o", str(out_file))
        assert code == 0
        assert out_file.read_bytes() == (GOLDEN / name).read_bytes(), name


def test_render_without_arrows_drops_only_the_arrow_lines(run_cli, tmp_path):
    out = tmp_path / "no_arrows.svg"
    assert run_cli("render", *RENDER_ARGS["e333_directions.svg"], "--no-arrows", "-o", str(out))[0] == 0
    lines = (GOLDEN / "e333_directions.svg").read_text().splitlines(keepends=True)
    # the 15 arrow lines and the 5-line block that defines their marker
    start, end = lines.index("  <defs>\n"), lines.index("  </defs>\n")
    kept = [line for line in lines[:start] + lines[end + 1 :] if "marker-end" not in line]
    assert len(lines) - len(kept) == 15 + 5
    assert out.read_text() == "".join(kept)


def test_only_renders_with_arrows_define_the_marker(run_cli, tmp_path):
    out = tmp_path / "x.svg"
    for args in (
        ["--type", "E333", "--directions", "none"],
        [*RENDER_ARGS["e333_directions.svg"], "--no-arrows"],
    ):
        assert run_cli("render", *args, "-o", str(out))[0] == 0
        assert "<marker" not in out.read_text()
    assert run_cli("render", *RENDER_ARGS["e333_directions.svg"], "-o", str(out))[0] == 0
    assert out.read_text().count("<marker") == 1


def test_render_is_deterministic(run_cli, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    args = ["render", "--type", "E244", "--directions", "index:4", "--polarisation", "induced"]
    assert run_cli(*args, "-o", str(a))[0] == 0
    assert run_cli(*args, "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_render_errors(run_cli, tmp_path):
    out = str(tmp_path / "x.svg")
    assert run_cli("render", "--type", "SQUARE", "-o", out)[0] == 1  # unit lattice
    assert run_cli("render", "--type", "E333", "--directions", "index:99", "-o", out)[0] == 1
    assert run_cli("render", "--type", "E333", "--polarisation", "induced", "-o", out)[0] == 1


def test_patches_above_the_index_cap_are_refused(run_cli, tmp_path):
    # index 10^10 and 40,000: refused before a vertex is built, so neither
    # runs out of memory nor writes a huge SVG
    svg = tmp_path / "x.svg"
    for argv in (
        ("polarisations", "--type", "SQUARE", "--lattice", "100000,0;0,100000"),
        ("render", "--type", "E244", "--scale", "200", "-o", str(svg)),
    ):
        t0 = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - t0 < 5.0
        assert code == 1 and out == "" and "Traceback" not in err
        assert len(err.splitlines()) == 1 and "MAX_PATCH_INDEX" in err
    assert not svg.exists()


def test_direction_enumeration_above_the_partial_cap_is_refused(run_cli, tmp_path):
    # E333 x5 is under MAX_PATCH_INDEX, but its join would keep 451,114
    # partial assignments; without the cap it exhausts memory
    svg = tmp_path / "x.svg"
    t0 = time.perf_counter()
    code, out, err = run_cli(
        "render", "--type", "E333", "--scale", "5", "--directions", "index:0", "-o", str(svg)
    )
    assert time.perf_counter() - t0 < 5.0
    assert code == 1 and out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and "MAX_PARTIAL_ASSIGNMENTS" in err
    assert not svg.exists()


def test_render_enumerated_directions_on_a_x2_patch(run_cli, tmp_path):
    svg = tmp_path / "e333x2.svg"
    code, _, err = run_cli(
        "render", "--type", "E333", "--scale", "2", "--directions", "index:0",
        "--polarisation", "induced", "-o", str(svg),
    )
    assert code == 0 and "Traceback" not in err
    assert svg.read_text().rstrip().endswith("</svg>")


def test_prove_and_replay_roundtrip(run_cli, pres_files, tmp_path):
    cert_file = tmp_path / "cert.json"
    code, out, _ = run_cli(
        "prove", "--presentation", pres_files["e333"],
        "--commutator", "s1 t1 r1 s1 t1 r1", "t1 s1 t1 r1",
        "-o", str(cert_file),
    )
    assert code == 0
    cert = Certificate.from_json(cert_file.read_text())
    assert replay(cert)
    code, out, _ = run_cli("replay", str(cert_file))
    assert code == 0 and "valid" in out


def test_replay_rejects_tampering(run_cli, pres_files, tmp_path):
    cert_file = tmp_path / "cert.json"
    run_cli("prove", "--presentation", pres_files["m3"],
            "--trivial", "s1 t1 s1 t-1 s-1 t-1", "-o", str(cert_file))
    data = json.loads(cert_file.read_text())
    data["moves"][0]["pos"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run_cli("replay", str(bad))
    assert code == 2 and "FAILED" in err
    # a relator window on an unknown pair, then on a pair with no relation
    data["moves"][0]["pos"] -= 1
    move = next(m for m in data["moves"] if m["kind"] == "relator")
    window = move["from"], move["to"]
    for generators, gen in ((["s", "t"], "x"), (["r", "s", "t"], "r")):
        data["presentation"]["generators"] = generators
        move["from"], move["to"] = (side.replace("t", gen) for side in window)
        bad.write_text(json.dumps(data))
        code, _, err = run_cli("replay", str(bad))
        assert code == 2 and "FAILED" in err and "Traceback" not in err
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert run_cli("replay", str(garbage))[0] == 2
    # JSON nested deeper than the parser's recursion limit
    garbage.write_text("[" * 100_000)
    with pytest.raises(ReplayError):
        Certificate.from_json(garbage.read_text())
    code, out, err = run_cli("replay", str(garbage))
    assert code == 2 and out == "" and "Traceback" not in err
    assert run_cli("replay", str(tmp_path / "missing.json"))[0] == 1
    # bytes that are not UTF-8 text cannot be read, whatever the file holds
    garbage.write_bytes(b"\xff\xfe")
    for argv in (("replay",), ("normalize", "s1", "--presentation")):
        code, out, err = run_cli(*argv, str(garbage))
        assert code == 1 and out == "" and "cannot read" in err


README_COMMUTATOR = ("--commutator", "s1 t1 s1 s1 t1 s1", "t-1 s1 t1")


def test_v1_certificate_replays_and_upgrades_to_the_v2_moves(run_cli, pres_files, tmp_path):
    v1 = GOLDEN / "cert_v1_commutator.json"
    code, out, _ = run_cli("replay", str(v1))
    assert code == 0 and "in 33 moves" in out
    cert_file = tmp_path / "cert.json"
    args = ("prove", "--presentation", pres_files["m3"], *README_COMMUTATOR, "-o", str(cert_file))
    assert run_cli(*args)[0] == 0
    assert json.loads(cert_file.read_text())["version"] == 2
    old, new = (Certificate.from_json(f.read_text()) for f in (v1, cert_file))
    assert old.moves == new.moves and old == new
    # the v1 rule table is built only up to V1_MAX_M
    data = json.loads(v1.read_text())
    data["presentation"]["exponents"][0][2] = V1_MAX_M + 1
    with pytest.raises(ReplayError, match=f"m <= {V1_MAX_M}"):
        Certificate.from_json(json.dumps(data))
    data["presentation"]["exponents"][0][2] = V1_MAX_M
    assert not replay(Certificate.from_json(json.dumps(data)))


def test_replay_of_a_huge_exponent_fails_fast(run_cli, pres_files, tmp_path):
    cert_file = tmp_path / "cert.json"
    run_cli("prove", "--presentation", pres_files["m3"], *README_COMMUTATOR, "-o", str(cert_file))
    bad = tmp_path / "bad.json"
    for source in (cert_file, GOLDEN / "cert_v1_commutator.json"):
        data = json.loads(source.read_text())
        for m in (10_000, 10**9):
            data["presentation"]["exponents"][0][2] = m
            bad.write_text(json.dumps(data))
            t0 = time.perf_counter()
            code, _, err = run_cli("replay", str(bad))
            assert time.perf_counter() - t0 < 1.0
            assert code == 2 and ("FAILED" in err or "does not parse" in err)
            assert "Traceback" not in err


def test_replay_of_a_huge_start_word_fails_fast(run_cli, pres_files, tmp_path):
    cert_file = tmp_path / "cert.json"
    run_cli("prove", "--presentation", pres_files["m3"], *README_COMMUTATOR, "-o", str(cert_file))
    data = json.loads(cert_file.read_text())
    data["moves"] = []
    bad = tmp_path / "bad.json"
    for letters, want in ((MAX_CERT_LETTERS, 0), (MAX_CERT_LETTERS + 1, 2), (10**9, 2)):
        data["start"] = data["end"] = f"s{letters}"
        bad.write_text(json.dumps(data))
        t0 = time.perf_counter()
        code, _, err = run_cli("replay", str(bad))
        assert time.perf_counter() - t0 < 1.0
        assert code == want and "Traceback" not in err
    assert f"more than {MAX_CERT_LETTERS} letters" in err


def test_replay_rejects_generators_outside_the_presentation(run_cli, pres_files, tmp_path):
    pres = json.loads(Path(pres_files["m3"]).read_text())
    bad = tmp_path / "bad.json"
    for start, end in (("x1 s1", "x1 s1"), ("s1", "s1 x2")):
        data = {"version": 2, "presentation": pres, "start": start, "end": end, "moves": []}
        bad.write_text(json.dumps(data))
        with pytest.raises(ReplayError, match="outside the presentation"):
            Certificate.from_json(bad.read_text())
        code, out, err = run_cli("replay", str(bad))
        assert code == 2 and "valid" not in out and "Traceback" not in err


def test_a_foreign_token_is_refused_at_exponent_zero(run_cli, pres_files, tmp_path):
    # g0 reduces away, but its token still names a generator m3 lacks
    for argv in (
        ("normalize", "--presentation", pres_files["m3"], "s1 g0 t1"),
        ("prove", "--presentation", pres_files["m3"], "--trivial", "s0 g0"),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "") and "generators ['g'] outside the presentation" in err, argv
    pres = json.loads(Path(pres_files["m3"]).read_text())
    bad = tmp_path / "g0.json"
    bad.write_text(json.dumps({"version": 2, "presentation": pres, "start": "s1 g0 s-1", "end": "", "moves": []}))
    with pytest.raises(ReplayError, match=r"generators \['g'\] outside the presentation"):
        Certificate.from_json(bad.read_text())
    code, out, err = run_cli("replay", str(bad))
    assert code == 2 and "valid" not in out and "Traceback" not in err


def test_prove_conjugation_and_equal(run_cli, pres_files, tmp_path):
    cert_file = tmp_path / "cert.json"
    # Delta^2 = (s t s)^2 is central, so it conjugates t to t
    code, out, err = run_cli(
        "prove", "--presentation", pres_files["m3"],
        "--conjugation", "s1 t1 s2 t1 s1", "t1", "-o", str(cert_file),
    )
    assert code == 0 and err == "" and out.endswith("-> t1\n")
    cert = Certificate.from_json(cert_file.read_text())
    assert replay(cert) and str(cert.end) == "t1"
    code, out, err = run_cli(
        "prove", "--presentation", pres_files["m3"], "--equal", "s1 t1 s1", "t1 s1 t1"
    )
    assert code == 0 and err == ""
    cert = Certificate.from_json(out)
    assert replay(cert) and (str(cert.start), str(cert.end)) == ("s1 t1 s1", "t1 s1 t1")


def test_bad_words_and_options_are_usage_errors(run_cli, pres_files, tmp_path):
    prove = ("prove", "--presentation", pres_files["m3"])
    out = str(tmp_path / "x.svg")
    for argv in (
        (*prove, "--trivial", "s1 t"),
        (*prove, "--trivial", "s1 t1", "--max-states", "x"),
        ("families", "--case", "b", "--exponents", "1,2,3"),
        ("families", "--case", "b", "--exponents", "x"),
        ("render", "--type", "E333", "--directions", "index:x", "-o", out),
        ("render", "--type", "E333", "--directions", "bogus", "-o", out),
        ("render", "--type", "E333", "--polarisation", "bogus", "-o", out),
    ):
        _assert_usage_error(run_cli(*argv))
    assert not os.path.exists(out)


def test_prove_budget_exit(run_cli, pres_files):
    code, _, err = run_cli(
        "prove", "--presentation", pres_files["m3"],
        "--trivial", "s1 t1 s-1 t-1", "--max-states", "100",
    )
    assert code == 3


def test_prove_exhausts_the_default_budget_on_a_nontrivial_word(run_cli, pres_files):
    # exponent sum 0, so the abelianisation cannot refute it
    word = "s1 t1 r1 s-1 t-1 r-1"
    code, _, err = run_cli("prove", "--presentation", pres_files["e333"], "--trivial", word)
    assert code == 3 and "budget" in err


def test_prove_refutes_a_word_by_its_abelianisation(run_cli, pres_files):
    t0 = time.perf_counter()
    code, out, err = run_cli("prove", "--presentation", pres_files["m3"], "--trivial", "s1 t1")
    assert time.perf_counter() - t0 < 0.05
    assert (code, out) == (3, "") and "not trivial" in err
    assert err == "no certificate: not trivial: exponent sum 2 on the odd-m class of s\n"


def test_prove_equal_refutes_u_v_inverse_only_by_its_abelianisation(run_cli, pres_files, tmp_path):
    m4 = tmp_path / "m4.json"
    m4.write_text(ArtinPresentation(("s", "t"), {("s", "t"): 4}).to_json())
    code, out, err = run_cli("prove", "--presentation", str(m4), "--equal", "s1", "t1")
    assert (code, out) == (3, "")
    assert err == "no certificate: not equal: exponent sum 1 on the odd-m class of s\n"
    # at m = 3, s and t are conjugate: s t^-1 sums to 0, so the search runs
    code, out, err = run_cli(
        "prove", "--presentation", pres_files["m3"], "--equal", "s1", "t1", "--max-states", "100"
    )
    assert (code, out, err) == (3, "", "no certificate within budget\n")


def test_word_check_reads_each_generator_once(tmp_path):
    # names without digits, so that a word can spell every one of them
    letters = "abcdefghijklmnopqrstuvwxyz"
    names = ["".join(letters[i // 26**k % 26] for k in range(4)) for i in range(200_000)]
    pres = ArtinPresentation(names)
    text = " ".join(f"{g}1" for g in names[-400:])
    t0 = time.perf_counter()
    assert cli._parse_word(text, pres).generators_used() == tuple(sorted(names[-400:]))
    assert time.perf_counter() - t0 < 0.05
    with pytest.raises(cli.UsageError, match=r"word uses generators \['zzzzz', 'zzzzzz'\] outside the presentation"):
        cli._parse_word(text + " zzzzz1 zzzzzz1", pres)


def test_oversized_words_are_usage_errors(run_cli, pres_files):
    huge = 20_000_000
    for argv in (
        ("prove", "--presentation", pres_files["m3"], "--trivial", f"s{huge}"),
        ("prove", "--presentation", pres_files["m3"], "--commutator", "s1", f"t{huge}"),
        ("families", "--case", "b", "--exponents", str(huge), "--verify"),
        ("klein", "--k", str(huge)),
    ):
        t0 = time.perf_counter()
        result = run_cli(*argv)
        assert time.perf_counter() - t0 < 1.0, argv
        _assert_usage_error(result)
        assert f"more than {MAX_CERT_LETTERS} letters" in result[2]


def test_budget_args_reject_values_below_one(run_cli, pres_files):
    args = ("prove", "--presentation", pres_files["m3"], "--trivial", "s1 t1 s-1 t-1")
    code, _, err = run_cli(*args, "--max-states", "-5")
    assert code == 1 and "--max-states" in err
    code, _, err = run_cli(*args, "--max-len", "-3")
    assert code == 1 and "--max-len" in err
    assert run_cli("families", "--case", "b", "--exponents", "1", "--max-states", "0")[0] == 1
    parsed = build_parser().parse_args(args)
    assert Budget(parsed.max_states, parsed.max_len) == DEFAULT_BUDGET


def test_families(run_cli, pres_files, tmp_path):
    code, out, _ = run_cli("families", "--case", "b", "--exponents", "1", "--verify")
    assert code == 0
    data = json.loads(out)
    assert data["w1"] == "s1 t1 r1 s1 t1 r1"
    assert data["w2"] == "t1 s1 t1 r1"
    assert data["moves"] == 22
    assert replay(Certificate.from_json(json.dumps(data["certificate"])))
    # degenerate parameters are a usage error
    assert run_cli("families", "--case", "b", "--exponents", "1;-1")[0] == 1
    assert run_cli("families", "--case", "c", "--exponents", "0,1")[0] == 1
    assert run_cli("families", "--case", "b")[0] == 1
    # options the case does not take are refused, not ignored
    assert run_cli("families", "--case", "b", "--exponents", "1", "--presentation", pres_files["m3"])[0] == 1
    assert run_cli("families", "--case", "b", "--exponents", "1", "--left", "s1")[0] == 1
    m2 = tmp_path / "m2.json"
    m2.write_text(ArtinPresentation(("s", "t"), {("s", "t"): 2}).to_json())
    split = ("families", "--case", "a", "--presentation", str(m2), "--left", "s1", "--right", "t2")
    code, out, _ = run_cli(*split)
    assert code == 0 and json.loads(out) == {"case": "a", "w1": "s1", "w2": "t2"}
    assert run_cli(*split, "--exponents", "1")[0] == 1
    assert run_cli("families", "--case", "a", "--presentation", str(m2), "--left", "s1")[0] == 1


def test_families_refuses_an_empty_option_as_it_would_any_value(run_cli, tmp_path):
    four = tmp_path / "four.json"
    four.write_text(
        ArtinPresentation(
            ("s", "t", "u", "v"),
            {("s", "t"): 3, ("u", "v"): 4, ("s", "u"): 2, ("s", "v"): 2, ("t", "u"): 2, ("t", "v"): 2},
        ).to_json()
    )
    for argv, says in (
        (("--case", "b", "--exponents", "1", "--left", ""), "parametrised by exponents only"),
        (("--case", "b", "--exponents", "1", "--presentation", ""), "cannot read presentation file"),
        # the empty word is read and given, so the pair is degenerate
        (("--case", "a", "--presentation", str(four), "--left", "", "--right", "u1"), "degenerate"),
    ):
        result = run_cli("families", *argv)
        _assert_usage_error(result)
        assert says in result[2], argv


def test_families_budget_exit(run_cli):
    code, _, err = run_cli(
        "families", "--case", "e", "--exponents", "2;2", "--verify", "--max-states", "60"
    )
    assert code == 3 and "budget" in err


def test_klein(run_cli, tmp_path):
    out_file = tmp_path / "klein.json"
    code, out, _ = run_cli("klein", "--k", "1", "--verify", "-o", str(out_file))
    assert code == 0
    assert "relation 11 moves" in out and "composite 23 moves" in out
    data = json.loads(out_file.read_text())
    assert data["gprime"] == "t1 s1 r-1 s-1"
    for name in ("relation", "product", "composite"):
        assert replay(Certificate.from_json(json.dumps(data[name])))
    assert run_cli("klein", "--k", "0")[0] == 1


def test_klein_without_output_serialises_nothing(run_cli, monkeypatch):
    expected = run_cli("klein", "--k", "2")

    def refuse(self):
        raise AssertionError("klein without -o serialised a certificate")

    monkeypatch.setattr(Certificate, "to_dict", refuse)
    code, out, err = run_cli("klein", "--k", "2")
    assert (code, out, err) == expected
    assert code == 0 and out.startswith("k=2: ") and "composite 61 moves" in out


def _assert_usage_error(result):
    code, _, err = result
    assert code == 1 and err.startswith("error:") and "Traceback" not in err, err


def test_bad_presentation_files_are_usage_errors(run_cli, tmp_path):
    bad = tmp_path / "bad.json"
    for data in (
        [1, 2],
        {"generators": [1, 2]},
        {"generators": "st", "exponents": [["s", "t", 3]]},
        {"generators": ["s", "t"], "exponents": [["s", "t"]]},
        {"generators": ["s", "t"], "exponents": {"s": 3}},
        {"generators": ["s", "t"], "exponents": [["s", "t", 3.5]]},
        {"generators": ["s", "t"], "exponents": [["s", "t", "3"]]},
        {"generators": ["s", "t"], "exponents": [["s", "t", 3], ["s", "t", 4]]},
        {"generators": ["s", "t"], "exponents": [["s", "t", 3], ["t", "s", 4]]},
    ):
        bad.write_text(json.dumps(data))
        _assert_usage_error(run_cli("normalize", "--presentation", str(bad), "s1"))
    bad.write_text("[" * 100_000)  # too deep for the JSON decoder
    _assert_usage_error(run_cli("normalize", "--presentation", str(bad), "s1"))


def test_bad_polarisation_files_are_usage_errors(run_cli, tmp_path):
    from artinflats.polarisation import induced, polarisation_to_json
    from artinflats.tiling import TriangleType, minimal_patch, standard_directions

    patch = minimal_patch(TriangleType.E333)
    good = json.loads(polarisation_to_json(patch, induced(patch, standard_directions(patch))))
    last = str(len(patch.cells) - 1)
    bad = tmp_path / "pol.json"
    args = ("render", "--type", "E333", "-o", str(tmp_path / "x.svg"))
    bad.write_text(json.dumps(good))
    assert run_cli(*args, "--polarisation", f"file:{bad}")[0] == 0
    for data in (
        [1],
        {"0": 5},
        {"0": [0]},
        {"0": [0, "1"]},
        {"-1": good[last]},
        {str(len(patch.cells)): good[last]},
        {"x": good["0"]},
        {**good, "00": good["0"]},  # cell 0 named twice
        {("\u0660" if key == "0" else key): pair for key, pair in good.items()},  # Arabic-Indic zero
    ):
        bad.write_text(json.dumps(data))
        _assert_usage_error(run_cli(*args, "--polarisation", f"file:{bad}"))
    bad.write_text("[" * 100_000)  # too deep for the JSON decoder
    _assert_usage_error(run_cli(*args, "--polarisation", f"file:{bad}"))


def test_bad_patch_arguments_are_usage_errors(run_cli, tmp_path):
    svg = tmp_path / "x.svg"
    for command in (("polarisations",), ("render", "-o", str(svg))):
        for patch_args in (
            ("--type", "E999"),
            ("--type", "E333", "--scale", "0"),
            ("--type", "E333", "--scale", "-3"),
            ("--type", "E333", "--lattice", "1,2,3;4,5"),
            ("--type", "E333", "--lattice", "a,b;c,d"),
        ):
            result = run_cli(*command, *patch_args)
            _assert_usage_error(result)
            assert result[1] == "" and len(result[2].splitlines()) == 1, (command, patch_args)
    assert not svg.exists()


def test_searches_refuse_a_rule_table_too_long_to_build(run_cli, tmp_path):
    # at m = 20,000 the rule table of (s, t) would spell 16 m^2 letters
    pres = tmp_path / "big.json"
    pres.write_text(
        ArtinPresentation(("s", "t", "u"), {("s", "t"): 20_000, ("s", "u"): 2}).to_json()
    )
    for args in (
        ("prove", "--presentation", str(pres), "--trivial", "s1 t1"),
        ("families", "--case", "a", "--presentation", str(pres), "--left", "s1", "--right", "u1", "--verify"),
    ):
        t0 = time.perf_counter()
        result = run_cli(*args)
        assert time.perf_counter() - t0 < 1.0
        _assert_usage_error(result)
        assert f"more than {MAX_CERT_LETTERS}" in result[2]


def test_case_a_refuses_a_certificate_over_the_move_cap(run_cli, tmp_path):
    # s1000 vs u1000 would take 1000 x 1000 swaps and 2000 cancels
    pres = tmp_path / "four.json"
    pres.write_text(
        ArtinPresentation(
            ("s", "t", "u", "v"),
            {("s", "t"): 3, ("u", "v"): 4, ("s", "u"): 2, ("s", "v"): 2, ("t", "u"): 2, ("t", "v"): 2},
        ).to_json()
    )
    t0 = time.perf_counter()
    result = run_cli(
        "families", "--case", "a", "--presentation", str(pres), "--left", "s1000", "--right", "u1000", "--verify"
    )
    assert time.perf_counter() - t0 < 1.0
    _assert_usage_error(result)
    assert f"more than {MAX_CERT_LETTERS} moves" in result[2]


def test_unwritable_output_is_a_usage_error(run_cli, pres_files, tmp_path):
    out = str(tmp_path / "missing" / "out")
    for args in (
        ("render", "--type", "E333"),
        ("prove", "--presentation", pres_files["m3"], "--trivial", "s1 s-1"),
        ("families", "--case", "b", "--exponents", "1"),
        ("klein", "--k", "1"),
    ):
        _assert_usage_error(run_cli(*args, "-o", out))


def test_closed_stdout_is_a_usage_error_not_a_traceback():
    # `artinflats ... | head` closes the pipe before the output ends; the
    # read end is closed before the child writes, so the write always fails
    src = str(Path(artinflats.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "artinflats.cli", "polarisations", "--type", "E244", "--scale", "2", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


# ---------------------------------------------------------------------------
# seeded field mutations of every JSON input
# ---------------------------------------------------------------------------

# Values a mutant puts in place of a field.  10**9 as an exponent must end
# as quickly as a small one: `normalize` pushes each inverse letter in time
# independent of m.
FUZZ_VALUES = (
    None, True, False, 0, 1, -1, 2, 3, 7, 0.7, -2.5, 10_000, 10**9, "", "0", "1", "s1", "x",
    "s1 t1 s1", "t-1 s1", "s", [], {}, [1], ["s", 1], ["s", "t", 3], [0, 1], {"s": 1},
)


def _paths(doc, prefix=()):
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


def _mutate(doc, rng):
    """`doc` with one field replaced, deleted or nudged."""
    path = rng.choice(list(_paths(doc)))
    if not path:
        return rng.choice(FUZZ_VALUES)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    op = rng.randrange(3)
    if op == 0:
        parent[key] = rng.choice(FUZZ_VALUES)
    elif op == 1:
        del parent[key]
    elif isinstance(value, bool) or not isinstance(value, (int, str)):
        parent[key] = copy.deepcopy(rng.choice(list(parent.values()) if isinstance(parent, dict) else parent))
    elif isinstance(value, int):
        parent[key] = value + rng.choice((-1, 1, -value, -2 * value))
    else:
        parent[key] = rng.choice((value[:-1], value + value, value.swapcase(), value.replace("1", "-1")))
    return doc


def test_seeded_field_mutations_end_cleanly(run_cli, pres_files, tmp_path):
    from artinflats.polarisation import induced, polarisation_to_json
    from artinflats.tiling import TriangleType, minimal_patch, standard_directions

    cert_file = tmp_path / "cert.json"
    run_cli("prove", "--presentation", pres_files["m3"], *README_COMMUTATOR, "-o", str(cert_file))
    patch = minimal_patch(TriangleType.E333)
    bad = str(tmp_path / "mutant.json")
    targets = {
        "certificate": (json.loads(cert_file.read_text()), ("replay", bad)),
        "presentation": (
            json.loads(Path(pres_files["m3"]).read_text()),
            ("normalize", "--presentation", bad, "s1 t-1 s1 t1"),
        ),
        "polarisation": (
            json.loads(polarisation_to_json(patch, induced(patch, standard_directions(patch)))),
            ("render", "--type", "E333", "--polarisation", f"file:{bad}", "-o", str(tmp_path / "x.svg")),
        ),
    }
    rng = random.Random(2020)
    for name, (doc, args) in targets.items():
        for _ in range(150):
            mutant = _mutate(doc, rng)
            Path(bad).write_text(json.dumps(mutant))
            t0 = time.perf_counter()
            code, _, err = run_cli(*args)
            assert time.perf_counter() - t0 < 5.0, (name, mutant)
            assert code in (0, 1, 2) and "Traceback" not in err, (name, mutant, err)
    # named certificate mutants that must fail verification
    cert = targets["certificate"][0]
    first_move = cert["moves"][0]
    for path, value in (
        (("version",), True),
        (("moves", 0, "pos"), first_move["pos"] + 0.5),
        (("presentation", "exponents", 0, 2), 10_000),
        (("presentation", "exponents", 0, 2), 10**9),
    ):
        mutant = copy.deepcopy(cert)
        target = mutant
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        Path(bad).write_text(json.dumps(mutant))
        code, _, err = run_cli("replay", bad)
        assert code == 2 and "Traceback" not in err, (path, value)
