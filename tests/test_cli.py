"""End-to-end checks of the command-line surface and its exit codes.

Exit contract: 0 success, 1 usage, 2 verification failure, 3 budget.
Rendering is covered by byte-comparison against the golden files.
"""

import json
from pathlib import Path

import pytest

from artinflats.presentation import ArtinPresentation
from artinflats.prover import Certificate, replay

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
    assert code == 1 and "unknown generator" in err
    code, _, err = run_cli("normalize", "--presentation", pres_files["e333"], "s1 t1")
    assert code == 1
    code, _, err = run_cli("normalize", "--presentation", "/nonexistent.json", "s1")
    assert code == 1


def test_usage_errors(run_cli):
    assert run_cli()[0] == 1
    assert run_cli("bogus")[0] == 1
    assert run_cli("girth-sweep", "-m", "9")[0] == 1
    assert run_cli("girth-sweep", "-m", "3", "--exponent-bound", "0")[0] == 1


def test_girth_sweep(run_cli):
    code, out, _ = run_cli("girth-sweep", "-m", "2", "--exponent-bound", "1")
    assert code == 0
    assert "16 words" in out and "16/16" in out and "100.0%" in out
    code, out, _ = run_cli("girth-sweep", "-m", "3", "--exponent-bound", "1")
    assert code == 0 and "64/64" in out


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
    # a relator move on an unknown pair, then on a pair with no relation
    data["moves"][0]["pos"] -= 1
    move = next(m for m in data["moves"] if m["kind"] == "relator")
    for generators, pair in ((["s", "t"], ["s", "x"]), (["r", "s", "t"], ["s", "r"])):
        data["presentation"]["generators"] = generators
        move["pair"] = pair
        bad.write_text(json.dumps(data))
        code, _, err = run_cli("replay", str(bad))
        assert code == 2 and "FAILED" in err and "Traceback" not in err
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert run_cli("replay", str(garbage))[0] == 2
    assert run_cli("replay", str(tmp_path / "missing.json"))[0] == 1


def test_prove_budget_exit(run_cli, pres_files):
    code, _, err = run_cli(
        "prove", "--presentation", pres_files["m3"],
        "--trivial", "s1 t1 s-1 t-1", "--max-states", "100",
    )
    assert code == 3


def test_budget_args_reject_values_below_one(run_cli, pres_files):
    args = ("prove", "--presentation", pres_files["m3"], "--trivial", "s1 t1 s-1 t-1")
    code, _, err = run_cli(*args, "--max-states", "-5")
    assert code == 1 and "--max-states" in err
    code, _, err = run_cli(*args, "--max-len", "-3")
    assert code == 1 and "--max-len" in err
    assert run_cli("families", "--case", "b", "--exponents", "1", "--max-states", "0")[0] == 1


def test_families(run_cli):
    code, out, _ = run_cli("families", "--case", "b", "--exponents", "1", "--verify")
    assert code == 0
    data = json.loads(out)
    assert data["w1"] == "s1 t1 r1 s1 t1 r1"
    assert data["w2"] == "t1 s1 t1 r1"
    assert data["moves"] == 36
    assert replay(Certificate.from_json(json.dumps(data["certificate"])))
    # degenerate parameters are a usage error
    assert run_cli("families", "--case", "b", "--exponents", "1;-1")[0] == 1
    assert run_cli("families", "--case", "c", "--exponents", "0,1")[0] == 1
    assert run_cli("families", "--case", "b")[0] == 1


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
    ):
        bad.write_text(json.dumps(data))
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
    ):
        bad.write_text(json.dumps(data))
        _assert_usage_error(run_cli(*args, "--polarisation", f"file:{bad}"))


def test_unwritable_output_is_a_usage_error(run_cli, pres_files, tmp_path):
    out = str(tmp_path / "missing" / "out")
    for args in (
        ("render", "--type", "E333"),
        ("prove", "--presentation", pres_files["m3"], "--trivial", "s1 s-1"),
        ("families", "--case", "b", "--exponents", "1"),
        ("klein", "--k", "1"),
    ):
        _assert_usage_error(run_cli(*args, "-o", out))
