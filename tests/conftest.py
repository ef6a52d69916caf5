import pytest

from artinflats.presentation import ArtinPresentation
from artinflats.tiling import TriangleType, minimal_patch, presentation_for


@pytest.fixture(scope="session")
def m2():
    return ArtinPresentation(("s", "t"), {("s", "t"): 2})


@pytest.fixture(scope="session")
def m3():
    return ArtinPresentation(("s", "t"), {("s", "t"): 3})


@pytest.fixture(scope="session")
def m4():
    return ArtinPresentation(("s", "t"), {("s", "t"): 4})


@pytest.fixture(scope="session")
def m5():
    return ArtinPresentation(("s", "t"), {("s", "t"): 5})


@pytest.fixture(scope="session")
def m6():
    return ArtinPresentation(("s", "t"), {("s", "t"): 6})


@pytest.fixture(scope="session")
def e333():
    return presentation_for(TriangleType.E333)


@pytest.fixture(scope="session")
def e244():
    return presentation_for(TriangleType.E244)


@pytest.fixture(scope="session")
def e236():
    return presentation_for(TriangleType.E236)


@pytest.fixture(scope="session")
def patch333():
    return minimal_patch(TriangleType.E333)


@pytest.fixture(scope="session")
def patch244():
    return minimal_patch(TriangleType.E244)


@pytest.fixture(scope="session")
def patch236():
    return minimal_patch(TriangleType.E236)


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process and capture (exit_code, stdout, stderr)."""
    from artinflats import cli

    def run(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run
