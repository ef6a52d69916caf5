"""The abelianisation refutes nontrivial words with no search.

Each witness is rechecked here by a breadth-first walk of the odd-m
graph written for the test; the search and the refutation play against
each other on seeded words; and a refutation answers with the search's
rule table and the dihedral normal form switched off.
"""

import random
import sys
from collections import deque

import pytest

from artinflats import dihedral, presentation, prover
from artinflats.presentation import ArtinPresentation, Word, alternating
from artinflats.prover import Budget, prove_trivial
from artinflats.refute import Refutation, refute

NAMES = ("m3", "m4", "e333", "e244", "e236")


@pytest.fixture(scope="module")
def wide():
    # seven generators, odd classes {a, c, e}, {b, d} and {f}, {g} alone
    return ArtinPresentation(
        tuple("abcdefg"),
        {("a", "c"): 3, ("c", "e"): 5, ("b", "d"): 7, ("a", "b"): 2, ("d", "f"): 4, ("e", "f"): 6},
    )


def odd_components(pres):
    """generator -> its odd-m component, by breadth-first search."""
    comp = {}
    for start in pres.generators:
        if start in comp:
            continue
        seen, queue = {start}, deque([start])
        while queue:
            a = queue.popleft()
            for b in pres.generators:
                if b != a and b not in seen and (pres.m(a, b) or 2) % 2:
                    seen.add(b)
                    queue.append(b)
        for g in seen:
            comp[g] = frozenset(seen)
    return comp


def recheck(comp, word, found):
    sums = {}
    for g, e in word.syllables:
        sums[comp[g]] = sums.get(comp[g], 0) + e
    nonzero = sorted((min(c), total) for c, total in sums.items() if total)
    if found is None:
        assert not nonzero, (word, nonzero)
    else:
        assert isinstance(found, Refutation)
        assert (found.representative, found.exponent_sum) == nonzero[0], (word, found, nonzero)


def random_word(pres, rng, length):
    return Word.from_letters(
        (rng.choice(pres.generators), rng.choice((1, -1))) for _ in range(length)
    )


def trivial_word(pres, rng, pieces=3):
    """A product of conjugated rotations of relators and their inverses."""
    pairs = pres.finite_pairs()
    w = Word()
    for _ in range(pieces):
        a, b = rng.choice(pairs)
        m = pres.m(a, b)
        rel = (alternating((a, b), (1,) * m) * alternating((b, a), (1,) * m).inverse()).letters()
        k = rng.randrange(len(rel))
        piece = Word.from_letters(rel[k:] + rel[:k])
        if rng.random() < 0.5:
            piece = piece.inverse()
        conj = random_word(pres, rng, rng.randint(0, 3))
        w = w * conj * piece * conj.inverse()
    return w


def test_witnesses_recheck_by_their_own_components(request, wide):
    rng = random.Random(2024)
    for pres in [request.getfixturevalue(n) for n in NAMES] + [wide]:
        comp = odd_components(pres)
        for _ in range(300):
            w = random_word(pres, rng, rng.randint(0, 12))
            recheck(comp, w, refute(pres, w))
    # the class of least representative is the one reported
    w = Word.parse("g2 f1 d1 b-2 c1 e-1")
    assert refute(wide, w) == ("b", -1) and str(refute(wide, w)).endswith("class of b")
    recheck(odd_components(wide), w, refute(wide, w))
    assert refute(wide, Word.parse("a1 c-1 e3 a-3 b1 d-1")) is None


def test_refute_refuses_foreign_generators(m3):
    # x has no odd-m class in m3, so no class of x can be reported
    with pytest.raises(ValueError, match=r"generators \['x'\] outside the presentation"):
        refute(m3, Word.parse("x1"))


def test_search_and_refutation_never_agree_on_a_word(request, run_cli, tmp_path):
    rng = random.Random(37)
    budget = Budget(max_states=300, max_len=24)
    for name in NAMES:
        pres = request.getfixturevalue(name)
        for _ in range(40):
            assert refute(pres, trivial_word(pres, rng)) is None
        refuted = 0
        path = tmp_path / f"{name}.json"
        path.write_text(pres.to_json())
        for _ in range(60):
            w = random_word(pres, rng, rng.randint(1, 8))
            found = refute(pres, w)
            if found is None:
                continue
            refuted += 1
            assert prove_trivial(pres, w, budget) is None, (name, w)
            if refuted <= 3:
                code, out, err = run_cli("prove", "--presentation", str(path), "--trivial", str(w))
                assert (code, out) == (3, "") and err == f"no certificate: not trivial: {found}\n"
        assert refuted >= 20, (name, refuted)


def test_refutation_shares_no_code_with_the_search(monkeypatch, wide, e244):
    def search_code(*args, **kwargs):
        raise AssertionError("the refutation reached the search or the normal form")

    for name in ("relator_rules", "_Rules", "_rule_table", "_search"):
        monkeypatch.setattr(prover, name, search_code)
    monkeypatch.setattr(dihedral, "normal_form", search_code)
    builder = presentation.balanced_rewrites
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "artinflats":
            for name, value in list(vars(module).items()):
                if value is builder:
                    monkeypatch.setattr(module, name, search_code)
    assert presentation.balanced_rewrites is search_code
    assert refute(e244, Word.parse("s1 t1")) == ("s", 1)
    assert refute(e244, Word.parse("s1 t1 s-1 t-1")) is None
    assert refute(wide, Word.parse("a1 e-1 g2")) == ("g", 2)
