"""Certificate search, replay, and the certificate transformations.

Replay is a strict interpreter sharing no code with the search: every
relator window is checked from the presentation's exponent alone.  The
transformation tests lean on randomly found certificates so that the
mirror/conjugation algebra is exercised on real move sequences, not
hand-picked ones.
"""

import itertools
import json
import random
import time
import tracemalloc
from dataclasses import replace

import pytest

from artinflats import prover
from artinflats.presentation import ArtinPresentation, Word, balanced_rewrites
from artinflats.prover import (
    MAX_CERT_LETTERS,
    MAX_CODES,
    Budget,
    Certificate,
    Move,
    ReplayError,
    SearchBudgetError,
    WordTooLongError,
    _inv_word,
    _Rules,
    _check_window,
    _inv,
    _conjugation_chain,
    _find_commutator_split,
    _search,
    _splice,
    _transitions,
    apply_move,
    commutator_from_conjugation,
    compose_certificates,
    conjugated_certificate,
    conjugation_product,
    mirror_certificate,
    prove_commutator,
    prove_conjugation,
    prove_equal,
    prove_trivial,
    reduction_moves,
    relator_rules,
    replay,
)
from artinflats.subgroups import family, flat_family, verify_abelian
from helpers import invert_certificate


def random_trivial_word(pres, rng, max_pairs=3):
    """A word freely equal to a product of conjugated relators."""
    m = pres.m(*pres.generators)
    a, b = pres.generators
    rel = Word.from_letters(
        [( (a, b)[i % 2], 1) for i in range(m)]
        + [((b, a)[i % 2], -1) for i in range(m)]
    )
    w = Word.parse("")
    for _ in range(rng.randint(1, max_pairs)):
        conj = Word.from_letters(
            (rng.choice((a, b)), rng.choice((1, -1))) for _ in range(rng.randint(0, 2))
        )
        piece = conj * (rel if rng.random() < 0.5 else rel.inverse()) * conj.inverse()
        w = w * piece
    return w


# ---------------------------------------------------------------------------
# moves and replay
# ---------------------------------------------------------------------------


def test_apply_move_cancel_and_insert(m3):
    letters = [("s", 1), ("s", -1)]
    apply_move(m3, letters, Move(0, (("s", 1), ("s", -1)), ()))
    assert letters == []
    apply_move(m3, letters, Move(0, (), (("t", -1), ("t", 1))))
    assert letters == [("t", -1), ("t", 1)]


def test_apply_move_rejects_mismatches(m3):
    with pytest.raises(ReplayError):
        apply_move(m3, [("s", 1), ("t", 1)], Move(0, (("s", 1), ("s", -1)), ()))
    with pytest.raises(ReplayError):
        apply_move(m3, [], Move(0, (("s", 1), ("s", -1)), ()))
    with pytest.raises(ReplayError):
        # the window matches the word, but s s s -> t s t is not a rule
        sss, tst = (("s", 1),) * 3, (("t", 1), ("s", 1), ("t", 1))
        apply_move(m3, list(sss), Move(0, sss, tst))


def test_replay_rejects_tampering(m3):
    cert = prove_trivial(m3, Word.parse("s1 t1 s1 t-1 s-1 t-1"))
    assert cert is not None and replay(cert)
    # shift one move
    bad_moves = list(cert.moves)
    bad_moves[0] = replace(bad_moves[0], pos=bad_moves[0].pos + 1)
    assert not replay(Certificate(m3, cert.start, cert.end, tuple(bad_moves)))
    # claim a different endpoint
    assert not replay(Certificate(m3, cert.start, Word.parse("s1"), cert.moves))


def test_replay_checks_each_window_once(monkeypatch, m3):
    su = ArtinPresentation(("s", "u"), {("s", "u"): 2})
    certs = [verify_abelian("a", presentation=su, left="s30", right="u-30")]
    certs.append(prove_trivial(m3, Word.parse("s1 t1 s1 t-1 s-1 t-1")))
    check, calls = prover._check_window, []

    def counted(pres, u, v):
        calls.append((u, v))
        check(pres, u, v)

    monkeypatch.setattr(prover, "_check_window", counted)
    for cert in certs:
        calls.clear()
        assert replay(cert)
        windows = [(m.u, m.v) for m in cert.moves if m.u and m.v]
        assert sorted(calls) == sorted(set(windows)), len(windows)
    # on its own, apply_move checks its window every time
    calls.clear()
    sts, tst = (("s", 1), ("t", 1), ("s", 1)), (("t", 1), ("s", 1), ("t", 1))
    letters = list(sts)
    for move in (Move(0, sts, tst), Move(0, tst, sts), Move(0, sts, tst)):
        apply_move(m3, letters, move)
    assert len(calls) == 3


def test_replay_refuses_to_grow_the_word_past_the_cap(monkeypatch, run_cli, tmp_path, m3):
    monkeypatch.setattr(prover, "MAX_CERT_LETTERS", 4)
    pair = (("t", 1), ("t", -1))
    ins, cancel = Move(1, (), pair), Move(1, pair, ())
    s2 = Word.parse("s2")
    assert replay(Certificate(m3, s2, s2, (ins, cancel)))  # 4 letters at most
    cert = Certificate(m3, s2, s2, (ins, ins, cancel, cancel))  # 6 letters
    with pytest.raises(WordTooLongError):
        replay(cert)
    path = tmp_path / "long.json"
    path.write_text(cert.to_json())
    code, out, err = run_cli("replay", str(path))
    assert code == 1 and not out and "past 4 letters" in err and "Traceback" not in err


def test_replay_refuses_malformed_moves(m3):
    # shapes that a (pos, u, v) move can spell but no JSON move parses
    # to; each end word is what the moves would leave if they applied
    s, t, r = ("s", 1), ("t", 1), ("r", 1)
    pair_r, pair_s2 = (r, ("r", -1)), (("s", 2), ("s", -2))
    for start, moves, end in (
        ("s1 t1", [Move(0, (), ())], "s1 t1"),
        ("s1 t1", [Move(0, (s,), ())], "t1"),  # one-letter window
        ("s1", [Move(0, (), (t,))], "t1 s1"),
        ("s1 t-1 s1", [Move(0, (s, ("t", -1)), ())], "s1"),  # not an inverse pair
        ("", [Move(0, (), (s, ("t", -1)))], "s1 t-1"),
        ("s1", [Move(0, (), pair_r), Move(0, pair_r, ())], "s1"),  # r is no generator
        ("s1", [Move(0, (), pair_s2), Move(0, pair_s2, ())], "s1"),  # exponent 2
    ):
        cert = Certificate(m3, Word.parse(start), Word.parse(end), tuple(moves))
        assert not replay(cert), moves


def test_certificate_json_roundtrip(m3):
    cert = prove_trivial(m3, Word.parse("s1 t1 s1 t-1 s-1 t-1"))
    back = Certificate.from_json(cert.to_json())
    assert back == cert
    assert replay(back)


def _accepts(pres, u, v):
    try:
        _check_window(pres, u, v)
    except ReplayError:
        return False
    return True


@pytest.mark.parametrize("m", range(2, 9))
def test_check_window_accepts_exactly_the_rule_table(m):
    # exhaustive over all pairs of m-letter words for m <= 4, seeded
    # draws beyond: random words, two rule sides, and a rule with one
    # letter redrawn
    pres = ArtinPresentation(("a", "b"), {("a", "b"): m})
    rules = balanced_rewrites("a", "b", m)
    letters = [(g, s) for g in "ab" for s in (1, -1)]
    if m <= 4:
        words = list(itertools.product(letters, repeat=m))
        pairs = itertools.product(words, words)
    else:
        rng = random.Random(m)
        sides = [side for rule in rules for side in rule]
        pairs = list(rules)
        for _ in range(3000):
            kind = rng.randrange(3)
            if kind == 0:
                u, v = (tuple(rng.choice(letters) for _ in range(m)) for _ in "uv")
            elif kind == 1:
                u, v = rng.choice(sides), rng.choice(sides)
            else:
                u, v = rng.choice(rules)
                i = rng.randrange(m)
                u = u[:i] + (rng.choice(letters),) + u[i + 1 :]
            pairs.append((u, v))
    rule_set = set(rules)
    for u, v in pairs:
        assert _accepts(pres, u, v) == ((u, v) in rule_set), (u, v)


def test_check_window_reads_the_pair_and_m_from_the_letters(e333):
    u, v = balanced_rewrites("t", "r", 3)[0]
    _check_window(e333, u, v)
    _check_window(e333, v, u)
    for pres, why in (
        (ArtinPresentation(("s", "t", "r"), {("t", "r"): 4}), "length"),
        (ArtinPresentation(("s", "t", "r"), {("s", "t"): 3}), "no relation"),
        (ArtinPresentation(("s", "t"), {("s", "t"): 3}), "unknown"),
    ):
        assert not _accepts(pres, u, v), why
    assert not _accepts(e333, u, u)
    assert not _accepts(e333, u + (("s", 1),), v + (("s", 1),))


def test_certificate_json_rejects_loose_fields(m3):
    cert = prove_trivial(m3, Word.parse("s1 t1 s1 t-1 s-1 t-1"))
    text = cert.to_json()
    assert Certificate.from_json(text).to_json() == text
    good = json.loads(text)
    kinds = [m["kind"] for m in good["moves"]]
    lm, rm = ("moves", kinds.index("cancel")), ("moves", kinds.index("relator"))
    edits = [
        (("version",), True),
        (("version",), 2.0),
        (("version",), "2"),
        (("version",), 3),
        (lm + ("pos",), "0"),
        (lm + ("pos",), 0.7),
        (lm + ("pos",), True),
        (rm + ("pos",), 1.0),
        (lm + ("letter", 1), 2),
        (lm + ("letter", 1), True),
        (lm + ("letter", 1), 1.0),
        (lm + ("letter", 0), 5),
        (rm + ("from",), ["s1", "t1", "s1"]),
        (rm + ("to",), None),
        (rm + ("from",), "s2 t1"),
        (rm + ("from",), "s0 t1 s1"),
        (rm + ("kind",), "rewrite"),
        (("moves",), {}),
        (("start",), 5),
        (("presentation",), []),
    ]
    for path, value in edits:
        data = json.loads(text)
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ReplayError):
            Certificate.from_json(json.dumps(data))
    for bad in ("{not json", "[]", "null"):
        with pytest.raises(ReplayError):
            Certificate.from_json(bad)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_prove_trivial_relator_products(m3, m4):
    rng = random.Random(41)
    for pres in (m3, m4):
        for _ in range(25):
            w = random_trivial_word(pres, rng)
            cert = prove_trivial(pres, w)
            assert cert is not None
            assert cert.start == w and not cert.end.syllables
            assert replay(cert)


def test_prove_trivial_returns_none_on_nontrivial(m3):
    # exhausting the budget is not an error: None never means "false"
    assert prove_trivial(m3, Word.parse("s1 t1"), Budget(max_states=500)) is None


def test_prove_equal(m3):
    cert = prove_equal(m3, Word.parse("s1 t1 s1"), Word.parse("t1 s1 t1"))
    assert cert is not None
    assert cert.start == Word.parse("s1 t1 s1")
    assert cert.end == Word.parse("t1 s1 t1")
    assert replay(cert)


def test_prove_equal_falls_back_to_the_trivial_word(monkeypatch):
    # w1 w2 -> w2 w1 in family b: at 300 states neither the peeled nor
    # the direct search meets, and u v^-1 is a commutator that
    # prove_trivial splits and proves
    pres = flat_family("b").presentation
    w1, w2 = family("b", [1])
    trivial = []

    def spy(*args, **kwargs):
        trivial.append(prove_trivial(*args, **kwargs))
        return trivial[-1]

    monkeypatch.setattr(prover, "prove_trivial", spy)
    cert = prove_equal(pres, w1 * w2, w2 * w1, Budget(max_states=300))
    assert len(trivial) == 1 and trivial[0] is not None
    assert (cert.start, cert.end) == (w1 * w2, w2 * w1)
    assert len(cert.moves) == 23
    assert replay(cert)


def test_prove_conjugation_start_convention(e333):
    g, x = Word.parse("s1 t1 r1 s1 t1 r1"), Word.parse("t1")
    cert = prove_conjugation(e333, g, x)
    assert cert is not None
    # the start is the freely reduced conjugate, the end is x
    assert cert.start == Word.from_letters((g * x * g.inverse()).letters())
    assert cert.end == x
    assert replay(cert)


def test_prove_commutator(e333):
    a, b = Word.parse("s1 t1 r1 s1 t1 r1"), Word.parse("t1 s1 t1 r1")
    cert = prove_commutator(e333, a, b)
    assert cert is not None and replay(cert)
    assert not cert.end.syllables


def test_prove_functions_refuse_oversized_words(m3):
    huge = Word.parse(f"s{MAX_CERT_LETTERS + 1}")
    for call in (
        lambda: prove_trivial(m3, huge),
        lambda: prove_equal(m3, huge, Word.parse("s1")),
        lambda: prove_conjugation(m3, Word.parse("t1"), huge),
        lambda: prove_commutator(m3, huge, Word.parse("t1")),
    ):
        with pytest.raises(WordTooLongError, match=f"more than {MAX_CERT_LETTERS} letters"):
            call()


# ---------------------------------------------------------------------------
# layer shortening and the commutator split
# ---------------------------------------------------------------------------


@pytest.fixture
def parent_sizes(monkeypatch):
    """Sizes of the parent tables that the search hands to `_reconstruct`."""
    sizes = []
    reconstruct = prover._reconstruct

    def spy(parents, state):
        sizes.append(len(parents))
        return reconstruct(parents, state)

    monkeypatch.setattr(prover, "_reconstruct", spy)
    return sizes


def test_layer_search_holds_at_most_its_budget(m3, e333, parent_sizes):
    # no word has -1 letters, so the search runs until its budget is
    # spent, and s t and s t r s are already (len, word)-smallest
    for pres, text in ((m3, "s1 t1"), (e333, "s1 t1 r1 s1")):
        start = tuple(Word.parse(text).letters())
        for max_states in (1, 2, 3, 7, 50, 4000):
            parent_sizes.clear()
            word, moves = _search(pres, (start,), Budget(max_states=max_states), -1)
            assert parent_sizes == [max_states]
            assert word == start and moves == ()


def test_layer_search_stops_at_the_goal(e333, parent_sizes):
    core = tuple(Word.parse("t1 s1 t1 r1").letters())
    conj = tuple(Word.parse("r-1 t-1 s-1 r-1 t-1 s-1").letters())
    moves, h = _conjugation_chain(e333, conj, core, Budget(max_states=4000))
    assert len(h) <= len(core)
    assert parent_sizes and max(parent_sizes) < 400
    # the goal-length word is the first one generated: a layer that
    # reaches the goal pushes no state after it
    parent_sizes.clear()
    start = tuple(Word.parse("s1 t1 s1 t-1 s-1 t-1").letters())
    word, moves = _search(e333, (start,), Budget(max_states=4000), goal=0)
    assert word == ()
    assert parent_sizes and parent_sizes[0] < 100
    cert = Certificate(e333, Word.from_letters(start), Word(), moves)
    assert replay(cert)
    # a start that already meets the goal is returned as it is
    assert _search(e333, (start,), Budget(max_states=4000), goal=6) == (start, ())


def reference_commutator_split(letters):
    """Every split point (i, j) in turn: the reference for
    `_find_commutator_split`."""
    n = len(letters)
    for i in range(1, n - 2):
        for j in range(i + 1, n - 1):
            p, q, rest = letters[:i], letters[i:j], letters[j:]
            if rest == _inv_word(p) + _inv_word(q):
                return p, q
    return None


def test_commutator_split_matches_the_double_loop(e333):
    rng = random.Random(23)
    found = 0
    for _ in range(3000):
        p, q = (random_reduced(e333, rng, rng.randint(0, 5)) for _ in range(2))
        if rng.random() < 0.5:
            w = p + q + _inv_word(p) + _inv_word(q)
        else:
            w = p + q + random_reduced(e333, rng, rng.randint(0, 8))
        if rng.random() < 0.5:
            w = reduction_moves(w)[0]
        expect = reference_commutator_split(w)
        assert _find_commutator_split(w) == expect, w
        found += expect is not None
    assert found > 500


def test_long_words_fail_fast_on_a_tiny_budget(e333, m3):
    # 3,000 letters: the split check is one substring search, not a
    # scan of all O(n^2) split points
    w = Word.parse("s700 t800 s-700 t-799 r-1")
    t0 = time.perf_counter()
    assert prove_trivial(e333, w, Budget(max_states=10)) is None
    assert time.perf_counter() - t0 < 1.0
    # 200,000 letters: nor one rotation compared at a time
    w = Word.parse(" ".join(["s1 t1"] * 100_000))
    t0 = time.perf_counter()
    assert prove_trivial(m3, w, Budget(max_states=10)) is None
    assert time.perf_counter() - t0 < 2.0


def test_long_words_spend_the_budget_in_letters(m3):
    # (s t)^1500 is not trivial; 60,000 states of 3,000 letters would not
    # fit in memory, so the search stops at max_states * max_len letters
    w = Word.parse(" ".join(["s1 t1"] * 1500))
    t0 = time.perf_counter()
    assert prove_trivial(m3, w) is None
    assert time.perf_counter() - t0 < 1.5


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------


def found_certs(pres, rng, n):
    out = []
    while len(out) < n:
        w = random_trivial_word(pres, rng)
        cert = prove_trivial(pres, w)
        if cert is not None:
            out.append(cert)
    return out


def test_invert_certificate(m3):
    rng = random.Random(7)
    for cert in found_certs(m3, rng, 10):
        inv = invert_certificate(cert)
        assert inv.start == cert.end and inv.end == cert.start
        assert replay(inv)


def test_mirror_certificate(m3, m4):
    rng = random.Random(13)
    for pres in (m3, m4):
        for cert in found_certs(pres, rng, 10):
            mir = mirror_certificate(cert)
            assert mir.start == cert.start.inverse()
            assert mir.end == cert.end.inverse()
            assert replay(mir)
            # mirroring twice is the identity
            assert mirror_certificate(mir) == cert


def test_mirror_certificate_replays_nothing(monkeypatch, m3, m4):
    # each move changes the word's length by |v| - |u|, so mirroring
    # reads the lengths off the moves and applies none of them
    rng = random.Random(13)
    certs = found_certs(m3, rng, 10) + found_certs(m4, rng, 10)
    su = ArtinPresentation(("s", "u"), {("s", "u"): 2})
    certs.append(verify_abelian("a", presentation=su, left="s30", right="u30"))

    def refuse(*args, **kwargs):
        raise AssertionError("mirroring applied a move")

    for name in ("apply_move", "replay"):
        monkeypatch.setattr(prover, name, refuse)
    mirrors = [mirror_certificate(cert) for cert in certs]
    for cert, mir in zip(certs, mirrors):
        assert mir.start == cert.start.inverse() and mir.end == cert.end.inverse()
        assert mirror_certificate(mir) == cert
    monkeypatch.undo()
    assert all(replay(mir) for mir in mirrors)


def test_compose_certificates(m3):
    c1 = prove_equal(m3, Word.parse("s1 t1 s1"), Word.parse("t1 s1 t1"))
    c2 = prove_equal(m3, Word.parse("t1 s1 t1"), Word.parse("s1 t1 s1"))
    both = compose_certificates(c1, c2)
    assert both.start == both.end == Word.parse("s1 t1 s1")
    assert replay(both)
    with pytest.raises(ValueError):
        compose_certificates(c1, c1)  # endpoints do not chain


def test_conjugated_certificate(m3):
    rng = random.Random(29)
    for cert in found_certs(m3, rng, 8):
        w = Word.from_letters(
            (rng.choice("st"), rng.choice((1, -1))) for _ in range(rng.randint(1, 3))
        )
        conj = conjugated_certificate(cert, w)
        assert conj.start == Word.from_letters(
            list(w.letters()) + list(cert.start.letters()) + list(w.inverse().letters())
        )
        assert replay(conj)


def test_conjugation_product_and_commutator_upgrade(e333):
    g = Word.parse("s1 t1 r1 s1 t1 r1")
    budget = Budget(max_states=200_000)
    factors = [Word.parse("t1"), Word.parse("s1 t1 r1")]
    certs = [prove_conjugation(e333, g, f, budget) for f in factors]
    assert all(c is not None for c in certs)
    x = factors[0] * factors[1]
    combined = conjugation_product(e333, g, factors, certs)
    assert combined.end == x
    assert replay(combined)
    comm = commutator_from_conjugation(combined)
    assert not comm.end.syllables
    assert replay(comm)


def test_conjugation_product_refusals(e333, m3):
    g, t = Word.parse("s1 t1 r1 s1 t1 r1"), Word.parse("t1")
    cert = prove_conjugation(e333, g, t)
    for args, message in [
        ((g, [], []), "one certificate per factor"),
        ((g, [t, t], [cert]), "one certificate per factor"),
        ((g, [t], [replace(cert, presentation=m3)]), "different presentation"),
        ((g, [Word.parse("s1")], [cert]), "end does not match"),
        ((Word.parse("s1"), [t], [cert]), "start is not"),
    ]:
        with pytest.raises(ValueError, match=message):
            conjugation_product(e333, *args)


def test_conjugation_product_is_linear_in_the_factor_count():
    # n copies of family b's factor: each copy adds the same moves
    pres = flat_family("b").presentation
    w1, f = family("b", [1])
    cert = prove_conjugation(pres, w1, f)
    counts = {}
    for n in (1, 2, 10, 200):
        product = conjugation_product(pres, w1, [f] * n, [cert] * n)
        assert replay(product)
        assert product.end == Word.from_letters(list(f.letters()) * n)
        counts[n] = len(product.moves)
    step = counts[2] - counts[1]
    assert all(counts[n] == counts[1] + (n - 1) * step for n in counts), counts
    t0 = time.perf_counter()
    conjugation_product(pres, w1, [f] * 1000, [cert] * 1000)
    assert time.perf_counter() - t0 < 1.0


def test_conjugation_product_takes_factors_that_cancel(e333):
    # t1 t-1 t1: the product restores the joins and ends at red(t1 t-1 t1)
    g = Word.parse("s1 t1 r1 s1 t1 r1")
    factors = [Word.parse(w) for w in ("t1", "t-1", "t1")]
    cert = prove_conjugation(e333, g, factors[0])
    certs = [cert, mirror_certificate(cert), cert]
    product = conjugation_product(e333, g, factors, certs)
    assert product.start == g * factors[0] * g.inverse()
    assert product.end == factors[0]
    assert replay(product)
    comm = commutator_from_conjugation(product)
    assert not comm.end.syllables
    assert replay(comm)


def test_search_budget_error_is_distinct():
    assert issubclass(SearchBudgetError, RuntimeError)
    assert not issubclass(SearchBudgetError, ReplayError)


# ---------------------------------------------------------------------------
# transitions on letter codes
# ---------------------------------------------------------------------------

FOUR = ArtinPresentation(
    ("s", "t", "u", "v"),
    {("s", "t"): 3, ("u", "v"): 4, ("s", "u"): 2, ("s", "v"): 2, ("t", "u"): 2, ("t", "v"): 2},
)


def naive_transitions(pres, letters, max_len):
    """Slice-scan transitions over (g, s) letters that freely reduce the
    whole word after every splice: the reference for `_transitions`."""
    n = len(letters)
    for a, b in pres.finite_pairs():
        rules = relator_rules(pres, a, b)
        m = len(rules[0][0])
        for variant, (u, v) in enumerate(rules):
            for pos in range(n - m + 1):
                if letters[pos : pos + m] == u:
                    nxt = reduction_moves(letters[:pos] + v + letters[pos + m :])[0]
                    yield nxt, ("rewrite", pos, (a, b), variant)
            if n + 2 * m <= max_len:
                ins = u + _inv_word(v)
                for pos in range(n + 1):
                    nxt = reduction_moves(letters[:pos] + ins + letters[pos:])[0]
                    if len(nxt) <= max_len:
                        yield nxt, ("insert", pos, (a, b), variant)


def leftmost_pair_reduction(letters):
    """Free reduction that restarts from the left after every
    cancellation: the reference for `reduction_moves`."""
    moves, cur = [], list(letters)
    while True:
        for i in range(len(cur) - 1):
            if cur[i][0] == cur[i + 1][0] and cur[i][1] == -cur[i + 1][1]:
                moves.append(Move(i, (cur[i], cur[i + 1]), ()))
                del cur[i : i + 2]
                break
        else:
            return tuple(cur), tuple(moves)


def test_reduction_moves_match_the_leftmost_pair_restart_loop():
    rng = random.Random(17)
    letters = [(g, s) for g in ("s", "t") for s in (1, -1)]
    cancelled = 0
    for _ in range(2000):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 16)))
        got = reduction_moves(w)
        assert got == leftmost_pair_reduction(w), w
        cancelled += len(got[1]) >= 2
    assert cancelled > 500


def random_reduced(pres, rng, length):
    """A freely reduced word of the given length, built from rule sides
    and single letters so that relator windows occur often."""
    pairs = pres.finite_pairs()
    out = ()
    while len(out) < length:
        if rng.random() < 0.5:
            u, v = rng.choice(relator_rules(pres, *rng.choice(pairs)))
            piece = rng.choice((u, v))
        else:
            piece = ((rng.choice(pres.generators), rng.choice((1, -1))),)
        out = reduction_moves(out + piece)[0]
    return out[:length]


@pytest.mark.parametrize("name", ["m3", "m4", "four"])
def test_transitions_match_naive_reference(name, m3, m4):
    pres = {"m3": m3, "m4": m4, "four": FOUR}[name]
    rules = _Rules(pres)
    ms = sorted({int(pres.m(a, b)) for a, b in pres.finite_pairs()})
    rng = random.Random(3)
    for length in range(21):
        for _ in range(2):
            w = random_reduced(pres, rng, length)
            m = rng.choice(ms)
            # inserts of the m-pair are allowed exactly from n + 2m on
            for max_len in (length + 2 * m - 1, length + 2 * m, 64):
                got = [(rules.decode(s), op) for s, op in _transitions(rules, rules.encode(w), max_len)]
                assert got == list(naive_transitions(pres, w, max_len)), (w, max_len)


@pytest.mark.parametrize("name", ["m3", "m4", "four"])
def test_inserts_that_cancel_at_a_junction_match_naive_reference(name, m3, m4):
    # words spelled from inverted ends of insert words, so that at many
    # positions the left neighbour inverts an insert's first letter or
    # the right neighbour its last: the inserts that need a splice
    pres = {"m3": m3, "m4": m4, "four": FOUR}[name]
    rules = _Rules(pres)
    rng = random.Random(41)
    left = right = both = 0
    for a, b in pres.finite_pairs():
        for u, v in relator_rules(pres, a, b):
            ins = u + _inv_word(v)
            first, last = _inv(ins[0]), _inv(ins[-1])
            for _ in range(2):
                w = ()
                while len(w) < 16:
                    k = rng.randint(1, len(ins))
                    piece = _inv_word(ins[:k]) if rng.random() < 0.5 else _inv_word(ins[-k:])
                    w = reduction_moves(w + piece + random_reduced(pres, rng, rng.randint(0, 2)))[0]
                for pos in range(len(w) + 1):
                    at_left, at_right = pos > 0 and w[pos - 1] == first, pos < len(w) and w[pos] == last
                    left, right, both = left + at_left, right + at_right, both + (at_left and at_right)
                got = [(rules.decode(s), op) for s, op in _transitions(rules, rules.encode(w), 64)]
                assert got == list(naive_transitions(pres, w, 64)), w
    assert min(left, right) > 100 and both > 30, (left, right, both)


def test_searches_refuse_alphabets_beyond_the_code_points(run_cli, tmp_path, monkeypatch):
    # a search spells a letter as one code point: MAX_CODES codes are
    # all the code points there are, so MAX_CODES // 2 generators are
    # the most it takes
    assert chr(MAX_CODES - 1) == "\U0010ffff"
    with pytest.raises(ValueError):
        chr(MAX_CODES)
    # the bound is inclusive (checked at a small MAX_CODES)
    with monkeypatch.context() as patch:
        patch.setattr(prover, "MAX_CODES", 8)
        rules = _Rules(ArtinPresentation(["s", "t", "u", "v"], {("s", "t"): 3}))
        assert rules.encode([("v", 1)]) == chr(7)
        with pytest.raises(WordTooLongError, match="more than 8 letter codes"):
            _Rules(ArtinPresentation(["s", "t", "u", "v", "w"], {("s", "t"): 3}))
    gens = ["s", "t"] + [f"g{i}" for i in range(MAX_CODES // 2 - 2)]
    # exactly MAX_CODES // 2 generators are searched without a table per
    # letter: the rule table holds one sorted list of their names
    at = ArtinPresentation(gens, {("s", "t"): 3})
    w = Word.parse("s1 t1 s1 t-1 s-1 t-1")
    tracemalloc.start()
    try:
        cert = prove_trivial(at, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        prover._rule_table.cache_clear()  # it holds the presentation
    assert replay(cert) and cert.start == w
    assert peak < 16 * 2**20, peak
    over = ArtinPresentation(gens + ["h"], {("s", "t"): 3})
    with pytest.raises(WordTooLongError, match=f"more than {MAX_CODES} letter codes"):
        prove_trivial(over, Word.parse("s1 t1 s1 t-1 s-1 t-1"))
    path = tmp_path / "over.json"
    path.write_text(over.to_json())
    code, _, err = run_cli("prove", "--presentation", str(path), "--trivial", "s1 t1")
    assert code == 1 and err.startswith("error:") and "Traceback" not in err, err


def test_searches_refuse_foreign_generators(m3):
    # a letter code comes from the generator's rank, which a generator
    # outside the presentation does not have
    u1, s1, u1s1 = Word.parse("u1"), Word.parse("s1"), Word.parse("u1 s1")
    calls = [
        lambda: prove_commutator(m3, u1, u1),
        lambda: prove_conjugation(m3, u1, s1),
        lambda: prove_trivial(m3, Word.parse("u1 s1 u-1 s-1")),
        lambda: prove_equal(m3, u1, s1),
        lambda: prove_equal(m3, u1s1, u1s1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"generators \['u'\] outside the presentation"):
            call()


def test_splice_cancels_through_an_emptied_middle(m3):
    rules = _Rules(m3)

    def enc(text):
        return rules.encode(Word.parse(text).letters())

    def splice(text, pos, end, mid):
        return tuple(rules.decode(part) for part in _splice(enc(text), pos, end, enc(mid)))

    # mid cancels at both junctions, then the prefix cancels the suffix
    assert splice("s1 t2 s-1", 2, 2, "t-2") == ((), (), ())
    assert splice("s2 t2 s-1", 2, 2, "t-2") == ((("s", 1),), (), ())
    # the left junction alone uses mid up (a rewrite window s1 is removed)
    assert splice("t1 s1 t1 s1 t-1", 3, 4, "t-1 s-1") == ((), (), ())
    # the right junction alone uses mid up
    assert splice("t1 s1 t1 s-1 t-1 s-1 t-1", 2, 3, "t1 s1") == ((), (), ())
    # mid survives, so prefix and suffix never meet
    assert splice("s1 t2 s-1", 2, 2, "t-3") == ((("s", 1),), (("t", -1),), (("s", -1),))
    rng = random.Random(11)
    for _ in range(300):
        letters = random_reduced(m3, rng, rng.randint(0, 10))
        mid = random_reduced(m3, rng, rng.randint(0, 6))
        pos = rng.randint(0, len(letters))
        end = rng.randint(pos, len(letters))
        a, b, c = _splice(rules.encode(letters), pos, end, rules.encode(mid))
        assert rules.decode(a + b + c) == reduction_moves(letters[:pos] + mid + letters[end:])[0]


def test_letter_codes_sort_like_letters():
    rules = _Rules(FOUR)
    letters = [(g, s) for g in ("v", "t", "u", "s") for s in (1, -1)]
    assert [rules.decode((c,))[0] for c in sorted(rules.encode(letters))] == sorted(letters)
    assert all(ord(rules.encode([(g, -s)])) == ord(rules.encode([(g, s)])) ^ 1 for g, s in letters)
    rng = random.Random(5)
    words = [random_reduced(FOUR, rng, rng.randint(0, 6)) for _ in range(200)]
    assert [rules.decode(c) for c in sorted(rules.encode(w) for w in words)] == sorted(words)
