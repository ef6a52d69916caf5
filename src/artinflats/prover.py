"""Certificate-producing word-problem prover.

A certificate is a start word, an end word, and a list of elementary
moves, each of which is checkable in isolation.  A move (pos, u, v)
replaces the window u at pos by v; JSON names three kinds of it:

    cancel  -- u = g^e g^-e, v empty: {"kind": "cancel", "pos": 3,
               "letter": ["s", 1]} deletes s1 s-1 at position 3
    insert  -- u empty, v = g^e g^-e: the same fields
    relator -- u -> v a balanced relator rule: {"kind": "relator",
               "pos": 3, "from": "s1 t1 s1", "to": "t1 s1 t1"} in
               JSON version 2

`replay` is a tiny independent interpreter that shares no code with the
search.  It reads the pair off a window's letters and checks the window
from m alone, in O(m), as a rotation of the defining relator or of its
inverse.  A move inverts by swapping u and v, mirrors by inverting both
and moving pos to n - pos - |u| on a word of n letters, and changes n
by |v| - |u|.  Version 1 relator moves named a rule by its index in the
search's table; they are converted to windows for m <= V1_MAX_M.

The search works on freely reduced letter tuples.  A transition is a
rule application or a whole-relator insertion followed by free
reduction; each transition expands deterministically into elementary
moves.  A word given to a search has at most MAX_CERT_LETTERS letters,
and so has the rule table of each relator: 16 m^2 letters, so m <= 250.

There is one best-first search, shortest word first.  From one root it
stops at the first word no longer than a goal; from a (source, target)
pair it grows the smaller side until the two sides meet in the middle.
Every strategy climbs one ladder over (conj, core), the nesting
conj^-1 core conj.  The conjugator is peeled one letter per layer, each
layer a one-root search for a word no longer than the core; that keeps
the words short enough for the two-root search to meet the target, and
an empty conj leaves that search alone.  `prove_trivial` first tries a
commutator split, `prove_equal` last proves u v^-1 trivial.  The rule
table is built once per presentation, from the balanced rules that
`presentation.balanced_rewrites` builds once per pair and exponent.

Composite certificates need no search: the conjugation product, the
commutator upgrade, conjugation by a word and `prove_equal`'s fallback
each place pieces side by side, certificates and fixed letter words,
in one assembly that restores the joins of the starts, runs each
certificate on its own span and freely reduces the ends.

Search states are code strings, one code point per letter: letter
(g, s) is chr(2*rank(g) + (s == 1)), rank(g) found by bisecting the
rule table's sorted generators, so code strings sort like the letter
tuples they spell and code c ^ 1 is the inverse of code c.  A string
caches its hash and slices and joins in single copies, which keeps the
search's seen-tests and successors cheap.  A transition only cancels at
the junctions of the spliced-in window, and states are decoded back to
letters only along a found chain.
"""

from __future__ import annotations

import json
import heapq
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from artinflats.presentation import ArtinPresentation, Word, balanced_rewrites

Letter = tuple[str, int]  # (generator, +1 or -1)

CERTIFICATE_VERSION = 2


class ReplayError(ValueError):
    """A certificate move failed validation."""


class WordTooLongError(ValueError):
    """A word given to a search, or the rule table of a relator, has more
    than MAX_CERT_LETTERS letters."""


class SearchBudgetError(RuntimeError):
    """A proof search hit its budget before finding a certificate.

    Raised by callers that need a certificate unconditionally; the
    search functions themselves return None, which never means the
    identity is false, only that it was not found within the budget.
    """


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


def _strict(ok: bool, message: str) -> None:
    if not ok:
        raise ReplayError(message)


def _parse_window(text) -> tuple[Letter, ...]:
    """Letters of a window string such as "s1 t-1 s1"."""
    try:
        syllables = Word.parse(text).syllables
    except (TypeError, ValueError) as exc:
        raise ReplayError(f"bad relator window {text!r}: {exc}") from None
    _strict(
        len(syllables) == len(text.split()) and all(e in (1, -1) for _, e in syllables),
        f"relator window {text!r} is not a string of letters g1 or g-1",
    )
    return syllables


@dataclass(frozen=True)
class Move:
    """Replace the window u at `pos` by v: a cancel is x x^-1 -> empty,
    an insert empty -> x x^-1, a relator move a balanced rule u -> v."""

    pos: int
    u: tuple[Letter, ...]
    v: tuple[Letter, ...]

    @property
    def kind(self) -> str:
        return "insert" if not self.u else "cancel" if not self.v else "relator"

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind, "pos": self.pos}
        if self.u and self.v:
            d["from"], d["to"] = str(Word.from_letters(self.u)), str(Word.from_letters(self.v))
        else:
            d["letter"] = list((self.u or self.v)[0])
        return d

    @classmethod
    def from_dict(cls, d, v1: ArtinPresentation | None = None) -> "Move":
        """Strictly parse a JSON move.  A version 1 relator move names its
        rule as (pair, variant); `v1` is then the certificate's
        presentation, and the move is converted to its window."""
        _strict(isinstance(d, dict), f"a move is a JSON object, got {d!r}")
        kind, pos, letter = d.get("kind"), d.get("pos"), d.get("letter")
        _strict(type(pos) is int, f"move position must be an integer, got {pos!r}")
        if kind in ("cancel", "insert"):
            _strict(
                isinstance(letter, list) and len(letter) == 2 and isinstance(letter[0], str)
                and type(letter[1]) is int and letter[1] in (1, -1),
                f"a move letter is [generator, 1 or -1], got {letter!r}",
            )
            pair = (tuple(letter), (letter[0], -letter[1]))
            return cls(pos, pair, ()) if kind == "cancel" else cls(pos, (), pair)
        _strict(kind == "relator", f"unknown move kind {kind!r}")
        if v1 is not None:
            return cls(pos, *_v1_rule(v1, d.get("pair"), d.get("variant")))
        # An empty side parses, but a window is freely reduced, so it is
        # never the pair of a cancel or insert and `apply_move` refuses it.
        return cls(pos, _parse_window(d.get("from")), _parse_window(d.get("to")))


def _inv(letter: Letter) -> Letter:
    return (letter[0], -letter[1])


def _inv_word(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    return tuple(_inv(l) for l in reversed(letters))


def relator_rules(pres: ArtinPresentation, a: str, b: str) -> tuple[tuple[tuple[Letter, ...], tuple[Letter, ...]], ...]:
    m = pres.m(a, b)
    if m is None:
        raise ValueError(f"pair ({a}, {b}) has no relation")
    return balanced_rewrites(a, b, m)


# Version 1 relator moves index the O(m^2) table `balanced_rewrites`,
# which is built only up to this m when such a certificate is read.
V1_MAX_M = 64

# `from_json` refuses a start or end word longer than this, `replay` a
# move that grows the word past it: replay expands words letter by
# letter, so a few bytes such as "s1000000000" would ask for gigabytes.
MAX_CERT_LETTERS = 10**6

# A search spells each letter as one code point, so it takes a
# presentation of at most this many letters g^1, g^-1: 557,056
# generators.
MAX_CODES = 0x110000


def _v1_rule(pres: ArtinPresentation, pair, variant) -> tuple[tuple[Letter, ...], tuple[Letter, ...]]:
    _strict(
        isinstance(pair, list) and len(pair) == 2 and all(isinstance(g, str) for g in pair)
        and type(variant) is int,
        f"a version 1 relator move names a pair [a, b] and a variant, got {pair!r}, {variant!r}",
    )
    m = _relator_m(pres, *pair)
    _strict(m <= V1_MAX_M, f"version 1 certificates are read for m <= {V1_MAX_M} only, got m = {m}")
    rules = balanced_rewrites(*pair, m)
    _strict(0 <= variant < len(rules), f"bad rule variant {variant}")
    return rules[variant]


def _relator_m(pres: ArtinPresentation, a: str, b: str) -> int:
    try:
        m = pres.m(a, b)
    except KeyError as exc:
        raise ReplayError(f"relator move on pair ({a}, {b}): {exc.args[0]}") from None
    _strict(m is not None, f"relator move on pair ({a}, {b}): no relation")
    return m


def _check_window(pres: ArtinPresentation, u: tuple[Letter, ...], v: tuple[Letter, ...]) -> None:
    """Raise ReplayError unless u -> v is a balanced relator rule.

    That is: u and v spell a pair (a, b) with finite m, |u| = |v| = m,
    u != v, and u v^-1 is a cyclic rotation of the defining relator
    (a b a ...)(b a b ...)^-1 or of its inverse.  Those rotations are
    exactly the words of length 2m that alternate a and b cyclically
    and whose m positive letters are cyclically consecutive, which is
    checked in O(m) from m alone.
    """
    gens = sorted({g for g, _ in u + v})
    _strict(len(gens) == 2, f"relator window spells generators {gens}, not a pair")
    m = _relator_m(pres, *gens)
    _strict(len(u) == len(v) == m and u != v, f"window is not two distinct words of length m = {m}")
    w = u + _inv_word(v)
    if not (
        all(w[i][0] != w[i - 1][0] for i in range(2 * m))
        and sum(w[i][1] != w[i - 1][1] for i in range(2 * m)) == 2
        and sum(s for _, s in w) == 0
    ):
        raise ReplayError(f"{Word.from_letters(u)} -> {Word.from_letters(v)} is not a relator rule of {tuple(gens)}")


def _undo(moves) -> tuple[Move, ...]:
    """The moves that take a move sequence's end back to its start."""
    return tuple(Move(m.pos, m.v, m.u) for m in reversed(moves))


def apply_move(pres: ArtinPresentation, letters: list[Letter], move: Move, checked: set | None = None) -> None:
    """Strictly validated single-move application, in place (used by
    replay): a relator window must be a rule of `pres`, a cancel or
    insert side exactly one pair g^e g^-e with e = +-1 (an insert's g a
    generator of `pres`), and u must read at pos.  Windows in `checked`
    pass as rules; each newly checked one is added to it.  A valid move
    that would take the word past MAX_CERT_LETTERS letters raises
    WordTooLongError."""
    p, u, v = move.pos, move.u, move.v
    checked = set() if checked is None else checked
    if u and v:
        if (u, v) not in checked:
            _check_window(pres, u, v)
            checked.add((u, v))
    elif not (
        len(pair := u or v) == 2 and pair[0][1] in (1, -1) and pair[1] == _inv(pair[0])
        and (u or pair[0][0] in pres.generators)
    ):
        raise ReplayError(f"{move.kind} at {p} is not one pair g^e g^-e of the presentation: {pair}")
    if not (0 <= p <= len(letters) - len(u) and letters[p : p + len(u)] == list(u)):
        raise ReplayError(f"window at {p} does not read {Word.from_letters(u)}")
    if len(letters) + len(v) - len(u) > MAX_CERT_LETTERS:
        raise WordTooLongError(f"the {move.kind} at {p} takes the word past {MAX_CERT_LETTERS} letters")
    letters[p : p + len(u)] = v


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    presentation: ArtinPresentation
    start: Word
    end: Word
    moves: tuple[Move, ...]

    def to_dict(self) -> dict:
        return {
            "version": CERTIFICATE_VERSION, "presentation": self.presentation.to_dict(),
            "start": str(self.start), "end": str(self.end), "moves": [m.to_dict() for m in self.moves],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        """Strictly parse a version 2 certificate, or a version 1 one
        whose relator moves are converted to windows (m <= V1_MAX_M).
        Start and end words have at most MAX_CERT_LETTERS letters, all
        on the presentation's generators."""
        try:
            data = json.loads(text)
            version, moves = data["version"], data["moves"]
            pres = ArtinPresentation.from_dict(data["presentation"])
            start, end = (Word.parse(data[key]) for key in ("start", "end"))
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ReplayError(f"bad certificate: {exc!r}") from None
        _strict(
            type(version) is int and version in (1, CERTIFICATE_VERSION),
            f"unsupported certificate version {version!r}",
        )
        _strict(isinstance(moves, list), "moves must be a list")
        for key, word in (("start", start), ("end", end)):
            _strict(
                word.letter_length() <= MAX_CERT_LETTERS,
                f"{key} word has more than {MAX_CERT_LETTERS} letters",
            )
            foreign = sorted(set(word.generators_used()) - set(pres.generators))
            _strict(not foreign, f"{key} word uses generators {foreign} outside the presentation")
        v1 = pres if version == 1 else None
        return cls(pres, start, end, tuple(Move.from_dict(m, v1) for m in moves))


def replay(cert: Certificate) -> bool:
    """Validate a certificate by running every move, in place, on one
    letter list from the start word and comparing it with the end word.
    No search code; each distinct relator window is checked once.  A
    cancel or insert shifts the list's tail: O(moves x length) in the
    worst case.  A move that would grow the word past MAX_CERT_LETTERS
    letters raises WordTooLongError (the CLI's exit 1): replay holds no
    longer word, so it cannot tell whether such a certificate holds."""
    checked: set = set()
    try:
        letters = cert.start.letters()
        for move in cert.moves:
            apply_move(cert.presentation, letters, move, checked)
        return letters == cert.end.letters()
    except ReplayError:
        return False


def mirror_certificate(cert: Certificate) -> Certificate:
    """Certificate from start^-1 to end^-1, mirroring each move in order.

    Position i of a word of n letters sits at n-1-i of its inverse with
    the letter inverted, so the window u at pos lands at n - pos - |u|
    with both sides inverted.  Each move changes n by |v| - |u|, so no
    move is applied or checked: a certificate that does not replay
    mirrors to one that does not either.
    """
    n, moves = cert.start.letter_length(), []
    for mv in cert.moves:
        moves.append(Move(n - mv.pos - len(mv.u), _inv_word(mv.u), _inv_word(mv.v)))
        n += len(mv.v) - len(mv.u)
    return Certificate(cert.presentation, cert.start.inverse(), cert.end.inverse(), tuple(moves))


def compose_certificates(c1: Certificate, c2: Certificate) -> Certificate:
    if c1.presentation != c2.presentation:
        raise ValueError("certificates over different presentations")
    if c1.end != c2.start:
        raise ValueError("certificates do not chain: end of first != start of second")
    return Certificate(c1.presentation, c1.start, c2.end, c1.moves + c2.moves)


def _assemble(pres: ArtinPresentation, pieces) -> Certificate:
    """One certificate from pieces placed side by side, each a Certificate
    or a fixed letter tuple: red(starts) -> red(ends).

    Restores the joins of the concatenated starts, runs each piece's
    moves with the ends to its left already in place, then freely
    reduces the concatenated ends.  No search is involved, so the output
    replays whenever every piece does.
    """
    starts: list[Letter] = []
    ends: list[Letter] = []
    moves: list[Move] = []
    for piece in pieces:
        if isinstance(piece, Certificate):
            starts += piece.start.letters()
            moves += _shift_moves(piece.moves, len(ends))
            ends += piece.end.letters()
        else:
            starts += piece
            ends += piece
    red, red_moves = reduction_moves(starts)
    end, end_moves = reduction_moves(ends)
    return Certificate(
        pres, Word.from_letters(red), Word.from_letters(end), _undo(red_moves) + tuple(moves) + end_moves
    )


def conjugated_certificate(cert: Certificate, w: Word) -> Certificate:
    """From a certificate X -> Y, one for red(w X w^-1) -> red(w Y w^-1)."""
    wl = tuple(w.letters())
    return _assemble(cert.presentation, (wl, cert, _inv_word(wl)))


def _shift_moves(moves: tuple[Move, ...], offset: int) -> tuple[Move, ...]:
    return tuple(Move(m.pos + offset, m.u, m.v) for m in moves)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    """The limits of one search: it holds at most `max_states` states,
    spelling at most `max_states * max_len` letters in all, and inserts
    no relator into a word that would then exceed `max_len` letters."""

    max_states: int = 60_000
    max_len: int = 64


def _search_letters(pres: ArtinPresentation, w: Word) -> tuple[Letter, ...]:
    """The letters of a word given to a search, freely reduced since a
    Word is syllable-reduced.  A word of more than MAX_CERT_LETTERS
    letters raises WordTooLongError before it is expanded, and one on
    generators outside `pres` ValueError: replay would refuse either
    certificate anyway."""
    if w.letter_length() > MAX_CERT_LETTERS:
        raise WordTooLongError(f"word has more than {MAX_CERT_LETTERS} letters")
    foreign = sorted(set(w.generators_used()).difference(pres.generators))
    if foreign:
        raise ValueError(f"word uses generators {foreign} outside the presentation")
    return tuple(w.letters())


def reduction_moves(letters: tuple[Letter, ...]) -> tuple[tuple[Letter, ...], tuple[Move, ...]]:
    """Freely reduce with the leftmost-pair strategy, recording moves.
    The stack holds the reduced prefix, so a letter that cancels its top
    makes the leftmost inverse pair of the current word."""
    moves = []
    out: list[Letter] = []
    for l in letters:
        if out and out[-1][0] == l[0] and out[-1][1] == -l[1]:
            moves.append(Move(len(out) - 1, (out.pop(), l), ()))
        else:
            out.append(l)
    return tuple(out), tuple(moves)


def check_rule_table(pres: ArtinPresentation) -> None:
    """Raise WordTooLongError unless the search's rule table of `pres`
    can be built: at most MAX_CODES letter codes, and at most
    MAX_CERT_LETTERS letters, 16 m^2, in the rules of each finite pair.
    Case "a" of `subgroups.verify_abelian` builds no table but refuses
    the same presentations."""
    if 2 * len(pres.generators) > MAX_CODES:
        raise WordTooLongError(
            f"{len(pres.generators)} generators spell more than {MAX_CODES} letter codes"
        )
    for a, b in pres.finite_pairs():
        m = pres.m(a, b)
        if 16 * m * m > MAX_CERT_LETTERS:
            raise WordTooLongError(f"the rules of m({a},{b}) = {m} spell more than {MAX_CERT_LETTERS} letters")


class _Rules:
    """The balanced rules of a presentation over code strings.

    `pairs` holds, per finite pair in `finite_pairs` order, the pair,
    its window length m, a dict from each window u to the variants
    rewriting it, and per variant the code strings of v and of the
    insert word u v^-1.  Letter codes are code points, ranked by
    bisecting `gens`, the sorted generator names; `check_rule_table`
    refuses an alphabet of more than MAX_CODES letters.
    """

    def __init__(self, pres: ArtinPresentation):
        check_rule_table(pres)
        self.gens = sorted(pres.generators)
        self.pairs = []
        for a, b in pres.finite_pairs():
            rules = relator_rules(pres, a, b)
            windows: dict[str, list[int]] = {}
            variants = []
            for variant, (u, v) in enumerate(rules):
                windows.setdefault(self.encode(u), []).append(variant)
                variants.append((self.encode(v), self.encode(u + _inv_word(v))))
            self.pairs.append(((a, b), len(rules[0][0]), windows, variants))

    def encode(self, letters) -> str:
        return "".join([chr(2 * bisect_left(self.gens, g) + (s == 1)) for g, s in letters])

    def decode(self, codes: str) -> tuple[Letter, ...]:
        return tuple([(self.gens[c >> 1], 1 if c & 1 else -1) for c in map(ord, codes)])


@lru_cache(maxsize=64)
def _rule_table(pres: ArtinPresentation) -> _Rules:
    """The rule table of `pres`, built once per presentation (of the 64
    used last: a long process may meet many presentations)."""
    return _Rules(pres)


def _splice(letters: str, pos: int, end: int, mid: str):
    """Free reduction of letters[:pos] + mid + letters[end:], as three
    code strings to concatenate.

    Both `letters` and `mid` are freely reduced, so only the junctions
    can cancel: first the left one, then the right one, and once `mid`
    is used up, the prefix against the suffix.
    """
    i, j, k, s, n = pos, 0, len(mid), end, len(letters)
    while i and j < k and ord(letters[i - 1]) ^ 1 == ord(mid[j]):
        i -= 1
        j += 1
    while j < k and s < n and ord(mid[k - 1]) ^ 1 == ord(letters[s]):
        k -= 1
        s += 1
    if j == k:
        while i and s < n and ord(letters[i - 1]) ^ 1 == ord(letters[s]):
            i -= 1
            s += 1
    return letters[:i], mid[j:k], letters[s:]


# A transition op is ("rewrite"|"insert", pos, (a, b), variant).


def _transitions(rules: _Rules, letters: str, max_len: int):
    """Successors of a freely reduced code string with their ops: per
    pair and variant, rewrites by ascending position, then inserts.

    An insert word is freely reduced too, so it cancels only against a
    neighbour that inverts its first or its last letter; elsewhere the
    successor is the plain concatenation, with no splice.  On the
    flat_certificates benchmark that holds for 69% of inserts, and it
    cuts the benchmark's wall time by 10% (perf/BENCH_search_codes.json).
    """
    n = len(letters)
    for pair, m, windows, variants in rules.pairs:
        hits: dict[int, list[int]] = {}
        for pos in range(n - m + 1):
            for variant in windows.get(letters[pos : pos + m], ()):
                hits.setdefault(variant, []).append(pos)
        can_insert = n + 2 * m <= max_len
        for variant, (v, ins) in enumerate(variants):
            for pos in hits.get(variant, ()):
                a, b, c = _splice(letters, pos, pos + m, v)
                yield a + b + c, ("rewrite", pos, pair, variant)
            if can_insert:
                left, right = chr(ord(ins[0]) ^ 1), chr(ord(ins[-1]) ^ 1)
                for pos in range(n + 1):
                    if pos and letters[pos - 1] == left or pos < n and letters[pos] == right:
                        a, b, c = _splice(letters, pos, pos, ins)
                        nxt = a + b + c
                    else:
                        nxt = letters[:pos] + ins + letters[pos:]
                    yield nxt, ("insert", pos, pair, variant)


def _expand_op(pres: ArtinPresentation, letters: tuple[Letter, ...], op) -> tuple[Move, ...]:
    """Turn one search transition into elementary moves from `letters`."""
    kind, pos, pair, variant = op
    u, v = relator_rules(pres, *pair)[variant]
    m = len(u)
    moves: list[Move] = []
    if kind == "rewrite":
        moves.append(Move(pos, u, v))
        mid = letters[:pos] + v + letters[pos + m :]
    else:  # insert u * v^-1 at pos, built as v v^-1 then one rewrite v -> u
        moves.extend(Move(pos + j, (), (l, _inv(l))) for j, l in enumerate(v))
        moves.append(Move(pos, v, u))
        mid = letters[:pos] + u + _inv_word(v) + letters[pos:]
    moves.extend(reduction_moves(mid)[1])
    return tuple(moves)


def _reconstruct(parents: dict, state: str) -> list:
    """Op chain from the search root to `state`."""
    chain = []
    while True:
        prev, op = parents[state]
        if op is None:
            break
        chain.append((prev, op))
        state = prev
    chain.reverse()
    return chain


def _search(
    pres: ArtinPresentation, roots: tuple, budget: Budget, goal: int
) -> tuple[tuple[Letter, ...], tuple[Move, ...]] | None:
    """Best-first search, shortest word first, from the freely reduced
    `roots`: one start word, or a pair (source, target).

    From one root it stops at the first word of at most `goal` letters,
    the root itself included, and returns (word, moves to it); when the
    budget is spent it returns the (len, word)-smallest state it
    expanded.  From two roots, with `goal` -1, it grows the side that
    holds fewer states and stops when a new state is already held by the
    other side, returning (target, moves source -> target), or None when
    the budget is spent.  The budget is spent when the sides together
    hold `budget.max_states` states, or states that spell
    `budget.max_states * budget.max_len` letters in all, which only
    roots longer than `budget.max_len` can reach first.

    The roots are letter tuples; the states are their code strings, and
    a heap entry (len, depth, state) orders them as it would the letter
    tuples, since code strings compare code point by code point.
    """
    source, *target = roots
    if len(source) <= goal or target == [source]:
        return source, ()
    rules = _rule_table(pres)
    codes = [rules.encode(root) for root in roots]
    parents = [{code: (None, None)} for code in codes]
    heaps = [[(len(code), 0, code)] for code in codes]
    if not target:
        parents.append({})
        heaps.append([])
    held, best = len(codes), codes[0]
    letters, max_letters = sum(map(len, codes)), budget.max_states * budget.max_len

    def path(side: int, state: str) -> tuple[Move, ...]:
        chain = _reconstruct(parents[side], state)
        return tuple(mv for prev, op in chain for mv in _expand_op(pres, rules.decode(prev), op))

    def finish(state: str):
        if target:
            return target[0], path(0, state) + _undo(path(1, state))
        return rules.decode(state), path(0, state)

    while (heaps[0] or heaps[1]) and held < budget.max_states and letters < max_letters:
        side = 0 if heaps[0] and (not heaps[1] or len(parents[0]) <= len(parents[1])) else 1
        seen, other, heap = parents[side], parents[1 - side], heaps[side]
        _, depth, state = heapq.heappop(heap)
        if (len(state), state) < (len(best), best):
            best = state
        for nxt, op in _transitions(rules, state, budget.max_len):
            if nxt in seen:
                continue
            seen[nxt] = (state, op)
            held += 1
            letters += len(nxt)
            if len(nxt) <= goal or other and nxt in other:  # a lone root's other side is empty
                return finish(nxt)
            heapq.heappush(heap, (len(nxt), depth + 1, nxt))
            if held >= budget.max_states or letters >= max_letters:
                break
    return None if target else finish(best)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def _conjugation_chain(
    pres: ArtinPresentation,
    conj: tuple[Letter, ...],
    core: tuple[Letter, ...],
    layer_budget: Budget,
) -> tuple[tuple[Move, ...], tuple[Letter, ...]]:
    """Moves (conj^-1 core conj) -> h with h short, peeling one
    conjugating letter per layer.  conj = (c_1 ... c_n) wraps as
    c_n^-1 ... c_1^-1 core c_1 ... c_n, so layers run from c_1 out.
    `core` is freely reduced.  The move list starts from the raw nested
    letter sequence."""
    h = tuple(core)
    total_moves: list[Move] = []
    for c in conj:
        raw = (_inv(c),) + h + (c,)
        # previous moves now act inside  c^-1 [ ... ] c
        total_moves = list(_shift_moves(tuple(total_moves), 1))
        red, red_moves = reduction_moves(raw)
        total_moves.extend(red_moves)
        h, short_moves = _search(pres, (red,), layer_budget, len(core))
        total_moves.extend(short_moves)
    return tuple(total_moves), h


def _find_commutator_split(letters: tuple[Letter, ...]):
    """(p, q) with letters = p q p^-1 q^-1 and p, q nonempty, the
    shortest such p first, or None.  The inverse half starts at n/2,
    since |p q| = |p^-1 q^-1|, and it spells (q p)^-1: a rotation of
    the first half, inverted.  Rotation i of the first half is the
    substring at i of that half doubled, so one substring search over
    the word spelled one character per letter finds the least i."""
    n = len(letters)
    half = n // 2
    if n % 2:
        return None
    chars: dict[Letter, str] = {}

    def spell(word: tuple[Letter, ...]) -> str:
        return "".join(chars.setdefault(l, chr(len(chars))) for l in word)

    first = spell(letters[:half])
    i = (first + first).find(spell(_inv_word(letters[half:])), 1)
    if 0 < i < half:
        return letters[:i], letters[i:half]
    return None


def _peel(red: tuple[Letter, ...], target: tuple[Letter, ...]):
    """(conj, core) with red = conj^-1 core conj for the longest such
    conj, when it has at least two letters and red is longer than
    `target`; else ((), red), which the ladder searches directly."""
    n = len(red)
    k = 0
    while 2 * (k + 1) < n and red[k] == _inv(red[n - 1 - k]):
        k += 1
    if k < 2 or n <= len(target):
        return (), red
    return _inv_word(red[:k]), red[k : n - k]


DEFAULT_BUDGET = Budget()


def _search_ladder(
    pres: ArtinPresentation,
    conj: tuple[Letter, ...],
    core: tuple[Letter, ...],
    target: tuple[Letter, ...],
    budget: Budget,
) -> tuple[Move, ...] | None:
    """Moves from the nesting conj^-1 core conj to `target`, or None.

    The conjugator is peeled layer by layer, each layer searching with
    at most 4,000 states, and the short result meets `target` in the
    middle; an empty `conj` leaves one direct search from `core`.
    """
    layer_budget = Budget(max_states=min(4000, budget.max_states), max_len=budget.max_len)
    chain_moves, h = _conjugation_chain(pres, conj, core, layer_budget)
    found = _search(pres, (h, target), budget, -1)
    return None if found is None else chain_moves + found[1]


def prove_conjugation(
    pres: ArtinPresentation, g: Word, x: Word, budget: Budget = DEFAULT_BUDGET
) -> Certificate | None:
    """Certificate rewriting the reduced form of  g x g^-1  into  x.

    Junction cancellations in g x g^-1 are handled by starting the move
    list with inserts that restore the unreduced layout, after which
    the conjugator is peeled letter by letter."""
    gl, xl = _search_letters(pres, g), _search_letters(pres, x)
    raw = gl + xl + _inv_word(gl)
    # Peel the conjugator from the inside: the word is
    # (g^-1)^-1 x (g^-1), so the chain argument is g^-1.
    moves = _search_ladder(pres, _inv_word(gl), xl, xl, budget)
    if moves is None:
        return None
    return Certificate(pres, Word.from_letters(raw), x, _undo(reduction_moves(raw)[1]) + moves)


def prove_commutator(
    pres: ArtinPresentation, a: Word, b: Word, budget: Budget = DEFAULT_BUDGET
) -> Certificate | None:
    """Certificate that the commutator  a b a^-1 b^-1  is trivial."""
    conj = prove_conjugation(pres, a, b, budget)
    if conj is None:
        return None
    return commutator_from_conjugation(conj)


def commutator_from_conjugation(conj: Certificate) -> Certificate:
    """Upgrade a certificate  g x g^-1 -> x  to one for the commutator.

    The result starts at the reduced form of (g x g^-1) x^-1 and ends
    empty: the conjugation certificate runs beside a fixed x^-1, and
    x x^-1 cancels at the end."""
    return _assemble(conj.presentation, (conj, _inv_word(tuple(conj.end.letters()))))


def conjugation_product(
    pres: ArtinPresentation, g: Word, factors: list[Word], certs: list[Certificate]
) -> Certificate:
    """Combine certificates  red(g f_i g^-1) -> f_i  into one for
    red(g f_1...f_n g^-1) -> red(f_1...f_n).

    The certificates are placed side by side: the joins between the
    spans g f_i g^-1 are restored, each certificate runs on its span,
    and the concatenated factors are freely reduced at the end, so
    adjacent factors may cancel.
    """
    if not certs or len(certs) != len(factors):
        raise ValueError("need one certificate per factor")
    for c, f in zip(certs, factors):
        if c.presentation != pres:
            raise ValueError("certificate over a different presentation")
        if c.end != f:
            raise ValueError("certificate end does not match its factor")
        if c.start != g * f * g.inverse():
            raise ValueError("certificate start is not red(g f g^-1)")
    return _assemble(pres, certs)


def prove_trivial(pres: ArtinPresentation, w: Word, budget: Budget = DEFAULT_BUDGET) -> Certificate | None:
    """Certificate rewriting w into the empty word, or None (which only
    ever means 'not found within budget', never 'nontrivial')."""
    letters = _search_letters(pres, w)
    split = _find_commutator_split(letters)
    if split is not None:
        p, q = split
        comm = prove_commutator(pres, Word.from_letters(p), Word.from_letters(q), budget)
        if comm is not None:
            return Certificate(pres, w, Word(), comm.moves)
    moves = _search_ladder(pres, *_peel(letters, ()), (), budget)
    if moves is None:
        return None
    return Certificate(pres, w, Word(), moves)


def prove_equal(pres: ArtinPresentation, u: Word, v: Word, budget: Budget = DEFAULT_BUDGET) -> Certificate | None:
    """Certificate rewriting u into v, or None within budget.

    Tries the search ladder from u to v first; if that fails, proves
    u v^-1 trivial and places that certificate beside a fixed v."""
    ul, vl = _search_letters(pres, u), _search_letters(pres, v)
    moves = _search_ladder(pres, *_peel(ul, vl), vl, budget)
    if moves is not None:
        return Certificate(pres, u, v, moves)
    triv = prove_trivial(pres, u * v.inverse(), budget)
    if triv is None:
        return None
    return _assemble(pres, (triv, vl))
