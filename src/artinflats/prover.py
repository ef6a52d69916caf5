"""Certificate-producing word-problem prover.

A certificate is a start word, an end word, and a list of elementary
moves, each of which is checkable in isolation:

    cancel  -- delete an adjacent inverse pair  g^e g^-e  at a position
    insert  -- insert such a pair
    relator -- replace a length-m window matching the left side of a
               balanced relator rule by its right side

Balanced rules come from the rotations of each defining relator and of
its inverse, so the rule set is closed under inversion and certificates
can be inverted move by move.  `replay` is a tiny independent
interpreter: it shares no code with the search and validates every move
against the current letter string.

The search works on freely reduced letter tuples.  A transition is a
rule application or a whole-relator insertion followed by free
reduction; each transition expands deterministically into elementary
moves.  Equality searches run bidirectionally and meet in the middle.
Long conjugated words are handled by peeling the conjugator one letter
at a time and shortening the core with small searches, which keeps the
intermediate words short enough for the meet-in-the-middle step.

Search states are tuples of integer letter codes, 2*rank(g) + (s == 1)
with rank the generator's index in sorted order, so codes sort like the
(g, s) letters they stand for and c ^ 1 is the inverse of c.  A
transition only cancels at the junctions of the spliced-in window, and
states are decoded back to letters only along a found chain.
"""

from __future__ import annotations

import json
import heapq
from dataclasses import dataclass
from functools import lru_cache

from artinflats.presentation import ArtinPresentation, Word

Letter = tuple[str, int]  # (generator, +1 or -1)

CERTIFICATE_VERSION = 1


class ReplayError(ValueError):
    """A certificate move failed validation."""


class SearchBudgetError(RuntimeError):
    """A proof search hit its budget before finding a certificate.

    Raised by callers that need a certificate unconditionally; the
    search functions themselves return None, which never means the
    identity is false, only that it was not found within the budget.
    """


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Move:
    kind: str  # "cancel" | "insert" | "relator"
    pos: int
    letter: Letter | None = None  # for cancel/insert
    pair: tuple[str, str] | None = None  # for relator
    variant: int | None = None

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind, "pos": self.pos}
        if self.kind in ("cancel", "insert"):
            d["letter"] = [self.letter[0], self.letter[1]]
        else:
            d["pair"] = list(self.pair)
            d["variant"] = self.variant
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Move":
        kind = d["kind"]
        if kind in ("cancel", "insert"):
            g, s = d["letter"]
            return cls(kind, int(d["pos"]), letter=(str(g), int(s)))
        if kind == "relator":
            a, b = d["pair"]
            return cls(kind, int(d["pos"]), pair=(str(a), str(b)), variant=int(d["variant"]))
        raise ReplayError(f"unknown move kind {kind!r}")


def _inv(letter: Letter) -> Letter:
    return (letter[0], -letter[1])


def _inv_word(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    return tuple(_inv(l) for l in reversed(letters))


@lru_cache(maxsize=None)
def _rules_for(m: int, a: str, b: str) -> tuple[tuple[tuple[Letter, ...], tuple[Letter, ...]], ...]:
    """Balanced rules (u, v) with |u| = |v| = m for the pair (a, b).

    Deterministic order: rotations of the defining relator, then of its
    inverse, duplicates dropped keeping the first occurrence.
    """
    gens = (a, b)
    side0 = tuple((gens[i % 2], 1) for i in range(m))
    side1 = tuple((gens[(i + 1) % 2], 1) for i in range(m))
    relator = side0 + _inv_word(side1)
    out = []
    seen = set()
    for base in (relator, _inv_word(relator)):
        for r in range(2 * m):
            rot = base[r:] + base[:r]
            u, tail = rot[:m], rot[m:]
            v = _inv_word(tail)
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                out.append((u, v))
    return tuple(out)


def relator_rules(pres: ArtinPresentation, a: str, b: str) -> tuple[tuple[tuple[Letter, ...], tuple[Letter, ...]], ...]:
    m = pres.m(a, b)
    if m is None:
        raise ValueError(f"pair ({a}, {b}) has no relation")
    return _rules_for(m, a, b)


@lru_cache(maxsize=None)
def _inverse_variant_table(m: int, a: str, b: str) -> dict[int, int]:
    rules = _rules_for(m, a, b)
    index = {rule: i for i, rule in enumerate(rules)}
    return {i: index[(v, u)] for i, (u, v) in enumerate(rules)}


@lru_cache(maxsize=None)
def _mirror_variant_table(m: int, a: str, b: str) -> dict[int, int]:
    # (u, v) -> (u^-1, v^-1) stays a balanced rule: rotations of the
    # relator and its inverse are closed under word inversion.
    rules = _rules_for(m, a, b)
    index = {rule: i for i, rule in enumerate(rules)}
    return {i: index[(_inv_word(u), _inv_word(v))] for i, (u, v) in enumerate(rules)}


def invert_move(pres: ArtinPresentation, move: Move) -> Move:
    if move.kind == "cancel":
        return Move("insert", move.pos, letter=move.letter)
    if move.kind == "insert":
        return Move("cancel", move.pos, letter=move.letter)
    a, b = move.pair
    table = _inverse_variant_table(pres.m(a, b), a, b)
    return Move("relator", move.pos, pair=move.pair, variant=table[move.variant])


def mirror_move(pres: ArtinPresentation, move: Move, length: int) -> Move:
    """Image of `move` under word inversion.

    `length` is the length of the word the move applies to.  Position i
    of that word sits at position length-1-i of its inverse with the
    letter inverted, so a cancelling pair (x, x^-1) at (p, p+1) reads as
    (x, x^-1) again at (length-2-p, length-1-p), and a relator window
    [p, p+m) lands on [length-p-m, length-p) with both rule sides
    inverted letterwise.
    """
    if move.kind == "cancel":
        return Move("cancel", length - 2 - move.pos, letter=move.letter)
    if move.kind == "insert":
        return Move("insert", length - move.pos, letter=move.letter)
    a, b = move.pair
    m = pres.m(a, b)
    table = _mirror_variant_table(m, a, b)
    return Move("relator", length - move.pos - m, pair=move.pair, variant=table[move.variant])


def apply_move(pres: ArtinPresentation, letters: tuple[Letter, ...], move: Move) -> tuple[Letter, ...]:
    """Strictly validated single-move application (used by replay)."""
    n = len(letters)
    if move.kind == "cancel":
        p = move.pos
        if not (0 <= p <= n - 2):
            raise ReplayError(f"cancel position {p} out of range")
        if letters[p] != move.letter or letters[p + 1] != _inv(move.letter):
            raise ReplayError(f"cancel at {p} does not match {move.letter}")
        return letters[:p] + letters[p + 2 :]
    if move.kind == "insert":
        p = move.pos
        if not (0 <= p <= n):
            raise ReplayError(f"insert position {p} out of range")
        g, s = move.letter
        if g not in pres.generators or s not in (1, -1):
            raise ReplayError(f"bad letter {move.letter}")
        return letters[:p] + (move.letter, _inv(move.letter)) + letters[p:]
    if move.kind == "relator":
        a, b = move.pair
        try:
            rules = relator_rules(pres, a, b)
        except (KeyError, ValueError) as exc:
            raise ReplayError(f"relator move on pair ({a}, {b}): {exc.args[0]}") from None
        if not (0 <= move.variant < len(rules)):
            raise ReplayError(f"bad rule variant {move.variant}")
        u, v = rules[move.variant]
        p = move.pos
        if not (0 <= p <= n - len(u)):
            raise ReplayError(f"relator position {p} out of range")
        if letters[p : p + len(u)] != u:
            raise ReplayError(f"window at {p} does not match rule {move.variant} of ({a},{b})")
        return letters[:p] + v + letters[p + len(u) :]
    raise ReplayError(f"unknown move kind {move.kind!r}")


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass
class Certificate:
    presentation: ArtinPresentation
    start: Word
    end: Word
    moves: tuple[Move, ...]
    version: int = CERTIFICATE_VERSION

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": self.version,
                "presentation": self.presentation.to_dict(),
                "start": str(self.start),
                "end": str(self.end),
                "moves": [m.to_dict() for m in self.moves],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        data = json.loads(text)
        if data.get("version") != CERTIFICATE_VERSION:
            raise ReplayError(f"unsupported certificate version {data.get('version')!r}")
        return cls(
            presentation=ArtinPresentation.from_dict(data["presentation"]),
            start=Word.parse(data["start"]),
            end=Word.parse(data["end"]),
            moves=tuple(Move.from_dict(m) for m in data["moves"]),
            version=data["version"],
        )


def replay(cert: Certificate) -> bool:
    """Validate a certificate by running every move.  No search code."""
    try:
        letters = tuple(cert.start.letters())
        for move in cert.moves:
            letters = apply_move(cert.presentation, letters, move)
        return letters == tuple(cert.end.letters())
    except ReplayError:
        return False


def invert_certificate(cert: Certificate) -> Certificate:
    moves = tuple(invert_move(cert.presentation, m) for m in reversed(cert.moves))
    return Certificate(cert.presentation, cert.end, cert.start, moves)


def mirror_certificate(cert: Certificate) -> Certificate:
    """Certificate from start^-1 to end^-1, mirroring each move in order.

    Each move needs the length of the word it acts on, so the original
    moves are replayed alongside the transformation.
    """
    letters = tuple(cert.start.letters())
    moves = []
    for mv in cert.moves:
        moves.append(mirror_move(cert.presentation, mv, len(letters)))
        letters = apply_move(cert.presentation, letters, mv)
    return Certificate(
        cert.presentation, cert.start.inverse(), cert.end.inverse(), tuple(moves)
    )


def compose_certificates(c1: Certificate, c2: Certificate) -> Certificate:
    if c1.presentation != c2.presentation:
        raise ValueError("certificates over different presentations")
    if tuple(c1.end.letters()) != tuple(c2.start.letters()):
        raise ValueError("certificates do not chain: end of first != start of second")
    return Certificate(c1.presentation, c1.start, c2.end, c1.moves + c2.moves)


def conjugated_certificate(cert: Certificate, w: Word) -> Certificate:
    """From a certificate X -> Y, one for red(w X w^-1) -> red(w Y w^-1).

    Restores the junctions of w X w^-1, runs the original moves on the
    inner window, then freely reduces the junctions of the result.  No
    search is involved, so the output replays whenever the input does.
    """
    pres = cert.presentation
    wl = tuple(w.letters())
    raw = wl + tuple(cert.start.letters()) + _inv_word(wl)
    _, red_moves = reduction_moves(raw)
    moves = [invert_move(pres, m) for m in reversed(red_moves)]
    moves.extend(_shift_moves(cert.moves, len(wl)))
    end_raw = wl + tuple(cert.end.letters()) + _inv_word(wl)
    _, end_moves = reduction_moves(end_raw)
    moves.extend(end_moves)
    return Certificate(
        pres, Word.from_letters(raw), Word.from_letters(end_raw), tuple(moves)
    )


def _shift_moves(moves: tuple[Move, ...], offset: int) -> tuple[Move, ...]:
    return tuple(
        Move(m.kind, m.pos + offset, letter=m.letter, pair=m.pair, variant=m.variant)
        for m in moves
    )


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    max_states: int = 60_000
    max_len: int = 64


def _freely_reduce(letters) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for l in letters:
        if out and out[-1][0] == l[0] and out[-1][1] == -l[1]:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def reduction_moves(letters: tuple[Letter, ...]) -> tuple[tuple[Letter, ...], tuple[Move, ...]]:
    """Freely reduce with the leftmost-pair strategy, recording moves."""
    moves = []
    cur = list(letters)
    while True:
        for i in range(len(cur) - 1):
            if cur[i][0] == cur[i + 1][0] and cur[i][1] == -cur[i + 1][1]:
                moves.append(Move("cancel", i, letter=cur[i]))
                del cur[i : i + 2]
                break
        else:
            break
    return tuple(cur), tuple(moves)


class _Rules:
    """The balanced rules of a presentation over letter codes.

    `pairs` holds, per finite pair in `finite_pairs` order, the pair,
    its window length m, a dict from each window u to the variants
    rewriting it, and per variant the codes of v and of the insert word
    u v^-1.
    """

    def __init__(self, pres: ArtinPresentation):
        self.letters = tuple((g, s) for g in sorted(pres.generators) for s in (-1, 1))
        self.code = {letter: c for c, letter in enumerate(self.letters)}
        self.pairs = []
        for a, b in pres.finite_pairs():
            rules = relator_rules(pres, a, b)
            windows: dict[tuple[int, ...], list[int]] = {}
            variants = []
            for variant, (u, v) in enumerate(rules):
                windows.setdefault(self.encode(u), []).append(variant)
                variants.append((self.encode(v), self.encode(u + _inv_word(v))))
            self.pairs.append(((a, b), len(rules[0][0]), windows, variants))

    def encode(self, letters) -> tuple[int, ...]:
        return tuple(self.code[l] for l in letters)

    def decode(self, codes: tuple[int, ...]) -> tuple[Letter, ...]:
        return tuple(self.letters[c] for c in codes)


def _splice(letters: tuple[int, ...], pos: int, end: int, mid: tuple[int, ...]):
    """Free reduction of letters[:pos] + mid + letters[end:], as three
    slices to concatenate.

    Both `letters` and `mid` are freely reduced, so only the junctions
    can cancel: first the left one, then the right one, and once `mid`
    is used up, the prefix against the suffix.
    """
    i, j, k, s, n = pos, 0, len(mid), end, len(letters)
    while i and j < k and letters[i - 1] ^ 1 == mid[j]:
        i -= 1
        j += 1
    while j < k and s < n and mid[k - 1] ^ 1 == letters[s]:
        k -= 1
        s += 1
    if j == k:
        while i and s < n and letters[i - 1] ^ 1 == letters[s]:
            i -= 1
            s += 1
    return letters[:i], mid[j:k], letters[s:]


# A transition op is ("rewrite"|"insert", pos, (a, b), variant).


def _transitions(rules: _Rules, letters: tuple[int, ...], max_len: int):
    """Successors of a freely reduced code tuple with their ops: per
    pair and variant, rewrites by ascending position, then inserts."""
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
                for pos in range(n + 1):
                    a, b, c = _splice(letters, pos, pos, ins)
                    yield a + b + c, ("insert", pos, pair, variant)


def _expand_op(pres: ArtinPresentation, letters: tuple[Letter, ...], op) -> tuple[tuple[Move, ...], tuple[Letter, ...]]:
    """Turn one search transition into elementary moves from `letters`."""
    kind, pos, pair, variant = op
    a, b = pair
    rules = relator_rules(pres, a, b)
    u, v = rules[variant]
    m = len(u)
    moves: list[Move] = []
    if kind == "rewrite":
        moves.append(Move("relator", pos, pair=pair, variant=variant))
        mid = letters[:pos] + v + letters[pos + m :]
    else:  # insert u * v^-1 at pos, built as v v^-1 then one rewrite v -> u
        for j in range(m):
            moves.append(Move("insert", pos + j, letter=v[j]))
        inv_variant = _inverse_variant_table(m, a, b)[variant]
        moves.append(Move("relator", pos, pair=pair, variant=inv_variant))
        mid = letters[:pos] + u + _inv_word(v) + letters[pos:]
    red, rmoves = reduction_moves(mid)
    moves.extend(rmoves)
    return tuple(moves), red


def _reconstruct(parents: dict, state: tuple) -> list:
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


def _ops_to_moves(pres: ArtinPresentation, rules: _Rules, chain: list) -> tuple[Move, ...]:
    moves: list[Move] = []
    for prev, op in chain:
        step_moves, _ = _expand_op(pres, rules.decode(prev), op)
        moves.extend(step_moves)
    return tuple(moves)


def _bidirectional_search(
    pres: ArtinPresentation,
    source: tuple[Letter, ...],
    target: tuple[Letter, ...],
    budget: Budget,
) -> tuple[Move, ...] | None:
    """Moves transforming `source` into `target` (both freely reduced),
    or None if the budget is exhausted first."""
    if source == target:
        return ()
    rules = _Rules(pres)
    sides = tuple(
        {"parents": {root: (None, None)}, "heap": [(len(root), 0, root)]}
        for root in (rules.encode(source), rules.encode(target))
    )
    visited_total = 2

    def assemble(meet: tuple) -> tuple[Move, ...]:
        fwd = _ops_to_moves(pres, rules, _reconstruct(sides[0]["parents"], meet))
        back_chain = _reconstruct(sides[1]["parents"], meet)
        back_moves = _ops_to_moves(pres, rules, back_chain)  # target -> meet
        inverted = tuple(invert_move(pres, m) for m in reversed(back_moves))
        return fwd + inverted

    while (sides[0]["heap"] or sides[1]["heap"]) and visited_total < budget.max_states:
        idx = 0 if sides[0]["heap"] and (
            not sides[1]["heap"] or len(sides[0]["parents"]) <= len(sides[1]["parents"])
        ) else 1
        side, other = sides[idx], sides[1 - idx]
        ln, depth, state = heapq.heappop(side["heap"])
        for nxt, op in _transitions(rules, state, budget.max_len):
            if nxt in side["parents"]:
                continue
            side["parents"][nxt] = (state, op)
            visited_total += 1
            if nxt in other["parents"]:
                return assemble(nxt)
            heapq.heappush(side["heap"], (len(nxt), depth + 1, nxt))
            if visited_total >= budget.max_states:
                break
    return None


def _best_effort_shorten(
    pres: ArtinPresentation, start: tuple[Letter, ...], budget: Budget
) -> tuple[tuple[Letter, ...], tuple[Move, ...]]:
    """Small single-sided search; returns the (len, word)-smallest state
    reached and the moves to it.  Falls back to `start` itself."""
    rules = _Rules(pres)
    root = rules.encode(start)
    parents = {root: (None, None)}
    heap = [(len(root), 0, root)]
    best = root
    while heap and len(parents) < budget.max_states:
        ln, depth, state = heapq.heappop(heap)
        if (len(state), state) < (len(best), best):
            best = state
        for nxt, op in _transitions(rules, state, budget.max_len):
            if nxt not in parents:
                parents[nxt] = (state, op)
                heapq.heappush(heap, (len(nxt), depth + 1, nxt))
    return rules.decode(best), _ops_to_moves(pres, rules, _reconstruct(parents, best))


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
    The move list starts from the raw nested letter sequence."""
    if not conj:
        red, red_moves = reduction_moves(core)
        return red_moves, red
    h = tuple(core)
    total_moves: list[Move] = []
    for c in conj:
        raw = (_inv(c),) + h + (c,)
        # previous moves now act inside  c^-1 [ ... ] c
        total_moves = list(_shift_moves(tuple(total_moves), 1))
        red, red_moves = reduction_moves(raw)
        total_moves.extend(red_moves)
        h, short_moves = _best_effort_shorten(pres, red, layer_budget)
        total_moves.extend(short_moves)
    return tuple(total_moves), h


def _find_commutator_split(letters: tuple[Letter, ...]):
    n = len(letters)
    for i in range(1, n - 2):
        for j in range(i + 1, n - 1):
            p, q, rest = letters[:i], letters[i:j], letters[j:]
            if rest == _inv_word(p) + _inv_word(q):
                return p, q
    return None


def _conjugator_prefix(letters: tuple[Letter, ...]) -> int:
    """Largest k with letters = c^-1 x c, |c| = k (possibly 0)."""
    n = len(letters)
    k = 0
    while 2 * (k + 1) < n and letters[k] == _inv(letters[n - 1 - k]):
        k += 1
    return k


DEFAULT_BUDGET = Budget()


def _layer_budget(budget: Budget) -> Budget:
    return Budget(max_states=min(4000, budget.max_states), max_len=budget.max_len)


def prove_conjugation(
    pres: ArtinPresentation, g: Word, x: Word, budget: Budget = DEFAULT_BUDGET
) -> Certificate | None:
    """Certificate rewriting the reduced form of  g x g^-1  into  x.

    Junction cancellations in g x g^-1 are handled by starting the move
    list with inserts that restore the unreduced layout, after which
    the conjugator is peeled letter by letter."""
    gl, xl = tuple(g.letters()), tuple(x.letters())
    raw = gl + xl + _inv_word(gl)
    red, red_moves = reduction_moves(raw)
    restore = tuple(invert_move(pres, m) for m in reversed(red_moves))
    start = Word.from_letters(raw)
    # Peel the conjugator from the inside: the word is
    # (g^-1)^-1 x (g^-1), so the chain argument is g^-1.
    chain_moves, h = _conjugation_chain(pres, _inv_word(gl), xl, _layer_budget(budget))
    tail = _bidirectional_search(pres, h, xl, budget)
    if tail is None:
        direct = _bidirectional_search(pres, red, xl, budget)
        if direct is None:
            return None
        return Certificate(pres, start, x, direct)
    return Certificate(pres, start, x, restore + chain_moves + tail)


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
    empty: restore the junction, run the conjugation certificate on the
    prefix (the x^-1 suffix rides along), then cancel x x^-1."""
    pres = conj.presentation
    xl = tuple(conj.end.letters())
    raw = tuple(conj.start.letters()) + _inv_word(xl)
    red, red_moves = reduction_moves(raw)
    restore = tuple(invert_move(pres, m) for m in reversed(red_moves))
    moves = list(restore) + list(conj.moves)
    _, cancels = reduction_moves(xl + _inv_word(xl))
    moves.extend(cancels)
    return Certificate(pres, Word.from_letters(raw), Word(), tuple(moves))


def conjugation_product(
    pres: ArtinPresentation, g: Word, factors: list[Word], certs: list[Certificate]
) -> Certificate:
    """Combine certificates  red(g f_i g^-1) -> f_i  into one for
    red(g f_1...f_n g^-1) -> f_1...f_n.

    The factor concatenation must be freely reduced as written (no
    cancellation between adjacent factors); junctions with g may cancel
    freely.  Works by splitting off one factor at a time: insert g^-1 g
    after f_1, locally reduce the g f_1 g^-1 span to the cert's start,
    apply the cert, repeat.
    """
    if not certs or len(certs) != len(factors):
        raise ValueError("need one certificate per factor")
    gl = tuple(g.letters())
    fls = [tuple(f.letters()) for f in factors]
    whole = tuple(l for f in fls for l in f)
    if _freely_reduce(whole) != whole:
        raise ValueError("factor concatenation is not freely reduced")
    for c, f in zip(certs, factors):
        if c.presentation != pres:
            raise ValueError("certificate over a different presentation")
        if tuple(c.end.letters()) != tuple(f.letters()):
            raise ValueError("certificate end does not match its factor")
        expect = Word.from_letters(gl + tuple(f.letters()) + _inv_word(gl))
        if c.start != expect:
            raise ValueError("certificate start is not red(g f g^-1)")
    raw = gl + whole + _inv_word(gl)
    red, red_moves = reduction_moves(raw)
    moves: list[Move] = [invert_move(pres, m) for m in reversed(red_moves)]
    done = 0  # letters already finalised on the left
    for i, (cert, fl) in enumerate(zip(certs, fls)):
        if i < len(fls) - 1:
            # insert g^-1 g right after f_i: sequential pair inserts
            # build inv(g_n)...inv(g_1) g_1...g_n left to right.
            at = done + len(gl) + len(fl)
            for j in range(len(gl)):
                moves.append(Move("insert", at + j, letter=_inv(gl[len(gl) - 1 - j])))
        # the span [done : done+|g|+|f_i|+|g|] now spells g f_i g^-1
        _, span_moves = reduction_moves(gl + fl + _inv_word(gl))
        moves.extend(_shift_moves(span_moves, done))
        moves.extend(_shift_moves(cert.moves, done))
        done += len(fl)
    return Certificate(pres, Word.from_letters(raw), Word.from_letters(whole), tuple(moves))


def prove_trivial(pres: ArtinPresentation, w: Word, budget: Budget = DEFAULT_BUDGET) -> Certificate | None:
    """Certificate rewriting w into the empty word, or None (which only
    ever means 'not found within budget', never 'nontrivial')."""
    letters = tuple(w.letters())
    red, red_moves = reduction_moves(letters)
    if not red:
        return Certificate(pres, w, Word(), red_moves)
    split = _find_commutator_split(red)
    if split is not None:
        p, q = split
        conj = prove_conjugation(pres, Word.from_letters(p), Word.from_letters(q), budget)
        if conj is not None:
            comm = commutator_from_conjugation(conj)
            return Certificate(pres, w, Word(), red_moves + comm.moves)
    k = _conjugator_prefix(red)
    if k >= 2:
        # red = p x p^-1 with p = red[:k]; the chain argument is p^-1.
        chain_moves, h = _conjugation_chain(
            pres, _inv_word(red[:k]), red[k : len(red) - k], _layer_budget(budget)
        )
        tail = _bidirectional_search(pres, h, (), budget)
        if tail is not None:
            return Certificate(pres, w, Word(), red_moves + chain_moves + tail)
    direct = _bidirectional_search(pres, red, (), budget)
    if direct is None:
        return None
    return Certificate(pres, w, Word(), red_moves + direct)


def prove_equal(pres: ArtinPresentation, u: Word, v: Word, budget: Budget = DEFAULT_BUDGET) -> Certificate | None:
    """Certificate rewriting u into v, or None within budget.

    Tries a direct meet-in-the-middle search first; if that fails,
    proves u v^-1 trivial and repackages (insert v^-1 v at the end of
    u, erase the u v^-1 prefix, leaving v)."""
    ul, vl = tuple(u.letters()), tuple(v.letters())
    ur, u_moves = reduction_moves(ul)
    vr, v_moves = reduction_moves(vl)
    kp = _conjugator_prefix(ur)
    if kp >= 2 and len(ur) > len(vr):
        # ur = p x p^-1; peel p, then meet the short core with v.
        chain_moves, h = _conjugation_chain(
            pres, _inv_word(ur[:kp]), ur[kp : len(ur) - kp], _layer_budget(budget)
        )
        tail = _bidirectional_search(pres, h, vr, budget)
        if tail is not None:
            moves = u_moves + chain_moves + tail + tuple(
                invert_move(pres, m) for m in reversed(v_moves)
            )
            return Certificate(pres, u, v, moves)
    direct = _bidirectional_search(pres, ur, vr, budget)
    if direct is not None:
        moves = u_moves + direct + tuple(invert_move(pres, m) for m in reversed(v_moves))
        return Certificate(pres, u, v, moves)
    product = u * v.inverse()
    triv = prove_trivial(pres, product, budget)
    if triv is None:
        return None
    # u -> u v^-1 v -> (empty) v
    moves = []
    n = len(vl)
    for j in range(n):
        moves.append(Move("insert", len(ul) + j, letter=_inv(vl[n - 1 - j])))
    spliced = ul + _inv_word(vl) + vl
    red, rmoves = reduction_moves(spliced[: len(ul) + n])
    # reduce only the u v^-1 prefix; suffix v untouched by positions
    moves.extend(rmoves)
    if red != tuple(product.letters()):
        raise AssertionError("free reduction mismatch while repackaging")
    moves.extend(triv.moves)
    return Certificate(pres, u, v, tuple(moves))
