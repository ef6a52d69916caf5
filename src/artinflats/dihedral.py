"""Exact word problem for dihedral Artin groups, two independent ways.

For two generators x, y with exponent m, the group element Delta is the
alternating product of length m (x y x ... = y x y ...).  Every element
has a unique left-greedy normal form

    Delta^p  f_1 f_2 ... f_k

where each factor f_i is a *simple* element -- an alternating word of
length strictly between 0 and m -- and each adjacent pair (f_i, f_{i+1})
is left-weighted: the first letter of f_{i+1} equals the last letter of
f_i, so no letter can migrate leftwards.  Simples are encoded as
(start_letter, length) with letters 0 and 1 and 0 < length < m; Delta
only ever appears as the power p, never as a factor.

The normal form is built by multiplying on the right one letter at a
time.  A positive letter either extends the last factor, opens a new
factor (when it repeats the last letter), or completes Delta; then the
last factor is dropped and, because  x Delta = Delta tau(x)  with tau
the letter swap for odd m (the identity for even m), the factors left
of it are twisted.  The twist is kept as a parity rather than applied.
An inverse letter c^-1 is Delta^-1 L, where L is the simple of length
m - 1 with L c = Delta.

The second route is a breadth-first closure over raw letter strings
under free cancellation, free insertion, and balanced relator rewrites
(u -> v with |u| = |v| = m, one rule for every rotation of the defining
relator and of its inverse).  The moves commute with eight string
symmetries (swap a and b, invert every letter, reverse the string, and
their products), so the closure works on orbits: it stores and expands
only each orbit's canonical representative, the least of its eight
images, and its `visited_count` counts representatives.  An
`IdentityBall` keeps the representatives and answers `in` by
canonicalising.  The two implementations share no code and are played
against each other in the tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from artinflats.presentation import ArtinPresentation, Word

Simple = tuple[int, int]  # (start_letter, length), 0 < length < m


class _Chain:
    """Delta^power tau^twist(f_1 ... f_k), multiplied on the right in place.

    The factors are stored untwisted; letters are twisted on the way in
    and the factors on the way out.
    """

    __slots__ = ("m", "power", "twist", "factors")

    def __init__(self, m: int, power: int = 0, factors: tuple[Simple, ...] = ()):
        self.m = m
        self.power = power
        self.twist = 0
        self.factors = list(factors)

    def delta(self, n: int) -> None:
        """Multiply by Delta^n, using  x Delta^n = Delta^n tau^n(x)."""
        self.power += n
        self.twist ^= n & self.m & 1

    def push(self, letter: int, sign: int) -> None:
        """Multiply by the letter (0 or 1) raised to sign (+1 or -1)."""
        if sign < 0:
            # c^-1 = Delta^-1 L, where L alternates for m - 1 letters and
            # ends on 1 - c, so that L c = Delta.
            self.delta(-1)
            start = (1 - letter) ^ (self.m & 1)
            for i in range(self.m - 1):
                self.push(start ^ (i & 1), 1)
            return
        letter ^= self.twist
        factors = self.factors
        if factors:
            start, ln = factors[-1]
            if letter == start ^ (ln & 1):  # continues the alternation
                if ln + 1 == self.m:
                    factors.pop()
                    self.delta(1)
                else:
                    factors[-1] = (start, ln + 1)
                return
        factors.append((letter, 1))

    def normal_form(self, generators: tuple[str, str]) -> NormalForm:
        t = self.twist
        # tuple() of a list sizes the tuple exactly; of a generator it
        # over-allocates, and the tuple free lists keep ~1.5 MiB of that
        # on a sweep.
        return NormalForm(generators, self.m, self.power, tuple([(s ^ t, ln) for s, ln in self.factors]))


@dataclass(frozen=True)
class NormalForm:
    generators: tuple[str, str]
    m: int
    power: int
    factors: tuple[Simple, ...]

    @property
    def is_identity(self) -> bool:
        return self.power == 0 and not self.factors

    def factor_word(self, f: Simple) -> str:
        start, ln = f
        return "".join(self.generators[(start + i) % 2] for i in range(ln))

    def __str__(self) -> str:
        if self.is_identity:
            return "e"
        parts = []
        if self.power:
            parts.append(f"delta^{self.power}")
        parts.extend(self.factor_word(f) for f in self.factors)
        return " * ".join(parts)

    def to_word(self) -> Word:
        """A word spelling this element: Delta^power then the factors."""
        letters: list[tuple[str, int]] = []
        delta = [(self.generators[i % 2], 1) for i in range(self.m)]
        if self.power >= 0:
            letters.extend(delta * self.power)
        else:
            inv = [(g, -e) for g, e in reversed(delta)]
            letters.extend(inv * (-self.power))
        for f in self.factors:
            start, ln = f
            letters.extend((self.generators[(start + i) % 2], 1) for i in range(ln))
        return Word.from_letters(letters)


def _require_dihedral(pres: ArtinPresentation) -> tuple[str, str, int]:
    if len(pres.generators) != 2:
        raise ValueError("dihedral operations need exactly two generators")
    a, b = pres.generators
    m = pres.m(a, b)
    if m is None:
        raise ValueError("dihedral operations need a finite exponent")
    return a, b, m


def subpresentation(pres: ArtinPresentation, a: str, b: str) -> ArtinPresentation:
    """The two-generator presentation spanned by a and b (finite m required)."""
    m = pres.m(a, b)
    if m is None:
        raise ValueError(f"pair ({a}, {b}) has no relation")
    return ArtinPresentation((a, b), {(a, b): m})


def normal_form(pres: ArtinPresentation, word: Word) -> NormalForm:
    a, b, m = _require_dihedral(pres)
    index = {a: 0, b: 1}
    chain = _Chain(m)
    for g, sign in word.letters():
        if g not in index:
            raise ValueError(f"letter {g!r} is not a generator")
        chain.push(index[g], sign)
    return chain.normal_form((a, b))


def is_trivial(pres: ArtinPresentation, word: Word) -> bool:
    return normal_form(pres, word).is_identity


def multiply(nf1: NormalForm, nf2: NormalForm) -> NormalForm:
    if (nf1.generators, nf1.m) != (nf2.generators, nf2.m):
        raise ValueError("normal forms over different presentations")
    chain = _Chain(nf1.m, nf1.power, nf1.factors)
    chain.delta(nf2.power)
    for start, ln in nf2.factors:
        for i in range(ln):
            chain.push(start ^ (i & 1), 1)
    return chain.normal_form(nf1.generators)


def invert(nf: NormalForm) -> NormalForm:
    chain = _Chain(nf.m)
    for start, ln in reversed(nf.factors):
        for i in reversed(range(ln)):
            chain.push(start ^ (i & 1), -1)
    chain.delta(-nf.power)
    return chain.normal_form(nf.generators)


def delta_word(pres: ArtinPresentation) -> Word:
    a, b, m = _require_dihedral(pres)
    gens = (a, b)
    return Word.from_letters((gens[i % 2], 1) for i in range(m))


# ---------------------------------------------------------------------------
# Breadth-first oracle over raw letter strings
# ---------------------------------------------------------------------------
#
# States are strings over "a", "b" (generators) and "A", "B" (inverses).
# Moves: delete an adjacent inverse pair, insert one, or rewrite a
# length-m window by a balanced relator rule.  Every move preserves the
# group element, so everything reachable from the empty string spells
# the identity.


class OracleBudgetError(RuntimeError):
    """The closure hit the state budget before reaching a verdict."""

    def __init__(self, message: str, visited: int):
        super().__init__(message)
        self.visited = visited


def _alternating(m: int, start: int) -> str:
    return "".join("ab"[(start + i) % 2] for i in range(m))


@lru_cache(maxsize=None)
def balanced_rules(m: int) -> dict[str, tuple[str, ...]]:
    """u -> v rewrites with |u| = |v| = m, from every rotation of the
    defining relator and of its inverse.  Closed under rule inversion."""
    relator = _alternating(m, 0) + _alternating(m, 1)[::-1].swapcase()
    inverse = relator[::-1].swapcase()
    rules: dict[str, set[str]] = {}
    for base in (relator, inverse):
        for r in range(2 * m):
            rot = base[r:] + base[:r]
            u, tail = rot[:m], rot[m:]
            v = tail[::-1].swapcase()
            if u != v:
                rules.setdefault(u, set()).add(v)
    return {u: tuple(sorted(vs)) for u, vs in sorted(rules.items())}


def word_to_string(pres: ArtinPresentation, word: Word) -> str:
    a, b, _ = _require_dihedral(pres)
    lower = {a: "a", b: "b"}
    chars = []
    for syl in word.syllables:
        if syl.generator not in lower:
            raise ValueError(f"letter {syl.generator!r} is not a generator")
        c = lower[syl.generator]
        chars.append(c * syl.exponent if syl.exponent > 0 else c.upper() * -syl.exponent)
    return "".join(chars)


def _neighbours(state: str, rules: dict[str, tuple[str, ...]], max_len: int) -> list[str]:
    out = []
    n = len(state)
    for i in range(n - 1):
        if state[i] == state[i + 1].swapcase() and state[i] != state[i + 1]:
            out.append(state[:i] + state[i + 2 :])
    m = len(next(iter(rules))) if rules else 0
    if m:
        for i in range(n - m + 1):
            vs = rules.get(state[i : i + m])
            if vs:
                for v in vs:
                    out.append(state[:i] + v + state[i + m :])
    if n + 2 <= max_len:
        for i in range(n + 1):
            for pair in ("aA", "Aa", "bB", "Bb"):
                out.append(state[:i] + pair + state[i:])
    return out


# The eight string symmetries: a letter permutation that swaps a with b,
# or every letter with its inverse, or both, or neither (the Klein group
# below), optionally followed by reversing the string.
_KLEIN = ("abAB", "baBA", "ABab", "BAba")
# _TO_A[c] is the letter permutation sending c to "A".  It is unique: the
# Klein group acts simply transitively on the four letters.  perm[2] is
# the image of "A", and every perm is an involution, so it sends perm[2]
# back to "A".
_TO_A = {perm[2]: str.maketrans("abAB", perm) for perm in _KLEIN}


def _reflected(s: str) -> str:
    """The reversed image of a non-empty s whose first letter is "A"."""
    return s[::-1].translate(_TO_A[s[-1]])


def _canonical(s: str) -> str:
    """The least of the eight images of s.

    The least image of a non-empty string starts with "A", since "A" is
    the least letter, so it is either the forward image sending s[0] to
    "A" or the reversed image sending s[-1] to "A".
    """
    if not s:
        return s
    forward = s.translate(_TO_A[s[0]])
    backward = _reflected(s)
    return forward if forward <= backward else backward


def _orbit_size(rep: str) -> int:
    """The number of strings in the orbit of a canonical representative.

    No letter permutation but the identity fixes a non-empty string, and
    only the reversed image with rep[-1] sent to rep[0] = "A" can, so the
    stabiliser has one or two elements.
    """
    if not rep:
        return 1
    return 4 if _reflected(rep) == rep else 8


@dataclass
class ClosureResult:
    reached_target: bool
    complete: bool
    visited_count: int
    states: frozenset[str] = frozenset()


def closure(
    m: int,
    start: str,
    max_len: int,
    max_states: int,
    target: str | None = None,
    keep_states: bool = False,
) -> ClosureResult:
    """Breadth-first closure of the move system from `start`, keeping
    every intermediate string at length <= max_len.

    The closure runs over symmetry orbits: it stores, dedupes and expands
    only canonical representatives, so `visited_count`, `max_states` and
    `states` (with keep_states) all count or hold representatives.  The
    empty string is the only string that every symmetry fixes, so it is
    the only target a representative can be matched against: target must
    be None or "".
    """
    if target not in (None, ""):
        raise ValueError(f"closure target must be None or '', not {target!r}")
    rules = balanced_rules(m)
    start = _canonical(start)
    seen = {start}
    queue = deque([start])
    complete = True
    found = start == target
    while queue and not found:
        state = queue.popleft()
        for nxt in _neighbours(state, rules, max_len):
            if len(nxt) > max_len:
                continue
            nxt = _canonical(nxt)
            if nxt in seen:
                continue
            if nxt == target:
                found = True
                break
            if len(seen) >= max_states:
                complete = False
                continue
            seen.add(nxt)
            queue.append(nxt)
    return ClosureResult(
        reached_target=found,
        complete=complete,
        visited_count=len(seen),
        states=frozenset(seen) if keep_states else frozenset(),
    )


def bfs_oracle_is_trivial(
    pres: ArtinPresentation,
    word: Word,
    max_len: int | None = None,
    max_states: int = 500_000,
) -> bool:
    """Decide triviality by exhaustive search over the move system.

    True means the empty string was reached (always sound).  False is
    only returned when the whole closure within max_len was exhausted,
    so it is a genuine certificate of nontriviality at that length
    bound.  If the state budget (orbit representatives, see `closure`)
    runs out first, OracleBudgetError is raised rather than guessing.
    """
    _, _, m = _require_dihedral(pres)
    s = word_to_string(pres, word)
    if not s:
        return True
    if max_len is None:
        max_len = 4 * len(s)
    result = closure(m, s, max_len=max_len, max_states=max_states, target="")
    if result.reached_target:
        return True
    if result.complete:
        return False
    raise OracleBudgetError(
        f"no verdict for {word} within {max_states} states at length bound {max_len}",
        result.visited_count,
    )


class IdentityBall:
    """The strings of an identity ball, held as one canonical
    representative per symmetry orbit.

    `s in ball` canonicalises s and looks it up; `len(ball)` is the
    number of strings, the sum of the orbit sizes.
    """

    __slots__ = ("reps", "_size")

    def __init__(self, reps: frozenset[str]):
        self.reps = reps
        self._size = sum(map(_orbit_size, reps))

    def __contains__(self, s: str) -> bool:
        try:
            return _canonical(s) in self.reps
        except KeyError:  # s starts or ends with a letter outside "abAB"
            return False

    def __len__(self) -> int:
        return self._size


def identity_ball(m: int, max_len: int, max_states: int = 4_000_000) -> IdentityBall:
    """All strings spelling the identity reachable from the empty word
    with intermediates of length <= max_len.  Because the move system
    is symmetric, membership is equivalent to the oracle reaching the
    empty string from the member.  The ball supports `in` and `len`;
    max_states bounds the orbit representatives, not the strings."""
    result = closure(m, "", max_len=max_len, max_states=max_states, keep_states=True)
    if not result.complete:
        raise OracleBudgetError(
            f"identity ball at length {max_len} exceeded {max_states} states",
            result.visited_count,
        )
    return IdentityBall(result.states)
