"""Presentations, syllable words, and word languages.

An Artin presentation is a finite ordered set of generators together
with a symmetric table of exponents m(s, t) in {2, 3, ...}, or no
relation.  The group relation for a finite exponent m is the equality
of the two alternating products of length m:

    s t s ...  =  t s t ...      (m letters on each side).

"No relation" is `INFINITY`, which is `None`; a pair given as `None`
(JSON `null`) and a pair left out mean the same thing.  The relator is
written once, here: `alternating` builds the alternating words and
`balanced_rewrites` the relator's balanced rules, for every layer.

Words are kept in *syllable* form: maximal runs of a single generator
are merged into one (generator, exponent) pair with a nonzero exponent.
This canonical form makes free reduction idempotent and cyclic rotation
well defined at the syllable level.

A `LanguageTemplate` is the language of a flat family's second
generators: one or more factors g1^k1 tail1 g2^k2 tail2 ..., such as
(t^k s t r)+.  A power never meets a neighbouring tail on its generator,
so every member is reduced as written; the template builds a member from
its exponents, lists members up to a bound, and reads the exponents back
off a word.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

INFINITY = None

ExponentValue = int | None  # int >= 2, or INFINITY (no relation)


def _check_exponent(m: ExponentValue) -> ExponentValue:
    if m is not None and (not isinstance(m, int) or isinstance(m, bool) or m < 2):
        raise ValueError(f"exponent must be an integer >= 2 or null, got {m!r}")
    return m


class ArtinPresentation:
    """Ordered generators plus a symmetric exponent table.

    Pairs missing from the table default to INFINITY (no relation);
    only finite exponents are stored.
    """

    def __init__(
        self,
        generators: Sequence[str],
        exponents: dict[tuple[str, str], ExponentValue] | None = None,
    ):
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, str) or not g.isidentifier():
                raise ValueError(f"bad generator name {g!r}")
        if len(set(gens)) != len(gens) or not gens:
            raise ValueError("generators must be nonempty and distinct")
        self.generators = gens
        self._index = {g: i for i, g in enumerate(gens)}
        seen: dict[frozenset[str], ExponentValue] = {}
        for (a, b), m in (exponents or {}).items():
            if a not in self._index or b not in self._index or a == b:
                raise ValueError(f"bad generator pair ({a!r}, {b!r})")
            key = frozenset((a, b))
            m = _check_exponent(m)
            if seen.setdefault(key, m) != m:
                raise ValueError(f"conflicting exponents for pair ({a}, {b})")
        # An infinite pair is stored as absent, so an explicit INFINITY,
        # a JSON null and a missing pair all compare and hash equal.
        self._table = {key: m for key, m in seen.items() if m is not None}

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"m({a},{b})={self.m(a, b)}" for a, b in self.finite_pairs()
        )
        return f"ArtinPresentation({self.generators}, {pairs})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArtinPresentation)
            and self.generators == other.generators
            and self._table == other._table
        )

    def __hash__(self) -> int:
        return hash((self.generators, frozenset(self._table.items())))

    def m(self, a: str, b: str) -> ExponentValue:
        if a not in self._index or b not in self._index or a == b:
            raise KeyError(f"bad generator pair ({a!r}, {b!r})")
        return self._table.get(frozenset((a, b)), INFINITY)

    def finite_pairs(self) -> list[tuple[str, str]]:
        """Pairs with a finite exponent, each ordered by generator order,
        in the order of (index of a, index of b): read off the table, so
        a presentation with p relations costs O(p log p), not one test
        per generator pair."""
        gens, index = self.generators, self._index
        pairs = sorted(sorted(map(index.get, key)) for key in self._table)
        return [(gens[i], gens[j]) for i, j in pairs]

    def two_dimensional(self) -> bool:
        """True iff 1/m(a,b) + 1/m(b,c) + 1/m(a,c) <= 1 for all triples.

        Infinite exponents contribute 0 and each finite 1/m is at most
        1/2, so only a triangle of three finite pairs can sum above 1:
        each finite pair is tried with the common finite neighbours of
        its two generators, which costs nothing per infinite pair.  The
        sum is evaluated exactly.
        """
        neighbours: dict[str, dict[str, int]] = {}
        for a, b in self.finite_pairs():
            m = self.m(a, b)
            neighbours.setdefault(a, {})[b] = m
            neighbours.setdefault(b, {})[a] = m
        for near in neighbours.values():
            for b, m in near.items():
                for c in near.keys() & neighbours[b].keys():
                    if Fraction(1, m) + Fraction(1, near[c]) + Fraction(1, neighbours[b][c]) > 1:
                        return False
        return True

    def to_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "exponents": [[a, b, self.m(a, b)] for a, b in self.finite_pairs()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ArtinPresentation":
        if not isinstance(data, dict) or not isinstance(data.get("generators"), list):
            raise ValueError("a presentation is an object with a list of generators")
        exps = data.get("exponents", [])
        if not isinstance(exps, list) or any(not isinstance(e, list) or len(e) != 3 for e in exps):
            raise ValueError("exponents must be a list of [a, b, m] triples")
        table: dict[tuple[str, str], ExponentValue] = {}
        for a, b, m in exps:
            if table.setdefault((a, b), m) != m:
                raise ValueError(f"conflicting exponents for pair ({a}, {b})")
        return cls(data["generators"], table)

    @classmethod
    def from_json(cls, text: str) -> "ArtinPresentation":
        return cls.from_dict(json.loads(text))


class Syllable(NamedTuple):
    generator: str
    exponent: int

    def inverse(self) -> "Syllable":
        return Syllable(self.generator, -self.exponent)

    def __str__(self) -> str:
        return f"{self.generator}{self.exponent}"


def reduce(syllables: Iterable[tuple[str, int]]) -> "Word":
    """Merge adjacent (generator, exponent) pairs on one generator, dropping
    zeros.  Idempotent: reducing a reduced word returns it unchanged."""
    # Stack invariant: adjacent entries always use distinct generators,
    # so a cancellation that empties the top re-exposes a valid top and
    # one pass suffices (e.g. s t t^-1 s collapses to s^2).
    out: list[Syllable] = []
    for g, e in syllables:
        if out and out[-1][0] == g:
            e += out.pop()[1]
        if e:
            out.append(Syllable(g, e))
    return Word(out)


def _pair(token: str) -> tuple[str, int]:
    """The (generator, exponent) of a token such as "s2" or "t-1"."""
    i = 0
    while i < len(token) and not (token[i] == "-" or token[i].isdigit()):
        i += 1
    if i == 0 or i == len(token):
        raise ValueError(f"bad syllable {token!r}")
    return sys.intern(token[:i]), int(token[i:])


class Word:
    """A syllable-reduced word: a tuple of (generator, exponent) Syllables,
    exponents nonzero and adjacent ones on distinct generators."""

    __slots__ = ("syllables",)

    def __init__(self, syllables: Sequence[Syllable] = ()):
        syls = tuple(syllables)
        for i, s in enumerate(syls):
            if not isinstance(s, Syllable):
                raise TypeError(f"expected Syllable, got {s!r}")
            if not s.exponent or i and syls[i - 1].generator == s.generator:
                raise ValueError("word is not syllable-reduced; use reduce()")
        self.syllables = syls

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse the serialization format, e.g. "s2 t-1 r1" -> s^2 t^-1 r,
        one token at a time, holding each generator name once."""
        return reduce(_pair(match.group()) for match in re.finditer(r"\S+", text))

    def __str__(self) -> str:
        return " ".join(str(s) for s in self.syllables)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __len__(self) -> int:
        return len(self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        return reduce(self.syllables + other.syllables)

    def inverse(self) -> "Word":
        return Word(tuple(s.inverse() for s in reversed(self.syllables)))

    def letter_length(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def letters(self) -> list[tuple[str, int]]:
        """Expand to single letters: (generator, +1 or -1) pairs."""
        out = []
        for g, e in self.syllables:
            if e == 1 or e == -1:
                out.append((g, e))
            else:
                out.extend([(g, 1 if e > 0 else -1)] * abs(e))
        return out

    @classmethod
    def from_letters(cls, letters: Iterable[tuple[str, int]]) -> "Word":
        return reduce(letters)

    def exponent_sum(self, generator: str) -> int:
        return sum(e for g, e in self.syllables if g == generator)

    def generators_used(self) -> tuple[str, ...]:
        return tuple(sorted({g for g, _ in self.syllables}))

    def substitute(self, mapping: dict[str, str]) -> "Word":
        """Rename generators; the result is re-reduced."""
        return reduce((mapping.get(g, g), e) for g, e in self.syllables)


# ---------------------------------------------------------------------------
# The defining relator
# ---------------------------------------------------------------------------


def alternating(generators: Sequence[str], exponents: Iterable[int]) -> Word:
    """The word whose syllable i is generators[i % 2]^exponents[i]:
    a side of the relator for exponents (1,) * m."""
    return reduce((generators[i % 2], e) for i, e in enumerate(exponents))


@lru_cache(maxsize=None)
def balanced_rewrites(a: str, b: str, m: int) -> tuple[tuple[tuple[tuple[str, int], ...], ...], ...]:
    """The balanced rules (u, v), |u| = |v| = m, of the relator of the
    pair (a, b), as (generator, +1 or -1) letter tuples.

    Cutting a rotation of the relator (a b a ...)(b a b ...)^-1 into its
    first m letters u and the rest t gives the rule u -> t^-1.  The order
    is every rotation of the relator, then every rotation of its inverse,
    with u = v and repeats dropped; the prover's version 1 certificates
    name a rule by its index in this order.
    """

    def inv(letters):
        return tuple((g, -e) for g, e in reversed(letters))

    relator = tuple(alternating((a, b), (1,) * m).letters())
    relator += inv(alternating((b, a), (1,) * m).letters())
    rules: dict[tuple, None] = {}
    for base in (relator, inv(relator)):
        for r in range(2 * m):
            rot = base[r:] + base[:r]
            u, v = rot[:m], inv(rot[m:])
            if u != v:
                rules.setdefault((u, v))
    return tuple(rules)


# ---------------------------------------------------------------------------
# Word languages
# ---------------------------------------------------------------------------


class LanguageTemplate:
    """The star-of-factors language (g1^k1 tail1 g2^k2 tail2 ...)+ of a
    flat family's second generators.

    The shape is a nonempty sequence of (power generator, fixed tail)
    pairs.  One factor is g1^k1 tail1 g2^k2 tail2 ... with every k a
    nonzero integer, and a member is one or more factors in a row.

    A power may not meet its own tail, nor the tail before it (the last
    tail for the first power, across the join of two factors), on its
    generator; construction raises ValueError otherwise.  Every member is
    then syllable-reduced as written and each factor has the same number
    of syllables, so `exponents` reads a word in one linear scan with no
    bound on exponents or factors.
    """

    def __init__(self, shape: Sequence[tuple[str, Word | str]]):
        parts = tuple(
            (g, Word.parse(tail) if isinstance(tail, str) else tail) for g, tail in shape
        )
        if not parts or not all(tail for _, tail in parts):
            raise ValueError("a template needs one or more (power, nonempty tail) pairs")
        for (_, before), (g, tail) in zip(parts[-1:] + parts[:-1], parts):
            if g in (tail.syllables[0].generator, before.syllables[-1].generator):
                raise ValueError(f"power {g!r} meets a neighbouring tail on its generator")
        self.shape = parts
        self._width = sum(1 + len(tail) for _, tail in parts)

    def word(self, factors: Sequence[Sequence[int]]) -> Word:
        """The member with these per-factor exponent tuples."""
        if not factors:
            raise ValueError("a member needs at least one factor")
        syls: list[Syllable] = []
        for exps in factors:
            if len(exps) != len(self.shape):
                raise ValueError(
                    f"each factor takes {len(self.shape)} exponent(s), got {tuple(exps)!r}"
                )
            for (g, tail), k in zip(self.shape, exps):
                if not isinstance(k, int) or k == 0:
                    raise ValueError(f"factor exponents must be nonzero integers, got {k!r}")
                syls.append(Syllable(g, k))
                syls.extend(tail.syllables)
        return Word(syls)

    def members(self, factors: int, bound: int) -> Iterator[Word]:
        """Members with `factors` factors and every exponent in
        +-1..+-bound, each exponent running 1, -1, 2, -2, ... and the
        last one varying fastest."""
        exps = [e for k in range(1, bound + 1) for e in (k, -k)]
        per_factor = list(itertools.product(exps, repeat=len(self.shape)))
        for combo in itertools.product(per_factor, repeat=factors):
            yield self.word(combo)

    def exponents(self, word: Word) -> tuple[tuple[int, ...], ...] | None:
        """The per-factor exponent tuples of a member, or None for a
        word outside the language (syllable-exact, no group relations)."""
        syls = word.syllables
        if not syls or len(syls) % self._width:
            return None
        out = []
        i = 0
        while i < len(syls):
            exps = []
            for g, tail in self.shape:
                if syls[i].generator != g:
                    return None
                exps.append(syls[i].exponent)
                i += 1
                if syls[i : i + len(tail)] != tail.syllables:
                    return None
                i += len(tail)
            out.append(tuple(exps))
        return tuple(out)

    def matches(self, word: Word) -> bool:
        """Membership test (syllable-exact, no group relations applied)."""
        return self.exponents(word) is not None
