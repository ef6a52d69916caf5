"""Presentations, syllable words, and word languages.

An Artin presentation is a finite ordered set of generators together
with a symmetric table of exponents m(s, t) in {2, 3, ...}, or no
relation.  The group relation for a finite exponent m is the equality
of the two alternating products of length m:

    s t s ...  =  t s t ...      (m letters on each side).

"No relation" is `INFINITY`, which is `None`; a pair given as `None`
(JSON `null`) and a pair left out mean the same thing.

Words are kept in *syllable* form: maximal runs of a single generator
are merged into one (generator, exponent) pair with a nonzero exponent.
This canonical form makes free reduction idempotent and cyclic rotation
well defined at the syllable level.

Word templates describe languages such as (t^k s t r)*, with star
meaning one or more repetitions.  Adjacent parts must use different
generators, so every member is reduced as written and membership is
decided exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

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

    def index(self, g: str) -> int:
        return self._index[g]

    def m(self, a: str, b: str) -> ExponentValue:
        if a not in self._index or b not in self._index or a == b:
            raise KeyError(f"bad generator pair ({a!r}, {b!r})")
        return self._table.get(frozenset((a, b)), INFINITY)

    def finite_pairs(self) -> list[tuple[str, str]]:
        """Pairs with a finite exponent, each ordered by generator order."""
        out = []
        for i, a in enumerate(self.generators):
            for b in self.generators[i + 1 :]:
                if self.m(a, b) is not None:
                    out.append((a, b))
        return out

    def two_dimensional(self) -> bool:
        """True iff 1/m(a,b) + 1/m(b,c) + 1/m(a,c) <= 1 for all triples.

        Infinite exponents contribute 0; the sum is evaluated exactly.
        """
        gens = self.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                for k in range(j + 1, len(gens)):
                    total = Fraction(0)
                    for a, b in ((gens[i], gens[j]), (gens[j], gens[k]), (gens[i], gens[k])):
                        m = self.m(a, b)
                        if m is not None:
                            total += Fraction(1, m)
                    if total > 1:
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
        return cls(data["generators"], {(a, b): m for a, b, m in exps})

    @classmethod
    def from_json(cls, text: str) -> "ArtinPresentation":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True, order=True)
class Syllable:
    generator: str
    exponent: int

    def __post_init__(self):
        if self.exponent == 0:
            raise ValueError("syllable exponent must be nonzero")

    def inverse(self) -> "Syllable":
        return Syllable(self.generator, -self.exponent)

    def __str__(self) -> str:
        return f"{self.generator}{self.exponent}"


def reduce(syllables: Iterable[tuple[str, int] | Syllable]) -> "Word":
    """Merge adjacent syllables on the same generator, dropping zeros.

    Idempotent: reducing a reduced word returns it unchanged.
    """
    # Stack invariant: adjacent entries always use distinct generators,
    # so a cancellation that empties the top re-exposes a valid top and
    # one pass suffices (e.g. s t t^-1 s collapses to s^2).
    out: list[list] = []  # [generator, exponent] pairs under construction
    for item in syllables:
        g, e = (item.generator, item.exponent) if isinstance(item, Syllable) else item
        if e == 0:
            continue
        if out and out[-1][0] == g:
            out[-1][1] += e
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([g, e])
    return Word(tuple(Syllable(g, e) for g, e in out))


class Word:
    """A syllable-reduced word: adjacent syllables use distinct generators."""

    __slots__ = ("syllables",)

    def __init__(self, syllables: Sequence[Syllable] = ()):
        syls = tuple(syllables)
        for i, s in enumerate(syls):
            if not isinstance(s, Syllable):
                raise TypeError(f"expected Syllable, got {s!r}")
            if i and syls[i - 1].generator == s.generator:
                raise ValueError("word is not syllable-reduced; use reduce()")
        self.syllables = syls

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse the serialization format, e.g. "s2 t-1 r1" -> s^2 t^-1 r."""
        parts = text.split()
        syls = []
        for p in parts:
            i = 0
            while i < len(p) and not (p[i] == "-" or p[i].isdigit()):
                i += 1
            if i == 0 or i == len(p):
                raise ValueError(f"bad syllable {p!r}")
            syls.append((p[:i], int(p[i:])))
        return reduce(syls)

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

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        return reduce(self.syllables + other.syllables)

    def inverse(self) -> "Word":
        return Word(tuple(s.inverse() for s in reversed(self.syllables)))

    def letter_length(self) -> int:
        return sum(abs(s.exponent) for s in self.syllables)

    def letters(self) -> list[tuple[str, int]]:
        """Expand to single letters: (generator, +1 or -1) pairs."""
        out = []
        for s in self.syllables:
            sign = 1 if s.exponent > 0 else -1
            out.extend([(s.generator, sign)] * abs(s.exponent))
        return out

    @classmethod
    def from_letters(cls, letters: Iterable[tuple[str, int]]) -> "Word":
        return reduce((g, e) for g, e in letters)

    def exponent_sum(self, generator: str) -> int:
        return sum(s.exponent for s in self.syllables if s.generator == generator)

    def generators_used(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for s in self.syllables:
            seen.setdefault(s.generator, None)
        return tuple(sorted(seen))

    def rotate(self, r: int) -> "Word":
        """Cyclic rotation at syllable level: syllable r becomes first.

        The result is only syllable-reduced when the first and last
        generators differ, which holds for the alternating words this
        is used on.
        """
        n = len(self.syllables)
        if n == 0:
            return self
        r %= n
        return reduce(self.syllables[r:] + self.syllables[:r])

    def substitute(self, mapping: dict[str, str]) -> "Word":
        """Rename generators; the result is re-reduced."""
        return reduce((mapping.get(s.generator, s.generator), s.exponent) for s in self.syllables)


EMPTY_WORD = Word()


# ---------------------------------------------------------------------------
# Word languages
# ---------------------------------------------------------------------------


class LanguageTemplate:
    """Expression tree over fixed words and single-generator powers.

    Atoms are Fixed(word), a nonempty reduced word, and
    PowerAtom(generator), which stands for g^k with k an arbitrary
    nonzero integer.  Composite nodes are Concat(parts...) and
    Star(part), with star meaning one or more repetitions.

    Adjacent parts must use different generators where they meet, also
    between two repetitions of a star; construction raises ValueError
    otherwise.  Every member is then syllable-reduced exactly as
    written, so `matches` decides membership exactly, with no bound.
    """

    first: str  # generator of the first syllable of every member
    last: str  # generator of the last syllable of every member

    def enumerate(self, exponent_bound: int, star_bound: int) -> set[Word]:
        """All member words with power exponents in [-b, b] minus {0}
        and star repetition counts in [1, star_bound]."""
        return {reduce(seq) for seq in self._sequences(exponent_bound, star_bound)}

    def _sequences(self, eb: int, sb: int) -> Iterator[tuple[tuple[str, int], ...]]:
        raise NotImplementedError

    def _ends(self, syls: tuple[Syllable, ...], i: int) -> set[int]:
        """Positions j such that syls[i:j] is a member."""
        raise NotImplementedError

    def matches(self, word: Word) -> bool:
        """Membership test (syllable-exact, no group relations applied)."""
        return len(word) in self._ends(word.syllables, 0)


def _check_separated(left: LanguageTemplate, right: LanguageTemplate) -> None:
    if left.last == right.first:
        raise ValueError(f"{left!r} and {right!r} meet on generator {left.last!r}")


class Fixed(LanguageTemplate):
    def __init__(self, word: Word | str):
        self.word = Word.parse(word) if isinstance(word, str) else word
        if not self.word:
            raise ValueError("a fixed template word must be nonempty")
        self.first = self.word.syllables[0].generator
        self.last = self.word.syllables[-1].generator

    def _sequences(self, eb, sb):
        yield tuple((s.generator, s.exponent) for s in self.word.syllables)

    def _ends(self, syls, i):
        j = i + len(self.word)
        return {j} if syls[i:j] == self.word.syllables else set()

    def __repr__(self):
        return f"Fixed({str(self.word)!r})"


class PowerAtom(LanguageTemplate):
    def __init__(self, generator: str):
        self.generator = self.first = self.last = generator

    def _sequences(self, eb, sb):
        for e in range(-eb, eb + 1):
            if e != 0:
                yield ((self.generator, e),)

    def _ends(self, syls, i):
        return {i + 1} if i < len(syls) and syls[i].generator == self.generator else set()

    def __repr__(self):
        return f"PowerAtom({self.generator!r})"


class Concat(LanguageTemplate):
    def __init__(self, *parts: LanguageTemplate):
        if not parts:
            raise ValueError("Concat needs at least one part")
        for left, right in zip(parts, parts[1:]):
            _check_separated(left, right)
        self.parts = parts
        self.first, self.last = parts[0].first, parts[-1].last

    def _sequences(self, eb, sb):
        def rec(i: int) -> Iterator[tuple]:
            if i == len(self.parts):
                yield ()
                return
            for head in self.parts[i]._sequences(eb, sb):
                for tail in rec(i + 1):
                    yield head + tail

        return rec(0)

    def _ends(self, syls, i):
        ends = {i}
        for part in self.parts:
            ends = {k for j in ends for k in part._ends(syls, j)}
        return ends

    def __repr__(self):
        return f"Concat({', '.join(map(repr, self.parts))})"


class Star(LanguageTemplate):
    def __init__(self, part: LanguageTemplate):
        _check_separated(part, part)
        self.part = part
        self.first, self.last = part.first, part.last

    def _sequences(self, eb, sb):
        def rec(reps: int) -> Iterator[tuple]:
            if reps == 0:
                yield ()
                return
            for head in self.part._sequences(eb, sb):
                for tail in rec(reps - 1):
                    yield head + tail

        for reps in range(1, sb + 1):
            yield from rec(reps)

    def _ends(self, syls, i):
        ends: set[int] = set()
        frontier = self.part._ends(syls, i)
        while frontier:
            ends |= frontier
            frontier = {k for j in frontier for k in self.part._ends(syls, j)} - ends
        return ends

    def __repr__(self):
        return f"Star({self.part!r})"
