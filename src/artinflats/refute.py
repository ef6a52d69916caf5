"""Refuting triviality by the abelianisation, with no search.

A relation of odd m(a, b) makes a and b conjugate; one of even m says
nothing in an abelian group.  So A_S abelianises to the free abelian
group on the classes of the odd-m graph, and a word with a nonzero
exponent sum on one class is not trivial.  The converse fails (s t s^-1
t^-1 sums to 0), so `None` from `refute` says nothing.  Nothing here
comes from the prover or the normal form: a word refuted here and
certified by a search is a fault of one of the two.
"""

from typing import NamedTuple

from artinflats.presentation import ArtinPresentation, Word


class Refutation(NamedTuple):
    """A nonzero exponent sum of a word on the odd-m class whose least
    generator name is `representative`."""

    representative: str
    exponent_sum: int

    def __str__(self) -> str:
        return f"exponent sum {self.exponent_sum} on the odd-m class of {self.representative}"


def refute(pres: ArtinPresentation, word: Word) -> Refutation | None:
    """The word's nonzero exponent sum on the class with the least
    representative, or None when every class sums to 0.  The union-find
    holds only the generators of odd-m pairs, so a presentation of many
    generators and few relations costs its relations and the word.  It
    raises `pres.check_word`'s ValueError, as a search would."""
    pres.check_word(word)
    parent: dict[str, str] = {}

    def find(g: str) -> str:
        while (p := parent.get(g, g)) != g:
            parent[g] = g = parent.get(p, p)  # path halving
        return g

    for a, b in pres.finite_pairs():
        if pres.m(a, b) % 2:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)  # a root is its class's least name
    sums: dict[str, int] = {}
    for g, e in word.syllables:
        root = find(g)
        sums[root] = sums.get(root, 0) + e
    least = min((root for root, total in sums.items() if total), default=None)
    return None if least is None else Refutation(least, sums[least])
