"""Lookups the tests make on detection results and field places, which the
program itself never needs: the twist on one automorphism, and the places
of a fixed field above a prime."""

from typing import NamedTuple

from twistctl.numberfield import double_cosets, frobenius_at


def twist_at(group, aut_index: int):
    """The twist of the group on the automorphism aut_index; KeyError if
    none was detected there."""
    for t in group.twists:
        if t.aut_index == aut_index:
            return t
    raise KeyError(aut_index)


class Place(NamedTuple):
    """A place of the fixed field E^S above p, as a double coset."""

    representative: int
    residue_degree: int


def place_decomposition(field, subgroup, p: int) -> list[Place]:
    """Places of E^subgroup above p: the double cosets S\\G/<sigma_p>."""
    sigma = frobenius_at(field, p).index
    return [Place(rep, degree)
            for rep, degree, _ in double_cosets(field, subgroup, sigma)]
