"""Restriction of class functions, the reference route that the
Frobenius-reciprocity and multiplicity tests check the library against."""

from tamekit.characters import CharTable, VirtualChar
from tamekit.groups import Subgroup

from reference import values


def restrict(vc: VirtualChar, sub: Subgroup, subtable: CharTable) -> VirtualChar:
    """Restriction of a class function on G to a subgroup H, decomposed on
    the given table of H."""
    if vc.table.group is not sub.parent:
        raise ValueError("subgroup does not sit inside the character's group")
    gvals = values(vc)
    vals = []
    for j in range(subtable.k):
        h_parent = sub.to_parent[subtable.reps[j]]
        vals.append(gvals[vc.table.class_of[h_parent]])
    return VirtualChar.from_values(subtable, vals)
