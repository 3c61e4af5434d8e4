"""Small finite groups as explicit multiplication tables.

Elements are integer indices into a canonical ordering with the identity at
index 0.  Groups built from permutation generators order elements by
breadth-first discovery (deterministic given the generator list), so a
cyclic group generated by s comes out as e, s, s^2, ...  Multiplication is
function composition: (p * q)(x) = p(q(x)).

Explicit tables are accepted too and fully law-checked; a failing input is
rejected with a witnessing triple.  Everything here is desk scale, capped at
order 360.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

MAX_ORDER = 360


def clip(text: str) -> str:
    """text for a message: its first 8 characters, and "..." if longer."""
    return text[:8] + ("..." if len(text) > 8 else "")


def ascii_int(text: str) -> int:
    """The int that text spells as an optional - and ASCII digits, else a
    ValueError quoting text cut by `clip`, also past int()'s limit on
    digits; int() alone takes _, spaces and other scripts' digits."""
    if re.fullmatch("-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:
            pass
    raise ValueError(f"not an integer: {clip(text)!r}")


def parse_cycles(text: str, degree: int | None = None) -> tuple[int, ...]:
    """Parse 1-based cycle notation like "(1 2 3)(4 5)", "()" the identity
    and "" none, into a 0-based permutation tuple.  Commas and spaces both
    separate points, and no point may appear twice.  With a degree the
    result has exactly that many points, and a larger point is an error."""
    if text == "()":
        return tuple(range(degree or 1))
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("bad cycle notation")
    cycles = []
    seen = set()
    for chunk in text[1:-1].split(")("):
        pts = [ascii_int(t) for t in chunk.replace(",", " ").split()]
        if len(pts) != len(set(pts)) or any(x < 1 for x in pts):
            raise ValueError(f"bad cycle: ({clip(chunk)})")
        if degree is not None and max(pts, default=0) > degree:
            raise ValueError(f"point {clip(str(max(pts)))} exceeds degree "
                             f"{degree}")
        again = seen.intersection(pts)
        if again:
            raise ValueError(f"point {min(again)} appears in two cycles")
        seen.update(pts)
        cycles.append(pts)
    d = degree if degree is not None else max(seen, default=0)
    perm = list(range(d))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a - 1] = b - 1
    return tuple(perm)


def cycle_string(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        out.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(out) if out else "()"


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[x]] for x in range(len(p)))


class FiniteGroup:
    """A finite group given by its full Cayley table."""

    def __init__(self, table: list[list[int]], names: list[str] | None = None,
                 _trusted: bool = False):
        n = len(table)
        if n == 0 or n > MAX_ORDER:
            raise ValueError(f"group order must be in 1..{MAX_ORDER}")
        self.n = n
        self.label = f"group of order {n}"
        self.table = [list(row) for row in table]
        self.names = list(names) if names else [f"g{i}" for i in range(n)]
        if not _trusted:
            self._check_laws()
        self.inv = [next(j for j in range(n) if self.table[i][j] == 0)
                    for i in range(n)]

    def _check_laws(self):
        n = self.n
        for i, row in enumerate(self.table):
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise ValueError(f"row {i} is not closed over 0..{n - 1}")
        if any(self.table[0][j] != j for j in range(n)) or \
           any(self.table[i][0] != i for i in range(n)):
            raise ValueError("index 0 is not a two-sided identity")
        for i in range(n):
            if 0 not in self.table[i]:
                raise ValueError(f"element {i} has no inverse")
        t = self.table
        for a in range(n):
            ta = t[a]
            for b in range(n):
                tab = t[ta[b]]
                tb = t[b]
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        raise ValueError(
                            f"not associative at triple ({a}, {b}, {c})")

    @classmethod
    def from_generators(cls, perms: list[tuple[int, ...]]) -> "FiniteGroup":
        if not perms:
            raise ValueError("need at least one generator")
        deg = max(len(p) for p in perms)
        gens = [tuple(p) + tuple(range(len(p), deg)) for p in perms]
        ident = tuple(range(deg))
        elements = [ident]
        index = {ident: 0}
        for cur in elements:  # breadth first: elements grows as it is read
            for g in gens:
                nxt = _compose(cur, g)
                if nxt not in index:
                    if len(elements) >= MAX_ORDER:
                        raise ValueError(f"closure exceeds order {MAX_ORDER}")
                    index[nxt] = len(elements)
                    elements.append(nxt)
        table = [[index[_compose(a, b)] for b in elements] for a in elements]
        names = [cycle_string(e) for e in elements]
        return cls(table, names, _trusted=True)

    # -- basic structure ---------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def power(self, i: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv[i], -k)
        acc = 0
        base = i
        while k:
            if k & 1:
                acc = self.table[acc][base]
            k >>= 1
            if k:
                base = self.table[base][base]
        return acc

    def conjugate(self, t: int, s: int) -> int:
        """t s t^{-1}"""
        return self.table[self.table[t][s]][self.inv[t]]

    def element_order(self, i: int) -> int:
        k = 1
        x = i
        while x != 0:
            x = self.table[x][i]
            k += 1
        return k

    def exponent(self) -> int:
        e = 1
        for i in range(self.n):
            e = math.lcm(e, self.element_order(i))
        return e

    def conjugacy_classes(self) -> list[list[int]]:
        """Classes as sorted index lists, ordered by smallest member; the
        identity class comes first."""
        placed = [False] * self.n
        classes = []
        for s in range(self.n):
            if placed[s]:
                continue
            orbit = {self.conjugate(t, s) for t in range(self.n)}
            for x in orbit:
                placed[x] = True
            classes.append(sorted(orbit))
        return classes

    def cyclic_subgroup(self, s: int) -> list[int]:
        """[s^0, s^1, ..., s^{m-1}] for m the order of s."""
        out = [0]
        x = s
        while x != 0:
            out.append(x)
            x = self.table[x][s]
        return out


def _quaternion_table():
    # elements 1, -1, i, -i, j, -j, k, -k as (axis, sign), axis 0 = scalar
    units = [(0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1)]
    mul3 = {(1, 2): (3, 1), (2, 1): (3, -1),
            (2, 3): (1, 1), (3, 2): (1, -1),
            (3, 1): (2, 1), (1, 3): (2, -1)}

    def qmul(a, b):
        (ax, sa), (bx, sb) = a, b
        s = sa * sb
        if ax == 0:
            return (bx, s)
        if bx == 0:
            return (ax, s)
        if ax == bx:
            return (0, -s)
        cx, cs = mul3[(ax, bx)]
        return (cx, cs * s)

    idx = {u: i for i, u in enumerate(units)}
    table = [[idx[qmul(a, b)] for b in units] for a in units]
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return table, names


_PRESET_GENS = {
    "S3": ["(1 2)", "(1 2 3)"],
    "D5": ["(1 2 3 4 5)", "(2 5)(3 4)"],
    "A4": ["(1 2 3)", "(1 2)(3 4)"],
    "F21": ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"],
}


@lru_cache(maxsize=None)
def preset(name: str) -> FiniteGroup:
    """Named small groups: C<n>, S3, D5, A4, Q8, F21 (= C7 : C3); n is
    written in ASCII digits with no leading zero, so each group has one
    name."""
    if re.fullmatch("C(0|[1-9][0-9]*)", name):
        # a name longer than C<MAX_ORDER> is past it: int() never reads it
        n = int(name[1:]) if len(name) <= len(f"C{MAX_ORDER}") else 0
        if not 1 <= n <= MAX_ORDER:
            raise ValueError(f"bad cyclic order {clip(name[1:])}")
        grp = FiniteGroup.from_generators([tuple(range(1, n)) + (0,)])
    elif name == "Q8":
        table, names = _quaternion_table()
        grp = FiniteGroup(table, names)
    elif name in _PRESET_GENS:
        grp = FiniteGroup.from_generators(
            [parse_cycles(c) for c in _PRESET_GENS[name]])
    else:
        raise ValueError(f"unknown group preset {clip(name)!r}; "
                         f"known: C<n>, {', '.join(sorted(_PRESET_GENS) + ['Q8'])}")
    grp.label = name
    return grp


PRESET_NAMES = ("C3", "C5", "C7", "C9", "S3", "D5", "A4", "Q8", "F21")
