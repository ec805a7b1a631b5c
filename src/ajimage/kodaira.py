"""Catalog of reducible Kodaira fiber types and their component lattices.

A reducible fiber F = sum_i a_i Theta_i carries: component multiplicities
a_i, the intersection matrix A of the non-identity components Theta_1..,
and the finite group R^dual / R of the sublattice R they span.  One Smith
normal form U (-A) V = S of the positive definite Gram matrix -A gives all
of it: the inverse A^{-1} = -V S^{-1} U, the group (the invariant factors
of S above 1), and the class of every dual vector -A^{-1} c, which is U c
reduced mod those factors.  Only the rows of U that belong to a factor
above 1 (the class rows) are kept.

A and A^{-1} are QMatrix values: integer numerators over one denominator.
A's is 1; A^{-1}'s is the last invariant factor of S, the exponent of the
component group (1 for II*), so every solve A^{-1} c is integer dot
products over that one number.  The full graph matrix of all m components
is built only to check the fiber relation and to slice A out of it.

Component labeling convention (fixed here, documented once):

* I_n (n >= 2): the cycle Theta_0 - Theta_1 - ... - Theta_{n-1} - Theta_0
  in cycle order, all multiplicity 1.  For n = 2 the two components meet
  twice.
* I*_n (n >= 0): Theta_0..Theta_3 are the four simple legs (Theta_0 and
  Theta_1 attached to the near end of the central chain, Theta_2 and
  Theta_3 to the far end), Theta_4..Theta_{4+n} the multiplicity-2 central
  chain walked from the near end.  For n = 0 the chain is a single central
  component Theta_4 meeting all four legs.
* III: two components, multiplicity 1, meeting at one point of contact
  order two (Theta_0 . Theta_1 = 2).
* IV: three multiplicity-1 components through one common point.
* IV*: arms of length two around a central multiplicity-3 component;
  chain order Theta_0(1)-Theta_1(2)-Theta_2(3)-Theta_3(2)-Theta_4(1) with
  the third arm Theta_5(2)-Theta_6(1) hanging off Theta_2.
* III*: chain Theta_0(1)-Theta_1(2)-Theta_2(3)-Theta_3(4)-Theta_4(3)-
  Theta_5(2)-Theta_6(1) with Theta_7(2) attached to Theta_3.
* II*: chain Theta_0(1)-Theta_1(2)-Theta_2(3)-Theta_3(4)-Theta_4(5)-
  Theta_5(6)-Theta_6(4)-Theta_7(2) with Theta_8(3) attached to Theta_5.

Irreducible kinds (I_0, I_1, II) are rejected: they contribute nothing to
the trivial lattice and have no component data to catalog.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterable

from .exact import QMatrix, exact_int, smith_normal_form

_KIND_RE = re.compile(r"^(I)(\d+)(\*?)$|^(II|III|IV)(\*?)$")
# multiplicities (Theta_0 first) and edges {(i, j): weight, i < j} of the
# kinds that take no index
_FIXED_GRAPHS = {
    "II*": ((1, 2, 3, 4, 5, 6, 4, 2, 3),
            {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 5): 1, (5, 6): 1, (6, 7): 1,
             (5, 8): 1}),
    "III": ((1, 1), {(0, 1): 2}),
    "III*": ((1, 2, 3, 4, 3, 2, 1, 2),
             {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 5): 1, (5, 6): 1, (3, 7): 1}),
    "IV": ((1, 1, 1), {(0, 1): 1, (0, 2): 1, (1, 2): 1}),
    "IV*": ((1, 2, 3, 2, 1, 2, 1),
            {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (2, 5): 1, (5, 6): 1}),
}
_FAMILIES = ("I", "I*", *_FIXED_GRAPHS)


@dataclass(frozen=True)
class FiberKind:
    """A reducible Kodaira type: family in {"I", "I*", "II*", "III", "III*",
    "IV", "IV*"}, with n >= 2 for I_n, n >= 0 for I*_n and no n otherwise.
    Any other value is rejected when the kind is built; n is read through
    `exact.exact_int`."""

    family: str
    n: int | None = None

    def __post_init__(self):
        if self.n is not None:
            object.__setattr__(self, "n", exact_int(self.n, "fiber index n"))
        if self.family == "I" and self.n is not None and self.n < 2:
            raise ValueError(f"fiber {self} is irreducible")
        if self.family == "II":
            raise ValueError("fiber II is irreducible")
        if self.family not in _FAMILIES:
            raise ValueError(
                f"unknown fiber family {self.family!r}; expected one of {', '.join(_FAMILIES)}"
            )
        if self.family in ("I", "I*") and self.n is None:
            raise ValueError("I / I* kinds need an index")
        if self.family == "I*" and self.n < 0:
            raise ValueError(f"fiber I*_n needs n >= 0, not {self.n}")
        if self.family not in ("I", "I*") and self.n is not None:
            raise ValueError(f"fiber {self.family} takes no index, not {self.n}")

    @staticmethod
    def parse(text: str | "FiberKind") -> "FiberKind":
        if isinstance(text, FiberKind):
            return text
        m = _KIND_RE.match(text.strip())
        if not m:
            raise ValueError(f"unrecognized fiber kind {text!r}")
        if m.group(1):
            family = "I*" if m.group(3) else "I"
            try:
                n = int(m.group(2))
            except ValueError:  # past int's string-conversion limit
                raise ValueError(f"fiber index n of {family}_n has {len(m.group(2))} digits") from None
            return FiberKind(family, n)
        return FiberKind(m.group(4) + m.group(5))

    def __str__(self):
        if self.family == "I":
            return f"I{self.n}"
        if self.family == "I*":
            return f"I{self.n}*"
        return self.family


@dataclass(frozen=True)
class AbelianGroup:
    """Finite abelian group as a product of cyclic factors (all > 1, each
    dividing the next); elements are residue tuples of the same length.

    `add`, `neg` and `scale` take any integer tuples of that length, reduced
    or not, and return the reduced residues.  The factors are read through
    `exact.exact_int`."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "invariant_factors", tuple(
            exact_int(f, "invariant factor") for f in self.invariant_factors))
        for f in self.invariant_factors:
            if f <= 1:
                raise ValueError("invariant factors must exceed 1")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def order(self) -> int:
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.invariant_factors)

    def reduce(self, coords: Iterable[int]) -> tuple[int, ...]:
        coords = tuple(coords)
        self._check(coords)
        return tuple(c % f for c, f in zip(coords, self.invariant_factors))

    def _check(self, *elements) -> None:
        for a in elements:
            if len(a) != len(self.invariant_factors):
                raise ValueError("coordinate length mismatch")

    def add(self, a, b) -> tuple[int, ...]:
        self._check(a, b)
        return tuple((x + y) % f for x, y, f in zip(a, b, self.invariant_factors))

    def neg(self, a) -> tuple[int, ...]:
        self._check(a)
        return tuple(-x % f for x, f in zip(a, self.invariant_factors))

    def scale(self, k: int, a) -> tuple[int, ...]:
        self._check(a)
        return tuple(k * x % f for x, f in zip(a, self.invariant_factors))

    def describe(self) -> str:
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z/{f}" for f in self.invariant_factors)


def _graph(kind: FiberKind):
    """Multiplicities and edge weights for all components, Theta_0 first.

    Returns (mults, edges) with edges a dict {(i, j): weight}, i < j.
    """
    fam, n = kind.family, kind.n
    if fam == "I":
        mults = [1] * n
        if n == 2:
            edges = {(0, 1): 2}
        else:
            edges = {(i, i + 1): 1 for i in range(n - 1)}
            edges[(0, n - 1)] = 1
        return mults, edges
    if fam == "I*":
        chain = list(range(4, 5 + n))
        mults = [1, 1, 1, 1] + [2] * (n + 1)
        edges = {(0, chain[0]): 1, (1, chain[0]): 1, (2, chain[-1]): 1, (3, chain[-1]): 1}
        for a, b in zip(chain, chain[1:]):
            edges[(a, b)] = 1
        return mults, edges
    return _FIXED_GRAPHS[fam]


def _components(kind: FiberKind) -> int:
    """Number of components m, from the kind alone (no graph is built)."""
    if kind.family == "I":
        return kind.n
    if kind.family == "I*":
        return kind.n + 5
    return len(_FIXED_GRAPHS[kind.family][0])


def _euler(kind: FiberKind) -> int:
    # e = m for the multiplicative kinds I_n, m + 1 for every additive kind
    return _components(kind) + (kind.family != "I")


@dataclass(frozen=True)
class ReducibleFiberData:
    kind: FiberKind
    m: int  # number of components
    multiplicities: tuple[int, ...]  # indexed by component, Theta_0 first
    a: QMatrix  # intersections of Theta_1.. (denominator 1)
    a_inv: QMatrix  # over the exponent of the component group
    simple: tuple[int, ...]  # indices i >= 1 with multiplicity 1
    group: AbelianGroup
    euler: int
    # rows of the Smith row transform U that belong to group.invariant_factors
    _class_rows: tuple[tuple[int, ...], ...]
    # component group element -> simple component index (0 for identity)
    class_to_simple: dict


def _full_matrix(mults, edges) -> list[list[int]]:
    """Pairwise intersections of all m components, Theta_0 first."""
    m = len(mults)
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = -2
    for (i, j), w in edges.items():
        rows[i][j] = w
        rows[j][i] = w
    return rows


# Largest fiber (and largest total over one surface's fibers) that gets a
# catalog.  Every A is an ADE Cartan matrix, so the Smith reduction finds a
# unit pivot at every step and the build grows about as m^2: I100 takes
# 25 ms, I200* 0.11 s and I256 0.16-0.18 s (CPython 3.11, x86_64).  The
# I9997 that a chi = 1000 config could otherwise ask for would take minutes
# by that growth, and its inverse alone has 10^8 dense entries.
MAX_COMPONENTS = 256


@lru_cache(maxsize=None)
def _fiber_data_cached(kind: FiberKind) -> ReducibleFiberData:
    if _components(kind) > MAX_COMPONENTS:
        raise ValueError(
            f"fiber {kind} has {_components(kind)} components; the catalog is capped at"
            f" MAX_COMPONENTS = {MAX_COMPONENTS}"
        )
    mults, edges = _graph(kind)
    m = len(mults)
    full = _full_matrix(mults, edges)
    # fiber relation F . Theta_j = 0 pins the whole table; fail loudly if the
    # catalog graph is wrong
    for j in range(m):
        total = sum(mults[i] * full[i][j] for i in range(m))
        if total != 0:
            raise AssertionError(f"catalog graph for {kind} breaks the fiber relation at {j}")
    a = [row[1:] for row in full[1:]]
    sf = smith_normal_form([[-x for x in row] for row in a])
    inv = sf.inverse()
    group = AbelianGroup(tuple(f for f in sf.invariant_factors if f > 1))
    simple = tuple(i for i in range(1, m) if mults[i] == 1)

    data = ReducibleFiberData(
        kind=kind,
        m=m,
        multiplicities=tuple(mults),
        a=QMatrix(a),
        a_inv=QMatrix([[-x for x in row] for row in inv.num], inv.den),
        simple=simple,
        group=group,
        euler=_euler(kind),
        _class_rows=tuple(row for row, f in zip(sf.u, sf.invariant_factors) if f > 1),
        class_to_simple={},
    )
    # the simple components hit every class exactly once; build the inverse map
    mapping = {group.zero(): 0}
    for i in simple:
        cls = dual_class_of(data, i)
        if cls in mapping:
            raise AssertionError(f"catalog for {kind}: simple components not distinct in group")
        mapping[cls] = i
    if len(mapping) != group.order:
        raise AssertionError(f"catalog for {kind}: simple components miss some classes")
    data.class_to_simple.update(mapping)
    return data


def fiber_data(kind: str | FiberKind) -> ReducibleFiberData:
    return _fiber_data_cached(FiberKind.parse(kind))


def incidence_class(data: ReducibleFiberData, c) -> tuple[int, ...]:
    """Class of the dual vector -A^{-1} c of an integral incidence vector c
    (c_i = D . Theta_i): the class rows times c, mod the invariant factors."""
    if len(c) != data.m - 1:
        raise ValueError(f"expected {data.m - 1} incidences for {data.kind}")
    return tuple(
        sum(map(mul, row, c)) % f for row, f in zip(data._class_rows, data.group.invariant_factors)
    )


def dual_class_of(data: ReducibleFiberData, i: int) -> tuple[int, ...]:
    """Class of component Theta_i, i.e. of the dual vector -A^{-1} e_i
    (i = 0 gives the identity class)."""
    if i == 0:
        return data.group.zero()
    if not 1 <= i < data.m:
        raise ValueError(f"{data.kind} has components 0..{data.m - 1}")
    return tuple(row[i - 1] % f for row, f in zip(data._class_rows, data.group.invariant_factors))
