"""Exact rational linear algebra: matrices over Fraction and Smith normal
form with unimodular transforms.

Everything here is exact; floats never appear.  The Smith form is the only
elimination the library runs: kodaira reads the inverse A^{-1}, the
component group and every dual class off one Smith reduction per fiber
kind, and nslattice reads the rank of a table's generator Gram matrix off
its nonzero invariant factors.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul


def _as_fraction_rows(entries) -> tuple[tuple[Fraction, ...], ...]:
    rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        if width == 0:
            raise ValueError("empty rows")
    return rows


class QMatrix:
    """Immutable matrix with Fraction entries."""

    __slots__ = ("rows",)

    def __init__(self, entries):
        object.__setattr__(self, "rows", _as_fraction_rows(entries))

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def transpose(self) -> "QMatrix":
        return QMatrix(list(zip(*self.rows)))

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = other.transpose().rows
            return QMatrix(
                [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
            )
        # matrix * vector
        vec = tuple(Fraction(x) for x in other)
        if self.ncols != len(vec):
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.rows for x in row)

    def __repr__(self):
        return f"QMatrix({[[str(x) for x in row] for row in self.rows]})"

    def __str__(self):
        cells = [[str(x) for x in row] for row in self.rows]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join("[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells)


class SmithForm:
    """Result of smith_normal_form: unimodular U, V with U a V = S diagonal,
    invariant factors nonnegative, each dividing the next (zeros last)."""

    __slots__ = ("u", "s", "v", "invariant_factors")

    def __init__(self, u, s, v, invariant_factors):
        self.u = u
        self.s = s
        self.v = v
        self.invariant_factors = invariant_factors

    def __repr__(self):
        return f"SmithForm(invariant_factors={self.invariant_factors})"

    def inverse(self) -> QMatrix:
        """Inverse V S^{-1} U of the reduced matrix, which must be square and
        nonsingular.  S^{-1} is scaled by the last invariant factor, so the
        product stays integral until one final division."""
        top = self.invariant_factors[-1] if self.invariant_factors else 0
        if len(self.u) != len(self.v) or top == 0:
            raise ValueError("only a nonsingular square matrix has an inverse")
        scaled = ([top // f * x for x in row] for row, f in zip(self.u, self.invariant_factors))
        cols = list(zip(*scaled))
        return QMatrix([[Fraction(sum(map(mul, row, col)), top) for col in cols] for row in self.v])


def _int_rows(a) -> list[list[int]]:
    if isinstance(a, QMatrix):
        if not a.is_integral():
            raise ValueError("smith_normal_form needs integer entries")
        return [[int(x) for x in row] for row in a.rows]
    rows = [list(row) for row in a]
    for row in rows:
        for x in row:
            if x != int(x):
                raise ValueError("smith_normal_form needs integer entries")
    return [[int(x) for x in row] for row in rows]


def smith_normal_form(a) -> SmithForm:
    """Smith normal form over the integers with transform tracking.

    Standard pivot-reduce algorithm: bring the smallest nonzero entry of the
    trailing block to the pivot slot, clear its row and column by division
    with remainder, and when the pivot fails to divide some remaining entry,
    fold that row in and keep reducing.  All row ops mirror into u, column
    ops into v, so u @ a @ v == s exactly.
    """
    s = _int_rows(a)
    nr = len(s)
    nc = len(s[0]) if nr else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def add_row(i, j, q):  # row i += q * row j
        s[i] = [x + q * y for x, y in zip(s[i], s[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_col(i, j, q):  # col i += q * col j
        for row in s:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # locate smallest nonzero entry in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    add_row(i, t, -q)
                    if s[i][t]:  # remainder strictly smaller: promote it
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    add_col(j, t, -q)
                    if s[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # pivot must divide everything left below-right of it
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if s[i][j] % s[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    for i in range(min(nr, nc)):
        if s[i][i] < 0:
            negate_row(i)

    factors = tuple(s[i][i] for i in range(min(nr, nc)))
    freeze = lambda m: tuple(tuple(row) for row in m)
    return SmithForm(freeze(u), freeze(s), freeze(v), factors)
