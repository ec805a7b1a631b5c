"""Exact rational linear algebra: rational matrices and Smith normal form
with unimodular transforms.

Everything here is exact; floats never appear.  A QMatrix stores integer
rows over one positive denominator, in lowest terms, and hands out
Fractions only on read.  The Smith form is the only elimination the
library runs, once per fiber kind when its catalog is built: kodaira
reads the inverse A^{-1}, the component group and every dual class off
it.  (nslattice reads the rank of a table's generators off Shioda-Tate in
closed form, with no elimination.)  The inverse comes out as integer
numerators over the last invariant factor, which is the denominator of
A^{-1} in lowest terms.

`exact_number` and `exact_int` are the one reader of a caller's numbers: a
float or a bool is refused with a TypeError that names it, and `exact_int`
refuses a non-integral rational with a SchemaError.

The reduction takes three exact shortcuts that leave its sequence of
operations, and so U, S and V, unchanged: the pivot scan stops at the first
unit (no nonzero entry is smaller), a unit pivot skips the "pivot divides
the rest" scan, and a column operation skips the rows that are zero in its
source column.  The inverse skips the zeros of V.  The negated Cartan
matrix of a Kodaira fiber has a unit pivot at every step and a V with about
two nonzeros per row, so the I256 catalog (255 x 255) builds in 0.16-0.18 s
instead of 1.5-1.9 s (CPython 3.11, x86_64).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import SchemaError


def exact_number(x, where: str) -> "int | Fraction":
    """x as an int when integral, else as a Fraction.  A float or a bool is
    refused with a TypeError naming it: 0.1 would be stored as
    3602879701896397/2**55, not as 1/10, and True would be taken as 1."""
    if type(x) is int:
        return x
    if isinstance(x, (float, bool)):
        raise TypeError(f"{where} takes exact numbers, not the {type(x).__name__} {x!r}")
    try:
        q = Fraction(x)
    except (TypeError, ValueError) as exc:  # not a number, or not a rational's text
        raise type(exc)(f"{where} takes exact numbers, not {x!r}") from None
    return q.numerator if q.denominator == 1 else q


def exact_int(x, where: str) -> int:
    """x as an int: exact_number, and a SchemaError for a non-integral value."""
    if type(x) is int:
        return x
    x = exact_number(x, where)
    if type(x) is not int:
        raise SchemaError(f"{where} must be an integer, not {x}")
    return x


def _numerators(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    values = list(values)
    if all(type(x) is int for x in values):
        return values, 1
    fracs = [Fraction(exact_number(x, "QMatrix")) for x in values]
    den = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (den // x.denominator) for x in fracs], den


def _cell(x: int, den: int) -> "int | str":
    g = gcd(x, den)
    return x // g if g == den else f"{x // g}/{den // g}"


def matrix_lines(cells) -> list[str]:
    """Text rows of a matrix's printed entries (``QMatrix.cells``): each
    right-aligned to the widest, two spaces apart, in brackets."""
    strs = [[str(c) for c in row] for row in cells]
    width = max((len(c) for row in strs for c in row), default=1)
    return ["[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in strs]


class QMatrix:
    """Immutable rational matrix: integer rows ``num`` over one positive
    denominator ``den``, in lowest terms.

    ``QMatrix(rows)`` takes rows of rationals (ints, Fractions, or anything
    Fraction accepts); ``QMatrix(rows, den)`` reads the entries over ``den``,
    so integer numerators build a matrix without one Fraction per entry.
    """

    __slots__ = ("num", "den")

    def __init__(self, rows, den: int = 1):
        rows = [tuple(row) for row in rows]
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        if rows and width == 0:
            raise ValueError("empty rows")
        if den == 0:
            raise ZeroDivisionError("QMatrix denominator is zero")
        flat, scale = _numerators(x for row in rows for x in row)
        den *= scale
        g = gcd(den, *flat)
        if den < 0:
            g = -g
        flat = [x // g for x in flat]
        num = tuple(tuple(flat[i * width : (i + 1) * width]) for i in range(len(rows)))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self.den == other.den and self.num == other.num

    def cells(self) -> list[list["int | str"]]:
        """Entries as they are printed: an int when integral, else "p/q" in
        lowest terms.  One gcd per entry, read off the numerators; the JSON
        and text renderings both come from here."""
        den = self.den
        return [[_cell(x, den) for x in row] for row in self.num]

    def __repr__(self):
        return f"QMatrix({[[str(c) for c in row] for row in self.cells()]})"

    def __str__(self):
        return "\n".join(matrix_lines(self.cells()))


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
        nonsingular.  S^{-1} is scaled by the last invariant factor top, so
        the product is an integer matrix over top, already in lowest terms:
        top is the exponent of the cokernel."""
        top = self.invariant_factors[-1] if self.invariant_factors else 0
        if len(self.u) != len(self.v) or top == 0:
            raise ValueError("only a nonsingular square matrix has an inverse")
        scaled = [[top // f * x for x in row] for row, f in zip(self.u, self.invariant_factors)]
        out = []
        for row in self.v:  # V is sparse on every fiber kind: skip its zeros
            acc = [0] * len(scaled)
            for x, srow in zip(row, scaled):
                if x:
                    acc = [a + x * y for a, y in zip(acc, srow)]
            out.append(acc)
        return QMatrix(out, top)


def smith_normal_form(a) -> SmithForm:
    """Smith normal form over the integers with transform tracking.

    Standard pivot-reduce algorithm: bring the smallest nonzero entry of the
    trailing block to the pivot slot, clear its row and column by division
    with remainder, and when the pivot fails to divide some remaining entry,
    fold that row in and keep reducing.  All row ops mirror into u, column
    ops into v, so u @ a @ v == s exactly.
    """
    s = [[exact_int(x, "smith_normal_form entry") for x in row] for row in a]
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
            if row[j]:
                row[i] += q * row[j]
        for row in v:
            if row[j]:
                row[i] += q * row[j]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # locate the first smallest nonzero entry of the trailing block; no
        # entry is smaller than a unit, so the scan stops at the first one
        best, least = None, 0
        for i in range(t, nr):
            row = s[i]
            for j in range(t, nc):
                x = abs(row[j])
                if x and (best is None or x < least):
                    best, least = (i, j), x
                    if x == 1:
                        break
            if least == 1:
                break
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
        # pivot must divide everything left below-right of it (a unit does)
        offender = None
        pivot = s[t][t]
        if abs(pivot) != 1:
            for i in range(t + 1, nr):
                if any(x % pivot for x in s[i][t + 1 :]):
                    offender = i
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
