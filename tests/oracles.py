"""Independent reference implementations used only by tests.

These deliberately avoid the library's elimination/SNF code paths:
determinants and inverses go through cofactor expansion, matrix products
are plain Fraction sums over rows, and quotient group structure is found
by brute-force coset enumeration.  The formal phi0 expansion and
Mordell-Weil scaling below check the library's closed forms and
divisibility witnesses without sharing their formulas, and the
symbol-by-symbol pairing checks the intersection table's Gram matrix.
The torsion closure check adds every pair of elements, where the library
adds only the generators, and the matrix layout prints a matrix's Fraction
entries, where the library reads its integer numerators.  The section, torsion and class profiles at the
end build test inputs that no library path needs.
"""

from fractions import Fraction
from functools import lru_cache

from ajimage.errors import InconsistentDataError, MissingIntersectionError
from ajimage.kodaira import fiber_data
from ajimage.mwgroup import MWPoint
from ajimage.nslattice import (
    SYM_F,
    SYM_O,
    DivisorProfile,
    FormalClass,
    SectionProfile,
    divisor_sym,
    section_sym,
    theta,
)


def det_cofactor(rows):
    return _det_cofactor(tuple(tuple(Fraction(x) for x in row) for row in rows))


@lru_cache(maxsize=None)
def _det_cofactor(rows):
    # Laplace expansion along the first row.  The minors of one matrix repeat
    # across the expansion (and across the minors an adjugate needs), so
    # memoizing on the rows makes it cost about 2^n instead of n! steps.
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = tuple(r[:j] + r[j + 1 :] for r in rows[1:])
        total += (-1) ** j * rows[0][j] * _det_cofactor(minor)
    return total


def inverse_adjugate(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    n = len(rows)
    d = det_cofactor(rows)
    assert d != 0, "oracle: singular"
    inv = []
    for i in range(n):
        inv_row = []
        for j in range(n):
            minor = [r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j]
            inv_row.append((-1) ** (i + j) * det_cofactor(minor) / d)
        inv.append(inv_row)
    return inv


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(Fraction(x) * Fraction(y) for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(rows, vec):
    return tuple(sum(Fraction(a) * Fraction(b) for a, b in zip(row, vec)) for row in rows)


def solve_via_adjugate(rows, b):
    return mat_vec(inverse_adjugate(rows), b)


def matrix_layout(rows):
    """Text lines of a rational matrix, from its entries as Fractions: each
    entry right-aligned to the widest, two spaces apart, in brackets."""
    cells = [[str(Fraction(x)) for x in row] for row in rows]
    width = max(len(c) for row in cells for c in row)
    return ["[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells]


def coset_orders(gram):
    """Element orders of Z^m / (gram Z^m), by brute-force enumeration.

    Equality of cosets x ~ y is tested through gram^{-1}(x - y) being
    integral, with the inverse from the adjugate oracle.  Only usable for
    small quotients (|det| modest), which is all the tests need.
    """
    m = len(gram)
    inv = inverse_adjugate(gram)

    def in_lattice(x):
        return all(v.denominator == 1 for v in mat_vec(inv, x))

    def same(x, y):
        return in_lattice(tuple(a - b for a, b in zip(x, y)))

    reps = [tuple([0] * m)]
    frontier = [tuple([0] * m)]
    basis = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    while frontier:
        nxt = []
        for r in frontier:
            for e in basis:
                cand = tuple(a + b for a, b in zip(r, e))
                if not any(same(cand, known) for known in reps):
                    reps.append(cand)
                    nxt.append(cand)
        frontier = nxt
        assert len(reps) < 1000, "oracle: quotient too large"

    orders = []
    for r in reps:
        k = 1
        while not in_lattice(tuple(k * a for a in r)):
            k += 1
            assert k <= 1000
        orders.append(k)
    return sorted(orders)


def abelian_order_multiset(factors):
    """Element orders of prod Z/f for comparison with coset_orders."""
    from itertools import product
    from math import gcd, lcm

    orders = []
    for combo in product(*(range(f) for f in factors)):
        os = [f // gcd(c, f) if c else 1 for c, f in zip(combo, factors)]
        orders.append(lcm(*os) if os else 1)
    return sorted(orders)


def phi0(table, divisor):
    """phi0(D) = D - d O - (d chi + O.D) F - sum_v Theta_v A_v^{-1} c(v, D) as a
    formal class of a registered divisor, so that pairing it through the
    table's generic pairing code can be compared with the closed forms
    mwgroup._phi0_self / _phi0_cross."""
    d = table.divisors[divisor]
    chi = table.cfg.chi
    out = {divisor_sym(d.name): Fraction(1), SYM_O: Fraction(-d.d),
           SYM_F: Fraction(-(d.d * chi + d.d_dot_o))}
    for fid, _ in table.cfg.fibers:
        cvec = d.c.get(fid)
        if not cvec or not any(cvec):
            continue
        # A_v^{-1} c from the inverse's numerators and denominator, not
        # through mwgroup._solves
        a_inv = table.fibers[fid].a_inv
        for i, x in enumerate(mat_vec(a_inv.num, cvec), start=1):
            out[theta(fid, i)] = out.get(theta(fid, i), Fraction(0)) - x / a_inv.den
    return FormalClass(out)


def pair_reference(table, a, b):
    """Intersection number of two symbols by case analysis over their kinds
    (O, F, Theta_{v,i}, sections, divisors), expanding Theta_{v,0} through the
    fiber relation on each use.  Reads the table's registered profiles and
    fiber matrices only, never its Gram matrix."""
    order = {"O": 0, "F": 1, "theta": 2, "section": 3, "divisor": 4}
    if order[a[0]] > order[b[0]]:
        a, b = b, a
    chi = table.cfg.chi
    if a == SYM_O:
        if b == SYM_O:
            return Fraction(-chi)
        if b == SYM_F:
            return Fraction(1)
        if b[0] == "theta":
            if b[2] == 0:
                return pair_class_reference(table, _theta0(table, b[1]), FormalClass.of(SYM_O))
            return Fraction(0)
        if b[0] == "section":
            return Fraction(table.sections[b[1]].s_dot_o)
        return Fraction(table.divisors[b[1]].d_dot_o)
    if a == SYM_F:
        if b == SYM_F or b[0] == "theta":
            return Fraction(0)
        if b[0] == "section":
            return Fraction(1)
        return Fraction(table.divisors[b[1]].d)
    if a[0] == "theta":
        _, fid, i = a
        if i == 0:
            return pair_class_reference(table, _theta0(table, fid), FormalClass.of(b))
        if b[0] == "theta":
            _, gid, j = b
            if gid != fid:
                return Fraction(0)
            if j == 0:
                return pair_class_reference(table, _theta0(table, gid), FormalClass.of(a))
            return table.fibers[fid].a[i - 1, j - 1]
        if b[0] == "section":
            return Fraction(int(table.sections[b[1]].components.get(fid, 0) == i))
        return Fraction(table.divisors[b[1]].c[fid][i - 1])
    if a[0] == "section":
        if b[0] == "section":
            if a[1] == b[1]:
                return Fraction(-chi)
            raise MissingIntersectionError(f"distinct sections {a[1]!r}.{b[1]!r}")
        return _registered(table.divisors[b[1]].d_dot_section.get(a[1]), a, b)
    da, db = table.divisors[a[1]], table.divisors[b[1]]
    if a[1] == b[1]:
        return _registered(da.d_squared, a, b)
    return _registered(da.d_dot_divisor.get(b[1], db.d_dot_divisor.get(a[1])), a, b)


def _registered(value, a, b):
    if value is None:
        raise MissingIntersectionError(f"no registered pairing {a}.{b}")
    return Fraction(value)


def _theta0(table, fid):
    # Theta_{v,0} = F - sum_{i>=1} a_i Theta_{v,i}
    mults = table.fibers[fid].multiplicities
    coeffs = {SYM_F: Fraction(1)}
    for i in range(1, len(mults)):
        coeffs[theta(fid, i)] = Fraction(-mults[i])
    return FormalClass(coeffs)


def pair_class_reference(table, x, y):
    """x.y term by term through pair_reference."""
    total = Fraction(0)
    for sa, ca in x.coeffs.items():
        for sb, cb in y.coeffs.items():
            total += ca * cb * pair_reference(table, sa, sb)
    return total


def mw_scale(n, point, group):
    """n * point in Z x T arithmetic (the name tag does not survive)."""
    coords = group.reduce(point.torsion) if point.torsion else group.zero()
    return MWPoint(n * point.free_coeff, group.scale(n, coords))


def torsion_closed_reference(factors, moduli, classes):
    """Is coords -> class additive on all |T|^2 pairs?  classes maps every
    element of prod Z/f (f in factors) to a class vector mod moduli."""
    for a, ca in classes.items():
        for b, cb in classes.items():
            total = tuple((x + y) % f for x, y, f in zip(a, b, factors))
            if classes[total] != tuple((x + y) % m for x, y, m in zip(ca, cb, moduli)):
                return False
    return True


def section_as_divisor(table, section, name=None):
    """A section's own divisor profile (d = 1, D^2 = -chi, indicator c's)."""
    s = table.sections[section] if isinstance(section, str) else section
    chi = table.cfg.chi
    c = {}
    for fid, _ in table.cfg.fibers:
        k = s.components.get(fid, 0)
        vec = [0] * (table.fibers[fid].m - 1)
        if k:
            vec[k - 1] = 1
        c[fid] = tuple(vec)
    return DivisorProfile(
        name or s.name, d=1, d_dot_o=s.s_dot_o, c=c, d_squared=-chi,
        d_dot_section={s.name: -chi},
    )


def section_height(chi, kinds, s_dot_o, components):
    """<P, P> = 2 chi + 2 s.O + sum_v (A_v^{-1})_kk of a section through
    components[v] of the fiber of kind kinds[v]; A_v^{-1} comes from the
    adjugate."""
    return 2 * chi + 2 * s_dot_o + sum(
        (inverse_adjugate(fiber_data(kinds[fid]).a.num)[k - 1][k - 1]
         for fid, k in components.items() if k),
        Fraction(0),
    )


def torsion_profile(cfg, spec):
    """A torsion-table entry as a section profile: height zero forces s.O."""
    s_dot_o = -section_height(cfg.chi, dict(cfg.fibers), 0, spec.components) / 2
    assert s_dot_o.denominator == 1 and s_dot_o >= 0, "oracle: not a torsion section"
    return SectionProfile(spec.name, int(s_dot_o), dict(spec.components))


def profile_from_class(table, cls, name):
    """The divisor profile of a formal class, from its pairings with the
    generators (table.profile) and its self-pairing."""
    gens = table.generators()
    values = table.profile(cls)
    for sym, value in zip(gens, values):
        if value.denominator != 1:
            raise InconsistentDataError(f"class {name!r}: non-integral pairing with {sym}")
    pairing = dict(zip(gens, map(int, values)))
    c = {
        fid: tuple(pairing[theta(fid, i)] for i in range(1, table.fibers[fid].m))
        for fid, _ in table.cfg.fibers
    }
    d_dot_section = {s.name: pairing[section_sym(s.name)] for s in table.cfg.sections}
    return DivisorProfile(
        name, pairing[SYM_F], pairing[SYM_O], c, table.pair_class(cls, cls), d_dot_section
    )
