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
entries, where the library reads its integer numerators.  The local height
contributions, and the s.O of a section's multiples, come from Shioda's
closed forms, where the library reads A_v^{-1} and solves the height
identity (`nslattice._s_dot_o`).  The section, torsion and class profiles
at the end build test inputs that no library path needs; `pair` reads one
symbol pair and `plus` adds terms to a class, which no library path does
either; and the config writer renders a document the way the shipped files
are stored, which the library only ever reads.  The arrangement incidences
are evaluated on the stored normalized Fractions, where the library reads
integer triples, and `drawn_arrangement` caps the redraws of a degenerate
draw, so that a generator that refuses every draw fails a test instead of
hanging it.
"""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

from ajimage import configio
from ajimage.arrangement import generate_arrangement
from ajimage.errors import (
    DegenerateArrangementError,
    InconsistentDataError,
    MissingIntersectionError,
)
from ajimage.kodaira import FiberKind, fiber_data
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
    table's generic pairing code can be compared with the closed form
    nslattice._phi0_pairing."""
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


def group_elements(group):
    """Every element of an AbelianGroup, as reduced coordinate tuples."""
    return product(*(range(f) for f in group.invariant_factors))


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


# contr_v of a non-identity simple component of the kinds whose value does
# not depend on which one (Shioda 1990, (8.16))
_CONTRIBUTION = {"III": Fraction(1, 2), "IV": Fraction(2, 3), "IV*": Fraction(4, 3),
                 "III*": Fraction(3, 2)}


def contribution(kind, j, k=1):
    """contr_v(kP) for the section P through component j of a fiber of this
    kind, from Shioda's closed forms (On the Mordell-Weil lattices, 1990,
    (8.16)), not from A_v^{-1}.  kP meets the component of k times j's class.
    On I_n that is a = kj mod n, with contr a (n - a) / n.  On I*_n, Theta_1
    (at Theta_0's end of the chain) has contr 1 and order 2; Theta_2 and
    Theta_3 have contr 1 + n/4, order 4 for odd n (twice either is Theta_1)
    and 2 for even n.  III and III* have order 2, IV and IV* order 3."""
    kind = FiberKind.parse(kind)
    fam, n = kind.family, kind.n
    if fam == "I":
        a = k * j % n
        return Fraction(a * (n - a), n)
    if not j:
        return Fraction(0)
    if fam != "I*":
        return _CONTRIBUTION[fam] if k % (3 if fam in ("IV", "IV*") else 2) else Fraction(0)
    if k % 2:
        return Fraction(1) if j == 1 else 1 + Fraction(n, 4)
    return Fraction(int(j > 1 and n % 2 == 1 and k % 4 == 2))


def multiple_s_dot_o(chi, kinds, section, k):
    """s(kP).O of the k-th multiple of a section P by the height identity
    <kP, kP> = k^2 <P, P>, with <Q, Q> = 2 chi + 2 s(Q).O - sum_v contr_v(Q)
    and every contr_v from `contribution`.  kinds maps fiber ids to kinds."""
    def local(m):
        return sum((contribution(kinds[fid], j, m) for fid, j in section.components.items()),
                   Fraction(0))

    height = 2 * chi + 2 * section.s_dot_o - local(1)
    return (k * k * height - 2 * chi + local(k)) / 2


def torsion_profile(cfg, spec):
    """A torsion-table entry as a section profile: height zero forces s.O."""
    s_dot_o = -section_height(cfg.chi, dict(cfg.fibers), 0, spec.components) / 2
    assert s_dot_o.denominator == 1 and s_dot_o >= 0, "oracle: not a torsion section"
    return SectionProfile(spec.name, int(s_dot_o), dict(spec.components))


def pair(table, a, b):
    """The intersection number of two symbols, through the table's pair_class."""
    return table.pair_class(FormalClass.of(a), FormalClass.of(b))


def plus(cls, terms):
    """cls + sum of c * sym over terms {sym: c}, as one coefficient dict."""
    coeffs = dict(cls.coeffs)
    for sym, c in terms.items():
        coeffs[sym] = coeffs.get(sym, 0) + c
    return FormalClass(coeffs)


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


# Consecutive refusals after which drawn_arrangement gives up.  The tests'
# draws are refused at most 7.5% of the time, and never more than 4 times
# in a row over 20 000 draws, so only a broken generator reaches the cap.
MAX_REFUSALS = 100


def drawn_arrangement(draw, sign):
    """generate_arrangement(s1, s2, sign) for the first (s1, s2) = draw()
    that it accepts, failing with the last draw named after MAX_REFUSALS
    consecutive refusals."""
    for _ in range(MAX_REFUSALS):
        s1, s2 = draw()
        try:
            return generate_arrangement(s1, s2, sign)
        except DegenerateArrangementError as exc:
            refusal = exc
    raise AssertionError(
        f"{MAX_REFUSALS} consecutive draws refused; the last, s1 = {s1}, s2 = {s2},"
        f" sign = {sign}: {refusal}"
    )


def on_line_reference(line, point):
    """Does the line's stored Fraction equation vanish at the point's stored
    Fractions?"""
    return sum(a * x for a, x in zip(line.coeffs, point.coords)) == 0


def on_cubic_reference(point):
    """Does z*y^2 = x^3 + x^2*z hold on the point's stored Fractions?"""
    x, y, z = point.coords
    return z * y * y == x * x * x + x * x * z


def collinear_reference(a, b, c):
    """Do three points' stored Fractions have a zero cofactor determinant?"""
    return det_cofactor([a.coords, b.coords, c.coords]) == 0


DATA = Path(configio.__file__).parent / "data"


def shipped_document(name):
    """A shipped document (a stem of configio.BUNDLED) as parsed JSON, read
    from its file."""
    return json.loads((DATA / f"{name}.json").read_text("utf-8"))


def dumps_config(config):
    """A ConfigDocument as canonical JSON text: sorted keys, two-space
    indent, one final newline, and an optional key only when it has data.
    Every field is an int, as configio parses them."""
    cfg = config.surface
    surface = {
        "chi": cfg.chi,
        "fibers": [{"id": fid, "kind": str(kind)} for fid, kind in cfg.fibers],
        "mw_free_rank": cfg.mw_free_rank,
        "sections": [{"name": s.name, "s_dot_O": s.s_dot_o, "components": dict(s.components)}
                     for s in cfg.sections],
    }
    if cfg.torsion_group.invariant_factors:
        surface["torsion_group"] = list(cfg.torsion_group.invariant_factors)
    if cfg.torsion_table:
        surface["torsion_table"] = [
            {"name": t.name, "components": dict(t.components), "coords": list(t.coords)}
            for t in cfg.torsion_table
        ]
    divisors = []
    for d in config.divisors:
        doc = {"name": d.name, "d": d.d, "D_dot_O": d.d_dot_o,
               "c": {fid: list(vec) for fid, vec in d.c.items() if vec is not None}}
        optional = {"D_squared": d.d_squared, "D_dot_section": d.d_dot_section,
                    "D_dot_divisor": d.d_dot_divisor}
        doc.update((key, value) for key, value in optional.items() if value not in (None, {}))
        divisors.append(doc)
    document = {"schema_version": configio.SCHEMA_VERSION, "surface": surface,
                "divisors": divisors}
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
