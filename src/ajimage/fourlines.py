"""Bundled reference surface: the rational elliptic surface attached to a
nodal-cubic double cover with four branch lines (three of them tangent to
the cubic, one transversal).

The one source of its numbers is the pair of shipped documents
data/fourlines_type1.json (collinear splitting shape) and
data/fourlines_type2.json (non-collinear); both carry the same surface.
`four_line_surface`, `eplus_profile` and `eminus_profile` return objects
of the parsed documents, which `configio.bundled_config` parses once per
process; no caller mutates them.  What the documents say:

* chi = 1, reducible fibers I0* (over the transversal line's direction,
  id "inf") + three I2 (ids "1", "2", "3"), Euler numbers 6 + 3*2 = 12.
* Mordell-Weil group: free rank 1 with a generator section s_o of height
  1/2 (s_o.O = 0, meeting Theta_{inf,1} and Theta_{1,1}), plus torsion
  (Z/2)^2 realized by three height-zero sections t1, t2, t3.
* The preimage of the cubic splits into two components E+ and E- with
  degree 3 over the base, meeting the I0* fiber in its three outer simple
  components once each (c(inf) = (1, 1, 1, 0)), disjoint from O and from
  the I2 fibers' non-identity components.

Where the splitting numbers come from.  The degree-9 budget on the nodal
model gives (E+)^2 = 6 - E+.E-, and E+.E- is 3 when the tangency points
are collinear, 5 when they are not: (E+)^2 = 3 resp. 1.  Since
A_inf^{-1} c(inf) = (-2, -2, -2, -3), the quadratic route reads
n^2 = 2 (3 - (E+)^2) = 0 resp. 4, and the linear route n = 2 (1 - E+.s_o),
so E+.s_o = 1 resp. 0 fixes n = 0 resp. 2.  E- is the involution image of
E+: the involution fixes O, F and all fiber components, so degree, D.O, D^2
and the c-vectors match, and <P_{E-}, P_o> = -<P_{E+}, P_o> gives n = 0
resp. -2, so E-.s_o = 1 resp. 2.

`bundled_derivation` derives each bundled divisor once per process, on its
shape's `bundled_table`; the covers, the arrangement images, the class
relation and the demo all read it.
"""

from __future__ import annotations

from functools import cache

from .configio import BUNDLED, ConfigDocument, bundled_config
from .errors import SchemaError
from .mwgroup import Derivation, _solves, derive
from .nslattice import (
    SYM_F,
    SYM_O,
    DivisorProfile,
    FormalClass,
    IntersectionTable,
    SurfaceConfig,
    build_table,
    divisor_sym,
    section_sym,
    theta,
)

GENERATOR = "s_o"

# the shipped document (a stem of configio.BUNDLED) of each splitting shape
DOCUMENTS = dict(zip(("collinear", "noncollinear"), BUNDLED))

VARIANTS = tuple(DOCUMENTS)


def _document(variant: str) -> ConfigDocument:
    if variant not in DOCUMENTS:
        raise SchemaError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return bundled_config(DOCUMENTS[variant])


def _divisor(variant: str, name: str) -> DivisorProfile:
    return next(d for d in _document(variant).divisors if d.name == name)


def four_line_surface() -> SurfaceConfig:
    """Surface configuration with the generator section and torsion table."""
    return _document(VARIANTS[0]).surface


def eplus_profile(variant: str) -> DivisorProfile:
    """Profile of the cubic-preimage component E+ for a splitting shape."""
    return _divisor(variant, "E+")


def eminus_profile(variant: str) -> DivisorProfile:
    """Profile of E-, the involution image of E+."""
    return _divisor(variant, "E-")


@cache
def bundled_table(variant: str) -> IntersectionTable:
    """The table of a splitting shape's document, E+ and E- registered."""
    doc = _document(variant)
    return build_table(doc.surface, doc.divisors)


@cache
def bundled_derivation(variant: str, divisor: str) -> Derivation:
    """`derive` of a bundled divisor along s_o on its shape's table, once per
    process: the one place a bundled divisor is derived."""
    return derive(bundled_table(variant), divisor, GENERATOR)


@cache
def ns_relation(variant: str) -> tuple[FormalClass, FormalClass]:
    """The Neron-Severi relation (lhs, rhs) of E+ on a splitting shape.

    E+ ~ n s_o + T(E+ - n s_o), with n the free coefficient of P_{E+} and
    T(X) = d O + (d chi + X.O) F + sum_v sum_i (A_v^{-1} c(v, X))_i Theta_{v,i}
    the class in the trivial lattice that pairs with O, F and every Theta
    like X does: E+ - n s_o is torsion plus trivial-lattice classes, so it
    is its own T.  On the shipped documents:

    collinear (n = 0):
        E+  ~  3 O + 3 F - 2 Theta_inf_1 - 2 Theta_inf_2 - 2 Theta_inf_3
               - 3 Theta_inf_4
    noncollinear (n = 2):
        E+  ~  2 s_o + O + F - Theta_inf_2 - Theta_inf_3 - Theta_inf_4
               + Theta_1_1
    """
    table = bundled_table(variant)
    eplus, gen = table.divisors["E+"], table.sections[GENERATOR]
    n = bundled_derivation(variant, "E+").point.free_coeff
    # E+ - n s_o: s_o has d = 1, s.O and c(v, s_o) = e_k at its component k
    rest = DivisorProfile("E+ - n s_o", eplus.d - n, eplus.d_dot_o - n * gen.s_dot_o, {
        fid: tuple(x - n * (i == gen.components.get(fid, 0)) for i, x in enumerate(c, 1))
        for fid, c in eplus.c.items()
    })
    d, chi = rest.d, table.cfg.chi
    coeffs = {section_sym(GENERATOR): n, SYM_O: d, SYM_F: d * chi + rest.d_dot_o}
    for fid, x in _solves(table, rest).items():
        coeffs.update((theta(fid, i), -v) for i, v in enumerate(x, 1))
    return FormalClass.of(divisor_sym("E+")), FormalClass(coeffs)
