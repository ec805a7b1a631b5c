"""Bundled reference surface: the rational elliptic surface attached to a
nodal-cubic double cover with four branch lines (three of them tangent to
the cubic, one transversal).

Numerical facts shipped here:

* chi = 1, reducible fibers I0* (over the transversal line's direction,
  id "inf") + three I2 (ids "1", "2", "3"), Euler numbers 6 + 3*2 = 12.
* Mordell-Weil group: free rank 1 with a generator section s_o of height
  1/2 (s_o.O = 0, meeting Theta_{inf,1} and Theta_{1,1}), plus torsion
  (Z/2)^2 realized by three height-zero sections t1, t2, t3.
* The preimage of the cubic splits into two components E+ and E- with
  degree 3 over the base, meeting the I0* fiber in its three outer simple
  components once each, disjoint from O and from the I2 fibers' non-identity
  components.  Two shapes occur: the "collinear" one ((E+)^2 = 3, E+.E- = 3,
  E+ ~ E-) and the "non-collinear" one ((E+)^2 = 1, E+.E- = 5).
* Two Neron-Severi relations tying E+/E- to the generator, one per shape.

Everything else the library computes from these profiles.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SchemaError
from .kodaira import AbelianGroup, FiberKind
from .nslattice import (
    DivisorProfile,
    FormalClass,
    SectionProfile,
    SurfaceConfig,
    SYM_F,
    SYM_O,
    TorsionSectionSpec,
    section_sym,
    theta,
)

FIBER_IDS = ("inf", "1", "2", "3")

GENERATOR = "s_o"

VARIANTS = ("collinear", "noncollinear")


def four_line_surface() -> SurfaceConfig:
    """Surface configuration with the generator section and torsion table."""
    return SurfaceConfig(
        chi=1,
        fibers=(
            ("inf", FiberKind.parse("I0*")),
            ("1", FiberKind.parse("I2")),
            ("2", FiberKind.parse("I2")),
            ("3", FiberKind.parse("I2")),
        ),
        sections=(SectionProfile(GENERATOR, 0, {"inf": 1, "1": 1, "2": 0, "3": 0}),),
        mw_free_rank=1,
        torsion_group=AbelianGroup((2, 2)),
        torsion_table=(
            TorsionSectionSpec("t1", {"inf": 1, "1": 0, "2": 1, "3": 1}, (1, 0)),
            TorsionSectionSpec("t2", {"inf": 2, "1": 1, "2": 0, "3": 1}, (0, 1)),
            TorsionSectionSpec("t3", {"inf": 3, "1": 1, "2": 1, "3": 0}, (1, 1)),
        ),
    )


def _variant_numbers(variant: str) -> tuple[int, int, int]:
    """(E+)^2, E+.E-, E+.s_o for a splitting shape.

    degree-9 budget: (E+)^2 = 6 - E+.E- on the nodal model.  E+.s_o follows
    from the free coefficient (0 resp. 2) through the linear formula.
    """
    if variant == "collinear":
        return 3, 3, 1
    if variant == "noncollinear":
        return 1, 5, 0
    raise SchemaError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def eplus_profile(variant: str, include_sections: bool = True) -> DivisorProfile:
    """Profile of the cubic-preimage component E+ for a splitting shape."""
    sq, cross, dot_gen = _variant_numbers(variant)
    return DivisorProfile(
        name="E+",
        d=3,
        d_dot_o=0,
        c={"inf": (1, 1, 1, 0), "1": (0,), "2": (0,), "3": (0,)},
        d_squared=sq,
        d_dot_section={GENERATOR: dot_gen} if include_sections else {},
        d_dot_divisor={"E-": cross},
    )


def eminus_profile(variant: str) -> DivisorProfile:
    """Profile of E-, the involution image of E+.

    The involution fixes O, F and all fiber components, so degree, D.O and
    the c-vectors match E+; the pairing with s_o flips to the value forced
    by <P_{E-}, P_o> = -<P_{E+}, P_o>.
    """
    sq, cross, dot_gen = _variant_numbers(variant)
    # <P_{E-}, P_o> = -n/2 forces E-.s_o = 1 (collinear) resp. 2
    dot_gen_minus = {1: 1, 0: 2}[dot_gen]
    return DivisorProfile(
        name="E-",
        d=3,
        d_dot_o=0,
        c={"inf": (1, 1, 1, 0), "1": (0,), "2": (0,), "3": (0,)},
        d_squared=sq,
        d_dot_section={GENERATOR: dot_gen_minus},
        d_dot_divisor={"E+": cross},
    )


def ns_relation(variant: str) -> tuple[FormalClass, FormalClass]:
    """The shipped Neron-Severi relation (lhs, rhs) for a splitting shape.

    collinear:
        E+  ~  3 O + 3 F - 2 Theta_inf_1 - 2 Theta_inf_2 - 2 Theta_inf_3
               - 3 Theta_inf_4
    noncollinear:
        E+ + 2 (Theta_inf_2 + Theta_inf_3 + Theta_1_1) - E-
            ~  4 (s_o - O - F + Theta_inf_1 + Theta_inf_2 + Theta_inf_3
                  + Theta_inf_4 + Theta_1_1)
    """
    from .nslattice import divisor_sym

    eplus = FormalClass.of(divisor_sym("E+"))
    if variant == "collinear":
        rhs = FormalClass(
            {
                SYM_O: Fraction(3),
                SYM_F: Fraction(3),
                theta("inf", 1): Fraction(-2),
                theta("inf", 2): Fraction(-2),
                theta("inf", 3): Fraction(-2),
                theta("inf", 4): Fraction(-3),
            }
        )
        return eplus, rhs
    if variant == "noncollinear":
        eminus = FormalClass.of(divisor_sym("E-"))
        lhs = (
            eplus
            + 2 * FormalClass.of(theta("inf", 2))
            + 2 * FormalClass.of(theta("inf", 3))
            + 2 * FormalClass.of(theta("1", 1))
            - eminus
        )
        rhs = 4 * FormalClass(
            {
                section_sym(GENERATOR): Fraction(1),
                SYM_O: Fraction(-1),
                SYM_F: Fraction(-1),
                theta("inf", 1): Fraction(1),
                theta("inf", 2): Fraction(1),
                theta("inf", 3): Fraction(1),
                theta("inf", 4): Fraction(1),
                theta("1", 1): Fraction(1),
            }
        )
        return lhs, rhs
    raise SchemaError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
