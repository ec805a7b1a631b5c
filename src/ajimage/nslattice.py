"""Intersection bookkeeping on an elliptic surface with section.

A surface is described purely numerically: Euler characteristic chi of the
structure sheaf, the list of reducible fibers (Kodaira kinds), section
profiles (intersection with the zero section O plus the component each
section meets in every reducible fiber) and divisor profiles (degree d =
D.F, D.O, the component-incidence vectors c(v, D), optionally D^2 and
pairings against named sections/divisors).

From that data the table answers every pairing the theory determines:

    O.O = -chi, O.F = 1, F.F = 0,
    Theta_{v,i}.Theta_{v,j} = A_v[i,j]   (i, j >= 1, same fiber),
    Theta_{v,0} = F - sum_i a_i Theta_{v,i}   (fiber relation),
    s.Theta_{v,i} = [i == component of s at v],   s.s = -chi,
    D.F = d, D.O, D.Theta_{v,i} = c(v, D)_i.

On top of it sit the projection phi0 away from the trivial lattice
<O, F, Theta_{v, i>=1}>, its self/cross intersection numbers in closed
form, the height pairing of sections, and the free coefficient n of a
divisor class along a rank-one Mordell-Weil generator:

    phi0(D) = D - d O - (d chi + O.D) F - sum_v Theta_v A_v^{-1} c(v, D)
    phi0(D).phi0(D) = D^2 - 2 d (D.O) - d^2 chi - sum_v c^T A_v^{-1} c
    phi0(D).phi0(s) = (D - d O).s - d chi - O.D - sum_v c(v,s)^T A_v^{-1} c(v,D)
    <P, Q> = chi + s_P.O + s_Q.O - s_P.s_Q + sum_v c(v,s_P)^T A_v^{-1} c(v,s_Q)
    n^2 = -phi0(D).phi0(D) / <P_o, P_o>,   n = -phi0(D).phi0(s_o) / <P_o, P_o>.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from operator import mul
from typing import Iterable, Mapping

from .errors import InconsistentDataError, MissingIntersectionError, SchemaError
from .kodaira import (
    MAX_COMPONENTS,
    AbelianGroup,
    FiberKind,
    ReducibleFiberData,
    _components,
    _euler,
    dual_class_of,
    fiber_data,
)

# Symbols indexing the intersection form.  Plain tuples keep them hashable
# and easy to pattern match: ("O",), ("F",), ("theta", fiber_id, i),
# ("section", name), ("divisor", name).
SYM_O = ("O",)
SYM_F = ("F",)


def theta(fiber_id: str, i: int) -> tuple:
    return ("theta", fiber_id, i)


def section_sym(name: str) -> tuple:
    return ("section", name)


def divisor_sym(name: str) -> tuple:
    return ("divisor", name)


def _sym_str(sym: tuple) -> str:
    if sym == SYM_O:
        return "O"
    if sym == SYM_F:
        return "F"
    if sym[0] == "theta":
        return f"Theta[{sym[1]},{sym[2]}]"
    return sym[1]


class FormalClass:
    """Finite formal rational combination of symbols."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple, Fraction] | None = None):
        clean = {}
        for sym, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                clean[sym] = c
        self.coeffs = clean

    @staticmethod
    def of(sym: tuple) -> "FormalClass":
        return FormalClass({sym: Fraction(1)})

    def __add__(self, other: "FormalClass") -> "FormalClass":
        out = dict(self.coeffs)
        for sym, c in other.coeffs.items():
            out[sym] = out.get(sym, Fraction(0)) + c
        return FormalClass(out)

    def __sub__(self, other: "FormalClass") -> "FormalClass":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "FormalClass":
        s = Fraction(scalar)
        return FormalClass({sym: s * c for sym, c in self.coeffs.items()})

    def __neg__(self) -> "FormalClass":
        return (-1) * self

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalClass) and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for sym, c in sorted(self.coeffs.items(), key=lambda kv: _sym_str(kv[0])):
            parts.append(f"{c}*{_sym_str(sym)}")
        return " + ".join(parts)


@dataclass(frozen=True)
class SectionProfile:
    """Numerical footprint of a section: s.O and, per reducible fiber, the
    index of the (necessarily simple) component the section passes through."""

    name: str
    s_dot_o: int
    components: Mapping[str, int]


@dataclass(frozen=True)
class TorsionSectionSpec:
    """Torsion-table entry: per-fiber component assignment plus declared
    coordinates in the Mordell-Weil torsion group (s.O is forced by the
    height-zero condition and derived, not stored)."""

    name: str
    components: Mapping[str, int]
    coords: tuple[int, ...]


@dataclass(frozen=True)
class DivisorProfile:
    """All intersection data registered for an effective divisor class."""

    name: str
    d: int  # D.F
    d_dot_o: int
    c: Mapping[str, tuple[int, ...]]  # fiber id -> (D.Theta_{v,1}, ...)
    d_squared: int | Fraction | None = None
    d_dot_section: Mapping[str, int] = field(default_factory=dict)
    d_dot_divisor: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class SurfaceConfig:
    chi: int
    fibers: tuple[tuple[str, FiberKind], ...]
    sections: tuple[SectionProfile, ...]
    mw_free_rank: int
    torsion_group: AbelianGroup = AbelianGroup(())
    torsion_table: tuple[TorsionSectionSpec, ...] = ()


class IntersectionTable:
    """Pairing oracle over the symbols of one configured surface."""

    def __init__(self, cfg: SurfaceConfig, fibers: dict[str, ReducibleFiberData],
                 sections: dict[str, SectionProfile], divisors: dict[str, DivisorProfile]):
        self.cfg = cfg
        self.fibers = fibers
        self.sections = sections
        self.divisors = divisors

    def generators(self) -> list[tuple]:
        """Spanning symbols: O, F, all Theta_{v, i>=1}, all named sections."""
        syms = [SYM_O, SYM_F]
        for fid, _ in self.cfg.fibers:
            for i in range(1, self.fibers[fid].m):
                syms.append(theta(fid, i))
        for s in self.cfg.sections:
            syms.append(section_sym(s.name))
        return syms

    _RANK = {"O": 0, "F": 1, "theta": 2, "section": 3, "divisor": 4}

    def pair(self, a: tuple, b: tuple) -> Fraction:
        if self._RANK[a[0]] > self._RANK[b[0]]:
            a, b = b, a
        return self._pair_ordered(a, b)

    def _theta_expand(self, fid: str) -> FormalClass:
        # Theta_{v,0} = F - sum_{i>=1} a_i Theta_{v,i}
        data = self.fibers[fid]
        coeffs = {SYM_F: Fraction(1)}
        for i in range(1, data.m):
            coeffs[theta(fid, i)] = Fraction(-data.multiplicities[i])
        return FormalClass(coeffs)

    def _pair_ordered(self, a: tuple, b: tuple) -> Fraction:
        chi = self.cfg.chi
        if a == SYM_O:
            if b == SYM_O:
                return Fraction(-chi)
            if b == SYM_F:
                return Fraction(1)
            if b[0] == "theta":
                if b[2] == 0:
                    return self.pair_class(self._theta_expand(b[1]), FormalClass.of(SYM_O))
                return Fraction(0)
            if b[0] == "section":
                return Fraction(self.sections[b[1]].s_dot_o)
            return Fraction(self.divisors[b[1]].d_dot_o)
        if a == SYM_F:
            if b == SYM_F:
                return Fraction(0)
            if b[0] == "theta":
                return Fraction(0)
            if b[0] == "section":
                return Fraction(1)
            return Fraction(self.divisors[b[1]].d)
        if a[0] == "theta":
            _, fid, i = a
            if i == 0:
                return self.pair_class(self._theta_expand(fid), FormalClass.of(b))
            if b[0] == "theta":
                _, gid, j = b
                if gid != fid:
                    return Fraction(0)
                if j == 0:
                    return self.pair_class(self._theta_expand(gid), FormalClass.of(a))
                return self.fibers[fid].a[i - 1, j - 1]
            if b[0] == "section":
                return Fraction(int(self.sections[b[1]].components.get(fid, 0) == i))
            return Fraction(self.divisors[b[1]].c[fid][i - 1])
        if a[0] == "section":
            if b[0] == "section":
                if a[1] == b[1]:
                    return Fraction(-chi)
                # pairings between distinct sections are only known against O
                raise MissingIntersectionError(
                    f"pairing of distinct sections {a[1]!r}.{b[1]!r} is not registered"
                )
            db = self.divisors[b[1]]
            if db.name == "O":
                return Fraction(self.sections[a[1]].s_dot_o)
            if db.name == "F":
                return Fraction(1)
            val = db.d_dot_section.get(a[1])
            if val is None:
                raise MissingIntersectionError(
                    f"divisor {b[1]!r} has no registered pairing with section {a[1]!r}"
                )
            return Fraction(val)
        # divisor . divisor
        da, db = self.divisors[a[1]], self.divisors[b[1]]
        if a[1] == b[1]:
            if da.d_squared is None:
                raise MissingIntersectionError(f"divisor {a[1]!r} has no registered self-intersection")
            return Fraction(da.d_squared)
        # the O / F aliases pair canonically with everything
        if da.name == "O":
            return Fraction(db.d_dot_o)
        if db.name == "O":
            return Fraction(da.d_dot_o)
        if da.name == "F":
            return Fraction(db.d)
        if db.name == "F":
            return Fraction(da.d)
        val = da.d_dot_divisor.get(b[1], db.d_dot_divisor.get(a[1]))
        if val is None:
            raise MissingIntersectionError(
                f"no registered pairing between divisors {a[1]!r} and {b[1]!r}"
            )
        return Fraction(val)

    def pair_class(self, x: FormalClass, y: FormalClass) -> Fraction:
        total = Fraction(0)
        for sa, ca in x.coeffs.items():
            for sb, cb in y.coeffs.items():
                total += ca * cb * self.pair(sa, sb)
        return total

    def fiber_of(self, fid: str) -> ReducibleFiberData:
        return self.fibers[fid]

    def section(self, name: str) -> SectionProfile:
        return self.sections[name]

    def divisor(self, name: str) -> DivisorProfile:
        return self.divisors[name]


def _torsion_s_dot_o(chi: int, fibers: dict[str, ReducibleFiberData],
                     components: Mapping[str, int], name: str) -> int:
    # height 0 forces  2 chi + 2 s.O + sum (A^{-1})_kk = 0
    contrib = Fraction(0)
    for fid, k in components.items():
        if k:
            contrib += fibers[fid].a_inv[k - 1, k - 1]
    val = (-2 * chi - contrib) / 2
    if val.denominator != 1 or val < 0:
        raise InconsistentDataError(
            f"torsion section {name!r}: height-zero condition gives s.O = {val}, not a"
            " nonnegative integer"
        )
    return int(val)


def torsion_profile(cfg: SurfaceConfig, spec: TorsionSectionSpec) -> SectionProfile:
    """Materialize a torsion-table entry as a full section profile."""
    fibers = {fid: fiber_data(kind) for fid, kind in cfg.fibers}
    s_dot_o = _torsion_s_dot_o(cfg.chi, fibers, spec.components, spec.name)
    return SectionProfile(spec.name, s_dot_o, dict(spec.components))


def build_table(cfg: SurfaceConfig, divisors: Iterable[DivisorProfile] = ()) -> IntersectionTable:
    """Validate a configuration and assemble its pairing table.

    Checks: known fiber ids everywhere, component indices in range and on
    simple components for sections, c-vector lengths, the Euler bound
    sum e_v <= 12 chi, the rank bound 2 + sum(m_v - 1) + mw rank <= 10 chi,
    the size cap sum m_v <= MAX_COMPONENTS (these three from the kinds alone,
    before any catalog is built), and full consistency of the torsion table
    (closure, distinct classes, coordinate additivity, height zero).
    """
    if cfg.chi <= 0:
        raise SchemaError("chi must be positive")
    seen: set[str] = set()
    for fid, _ in cfg.fibers:
        if fid in seen:
            raise SchemaError(f"duplicate fiber id {fid!r}")
        seen.add(fid)

    euler_total = sum(_euler(kind) for _, kind in cfg.fibers)
    if euler_total > 12 * cfg.chi:
        raise InconsistentDataError(
            f"fiber Euler numbers sum to {euler_total} > 12 chi = {12 * cfg.chi}"
        )
    m_total = sum(_components(kind) for _, kind in cfg.fibers)
    lattice_rank = 2 + m_total - len(cfg.fibers) + cfg.mw_free_rank
    if lattice_rank > 10 * cfg.chi:
        raise InconsistentDataError(
            f"trivial lattice plus Mordell-Weil rank {lattice_rank} exceeds 10 chi"
        )
    if m_total > MAX_COMPONENTS:
        raise SchemaError(
            f"fibers have {m_total} components in all; catalogs are capped at"
            f" MAX_COMPONENTS = {MAX_COMPONENTS}"
        )
    fibers = {fid: fiber_data(kind) for fid, kind in cfg.fibers}

    def check_components(components: Mapping[str, int], who: str):
        for fid, k in components.items():
            if fid not in fibers:
                raise SchemaError(f"{who}: unknown fiber id {fid!r}")
            data = fibers[fid]
            if not 0 <= k < data.m:
                raise SchemaError(f"{who}: component {k} out of range for fiber {fid!r}")
            if k and data.multiplicities[k] != 1:
                raise SchemaError(
                    f"{who}: component {k} of fiber {fid!r} is not simple; sections"
                    " meet multiplicity-one components only"
                )

    sections: dict[str, SectionProfile] = {}
    for s in cfg.sections:
        if s.name in ("O", "F"):
            raise SchemaError(f"section name {s.name!r} is reserved")
        if s.name in sections:
            raise SchemaError(f"duplicate section name {s.name!r}")
        if s.s_dot_o < 0:
            raise SchemaError(f"section {s.name!r}: s.O must be >= 0")
        check_components(s.components, f"section {s.name!r}")
        sections[s.name] = s

    _validate_torsion_table(cfg, fibers, check_components)

    divisors_map: dict[str, DivisorProfile] = {}
    for d in divisors:
        if d.name in divisors_map:
            raise SchemaError(f"duplicate divisor name {d.name!r}")
        if d.name in ("O", "F"):
            d = _check_reserved_divisor(cfg, d)
        for fid, cvec in d.c.items():
            if fid not in fibers:
                raise SchemaError(f"divisor {d.name!r}: unknown fiber id {fid!r}")
            if cvec is not None and len(cvec) != fibers[fid].m - 1:
                raise SchemaError(
                    f"divisor {d.name!r}: c({fid!r}) needs {fibers[fid].m - 1} entries"
                )
        for sec in d.d_dot_section:
            if sec not in sections:
                raise SchemaError(f"divisor {d.name!r}: unknown section {sec!r}")
        # d_dot_divisor may mention divisors not registered in this table;
        # profiles are reusable and unused pairings are harmless
        divisors_map[d.name] = d

    # every registered divisor needs a full c assignment (missing fibers mean 0)
    normalized = {}
    for name, d in divisors_map.items():
        cmap = {}
        for fid in fibers:
            vec = d.c.get(fid)
            cmap[fid] = tuple(vec) if vec is not None else (0,) * (fibers[fid].m - 1)
        normalized[name] = DivisorProfile(
            d.name, d.d, d.d_dot_o, cmap, d.d_squared, dict(d.d_dot_section), dict(d.d_dot_divisor)
        )

    return IntersectionTable(cfg, fibers, sections, normalized)


def _check_reserved_divisor(cfg: SurfaceConfig, d: DivisorProfile) -> DivisorProfile:
    chi = cfg.chi
    want = {"O": (1, -chi, -chi), "F": (0, 1, 0)}[d.name]
    if (d.d, d.d_dot_o, d.d_squared) != want or any(v and any(v) for v in d.c.values()):
        raise SchemaError(
            f"divisor name {d.name!r} is reserved for the canonical class with"
            f" (d, D.O, D^2) = {want} and trivial component incidences"
        )
    return d


def _validate_torsion_table(cfg, fibers, check_components):
    group = cfg.torsion_group
    seen_tuples = {}
    seen_coords = {}
    for t in cfg.torsion_table:
        check_components(t.components, f"torsion section {t.name!r}")
        if len(t.coords) != len(group.invariant_factors):
            raise SchemaError(f"torsion section {t.name!r}: coords do not match torsion_group")
        _torsion_s_dot_o(cfg.chi, fibers, t.components, t.name)
        tup = _gamma_tuple(cfg, fibers, t.components)
        if all(c == 0 for c in group.reduce(t.coords)):
            raise SchemaError(f"torsion section {t.name!r}: zero coords are implicit, not listed")
        if tup in seen_tuples:
            raise InconsistentDataError(
                f"torsion sections {seen_tuples[tup]!r} and {t.name!r} share a dual class tuple"
            )
        if group.reduce(t.coords) in seen_coords:
            raise InconsistentDataError(f"torsion section {t.name!r}: duplicate coordinates")
        seen_tuples[tup] = t.name
        seen_coords[group.reduce(t.coords)] = tup
    if len(seen_coords) != group.order - 1:
        raise InconsistentDataError(
            "torsion table must list exactly the nonzero elements of torsion_group"
        )
    if not cfg.torsion_table:
        return
    # coordinate addition must mirror dual-class addition (gamma-bar injectivity)
    zero_tup = tuple(fibers[fid].group.zero() for fid, _ in cfg.fibers)
    table = dict(seen_coords)
    table[group.zero()] = zero_tup

    def tup_add(x, y):
        return tuple(
            fibers[fid].group.add(a, b) for (fid, _), a, b in zip(cfg.fibers, x, y)
        )

    for ca, ta in table.items():
        for cb, tb in table.items():
            combined = tup_add(ta, tb)
            if table.get(group.add(ca, cb)) != combined:
                raise InconsistentDataError(
                    "torsion table is not closed under addition of dual class tuples"
                )


def _gamma_tuple(cfg, fibers, components: Mapping[str, int]):
    return tuple(
        dual_class_of(fibers[fid], components.get(fid, 0)) for fid, _ in cfg.fibers
    )


def _solves(table: IntersectionTable, d: DivisorProfile) -> dict[str, tuple[Fraction, ...]]:
    """x_v = A_v^{-1} c(v, D) for every fiber with c(v, D) != 0: the one solve
    per fiber that phi0_self, phi0_cross and the gamma vectors all read."""
    return {
        fid: table.fiber_of(fid).a_inv * d.c[fid]
        for fid, _ in table.cfg.fibers
        if any(d.c.get(fid) or ())
    }


def _phi0_self(table: IntersectionTable, d: DivisorProfile, xs) -> Fraction:
    if d.d_squared is None:
        raise MissingIntersectionError(f"divisor {d.name!r}: D^2 required for phi0_self")
    total = Fraction(d.d_squared) - 2 * d.d * d.d_dot_o - d.d * d.d * table.cfg.chi
    for fid, x in xs.items():
        total -= sum(map(mul, d.c[fid], x))
    return total


def _phi0_cross(table: IntersectionTable, d: DivisorProfile, s: SectionProfile, xs) -> Fraction:
    if d.name == "O":
        d_dot_s = s.s_dot_o
    elif d.name == "F":
        d_dot_s = 1
    else:
        d_dot_s = d.d_dot_section.get(s.name)
    if d_dot_s is None:
        raise MissingIntersectionError(
            f"divisor {d.name!r}: D.{s.name} required for phi0_cross"
        )
    total = Fraction(d_dot_s) - d.d * s.s_dot_o - d.d * table.cfg.chi - d.d_dot_o
    for fid, x in xs.items():
        k = s.components.get(fid, 0)
        if k:
            total -= x[k - 1]
    return total


def phi0_self(table: IntersectionTable, divisor: DivisorProfile | str) -> Fraction:
    """phi0(D).phi0(D) in closed form; needs D^2."""
    d = table.divisor(divisor) if isinstance(divisor, str) else divisor
    return _phi0_self(table, d, _solves(table, d))


def phi0_cross(table: IntersectionTable, divisor: DivisorProfile | str,
               section: SectionProfile | str) -> Fraction:
    """phi0(D).phi0(s) in closed form; needs D.s."""
    d = table.divisor(divisor) if isinstance(divisor, str) else divisor
    s = table.section(section) if isinstance(section, str) else section
    return _phi0_cross(table, d, s, _solves(table, d))


def height_pairing(table: IntersectionTable, s1: SectionProfile | str,
                   s2: SectionProfile | str) -> Fraction:
    """Mordell-Weil height pairing <P1, P2> = -phi0(s1).phi0(s2)."""
    a = table.section(s1) if isinstance(s1, str) else s1
    b = table.section(s2) if isinstance(s2, str) else s2
    chi = table.cfg.chi
    if a.name == b.name:
        s1_dot_s2 = Fraction(-chi)
    elif a.name == "O":
        s1_dot_s2 = Fraction(b.s_dot_o)
    elif b.name == "O":
        s1_dot_s2 = Fraction(a.s_dot_o)
    else:
        raise MissingIntersectionError(
            f"pairing of distinct sections {a.name!r}.{b.name!r} is not registered"
        )
    total = chi + a.s_dot_o + b.s_dot_o - s1_dot_s2
    for fid, _ in table.cfg.fibers:
        ka = a.components.get(fid, 0)
        kb = b.components.get(fid, 0)
        if ka and kb:
            total += table.fiber_of(fid).a_inv[ka - 1, kb - 1]
    return Fraction(total)


def zero_section_profile(chi: int) -> SectionProfile:
    """O itself as a section profile (s.O = O^2 = -chi, identity components)."""
    return SectionProfile("O", -chi, {})


def section_as_divisor(table: IntersectionTable, section: SectionProfile | str,
                       name: str | None = None) -> DivisorProfile:
    """A section's own divisor profile (d = 1, D^2 = -chi, indicator c's)."""
    s = table.section(section) if isinstance(section, str) else section
    chi = table.cfg.chi
    c = {}
    for fid, _ in table.cfg.fibers:
        k = s.components.get(fid, 0)
        vec = [0] * (table.fiber_of(fid).m - 1)
        if k:
            vec[k - 1] = 1
        c[fid] = tuple(vec)
    return DivisorProfile(
        name or s.name, d=1, d_dot_o=s.s_dot_o, c=c, d_squared=-chi,
        d_dot_section={s.name: -chi},
    )


def profile_from_class(table: IntersectionTable, cls: FormalClass, name: str) -> DivisorProfile:
    """Derive the divisor profile of a formal class from table rows."""
    d = table.pair_class(cls, FormalClass.of(SYM_F))
    d_dot_o = table.pair_class(cls, FormalClass.of(SYM_O))
    if d.denominator != 1 or d_dot_o.denominator != 1:
        raise InconsistentDataError(f"class {name!r} has non-integral degree data")
    c = {}
    for fid, _ in table.cfg.fibers:
        vec = []
        for i in range(1, table.fiber_of(fid).m):
            val = table.pair_class(cls, FormalClass.of(theta(fid, i)))
            if val.denominator != 1:
                raise InconsistentDataError(f"class {name!r}: non-integral Theta pairing")
            vec.append(int(val))
        c[fid] = tuple(vec)
    d_dot_section = {}
    for s in table.cfg.sections:
        val = table.pair_class(cls, FormalClass.of(section_sym(s.name)))
        if val.denominator != 1:
            raise InconsistentDataError(f"class {name!r}: non-integral pairing with {s.name!r}")
        d_dot_section[s.name] = int(val)
    return DivisorProfile(
        name, int(d), int(d_dot_o), c, table.pair_class(cls, cls), d_dot_section
    )


@dataclass(frozen=True)
class FreeCoefficient:
    """n, how its sign was fixed, and the two numbers it was read from."""

    n: int
    n_squared: int
    sign_determined: bool
    height: Fraction  # <P_o, P_o>
    phi0_self: Fraction  # phi0(D).phi0(D)


def n_of(table: IntersectionTable, divisor: DivisorProfile | str,
         generator: SectionProfile | str) -> FreeCoefficient:
    """Free coefficient of D along a rank-one generator.

    Quadratic route always runs: n^2 = -phi0_self(D) / <P_o, P_o> must be a
    perfect square.  When D.s_o is registered, the linear route fixes the
    sign and must agree.
    """
    d = table.divisor(divisor) if isinstance(divisor, str) else divisor
    gen = table.section(generator) if isinstance(generator, str) else generator
    return _free_coefficient(table, d, gen, _solves(table, d))


def _free_coefficient(table: IntersectionTable, d: DivisorProfile, gen: SectionProfile,
                      xs) -> FreeCoefficient:
    if table.cfg.mw_free_rank != 1:
        raise InconsistentDataError(
            f"free coefficient needs Mordell-Weil free rank 1, not {table.cfg.mw_free_rank}"
        )
    h = height_pairing(table, gen, gen)
    if h <= 0:
        raise InconsistentDataError(
            f"generator {gen.name!r} has height {h}; a free generator needs positive height"
        )
    self_pairing = _phi0_self(table, d, xs)
    n_sq = -self_pairing / h
    if n_sq < 0 or n_sq.denominator != 1 or isqrt(n_sq.numerator) ** 2 != n_sq.numerator:
        raise InconsistentDataError(
            f"n^2 = {n_sq} not a perfect square => inconsistent intersection data"
        )
    n_abs = isqrt(n_sq.numerator)
    try:
        cross = _phi0_cross(table, d, gen, xs)
    except MissingIntersectionError:
        return FreeCoefficient(n_abs, int(n_sq), False, h, self_pairing)
    n_lin = -cross / h
    if n_lin.denominator != 1:
        raise InconsistentDataError(
            f"linear formula gives non-integral n = {n_lin} => inconsistent intersection data"
        )
    if int(n_lin) ** 2 != n_sq:
        raise InconsistentDataError(
            f"linear n = {n_lin} disagrees with n^2 = {n_sq} => inconsistent intersection data"
        )
    return FreeCoefficient(int(n_lin), int(n_sq), True, h, self_pairing)
