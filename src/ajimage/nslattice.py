"""Intersection bookkeeping on an elliptic surface with section.

A surface is described purely numerically: Euler characteristic chi of the
structure sheaf, the list of reducible fibers (Kodaira kinds), section
profiles (intersection with the zero section O plus the component each
section meets in every reducible fiber) and divisor profiles (degree d =
D.F, D.O, the component-incidence vectors c(v, D), optionally D^2 and
pairings against named sections/divisors).

From that data the table holds one symmetric Gram matrix G.  Its basis is
the generators O, F, Theta_{v,i} (i >= 1, fibers in config order) and the
named sections, followed by the registered divisors; the entries are

    O.O = -chi, O.F = 1, F.F = 0,
    Theta_{v,i}.Theta_{v,j} = A_v[i,j]   (i, j >= 1, same fiber; 0 across fibers),
    s.Theta_{v,i} = [i == component of s at v],   s.O,   s.F = 1,   s.s = -chi,
    D.F = d, D.O, D.Theta_{v,i} = c(v, D)_i, and the registered D.s, D^2, D.D'.

Entries nothing registers (distinct sections, a missing D.s, D^2 or D.D')
are gaps; reading one raises MissingIntersectionError naming both symbols.
Theta_{v,0} is the fixed vector F - sum_i a_i Theta_{v,i} (fiber relation).
So x.y = x^T G y, and the pairings of x with the generators are
G x (`IntersectionTable.profile`).  G is built on first use.

`build_table` validates every profile once; `mwgroup.derive` then reads
registered names only.  Shioda's phi0 pairing is written once, polarized,
in `_phi0_pairing`: the heights (`IntersectionTable.heights`), `_s_dot_o`
(each torsion section's s.O and derive's s(D).O), the section-torsion
check, the phi0-line rule on every registered D^2, D.D' and D.s
(`_check_divisor_pairings`) and derive's n^2 and linear n all read it.  The
rank of the generators' Gram block is read off Shioda-Tate in closed form
(`IntersectionTable.generator_rank`, from those heights); this module runs
no elimination.

No section or divisor may be named O or F, so no formula branches on a
name; a divisor with O's numbers under another name derives to the point
O, since phi0(D)^2 = -chi + 2 chi - chi = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul
from typing import Iterable, Mapping

from .errors import InconsistentDataError, MissingIntersectionError, SchemaError
from .exact import exact_int, exact_number
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
# the names _sym_str prints for SYM_O and SYM_F, which no section or divisor takes
_NAMES_OF_O_AND_F = ("O", "F")


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
    """Finite formal rational combination of symbols.  A coefficient is
    stored as an int when it is integral and as a Fraction otherwise."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple, int | Fraction] | None = None):
        clean = {}
        for sym, c in (coeffs or {}).items():
            c = exact_number(c, "FormalClass")
            if c:
                clean[sym] = c
        self.coeffs = clean

    @staticmethod
    def of(sym: tuple) -> "FormalClass":
        return FormalClass({sym: 1})

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalClass) and self.coeffs == other.coeffs

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
    d_squared: int | None = None
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

    @property
    def ns_rank(self) -> int:
        """Shioda-Tate rank from the kinds alone: the trivial lattice's
        2 + sum_v (m_v - 1), plus the free rank."""
        return 2 + sum(_components(kind) - 1 for _, kind in self.fibers) + self.mw_free_rank


class IntersectionTable:
    """The intersection form of one configured surface as one Gram matrix.

    `fibers` is in config order.  The Gram matrix and each section's height
    (`heights`) are computed once per table, on first use."""

    def __init__(self, cfg: SurfaceConfig, fibers: dict[str, ReducibleFiberData],
                 sections: dict[str, SectionProfile], divisors: dict[str, DivisorProfile],
                 torsion: dict[tuple, tuple]):
        self.cfg = cfg
        self.fibers = fibers
        self.sections = sections
        self.divisors = divisors
        # dual class tuple (one class per fiber, config order) -> (name, reduced
        # coords) for every torsion element, zero included as (None, zero)
        self.torsion = torsion

    def generators(self) -> list[tuple]:
        """Spanning symbols: O, F, all Theta_{v, i>=1}, all named sections."""
        syms = [SYM_O, SYM_F]
        for fid, _ in self.cfg.fibers:
            for i in range(1, self.fibers[fid].m):
                syms.append(theta(fid, i))
        for s in self.cfg.sections:
            syms.append(section_sym(s.name))
        return syms

    @cached_property
    def _basis(self) -> list[tuple]:
        return self.generators() + [divisor_sym(n) for n in self.divisors]

    @cached_property
    def _index(self) -> dict[tuple, int]:
        return {sym: i for i, sym in enumerate(self._basis)}

    @cached_property
    def _gram(self) -> list[list]:
        index, chi, n = self._index, self.cfg.chi, len(self._basis)
        # O, F and the Theta's (the trivial lattice) pair with everything; among
        # sections and divisors an entry is a gap (None) until something registers it
        known = self.cfg.ns_rank - self.cfg.mw_free_rank
        g = [[0] * n if i < known else [0] * known + [None] * (n - known) for i in range(n)]

        def put(a, b, value):
            i, j = index[a], index[b]
            g[i][j] = g[j][i] = value

        put(SYM_O, SYM_O, -chi)
        put(SYM_O, SYM_F, 1)
        for fid, data in self.fibers.items():
            first = index[theta(fid, 1)]
            for i, row in enumerate(data.a.num, first):
                g[i][first : first + len(row)] = row
        for s in self.sections.values():
            sym = section_sym(s.name)
            put(sym, SYM_O, s.s_dot_o)
            put(sym, SYM_F, 1)
            put(sym, sym, -chi)
            for fid, k in s.components.items():
                if k:
                    put(sym, theta(fid, k), 1)
        for name, d in self.divisors.items():
            sym = divisor_sym(name)
            put(sym, SYM_O, d.d_dot_o)
            put(sym, SYM_F, d.d)
            for fid, vec in d.c.items():
                for i, value in enumerate(vec, 1):
                    put(sym, theta(fid, i), value)
            for other, value in d.d_dot_section.items():
                put(sym, section_sym(other), value)
            for other, value in d.d_dot_divisor.items():
                if other in self.divisors:
                    put(sym, divisor_sym(other), value)
            put(sym, sym, d.d_squared)
        return g

    def _vector(self, x: FormalClass) -> dict[int, int | Fraction]:
        """Coefficients of x on the basis, by index lookup."""
        index = self._index
        vec: dict = {}
        for sym, c in x.coeffs.items():
            i = index.get(sym)
            if i is not None:
                vec[i] = vec.get(i, 0) + c
                continue
            if sym[0] != "theta" or sym[2] != 0 or sym[1] not in self.fibers:
                raise KeyError(f"{_sym_str(sym)} is not a symbol of this table")
            # Theta_{v,0} = F - sum_{i>=1} a_i Theta_{v,i}
            f, first = index[SYM_F], index[theta(sym[1], 1)] - 1
            vec[f] = vec.get(f, 0) + c
            for k, a in enumerate(self.fibers[sym[1]].multiplicities[1:], 1):
                vec[first + k] = vec.get(first + k, 0) - a * c
        return vec

    def _gap(self, i: int, j: int) -> MissingIntersectionError:
        pair = ".".join(_sym_str(self._basis[idx]) for idx in (i, j))
        return MissingIntersectionError(f"the pairing {pair} is not registered")

    def _gram_x(self, x: FormalClass, columns) -> list:
        """(G x)_j for each basis index j in columns, summed as integers while
        x's coefficients are; a gap raises, naming x's symbol first."""
        gram = self._gram
        out = [0] * len(columns)
        for i, a in self._vector(x).items():
            row = gram[i]
            for k, j in enumerate(columns):
                value = row[j]
                if value is None:
                    raise self._gap(i, j)
                if value:
                    out[k] += a * value
        return out

    def pair_class(self, x: FormalClass, y: FormalClass) -> Fraction:
        """x^T G y: y against G x on y's support, one Fraction at the end."""
        yv = self._vector(y)
        return Fraction(sum(map(mul, yv.values(), self._gram_x(x, list(yv)))))

    def profile(self, x: FormalClass) -> list:
        """G x on the generators: the pairings of x with each of generators()."""
        return self._gram_x(x, range(len(self.generators())))

    @cached_property
    def heights(self) -> dict[str, Fraction]:
        """<P, P> = -phi0(s).phi0(s) of each registered section, once per table."""
        chi, fibers = self.cfg.chi, self.fibers
        return {name: -_phi0_pairing(chi, fibers, s, s, -chi) for name, s in self.sections.items()}

    @cached_property
    def generator_rank(self) -> int:
        """Rank of the generators' Gram block by Shioda-Tate: the trivial
        lattice's full rank (every A_v is invertible), plus 1 for a single
        section of nonzero height (its Schur complement is -<P, P>).  Two
        sections need their pairing, which nothing registers."""
        names = list(self.sections)
        if len(names) > 1:
            raise self._gap(*(self._index[section_sym(name)] for name in names[:2]))
        trivial = self.cfg.ns_rank - self.cfg.mw_free_rank
        return trivial + sum(h != 0 for h in self.heights.values())


def _phi0_pairing(chi: int, fibers: dict[str, ReducibleFiberData], x, y, x_dot_y) -> Fraction:
    """phi0(x).phi0(y) = x.y - d_x (y.O) - d_y (x.O) - d_x d_y chi - sum_v c(v,y)^T A_v^-1 c(v,x)
    of two validated profiles, x.y given.  A section reads as d = 1, D.O = s.O and
    c(v) = e_k: its component k picks row k of the symmetric A_v^{-1}.  The sum is
    kept in integers over each fiber's a_inv.den; one Fraction is built at the end."""
    (dx, xo, xc), (dy, yo, yc) = (
        (1, p.s_dot_o, p.components) if isinstance(p, SectionProfile) else (p.d, p.d_dot_o, p.c)
        for p in (x, y))
    num, den = x_dot_y - dx * yo - dy * xo - dx * dy * chi, 1
    for fid, data in fibers.items():
        u, w, rows = xc.get(fid, 0), yc.get(fid, 0), data.a_inv.num
        if type(u) is int:  # a component index goes second
            u, w = w, u
        if type(u) is int:
            term = rows[u - 1][w - 1] if u and w else 0
        elif type(w) is int:
            term = sum(map(mul, rows[w - 1], u)) if w else 0
        else:
            term = sum(b * sum(map(mul, row, u)) for b, row in zip(w, rows) if b)
        if term:
            num, den = num * data.a_inv.den - term * den, den * data.a_inv.den
    return Fraction(num, den)


def _s_dot_o(chi: int, fibers: dict[str, ReducibleFiberData], components: Mapping[str, int],
             height: int | Fraction = 0) -> int | Fraction:
    """The height identity <P, P> = -phi0(s)^2 solved for the s.O of a section
    with these components and height (zero by default): phi0(s)^2 falls by 2
    per unit of s.O.  A Fraction comes back only when s.O is not an integer."""
    s = SectionProfile("", 0, components)
    p = _phi0_pairing(chi, fibers, s, s, -chi)
    num = height.numerator * p.denominator + p.numerator * height.denominator
    den = 2 * p.denominator * height.denominator
    return Fraction(num, den) if num % den else num // den


# the types of a profile's entries when no entry needs reading: a table is
# built on every request, so the usual all-int case costs one pass in C
_INT = {int}


def _ints(values, where: str) -> tuple[int, ...]:
    values = tuple(values)
    if set(map(type, values)) <= _INT:
        return values
    return tuple(exact_int(x, where) for x in values)


def _int_map(mapping: Mapping[str, int], where: str) -> dict[str, int]:
    if set(map(type, mapping.values())) <= _INT:
        return dict(mapping)
    return {key: exact_int(x, f"{where}[{key!r}]") for key, x in mapping.items()}


def build_table(cfg: SurfaceConfig, divisors: Iterable[DivisorProfile] = ()) -> IntersectionTable:
    """Validate a configuration and assemble its pairing table.

    Checks: chi > 0, free rank >= 0, known fiber ids, component indices in range
    and on simple components for sections, c-vector lengths, the Euler bound
    sum e_v <= 12 chi, the rank bound 2 + sum(m_v - 1) + mw rank <= 10 chi,
    the size cap sum m_v <= MAX_COMPONENTS (these three from the kinds alone,
    before any catalog is built), and full consistency of the torsion table
    (every nonzero element listed once, distinct classes, height zero, an
    integral pairing with every section, and coordinate addition mirroring
    class addition, checked on the generators of the torsion group).  Each
    registered section's height (`IntersectionTable.heights`) must be >= 0,
    and positive only when mw_free_rank >= 1: a section of positive height
    has infinite order.  A section of height 0 is torsion, so its dual
    classes must be those of a torsion-table entry.  Every registered D^2,
    D.D' and D.s must agree with the phi0 pairing wherever a height-0
    section, free rank 0 or the phi0 line of free rank 1 pins it down
    (`_check_divisor_pairings`).  Every
    integer field of the configuration and of a profile is read exactly
    (`exact.exact_int`): a float or a bool is refused with a TypeError, a
    non-integral rational with a SchemaError.  A section or divisor named O
    or F is refused, and so is a torsion entry named O, F, 0, twice or like
    a section of another point, and a divisor whose D.divisor names itself.
    """
    chi, rank = exact_int(cfg.chi, "chi"), exact_int(cfg.mw_free_rank, "mw_free_rank")
    if chi is not cfg.chi or rank is not cfg.mw_free_rank:
        cfg = replace(cfg, chi=chi, mw_free_rank=rank)
    if chi <= 0:
        raise SchemaError("chi must be positive")
    if rank < 0:
        raise SchemaError(f"mw_free_rank must be >= 0, got {rank}")
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
    if cfg.ns_rank > 10 * cfg.chi:
        raise InconsistentDataError(
            f"trivial lattice plus Mordell-Weil rank {cfg.ns_rank} exceeds 10 chi"
        )
    m_total = sum(_components(kind) for _, kind in cfg.fibers)
    if m_total > MAX_COMPONENTS:
        raise SchemaError(
            f"fibers have {m_total} components in all; catalogs are capped at"
            f" MAX_COMPONENTS = {MAX_COMPONENTS}"
        )
    # in config order, the order of every per-fiber tuple: callers iterate it
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
        who = f"section {s.name!r}"
        s = SectionProfile(s.name, exact_int(s.s_dot_o, f"{who}: s.O"),
                           _int_map(s.components, f"{who}: components"))
        _check_name(s.name, "section", _NAMES_OF_O_AND_F, sections)
        if s.s_dot_o < 0:
            raise SchemaError(f"section {s.name!r}: s.O must be >= 0")
        check_components(s.components, who)
        sections[s.name] = s

    torsion = _validate_torsion_table(cfg, fibers, sections, check_components)

    divisors_map: dict[str, DivisorProfile] = {}
    for d in divisors:
        who = f"divisor {d.name!r}"
        _check_name(d.name, "divisor", _NAMES_OF_O_AND_F, divisors_map)
        for fid, cvec in d.c.items():
            if fid not in fibers:
                raise SchemaError(f"{who}: unknown fiber id {fid!r}")
            if cvec is not None and len(cvec) != fibers[fid].m - 1:
                raise SchemaError(f"{who}: c({fid!r}) needs {fibers[fid].m - 1} entries")
        # exact integers everywhere, and a c vector for every fiber (absent means 0)
        d = DivisorProfile(
            d.name, exact_int(d.d, f"{who}: d"), exact_int(d.d_dot_o, f"{who}: D.O"),
            {fid: (0,) * (data.m - 1) if d.c.get(fid) is None
             else _ints(d.c[fid], f"{who}: c({fid!r})") for fid, data in fibers.items()},
            None if d.d_squared is None else exact_int(d.d_squared, f"{who}: D^2"),
            _int_map(d.d_dot_section, f"{who}: D.section"),
            _int_map(d.d_dot_divisor, f"{who}: D.divisor"),
        )
        for sec in d.d_dot_section:
            if sec not in sections:
                raise SchemaError(f"divisor {d.name!r}: unknown section {sec!r}")
        # d_dot_divisor may mention divisors not registered in this table;
        # profiles are reusable and unused pairings are harmless.  Two
        # registered divisors that name each other must agree.
        if d.name in d.d_dot_divisor:
            raise SchemaError(
                f"{who}: D_dot_divisor names the divisor itself; its self-pairing"
                " is D^2, registered as D_squared"
            )
        for other, value in d.d_dot_divisor.items():
            back = divisors_map[other].d_dot_divisor.get(d.name) if other in divisors_map else None
            if back is not None and back != value:
                raise InconsistentDataError(
                    f"divisors {d.name!r} and {other!r} register different pairings"
                    f" {value} and {back}"
                )
        divisors_map[d.name] = d

    table = IntersectionTable(cfg, fibers, sections, divisors_map, torsion)
    for name, h in table.heights.items():
        if h < 0:
            raise InconsistentDataError(
                f"section {name!r} has height {h} < 0; the height pairing is positive semidefinite"
            )
        if h and not rank:
            raise InconsistentDataError(
                f"section {name!r} has height {h} > 0, so it has infinite order,"
                " but mw_free_rank is 0"
            )
        if not h and _gamma_tuple(cfg, fibers, sections[name].components) not in torsion:
            raise InconsistentDataError(
                f"section {name!r} has height 0, so it is torsion, but its dual"
                " classes name no element of the torsion table"
            )
    _check_divisor_pairings(table)
    return table


def _check_divisor_pairings(table: IntersectionTable) -> None:
    """Refuse a registered D^2, D.D' or D.s that the phi0 pairing rules out.

    Each registered pairing x.y of a divisor x (y = x, another divisor or a
    section) must give phi0(x).phi0(y) = 0 when y is a section of height 0
    (it is torsion, so phi0(y) = 0) or when the free rank is 0 (phi0
    vanishes).  On free rank 1, phi0 maps into a line, so for every section s
    of positive height that x and y both register, phi0(x).phi0(y) must be
    -(phi0(x).phi0(s)) (phi0(y).phi0(s)) / <s, s>; for y = s that holds for
    any x.s.  Every other pairing is unchecked: a missing x.s or y.s leaves
    nothing to compare, and free rank >= 2 pins nothing down."""
    divisors, sections, heights = table.divisors, table.sections, table.heights
    chi, fibers, rank = table.cfg.chi, table.fibers, table.cfg.mw_free_rank
    lines = [s for s, h in heights.items() if h] if rank == 1 else []
    along = {}  # (divisor, section) -> phi0(D).phi0(s), each read once

    def phi0_along(d: DivisorProfile, s: str) -> Fraction:
        if (d.name, s) not in along:
            along[d.name, s] = _phi0_pairing(chi, fibers, d, sections[s], d.d_dot_section[s])
        return along[d.name, s]

    def check(x: DivisorProfile, y, value: int, forced: Fraction, why: str) -> None:
        pairing = _phi0_pairing(chi, fibers, x, y, value)
        if pairing != forced:
            a, b = x.name, y.name
            who = (f"divisor {a!r}" if a == b or isinstance(y, SectionProfile)
                   else f"divisors {a!r} and {b!r}")
            raise InconsistentDataError(
                f"{who}: {a}.{b} = {value} is registered, but {why}, which forces"
                f" {a}.{b} = {value - pairing + forced}"
            )

    names = list(divisors)
    for i, a in enumerate(names):
        x = divisors[a]
        for t, value in x.d_dot_section.items():
            if not heights[t]:
                check(x, sections[t], value, 0, f"phi0 vanishes on the height-0 section {t!r}")
        for b in names[i:]:
            y = divisors[b]
            value = x.d_squared if a == b else x.d_dot_divisor.get(b, y.d_dot_divisor.get(a))
            if value is None:
                continue
            if not rank:
                check(x, y, value, 0, "phi0 vanishes on free rank 0")
            for s in lines:
                if s in x.d_dot_section and s in y.d_dot_section:
                    forced = -phi0_along(x, s) * phi0_along(y, s) / heights[s]
                    check(x, y, value, forced, f"phi0 has rank 1 along {s!r}")


def _check_name(name: str, kind: str, reserved, taken) -> None:
    """Refuse a reserved name, or a name already taken by one of its kind."""
    if name in reserved:
        raise SchemaError(f"{kind} name {name!r} is reserved")
    if name in taken:
        raise SchemaError(f"duplicate {kind} name {name!r}")


def _validate_torsion_table(cfg, fibers, sections, check_components) -> dict[tuple, tuple]:
    """Check the torsion table; return {dual class tuple: (name, reduced
    coords)} over every element of the torsion group, zero as (None, zero).

    No two entries share a name, and none is named O or F (the zero section
    and the fiber), 0 (`MWPoint` prints zero torsion so) or like a section
    of other dual classes or s.O (it prints the entry's name).  Each entry t
    has height zero, which forces its t.O, and is orthogonal to every
    registered section s under the height pairing, which forces
    s.t = chi + s.O + t.O + sum_v (A_v^{-1})_{k_s, k_t}; that sum must be an
    integer.  Once every nonzero element is listed exactly once, closure is
    checked on the generators: class(a + e_i) = class(a) + class(e_i) for
    every element a and unit vector e_i, r |T| comparisons of flat class
    vectors.  Every element is a sum of unit vectors, so this gives
    additivity for all sums.
    """
    group = cfg.torsion_group
    zero = _gamma_tuple(cfg, fibers, {})
    seen_tuples = {zero: (None, group.zero())}
    flat = {}  # reduced coordinates -> class tuple flattened over the fibers
    names: set[str] = set()
    for t in cfg.torsion_table:
        who = f"torsion section {t.name!r}"
        _check_name(t.name, "torsion section", (*_NAMES_OF_O_AND_F, "0"), names)
        names.add(t.name)
        components = _int_map(t.components, f"{who}: components")
        coords = _ints(t.coords, f"{who}: coords")
        check_components(components, who)
        if len(coords) != len(group.invariant_factors):
            raise SchemaError(f"torsion section {t.name!r}: coords do not match torsion_group")
        t_dot_o = _s_dot_o(cfg.chi, fibers, components)
        if type(t_dot_o) is not int or t_dot_o < 0:
            raise InconsistentDataError(
                f"{who}: height-zero condition gives s.O = {t_dot_o}, not a nonnegative integer"
            )
        for s in sections.values():
            forced = -_phi0_pairing(cfg.chi, fibers, s, SectionProfile("", t_dot_o, components), 0)
            if forced.denominator != 1:
                raise InconsistentDataError(
                    f"sections {s.name!r} and {t.name!r}: <P, t> = 0 forces"
                    f" {s.name}.{t.name} = {forced}, not an integer"
                )
        tup = _gamma_tuple(cfg, fibers, components)
        same = sections.get(t.name)  # a section of this name must be this point
        if same and (same.s_dot_o, _gamma_tuple(cfg, fibers, same.components)) != (t_dot_o, tup):
            raise SchemaError(f"{who}: section {t.name!r} is another point (other classes or s.O)")
        coords = group.reduce(coords)
        if not any(coords):
            raise SchemaError(f"torsion section {t.name!r}: zero coords are implicit, not listed")
        if tup in seen_tuples:
            raise InconsistentDataError(
                f"torsion sections {seen_tuples[tup][0]!r} and {t.name!r} share a dual class tuple"
            )
        if coords in flat:
            raise InconsistentDataError(f"torsion section {t.name!r}: duplicate coordinates")
        seen_tuples[tup] = (t.name, coords)
        flat[coords] = tuple(chain.from_iterable(tup))
    if len(flat) != group.order - 1:
        raise InconsistentDataError(
            "torsion table must list exactly the nonzero elements of torsion_group"
        )
    if not cfg.torsion_table:
        return seen_tuples
    # coordinate addition must mirror dual-class addition (gamma-bar injectivity)
    moduli = tuple(f for fid, _ in cfg.fibers for f in fibers[fid].group.invariant_factors)
    flat[group.zero()] = (0,) * len(moduli)
    for i, f in enumerate(group.invariant_factors):
        step = flat[tuple(int(j == i) for j in range(len(group.invariant_factors)))]
        for coords, cls in flat.items():
            shifted = coords[:i] + ((coords[i] + 1) % f,) + coords[i + 1 :]
            if flat[shifted] != tuple((x + y) % m for x, y, m in zip(cls, step, moduli)):
                raise InconsistentDataError(
                    "torsion table is not closed under addition of dual class tuples"
                )
    return seen_tuples


def _gamma_tuple(cfg, fibers, components: Mapping[str, int]):
    return tuple(
        dual_class_of(fibers[fid], components.get(fid, 0)) for fid, _ in cfg.fibers
    )
