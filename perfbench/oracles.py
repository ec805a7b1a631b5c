"""Answer checks that share no code path with the library.

Each ``check_*`` function returns None when a result is right and a short
reason string when it is wrong.  The expectations come from closed forms
(Kodaira/Shioda local data), from the golden values of the bundled surface,
or from how an input was built; nothing here calls into ``ajimage``.

Closed forms used (T. Shioda, On the Mordell-Weil lattices, 1990, section 8):
the local contribution of a simple component, which is minus the diagonal
entry of A^{-1}, is i(n-i)/n on I_n; 1 on the near leg and 1 + n/4 on the
far legs of I*_n; 1/2 on III, 2/3 on IV, 4/3 on IV* and 3/2 on III*.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_KIND = re.compile(r"^I(\d+)(\*?)$")

# exceptional kinds: (components, euler, group invariants, {simple index: contribution})
_EXCEPTIONAL = {
    "III": (2, 3, (2,), {1: Fraction(1, 2)}),
    "IV": (3, 4, (3,), {1: Fraction(2, 3), 2: Fraction(2, 3)}),
    "IV*": (7, 8, (3,), {4: Fraction(4, 3), 6: Fraction(4, 3)}),
    "III*": (8, 9, (2,), {6: Fraction(3, 2)}),
    "II*": (9, 10, (), {}),
}


def kind_facts(kind: str) -> tuple[int, int, tuple[int, ...], dict[int, Fraction]]:
    """(components, Euler number, component-group invariants, contributions).

    Contributions are listed for every simple non-identity component; for
    I_n that is every component.  Component numbering follows the library's
    documented labeling (legs 0..3 of I*_n with 0, 1 at the near end).
    """
    if kind in _EXCEPTIONAL:
        return _EXCEPTIONAL[kind]
    m = _KIND.match(kind)
    if not m:
        raise ValueError(f"not a reducible kind: {kind!r}")
    n = int(m.group(1))
    if m.group(2):
        far = 1 + Fraction(n, 4)
        group = (2, 2) if n % 2 == 0 else (4,)
        return n + 5, n + 6, group, {1: Fraction(1), 2: far, 3: far}
    if n < 2:
        raise ValueError(f"{kind} is irreducible")
    return n, n, (n,), {i: Fraction(i * (n - i), n) for i in range(1, n)}


def group_order(invariants) -> int:
    order = 1
    for f in invariants:
        order *= f
    return order


def check_catalog(kind: str, data) -> str | None:
    """Component count, Euler number, component group and A^{-1} diagonal."""
    m, euler, group, contrib = kind_facts(kind)
    if data.m != m:
        return f"{kind}: {data.m} components, expected {m}"
    if data.euler != euler:
        return f"{kind}: Euler number {data.euler}, expected {euler}"
    got = tuple(data.group.invariant_factors)
    if got != group:
        return f"{kind}: component group {got}, expected {group}"
    simple = sum(1 for a in data.multiplicities if a == 1)
    if simple != group_order(group):
        return f"{kind}: {simple} simple components, expected {group_order(group)}"
    for i, c in contrib.items():
        if data.a_inv[i - 1, i - 1] != -c:
            return f"{kind}: (A^-1)[{i},{i}] = {data.a_inv[i - 1, i - 1]}, expected {-c}"
    return None


def check_smith(kind: str, smith) -> str | None:
    """The Smith form of the Gram matrix -A has the component group as its
    nontrivial invariant factors and no zero factor."""
    _, _, group, _ = kind_facts(kind)
    factors = tuple(smith.invariant_factors)
    if 0 in factors:
        return f"{kind}: Gram matrix is singular"
    got = tuple(f for f in factors if f > 1)
    if got != group:
        return f"{kind}: Smith invariants {got}, expected {group}"
    return None


# ---------------------------------------------------------------------------
# bundled I0* + 3 I2 surface


#: bundled document -> divisor -> (free coefficient, rendered point)
IMAGE_GOLDEN = {
    "type1": {"E+": (0, "O"), "E-": (0, "O")},
    "type2": {"E+": (2, "2*P_o + 0"), "E-": (-2, "-2*P_o + 0")},
}


def check_point(point, free: int, text: str) -> str | None:
    """A Mordell-Weil point n*P_o + t with zero torsion, rendered as text."""
    if point.free_coeff != free or any(point.torsion) or str(point) != text:
        return f"got {point}, expected {text}"
    return None


def check_image(variant: str, points: dict) -> str | None:
    for divisor, (free, text) in IMAGE_GOLDEN[variant].items():
        bad = check_point(points[divisor], free, text)
        if bad:
            return f"{variant} {divisor}: {bad}"
    return None


def cover_expected(atype: str, n: int) -> bool:
    """Type I admits every n >= 3; type II exactly n = 4."""
    return atype == "I" or n == 4


def check_cover(atype: str, n: int, verdict) -> str | None:
    want = cover_expected(atype, n)
    if verdict.exists != want:
        return f"type {atype}, n = {n}: exists = {verdict.exists}, expected {want}"
    if atype == "II" and want:
        # a witness X with n*X = 4*P_o; torsion is 2-torsion, so only the
        # free part is constrained
        w = verdict.witness
        if w is None or n * w.free_coeff != 4:
            return f"type II, n = {n}: witness {w} does not satisfy {n}*X = 4*P_o"
    return None


def check_relation(verdict) -> str | None:
    status = getattr(verdict.status, "value", verdict.status)
    if status != "holds":
        return f"relation verdict {status}, expected holds"
    return None


# ---------------------------------------------------------------------------
# nodal cubic z*y^2 = x^3 + x^2*z with tangent-line arrangements


def _det3(a, b, c) -> Fraction:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _on_cubic(p) -> bool:
    x, y, z = p
    return x**3 + x**2 * z - y**2 * z == 0


def _point_of_u(u: Fraction):
    # u = (t - 1)/(t + 1) on the slope parameter t of lines through the node;
    # u = 1 is the inflection at infinity
    if u == 1:
        return (Fraction(0), Fraction(1), Fraction(0))
    t = (1 + u) / (1 - u)
    return (t * t - 1, t * (t * t - 1), Fraction(1))


def _gradient(p):
    x, y, z = p
    return (3 * x * x + 2 * x * z, -2 * y * z, x * x - y * y)


def arrangement_is_degenerate(s1: Fraction, s2: Fraction, sign: int) -> bool:
    """Whether the draw (s1, s2, sign) calls for a DegenerateArrangementError.

    The tangency points sit at u1, u2 and u3 = sign/(u1 u2) in the
    multiplicative group of the cubic's smooth locus; the residual contact
    point of the tangent at u is 1/u^2.  The draw is degenerate when a
    parameter hits the node, q_3 is the inflection, two of the six points
    coincide, or the three tangent lines (gradients of the cubic form at the
    q's) are concurrent.
    """
    if s1 in (1, -1) or s2 in (1, -1):
        return True
    u1, u2 = (s1 - 1) / (s1 + 1), (s2 - 1) / (s2 + 1)
    u3 = Fraction(sign) / (u1 * u2)
    if u3 == 1:
        return True
    us = (u1, u2, u3)
    ups = tuple(1 / (u * u) for u in us)
    if len(set(us)) < 3 or len(set(ups)) < 3 or set(us) & set(ups):
        return True
    tangents = [_gradient(_point_of_u(u)) for u in us]
    return _det3(*tangents) == 0


def check_arrangement(sign: int, arr, atype, point) -> str | None:
    """Type and image follow the sign; the tangency points lie on the cubic
    and are collinear exactly for sign +1 (checked on raw coordinates)."""
    want_type = "I" if sign == 1 else "II"
    got_type = getattr(atype, "value", atype)
    if got_type != want_type:
        return f"sign {sign}: type {got_type}, expected {want_type}"
    qs = [tuple(Fraction(c) for c in p.coords) for p in arr.q_points]
    if not all(_on_cubic(q) for q in qs):
        return "a tangency point is off the cubic"
    if (_det3(*qs) == 0) != (sign == 1):
        return f"sign {sign}: tangency points collinear = {_det3(*qs) == 0}"
    free, text = IMAGE_GOLDEN["type1" if sign == 1 else "type2"]["E+"]
    return check_point(point, free, text)


# ---------------------------------------------------------------------------
# CLI reports (parsed JSON)


def check_cli(argv: list[str], code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    command = argv[0]
    if command == "image":
        variant = argv[argv.index("--bundled") + 1]
        divisor = argv[argv.index("--divisor") + 1] if "--divisor" in argv else "E+"
        free, text = IMAGE_GOLDEN[variant][divisor]
        if report["point"]["str"] != text or report["n"] != free:
            return f"image {variant} {divisor}: P_D = {report['point']['str']}, expected {text}"
        return None
    if command == "cover":
        atype = argv[argv.index("--type") + 1]
        lo, hi = map(int, argv[argv.index("--sweep") + 1].split(".."))
        want = [n for n in range(lo, hi + 1) if cover_expected(atype, n)]
        if report["exists_for"] != want or len(report["results"]) != hi - lo + 1:
            return f"cover {atype} {lo}..{hi}: exists_for {report['exists_for']}, expected {want}"
        return None
    if command == "arrangement":
        sign = report["requested"]["sign"]
        want_type = "I" if sign == 1 else "II"
        qs = [tuple(Fraction(c) for c in p) for p in report["arrangement"]["q_points"]]
        if report["type"] != want_type or report["collinear_tangencies"] != (sign == 1):
            return f"arrangement sign {sign}: type {report['type']}"
        if not all(_on_cubic(q) for q in qs) or (_det3(*qs) == 0) != (sign == 1):
            return f"arrangement sign {sign}: tangency points fail the raw-coordinate check"
        text = IMAGE_GOLDEN["type1" if sign == 1 else "type2"]["E+"][1]
        if report["image"]["str"] != text:
            return f"arrangement sign {sign}: P = {report['image']['str']}, expected {text}"
        return None
    if command == "fiber":
        kind = argv[1]
        m, euler, group, contrib = kind_facts(kind)
        if (report["components"], report["euler"]) != (m, euler):
            return f"fiber {kind}: components/euler {report['components']}/{report['euler']}"
        if tuple(report["component_group"]) != group:
            return f"fiber {kind}: group {report['component_group']}, expected {list(group)}"
        for i, c in contrib.items():
            if Fraction(report["a_inv"][i - 1][i - 1]) != -c:
                return f"fiber {kind}: (A^-1)[{i},{i}] = {report['a_inv'][i - 1][i - 1]}"
        return None
    if command == "demo":
        if report["ok"] is not True or report["failures"] != 0:
            return f"demo: {report['failures']} failing checks"
        return None
    return f"unchecked command {command!r}"


# ---------------------------------------------------------------------------
# synthetic rank-one surfaces with large fibers


def local_contribution(kind: str, component: int) -> Fraction:
    """contr_v of the simple component (0 for the identity component)."""
    if component == 0:
        return Fraction(0)
    return kind_facts(kind)[3][component]


def multiple_component(kind: str, component: int, k: int) -> int:
    """The simple component in the class of k times the class of ``component``.

    I_n: Theta_i + Theta_j = Theta_{i+j mod n}.  I*_n: every leg has order 2
    when n is even; when n is odd the group is Z/4, generated by a far leg,
    whose double is the near leg 1.
    """
    if component == 0:
        return 0
    m = _KIND.match(kind)
    if m and not m.group(2):
        return k * component % int(m.group(1))
    n = int(m.group(1))
    if n % 2 == 0 or component == 1:
        return component if k % 2 else 0
    return (0, component, 1, 5 - component)[k % 4]


def section_dot_o(chi: int, height: Fraction, fibers, components, k: int) -> Fraction:
    """s.O of the section k*P_o from the height formula
    <P, P> = 2 chi + 2 s.O - sum_v contr_v(P)."""
    contr = sum(
        local_contribution(kind, multiple_component(kind, components[fid], k))
        for fid, kind in fibers
    )
    return (k * k * height - 2 * chi + contr) / 2


def generator_height(chi: int, s_dot_o: int, fibers, components) -> Fraction:
    contr = sum(local_contribution(kind, components[fid]) for fid, kind in fibers)
    return 2 * chi + 2 * s_dot_o - contr


def multiple_is_consistent(chi, height, fibers, components, k: int) -> bool:
    """k*P_o is realizable by a section: s.O is an integer >= 0 (or P = O)."""
    s = section_dot_o(chi, height, fibers, components, k)
    return s.denominator == 1 and (s >= 0 or k == 0)
