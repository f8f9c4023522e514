"""Hom-space dimensions between indecomposables, their biadditive
extension to objects, the difference data attached to a same-type pair
(multiplicity deltas, hom deltas, and ``delta_profile``, the hom deltas
over the whole test set), the finite test set that decides the hom
order, and the four-term mesh identity relating the two kinds of delta.
The mesh runs over band cells (ell, t), labelled P1(ell), B2(ell, t) or
the pair P2(ell) + P0(ell-1); every single label in a window n is a
member of the test set at cutoff n + 1, so the mesh reads its hom deltas
from one ``delta_profile`` at that cutoff.  The cells of a window, each
with its four labels, are built once per window n and kept.

Hom values are read only through the module attribute ``hom_indec``,
so a patched ``hom_indec`` reaches every path.  Its cache is the one
table of pair values (``hom_obj``, ``delta_hom``); it holds at most the
square of the number of indecomposables with parts up to the largest
part seen.  ``delta_hom`` sums that table over each side's summands in
one C-level ``sum(map(...))``, and never reads a packed row, so it stays
an independent reference for ``delta_profile``.

A hom row over indecomposables x_0 .. x_{n-1} is one integer, the sum
of [x_k, o] << (w * k): field k holds [x_k, o] in w bits whose top bit
stays a zero guard.  Every entry [x, s] lies in [0, 2|s|], |s| the
weight of ``s.ambient_parts()``, so an entry of an object of ambient
type beta is at most 2|beta|, and w = bit_length(2|beta|) + 1
(``_row_width``) keeps it below the guard.  ``_hom_rows(xs, objects,
w)`` sums each object's summands' packed columns, by biadditivity; a
column entry outside that bound raises ``InternalInvariantViolation``
naming the entry, so a faulty table never yields a wrong row.  With G
the guard bits, row y is entrywise at most row z iff ((z | G) - y) & G
== G: no borrow crosses a field, and field k of (z | G) - y is
[x_k, z] - [x_k, y] + 2^(w-1).  ``_COLUMNS`` keeps one table per
(member list, width) with one column per summand; member lists are
fixed by a bound on the parts and widths by the bit length of 2|beta|,
so it grows with the parts and weights seen, not with the number of
queries.  Summands and member lists are their own keys, and both
tables outlive a call, so later calls and other types reuse them.  A
whole type's hom order is one list of rows (one per object), compared
pair by pair as above; the sweep reads it this way.  Point queries take
one cached row per object (``_hom_profile``, the same kernel on a
single object, for the 4096 most recent), and ``_packed_delta`` is the
one place that derives a same-type pair's packed hom delta diff = (z |
G) - y with its guard bits and width.  ``hom_leq`` is diff & G == G and
``delta_profile`` reads its fields.  With R a move's region mask
(``moves._region_mask``, a 1 in each field whose member lies in the
region), the descent's (P1) is (diff - R) & G == G: a pair in hom order
borrows across no field, and a field keeps its guard bit exactly when
its delta is at least 1.  ``verify``'s region check is diff == G + R.

A test set depends only on its bipicket cutoff b (``_test_set``):
P1(1 .. b - 1) and B2(l, t) for 3 <= l <= b and 1 <= t <= l - 2, so
(b - 1) + (b - 1)(b - 2)/2 members, and at most 32 cutoffs are kept.
Its growth is fine: it follows the largest part queried, not the
number of queries, and a caller that reads a set pays for it anyway.
``hom`` prints the whole delta vector, one line per member, so its
output is itself quadratic in the largest part: ``hom --x "P1(1000)"
--y "P1(1000)"`` reads 500,500 members and prints 10.4 MB.  That call
took 67 s and 290 MB on a shared 2-vCPU host, most of it in packing
and unpacking rows of that many fields, where each field's shift copies
the whole row, not in building the set.

The dimension of the morphism space between two indecomposables is a
closed formula in the parameters, built from truncated minima:

==========  ===============  ===========  =============================  ===============
X \\ Y       P0(m)            P2(m)        B2(m,r)                        P1(m)
==========  ===============  ===========  =============================  ===============
P0(l)       min(l,m)         min(l,m)     min(l,m)+min(l,r)              min(l,m)
P2(l)       min(l-2,m)       min(l,m)     min(l-1,m)+min(l-1,r)          min(l-1,m)
B2(l,t)     min(l-1,m)       min(l,m)     min(l-1,m)+min(t,m)            min(l-1,m)
            +min(t-1,m)      +min(t,m)    +min(l-1,r)+min(t,r)           +min(t,m)
                                          -[l>m and t<=r]
P1(l)       min(l-1,m)       min(l,m)     min(l,m)+min(l-1,r)            min(l,m)
==========  ===============  ===========  =============================  ===============

The bipicket formulas remain valid at the boundary parameter r = m - 1,
where they agree with the sum over the pair ``P2(m) + P0(m-1)``; this is
what gives the pair's band cell hom delta 0.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import product, repeat, starmap

from .errors import InternalInvariantViolation
from .objects import B2, P1, Indecomposable, S2Object, object_type, require_same_type
from .partitions import Partition


def table_entry(xkind: str, xl: int, xt: int, ykind: str, ym: int, yr: int) -> int:
    """Raw table formula; bipicket parameters may take the boundary
    value t = l - 1 (resp. r = m - 1), standing for the ``P2 + P0`` pair."""
    if xkind == "P0":
        if ykind == "B2":
            return min(xl, ym) + min(xl, yr)
        return min(xl, ym)
    if xkind == "P2":
        if ykind == "P0":
            return min(xl - 2, ym)
        if ykind == "P2":
            return min(xl, ym)
        if ykind == "B2":
            return min(xl - 1, ym) + min(xl - 1, yr)
        return min(xl - 1, ym)
    if xkind == "B2":
        if ykind == "P0":
            return min(xl - 1, ym) + min(xt - 1, ym)
        if ykind == "P2":
            return min(xl, ym) + min(xt, ym)
        if ykind == "B2":
            corr = 1 if (xl > ym and xt <= yr) else 0
            return min(xl - 1, ym) + min(xt, ym) + min(xl - 1, yr) + min(xt, yr) - corr
        return min(xl - 1, ym) + min(xt, ym)
    if xkind == "P1":
        if ykind == "P0":
            return min(xl - 1, ym)
        if ykind == "P2":
            return min(xl, ym)
        if ykind == "B2":
            return min(xl, ym) + min(xl - 1, yr)
        return min(xl, ym)
    raise ValueError(f"unknown kind {xkind!r}")


@lru_cache(maxsize=None)
def hom_indec(x: Indecomposable, y: Indecomposable) -> int:
    """Dimension of the space of morphisms from x to y."""
    return table_entry(*x, *y)


# per (member list, width), per summand, the packed column of [x, s] over
# the members; see _hom_rows
_COLUMNS: dict[tuple[tuple[Indecomposable, ...], int], dict[Indecomposable, int]] = {}


def hom_obj(a: S2Object, b: S2Object) -> int:
    """Morphism-space dimension between objects, biadditive in both."""
    return sum(starmap(hom_indec, product(a, b)))


def delta_hom(y: S2Object, z: S2Object, x: Indecomposable) -> int:
    """[x, z] - [x, y] for same-type objects y, z."""
    require_same_type(y, z)
    # summed in C over the summands, the table read at call time
    hom = hom_indec
    return sum(map(hom, repeat(x, len(z)), z)) - sum(map(hom, repeat(x, len(y)), y))


def delta_mult(y: S2Object, z: S2Object, x: Indecomposable) -> int:
    """Multiplicity of x in z minus its multiplicity in y."""
    require_same_type(y, z)
    return z.count(x) - y.count(x)


def test_set(beta: Partition, bound: int | None = None) -> tuple[Indecomposable, ...]:
    """The finite set of test objects that decides the hom order on
    objects of ambient type ``beta``.

    Hom deltas vanish on every P0 and P2, equal the stabilized P1 value
    on bipickets B2(l, t) once l exceeds ``beta[0] + 1``, and vanish on
    P1(l) for l > beta[0]; so P1(1..beta[0]) together with all bipickets
    B2(l, t), l <= beta[0] + 1 suffice.  ``bound`` overrides the bipicket
    cutoff (P1 then runs to bound - 1), which is how the default cutoff
    is cross-validated.
    """
    return _test_set(beta.max_part + 1 if bound is None else bound)


# a test set depends only on its bipicket cutoff; one entry per cutoff in use
@lru_cache(maxsize=32)
def _test_set(bound: int) -> tuple[Indecomposable, ...]:
    members: list[Indecomposable] = [P1(t) for t in range(1, bound)]
    for ell in range(3, bound + 1):
        members.extend(B2(ell, t) for t in range(1, ell - 1))
    return tuple(members)


def _row_width(beta: Partition) -> int:
    """Bits per field of the packed hom rows of objects of ambient type
    beta: their entries are at most 2|beta|, below each field's guard bit."""
    return (2 * beta.weight()).bit_length() + 1


def _guard(n: int, w: int) -> int:
    """The guard bits, the top bit of each of n fields of w bits."""
    return ((1 << n * w) - 1) // ((1 << w) - 1) << (w - 1)


def _fields(row: int, n: int, w: int) -> tuple[int, ...]:
    """The n fields of w bits of a packed row, field 0 first."""
    mask = (1 << w) - 1
    return tuple(row >> shift & mask for shift in range(0, n * w, w))


def _column(xs, s: Indecomposable, w: int) -> int:
    """The packed column of [x, s] over xs; an entry outside [0, 2|s|]
    raises rather than spill into the next field."""
    cap = 2 * sum(s.ambient_parts())
    col = 0
    for k, x in enumerate(xs):
        value = hom_indec(x, s)
        if not 0 <= value <= cap:
            raise InternalInvariantViolation(
                f"hom table entry [{x.to_text()}, {s.to_text()}] = {value} lies outside [0, {cap}]"
            )
        col |= value << w * k
    return col


def _hom_rows(xs, objects, w: int) -> list[int]:
    """For each object o, the packed row of [x, o] over the
    indecomposables xs in fields of w bits: the sum of one packed column
    of ``hom_indec`` values per summand.  w is at least the
    ``_row_width`` of every object's ambient type.

    Columns are kept per (xs, w, summand) and reused by later calls on
    any type.  Callers pass test sets and picket probe lists, which are
    fixed by a bound on the parts, so the table holds at most one column
    per summand for each such bound and width in use."""
    cols = _COLUMNS.setdefault((tuple(xs), w), {})
    rows = []
    for o in objects:
        row = 0
        for s in o:
            col = cols.get(s)
            if col is None:
                col = cols[s] = _column(xs, s, w)
            row += col
        rows.append(row)
    return rows


@lru_cache(maxsize=4096)
def _hom_profile(obj: S2Object, bound: int | None) -> int:
    beta = object_type(obj)[0]
    return _hom_rows(test_set(beta, bound), (obj,), _row_width(beta))[0]


def _packed_delta(y: S2Object, z: S2Object, bound: int | None = None) -> tuple[int, int, int]:
    """(diff, G, w) for same-type objects y, z over ``test_set(beta,
    bound)``: the field width w, the guard bits G, and diff = (row z |
    G) - row y, whose field k is [x_k, z] - [x_k, y] + 2^(w-1)."""
    beta = require_same_type(y, z)
    w = _row_width(beta)
    guard = _guard(len(test_set(beta, bound)), w)
    return (_hom_profile(z, bound) | guard) - _hom_profile(y, bound), guard, w


def delta_profile(y: S2Object, z: S2Object, bound: int | None = None) -> tuple[int, ...]:
    """[x, z] - [x, y] for same-type objects y, z and each x of
    ``test_set(beta, bound)``, in test-set order."""
    diff, guard, w = _packed_delta(y, z, bound)
    # the top guard bit is the top bit of the last field
    return tuple(f - (1 << w - 1) for f in _fields(diff, guard.bit_length() // w, w))


def hom_leq(y: S2Object, z: S2Object) -> bool:
    """True when [x, y] <= [x, z] for every test object x."""
    diff, guard, _ = _packed_delta(y, z)
    # a field borrows its guard bit exactly when its entry of y exceeds z's
    return diff & guard == guard


# one violated band cell of the mesh identity
MeshViolation = namedtuple("MeshViolation", "ell t label mult_delta mesh_value")


def _band_label(ell: int, t: int) -> Indecomposable | None:
    """The indecomposable at band cell (ell, t), 0 <= t <= ell - 1: P1(ell)
    at t = 0, B2(ell, t) inside the band, and None at t = ell - 1, whose
    label is the pair P2(ell) + P0(ell-1) with hom delta always 0."""
    if t == 0:
        return P1(ell)
    return B2(ell, t) if t < ell - 1 else None


# one window's band cells, each (ell, t) with the labels at (ell, t),
# (ell+1, t+1), (ell+1, t) and (ell, t+1); the windows in use are few
@lru_cache(maxsize=32)
def _band_cells(n: int) -> tuple[tuple, ...]:
    return tuple(
        (ell, t, _band_label(ell, t), _band_label(ell + 1, t + 1), _band_label(ell + 1, t), _band_label(ell, t + 1))
        for ell in range(2, n)
        for t in range(0, ell - 1)
    )


def mesh_defect_report(y: S2Object, z: S2Object, n: int) -> list[MeshViolation]:
    """Check the four-term identity relating multiplicity deltas to hom
    deltas on every band cell (ell, t) with 2 <= ell <= n - 1 and
    0 <= t <= ell - 2:

        mult_delta(label(ell, t)) ==
            dh(ell, t) + dh(ell+1, t+1) - dh(ell+1, t) - dh(ell, t+1)

    where dh is the hom delta at the cell label and composite cells
    contribute 0.  Every other label is a member of ``test_set(beta,
    n + 1)``, so all hom deltas are read from one ``delta_profile`` at
    that cutoff.  Returns the violated cells; an empty report is the
    expected outcome for every same-type pair.  Requires n to be at
    least beta[0] + 3 so the window covers all nonzero deltas.
    """
    beta = require_same_type(y, z)
    if n < beta.max_part + 3:
        raise ValueError(f"window bound {n} is below the required {beta.max_part + 3}")
    dh = dict(zip(test_set(beta, n + 1), delta_profile(y, z, n + 1)))
    dh[None] = 0  # composite cells
    mult = Counter(z)
    mult.subtract(y)
    violations: list[MeshViolation] = []
    for ell, t, label, opposite, side, other_side in _band_cells(n):
        rhs = dh[label] + dh[opposite] - dh[side] - dh[other_side]
        if mult[label] != rhs:
            violations.append(MeshViolation(ell, t, label, mult[label], rhs))
    return violations
