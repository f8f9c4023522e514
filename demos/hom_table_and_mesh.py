"""Tour: hom dimensions three ways.

Prints a corner of the closed-form hom table, confirms a few entries
against the matrix oracle over two prime fields, and demonstrates the
four-term mesh identity that recovers multiplicity differences from hom
differences on the band.

Run:  python demos/hom_table_and_mesh.py
"""

from arcdeg import (
    B2,
    P0,
    P1,
    P2,
    Move,
    S2Object,
    delta_hom,
    delta_mult,
    hom_indec,
    hom_obj,
    mesh_defect_report,
    oracle_hom_dim,
    region,
    unit_pair,
)

sample = [P0(3), P1(3), P2(4), B2(4, 1), B2(5, 2)]
print("hom table corner (rows: source, columns: target):\n")
header = " " * 9 + "".join(f"{s.to_text():>9s}" for s in sample)
print(header)
for x in sample:
    row = "".join(f"{hom_indec(x, y):9d}" for y in sample)
    print(f"{x.to_text():9s}{row}")

print("\nmatrix oracle agreement over F_2 and F_101:")
for x in (B2(5, 2), P1(3)):
    for y in (B2(4, 2), P2(4)):
        ox, oy = S2Object.of(x), S2Object.of(y)
        table = hom_obj(ox, oy)
        o2 = oracle_hom_dim(ox, oy, 2)
        o101 = oracle_hom_dim(ox, oy, 101)
        print(f"  [{x.to_text()}, {y.to_text()}] table={table} oracle(2)={o2} oracle(101)={o101}")

move = Move("E", (5, 2))
smaller, larger = unit_pair(move)
print(f"\nunit pair for {move}: {smaller.to_text()}  <=  {larger.to_text()}")
pred = region(move)
print("hom deltas equal the region indicator:")
for t in (P1(1), P1(2), P1(3), B2(6, 2), B2(6, 3)):
    print(f"  {t.to_text():8s} delta={delta_hom(smaller, larger, t)} region={pred(t)}")

print("\nmesh identity at the two marked cells (pole +1, arc -1):")
m, r = move.points


def dh(x):
    """Hom delta at a band cell's label: P1(ell) at t = 0, B2(ell, t) inside."""
    return delta_hom(smaller, larger, x)


plus = dh(P1(m)) + dh(B2(m + 1, 1)) - dh(P1(m + 1)) - dh(B2(m, 1))
minus = dh(B2(m, r)) + dh(B2(m + 1, r + 1)) - dh(B2(m + 1, r)) - dh(B2(m, r + 1))
print(f"  at the vanished pole:  mesh={plus:+d}  mult delta={delta_mult(smaller, larger, P1(m)):+d}")
print(f"  at the created arc:    mesh={minus:+d}  mult delta={delta_mult(smaller, larger, B2(m, r)):+d}")

report = mesh_defect_report(smaller, larger, m + 4)
print(f"  full report over the window: {'empty, as expected' if not report else report}")
