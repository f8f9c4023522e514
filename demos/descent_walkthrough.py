"""Tour: turning a hom-order relation into an explicit move chain.

Takes the standard worked pair of same-type objects, shows that the hom
order holds by printing the delta vector on the finite test set, then
runs the descent search and replays the chain move by move.

Run:  python demos/descent_walkthrough.py
"""

from arcdeg import (
    S2Object,
    apply_down,
    delta_hom,
    diagram_of_object,
    find_descent_move,
    hom_leq,
    object_of_diagram,
    object_type,
    reduction_chain,
    test_set,
)

y = S2Object.from_text("B(7,3)+B(6,2)+P2(5)+P0(4)+P1(1)")
z = S2Object.from_text("B(6,3)+B(5,1)+P1(7)+P1(4)+P1(2)")
beta, gamma = object_type(y)

print(f"y = {y.to_text()}")
print(f"z = {z.to_text()}")
print(f"shared type: beta = ({beta.to_text()}), gamma = ({gamma.to_text()})\n")

print("nonzero hom deltas [t, z] - [t, y] over the test set:")
for t in test_set(beta):
    d = delta_hom(y, z, t)
    if d:
        print(f"  {t.to_text():8s} {d:+d}")
print(f"\nhom_leq(y, z) = {hom_leq(y, z)}, hom_leq(z, y) = {hom_leq(z, y)}")

print(f"\nfirst admissible move: {find_descent_move(y, z)}")

chain = reduction_chain(y, z)
print(f"full chain ({len(chain)} moves), replayed:")
current = z
for move in chain:
    nxt = object_of_diagram(apply_down(diagram_of_object(current), move), beta, gamma)
    print(f"  {str(move):12s} {current.to_text()}")
    print(f"  {'':12s} -> {nxt.to_text()}  (y below: {hom_leq(y, nxt)})")
    current = nxt
assert current == y
print("\nchain lands exactly on y")
