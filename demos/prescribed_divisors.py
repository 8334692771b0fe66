"""Build a graph with any prescribed divisor chain and nullity.

The recipe: one crown graph per divisor (crown(2d+4) carries divisor d),
a binary graph for the nullity (Bg(n) has kernel dimension z(n), and z is
surjective), and a single apex joined to everything.  The apex glues the
blocks while adding only trivial divisors.  With no divisor, one isolated
vertex joins the binary graph, so that the apex alone is an RA row.
"""

from ramat.graphs import graph6_encode
from ramat.ra_core import classify
from ramat.theorems import construct_prescribed, z, z_minimal_n

print("z(n) for small n:", {n: z(n) for n in range(2, 17)})
print("first n with z(n) = 3:", z_minimal_n(3))
print()

for chain, nullity in (([3], 0), ([2, 4], 0), ([2, 2], 1), ([6], 2)):
    g = construct_prescribed(chain, nullity)
    c = classify(g)
    got = sorted(d for d in c.divisors if d > 1)
    print(f"prescribed {chain} nullity {nullity}: {g.n} vertices")
    print(f"  graph6   {graph6_encode(g)}")
    print(f"  computed divisors>1 {got}, nullity {c.nullity}, status {c.status}")
