"""The lattice of sub-d-locales, and how distributivity fails.
==============================================================

A pair of component sublocales induces at most one d-frame quotient; the
valid pairs form a complete lattice under componentwise inclusion.  Joins
are componentwise; meets are joins of lower bounds and can drop strictly
below the componentwise intersection.
"""

from dframes import enumerate_sub_d_locales
from dframes.fixtures import three_three

tt = three_three()
ds = enumerate_sub_d_locales(tt)

print(f"sub-d-locales of 3.3: {ds.n}")
for label in ds.labels:
    print(" ", label)

# The four pairs mixing a proper sublocale with the trivial one are missing:
# their induced relations violate con-tot.

lbl = list(ds.labels)
oo, tc, to = lbl.index("o(c).o(c)"), lbl.index("3.c(c)"), lbl.index("3.o(c)")

# The classic failure of distributivity, computed inside the lattice:
meet_tc_to = ds.meet(tc, to)
print("\n3.c(c) ^ 3.o(c) =", ds.labels[meet_tc_to],
      " (the componentwise intersection (3, {1}) is not a sub-d-locale)")
lhs = ds.join(oo, meet_tc_to)
rhs = ds.meet(ds.join(oo, tc), ds.join(oo, to))
print("o(c).o(c) v (3.c(c) ^ 3.o(c)) =", ds.labels[lhs])
print("(o(c).o(c) v 3.c(c)) ^ (o(c).o(c) v 3.o(c)) =", ds.labels[rhs])
print("distributive?", ds.is_distributive, "| modular?", ds.is_modular)

# The Hasse diagram as Graphviz DOT; render with `dot -Tpng`.
print("\n" + ds.dot())
