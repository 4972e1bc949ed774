"""Finite lattices and frames: tables, distributivity, Heyting structure.
=========================================================================

Every structure in this library lives over a finite bounded lattice with
explicit numpy tables.  This walkthrough builds a few, inspects their
operations, and shows where frames (finite distributive lattices) come in.
"""

from dframes import Frame, Lattice, hasse_dot

# A lattice from Hasse cover pairs.  The loader takes the
# reflexive-transitive closure, so full order pairs work too.
c3 = Lattice.chain(3)
print("3-chain elements:", c3.elements)
print("meet table:\n", c3.meet)
print("join table:\n", c3.join)

# The diamond: two incomparable points force meet 0 and join 1.
diamond = Lattice.from_covers("0ab1", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
a, b = diamond.idx("a"), diamond.idx("b")
print("\ndiamond: a /\\ b =", diamond.elements[diamond.meet[a, b]],
      " a \\/ b =", diamond.elements[diamond.join[a, b]])

# The pentagon is a perfectly good lattice, but distributivity fails; the
# witness is a concrete triple.
n5 = Lattice.pentagon()
print("\npentagon distributive?", n5.is_distributive)
print("witness triple:", n5.names(n5.distributivity_witness))

# On distributive lattices the relative pseudocomplement a -> b exists;
# a* = a -> 0 is the pseudocomplement.
print("\n3-chain: c -> 0 =", c3.elements[c3.implies(c3.idx("c"), c3.idx("0"))])
print("3-chain: c* =", c3.elements[c3.pseudocomplement(c3.idx("c"))],
      "  c** =", c3.elements[c3.pseudocomplement(c3.pseudocomplement(c3.idx("c")))])

# A Frame is a Lattice that has passed the distributivity check.  Made from
# c3, it keeps c3's tables rather than rebuilding them.
frame = Frame(c3, name="3")
print("\nframe:", frame, " same meet table as c3?", frame.meet is c3.meet)

# Any finite order renders as a DOT Hasse diagram.
print("\nDOT for the diamond:")
print(hasse_dot(diamond.elements, diamond.leq))
