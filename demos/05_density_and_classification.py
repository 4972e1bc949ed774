"""Pseudocomplements, dense cores, and the structural predicates.
=================================================================

The consistency relation gives each element a pseudocomplement on the
opposite side; the two maps form an antitone Galois connection.  Their
double images generate the dense core: the smallest dense sub-d-locale.
Each map is computed for the minus side of a d-frame; the plus side's is
the same computation on the swap.
"""

from dframes import (
    Frame,
    classify,
    coreflection_report,
    dense_core,
    galois_check,
    is_dense_sub_d_locale,
    mine,
    pseudocomplements,
    symmetric_dframe,
)
from dframes import enumerate_sub_d_locales
from dframes.fixtures import (
    double_negation_without_excluded_middle,
    incorrigible_minimal,
    three_three,
)

s3 = symmetric_dframe(Frame.chain(3))
to_plus, to_minus = pseudocomplements(s3), pseudocomplements(s3.swap())
print("Sym(3) pseudocomplements:",
      {s3.minus.elements[a]: s3.plus.elements[to_plus[a]] for a in range(3)})
print("and back from the plus side:",
      {s3.plus.elements[p]: s3.minus.elements[to_minus[p]] for p in range(3)})
print("Galois laws hold:", galois_check(s3).ok)

# The dense core of Sym(3) is the Booleanization on both sides.
core = dense_core(s3)
print("core carriers:", s3.minus.names(core.core.minus.members),
      s3.plus.names(core.core.plus.members))

# Density is decided two ways at once (restriction equality and
# double-pseudocomplement containment); here over the whole lattice of 3.3.
tt = three_three()
ds = enumerate_sub_d_locales(tt)
dense = [m.label for m in ds.members if is_dense_sub_d_locale(m)]
print("\ndense sub-d-locales of 3.3:", dense)
print("dense core of 3.3:", dense_core(tt).core.label)

# Structural predicates, with the implication chain asserted internally:
# excluded middle => double negation => corrigible and dually subfit.
for df in (symmetric_dframe(Frame.boolean(2)), tt,
           double_negation_without_excluded_middle(), incorrigible_minimal()):
    print(f"\n{df.name}: {classify(df).as_dict()}")

# Coreflection behaviour at desk scale: cores are idempotent and dually
# subfit; dually subfit d-frames are their own cores (the core is whole);
# corrigible ones have double-negation cores.
report = coreflection_report([tt, s3, double_negation_without_excluded_middle()])
print("\ncoreflection facts verified:", report.ok)

# The miner sweeps every valid d-frame over small frames, looking for the
# phenomena that otherwise need infinite examples.
print("\nminer over frames with at most 3 elements:")
for line in mine(max_frame=3).summary_lines():
    print(" ", line)
