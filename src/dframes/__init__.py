"""Finite-model computations for point-free bitopology.

D-frames are pairs of finite frames linked by consistency and totality
relations.  This package validates them, classifies their morphisms,
enumerates their sub-d-locale lattices, and computes pseudocomplements and
smallest dense quotients, all over explicit finite carriers.
"""

from .order import (
    Lattice,
    Poset,
    down_closure_pairs,
    up_closure_pairs,
)
from .frames import (
    Frame,
    FrameHom,
    Nucleus,
    Sublocale,
    booleanization,
    check_frame_hom,
    closed_sublocale,
    enumerate_sublocales,
    one_sublocale,
    open_sublocale,
    sublocale_generated_by,
    sublocale_label,
    whole_sublocale,
)
from .dframe import (
    DFrame,
    DFrameHom,
    check_dframe,
    check_dframe_hom,
    close_con_generators,
    close_tot_generators,
    dense_hom_witness,
    image_factorization,
    is_dense_hom,
    is_extremal_epi,
    is_monomorphism,
    is_regular,
    minimal_dframe,
    rather_below,
    symmetric_dframe,
)
from .subdlocale import (
    SubDLocale,
    SubDLocaleLattice,
    build_sub_d_locale,
    enumerate_sub_d_locales,
    hasse_dot,
    join_sub_d_locales,
    try_sub_d_locale,
)
from .density import (
    DenseCore,
    classify,
    con_preorder,
    coreflection_report,
    corrigibility,
    dense_core,
    dense_core_map,
    double_pseudocomplement_sets,
    double_pseudocomplements,
    galois_check,
    is_corrigible,
    is_dense_sub_d_locale,
    is_double_negation,
    is_dually_subfit,
    is_excluded_middle,
    is_skeletal,
    pseudocomplement,
    pseudocomplements,
    saturation_nucleus,
)
from .search import mine, standard_corpus

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
