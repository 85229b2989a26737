"""Equivariant K-theoretic Chevalley coefficients for Kac-Moody flag
manifolds, computed three independent ways (LS paths, the alcove model, the
nilHecke recurrence) that cross-check each other."""

from .cartan import (
    GCM,
    Coroot,
    Q,
    Realization,
    Weight,
    pairing,
    realization_from_json_file,
    realization_from_preset,
    weight,
    wt_add,
    wt_neg,
    wt_scale,
    wt_sub,
)
from .weyl import WeylElt, WeylGroup
from .lifts import down, interval_below, up
from .kring import (
    LaurentPoly,
    apply_Ti,
    chevalley_explicit,
    chevalley_recurrence,
)
from .lspath import (
    IString,
    LSPath,
    chevalley_ls,
    classify_string,
    crystal_up_to,
    demazure_crystal,
    down_path,
    e,
    endpoint,
    f,
    istring,
    lift_subset,
    straight_path,
    up_path,
)
from .alcove import (
    AdaptedSequence,
    LambdaHyperplane,
    chevalley_alcove,
    demazure_alcove,
    divisor_product,
    enumerate_tree_antidominant,
    enumerate_tree_dominant,
    enumerate_z_adapted,
    lex_chain,
    ls_to_seq,
    opposite_demazure_alcove,
    seq_to_ls,
)

__version__ = "0.1.0"
