"""Equivariant K-theoretic Chevalley coefficients for Kac-Moody flag
manifolds, computed three independent ways (LS paths, the alcove model, the
nilHecke recurrence) that cross-check each other.

Each exported name is imported from its module on first use (PEP 562), so
``import kmchev`` loads no model; ``from kmchev import *`` loads them all."""

from importlib import import_module

_EXPORTS = {
    "cartan": "GCM Coroot Realization Weight pairing realization_from_json_file realization_from_preset wt_add"
              " wt_neg wt_scale",
    "weyl": "WeylElt WeylGroup",
    "lifts": "down interval_below up",
    "kring": "LaurentPoly apply_Ti chevalley_recurrence",
    "lspath": "LSPath chevalley_ls crystal_up_to demazure_crystal down_path e f straight_path up_path",
    "alcove": "AdaptedSequence LambdaHyperplane chevalley_alcove enumerate_tree_antidominant enumerate_tree_dominant"
              " enumerate_z_adapted",
    "bridge": "ls_to_seq seq_to_ls",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
