"""Multiaxial (per-rank axis) analysis of symmetric N-qubit quantum states.

A spin-j = N/2 density matrix is expanded over irreducible tensor
operators; each rank k yields an invariant scalar r_k and k double-headed
axes on the Bloch sphere, from which degeneracy configurations, class
signatures and local-unitary equivalence verdicts follow.

The public names below are loaded from their submodules on first use
(PEP 562), so ``import multiaxial`` alone loads no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "angular": ("MAX_SPIN", "SpinTooLargeError", "clebsch_gordan", "couple_axis_chain",
                "couple_pair", "q_vector", "tau_matrix", "wigner_d_matrix"),
    "axes": ("Axis", "AxisPairingError", "DegenerateFitError", "RankDecomposition",
             "axis_tensor", "fit_rk", "mar_polynomial", "pairwise_invariants",
             "solve_all_axes", "solve_axes"),
    "classify": ("ClassSignature", "DegeneracyConfiguration", "EquivalenceResult",
                 "SeparabilityVerdict", "Tolerances", "class_signature",
                 "degeneracy_configuration", "lu_equivalent", "pure_separability_check",
                 "signature_from_tensors"),
    "families": ("FamilyParameterError", "FamilyState", "build_family", "family_density",
                 "make_bell", "make_biaxial", "make_coherent", "make_dicke", "make_ghz",
                 "make_triaxial", "make_uniaxial", "make_w"),
    "fano": ("SphericalTensorSet", "extract_tensors"),
    "halfint": ("HalfInteger",),
    "states": ("DensityMatrix", "EulerAngles", "PPTResult", "PureState", "StateFormatError",
               "ValidationReport", "as_density", "ppt_check", "ppt_two_qubit",
               "pure_to_density", "read_state", "rotate_density", "rotate_pure",
               "symmetric_to_two_qubit", "validate", "write_state"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # Not cached here: a binding patched in its defining module is seen at once.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
