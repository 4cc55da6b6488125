"""Multiaxial (per-rank axis) analysis of symmetric N-qubit quantum states.

A spin-j = N/2 density matrix is expanded over irreducible tensor
operators; each rank k yields an invariant scalar r_k and k double-headed
axes on the Bloch sphere, from which degeneracy configurations, class
signatures and local-unitary equivalence verdicts follow.
"""

from .angular import (
    MAX_SPIN,
    SpinTooLargeError,
    clebsch_gordan,
    couple_axis_chain,
    couple_pair,
    q_vector,
    tau_matrix,
    wigner_d_matrix,
)
from .axes import (
    Axis,
    AxisPairingError,
    DegenerateFitError,
    RankDecomposition,
    axis_tensor,
    fit_rk,
    mar_polynomial,
    pairwise_invariants,
    solve_all_axes,
    solve_axes,
)
from .classify import (
    ClassSignature,
    DegeneracyConfiguration,
    EquivalenceResult,
    SeparabilityVerdict,
    Tolerances,
    class_signature,
    degeneracy_configuration,
    lu_equivalent,
    pure_separability_check,
    separability_from_signature,
    signature_from_tensors,
)
from .families import (
    FamilyParameterError,
    FamilyState,
    build_family,
    family_density,
    make_bell,
    make_biaxial,
    make_coherent,
    make_dicke,
    make_ghz,
    make_triaxial,
    make_uniaxial,
    make_w,
)
from .fano import SphericalTensorSet, extract_tensors
from .halfint import HalfInteger
from .states import (
    DensityMatrix,
    EulerAngles,
    PPTResult,
    PureState,
    StateFormatError,
    ValidationReport,
    as_density,
    ppt_check,
    ppt_two_qubit,
    pure_to_density,
    read_state,
    rotate_density,
    rotate_pure,
    symmetric_to_two_qubit,
    validate,
    write_state,
)

__version__ = "0.1.0"
