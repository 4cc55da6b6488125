"""Property tests over the documented range: random states at 2j = 1..20
under random rotations keep their invariants, are equivalent to their
rotated copies, and survive the tensor round trip."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from multiaxial.classify import FINGERPRINT_TOL, class_signature, lu_equivalent
from multiaxial.fano import extract_tensors, reconstruct_density
from multiaxial.halfint import HalfInteger
from multiaxial.states import DensityMatrix, EulerAngles, rotate_density

# An example classifies up to two spin-10 states in well under a second; 60
# per property keep the suite to about five seconds.  Per-example time
# varies with the state and the machine, so there is no deadline.
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def states(draw):
    """A Haar-random pure or Ginibre mixed state from a drawn seed."""
    seed = draw(st.integers(0, 2**32 - 1))
    twoj = draw(st.integers(1, 20))
    pure = draw(st.booleans())
    rng = np.random.default_rng(seed)
    d = twoj + 1
    if pure:
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        matrix = np.outer(psi, psi.conj())
    else:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        matrix = g @ g.conj().T
        matrix = 0.5 * (matrix + matrix.conj().T) / np.trace(matrix).real
    return DensityMatrix(HalfInteger(twoj), matrix)


angles = st.builds(
    EulerAngles,
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
)


@PROPERTY_SETTINGS
@given(states(), angles)
def test_invariants_survive_rotation(rho, g):
    a = class_signature(rho)
    b = class_signature(rotate_density(rho, g))
    assert a.render() == b.render()
    assert a.r_values.keys() == b.r_values.keys()
    for k, r in a.r_values.items():
        assert abs(r - b.r_values[k]) <= FINGERPRINT_TOL
    assert len(a.pairwise) == len(b.pairwise)
    assert np.max(np.abs(np.subtract(a.pairwise, b.pairwise)), initial=0.0) <= FINGERPRINT_TOL


@PROPERTY_SETTINGS
@given(states(), angles)
def test_rotated_copy_is_equivalent_with_a_witness(rho, g):
    rotated = rotate_density(rho, g)
    result = lu_equivalent(rho, rotated)
    assert result.verdict == "equivalent", result.reason
    mapped = rotate_density(rho, result.witness)
    assert np.max(np.abs(mapped.matrix - rotated.matrix)) <= 1e-6


@PROPERTY_SETTINGS
@given(states())
def test_tensor_round_trip(rho):
    back = reconstruct_density(extract_tensors(rho))
    assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-12
