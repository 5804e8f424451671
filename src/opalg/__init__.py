"""opalg: numerical workbench for states on finite-dimensional operator algebras.

Core objects: :class:`StarAlgebra` (direct sums of matrix blocks),
:class:`State` (blockwise densities), the GNS construction with its
equivalence criteria, qubit-chain product states, finite group
representations, Gaussian/Fock CCR structure, a discretized free scalar
field, and automorphism actions with symmetry-breaking diagnostics.
"""

from .algebra import (
    AlgebraElement,
    StarAlgebra,
    State,
    dual_norm_distance,
    evaluate_state,
    operator_norm,
    transport_residual,
)
from .ccr import (
    CcrSpace,
    ConstantEigenvalues,
    FiniteEigenvalues,
    FockTruncation,
    PowerTailEigenvalues,
    build_fock_operators,
    gaussian_equivalence_verdict,
    moment_oracle,
    pair_partitions,
    quasi_invariance_exponent,
    quasi_invariance_factor,
    wick_moment,
)
from .errors import (
    InvalidStateError,
    NumericalError,
    OpalgError,
    ShapeMismatchError,
    ValidationError,
)
from .fields import (
    EuclideanLattice,
    MassShellGrid,
    commutator_identity_check,
    klein_gordon_residuals,
    mass_kernel_witness,
    pauli_jordan,
    pauli_jordan_minus,
)
from .gns import (
    EquivalenceReport,
    GnsRep,
    commutant_basis,
    equivalence_check,
    gns_construct,
    intertwining_residual,
    pure_unitary_intertwiner,
    purity_check,
    superselection_operator,
)
from .groups import (
    FiniteGroup,
    GroupRep,
    convolve,
    cyclic_group,
    delta,
    gns_from_group_function,
    irreducible_characters,
    is_positive_definite,
    left_regular_representation,
    orthogonality_check,
    symmetric_group,
)
from .qubits import (
    PowerTail,
    QubitConfig,
    equivalence_verdict,
    local_transition_element,
    transition_residual,
)
from .scenarios import Scenario, parse_scenario, run_scenario
from .series import SeriesVerdict
from .symmetry import (
    AutomorphismGroup,
    InnerAutomorphism,
    one_parameter_flow,
    pushforwards,
    stabilizer_orbit,
    stationarity_check,
    unitary_implementer,
)

__version__ = "0.1.0"
