"""shortcut-forge: shortcuts to adiabaticity for finite-dimensional quantum systems.

Exact and approximate counterdiabatic driving, Lewis-Riesenfeld invariant
engineering, fast-forward scaling, digitized (Trotterized) driving, and
quantum-speed-limit performance certificates, on dense matrices at desk scale.

Units: hbar = 1. A run in units with hbar != 1 is the hbar = 1 run on the
duration T / hbar (on the 1-D grid also mass m / hbar^2), its times read as
t / hbar: over every advertised Landau-Zener and random Hermitian pair and the
1-D grid, hbar = 0.7 runs matched their rescaled runs to 2.0e-13 in every CSV
column but time (1e-9 of the Landau-Zener von Neumann residual) and to
9.8e-12 in every summary number (the Landau-Zener Trotter slope fit).
"""

from .errors import (
    ConfigError,
    DegeneracyError,
    DimensionMismatchError,
    GaugeDiscontinuityError,
    GridTooCoarseError,
    HermiticityError,
    IllConditionedError,
    NonFiniteError,
    ShortcutForgeError,
    SpanningError,
)
from .operators import (
    OperatorBasis,
    as_hermitian,
    commutator,
    expand_in_basis,
    frobenius_inner,
    frobenius_norm,
    gell_mann_basis,
    nested_commutator,
    pauli_basis,
    pauli_matrix,
    reconstruct_from_basis,
)
from .schedule import Schedule
from .dynamics import StateTrajectory, adiabatic_populations, evolve, fidelity, overlap, step_unitary
from .spectral import (
    AdiabaticState,
    CDWalk,
    EigenPath,
    adiabatic_state,
    adiabaticity_metric,
    cd_walk,
    counterdiabatic_term,
    eigenpath,
    geometric_integrand,
    loop_geometric_phase,
    quantum_geometric_tensor,
)
from .agp import (
    KrylovChain,
    LinearCDSystem,
    action_value,
    algebraic_cd,
    algebraic_system,
    assemble_cd,
    krylov_cd,
    krylov_chain,
    krylov_system,
    odd_commutator_support,
    solve_cd,
    variational_cd,
)
from .invariants import (
    AlgebraSpec,
    DynamicalInvariant,
    hamiltonian_from_modes,
    invariant_residual,
    inverse_engineer_schedule,
    lr_phase,
    structure_constants,
)
from .fastforward import FFGauge, TimeRescaling, ff_hamiltonian, ff_of_cd
from .gridff import GridSystem1D, ff_potential, phase_from_continuity, split_step_evolve
from .digitized import (
    ScalingReport,
    digitization_error,
    trotter_baseline_error,
    trotter_cd_evolve,
    trotter_step_unitaries,
)
from .qsl import BoundReport, qsl_continuous, qsl_discrete, qsl_from_integrand, stddev_in_state
from . import models

__version__ = "0.1.0"
