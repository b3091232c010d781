"""Qudit graph states from spin-qudit emitters.

Desk-scale simulation and analysis toolkit: spin Hamiltonian spectra,
time-bin emission protocols, qudit graph-state verification, type-II fusion
bookkeeping, and cavity loss/timing budgets.
"""

__version__ = "0.1.0"

from .statevec import (                                      # noqa: F401
    Register, MeasurementRecord, CapacityError,
    init_register, apply_fourier, apply_pauli_power, apply_permutation,
    apply_conditional_flip, apply_cz_power,
    measure, enumerate_outcomes,
)
from .graphs import (                                        # noqa: F401
    GraphSpec, CorrectionSet, StabilizerReport,
    make_linear, make_ring, make_ladder, build_graph_state,
    stabilizer_verify, local_correction_search,
)
from .protocols import (                                     # noqa: F401
    Instruction, Program, ExecutionTrace, VerificationReport,
    compile_single_photon, compile_linear, compile_six_ring, compile_ladder,
    execute, verify_against_target, verify_w_state, target_graph,
)
from .fusion import (                                        # noqa: F401
    FusionOutcome, success_probability, ancilla_modes, fuse_chain_ends,
    compare_schemes,
)
from .spins import (                                         # noqa: F401
    SpinParams, DoubleSpinParams, SpectrumResult, TransitionList,
    SpectatorConvention, LabelingAmbiguityError,
    build_single_donor_hamiltonian, build_double_donor_hamiltonian,
    spectrum, donor_spectrum,
    enumerate_transitions, edsr_frequency_closed_form, edsr_comparison,
    sensitivity_sweep,
)
from .budget import (                                        # noqa: F401
    CavityParams, LossReport, OperationTable, TimingReport,
    loss_success, emission_time, timing_fidelity_budget,
    monte_carlo_mode_loss, single_donor_table, sb2_table,
)
