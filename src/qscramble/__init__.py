"""Operational diagnostics of quantum information scrambling.

Two witnesses of the same physics, computed side by side for any qubit
unitary: an entropic one (tripartite mutual information of the channel's
Choi state) and an operational one built from temporal steering, where
the steerable weights of the evolved assemblages are solved as
semidefinite programs with independently checkable dual certificates.
"""

from .qla import (DensityMatrix, Propagator, QubitRegister, kron,
                  mutual_information, partial_trace, partial_transpose,
                  von_neumann_entropy)
from .models import (build_ising, build_syk, clifford_scan_unitary,
                     clifford_scrambler_unitary, haar_random_unitary,
                     PauliString)
from .channels import (ChoiState, PartitionSpec, PseudoDensityMatrix,
                       build_choi, build_pdm, haar_scrambled_baseline,
                       tripartite_mutual_information)
from .steering import (MeasurementSet, WitnessRecord, minus_t3,
                       temporal_assemblage, total_steerable_weight)
from .sdp import (first_order_steering_weight, solve_steering_weight,
                  verify_certificate)
from .experiments import (BackflowResult, ExperimentConfig,
                          ScramblingReport, backflow_integral,
                          load_unitary_file, run_clifford_scan, run_scan,
                          save_unitary_file, size_sweep)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix", "Propagator", "QubitRegister", "kron",
    "mutual_information", "partial_trace", "partial_transpose",
    "von_neumann_entropy",
    "build_ising", "build_syk", "clifford_scan_unitary",
    "clifford_scrambler_unitary", "haar_random_unitary", "PauliString",
    "ChoiState", "PartitionSpec", "PseudoDensityMatrix", "build_choi",
    "build_pdm", "haar_scrambled_baseline", "tripartite_mutual_information",
    "MeasurementSet", "WitnessRecord",
    "minus_t3", "temporal_assemblage", "total_steerable_weight",
    "first_order_steering_weight", "solve_steering_weight",
    "verify_certificate",
    "BackflowResult", "ExperimentConfig", "ScramblingReport",
    "backflow_integral", "load_unitary_file", "run_clifford_scan",
    "run_scan", "save_unitary_file", "size_sweep",
]
