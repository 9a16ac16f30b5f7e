"""coopnet: controller synthesis and closed-loop simulation for linear
multi-agent networks whose nodes are coupled through dynamic edges.

The toolkit checks the standing assumptions of the passivity + internal
model design, constructs the four distributed controller regimes (output
tracking, output synchronization, output cooperation, mixed master-slave
cooperation), certifies closed-loop stability including the coupling-gain
bound, simulates the assembled loop exactly on any sampling grid by its
matrix exponential, and evaluates the theory's steady-state predictions.
"""

from .analysis import (
    Certificate,
    Exosystem,
    LtiSystem,
    build_exosystem,
    edge_system,
    lemma1_certificate,
    lyapunov_solve,
    marginal_spectrum_certificate,
    node_normal_form,
    node_system,
    spectral_abscissa,
    spr_certificate,
    sylvester_solve,
)
from .closedloop import ClosedLoop, EpsilonStar, assemble, epsilon_star
from .network import Network, StaticNode
from .scenarios import Scenario, demo_power_network, random_network, realize
from .sim import (
    SimResult,
    error_metrics,
    initial_state,
    integrate,
    steady_state_prediction,
    suggest_dt,
)
from .synthesis import (
    ControllerSet,
    InternalModel,
    NodeController,
    NodeGains,
    RegulationMaps,
    build_controllers,
    build_maps,
    p_copy_internal_model,
    passify_node,
    regulator_map,
    verify_A5,
)
from .topology import (
    Topology,
    assemble_weighted_blocks,
    check_connected,
    complement_basis,
    incidence_from_edge_list,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate", "ClosedLoop", "ControllerSet", "EpsilonStar",
    "Exosystem", "InternalModel", "LtiSystem", "Network", "NodeController",
    "NodeGains", "RegulationMaps", "Scenario", "SimResult", "StaticNode",
    "Topology",
    "assemble", "assemble_weighted_blocks", "build_controllers",
    "build_exosystem", "build_maps", "check_connected", "complement_basis",
    "demo_power_network", "edge_system", "epsilon_star", "error_metrics",
    "incidence_from_edge_list", "initial_state", "integrate",
    "lemma1_certificate", "lyapunov_solve", "marginal_spectrum_certificate",
    "node_normal_form", "node_system", "p_copy_internal_model",
    "passify_node", "random_network", "realize", "regulator_map",
    "spectral_abscissa", "spr_certificate", "steady_state_prediction",
    "suggest_dt", "sylvester_solve", "verify_A5",
]
