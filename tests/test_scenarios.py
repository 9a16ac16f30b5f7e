import numpy as np
import pytest

from coopnet.analysis import node_normal_form, spr_certificate
from coopnet.errors import InfeasibleDims
from coopnet.network import is_static
from coopnet.scenarios import (
    demo_power_network,
    random_network,
    realize,
)
from coopnet.synthesis import assumption_report

from helpers import tracking_ground_demo, with_zero_sum

W = 100.0 * np.pi


def test_demo_incidence_matches_network_diagram():
    scn = demo_power_network()
    assert np.array_equal(scn.topology().H,
                          [[1, 1, 0], [-1, 0, 1], [0, -1, -1]])


def test_demo_edge_certificates_are_the_inductances():
    scn = demo_power_network()
    for edge, l in zip(scn.edges, (0.01e-3, 1e-3, 5e-3)):
        cert = spr_certificate(edge)
        assert np.allclose(cert.P, [[l]], rtol=1e-10)


def test_demo_passes_all_assumptions_with_roles():
    scn = demo_power_network()
    results, cset = assumption_report(
        scn.network(), scn.exosystem(), scn.regime, roles=scn.roles,
        eps=scn.eps, gains=scn.gains)
    assert all(r.passed for r in results)
    assert cset is not None
    assert cset.masters == (2,) and cset.slaves == (0, 1)


def test_demo_parameters():
    scn = demo_power_network()
    assert scn.eps == 20.0
    assert np.allclose(scn.S, [[0.0, -W], [W, 0.0]])
    assert np.allclose(scn.nu0[1], [5.0, -5.0 * np.sqrt(3.0)])
    assert np.allclose(scn.nu0[2], [10.0, 0.0])
    assert is_static(scn.nodes[2])
    assert scn.dt == 1e-6 and scn.t_end == 1.0


def test_demo_tracking_ground_mode_is_dynamic():
    scn = tracking_ground_demo()
    assert not is_static(scn.nodes[2])
    rz = realize(scn)
    from coopnet.analysis import spectral_abscissa

    assert spectral_abscissa(rz.cl.A_error) < 0


def test_random_network_deterministic_per_seed():
    a = random_network(seed=33, regime="cooperation")
    b = random_network(seed=33, regime="cooperation")
    assert np.array_equal(a.S, b.S)
    for na, nb in zip(a.nodes, b.nodes):
        assert np.array_equal(na.A, nb.A)
        assert np.array_equal(na.B, nb.B)
    for ea, eb in zip(a.edges, b.edges):
        assert np.array_equal(ea.A, eb.A)
    assert a.edge_ends == b.edge_ends
    for i in a.nu0:
        assert np.array_equal(a.nu0[i], b.nu0[i])


def test_random_network_rejects_bad_dims():
    with pytest.raises(InfeasibleDims):
        random_network(seed=0, n_nodes=1)
    with pytest.raises(InfeasibleDims):
        random_network(seed=0, n_nodes=4, m_edges=2)
    with pytest.raises(InfeasibleDims):
        random_network(seed=0, dims=1, p=2)


def test_generated_scenarios_pass_all_checks_for_100_seeds():
    for seed in range(100):
        scn = random_network(seed=seed, n_nodes=3, m_edges=3, dims=2)
        assert scn.topology().connected
        for node in scn.nodes:
            node_normal_form(node.A, node.B, node.C)
            assert node.rank_conditions_ok()
        for edge in scn.edges:
            cert = spr_certificate(edge)
            assert cert.slack > 1e-8
            assert np.abs(cert.P @ edge.B - edge.C.T).max() <= 1e-10


@pytest.mark.parametrize("seed", [22, 23, 25])
def test_five_dimensional_exosystem_realizes(seed):
    """A q = 5 spectrum's minimal polynomial has exact zero coefficients,
    so the companion internal model's storage certificate holds."""
    rz = realize(random_network(seed, q_exo=5))
    assert all(c.im.minimal_poly_coeffs[0::2] == (0.0, 0.0, 0.0)
               for c in rz.cset.controllers)


def test_zero_sum_helper():
    scn = with_zero_sum(random_network(seed=8, regime="cooperation"))
    total = sum(np.asarray(v) for v in scn.nu0.values())
    assert np.abs(total).max() <= 1e-12
