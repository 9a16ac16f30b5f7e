from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from coopnet.analysis import (
    build_exosystem,
    controllable,
    edge_system,
    node_system,
    spectral_abscissa,
)
from coopnet import synthesis
from coopnet.errors import (
    AllSlaves,
    AssumptionFailed,
    CertificateFailed,
    IdentityViolated,
    InternalModelViolated,
    NotHyperMinPhase,
    ValidationError,
)
from coopnet.network import Network, StaticNode
from coopnet.scenarios import demo_power_network, random_network, realize
from coopnet.synthesis import (
    NODE_ROLES,
    REGIMES,
    build_controllers,
    build_maps,
    hat_matrices,
    internal_model_from_matrices,
    p_copy_internal_model,
    passify_node,
    reference_layer,
    regulator_map,
    verify_A5,
)
from coopnet.topology import assemble_weighted_blocks

W = 100.0 * np.pi
ROT = np.array([[0.0, -W], [W, 0.0]])


def rot_exo():
    return build_exosystem(ROT, Q_eta=[[0.0, 1.0]], Q_v=[[1.0, 0.0]])


# ---------------------------------------------------------------------------
# internal models


def test_p_copy_rotation_companion_form():
    im = p_copy_internal_model(ROT, p=1)
    assert np.allclose(im.G1, [[0.0, 1.0], [-W * W, 0.0]], rtol=1e-12)
    assert np.array_equal(im.G2, [[0.0], [1.0]])
    assert im.minimal_poly_coeffs[0] == pytest.approx(0.0, abs=1e-9)
    assert im.minimal_poly_coeffs[1] == pytest.approx(W * W, rel=1e-12)


def test_p_copy_integrator():
    im = p_copy_internal_model(np.zeros((1, 1)), p=1)
    assert np.array_equal(im.G1, [[0.0]])
    assert np.array_equal(im.G2, [[1.0]])


def test_p_copy_two_copies_block_structure():
    im = p_copy_internal_model(ROT, p=2)
    assert im.G1.shape == (4, 4) and im.G2.shape == (4, 2)
    alpha = im.G1[:2, :2]
    assert np.allclose(im.G1, scipy.linalg.block_diag(alpha, alpha))
    assert np.abs(im.G2[:2, 1]).max() == 0.0
    assert controllable(im.G1, im.G2)


def test_user_internal_model_accepted():
    # non-companion realization used by the demo's first node
    im = internal_model_from_matrices(ROT, [[1.0], [1.0]], ROT)
    assert im.copies == 1 and im.block_dim == 2


def test_user_internal_model_rejects_uncontrollable():
    with pytest.raises(InternalModelViolated):
        internal_model_from_matrices(ROT, [[0.0], [0.0]], ROT)


def test_user_internal_model_rejects_wrong_spectrum():
    other = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(InternalModelViolated):
        internal_model_from_matrices(other, [[0.0], [1.0]], ROT)


# ---------------------------------------------------------------------------
# passification


def test_passify_scalar_integrator_matches_unit_gain():
    exo = rot_exo()
    node = node_system(A=[[0.0]], B=[[1.0]], C=[[1.0]])
    im = p_copy_internal_model(ROT, p=1)
    ctrl = passify_node(node, im, exo)
    assert np.allclose(ctrl.K_x, [[-1.0]])
    assert spectral_abscissa(ctrl.Ahat) < 0
    p = ctrl.Phat.P
    m = p @ ctrl.Ahat + ctrl.Ahat.T @ p
    scale = np.linalg.norm(p, 2) * np.linalg.norm(ctrl.Ahat, 2)
    assert np.linalg.eigvalsh(0.5 * (m + m.T))[-1] <= 1e-9 * scale
    assert np.abs(p @ ctrl.Dhat - ctrl.Chat.T).max() <= 1e-9


def test_passify_already_passive_node_keeps_zero_gain():
    exo = rot_exo()
    node = node_system(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
    im = p_copy_internal_model(ROT, p=1)
    ctrl = passify_node(node, im, exo)
    assert np.array_equal(ctrl.K_x, [[0.0]])


def test_passify_rejects_wrong_sign_output():
    exo = rot_exo()
    node = node_system(A=[[0.0]], B=[[1.0]], C=[[-1.0]])
    im = p_copy_internal_model(ROT, p=1)
    with pytest.raises(NotHyperMinPhase):
        passify_node(node, im, exo)


def random_panel_node(seed):
    """The random single-output node of the passification panels."""
    from coopnet.scenarios import _random_node

    rng = np.random.default_rng(seed)
    return _random_node(rng, n=int(rng.integers(1, 4)), p=1)


def assert_storage_clauses(node, ctrl):
    """The five design clauses of a passified node, re-checked directly."""
    a_k = node.A + node.B @ ctrl.K_x
    # recover P_s, P_g from the stored inverse-form certificate
    p_tilde = np.linalg.inv(ctrl.Phat.P)
    n = node.n
    p_s, p_g = p_tilde[:n, :n], p_tilde[n:, n:]
    assert np.abs(p_tilde[:n, n:]).max() <= 1e-8 * np.abs(p_tilde).max()
    assert np.abs(node.C @ p_s - node.B.T).max() <= \
        1e-8 * max(1.0, np.abs(node.B).max())
    m = a_k @ p_s + p_s @ a_k.T
    assert np.linalg.eigvalsh(0.5 * (m + m.T))[-1] < 0
    assert np.abs(ctrl.K_zeta @ p_g + ctrl.im.G2.T).max() <= 1e-8
    assert spectral_abscissa(ctrl.Ahat) < 0


def test_passify_satisfies_storage_clauses():
    exo = rot_exo()
    im = p_copy_internal_model(ROT, p=1)
    for seed in range(10):
        node = random_panel_node(seed)
        assert_storage_clauses(node, passify_node(node, im, exo, seed=seed))


def family_has_storage(node, kappa):
    """Dense scan of the storage family at ``K_x = -kappa (CB)^{-1} C``.

    In the basis T = [C; W] (W an orthonormal basis of the left null space
    of B) the family is ``P_s = T^{-1} blkdiag(sym(CB), rho P2) T^{-T}`` with
    ``A22 P2 + P2 A22.T = -I``.  Whether some of 2,001 log-spaced rho in
    [1e-9, 1e9] gives ``A_k P_s + P_s A_k.T < 0``, in the node's own
    coordinates.
    """
    a, b, c = node.A, node.B, node.C
    n, p = node.n, node.p
    a_k = a - kappa * b @ np.linalg.solve(c @ b, c)
    t = np.vstack([c, scipy.linalg.null_space(b.T).T])
    ti = np.linalg.inv(t)
    a22 = (t @ a_k @ ti)[p:, p:]
    p2 = scipy.linalg.solve_continuous_lyapunov(a22, -np.eye(n - p))
    rho = np.geomspace(1e-9, 1e9, 2001)[:, None, None]
    base = ti @ scipy.linalg.block_diag(0.5 * (c @ b + (c @ b).T),
                                        np.zeros((n - p, n - p))) @ ti.T
    extra = ti @ scipy.linalg.block_diag(np.zeros((p, p)), p2) @ ti.T
    p_s = base + rho * extra
    m = a_k @ p_s + p_s @ a_k.T
    return bool((np.linalg.eigvalsh(m)[:, -1] < 0).any())


@pytest.mark.parametrize("seed", range(20))
def test_exact_kappa_is_the_first_feasible_lattice_point(seed):
    # at the chosen kappa the certificate holds; at the lattice point
    # before it a dense scan of the storage family finds nothing
    exo = rot_exo()
    im = p_copy_internal_model(ROT, p=1)
    node = random_panel_node(seed)
    ctrl = passify_node(node, im, exo, seed=seed)
    assert_storage_clauses(node, ctrl)
    kappa = float(-(ctrl.K_x @ node.B)[0, 0])
    assert family_has_storage(node, kappa)
    if kappa < 0.5:
        assert kappa == 0.0
        return
    previous = 0.0 if kappa < 1.5 else 0.5 * kappa
    assert not family_has_storage(node, previous)


def test_verify_proves_a_state_loop_infeasible():
    # seed 8 needs kappa = 2; at kappa = 1 its closed node is still
    # Hurwitz, but the state loop has no storage in the family
    exo = rot_exo()
    im = p_copy_internal_model(ROT, p=1)
    node = random_panel_node(8)
    assert node.n > node.p
    ctrl = passify_node(node, im, exo, seed=8)
    assert np.allclose(ctrl.K_x @ node.B, [[-2.0]])
    verify_A5(node, ctrl.K_x, ctrl.K_zeta, ctrl.im)
    k_x = -np.linalg.solve(node.C @ node.B, node.C)
    with pytest.raises(CertificateFailed, match="proven"):
        verify_A5(node, k_x, ctrl.K_zeta, ctrl.im)


# ---------------------------------------------------------------------------
# verifying externally supplied gains


def test_verify_demo_node1_gains():
    node = node_system(A=[[0.0]], B=[[20000.0]], C=[[1.0]])
    im = internal_model_from_matrices(ROT, [[1.0], [1.0]], ROT)
    cert = verify_A5(node, [[-1.0]], [[-500.0, -500.0]], im)
    assert np.allclose(cert.P, np.diag([5e-5, 500.0, 500.0]), rtol=1e-8)


def test_verify_demo_node2_gains():
    node = node_system(A=[[0.0]], B=[[1.0 / 30e-6]], C=[[1.0]])
    im = p_copy_internal_model(ROT, p=1)
    cert = verify_A5(node, [[-2.0]], [[0.0, -500.0]], im)
    assert np.allclose(cert.P, np.diag([3e-5, 500.0 * W * W, 500.0]),
                       rtol=1e-8)


def test_verify_accepts_explicit_certificate():
    node = node_system(A=[[0.0]], B=[[20000.0]], C=[[1.0]])
    im = internal_model_from_matrices(ROT, [[1.0], [1.0]], ROT)
    cert = verify_A5(node, [[-1.0]], [[-500.0, -500.0]], im,
                     phat=np.diag([5e-5, 500.0, 500.0]))
    assert cert.kind == "passivity"


# ---------------------------------------------------------------------------
# regulator maps


def test_regulator_map_scalar():
    pi = regulator_map([[-1.0]], [[0.7]], [[1.0]], [[0.0]], [[0.7]])
    assert np.allclose(pi, [[0.7]])


def test_regulator_map_demo_node1_regression():
    scn = demo_power_network()
    node = scn.nodes[0]
    im = internal_model_from_matrices(scn.gains[1].G1, scn.gains[1].G2, ROT)
    ahat, dhat, dhat_ref, chat = hat_matrices(
        node, scn.gains[1].K_x, scn.gains[1].K_zeta, im, [[0.0, 1.0]])
    pi = regulator_map(ahat, dhat_ref, chat, ROT, [[0.0, 1.0]])
    expect = np.array([
        [5.7993862580521672e-17, 1.0000000000000002e+00],
        [-1.0157079632679496e-03, -9.8429203673205089e-04],
        [9.8429203673205175e-04, -1.0157079632679496e-03]])
    assert np.abs(pi - expect).max() <= 1e-9
    assert np.abs(chat @ pi - [[0.0, 1.0]]).max() <= 1e-8


def test_regulator_map_holds_zero_target_column_to_absolute_tolerance():
    # Pi = Dhat_eta here: a 5e-8 miss beside a 1e9 target still fails
    args = [[-1.0]], [[1e9, 5e-8]], [[1.0]], np.zeros((2, 2))
    assert np.abs(regulator_map(*args, [[1e9, 5e-8]]) -
                  [[1e9, 5e-8]]).max() == 0.0
    with pytest.raises(InternalModelViolated, match="column 2"):
        regulator_map(*args, [[1e9, 0.0]])


def test_failed_map_identity_names_the_map(monkeypatch):
    scn = random_network(seed=3, regime="cooperation")
    net, exo = scn.network(), scn.exosystem()
    cset = build_controllers(net, exo, "cooperation", eps=0.5)
    solve = synthesis.sylvester_solve

    def miss_on(pick):
        monkeypatch.setattr(synthesis, "sylvester_solve", lambda a, s, r: (
            solve(a, s, r) + (1e-3 if pick(a) else 0.0)))

    miss_on(lambda a: a is cset.controllers[1].Ahat)
    with pytest.raises(InternalModelViolated, match="node 2 reference map"):
        build_maps(net, cset)
    # a network-map failure is no internal-model fault
    miss_on(lambda a: not any(a is c.Ahat for c in cset.controllers))
    with pytest.raises(IdentityViolated, match="network map"):
        build_maps(net, cset)


def test_regulator_identity_on_random_passified_nodes():
    exo = rot_exo()
    im = p_copy_internal_model(ROT, p=1)
    for seed in range(20):
        node = random_panel_node(seed)
        ctrl = passify_node(node, im, exo, seed=seed)
        pi = regulator_map(ctrl.Ahat, ctrl.Dhat_ref, ctrl.Chat, exo.S,
                           exo.Q_eta)
        assert np.abs(ctrl.Chat @ pi - exo.Q_eta).max() <= 1e-8


#: one network per regime: keyword arguments of random_network, and eps
MAP_CASES = {
    "tracking": (dict(seed=3), 0.5),
    "sync": (dict(seed=3), 0.5),
    "cooperation": (dict(seed=3), 0.5),
    "master_slave": (dict(seed=9, n_nodes=3, m_edges=3, n_slaves=2), 0.4),
}


@pytest.mark.parametrize("regime", REGIMES)
def test_regulation_maps_identities(regime):
    kwargs, eps = MAP_CASES[regime]
    scn = random_network(regime=regime, eps=eps, **kwargs)
    net, exo = scn.network(), scn.exosystem()
    cset = build_controllers(net, exo, regime, roles=scn.roles, eps=eps)
    maps = build_maps(net, cset)
    layer = reference_layer(net, cset)
    assert maps.regime == regime
    for i, (ctrl, role) in enumerate(zip(cset.controllers, cset.node_roles)):
        pi = maps.reference[i + 1]
        s, q_ref = (exo.S, exo.Q_eta) \
            if NODE_ROLES[role].generator == "exo_state" \
            else (layer.S, layer.Q)
        assert np.abs(ctrl.Chat @ pi - q_ref).max() <= 1e-8
        # the reference map solves the plain regulator equation
        pi_ref = regulator_map(ctrl.Ahat, ctrl.Dhat_ref, ctrl.Chat, s, q_ref)
        assert np.abs(pi - pi_ref).max() <= 1e-9 * max(1.0, np.abs(pi).max())
    if layer.command is None:
        assert maps.network is None and not maps.inputs \
            and not maps.disturbance
        return
    for i, ctrl in enumerate(cset.controllers):
        assert np.abs(ctrl.Chat @ maps.disturbance[i + 1]).max() <= 1e-8
    # steady neighbouring inputs: each slave's is its own command through
    # Q_v, and no master reference reaches it
    p, q = net.p, exo.q
    nz = sum(e.n for e in net.edges)
    v = -assemble_weighted_blocks(net.topology.H, [np.eye(p)] * net.n_nodes,
                                  [e.C for e in net.edges]) @ \
        maps.network[:nz]
    for rank, i in enumerate(cset.slaves):
        want = np.zeros((p, v.shape[1]))
        want[:, rank * q:(rank + 1) * q] = exo.Q_v
        assert np.abs(v[i * p:(i + 1) * p] - want).max() <= 1e-8
    for i, role in enumerate(cset.node_roles):
        if NODE_ROLES[role].regulates == "input":
            assert np.array_equal(maps.inputs[i + 1], exo.Q_v)
        else:
            assert np.array_equal(maps.inputs[i + 1], v[i * p:(i + 1) * p])
    # with a zero command output map no node is disturbed
    zero = replace(cset, exo=replace(exo, Q_v=np.zeros_like(exo.Q_v)))
    maps0 = build_maps(net, zero)
    for pi in maps0.disturbance.values():
        assert np.abs(pi).max() <= 1e-12


# ---------------------------------------------------------------------------
# controller sets


def test_tracking_loop_has_no_coupling_gain_path():
    from coopnet.closedloop import _error_pencil, assemble

    scn = random_network(seed=2, regime="tracking")
    net = scn.network()
    cset = build_controllers(net, scn.exosystem(), "tracking")
    maps = build_maps(net, cset)
    layer = reference_layer(net, cset)
    assert layer.nodes == () and layer.rows.shape[0] == 0
    assert not _error_pencil(net, cset, maps).A1.any()
    low, high = (assemble("tracking", net, cset, maps, eps=e).A_error
                 for e in (0.1, 7.0))
    assert np.array_equal(low, high)


def test_sync_equals_cooperation_at_zero_commands_single_output():
    from coopnet.closedloop import assemble

    scn = random_network(seed=12, regime="sync", eps=0.3)
    net, exo = scn.network(), scn.exosystem()
    cs_sync = build_controllers(net, exo, "sync", eps=0.3)
    cs_coop = build_controllers(net, exo, "cooperation", eps=0.3)
    maps_sync = build_maps(net, cs_sync)
    maps_coop = build_maps(net, cs_coop)
    cl_sync = assemble("sync", net, cs_sync, maps_sync)
    cl_coop = assemble("cooperation", net, cs_coop, maps_coop)
    # with p = 1 the cooperation generator reduces to the sync one; the
    # cooperation state adds the command blocks, which the sync loop lacks
    n_sync = cl_sync.A_full.shape[0]
    assert np.abs(cl_coop.A_full[:n_sync, :n_sync] -
                  cl_sync.A_full).max() <= 1e-14
    assert np.abs(cl_coop.A_error - cl_sync.A_error).max() <= 1e-14


def test_demo_roles_configuration():
    scn = demo_power_network()
    cset = build_controllers(scn.network(), scn.exosystem(), "master_slave",
                             roles=scn.roles, eps=scn.eps, gains=scn.gains)
    assert cset.slaves == (0, 1) and cset.masters == (2,)
    assert cset.controllers[2] is None  # static ground node


def test_role_of_an_unknown_node_rejected():
    scn = demo_power_network()
    with pytest.raises(ValidationError) as exc:
        realize(replace(scn, roles={**scn.roles, 9: "slave"}))
    assert exc.value.field == "roles[9]"
    assert exc.value.message == "unknown node"


def test_all_slaves_rejected():
    scn = random_network(seed=4, n_nodes=3, m_edges=2, regime="tracking")
    with pytest.raises(AllSlaves):
        build_controllers(scn.network(), scn.exosystem(), "master_slave",
                          roles={1: "slave", 2: "slave", 3: "slave"})


def test_assumption_failure_names_unstable_edge():
    scn = random_network(seed=2, regime="tracking")
    bad_edges = (edge_system(E=[[1.0]], F=[[1.0]], G=[[1.0]]),) + \
        scn.edges[1:]
    net = Network(nodes=scn.nodes, edges=bad_edges,
                  topology=scn.topology())
    with pytest.raises(AssumptionFailed) as exc:
        build_controllers(net, scn.exosystem(), "tracking")
    failures = exc.value.failures
    assert any(f.name == "A3" and "edge 1" in f.entity for f in failures)


def test_static_node_requires_master_role():
    scn = demo_power_network()
    with pytest.raises(ValidationError):
        build_controllers(scn.network(), scn.exosystem(), "master_slave",
                          roles={1: "slave", 2: "master", 3: "slave"},
                          gains=scn.gains)


def test_p_copy_satisfies_divisibility_for_random_spectra():
    from coopnet.scenarios import _random_marginal_exosystem
    from coopnet.synthesis import validate_internal_model

    for seed in range(10):
        rng = np.random.default_rng(seed)
        s, _, _ = _random_marginal_exosystem(rng, q=int(rng.integers(1, 5)),
                                             p=1)
        for p in (1, 2):
            im = p_copy_internal_model(s, p)
            validate_internal_model(im, s)  # PBH + polynomial division
            assert im.G1.shape == (p * s.shape[0], p * s.shape[0])
