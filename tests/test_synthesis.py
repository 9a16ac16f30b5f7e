from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from coopnet import analysis
from coopnet.analysis import (
    build_exosystem,
    controllable,
    edge_system,
    marginal_kernel_certificate,
    node_system,
    spectral_abscissa,
    spr_certificate,
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
    check_assumptions,
    hat_matrices,
    internal_model_from_matrices,
    p_copy_internal_model,
    passify_node,
    reference_layer,
    regulator_map,
    verify_A5,
)
from coopnet.topology import assemble_weighted_blocks

from helpers import frequency_spr, relative_degree_one_node, ring30

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
    assert im.copies == 1 and len(im.minimal_poly_coeffs) == 2


def test_user_internal_model_rejects_uncontrollable():
    with pytest.raises(InternalModelViolated):
        internal_model_from_matrices(ROT, [[0.0], [0.0]], ROT)


def test_user_internal_model_rejects_wrong_spectrum():
    other = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(InternalModelViolated):
        internal_model_from_matrices(other, [[0.0], [1.0]], ROT)


def test_user_internal_model_rejects_a_missing_copy():
    """G1 = companion(S) (+) rot(5) holds S's spectrum once: with two
    inputs (p = 2) and (G1, G2) controllable, the second copy is missing."""
    alpha = p_copy_internal_model(ROT, p=1).G1
    g1 = scipy.linalg.block_diag(alpha, [[0.0, -5.0], [5.0, 0.0]])
    g2 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    assert controllable(g1, g2)
    with pytest.raises(InternalModelViolated,
                       match="holds 1 of 2 copies .* copy 2 is missing"):
        internal_model_from_matrices(g1, g2, ROT)


def test_minimal_polynomial_zero_coefficients_are_exact():
    """A spectrum symmetric about the real axis and on the imaginary axis
    makes every coefficient a_1, a_3, ... exactly 0; the others match
    numpy's characteristic polynomial."""
    from coopnet.scenarios import _random_marginal_exosystem

    for seed in range(60):
        rng = np.random.default_rng(seed)
        s = _random_marginal_exosystem(rng, q=1 + seed % 6, p=1)[0]
        coeffs = synthesis.minimal_polynomial_coeffs(s)
        assert len(coeffs) == s.shape[0]
        assert all(c == 0.0 for c in coeffs[0::2])
        ref = np.poly(np.linalg.eigvals(s)).real[1:]
        assert np.abs(np.array(coeffs) - ref).max() <= \
            1e-9 * np.abs(ref).max(initial=1.0)


def test_gain_storage_names_a_non_marginal_g1():
    """A supplied G1 with a stable extra mode passes the copy condition
    but has no marginal storage: the failure is a certificate failure."""
    alpha = p_copy_internal_model(ROT, p=1).G1
    g1 = scipy.linalg.block_diag(alpha, [[-1.0]])
    im = internal_model_from_matrices(g1, [[0.0], [1.0], [1.0]], ROT)
    node = node_system(A=[[0.0]], B=[[1.0]], C=[[1.0]])
    with pytest.raises(CertificateFailed, match="G1 has no marginal storage"):
        synthesis._gain_storage(node, [[-1.0]], [[0.0, -1.0, -1.0]], im)


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


@pytest.mark.parametrize("seed", [1030, 1470, 1775])
def test_passify_node_with_stable_zero_behind_spurious_pencil_zeros(seed):
    """Nodes with one stable zero (-28.2, -11.2, -4.0) that a QZ of the
    system pencil reported beside spurious zeros near 1e8 passify."""
    a, b, c = relative_degree_one_node(seed)
    exo = build_exosystem([[0.0, -1.0], [1.0, 0.0]],
                          Q_eta=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    im = p_copy_internal_model(exo.S, p=3)
    ctrl = passify_node(node_system(A=a, B=b, C=c), im, exo)
    assert spectral_abscissa(ctrl.Ahat) < 0
    assert ctrl.Phat.slack >= -ctrl.Phat.bound


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
        assert_storage_clauses(node, passify_node(node, im, exo))


def loop_is_spr(node, kappa):
    """The frequency-domain oracle on the state loop at ``K_x = -kappa
    (C B)^{-1} C``: C B + (C B).T > 0, and :func:`helpers.frequency_spr`
    (A_k Hurwitz, G(jw) + G(jw)^H > 0 on a dense log grid and at w = 0,
    and its limit w^2 (G + G^H) > 0 at infinity).  By the KYP lemma this
    is strict positive realness; it forms no storage."""
    a, b, c = node.A, node.B, node.C
    cb = c @ b
    k_x = -kappa * np.linalg.solve(cb, c)
    return bool(np.linalg.eigvalsh(cb + cb.T)[0] > 0) and \
        frequency_spr(edge_system(a + b @ k_x, b, c))


@pytest.mark.parametrize("seed", range(20))
def test_exact_kappa_is_the_first_feasible_lattice_point(seed):
    # at the chosen kappa the state loop is strictly positive real by the
    # frequency-domain oracle; at the lattice point before it, it is not
    exo = rot_exo()
    im = p_copy_internal_model(ROT, p=1)
    node = random_panel_node(seed)
    ctrl = passify_node(node, im, exo)
    assert_storage_clauses(node, ctrl)
    kappa = float(-(ctrl.K_x @ node.B)[0, 0])
    assert loop_is_spr(node, kappa)
    if kappa < 0.5:
        assert kappa == 0.0
        return
    previous = 0.0 if kappa < 1.5 else 0.5 * kappa
    assert not loop_is_spr(node, previous)


def test_verify_proves_a_state_loop_infeasible():
    """G(s) = (s + 1) / (s^2 + 0.1 s + 1) is Hurwitz with C B = 1 and its
    zero at -1, but Re G(jw) < 0 for w^2 > 1 / 0.9: with K_x = 0 the state
    loop is not strictly positive real.  The exosystem's frequency 0.5 lies
    where Re G > 0, so at the certificate scale rho = 100 the closed node is
    Hurwitz, and verify_A5 reaches the state loop, whose exact test fails.
    The gains passify_node designs for the same node verify."""
    s = [[0.0, -0.5], [0.5, 0.0]]
    im = p_copy_internal_model(s, p=1)
    node = node_system(A=[[0.0, 1.0], [-1.0, -0.1]], B=[[0.0], [1.0]],
                       C=[[1.0, 1.0]])
    k_x = np.zeros((1, 2))
    assert not loop_is_spr(node, 0.0)
    k_zeta = im.scaled_gains[1][
        list(synthesis.CERTIFICATE_SCALES).index(100.0)]
    assert spectral_abscissa(hat_matrices(node, k_x, k_zeta, im)[0]) < 0
    with pytest.raises(CertificateFailed,
                       match=r"state loop \(A \+ B K_x, B, C\) is not "
                             r"strictly positive real: no SPR certificate"):
        verify_A5(node, k_x, k_zeta, im)
    ctrl = passify_node(node, im, build_exosystem(s, Q_eta=[[1.0, 0.0]]))
    assert loop_is_spr(node, float(-(ctrl.K_x @ node.B)[0, 0]))
    verify_A5(node, ctrl.K_x, ctrl.K_zeta, ctrl.im)


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


@pytest.mark.parametrize("scale", [1e3, 1e5])
def test_verify_rejects_the_perturbed_demo_storage(scale):
    """The demo's node 2 with P + s v v.T, v in null(Dhat.T): P Dhat =
    Chat.T still holds, but P Ahat + Ahat.T P is no longer <= 0
    (lambda_max 6.4e-3 at s = 1e3).  In P's own coordinates the bound is
    PASSIVITY_TOL ||L.T Ahat L^{-T}|| = 6.7e-5 (P = L L.T), far below the
    norm product PASSIVITY_TOL ||P|| ||Ahat|| = 8.2e5."""
    node = node_system(A=[[0.0]], B=[[1.0 / 30e-6]], C=[[1.0]])
    im = p_copy_internal_model(ROT, p=1)
    gains = [[-2.0]], [[0.0, -500.0]]
    cert = verify_A5(node, *gains, im)
    assert cert.bound == pytest.approx(6.69e-5, rel=1e-2)
    dhat = hat_matrices(node, *gains, im)[1]
    for v in scipy.linalg.null_space(dhat.T).T:
        perturbed = cert.P + scale * np.outer(v, v)
        assert np.abs(perturbed @ dhat - cert.P @ dhat).max() == 0.0
        with pytest.raises(CertificateFailed, match="inequality fails"):
            verify_A5(node, *gains, im, phat=perturbed)
    assert verify_A5(node, *gains, im, phat=cert.P).slack == cert.slack


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
        ctrl = passify_node(node, im, exo)
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


def test_rank_deficient_edge_fails_a1_and_a3_naming_g_f():
    """F = 0 fails A1's rank condition, and A3 names the cause the SPR test
    sees: G F is not positive definite (which implies both ranks)."""
    scn = random_network(seed=2, regime="tracking")
    net = Network(nodes=scn.nodes,
                  edges=(edge_system(E=[[-1.0]], F=[[0.0]], G=[[1.0]]),) +
                  scn.edges[1:], topology=scn.topology())
    results, edge_certs, _ = check_assumptions(net, scn.exosystem())
    edge1 = {r.name: r for r in results if r.entity == "edge 1"}
    assert not edge1["A1"].passed and not edge1["A3"].passed
    assert edge1["A3"].detail.startswith("G F is not positive definite")
    assert edge_certs[0] is None and all(edge_certs[1:])


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


def test_p_copy_satisfies_the_copy_condition_for_random_spectra():
    from coopnet.scenarios import _random_marginal_exosystem
    from coopnet.synthesis import validate_internal_model

    for seed in range(30):
        rng = np.random.default_rng(seed)
        s, _, _ = _random_marginal_exosystem(rng, q=1 + seed % 6, p=1)
        for p in (1, 2, 3):
            im = p_copy_internal_model(s, p)
            validate_internal_model(im, s)  # PBH + rank(lam I - G1) <= c - p
            assert im.G1.shape == (p * s.shape[0], p * s.shape[0])
            marginal_kernel_certificate(im.G1)


def test_unobservable_sync_exosystem_warns_once():
    """(S, Q_eta) unobservable: build_exosystem warns, and the sync
    assumption report does not repeat the warning."""
    s = scipy.linalg.block_diag([[0.0, -1.0], [1.0, 0.0]],
                                [[0.0, -2.0], [2.0, 0.0]])
    q = np.array([[1.0, 0.0, 0.0, 0.0]])
    scn = replace(random_network(100, regime="sync", q_exo=4), S=s,
                  Q_eta=q, Q_v=q)
    with pytest.warns(UserWarning, match="not observable") as record:
        synthesis.assumption_report(scn.network(), scn.exosystem(), "sync")
    assert len(record) == 1


#: the passification panel: (random_network seed, size keywords)
PASSIFY_PANEL = [(seed, kw) for seed in range(3) for kw in (
    {}, dict(n_nodes=5, m_edges=6, dims=3),
    dict(n_nodes=4, m_edges=5, dims=3, p=2, q_exo=4))]


@pytest.mark.parametrize("regime", REGIMES)
def test_closed_node_hurwitz_at_every_certificate_scale(regime):
    """With P_s^{-1} B = C.T and G1's marginal-kernel storage, the closed
    node is Hurwitz at every scale passify_node tries, so the scale search
    cannot come back empty."""
    for seed, kw in PASSIFY_PANEL:
        scn = random_network(seed, regime=regime, **kw)
        im = p_copy_internal_model(scn.S, scn.Q_eta.shape[0])
        p_g = marginal_kernel_certificate(im.G1)
        for node in scn.nodes:
            k_x = synthesis._passifying_gains(node, im)[0]
            for rho in synthesis.CERTIFICATE_SCALES:
                k_zeta = -np.linalg.solve(rho * p_g, im.G2).T
                ahat = hat_matrices(node, k_x, k_zeta, im)[0]
                assert spectral_abscissa(ahat) < 0, (seed, kw, rho)


@pytest.mark.parametrize("seed", range(4))
def test_verify_recovers_the_two_copy_storage(seed):
    """verify_A5 without a certificate recovers the P_g passify_node
    built, for a two-copy internal model (p = 2); a P_g = M (x) P_0 that
    mixes the copies (M > 0 not diagonal) from the K_zeta it gives; and
    T P_g T.T for the model in coordinates zeta' = T zeta, where the
    repeated eigenvalues of G1 are no longer bit-equal."""
    scn = random_network(seed, n_nodes=4, m_edges=5, dims=3, p=2, q_exo=4)
    exo = scn.exosystem()
    im = p_copy_internal_model(scn.S, 2)
    mixed = np.kron([[2.0, 1.0], [1.0, 1.0]],
                    marginal_kernel_certificate(im.G1[:4, :4]))
    t = np.eye(8) + 0.3 * np.random.default_rng(seed).standard_normal((8, 8))
    im_t = internal_model_from_matrices(t @ im.G1 @ np.linalg.inv(t),
                                        t @ im.G2, scn.S)
    for node in scn.nodes:
        ctrl = passify_node(node, im, exo)
        n = node.n
        p_g = np.linalg.inv(ctrl.Phat.P)[n:, n:]
        for model, k_zeta, want in (
                (im, ctrl.K_zeta, p_g),
                (im, -np.linalg.solve(mixed, im.G2).T, mixed),
                (im_t, ctrl.K_zeta @ np.linalg.inv(t), t @ p_g @ t.T)):
            cert = verify_A5(node, ctrl.K_x, k_zeta, model)
            got = np.linalg.inv(cert.P)[n:, n:]
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_ring30_certifies_its_edges_in_one_stacked_bisection(monkeypatch):
    """The ring's 30 edges share one shape, so check_assumptions runs the
    Riccati test once at the margin, once per bisection step and once at
    the centre, each time on every edge still bisecting: as often as the
    slowest edge alone needs, not once per edge and step (510 times)."""
    stacks = []
    test = analysis._spr_riccati_test

    def spy(k, et, delta):
        stacks.append(len(k))
        return test(k, et, delta)

    monkeypatch.setattr(analysis, "_spr_riccati_test", spy)
    scn = ring30()
    network = scn.network()
    alone = []
    for edge in network.edges:
        stacks.clear()
        spr_certificate(edge)
        alone.append(len(stacks))
    stacks.clear()
    _, certs, _ = check_assumptions(network, scn.exosystem())
    assert all(cert is not None for cert in certs)
    assert sum(alone) == 510
    assert len(stacks) == max(alone)
    assert stacks[0] == stacks[-1] == 30


def test_ring30_builds_the_certificate_scale_table_once(monkeypatch):
    """The 30 passified nodes share one internal model, whose P_g and
    K_zeta per certificate scale are computed once, as the scale-by-scale
    formula gives them."""
    built = []

    def spy(g1):
        built.append(g1)
        return marginal_kernel_certificate(g1)

    monkeypatch.setattr(synthesis, "marginal_kernel_certificate", spy)
    scn = ring30()
    cset = build_controllers(scn.network(), scn.exosystem(), scn.regime,
                             roles=scn.roles, eps=scn.eps, gains=scn.gains)
    ctrls = [c for c in cset.controllers if c is not None]
    assert len(ctrls) == 30 and len(built) == 1
    im = ctrls[0].im
    assert all(c.im is im for c in ctrls)
    p_g, k_zetas = im.scaled_gains
    for rho, k_zeta in zip(synthesis.CERTIFICATE_SCALES, k_zetas):
        want = -np.linalg.solve((rho * p_g).T, im.G2).T
        assert np.array_equal(k_zeta, want)
    assert len(built) == 1


def test_ring30_certifies_loops_and_edges_in_one_call(monkeypatch):
    """build_controllers on ring30 certifies its 30 edges and the state
    loops of its 30 synthesized nodes in one spr_certificates call, and
    decides every node's kappa in one Riccati test of the 30 nodes at the
    26 lattice points."""
    certified, lattice = [], []
    certify, test = synthesis.spr_certificates, synthesis._spr_riccati_test

    def certify_spy(systems, *args):
        certified.append(len(systems))
        return certify(systems, *args)

    def test_spy(k, et, delta):
        lattice.append(len(k))
        return test(k, et, delta)

    monkeypatch.setattr(synthesis, "spr_certificates", certify_spy)
    monkeypatch.setattr(synthesis, "_spr_riccati_test", test_spy)
    scn = ring30()
    cset = build_controllers(scn.network(), scn.exosystem(), scn.regime,
                             roles=scn.roles, eps=scn.eps, gains=scn.gains)
    assert sum(c is not None for c in cset.controllers) == 30
    assert len(synthesis.KAPPAS) == 26
    assert certified == [60]
    assert lattice == [30 * 26]


# ---------------------------------------------------------------------------
# coordinate changes of the nodes


def _moved_node(node, t):
    """The node in the state coordinates x' = T x: the same transfer
    function."""
    ti = np.linalg.inv(t)
    return node_system(t @ node.A @ ti, t @ node.B, node.C @ ti,
                       t @ node.D_in)


def _similarity(kind, rng, n):
    """A change of units diag(2^k), |k| <= 20, an orthogonal T, or a
    general T with condition number 1e2."""
    if kind == "units":
        return np.diag(2.0 ** rng.integers(-20, 21, n))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    if kind == "orthogonal":
        return q
    return q @ np.diag(np.geomspace(1.0, 1e2, n)[rng.permutation(n)]) @ \
        np.linalg.qr(rng.standard_normal((n, n)))[0]


def _outcome(scn, with_eps=True):
    """A1-A5 verdicts, the controller set and eps_bisect (or None)."""
    from coopnet.closedloop import epsilon_star

    net, exo = scn.network(), scn.exosystem()
    results, cset = synthesis.assumption_report(net, exo, scn.regime,
                                                roles=scn.roles, eps=scn.eps)
    eps = epsilon_star(net, cset, build_maps(net, cset), eps_hi=10.0) \
        .eps_bisect if with_eps and cset is not None else None
    return [(r.name, r.entity, r.passed) for r in results], cset, eps


@pytest.mark.parametrize("seed", range(40))
def test_node_coordinates_change_no_verdict_or_gain(seed):
    """Every node of a panel network moved to new state coordinates gives
    the same A1-A5 verdicts.  A change of units by powers of two is exact
    in floating point, and the balanced SPR tests see the same system:
    K_zeta is bit for bit the same and K_x moves to K_x T^{-1} exactly.
    An orthogonal T keeps every kappa to rounding.  eps_bisect agrees
    within the eps search's bracket width."""
    from coopnet.closedloop import BRACKET_REL_WIDTH

    scn = random_network(seed + 100 * (seed % 4), n_nodes=4, m_edges=5,
                         dims=3, regime=REGIMES[seed % 4])
    verdicts, cset, eps = _outcome(scn)
    assert cset is not None
    kappas = [-(c.K_x @ n.B)[0, 0] for c, n in zip(cset.controllers,
                                                   scn.nodes)]
    for kind in ("units", "orthogonal", "general"):
        rng = np.random.default_rng(seed)
        ts = [_similarity(kind, rng, node.n) for node in scn.nodes]
        moved = replace(scn, nodes=tuple(
            _moved_node(node, t) for node, t in zip(scn.nodes, ts)))
        got_verdicts, got, got_eps = _outcome(moved, kind != "general")
        assert got_verdicts == verdicts, kind
        if kind == "general":
            continue
        assert abs(got_eps - eps) <= BRACKET_REL_WIDTH * eps, kind
        if kind == "units":
            for c, c_moved, t in zip(cset.controllers, got.controllers, ts):
                assert np.array_equal(c_moved.K_zeta, c.K_zeta)
                assert np.array_equal(c_moved.K_x @ t, c.K_x)
        assert np.allclose([-(c.K_x @ n.B)[0, 0] for c, n in zip(
            got.controllers, moved.nodes)], kappas, rtol=1e-12, atol=0.0)
