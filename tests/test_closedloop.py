from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from coopnet.analysis import (
    build_exosystem,
    edge_system,
    lemma1_certificate,
    node_system,
    spectral_abscissa,
)
from coopnet import closedloop
from coopnet.closedloop import assemble, epsilon_star
from coopnet.errors import MissingMaps, NoStableEps
from coopnet.network import Network
from coopnet.scenarios import demo_power_network, random_network, realize
from coopnet.synthesis import build_controllers, build_maps, reference_layer
from coopnet.topology import Topology

from helpers import flip_first_edge, relabel_cyclically, ring30


def two_node_toy(eps=0.2):
    """Two integrator nodes over a single stable scalar edge, constant
    references (q = 1 internal models)."""
    exo = build_exosystem(np.zeros((1, 1)), Q_eta=[[1.0]], Q_v=[[1.0]])
    nodes = (node_system(A=[[0.0]], B=[[1.0]], C=[[1.0]]),
             node_system(A=[[0.0]], B=[[2.0]], C=[[1.0]]))
    edges = (edge_system(E=[[-1.0]], F=[[0.5]], G=[[2.0]]),)
    topo = Topology.from_edge_list([(1, 2)], 2)
    net = Network(nodes=nodes, edges=edges, topology=topo)
    return net, exo, eps


def test_tracking_assembly_matches_hand_construction():
    net, exo, _ = two_node_toy()
    cset = build_controllers(net, exo, "tracking")
    maps = build_maps(net, cset)
    cl = assemble("tracking", net, cset, maps)
    c1, c2 = cset.controllers
    h = net.topology.H
    g = net.edges[0].C
    f = net.edges[0].B
    hand = np.block([
        [c1.Ahat, np.zeros((2, 2)), -h[0, 0] * (c1.Dhat @ g)],
        [np.zeros((2, 2)), c2.Ahat, -h[1, 0] * (c2.Dhat @ g)],
        [h[0, 0] * (f @ c1.Chat), h[1, 0] * (f @ c2.Chat),
         net.edges[0].A]])
    assert np.abs(cl.A_error - hand).max() <= 1e-14
    assert spectral_abscissa(cl.A_error) < 0


def _blockwise_full_loop(rz):
    """A_full and v_map written block by block from the node, edge,
    reference-generator and exosystem equations."""
    net, cset, cl = rz.network, rz.cset, rz.cl
    layer = reference_layer(net, cset)
    h, exo, p = net.topology.H, cset.exo, net.p
    sl = {(e.kind, e.entity): slice(e.offset, e.offset + e.length)
          for e in cl.index_map}
    a = np.zeros_like(cl.A_full)
    v = np.zeros_like(cl.v_map)

    def x(i):
        return slice(sl["node_state", i + 1].start,
                     sl["controller_state", i + 1].stop)

    for i, ctrl in enumerate(cset.controllers):
        if ctrl is not None:
            a[x(i), x(i)] = ctrl.Ahat
            ref = "exo_state" if ctrl.regime in ("tracking", "master") \
                else "reference_state"
            a[x(i), sl[ref, i + 1]] = ctrl.Dhat_ref
    for j, edge in enumerate(net.edges):
        z = sl["edge_state", j + 1]
        a[z, z] = edge.A
        for i, ctrl in enumerate(cset.controllers):
            if h[i, j] == 0.0:
                continue
            v[i * p:(i + 1) * p, z] = -h[i, j] * edge.C
            if ctrl is None:
                a[z, sl["exo_state", i + 1]] = h[i, j] * edge.B @ exo.Q_eta
            else:
                a[z, x(i)] = h[i, j] * edge.B @ ctrl.Chat
                a[x(i), z] = -h[i, j] * ctrl.Dhat @ edge.C
            if i in layer.nodes:
                a[sl["reference_state", i + 1], z] = \
                    -cl.eps * h[i, j] * layer.B @ edge.C
    for i in layer.nodes:
        r = sl["reference_state", i + 1]
        a[r, r] = layer.S
        if layer.command is not None:
            a[r, sl["exo_state", i + 1]] = -cl.eps * layer.command
    for e in cl.index_map:
        if e.kind == "exo_state":
            a[sl[e.kind, e.entity], sl[e.kind, e.entity]] = exo.S
    return a, v


@pytest.mark.parametrize("make", [
    demo_power_network,
    lambda: random_network(0, n_nodes=5, m_edges=6, dims=3,
                           regime="tracking"),
    lambda: random_network(100, n_nodes=5, m_edges=6, dims=3, regime="sync"),
    lambda: random_network(200, n_nodes=5, m_edges=6, dims=3,
                           regime="cooperation"),
    lambda: random_network(3, n_nodes=4, m_edges=5, dims=3, p=2,
                           regime="master_slave")],
    ids=["demo", "tracking-0", "sync-100", "cooperation-200",
         "master_slave-3-p2"])
def test_full_assembly_matches_blockwise_equations(make):
    # the demo's static ground node drives the edges through its exosystem
    rz = realize(make())
    a, v = _blockwise_full_loop(rz)
    assert np.abs(rz.cl.A_full - a).max() <= 1e-14 * np.abs(a).max()
    assert np.abs(rz.cl.v_map - v).max() <= 1e-14 * np.abs(v).max()


def test_assembly_is_deterministic_and_reproducible():
    net, exo, eps = two_node_toy()
    cset = build_controllers(net, exo, "sync", eps=eps)
    maps = build_maps(net, cset)
    cl1 = assemble("sync", net, cset, maps)
    cl2 = assemble("sync", net, cset, maps)
    assert np.array_equal(cl1.A_full, cl2.A_full)
    assert np.array_equal(cl1.A_error, cl2.A_error)
    assert cl1.index_map == cl2.index_map


def test_index_map_partitions_state_space():
    scn = demo_power_network()
    rz = realize(scn)
    offsets = sorted((e.offset, e.length) for e in rz.cl.index_map)
    cursor = 0
    for off, length in offsets:
        assert off == cursor
        cursor += length
    assert cursor == rz.cl.n_states
    kinds = {e.kind for e in rz.cl.index_map}
    assert kinds == {"node_state", "controller_state", "edge_state",
                     "reference_state", "exo_state"}


def test_sync_zero_gain_decouples_spectrum():
    net, exo, _ = two_node_toy()
    cset = build_controllers(net, exo, "sync", eps=0.0)
    maps = build_maps(net, cset)
    cl = assemble("sync", net, cset, maps, eps=0.0)
    # block upper-triangular at eps = 0: spectrum is the tracking blocks
    # plus the reduced reference generators
    nc = sum(c.nc for c in cset.controllers)
    nz = sum(e.n for e in net.edges)
    assert np.abs(cl.A_error[nc + nz:, :nc + nz]).max() == 0.0
    lam = np.sort_complex(np.linalg.eigvals(cl.A_error))
    blocks = scipy.linalg.block_diag(
        cset.controllers[0].Ahat, cset.controllers[1].Ahat)
    top = np.block([
        [blocks, cl.A_error[:nc, nc:nc + nz]],
        [cl.A_error[nc:nc + nz, :nc], np.atleast_2d(net.edges[0].A)]])
    expect = np.concatenate([np.linalg.eigvals(top),
                             np.linalg.eigvals(exo.S)])
    assert np.allclose(np.sort_complex(expect), lam, atol=1e-9)


def test_sync_full_spectrum_contains_reference_modes():
    scn = random_network(seed=12, regime="sync", eps=0.1)
    rz = realize(scn)
    lam_full = np.linalg.eigvals(rz.cl.A_full)
    for mu in np.linalg.eigvals(rz.cset.exo.S):
        assert np.abs(lam_full - mu).min() <= 1e-8 * max(1.0, abs(mu))


def test_assemble_requires_matching_maps():
    net, exo, eps = two_node_toy()
    cset = build_controllers(net, exo, "sync", eps=eps)
    with pytest.raises(MissingMaps):
        assemble("sync", net, cset, maps=None)
    # maps built for another regime are not the cooperation loop's
    coop = build_controllers(net, exo, "cooperation", eps=eps)
    with pytest.raises(MissingMaps):
        assemble("cooperation", net, coop, maps=build_maps(net, cset))


def test_epsilon_star_matches_fine_grid_scan():
    net, exo, _ = two_node_toy()
    cset = build_controllers(net, exo, "sync", eps=1.0)
    maps = build_maps(net, cset)
    eps_hi = 50.0
    est = epsilon_star(net, cset, maps, eps_hi=eps_hi)

    def absc(e):
        return spectral_abscissa(
            assemble("sync", net, cset, maps, eps=e).A_error)

    if est.eps_bisect < eps_hi:
        # fine grid around the reported boundary
        grid = np.linspace(0.9 * est.eps_bisect, 1.1 * est.eps_bisect, 81)
        signs = np.array([absc(e) < -1e-9 for e in grid])
        flips = np.nonzero(signs[:-1] & ~signs[1:])[0]
        assert flips.size >= 1
        boundary = grid[flips[0]]
        assert abs(boundary - est.eps_bisect) <= 2e-2 * est.eps_bisect
        assert absc(est.eps_bisect * (1 - 1e-2)) < 0
        assert absc(min(eps_hi, est.eps_bisect * (1 + 1e-2))) >= -1e-9
    else:
        assert absc(eps_hi) < -1e-9


def test_epsilon_star_single_node_insensitive_to_gain():
    # no edges: the coupling gain has no path into the loop
    exo = build_exosystem(np.zeros((1, 1)), Q_eta=[[1.0]], Q_v=[[1.0]])
    net = Network(nodes=(node_system(A=[[0.0]], B=[[1.0]], C=[[1.0]]),),
                  edges=(), topology=Topology.from_edge_list([], 1))
    cset = build_controllers(net, exo, "sync", eps=1.0)
    maps = build_maps(net, cset)
    est = epsilon_star(net, cset, maps, eps_hi=100.0)
    assert est.eps_bisect == 100.0 and not est.crossed
    assert est.probes == (100.0,)

    def absc(e):
        return spectral_abscissa(
            assemble("sync", net, cset, maps, eps=e).A_error)

    assert absc(0.01) == absc(100.0) == est.abscissa_at_bisect


def test_epsilon_star_no_stable_probe():
    net, exo, _ = two_node_toy()
    cset = build_controllers(net, exo, "sync", eps=1.0)
    maps = build_maps(net, cset)
    est = epsilon_star(net, cset, maps, eps_hi=50.0)
    if est.eps_bisect < 50.0:
        with pytest.raises(NoStableEps):
            # grid entirely above the boundary
            epsilon_star(net, cset, maps, eps_hi=1e12, n_probes=3)


def test_lemma1_certifies_block_split_at_small_gain():
    """Lemma 1 on an assembled loop: W1-W4 are the node/edge blocks of the
    error pencil's A0, W5 its coupling block of A1 times eps, and P_w, Q_w
    the controllers' and edges' storages."""
    rz = realize(random_network(seed=5, regime="sync", eps=1.0))
    pencil = closedloop._error_pencil(rz.network, rz.cset, rz.maps)
    node = slice(0, pencil.n_node)
    edge = slice(pencil.n_node, pencil.n_node + pencil.n_edge)
    w1, w2 = pencil.A0[node, node], pencil.A0[node, edge]
    w3, w4 = pencil.A0[edge, node], pencil.A0[edge, edge]
    w5_unit = pencil.A1[node, edge]
    p_w = scipy.linalg.block_diag(
        *[c.Phat.P for c in rz.cset.controllers if c is not None])
    q_w = scipy.linalg.block_diag(
        *[cert.P for cert in rz.cset.edge_certificates])
    _, eps_bar = lemma1_certificate(w1, w2, w3, w4, np.zeros_like(w2), p_w,
                                    q_w)
    bound = eps_bar / np.linalg.norm(w5_unit, 2)
    assert np.isfinite(bound) and bound > 0
    eps = 0.5 * bound
    cert, _ = lemma1_certificate(w1, w2, w3, w4, eps * w5_unit, p_w, q_w)
    w = np.block([[w1, w2 + eps * w5_unit], [w3, w4]])
    m = cert.P @ w + w.T @ cert.P
    assert np.linalg.eigvalsh(0.5 * (m + m.T))[-1] < 0
    # the same gain is stable by the operative eigenvalue test as well
    cl = assemble("sync", rz.network, rz.cset, rz.maps, eps=eps)
    assert spectral_abscissa(cl.A_error) < 0


def test_demo_error_abscissa_regression():
    rz = realize(demo_power_network())
    assert spectral_abscissa(rz.cl.A_error) == pytest.approx(
        -1.1648108262697718, abs=1e-6)


def _assert_error_spectrum_inside_full(cl, n_extra):
    """spec(A_full) = spec(A_error) plus ``n_extra`` marginal modes, matched
    one to one."""
    lam_err = np.linalg.eigvals(cl.A_error)
    lam_full = np.linalg.eigvals(cl.A_full)
    assert lam_full.size - lam_err.size == n_extra
    cost = np.abs(lam_err[:, None] - lam_full[None, :]) / np.maximum(
        1.0, np.abs(lam_err))[:, None]
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    assert cost[rows, cols].max(initial=0.0) <= 1e-10
    extra = np.delete(lam_full, cols)
    assert extra.size == n_extra
    assert np.abs(extra.real).max(initial=0.0) <= 1e-9


def test_spectral_identity_demo():
    # the three autonomous reference/command generators, q = 2 each
    _assert_error_spectrum_inside_full(realize(demo_power_network()).cl, 6)


# extra modes (N = 5, q = 2): tracking and master-slave keep one autonomous
# generator per node, sync the network-average reference, cooperation one
# command generator per node plus the average reference
@pytest.mark.parametrize("seed,regime,n_extra", [
    (0, "tracking", 10), (1, "tracking", 10), (100, "sync", 2),
    (101, "sync", 2), (200, "cooperation", 12), (201, "cooperation", 12),
    (300, "master_slave", 10), (301, "master_slave", 10)])
def test_spectral_identity_random(seed, regime, n_extra):
    scn = random_network(seed, n_nodes=5, m_edges=6, dims=3, regime=regime)
    rz = realize(scn)
    est = epsilon_star(rz.network, rz.cset, rz.maps, eps_hi=10.0)
    cl = assemble(regime, rz.network, rz.cset, rz.maps,
                  eps=0.5 * est.eps_bisect)
    _assert_error_spectrum_inside_full(cl, n_extra)


def _spectral_distance(a, b):
    """Largest relative distance between the eigenvalues of ``a`` and ``b``,
    matched one to one."""
    lam, mu = np.linalg.eigvals(a), np.linalg.eigvals(b)
    assert lam.size == mu.size
    cost = np.abs(lam[:, None] - mu[None, :]) / np.maximum(
        1.0, np.abs(lam))[:, None]
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return cost[rows, cols].max(initial=0.0)


@pytest.mark.parametrize("make,eps_hi", [
    (demo_power_network, 1000.0),
    (lambda: random_network(0, n_nodes=5, m_edges=6, dims=3,
                            regime="tracking"), 10.0),
    (lambda: random_network(100, n_nodes=5, m_edges=6, dims=3,
                            regime="sync"), 10.0),
    (lambda: random_network(200, n_nodes=5, m_edges=6, dims=3,
                            regime="cooperation"), 10.0),
    (lambda: random_network(300, n_nodes=5, m_edges=6, dims=3,
                            regime="master_slave"), 10.0)],
    ids=["demo", "tracking-0", "sync-100", "cooperation-200",
         "master_slave-300"])
def test_orientation_and_relabelling_invariance(make, eps_hi):
    """Flipping an edge negates its state, relabelling permutes the node
    blocks: both are similarities of the assembled matrices.  They move
    the crossing by rounding only, so the boundary agrees to the Newton
    tolerance, and each network's eps_bisect is stable on the other."""
    scn = make()

    def loop_and_boundary(s):
        rz = realize(s)
        est = epsilon_star(rz.network, rz.cset, rz.maps, eps_hi=eps_hi)
        return rz, est.eps_bisect

    rz, eps_star = loop_and_boundary(scn)
    for transformed in (flip_first_edge(scn), relabel_cyclically(scn)):
        rz_t, eps_star_t = loop_and_boundary(transformed)
        assert _spectral_distance(rz.cl.A_error, rz_t.cl.A_error) <= 1e-12
        assert _spectral_distance(rz.cl.A_full, rz_t.cl.A_full) <= 1e-12
        assert eps_star_t == pytest.approx(eps_star,
                                           rel=closedloop._NEWTON_TOL)
        assert _stable(rz_t, eps_star) and _stable(rz, eps_star_t)


def test_demo_coupling_is_stabilizing_then_destabilizing():
    rz = realize(demo_power_network())

    def absc(e):
        return spectral_abscissa(assemble(
            "master_slave", rz.network, rz.cset, rz.maps, eps=e).A_error)

    assert absc(0.0) >= -1e-12          # marginal reference generators
    assert absc(20.0) < -1.0            # the operating point
    assert absc(16000.0) > 0.0          # far beyond the boundary


def _stable(rz, eps):
    """Whether the error matrix of ``rz``'s loop at ``eps`` decomposes
    stable."""
    pencil = closedloop._error_pencil(rz.network, rz.cset, rz.maps)
    return spectral_abscissa(pencil.A0 + eps * pencil.A1) < \
        -closedloop.STABILITY_TOL


def _assert_bracket(rz, est):
    """eps_bisect decomposes stable and, when the search crossed,
    eps_bisect (1 + BRACKET_REL_WIDTH) decomposes unstable."""
    assert _stable(rz, est.eps_bisect)
    if est.crossed:
        assert not _stable(
            rz, est.eps_bisect * (1 + closedloop.BRACKET_REL_WIDTH))


def _bisection_as_first_written(network, cset, maps, eps_hi,
                                rel_width=closedloop.BRACKET_REL_WIDTH,
                                n_probes=16):
    """The probe-and-bisect search that decomposes every probe and every
    midpoint, evaluating the abscissa at the final lo once more; returns
    its fields."""
    pencil = closedloop._error_pencil(network, cset, maps)

    def abscissa(eps):
        return spectral_abscissa(pencil.A0 + eps * pencil.A1)

    probes = np.geomspace(eps_hi * 1e-4, eps_hi, n_probes)
    aabs = np.array([abscissa(e) for e in probes])
    k = int(np.max(np.nonzero(aabs < -closedloop.STABILITY_TOL)[0]))
    fields = dict(probes=tuple(probes), probe_abscissas=tuple(aabs))
    if k == len(probes) - 1:
        return dict(fields, eps_bisect=float(probes[-1]),
                    abscissa_at_bisect=float(aabs[-1]), crossed=False)
    lo, hi = float(probes[k]), float(probes[k + 1])
    while (hi - lo) > rel_width * lo:
        mid = 0.5 * (lo + hi)
        if abscissa(mid) < -closedloop.STABILITY_TOL:
            lo = mid
        else:
            hi = mid
    return dict(fields, eps_bisect=lo, abscissa_at_bisect=abscissa(lo),
                crossed=True)


#: (network, ceiling, branches tracked): each branch costs one
#: decomposition, at the lo of its bracket
_SEARCH_PANEL = pytest.mark.parametrize("make,eps_hi,branches", [
    (demo_power_network, 1000.0, 0),
    (lambda: random_network(0, n_nodes=5, m_edges=6, dims=3,
                            regime="tracking"), 10.0, 0),
    (lambda: random_network(100, n_nodes=5, m_edges=6, dims=3,
                            regime="sync"), 10.0, 2),
    (lambda: random_network(200, n_nodes=5, m_edges=6, dims=3,
                            regime="cooperation"), 10.0, 1),
    (lambda: random_network(300, n_nodes=5, m_edges=6, dims=3,
                            regime="master_slave"), 10.0, 1),
    (ring30, 10.0, 1),
], ids=["demo", "tracking-0", "sync-100", "cooperation-200",
        "master_slave-300", "ring30"])


def _assert_same_probes(est, expected):
    """The probes are the reference search's top probes, down to the
    largest stable one, and ``crossed`` is the same; returns the number
    of probes not decomposed."""
    k = len(expected["probes"]) - len(est.probes)
    assert est.probes == expected["probes"][k:]
    assert est.probe_abscissas == expected["probe_abscissas"][k:]
    assert est.probe_abscissas[0] < -closedloop.STABILITY_TOL
    assert all(a >= -closedloop.STABILITY_TOL
               for a in est.probe_abscissas[1:])
    assert est.crossed == expected["crossed"]
    return k


@_SEARCH_PANEL
def test_epsilon_star_evaluates_each_probe_once(monkeypatch, make, eps_hi,
                                                branches):
    """The top-down scan and the tracked crossing give a verified bracket
    within the bracket width of the bisection's result.  Each probe
    scanned is eigen-decomposed once, and one more full decomposition
    follows per branch tracked (ring30: 9 in all, against 42 for
    probe-and-bisect to the same width).  On sync-100 the rightmost
    eigenvalue at the top of the bracket is not the one that crosses
    first, so a second branch is tracked."""
    rz = realize(make())
    expected = _bisection_as_first_written(
        rz.network, rz.cset, rz.maps, eps_hi)
    calls = []

    def counted(func):
        def spy(a):
            calls.append(func.__name__)
            return func(a)
        return spy

    for name in ("spectral_abscissa", "rightmost_eigenvalue"):
        monkeypatch.setattr(closedloop, name,
                            counted(getattr(closedloop, name)))
    est = epsilon_star(rz.network, rz.cset, rz.maps, eps_hi=eps_hi)
    k = _assert_same_probes(est, expected)
    assert len(calls) == (16 - k) + branches
    assert np.isnan(est.eps_crossing) != est.crossed
    assert abs(est.eps_bisect - expected["eps_bisect"]) <= \
        closedloop.BRACKET_REL_WIDTH * expected["eps_bisect"]
    _assert_bracket(rz, est)


def _moved(factor):
    """A tracker whose crossing is off by ``factor``, as one that followed
    the wrong eigenvalue would report it; beyond the bracket width, one
    end of the bracket fails its verification."""
    return lambda cross: None if cross is None else \
        replace(cross, eps=factor * cross.eps)


@pytest.mark.parametrize("tracker", [lambda cross: None, _moved(0.998),
                                     _moved(1.002)],
                         ids=["fails", "lies-low", "lies-high"])
@pytest.mark.parametrize("seed,regime", [
    (100, "sync"), (200, "cooperation"), (300, "master_slave")])
def test_epsilon_star_falls_back_to_bisection(monkeypatch, tracker, seed,
                                              regime):
    """A tracker that fails, or whose crossing the verification refutes,
    leaves the result of bisection by eigenvalues, bit for bit."""
    rz = realize(random_network(seed, n_nodes=5, m_edges=6, dims=3,
                                regime=regime))
    expected = _bisection_as_first_written(
        rz.network, rz.cset, rz.maps, 10.0)
    track = closedloop._crossing
    monkeypatch.setattr(closedloop, "_crossing",
                        lambda *args: tracker(track(*args)))
    est = epsilon_star(rz.network, rz.cset, rz.maps, eps_hi=10.0)
    assert est.crossed
    _assert_same_probes(est, expected)
    assert est.eps_bisect == expected["eps_bisect"]
    assert est.abscissa_at_bisect == expected["abscissa_at_bisect"]
    assert np.isnan(est.eps_crossing) and np.isnan(est.omega_crossing)
    _assert_bracket(rz, est)


@pytest.mark.parametrize("make,eps_crossing,omega_crossing", [
    (lambda: random_network(100, n_nodes=5, m_edges=6, dims=3,
                            regime="sync"), 0.1454595010, 1.771310749),
    (lambda: random_network(200, n_nodes=5, m_edges=6, dims=3,
                            regime="cooperation"), 0.09483307985,
     0.8093231549),
    (lambda: random_network(300, n_nodes=5, m_edges=6, dims=3,
                            regime="master_slave"), 1.789170442, 3.054149249),
    (ring30, 0.1794894834, 2.159065452),
    (lambda: random_network(1001, regime="sync"), 0.1537376812, 1.412448135),
], ids=["sync-100", "cooperation-200", "master_slave-300", "ring30",
        "sync-1001"])
def test_epsilon_star_exposes_the_crossing(make, eps_crossing,
                                           omega_crossing):
    """The crossing and its frequency, as dense bisection of the spectral
    abscissa to 1e-14 measured them, lie inside the returned bracket, just
    above eps_bisect.  On sync-1001 the rightmost eigenvalue at the top of
    the bracket is not the one that crosses first, so a second branch is
    tracked."""
    rz = realize(make())
    est = epsilon_star(rz.network, rz.cset, rz.maps, eps_hi=10.0)
    assert est.eps_crossing == pytest.approx(eps_crossing, rel=1e-6)
    assert est.omega_crossing == pytest.approx(omega_crossing, rel=1e-6)
    assert est.eps_bisect < est.eps_crossing <= \
        est.eps_bisect * (1 + closedloop.BRACKET_REL_WIDTH)


def _kronecker_roots(pencil):
    """Real gains eps > 0 at which (A0 + tau I) (+) (A0 + tau I) +
    eps (A1 (+) A1) is singular, tau = STABILITY_TOL, in ascending order:
    the gains where two eigenvalues of A(eps) sum to -2 tau, among them
    every gain where a complex pair or a real eigenvalue lies on the line
    Re = -tau (the Kronecker-sum test of Fu & Barmish, Systems & Control
    Letters 1988).  They are the finite generalized eigenvalues of
    (K0, -K1)."""
    eye = np.eye(pencil.A0.shape[0])

    def kron_sum(a):
        return np.kron(a, eye) + np.kron(eye, a)

    roots = scipy.linalg.eigvals(
        kron_sum(pencil.A0 + closedloop.STABILITY_TOL * eye),
        -kron_sum(pencil.A1))
    real = np.isfinite(roots) & (np.abs(roots.imag) <= 1e-8 * np.abs(roots))
    return np.sort(roots.real[real & (roots.real > 0)])


@pytest.mark.parametrize("seed,regime,sizes", [
    (1100, "sync", {}), (1101, "sync", {}),
    (1200, "cooperation", {}), (1201, "cooperation", {}),
    (1300, "master_slave", {}), (1301, "master_slave", {}),
    (106, "sync", dict(n_nodes=3, m_edges=3, dims=2)),
], ids=["sync-1100", "sync-1101", "cooperation-1200", "cooperation-1201",
        "master_slave-1300", "master_slave-1301", "sync-106-fallback"])
def test_bracket_holds_the_kronecker_sum_crossing(seed, regime, sizes):
    """The first singular gain of the Kronecker-sum pencil above the
    largest stable probe lies in [eps_bisect, eps_bisect (1 + W)], on the
    tracked path and on sync-106, where the tracker jumps branches and the
    search falls back to bisection."""
    rz = realize(random_network(seed, regime=regime, **sizes))
    pencil = closedloop._error_pencil(rz.network, rz.cset, rz.maps)
    assert pencil.A0.shape[0] <= 20  # the Kronecker sum has n^2 states
    est = epsilon_star(rz.network, rz.cset, rz.maps, eps_hi=10.0)
    assert est.crossed
    roots = _kronecker_roots(pencil)
    first = roots[roots > est.probes[0]][0]
    assert est.eps_bisect <= first <= \
        est.eps_bisect * (1 + closedloop.BRACKET_REL_WIDTH)
    _assert_bracket(rz, est)
