"""The numpy kernels of the SPR certificate against the scipy routines they
replace, which are imported inside the tests only.

- ``analysis._balance`` is LAPACK dgebal's scaling loop, so its scales
  equal ``scipy.linalg.matrix_balance(aug, permute=False, separate=True)``
  bit for bit, on every augmented matrix [[E, F], [G, 0]] the pipeline
  balances and under power-of-two changes of units;
- ``analysis._riccati_solution`` (the matrix sign) gives the Riccati
  solution of an ordered real Schur form, Y = Z2 Z1^{-1};
- ``analysis._stable_lyapunov`` gives ``solve_continuous_lyapunov``'s Y_L
  on an edge whose Riccati solution is only semidefinite.

The panel is every edge, node and node state loop certified by
``assumption_report`` on the ring30 network and on
``random_network(seed, n_nodes=4, m_edges=5, dims=3)``, seeds 0-199; the
regime draws roles and initial values after the systems, so the systems
are those of every regime.
"""

from functools import lru_cache

import numpy as np
import pytest

import coopnet.analysis as analysis
from coopnet.analysis import edge_system, spr_certificate
from coopnet.scenarios import REGIMES, random_network
from coopnet.synthesis import _lattice_gains, _state_loop

from helpers import ring30


def _aug(e, f, g):
    m = f.shape[1]
    return np.block([[e, f], [g, np.zeros((m, m))]])


def _scipy_scales(aug):
    import scipy.linalg

    with np.errstate(invalid="ignore"):  # scipy casts the scales to int
        return scipy.linalg.matrix_balance(aug, permute=False,
                                           separate=True)[1][0]


@lru_cache(maxsize=None)
def _networks():
    return (ring30().network(), *(
        random_network(seed, n_nodes=4, m_edges=5, dims=3).network()
        for seed in range(200)))


@lru_cache(maxsize=None)
def _panel():
    """The stacks that ``_balance`` and ``_riccati_solution`` receive
    while the lattice and the SPR certificates of the panel are built, all
    networks in one call each, with what they returned."""
    balanced, riccati = [], []
    real_balance, real_riccati = analysis._balance, analysis._riccati_solution

    def record_balance(a):
        balanced.append((a.copy(), real_balance(a)))
        return balanced[-1][1]

    def record_riccati(h):
        riccati.append((h.copy(), real_riccati(h)))
        return riccati[-1][1]

    analysis._balance = record_balance
    analysis._riccati_solution = record_riccati
    try:
        nodes = [node for network in _networks() for node in network.nodes]
        loops = [_state_loop(node, k_x)
                 for node, k_x in zip(nodes, _lattice_gains(nodes))]
        certs = analysis.spr_certificates(
            [edge for network in _networks() for edge in network.edges] +
            loops)
        assert not any(isinstance(c, Exception) for c in certs)
    finally:
        analysis._balance, analysis._riccati_solution = \
            real_balance, real_riccati
    return balanced, riccati


def test_panel_systems_do_not_depend_on_the_regime():
    for seed in (0, 57, 199):
        systems = [random_network(seed, n_nodes=4, m_edges=5, dims=3,
                                  regime=regime).network()
                   for regime in REGIMES]
        for other in systems[1:]:
            for a, b in zip(systems[0].nodes + systems[0].edges,
                            other.nodes + other.edges):
                assert all(np.array_equal(x, y) for x, y in
                           zip((a.A, a.B, a.C), (b.A, b.B, b.C)))


def test_balance_equals_scipy_on_the_panel():
    balanced, _ = _panel()
    assert sum(len(a) for a, _ in balanced) == 1818
    for stack, scales in balanced:
        for aug, d in zip(stack, scales):
            assert d.tobytes() == _scipy_scales(aug).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_balance_equals_scipy_under_unit_changes(seed):
    """A diagonal power-of-two change of state and input units, 2^-20 to
    2^20 each, and a power-of-two scale of the whole matrix."""
    rng = np.random.default_rng(seed)
    balanced, _ = _panel()
    for stack, _ in balanced:
        t = 2.0 ** rng.integers(-20, 21, size=stack.shape[:-1])
        moved = stack * t[:, None, :] / t[:, :, None]
        moved *= 2.0 ** rng.integers(-20, 21, size=(len(stack), 1, 1))
        for aug, d in zip(moved, analysis._balance(moved)):
            assert d.tobytes() == _scipy_scales(aug).tobytes()


def test_balance_equals_scipy_on_huge_ring_edges():
    first = ring30().network().edges[0]
    e, f, g = first.A, first.B, first.C
    stack = np.stack([_aug(*efg) for efg in (
        (e, f / 1e160, g * 1e160), (e * 1e160, f, g), (e, f, g * 1e160),
        (e * 1e300, f, g), (e * 100.0, f, g * 1e306), (e, f, g))])
    for aug, d in zip(stack, analysis._balance(stack)):
        assert d.tobytes() == _scipy_scales(aug).tobytes()


def test_lattice_gains_equal_those_of_scipy_balancing(monkeypatch):
    """K_x of every panel node, with the balancing done by scipy: the same
    bytes."""
    nodes = [node for network in _networks() for node in network.nodes]
    got = _lattice_gains(nodes)
    monkeypatch.setattr(analysis, "_balance", lambda a: np.stack(
        [_scipy_scales(m) for m in a]))
    for k_x, want in zip(got, _lattice_gains(nodes)):
        assert k_x.tobytes() == want.tobytes()


def test_riccati_solution_equals_the_ordered_schur_one():
    import scipy.linalg

    _, riccati = _panel()
    assert sum(len(h) for h, _ in riccati) == 1260
    for stack, ys in riccati:
        r = stack.shape[-1] // 2
        for h, y in zip(stack, ys):
            z = scipy.linalg.schur(h, output="real", sort="lhp")[1]
            want = np.linalg.solve(z[:r, :r].T, z[r:, :r].T).T
            assert np.linalg.norm(y - want) <= 1e-10 * np.linalg.norm(want)


def test_semidefinite_riccati_edge_matches_scipy_lyapunov(monkeypatch):
    """The third state of this edge is neither driven nor seen, so the
    Riccati solution is singular and ``_riccati_interior`` moves it inside
    by Y_L with ``A_cl.T Y_L + Y_L A_cl = -I``, here from the matrix
    sign."""
    import scipy.linalg

    calls, real = [], analysis._stable_lyapunov

    def spy(a):
        calls.append((a, real(a)))
        return calls[-1][1]

    monkeypatch.setattr(analysis, "_stable_lyapunov", spy)
    edge = edge_system(E=[[-1.0, 1.0, 0.0], [-1.0, -1.0, 0.0],
                          [0.0, 0.0, -2.0]],
                       F=[[1.0], [0.0], [0.0]], G=[[1.0, 0.0, 0.0]])
    cert = spr_certificate(edge)
    assert cert.slack > analysis.STRICT_MARGIN
    assert len(calls) == 1
    a_cl, y_l = calls[0]
    want = scipy.linalg.solve_continuous_lyapunov(a_cl.T, -np.eye(len(a_cl)))
    assert np.linalg.norm(y_l - want) <= 1e-12 * np.linalg.norm(want)
