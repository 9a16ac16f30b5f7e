"""Scenario library: the three-node electrical network demo and seeded
random-network generators for the property suites.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import build_exosystem, edge_system, node_system
from .closedloop import assemble
from .errors import InfeasibleDims, ValidationError
from .network import Network, StaticNode, is_static
from .synthesis import (
    NODE_ROLES,
    REGIMES,
    NodeGains,
    build_controllers,
    build_maps,
)
from .topology import Topology, block_diag


@dataclass(frozen=True)
class Scenario:
    """Complete description of one runnable problem.

    ``nodes`` mixes LtiSystem records and StaticNode placeholders;
    ``gains`` maps 1-based node ids to explicit NodeGains (nodes without an
    entry get synthesized gains; a node never mixes the two).  Reference
    initial conditions are per-node dicts; unlisted entries start at zero.
    """

    name: str
    nodes: tuple
    edges: tuple
    edge_ends: tuple
    S: np.ndarray
    Q_eta: np.ndarray
    Q_v: np.ndarray
    regime: str
    eps: float
    P_eta: np.ndarray = None
    roles: dict = None
    gains: dict = field(default_factory=dict)
    nu0: dict = field(default_factory=dict)
    eta0: dict = field(default_factory=dict)
    etabar0: dict = field(default_factory=dict)
    dt: float = 1e-3
    t_end: float = 1.0

    @property
    def n_nodes(self):
        return len(self.nodes)

    def topology(self):
        return Topology.from_edge_list(self.edge_ends, self.n_nodes)

    def network(self):
        return Network(nodes=self.nodes, edges=self.edges,
                       topology=self.topology())

    def exosystem(self):
        return build_exosystem(self.S, self.Q_eta, self.Q_v, self.P_eta)

    def validate(self):
        for i, node in enumerate(self.nodes):
            if is_static(node) and (i + 1) in self.gains:
                raise ValidationError(
                    f"gains[{i + 1}]", "static nodes take no gains")
        for key in self.gains:
            if not 1 <= key <= self.n_nodes:
                raise ValidationError(f"gains[{key}]", "unknown node")
        return self


@dataclass(frozen=True)
class Realized:
    """A scenario after synthesis and assembly."""

    scenario: Scenario
    network: Network
    cset: object
    maps: object
    cl: object


def realize(scn):
    """Build controllers, regulation maps and the closed loop for a scenario,
    at its coupling gain ``scn.eps``."""
    scn.validate()
    network = scn.network()
    exo = scn.exosystem()
    cset = build_controllers(network, exo, scn.regime, roles=scn.roles,
                             eps=scn.eps, gains=scn.gains)
    maps = build_maps(network, cset)
    cl = assemble(scn.regime, network, cset, maps)
    return Realized(scenario=scn, network=network, cset=cset, maps=maps,
                    cl=cl)


# ---------------------------------------------------------------------------
# the three-node electrical network


def demo_power_network():
    """Two current-controlled sources and a grounded node over RL branches.

    Nodes 1 and 2 are slave sources (capacitor voltage dynamics, neighbor
    current as coupling input) with the hand-tuned gains; node 3 is the
    ground master, a static node whose output is pinned exactly (no state).
    """
    w = 100.0 * math.pi
    s = np.array([[0.0, -w], [w, 0.0]])
    q_eta = np.array([[0.0, 1.0]])
    q_v = np.array([[1.0, 0.0]])
    p_eta = np.eye(2)

    c_f1, c_f2 = 50e-6, 30e-6
    node1 = node_system(A=[[0.0]], B=[[1.0 / c_f1]], C=[[1.0]])
    node2 = node_system(A=[[0.0]], B=[[1.0 / c_f2]], C=[[1.0]])

    r12, l12 = 0.05, 0.01e-3
    r13, l13 = 9.0, 1e-3
    r23, l23 = 8.0, 5e-3
    edges = (
        edge_system(E=[[-r12 / l12]], F=[[1.0 / l12]], G=[[1.0]]),
        edge_system(E=[[-r13 / l13]], F=[[1.0 / l13]], G=[[1.0]]),
        edge_system(E=[[-r23 / l23]], F=[[1.0 / l23]], G=[[1.0]]),
    )
    edge_ends = ((1, 2), (1, 3), (2, 3))

    gains = {
        1: NodeGains(K_x=np.array([[-1.0]]),
                     K_zeta=np.array([[-500.0, -500.0]]),
                     G1=s.copy(), G2=np.array([[1.0], [1.0]])),
        2: NodeGains(K_x=np.array([[-2.0]]),
                     K_zeta=np.array([[0.0, -500.0]]),
                     G1=np.array([[0.0, 1.0], [-w * w, 0.0]]),
                     G2=np.array([[0.0], [1.0]])),
    }
    return Scenario(
        name="power_network",
        nodes=(node1, node2, StaticNode(p=1)),
        edges=edges,
        edge_ends=edge_ends,
        S=s, Q_eta=q_eta, Q_v=q_v, P_eta=p_eta,
        regime="master_slave",
        roles={1: "slave", 2: "slave", 3: "master"},
        gains=gains,
        eps=20.0,
        nu0={1: np.array([5.0, -5.0 * math.sqrt(3.0)]),
             2: np.array([10.0, 0.0])},
        eta0={3: np.array([0.0, 0.0])},
        dt=1e-6,
        t_end=1.0,
    ).validate()


# ---------------------------------------------------------------------------
# seeded random networks


def _random_connected_edges(rng, n_nodes, m_edges):
    """Random connected edge list: a random spanning tree plus extras."""
    order = rng.permutation(n_nodes) + 1
    edges = []
    for k in range(1, n_nodes):
        a = int(order[k])
        b = int(order[rng.integers(0, k)])
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    while len(edges) < m_edges:
        a, b = rng.choice(n_nodes, size=2, replace=False) + 1
        edges.append((int(a), int(b)))
    return edges


def _random_marginal_exosystem(rng, q, p):
    """Marginal simple-spectrum S with outputs, via a mild similarity."""
    freqs = np.sort(rng.uniform(0.5, 3.0, size=q // 2))
    while q // 2 > 1 and np.min(np.diff(freqs)) < 0.2:
        freqs = np.sort(rng.uniform(0.5, 3.0, size=q // 2))
    blocks = [np.array([[0.0, -w], [w, 0.0]]) for w in freqs]
    if q % 2:
        blocks.append(np.zeros((1, 1)))
    j = block_diag(blocks)
    v = np.eye(q) + 0.3 * rng.standard_normal((q, q))
    while np.linalg.cond(v) > 10.0:
        v = np.eye(q) + 0.3 * rng.standard_normal((q, q))
    s = v @ j @ np.linalg.inv(v)
    q_eta = rng.uniform(0.5, 1.5, size=(p, q)) * rng.choice(
        [-1.0, 1.0], size=(p, q))
    q_v = rng.uniform(0.5, 1.5, size=(p, q)) * rng.choice(
        [-1.0, 1.0], size=(p, q))
    return s, q_eta, q_v


def _random_node(rng, n, p):
    """Relative-degree-one node with stable zeros and C B > 0, then a mild
    state-coordinate change; D_in = B (direct coupling)."""
    cb = np.eye(p)
    if p > 1:
        m = 0.3 * rng.standard_normal((p, p))
        cb = cb + 0.5 * (m + m.T)
        while np.linalg.eigvalsh(cb)[0] < 0.2:
            m = 0.3 * rng.standard_normal((p, p))
            cb = np.eye(p) + 0.5 * (m + m.T)
    nz = n - p
    a11 = rng.uniform(-1.0, 1.0, size=(p, p))
    a12 = rng.uniform(-1.0, 1.0, size=(p, nz))
    a21 = rng.uniform(-1.0, 1.0, size=(nz, p))
    a22 = -np.diag(rng.uniform(0.5, 2.0, size=nz))
    if nz > 1:
        a22 = a22 + 0.2 * rng.standard_normal((nz, nz))
        a22 = a22 - np.eye(nz) * max(
            0.0, np.linalg.eigvals(a22).real.max() + 0.3)
    a_nf = np.block([[a11, a12], [a21, a22]])
    b_nf = np.vstack([cb, np.zeros((nz, p))])
    c_nf = np.hstack([np.eye(p), np.zeros((p, nz))])
    t = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    while np.linalg.cond(t) > 10.0:
        t = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    ti = np.linalg.inv(t)
    return node_system(A=t @ a_nf @ ti, B=t @ b_nf, C=c_nf @ ti)


def _random_edge(rng, n, p):
    """Edge built strictly positive real by construction: pick the
    certificate first, then E with Q E + E.T Q < 0 and F = Q^{-1} G.T."""
    q = np.diag(rng.uniform(0.5, 2.0, size=n))
    m = 0.2 * rng.standard_normal((n, n))
    q = q + 0.5 * (m + m.T)
    while np.linalg.eigvalsh(q)[0] < 0.2:
        q = np.diag(rng.uniform(0.5, 2.0, size=n))
    r0 = np.diag(rng.uniform(0.5, 2.0, size=n))
    s0 = 0.5 * rng.standard_normal((n, n))
    s0 = 0.5 * (s0 - s0.T)
    e = np.linalg.solve(q, s0 - r0)
    g = rng.uniform(0.5, 1.5, size=(p, n)) * rng.choice(
        [-1.0, 1.0], size=(p, n))
    f = np.linalg.solve(q, g.T)
    return edge_system(E=e, F=f, G=g)


def random_network(seed, n_nodes=3, m_edges=3, dims=2, p=1, q_exo=2,
                   regime="tracking", n_slaves=None, eps=1.0):
    """Seeded random scenario with feasibility built in by construction.

    Nodes are hyper-minimum-phase by construction, edges strictly positive
    real by construction, the topology connected; the result is
    deterministic per seed.

    Raises
    ------
    InfeasibleDims
        If the dimensions cannot produce a valid network.
    ValidationError
        If the regime is unknown.
    """
    if n_nodes < 2 or n_nodes > 5:
        raise InfeasibleDims("n_nodes must be in [2, 5]")
    if m_edges < n_nodes - 1 or m_edges > 7:
        raise InfeasibleDims("m_edges must be in [n_nodes-1, 7]")
    if dims < p or dims > 3:
        raise InfeasibleDims("dims must be in [p, 3]")
    if regime not in REGIMES:
        raise ValidationError("regime", f"unknown regime {regime!r}")
    rng = np.random.default_rng(seed)
    edge_ends = _random_connected_edges(rng, n_nodes, m_edges)
    s, q_eta, q_v = _random_marginal_exosystem(rng, q_exo, p)
    nodes = tuple(_random_node(rng, int(rng.integers(p, dims + 1)), p)
                  for _ in range(n_nodes))
    edges = tuple(_random_edge(rng, int(rng.integers(p, dims + 1)), p)
                  for _ in range(m_edges))
    roles = None
    if regime == "master_slave":
        n_slaves = 1 if n_slaves is None else int(n_slaves)
        if not 0 <= n_slaves <= n_nodes - 1:
            raise InfeasibleDims("n_slaves must be in [0, n_nodes-1]")
        slave_ids = rng.choice(n_nodes, size=n_slaves, replace=False) + 1
        roles = {i: ("slave" if i in slave_ids else "master")
                 for i in range(1, n_nodes + 1)}
    nu0, eta0, etabar0 = {}, {}, {}
    for i in range(1, n_nodes + 1):
        seeds = NODE_ROLES[roles[i] if roles else regime].seeds
        # nu0 before eta0 keeps every seed's draws; etabar0 stays zero
        for name, values in (("nu0", nu0), ("eta0", eta0)):
            if name in seeds:
                values[i] = rng.uniform(-1.0, 1.0, size=q_exo)
    return Scenario(
        name=f"random-{seed}",
        nodes=nodes, edges=edges, edge_ends=tuple(edge_ends),
        S=s, Q_eta=q_eta, Q_v=q_v, regime=regime, roles=roles,
        eps=float(eps), nu0=nu0, eta0=eta0, etabar0=etabar0,
        dt=1e-3, t_end=10.0,
    ).validate()

