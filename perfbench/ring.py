"""Seeded ring network for the large-N benchmark workload.

``random_network`` caps N at 5, so the benchmark builds its 30-node ring
itself, from the public constructors only (``node_system``, ``edge_system``,
``Scenario``).  Every property the synthesis needs holds by construction:

* nodes are relative-degree-one with C B > 0 and Hurwitz zero dynamics
  (hyper-minimum-phase), seen through a mild coordinate change;
* edges are strictly positive real: a certificate Q > 0 is drawn first,
  then E = Q^{-1} (K - R) with K skew and R > 0, so Q E + E^T Q = -2 R < 0,
  and F = Q^{-1} G^T, so Q F = G^T.
"""

import numpy as np

from coopnet import Scenario, edge_system, node_system

N_NODES = 30
#: state dimension of every node and edge
DIMS = 2
MASTER_EVERY = 5
#: horizon and step: 20,000 RK4 steps
T_END = 200.0
DT = 1e-2


def _spd(rng, n, lo, hi):
    """Random symmetric positive definite matrix with eigenvalues in [lo, hi]."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return basis @ np.diag(rng.uniform(lo, hi, size=n)) @ basis.T


def _coordinate_change(rng, n):
    """Well-conditioned random similarity (condition number at most 3)."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return u @ np.diag(rng.uniform(1.0, 3.0, size=n)) @ v


def _node(rng, n):
    """Single-output node in normal form x = (y, z) with stable zero dynamics."""
    cb = rng.uniform(0.5, 2.0)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    a[1:, 1:] = -np.diag(rng.uniform(0.5, 2.0, size=n - 1))
    b = np.zeros((n, 1))
    b[0, 0] = cb
    c = np.zeros((1, n))
    c[0, 0] = 1.0
    t = _coordinate_change(rng, n)
    ti = np.linalg.inv(t)
    return node_system(A=t @ a @ ti, B=t @ b, C=c @ ti)


def _edge(rng, n):
    """Single-output edge that is strictly positive real by construction."""
    q = _spd(rng, n, 0.5, 2.0)
    k = rng.standard_normal((n, n))
    e = np.linalg.solve(q, 0.5 * (k - k.T) - _spd(rng, n, 0.5, 2.0))
    g = rng.uniform(0.5, 1.5, size=(1, n)) * rng.choice([-1.0, 1.0],
                                                        size=(1, n))
    return edge_system(E=e, F=np.linalg.solve(q, g.T), G=g)


def ring_network(seed):
    """Master-slave ring of N_NODES nodes: edge k runs from node k to node
    k+1 (mod N), and every MASTER_EVERY-th node is a master.  Masters start
    their reference generators, slaves their commands, at seeded random
    values."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 3.0)
    s = np.array([[0.0, -w], [w, 0.0]])

    def output_row():
        return rng.uniform(0.5, 1.5, size=(1, 2)) * rng.choice(
            [-1.0, 1.0], size=(1, 2))

    q_eta, q_v = output_row(), output_row()
    nodes = tuple(_node(rng, DIMS) for _ in range(N_NODES))
    edges = tuple(_edge(rng, DIMS) for _ in range(N_NODES))
    edge_ends = tuple((i, i % N_NODES + 1) for i in range(1, N_NODES + 1))
    roles = {i: "master" if i % MASTER_EVERY == 0 else "slave"
             for i in range(1, N_NODES + 1)}
    nu0 = {i: rng.uniform(-1.0, 1.0, size=2)
           for i, r in roles.items() if r == "slave"}
    eta0 = {i: rng.uniform(-1.0, 1.0, size=2)
            for i, r in roles.items() if r == "master"}
    return Scenario(
        name=f"ring{N_NODES}-{seed}", nodes=nodes, edges=edges,
        edge_ends=edge_ends, S=s, Q_eta=q_eta, Q_v=q_v,
        regime="master_slave", roles=roles, eps=1.0, nu0=nu0, eta0=eta0,
        dt=DT, t_end=T_END).validate()
