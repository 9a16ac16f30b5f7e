"""Scenario helpers shared by the test modules."""

from dataclasses import replace

import numpy as np

from coopnet.analysis import node_system
from coopnet.errors import ValidationError
from coopnet.scenarios import demo_power_network


def with_zero_sum(scn):
    """Adjust the last command so the cooperation zero-sum condition holds."""
    if scn.regime not in ("cooperation",):
        raise ValidationError("regime", "zero-sum applies to cooperation")
    nu0 = {i: np.asarray(v, dtype=float).copy()
           for i, v in scn.nu0.items()}
    q = scn.S.shape[0]
    total = np.zeros(q)
    for i in range(1, scn.n_nodes):
        vec = nu0.get(i, np.zeros(q))
        nu0[i] = vec
        total = total + vec
    nu0[scn.n_nodes] = -total
    return replace(scn, nu0=nu0)


def tracking_ground_demo():
    """The power-network demo with a dynamic ground: node 3 is a small
    capacitor node with synthesized high-gain tracking in place of the
    static master pinned exactly."""
    scn = demo_power_network()
    ground = node_system(A=[[0.0]], B=[[1.0 / 50e-6]], C=[[1.0]])
    return replace(scn, nodes=scn.nodes[:2] + (ground,)).validate()


def flip_first_edge(scn):
    """The scenario with its first edge's orientation reversed."""
    (a, b), rest = scn.edge_ends[0], scn.edge_ends[1:]
    return replace(scn, edge_ends=((b, a),) + rest)


def relabel_cyclically(scn):
    """Node i becomes node i + 1, node N becomes node 1."""
    def new(i):
        return i % scn.n_nodes + 1

    def moved(per_node):
        return None if per_node is None else \
            {new(i): v for i, v in per_node.items()}

    return replace(
        scn, nodes=scn.nodes[-1:] + scn.nodes[:-1],
        edge_ends=tuple((new(a), new(b)) for a, b in scn.edge_ends),
        roles=moved(scn.roles), gains=moved(scn.gains), nu0=moved(scn.nu0),
        eta0=moved(scn.eta0), etabar0=moved(scn.etabar0))


def relative_degree_one_node(seed, n=4, p=3):
    """(A, B, C) of a random node with C B symmetric positive definite.

    Its system pencil has its infinite eigenvalues in 2x2 Jordan blocks,
    which rounding splits, so a QZ of the pencil can report spurious
    finite zeros near 1e8.
    """
    from coopnet.topology import null_space

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, p))
    m = rng.standard_normal((p, p))
    cb = m @ m.T + 0.1 * np.eye(p)
    c = cb @ np.linalg.pinv(b) + \
        rng.standard_normal((p, n - p)) @ null_space(b.T).T
    return a, b, c


def ring30():
    """The 30-node master-slave ring of the benchmark's ring30 workload."""
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "ring.py")
    spec = importlib.util.spec_from_file_location("perfbench_ring", path)
    ring = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ring)
    return ring.ring_network(0)


def frequency_spr(edge):
    """Whether (E, F, G) passes the frequency-domain SPR test: w = 0 and
    4,001 log-spaced frequencies from 1e-4 times the smallest eigenvalue
    modulus of E to 1e4 times the largest, plus the condition at infinity."""
    e, f, g = edge.A, edge.B, edge.C
    if np.linalg.eigvals(e).real.max() >= 0:
        return False
    gf, gef = g @ f, g @ e @ f
    if np.abs(gf - gf.T).max() > 1e-10 * max(1.0, np.abs(gf).max()):
        return False  # w (Z + Z^H) tends to a nonzero Hermitian, indefinite
    if np.linalg.eigvalsh(-(gef + gef.T))[0] <= 0:
        return False
    moduli = np.abs(np.linalg.eigvals(e))
    w = np.concatenate([[0.0], np.geomspace(1e-4 * moduli.min(),
                                            1e4 * moduli.max(), 4001)])
    x = np.linalg.solve(1j * w[:, None, None] * np.eye(e.shape[0]) - e, f)
    z = g @ x
    return bool((np.linalg.eigvalsh(z + z.conj().transpose(0, 2, 1))[:, 0]
                 > 0).all())
