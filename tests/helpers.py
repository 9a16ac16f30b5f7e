"""Scenario helpers shared by the test modules."""

from dataclasses import replace

import numpy as np

from coopnet.errors import ValidationError


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
