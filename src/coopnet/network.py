"""Network record: node systems, edge systems, and their incidence structure."""

from dataclasses import dataclass

from .errors import DimensionMismatch, ValidationError
from .topology import Topology


@dataclass(frozen=True)
class StaticNode:
    """Node whose output is pinned exactly to its reference, ``y = Q_eta eta``.

    Used for boundary nodes (the grounded node of the power-network demo):
    it carries no state, needs no controller, and must play the master role.
    """

    p: int


def is_static(node):
    return isinstance(node, StaticNode)


@dataclass(frozen=True)
class Network:
    """N node systems and M edge systems tied together by a Topology.

    Nodes are either :class:`~coopnet.analysis.LtiSystem` records (with
    ``D_in`` as the neighboring-input matrix) or :class:`StaticNode`
    placeholders.  All node and edge outputs share the common dimension p.
    """

    nodes: tuple
    edges: tuple
    topology: Topology

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        topo = self.topology
        if len(self.nodes) != topo.N:
            raise DimensionMismatch(
                f"{len(self.nodes)} nodes but topology has N={topo.N}")
        if len(self.edges) != topo.M:
            raise DimensionMismatch(
                f"{len(self.edges)} edges but topology has M={topo.M}")
        p = self.p
        for i, node in enumerate(self.nodes):
            if is_static(node):
                if node.p != p:
                    raise DimensionMismatch(
                        f"node {i + 1} output dim {node.p} != {p}")
                continue
            if node.p != p:
                raise DimensionMismatch(
                    f"node {i + 1} output dim {node.p} != {p}")
            if node.D_in is None:
                raise ValidationError(
                    f"nodes[{i}].D_in", "node needs a neighboring-input matrix")
            if node.D_in.shape[1] != p:
                raise DimensionMismatch(
                    f"node {i + 1} D_in has {node.D_in.shape[1]} cols, "
                    f"expected p={p}")
        for j, edge in enumerate(self.edges):
            if edge.p != p:
                raise DimensionMismatch(
                    f"edge {j + 1} output dim {edge.p} != {p}")
            if edge.m != p:
                raise DimensionMismatch(
                    f"edge {j + 1} input dim {edge.m} != {p}")

    @property
    def p(self):
        """Common output dimension."""
        return self.nodes[0].p

    @property
    def n_nodes(self):
        return self.topology.N

    def dynamic_indices(self):
        """0-based indices of nodes that carry dynamics."""
        return [i for i, nd in enumerate(self.nodes) if not is_static(nd)]

    def static_indices(self):
        return [i for i, nd in enumerate(self.nodes) if is_static(nd)]
