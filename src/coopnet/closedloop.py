"""Closed-loop assembly: the simulation-form state matrix, the
error-coordinate matrix, and the coupling-gain stability boundary search.

Every regime's loop is made of node loops, edge systems and a layer of
coupling-driven reference generators (empty for tracking).  The layer is
described once, by :func:`coopnet.synthesis.reference_layer`, and each
node's role by :data:`coopnet.synthesis.NODE_ROLES`; every matrix and map
is built from them.  The error-coordinate matrix is affine
in the coupling gain, ``A(eps) = A0 + eps A1``: the pencil is built once
and then evaluated, by :func:`assemble` at one gain and by every probe of
:func:`epsilon_star`; the Lemma-1 block split reads its blocks.  The
simulation form shares the pencil's node/edge block: node, controller and
edge states obey the same equations in both, so :func:`assemble` copies
that block from A0 and adds only the reference and exosystem rows and
columns.  Every weighted interconnection is one call of
:func:`coopnet.topology.assemble_weighted_blocks`.

Both assembled matrices carry index maps from (entity kind, entity id) to
state offsets; assembly is deterministic, so re-assembly reproduces them
entrywise.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import lemma1_certificate, spectral_abscissa
from .errors import (
    HypothesisViolated,
    MissingMaps,
    NoStableEps,
    NumericalFailure,
    ValidationError,
)
from .network import is_static
from .synthesis import (
    NODE_ROLES,
    CooperationMaps,
    MasterSlaveMaps,
    TrackingMaps,
    edge_reference_block,
    reference_layer,
)
from .topology import assemble_weighted_blocks, block_diag

#: spectral abscissa below which the error system counts as stable
STABILITY_TOL = 1e-9
#: relative width to which epsilon_star bisects the stability boundary
BISECT_REL_WIDTH = 1e-3


@dataclass(frozen=True)
class IndexEntry:
    """One state block: kind, 1-based entity id, offset and length."""

    kind: str
    entity: int
    offset: int
    length: int


class _Layout:
    """Offset bookkeeping for a block state vector."""

    def __init__(self):
        self.entries = []
        self.size = 0
        self._slices = {}

    def add(self, kind, entity, length):
        entry = IndexEntry(kind=kind, entity=int(entity),
                           offset=self.size, length=int(length))
        self.entries.append(entry)
        self._slices[(kind, int(entity))] = slice(self.size,
                                                  self.size + int(length))
        self.size += int(length)
        return entry

    def sl(self, kind, entity):
        return self._slices[(kind, int(entity))]

    def index(self, kind, entities):
        """State indices of the ``kind`` blocks of 0-based ``entities``."""
        sls = [self.sl(kind, i + 1) for i in entities]
        return np.array([k for s in sls for k in range(s.start, s.stop)],
                        dtype=int)


@dataclass(frozen=True)
class ClosedLoop:
    """Assembled closed loop for one regime at one coupling gain.

    ``A_full``/``index_map`` describe the simulation-form state (actual
    node, controller, edge, reference and command states); ``A_error`` /
    ``error_index_map`` the regime's error-coordinate system whose spectral
    abscissa decides stability, the pencil ``A0 + eps A1`` evaluated at
    ``eps``.  The leading node/controller and edge block of ``A_full`` is
    the node/edge block of A0.  The output maps extract stacked node
    outputs y, neighboring inputs v, references and errors from the
    simulation-form state.  ``node_roles`` holds each node's role, and
    ``err_kind`` what it regulates.
    """

    regime: str
    eps: float
    A_full: np.ndarray
    index_map: tuple
    A_error: np.ndarray
    error_index_map: tuple
    y_map: np.ndarray
    v_map: np.ndarray
    ref_map: np.ndarray
    err_map: np.ndarray
    node_ids: tuple
    p: int
    err_kind: dict
    node_roles: tuple

    @property
    def n_states(self):
        return self.A_full.shape[0]


def _hat_lists(network, cset):
    dyn = network.dynamic_indices()
    ctrls = [cset.controllers[i] for i in dyn]
    if any(c is None for c in ctrls):
        raise MissingMaps("controller set has unsynthesized dynamic nodes")
    return dyn, ctrls


def assemble(regime, network, cset, maps=None, eps=None):
    """Assemble the closed loop for ``regime`` at coupling gain ``eps``.

    ``maps`` must be the regime's regulation maps (from
    :func:`coopnet.synthesis.build_maps`): the sync error matrix needs the
    per-node regulator maps, cooperation needs the node reference maps,
    master-slave the slave reference maps.  ``eps`` defaults to the
    controller set's stored gain.

    Raises
    ------
    MissingMaps
        If the regime needs maps that were not supplied.
    """
    if regime != cset.regime:
        raise ValidationError(
            "regime", f"controller set was built for {cset.regime!r}")
    eps = cset.eps if eps is None else float(eps)
    if eps < 0:
        raise ValidationError("eps", "coupling gain must be >= 0")
    dyn, _ = _hat_lists(network, cset)
    topo = network.topology
    exo = cset.exo
    p, q = network.p, exo.q
    layer = reference_layer(network, cset)
    roles = [NODE_ROLES[r] for r in cset.node_roles]
    g_list = [e.C for e in network.edges]
    pencil = _error_pencil(network, cset, maps)

    # ----- simulation form -------------------------------------------------
    lay = _Layout()
    for i in dyn:
        node = network.nodes[i]
        lay.add("node_state", i + 1, node.n)
        lay.add("controller_state", i + 1, cset.controllers[i].im.c)
    for j in range(topo.M):
        lay.add("edge_state", j + 1, network.edges[j].n)
    nx = lay.size
    for i in layer.nodes:
        lay.add("reference_state", i + 1, layer.S.shape[0])
    n_ref = lay.size
    if layer.command is not None:
        for i in layer.nodes:
            lay.add("exo_state", i + 1, q)
    n_cmd = lay.size
    for i, role in enumerate(roles):
        if role.generator == "exo_state":
            lay.add("exo_state", i + 1, q)
    edge, refs = slice(pencil.n_node, nx), slice(nx, n_ref)
    k = len(layer.nodes)

    def xsl(i):
        a = lay.sl("node_state", i + 1)
        b = lay.sl("controller_state", i + 1)
        return slice(a.start, b.stop)

    # node/controller and edge states are ordered as the pencil's node and
    # edge errors, and obey the same equations
    a_full = np.zeros((lay.size, lay.size))
    a_full[:nx, :nx] = pencil.A0[:nx, :nx]
    for i in dyn:
        a_full[xsl(i), lay.sl(roles[i].generator, i + 1)] = \
            cset.controllers[i].Dhat_ref
    static = network.static_indices()
    a_full[edge, lay.index("exo_state", static)] = assemble_weighted_blocks(
        topo.H[static].T, [e.B for e in network.edges],
        [exo.Q_eta] * len(static))
    a_full[refs, refs] = block_diag([layer.S] * k)
    a_full[refs, edge] = -eps * assemble_weighted_blocks(
        topo.H[list(layer.nodes)], [layer.B] * k, g_list)
    if layer.command is not None:
        a_full[refs, n_ref:n_cmd] = block_diag([-eps * layer.command] * k)
    # every state after the references is an exosystem copy
    a_full[n_ref:, n_ref:] = block_diag([exo.S] * ((lay.size - n_ref) // q))

    # ----- output maps ------------------------------------------------------
    node_ids = tuple(i + 1 for i in range(topo.N))
    y_map = np.zeros((topo.N * p, lay.size))
    v_map = np.zeros((topo.N * p, lay.size))
    ref_map = np.zeros((topo.N * p, lay.size))
    v_map[:, edge] = -assemble_weighted_blocks(
        topo.H, [np.eye(p)] * topo.N, g_list)
    for i, role in enumerate(roles):
        rows = slice(i * p, (i + 1) * p)
        if is_static(network.nodes[i]):
            y_map[rows, lay.sl("exo_state", i + 1)] = exo.Q_eta
        else:
            y_map[rows, xsl(i)] = cset.controllers[i].Chat
        if role.regulates == "input":
            ref_map[rows, lay.sl("exo_state", i + 1)] = exo.Q_v
        else:
            ref_map[rows, lay.sl(role.generator, i + 1)] = exo.Q_eta
    err_kind = {i + 1: role.regulates for i, role in enumerate(roles)}
    inputs = np.repeat([err_kind[i] == "input" for i in node_ids], p)
    err_map = np.where(inputs[:, None], v_map, y_map) - ref_map

    return ClosedLoop(
        regime=regime, eps=eps, A_full=a_full, index_map=tuple(lay.entries),
        A_error=pencil.A0 + eps * pencil.A1,
        error_index_map=pencil.index_map,
        y_map=y_map, v_map=v_map, ref_map=ref_map, err_map=err_map,
        node_ids=node_ids, p=p, err_kind=err_kind,
        node_roles=cset.node_roles)


#: regulation maps holding each driven node's reference-generator map
_NODE_REFERENCE_MAPS = {"sync": (TrackingMaps, "Pi"),
                        "cooperation": (CooperationMaps, "Pi_bar1"),
                        "master_slave": (MasterSlaveMaps, "Pi_f_ref")}


@dataclass(frozen=True)
class _Pencil:
    """Error-coordinate matrix ``A(eps) = A0 + eps A1``.

    The first ``n_node`` states are node errors, the next ``n_edge`` edge
    errors, the rest reference errors.
    """

    A0: np.ndarray
    A1: np.ndarray
    index_map: tuple
    n_node: int
    n_edge: int


def _error_pencil(network, cset, maps):
    """The regime's error-coordinate matrix as a pencil in eps.

    A1 holds the two coupling-gain paths: the reference layer's drive from
    the edges, and its image in the node errors through each driven node's
    reference map (W5 per unit eps).
    """
    dyn, ctrls = _hat_lists(network, cset)
    layer = reference_layer(network, cset)
    f_list = [e.B for e in network.edges]
    g_list = [e.C for e in network.edges]
    h_dyn = network.topology.H[dyn, :]
    pi = {}
    if cset.regime in _NODE_REFERENCE_MAPS:
        kind, attr = _NODE_REFERENCE_MAPS[cset.regime]
        if not isinstance(maps, kind):
            raise MissingMaps(
                f"{cset.regime} assembly needs {kind.__name__}")
        pi = getattr(maps, attr)
    drive = [pi[i + 1] @ layer.B if i in layer.nodes
             else np.zeros((c.nc, network.p)) for i, c in zip(dyn, ctrls)]
    er0, er1, _ = edge_reference_block(network, layer)

    lay = _Layout()
    for i, c in zip(dyn, ctrls):
        lay.add("node_error", i + 1, c.nc)
    nn = lay.size
    for j, edge in enumerate(network.edges):
        lay.add("edge_error", j + 1, edge.n)
    nz = lay.size - nn
    for k in layer.row_ids:
        lay.add("reference_error", k, layer.S.shape[0])

    node, edge = slice(0, nn), slice(nn, nn + nz)
    a0 = np.zeros((lay.size, lay.size))
    a1 = np.zeros_like(a0)
    a0[node, node] = block_diag([c.Ahat for c in ctrls])
    a0[node, edge] = -assemble_weighted_blocks(
        h_dyn, [c.Dhat for c in ctrls], g_list)
    a0[edge, node] = assemble_weighted_blocks(
        h_dyn.T, f_list, [c.Chat for c in ctrls])
    a0[nn:, nn:] = er0
    a1[node, edge] = assemble_weighted_blocks(h_dyn, drive, g_list)
    a1[nn:, nn:] = er1
    return _Pencil(A0=a0, A1=a1, index_map=tuple(lay.entries), n_node=nn,
                   n_edge=nz)


# ---------------------------------------------------------------------------
# coupling-gain boundary


@dataclass(frozen=True)
class EpsilonStar:
    """Result of the coupling-gain boundary search.

    ``eps_bisect`` is the operative value (largest stable gain found by the
    probe + bisection scheme, or ``eps_hi`` when the whole grid is stable);
    ``crossed`` says whether a stable-to-unstable crossing was found below
    the ceiling, so False means ``eps_bisect`` is the ceiling and not a
    boundary.  ``eps_analytic`` is the conservative constructive bound from
    the block certificate, reported for comparison and never used as the
    operative value; when it is NaN, ``analytic_failure`` says why (a
    violated Lemma-1 hypothesis or a numerical failure of the
    construction), and it is empty otherwise.
    """

    eps_bisect: float
    eps_analytic: float
    abscissa_at_bisect: float
    probes: tuple
    probe_abscissas: tuple
    crossed: bool
    analytic_failure: str


def _lemma1_split(pencil, cset, eps):
    node = slice(0, pencil.n_node)
    edge = slice(pencil.n_node, pencil.n_node + pencil.n_edge)
    a0 = pencil.A0
    p_w = block_diag([c.Phat.P for c in cset.controllers if c is not None])
    q_w = block_diag([cert.P for cert in cset.edge_certificates])
    return (a0[node, node], a0[node, edge], a0[edge, node], a0[edge, edge],
            eps * pencil.A1[node, edge], p_w, q_w)


def _analytic_bound(pencil, cset):
    """``(bound, why)``: the analytic bound, and why it is NaN (else "")."""
    w1, w2, w3, w4, w5_unit, p_w, q_w = _lemma1_split(pencil, cset, 1.0)
    norm = float(np.linalg.norm(w5_unit, 2)) if w5_unit.size else 0.0
    if norm == 0.0:
        return float("inf"), ""  # no coupling path at all
    # the constructive bound is report-only, so its failure is reported, not
    # raised: either a hypothesis fails or the scales defeat the tolerances
    try:
        _, eps_bar = lemma1_certificate(
            w1, w2, w3, w4, np.zeros_like(w2), p_w, q_w)
    except HypothesisViolated as exc:
        return float("nan"), f"Lemma-1 hypothesis violated: {exc}"
    except NumericalFailure as exc:
        return float("nan"), (f"numerical failure, not a violated Lemma-1 "
                              f"hypothesis: {type(exc).__name__}: {exc}")
    return eps_bar / norm, ""


def epsilon_star(network, cset, maps, eps_hi, n_probes=16):
    """Largest stable coupling gain in (0, eps_hi] by probing + bisection.

    A coarse log-spaced grid locates the stable bracket containing the
    largest stable probe; bisection refines the boundary to relative width
    ``BISECT_REL_WIDTH``.  Stability means the error-coordinate matrix has
    spectral abscissa below ``-STABILITY_TOL``.  The matrix is built once,
    as the pencil ``A0 + eps A1``; each probe only evaluates it and takes
    its eigenvalues.

    Raises
    ------
    NoStableEps
        If no probe in the grid is stable.
    """
    if eps_hi <= 0:
        raise ValidationError("eps_hi", "search ceiling must be > 0")

    pencil = _error_pencil(network, cset, maps)

    def abscissa(eps):
        return spectral_abscissa(pencil.A0 + eps * pencil.A1)

    probes = np.geomspace(eps_hi * 1e-4, eps_hi, n_probes)
    aabs = np.array([abscissa(e) for e in probes])
    stable = aabs < -STABILITY_TOL
    if not stable.any():
        raise NoStableEps(
            f"no stable coupling gain among probes in "
            f"[{probes[0]:.3e}, {probes[-1]:.3e}]")
    k = int(np.max(np.nonzero(stable)[0]))
    analytic, why = _analytic_bound(pencil, cset)
    if k == len(probes) - 1:
        return EpsilonStar(
            eps_bisect=float(probes[-1]), eps_analytic=analytic,
            abscissa_at_bisect=float(aabs[-1]),
            probes=tuple(probes), probe_abscissas=tuple(aabs),
            crossed=False, analytic_failure=why)
    lo, hi = float(probes[k]), float(probes[k + 1])
    # the abscissa at lo moves with it, so lo is never evaluated twice
    lo_abscissa = float(aabs[k])
    while (hi - lo) > BISECT_REL_WIDTH * lo:
        mid = 0.5 * (lo + hi)
        mid_abscissa = abscissa(mid)
        if mid_abscissa < -STABILITY_TOL:
            lo, lo_abscissa = mid, mid_abscissa
        else:
            hi = mid
    return EpsilonStar(
        eps_bisect=lo, eps_analytic=analytic,
        abscissa_at_bisect=lo_abscissa,
        probes=tuple(probes), probe_abscissas=tuple(aabs),
        crossed=True, analytic_failure=why)
