"""Closed-loop assembly: the simulation-form state matrix, the
error-coordinate matrix, and the coupling-gain stability boundary search.

Every regime's loop is made of node loops, edge systems and a layer of
coupling-driven reference generators (empty for tracking).  The layer is
described once, by :func:`coopnet.synthesis.reference_layer`, and each
node's role by :data:`coopnet.synthesis.NODE_ROLES`; every matrix and map
is built from them.  The error-coordinate matrix is affine
in the coupling gain, ``A(eps) = A0 + eps A1``: the pencil is built once
and then evaluated, by :func:`assemble` at one gain and by every probe of
:func:`epsilon_star`.  The simulation form shares the pencil's node/edge
block: node, controller and edge states obey the same equations in both,
so :func:`assemble` copies that block from A0 and adds only the reference
and exosystem rows and columns.  Every weighted interconnection is one call of
:func:`coopnet.topology.assemble_weighted_blocks`.

Both assembled matrices carry index maps from (entity kind, entity id) to
state offsets; assembly is deterministic, so re-assembly reproduces them
entrywise.

The boundary search, :func:`epsilon_star`, eigen-decomposes the probes
from the ceiling down to the first stable one, finds where the critical
eigenvalue crosses the stability line by Newton on eigenpairs tracked by
Rayleigh-quotient iteration, and returns a bracket of relative width
``BRACKET_REL_WIDTH`` around that crossing, verified at both ends.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import rightmost_eigenvalue, spectral_abscissa
from .errors import MissingMaps, NoStableEps, ValidationError
from .network import is_static
from .synthesis import NODE_ROLES, edge_reference_block, reference_layer
from .topology import assemble_weighted_blocks, block_diag

#: spectral abscissa below which the error system counts as stable
STABILITY_TOL = 1e-9
#: relative width of the stable/unstable bracket that epsilon_star returns
BRACKET_REL_WIDTH = 1e-8


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
    outputs y, neighboring inputs v and references from the
    simulation-form state.  ``node_roles`` holds each node's role, and
    ``err_kind`` what it regulates: a node's error is that signal minus
    its reference.
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
    :func:`coopnet.synthesis.build_maps`) whenever the regime has a
    reference layer: the error matrix reads the reference maps of the
    layer's nodes.  Maps that are supplied must be the regime's.  ``eps``
    defaults to the controller set's stored gain.

    Raises
    ------
    MissingMaps
        If the regime needs maps and none were supplied, or the supplied
        ones were built for another regime.
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

    return ClosedLoop(
        regime=regime, eps=eps, A_full=a_full, index_map=tuple(lay.entries),
        A_error=pencil.A0 + eps * pencil.A1,
        error_index_map=pencil.index_map,
        y_map=y_map, v_map=v_map, ref_map=ref_map,
        node_ids=node_ids, p=p, err_kind=err_kind,
        node_roles=cset.node_roles)


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
    # maps are needed when the layer has nodes, and checked when given
    if (layer.nodes or maps is not None) and \
            getattr(maps, "regime", None) != cset.regime:
        raise MissingMaps(
            f"{cset.regime} assembly needs the {cset.regime} maps of "
            f"build_maps")
    drive = [maps.reference[i + 1] @ layer.B if i in layer.nodes
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


#: residual of a tracked eigenpair, relative to ||A(eps)||_F, at which it
#: counts as converged
_PAIR_TOL = 1e-12
#: the loosest relative residual of the eigenpair at a Newton iterate
_NEWTON_PAIR_TOL = 1e-6
#: Rayleigh-quotient steps (linear solves) allowed for one eigenpair
_RQI_STEPS = 16
#: Newton steps allowed for the crossing
_NEWTON_STEPS = 16
#: relative Newton step at which the crossing counts as found
_NEWTON_TOL = 1e-12
#: eigenvalue branches tracked before the search falls back to bisection
_BRANCHES = 3


@dataclass(frozen=True)
class EpsilonStar:
    """Result of the coupling-gain boundary search.

    ``eps_bisect`` is the operative value: the stable end of a bracket of
    relative width ``BRACKET_REL_WIDTH`` whose upper end is unstable, or
    ``eps_hi`` when the ceiling probe is stable.  ``abscissa_at_bisect`` is
    its spectral abscissa.  ``crossed`` says whether a stable-to-unstable
    crossing was found below the ceiling, so False means ``eps_bisect`` is
    the ceiling and not a boundary.  ``probes`` and ``probe_abscissas``
    hold the grid probes actually decomposed, in ascending eps: the scan
    runs from the ceiling down and stops at the first stable probe.
    ``eps_crossing`` is the gain at which the critical eigenvalue's real
    part reaches ``-STABILITY_TOL``, inside the bracket, and
    ``omega_crossing`` its ``|Im|`` there; both are NaN when ``crossed``
    is False, or when the search fell back to bisection by eigenvalues.
    """

    eps_bisect: float
    abscissa_at_bisect: float
    probes: tuple
    probe_abscissas: tuple
    crossed: bool
    eps_crossing: float
    omega_crossing: float


@dataclass(frozen=True)
class _Pair:
    """A converged eigenpair: the eigenvalue, unit right and left vectors,
    and a first-order bound on the eigenvalue's error (residual times
    condition number)."""

    lam: complex
    x: np.ndarray
    y: np.ndarray
    err: float


def _matvec(a, z):
    """``a @ z`` for real ``a`` and complex ``z``, as two real products
    (numpy's mixed real-complex product is far slower)."""
    return a @ z.real + 1j * (a @ z.imag)


def _eigenpair(a, sigma, x, y, rtol=_PAIR_TOL):
    """Two-sided Rayleigh-quotient iteration on ``a`` from the shift
    ``sigma`` and the right/left vectors ``x``/``y`` (Parlett, Math. Comp.
    1974), one vector per step.

    Each step solves ``(a - sigma I) x' = x`` for the right vector, or
    ``(a - sigma I)^H y' = y`` for the left one when its residual is the
    larger, and takes the two-sided Rayleigh quotient as the next shift.
    Returns the pair once both residuals are below ``rtol ||a||_F``, or
    None, also when a shift is exactly an eigenvalue (a singular solve).
    """
    tol, res_x, res_y = rtol * np.linalg.norm(a), np.inf, np.inf
    shifted, diagonal = a.astype(complex), a.diagonal()
    for _ in range(_RQI_STEPS):
        shifted.flat[::a.shape[0] + 1] = diagonal - sigma
        try:
            if res_x >= res_y:
                x = np.linalg.solve(shifted, x)
            else:
                y = np.linalg.solve(shifted.T, y.conj()).conj()
        except np.linalg.LinAlgError:
            return None
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        ax, ya, yx = _matvec(a, x), _matvec(a.T, y.conj()), y.conj() @ x
        sigma = (ya @ x) / yx
        res_x = np.linalg.norm(ax - sigma * x)
        res_y = np.linalg.norm(ya - sigma * y.conj())
        if not np.isfinite(res_x + res_y):
            return None
        if max(res_x, res_y) <= tol:
            return _Pair(lam=complex(sigma), x=x, y=y,
                         err=max(res_x, res_y) / abs(yx))
    return None


@dataclass(frozen=True)
class _Crossing:
    """Where the tracked eigenvalue's real part reaches -STABILITY_TOL:
    the gain, the eigenvalue there, its derivative in eps, and the
    eigenvectors of the last Newton iterate."""

    eps: float
    lam: complex
    slope: complex
    x: np.ndarray
    y: np.ndarray

    def unstable_at(self, pencil, eps):
        """Whether A(eps) has an eigenpair, tracked from the crossing and
        residual-certified, whose eigenvalue lies right of
        -STABILITY_TOL by more than its error bound."""
        pair = _eigenpair(pencil.A0 + eps * pencil.A1,
                          self.lam + (eps - self.eps) * self.slope,
                          self.x, self.y)
        return pair is not None and \
            pair.lam.real - pair.err >= -STABILITY_TOL


def _crossing(pencil, lo, hi, lam_hi):
    """Newton on ``Re lambda(eps) + STABILITY_TOL`` inside the bracket
    ``(lo, hi]``, from the rightmost eigenvalue ``lam_hi`` of A(hi).

    The derivative is Kato's first-order ``d lambda / d eps = y^H A1 x /
    y^H x``.  Each iterate's eigenpair comes from :func:`_eigenpair`,
    started at the first-order prediction of the eigenvalue and converged
    to relative residuals below the square of the relative step to it,
    clipped to [``_PAIR_TOL``, ``_NEWTON_PAIR_TOL``].  The bracket shrinks
    with the sign of each iterate, and a step that leaves it is replaced by
    its midpoint.  Returns the crossing, or None when an
    eigenpair fails to converge or the steps run out.
    """
    start = np.random.default_rng(0).standard_normal(pencil.A0.shape[0])
    eps = hi
    pair = _eigenpair(pencil.A0 + hi * pencil.A1, lam_hi, start, start)
    for _ in range(_NEWTON_STEPS):
        if pair is None:
            return None
        slope = (pair.y.conj() @ _matvec(pencil.A1, pair.x)) / \
            (pair.y.conj() @ pair.x)
        f = pair.lam.real + STABILITY_TOL
        if f < 0:
            lo = eps
        else:
            hi = eps
        nxt = eps - f / slope.real if slope.real > 0 else np.nan
        if abs(nxt - eps) <= _NEWTON_TOL * eps:
            return _Crossing(eps=float(nxt),
                             lam=complex(pair.lam + (nxt - eps) * slope),
                             slope=complex(slope), x=pair.x, y=pair.y)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        # inexact Newton (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal.
        # 1982): near the crossing the step shrinks quadratically, so the
        # pair at nxt need not be more accurate than the square of the step
        pair = _eigenpair(pencil.A0 + nxt * pencil.A1,
                          pair.lam + (nxt - eps) * slope, pair.x, pair.y,
                          min(_NEWTON_PAIR_TOL,
                              max(_PAIR_TOL, ((nxt - eps) / eps) ** 2)))
        eps = nxt
    return None


def epsilon_star(network, cset, maps, eps_hi, n_probes=16):
    """Largest stable coupling gain in (0, eps_hi], to relative width
    ``BRACKET_REL_WIDTH``.

    Stability means the error-coordinate matrix ``A(eps) = A0 + eps A1``
    (built once, as a pencil) has spectral abscissa below
    ``-STABILITY_TOL``.  The search runs in three steps:

    1. *Scan from the top.*  The log-spaced grid of ``n_probes`` gains is
       eigen-decomposed from the ceiling down, stopping at the first
       stable probe k, the largest stable one.  If that is the ceiling, it
       is the result, with ``crossed`` False.
    2. *Track the crossing.*  Inside (probe k, probe k+1], the rightmost
       eigenvalue of probe k+1 is followed by :func:`_crossing`: Newton on
       its real part, each step an eigenpair of :func:`_eigenpair` (a few
       complex linear solves), not a decomposition.  It returns the
       crossing c.
    3. *Verify the bracket* lo = c (1 - W/2), hi = c (1 + W/2), with
       W = ``BRACKET_REL_WIDTH``.  hi must carry a residual-certified
       eigenpair right of ``-STABILITY_TOL``, and lo is eigen-decomposed
       and must be stable.  If lo is unstable, another eigenvalue crosses
       first: steps 2-3 run again from lo's rightmost eigenvalue, for up to
       ``_BRANCHES`` eigenvalues in all.

    If the tracking or the verification fails, the search falls back to
    bisection by eigenvalues on (probe k, probe k+1], to the same width.
    ``eps_bisect`` is lo on either path: a decomposed stable gain within
    ``W lo`` of a verified unstable one.

    Raises
    ------
    NoStableEps
        If no probe in the grid is stable.
    """
    if eps_hi <= 0:
        raise ValidationError("eps_hi", "search ceiling must be > 0")

    pencil = _error_pencil(network, cset, maps)
    grid = np.geomspace(eps_hi * 1e-4, eps_hi, n_probes)
    top = []  # rightmost eigenvalues, from the ceiling down
    for eps in grid[::-1]:
        top.append(rightmost_eigenvalue(pencil.A0 + eps * pencil.A1))
        if top[-1].real < -STABILITY_TOL:
            break
    else:
        raise NoStableEps(
            f"no stable coupling gain among probes in "
            f"[{grid[0]:.3e}, {grid[-1]:.3e}]")
    k = n_probes - len(top)
    fields = dict(probes=tuple(grid[k:]),
                  probe_abscissas=tuple(lam.real for lam in reversed(top)))
    if k == n_probes - 1:
        return EpsilonStar(
            eps_bisect=float(grid[-1]), abscissa_at_bisect=top[0].real,
            crossed=False, eps_crossing=np.nan, omega_crossing=np.nan,
            **fields)

    def tracked(eps, lam):
        """The verified bracket's lo, its abscissa and the crossing tracked
        from ``lam``, the rightmost eigenvalue of A(eps), or None."""
        for _ in range(_BRANCHES):
            cross = _crossing(pencil, float(grid[k]), eps, lam)
            if cross is None or not cross.unstable_at(
                    pencil, cross.eps * (1 + 0.5 * BRACKET_REL_WIDTH)):
                return None
            lo = cross.eps * (1 - 0.5 * BRACKET_REL_WIDTH)
            lam = rightmost_eigenvalue(pencil.A0 + lo * pencil.A1)
            if lam.real < -STABILITY_TOL:
                return lo, lam.real, cross
            eps = lo  # another eigenvalue crosses first: track it from lo
        return None

    def bisected():
        """lo and its abscissa by bisection by eigenvalues, and no
        crossing."""
        lo, hi, a_lo = float(grid[k]), float(grid[k + 1]), top[-1].real
        while hi - lo > BRACKET_REL_WIDTH * lo:
            mid = 0.5 * (lo + hi)
            a_mid = spectral_abscissa(pencil.A0 + mid * pencil.A1)
            if a_mid < -STABILITY_TOL:
                lo, a_lo = mid, a_mid
            else:
                hi = mid
        return lo, a_lo, None

    lo, a_lo, cross = tracked(float(grid[k + 1]), top[-2]) or bisected()
    return EpsilonStar(
        eps_bisect=lo, abscissa_at_bisect=a_lo, crossed=True,
        eps_crossing=np.nan if cross is None else cross.eps,
        omega_crossing=np.nan if cross is None else abs(cross.lam.imag),
        **fields)
