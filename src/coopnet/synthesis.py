"""Controller construction.

Builds the p-copy internal models and the passifying feedback gains with
their storage-function certificates, and assembles them into a per-network
ControllerSet after running the standing assumption checks.  Every regime's
steady-state maps are one RegulationMaps record, each map one
regulator_map solution.
"""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    Certificate,
    Exosystem,
    STRICT_MARGIN,
    _raised,
    _spr_checked,
    _spr_riccati_test,
    _stacked_forms,
    _sym,
    checked_storage,
    controllable,
    edge_system,
    marginal_eig,
    marginal_kernel_certificate,
    node_normal_form,
    observable,
    spectral_abscissa,
    spr_certificates,
    sylvester_solve,
)
from .errors import (
    AllSlaves,
    AssumptionFailed,
    CertificateFailed,
    IdentityViolated,
    InternalModelViolated,
    NotHurwitz,
    SpectrumNotMarginal,
    SynthesisFailed,
    ValidationError,
)
from .network import is_static
from .topology import (
    assemble_weighted_blocks,
    block_diag,
    check_connected,
    matrix_rank,
)

REGIMES = ("tracking", "sync", "cooperation", "master_slave")

#: residual tolerance for the regulator output identities
MAP_IDENTITY_TOL = 1e-8
#: the output-feedback gains kappa that passify_node tries: 0, 1, 2, 4, ...
KAPPA_MAX = 2 ** 24
KAPPAS = np.concatenate([[0.0], 2.0 ** np.arange(KAPPA_MAX.bit_length())])
#: scales of G1's marginal-kernel certificate that passify_node damps with
CERTIFICATE_SCALES = np.geomspace(1e-6, 1e6, 25)
#: norm below which the cooperation commands count as summing to zero
ZERO_SUM_TOL = 1e-10


# ---------------------------------------------------------------------------
# internal models


@dataclass(frozen=True)
class InternalModel:
    """p parallel copies of the reference dynamics, in any coordinates.

    :func:`p_copy_internal_model` builds ``G1`` block diagonal with p
    companion blocks of the reference generator's minimal polynomial and
    ``G2`` with the matching unit input columns; a supplied model only has
    to pass :func:`validate_internal_model`.  ``minimal_poly_coeffs`` holds
    (a_1, ..., a_q) of lambda^q + a_1 lambda^{q-1} + ... + a_q.
    :attr:`scaled_gains`, built on first use and kept on the object, is
    what every node that :func:`passify_node` designs with this model
    reads.
    """

    G1: np.ndarray
    G2: np.ndarray
    minimal_poly_coeffs: tuple

    @property
    def c(self):
        """Controller state dimension."""
        return self.G1.shape[0]

    @property
    def copies(self):
        return self.G2.shape[1]

    @functools.cached_property
    def scaled_gains(self):
        """``(P_g, K)``: the marginal-kernel certificate P_g of G1 and, for
        each rho of :data:`CERTIFICATE_SCALES`, ``K[i] = -G2.T (rho
        P_g)^{-1}``, the K_zeta that storage scale gives."""
        p_g = marginal_kernel_certificate(self.G1)
        scaled = CERTIFICATE_SCALES[:, None, None] * p_g
        return p_g, -np.swapaxes(np.linalg.solve(np.swapaxes(scaled, 1, 2),
                                                 self.G2), 1, 2)


def minimal_polynomial_coeffs(s):
    """Coefficients (a_1..a_q) of the minimal polynomial of a marginal,
    simple-spectrum S: the product of lambda^2 + w^2 over its eigenvalues
    i w with w > 0, times lambda when q is odd, so a_1, a_3, ... are
    exactly 0."""
    lam = marginal_eig(s, require_simple=True)[0]
    coeffs = np.ones(1)
    for w in lam.imag[lam.imag > 0]:
        coeffs = np.convolve(coeffs, [1.0, 0.0, w * w])
    if lam.size % 2:
        coeffs = np.append(coeffs, 0.0)
    return tuple(float(c) for c in coeffs[1:])


def p_copy_internal_model(s, p):
    """Minimal p-copy internal model of the reference dynamics ``s``.

    Raises
    ------
    SpectrumNotMarginal
        If ``s`` has eigenvalues off the imaginary axis or repeated ones.
    """
    if p < 1:
        raise ValidationError("p", "need at least one copy")
    coeffs = minimal_polynomial_coeffs(s)
    q = len(coeffs)
    alpha = np.eye(q, k=1)
    alpha[-1] = -np.asarray(coeffs)[::-1]
    return internal_model_from_matrices(np.kron(np.eye(p), alpha),
                                        np.kron(np.eye(p), np.eye(q)[:, -1:]),
                                        s)


def internal_model_from_matrices(g1, g2, s):
    """Wrap (G1, G2), with as many copies as G2 has columns, after
    :func:`validate_internal_model`."""
    g1 = np.atleast_2d(np.asarray(g1, dtype=float))
    g2 = np.atleast_2d(np.asarray(g2, dtype=float))
    s = np.atleast_2d(np.asarray(s, dtype=float))
    coeffs = minimal_polynomial_coeffs(s)
    im = InternalModel(G1=g1, G2=g2, minimal_poly_coeffs=coeffs)
    return validate_internal_model(im, s)


def validate_internal_model(im, s):
    """PBH controllability of (G1, G2) and the p-copy condition: every
    eigenvalue lambda of S has ``rank(lambda I - G1) <= c - copies``.

    Raises
    ------
    InternalModelViolated
        If (G1, G2) is not controllable, or G1 lacks a copy of an
        eigenvalue of S (the message names it).
    """
    if not controllable(im.G1, im.G2):
        raise InternalModelViolated("(G1, G2) is not controllable")
    eye = np.eye(im.c)
    for lam in marginal_eig(s, require_simple=True)[0]:
        held = im.c - matrix_rank(lam * eye - im.G1)
        if held < im.copies:
            raise InternalModelViolated(
                f"G1 holds {held} of {im.copies} copies of the reference "
                f"eigenvalue {lam:.6g}: copy {held + 1} is missing")
    return im


# ---------------------------------------------------------------------------
# closed node matrices and the controller record


def hat_matrices(node, k_x, k_zeta, im, ref_q=None):
    """Closed-node matrices (Ahat, Dhat, Dhat_ref, Chat).

    The augmented state is (x, zeta); ``Dhat_ref`` (None when ``ref_q`` is
    None) injects the reference output into the internal model.
    """
    a, b, c = node.A, node.B, node.C
    d = node.D_in
    k_x = np.atleast_2d(np.asarray(k_x, dtype=float))
    k_zeta = np.atleast_2d(np.asarray(k_zeta, dtype=float))
    n, cdim = a.shape[0], im.c
    ahat = np.block([[a + b @ k_x, b @ k_zeta],
                     [im.G2 @ c, im.G1]])
    dhat = np.vstack([d, np.zeros((cdim, d.shape[1]))])
    chat = np.hstack([c, np.zeros((c.shape[0], cdim))])
    dhat_ref = None
    if ref_q is not None:
        ref_q = np.atleast_2d(np.asarray(ref_q, dtype=float))
        dhat_ref = np.vstack([np.zeros((n, ref_q.shape[1])),
                              -im.G2 @ ref_q])
    return ahat, dhat, dhat_ref, chat


@dataclass(frozen=True)
class NodeController:
    """Per-node controller: gains, internal model and closed-node matrices.

    ``regime`` is the node's role, a key of :data:`NODE_ROLES`;
    ``Dhat_ref`` injects the output of the reference generator that role
    follows.  ``Phat`` is the passivity certificate of the closed node
    (storage form: ``Phat Ahat + Ahat.T Phat <= 0`` and
    ``Phat Dhat = Chat.T``).
    """

    regime: str
    K_x: np.ndarray
    K_zeta: np.ndarray
    im: InternalModel
    Phat: Certificate
    Ahat: np.ndarray = field(repr=False, default=None)
    Dhat: np.ndarray = field(repr=False, default=None)
    Dhat_ref: np.ndarray = field(repr=False, default=None)
    Chat: np.ndarray = field(repr=False, default=None)

    @property
    def nc(self):
        """Augmented state dimension n + c."""
        return self.Ahat.shape[0]


def make_node_controller(node, regime, k_x, k_zeta, im, ref_q, phat=None,
                         loop_cert=None):
    """Assemble and verify a NodeController record: the closed node must be
    Hurwitz and the storage ``phat`` (by default :func:`_gain_storage`) pass
    ``checked_storage``.  ``ref_q``: the role's reference output."""
    ahat, dhat, dhat_ref, chat = hat_matrices(node, k_x, k_zeta, im, ref_q)
    absc = spectral_abscissa(ahat)
    if absc >= 0:
        raise NotHurwitz(f"closed node has spectral abscissa {absc:.3e}")
    k_x = np.atleast_2d(np.asarray(k_x, dtype=float))
    k_zeta = np.atleast_2d(np.asarray(k_zeta, dtype=float))
    if phat is None:
        phat = _gain_storage(node, k_x, k_zeta, im, loop_cert)
    return NodeController(
        regime=regime, K_x=k_x, K_zeta=k_zeta, im=im,
        Phat=checked_storage(phat, ahat, dhat, chat),
        Ahat=ahat, Dhat=dhat, Dhat_ref=dhat_ref, Chat=chat)


# ---------------------------------------------------------------------------
# passification


def _state_loop(node, k_x):
    """The state loop (A + B K_x, B, C), as a system to certify SPR."""
    return edge_system(node.A + node.B @ np.atleast_2d(k_x), node.B, node.C)


def _loop_storage(cert):
    """Q of a state loop's SPR certificate, or why the loop has none."""
    if isinstance(cert, Exception):
        raise CertificateFailed(f"state loop (A + B K_x, B, C) is not "
                                f"strictly positive real: {cert}")
    return cert.P


def _lattice_gains(nodes):
    """Per node, ``K_x = -kappa (C B)^{-1} C`` at the first kappa of
    :data:`KAPPAS` whose state loop is SPR at decay rate ``STRICT_MARGIN``,
    or the exception naming why there is none.  In the SPR test's
    coordinates U = [B, N] the gain only shifts the leading block of U^{-1}
    A U, by -kappa I: all nodes of a shape at all kappas make one test.
    """
    def form(node):
        if not np.array_equal(node.D_in, node.B):
            raise ValidationError(
                "node.D_in", "constructive passification needs D_in == B")
        node_normal_form(node.A, node.B, node.C)
        return _spr_checked(node.A, node.B, node.C)

    out, groups = _stacked_forms(nodes, form)
    for (n, m), (idx, k, et, *_) in groups.items():
        shift = np.diag(np.arange(n) < m).astype(float)
        loops = (et[:, None] - KAPPAS[:, None, None] * shift).reshape(-1, n, n)
        fails = _spr_riccati_test(np.repeat(k, len(KAPPAS), axis=0), loops,
                                  np.full(len(loops), STRICT_MARGIN))[0]
        for j, passed in zip(idx, fails.reshape(len(idx), -1) == 0):
            c, b = nodes[j].C, nodes[j].B
            out[j] = -KAPPAS[passed.argmax()] * np.linalg.solve(c @ b, c) \
                if passed.any() else SynthesisFailed(
                f"proven: no kappa in 0, 1, 2, ..., {KAPPA_MAX:g} makes the "
                f"state loop strictly positive real with decay rate "
                f"{STRICT_MARGIN:g}")
    return out


def passify_node(node, im, exo):
    """Design passifying gains for a direct-coupling node (``D_in == B``).

    ``K_x = -kappa (C B)^{-1} C`` at the first kappa of 0, 1, 2, 4, ...,
    ``KAPPA_MAX`` whose state loop (A + B K_x, B, C) is strictly positive
    real (feedback passivity: Byrnes, Isidori & Willems, IEEE TAC 1991), Q
    its SPR certificate, and ``K_zeta = -G2.T (rho P_g)^{-1}`` at the
    best-damped scale rho of G1's marginal-kernel certificate P_g; ``Phat =
    blkdiag(Q, (rho P_g)^{-1})``.  :func:`assumption_report` runs the same
    steps on a network, its loops in the edges' SPR call.

    Raises
    ------
    NotHyperMinPhase
        If the node is not hyper-minimum-phase (:func:`node_normal_form`).
    SynthesisFailed
        If no kappa of the lattice gives an SPR state loop (the test is
        exact), or no certificate scale gives a Hurwitz closed node.
    """
    k_x, k_zeta, phat = _passifying_gains(node, im)
    return make_node_controller(node, "tracking", k_x, k_zeta, im,
                                exo.Q_eta, phat)


def _passifying_gains(node, im):
    """Gains and unverified storage of passify_node."""
    k_x = _raised(_lattice_gains([node])[0])
    cert = spr_certificates([_state_loop(node, k_x)])[0]
    return (k_x, *_damped_storage(node, k_x, im, cert))


def _damped_storage(node, k_x, im, loop_cert):
    """``(K_zeta, blkdiag(Q, (rho P_g)^{-1}))`` at the best-damped scale
    rho, Q from the state loop's SPR certificate ``loop_cert``."""
    q = _loop_storage(loop_cert)
    # the free scale picks the best-damped closed node; with Q B = C.T, a
    # lossless P_g and (G1, G2) controllable, LaSalle's principle makes it
    # Hurwitz at every scale (tests pin this on a panel)
    p_g, k_zetas = im.scaled_gains
    stack = np.repeat(hat_matrices(node, k_x, np.zeros((node.m, im.c)),
                                   im)[0][None], len(CERTIFICATE_SCALES), 0)
    stack[:, :node.n, node.n:] = node.B @ k_zetas
    absc = np.linalg.eigvals(stack).real.max(axis=1)
    best = int(np.argmin(absc))
    if absc[best] >= 0:
        raise SynthesisFailed(
            f"closed node not Hurwitz at any certificate scale (best "
            f"spectral abscissa {absc[best]:.3e})")
    return k_zetas[best], block_diag(
        [q, _sym(np.linalg.inv(CERTIFICATE_SCALES[best] * p_g))])


def verify_A5(node, k_x, k_zeta, im, phat=None):
    """The passivity Certificate of externally supplied gains: ``phat``
    checked directly, or else the storage of :func:`_gain_storage`.

    Raises
    ------
    CertificateFailed
        If the state loop (A + B K_x, B, C) is not strictly positive real
        (proven: the test is exact), no marginal storage of G1 matches
        K_zeta, or the storage fails its check.
    NotHurwitz
        If the closed node is not Hurwitz.
    """
    p = phat.P if isinstance(phat, Certificate) else phat
    return make_node_controller(node, "tracking", k_x, k_zeta, im, None,
                                p).Phat


def _gain_storage(node, k_x, k_zeta, im, loop_cert=None):
    """Unverified ``blkdiag(Q, P_g^{-1})`` for supplied gains: Q of the
    state loop's ``loop_cert`` (or certified here), P_g pinned by K_zeta."""
    if not np.array_equal(node.D_in, node.B):
        raise CertificateFailed(
            "indirect coupling (D_in != B): supply the certificate "
            "explicitly")

    # P_g = Re(V D V^H) solves G1 P + P G1.T = 0 exactly when D commutes
    # with the imaginary diag(lam): D is block diagonal on each group J of
    # equal eigenvalues, and K_zeta P_g = -G2.T pins each block,
    # (K_zeta V_J) D_JJ = -G2.T V^{-H}_J
    try:
        lam, v = marginal_eig(im.G1, require_simple=False)
    except SpectrumNotMarginal as exc:
        raise CertificateFailed(f"G1 has no marginal storage: {exc}") \
            from None
    vih = np.linalg.inv(v).conj().T
    same = np.abs(lam[:, None] - lam[None, :]) <= \
        1e-8 * max(1.0, np.abs(lam).max(initial=0.0))
    d = np.zeros((im.c, im.c), dtype=complex)
    for group in {tuple(np.flatnonzero(row)) for row in same}:
        j = list(group)
        d[np.ix_(j, j)] = np.linalg.lstsq(
            k_zeta @ v[:, j], -im.G2.T @ vih[:, j], rcond=None)[0]
    p_g = _sym((v @ d @ v.conj().T).real)
    resid = np.abs(k_zeta @ p_g + im.G2.T).max()
    if resid > 1e-8 * max(1.0, np.abs(im.G2).max()) or \
            np.linalg.eigvalsh(p_g)[0] <= 0:
        raise CertificateFailed(f"no positive definite marginal-kernel "
                                f"storage matches K_zeta (residual "
                                f"{resid:.3e})")
    if loop_cert is None:
        loop_cert = spr_certificates([_state_loop(node, k_x)])[0]
    return block_diag([_loop_storage(loop_cert),
                       _sym(np.linalg.inv(p_g))])


# ---------------------------------------------------------------------------
# node roles and the reference layer


@dataclass(frozen=True)
class NodeRole:
    """How a node takes part in its regime: one row of :data:`NODE_ROLES`.

    ``generator``: the block of the generator the internal model follows,
    ``"exo_state"`` (output Q_eta) or ``"reference_state"`` in the
    :class:`ReferenceLayer` (output its Q).  ``regulates``: ``"output"``,
    y against Q_eta times that generator, or ``"input"``, v against Q_v
    times the node's command.  ``seeds``: initial-value dict -> block.
    ``consensus``: the predicted limit starts from the mean ``eta0`` of all
    nodes, not the node's own ``eta0`` (output) or ``nu0`` (input).
    """

    generator: str
    regulates: str
    seeds: dict
    consensus: bool


_OWN = NodeRole("exo_state", "output", {"eta0": "exo_state"}, False)
_COMMANDED = NodeRole("reference_state", "input",
                      {"nu0": "exo_state", "etabar0": "reference_state"},
                      False)
#: every node role of the four problems; a static node is a master
NODE_ROLES = {"tracking": _OWN, "master": _OWN, "cooperation": _COMMANDED,
              "slave": _COMMANDED,
              "sync": NodeRole("reference_state", "output",
                               {"eta0": "reference_state"}, True)}


def assign_roles(network, regime, roles=None):
    """Each node's :data:`NODE_ROLES` key in ``regime``.

    master_slave reads each node's role from ``roles`` (1-based id ->
    "master" | "slave") and needs a master, else AllSlaves; the others give
    every node the regime's role.  Other faults raise ValidationError.
    """
    if regime not in REGIMES:
        raise ValidationError("regime", f"unknown regime {regime!r}")
    if roles and regime != "master_slave":
        raise ValidationError("roles", "roles only apply to master_slave")
    for key in roles or {}:
        if key not in range(1, network.n_nodes + 1):
            raise ValidationError(f"roles[{key}]", "unknown node")
    assigned = tuple((roles or {}).get(i + 1) if regime == "master_slave"
                     else regime for i in range(network.n_nodes))
    for i, (node, role) in enumerate(zip(network.nodes, assigned)):
        if regime == "master_slave" and role not in ("master", "slave"):
            raise ValidationError(
                f"roles[{i + 1}]", "every node needs 'master' or 'slave'")
        if is_static(node) and role != "master":
            raise ValidationError(
                f"nodes[{i + 1}]",
                "static nodes are only supported as master_slave masters")
    if regime == "master_slave" and "master" not in assigned:
        raise AllSlaves("master_slave needs at least one master node")
    return assigned


@dataclass(frozen=True)
class ReferenceLayer:
    """A regime's layer of coupling-driven reference generators.

    Every closed-loop construction that involves the layer reads it from
    here: the simulation-form rows of :func:`coopnet.closedloop.assemble`,
    the error-coordinate matrix, and the edge/reference steady-state maps.

    Node ``i`` in ``nodes`` (0-based) carries a generator
    ``r_i' = S r_i - eps B sum_j H[i, j] G_j z_j - eps command nu_i`` with
    reference output ``Q r_i``; there is no command term when ``command`` is
    None.  In error coordinates the generators couple to the edges through
    the incidence rows ``rows`` (``Hbar`` when the network-average mode is
    split off, ``H[slaves]`` for master-slave); ``row_ids`` label the
    resulting reference-error blocks.  Tracking's layer is empty: no nodes
    and no rows.
    """

    nodes: tuple
    rows: np.ndarray
    row_ids: tuple
    S: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    command: np.ndarray = None


def reference_layer(network, cset):
    """The :class:`ReferenceLayer` of the controller set's regime."""
    exo, topo = cset.exo, network.topology
    nodes = tuple(i for i, r in enumerate(cset.node_roles)
                  if NODE_ROLES[r].generator == "reference_state")
    if len(nodes) == topo.N:
        # every generator is driven: the network-average mode splits off
        rows, row_ids = topo.Hbar, tuple(range(1, topo.N))
    else:
        rows, row_ids = topo.H[list(nodes)], tuple(i + 1 for i in nodes)
    if cset.G_S is None:
        return ReferenceLayer(nodes, rows, row_ids, exo.S, exo.B_eta,
                              exo.Q_eta)
    return ReferenceLayer(nodes, rows, row_ids, cset.G_S, cset.G_B,
                          cset.G_Q, cset.G_B @ exo.Q_v)


def edge_reference_block(network, layer):
    """Edge systems plus the reference layer in error coordinates.

    Returns ``(A0, A1, B1)``: ``A0 + eps A1`` is the block
    ``[[E, R.T F Q], [-eps B R G, I (x) S]]`` (R = ``layer.rows``; E, F, G
    the stacked edge matrices) and ``eps B1`` its input from the stacked
    commands, ``-eps I (x) command`` on the reference rows (no columns when
    the layer has no command).
    """
    f_list = [e.B for e in network.edges]
    g_list = [e.C for e in network.edges]
    em = block_diag([e.A for e in network.edges])
    nz = em.shape[0]
    k = layer.rows.shape[0]
    n = nz + k * layer.S.shape[0]
    a0, a1 = np.zeros((n, n)), np.zeros((n, n))
    a0[:nz, :nz] = em
    a0[:nz, nz:] = assemble_weighted_blocks(layer.rows.T, f_list,
                                            [layer.Q] * k)
    a0[nz:, nz:] = np.kron(np.eye(k), layer.S)
    a1[nz:, :nz] = -assemble_weighted_blocks(layer.rows, [layer.B] * k,
                                             g_list)
    if layer.command is None:
        return a0, a1, np.zeros((n, 0))
    b1 = np.vstack([np.zeros((nz, k * layer.command.shape[1])),
                    np.kron(np.eye(k), -layer.command)])
    return a0, a1, b1


# ---------------------------------------------------------------------------
# regulation maps


def regulator_map(ahat, dhat_eta, chat, s, q_target):
    """Steady-state map Pi with ``Pi S = Ahat Pi + Dhat_eta``.

    The internal model forces the output identity ``Chat Pi = q_target``.
    It is verified column by column, at ``MAP_IDENTITY_TOL`` times
    max(1, the column's largest target entry): a zero target column is
    held to the absolute tolerance.

    Raises
    ------
    SingularPencil
        If Ahat and S share spectrum.
    InternalModelViolated
        If the output identity fails (malformed internal model).
    """
    pi = sylvester_solve(ahat, s, dhat_eta)
    chat = np.atleast_2d(np.asarray(chat, dtype=float))
    q_target = np.atleast_2d(np.asarray(q_target, dtype=float))
    resid = np.abs(chat @ pi - q_target).max(axis=0, initial=0.0)
    tol = MAP_IDENTITY_TOL * np.maximum(
        1.0, np.abs(q_target).max(axis=0, initial=0.0))
    bad = np.flatnonzero(resid > tol)
    if bad.size:
        j = bad[0]
        raise InternalModelViolated(
            f"output identity Chat Pi = Q fails in column {j + 1} "
            f"(residual {resid[j]:.3e} > {tol[j]:.3e})")
    return pi


@dataclass(frozen=True)
class RegulationMaps:
    """Every steady-state map of one regime, keyed by 1-based node id.

    Each map is one :func:`regulator_map` solution, its output identity
    checked there.  ``reference[i]``: dynamic node i against the generator
    its :data:`NODE_ROLES` row names, (S, Q_eta) or the
    :class:`ReferenceLayer`'s (S, Q), with ``Chat Pi = Q``.  ``network``:
    the edge and layer states of :func:`edge_reference_block` against
    ``I_{k+m} (x) S``, driven by the k layer commands and by the
    references of the m nodes that follow their own generator, with
    ``-(R G) Pi_z = [I_k (x) Q_v, 0]`` (R = ``layer.rows``, Pi_z the edge
    rows); None when the layer has no command.  ``inputs[i]``: node i's
    steady neighbouring input, Q_v per unit of its own command when it
    regulates its input (for cooperation, with commands summing to zero),
    else its rows of ``-H G Pi_z``; ``disturbance[i]``: the node's
    response to it, with ``Chat Pi = 0``.  Both are empty without a
    network map.
    """

    regime: str
    reference: dict
    network: np.ndarray = None
    inputs: dict = field(default_factory=dict)
    disturbance: dict = field(default_factory=dict)


def _solved(name, error, ahat, drive, chat, s, target):
    """:func:`regulator_map`, a failed identity raised as ``error`` that
    names the map."""
    try:
        return regulator_map(ahat, drive, chat, s, target)
    except InternalModelViolated as exc:
        raise error(f"{name}: {exc}") from None


def build_maps(network, cset):
    """The :class:`RegulationMaps` of the controller set's regime.

    Raises
    ------
    ValidationError
        If the layer has a command and ``cset.eps <= 0``.
    IdentityViolated
        If the network map's identity fails.
    InternalModelViolated
        If a node map's identity fails.
    """
    exo, topo, p = cset.exo, network.topology, network.p
    layer = reference_layer(network, cset)
    generators = {"exo_state": (exo.S, exo.Q_eta),
                  "reference_state": (layer.S, layer.Q)}
    dyn = [(i + 1, ctrl, NODE_ROLES[role]) for i, (ctrl, role) in
           enumerate(zip(cset.controllers, cset.node_roles))
           if ctrl is not None]
    reference = {
        i: _solved(f"node {i} reference map", InternalModelViolated,
                   ctrl.Ahat, ctrl.Dhat_ref, ctrl.Chat,
                   *generators[role.generator])
        for i, ctrl, role in dyn}
    if layer.command is None:
        return RegulationMaps(regime=cset.regime, reference=reference)
    if cset.eps <= 0:
        raise ValidationError("eps", f"{cset.regime} maps need eps > 0")

    own = [i for i, role in enumerate(cset.node_roles)
           if NODE_ROLES[role].generator == "exo_state"]
    k, m, q = layer.rows.shape[0], len(own), exo.q
    g_list = [e.C for e in network.edges]
    nz = sum(e.n for e in network.edges)
    a0, a1, b1 = edge_reference_block(network, layer)
    b_own = np.zeros((a0.shape[0], m * q))
    b_own[:nz] = assemble_weighted_blocks(
        topo.H[own].T, [e.B for e in network.edges], [exo.Q_eta] * m)
    c_net = np.zeros((k * p, a0.shape[0]))
    c_net[:, :nz] = -assemble_weighted_blocks(layer.rows, [np.eye(p)] * k,
                                              g_list)
    s_net = np.kron(np.eye(k + m), exo.S)
    pi = _solved("network map (Chat = -(R G), Q = [I (x) Q_v, 0])",
                 IdentityViolated, a0 + cset.eps * a1,
                 np.hstack([cset.eps * b1, b_own]), c_net, s_net,
                 np.hstack([np.kron(np.eye(k), exo.Q_v),
                            np.zeros((k * p, m * q))]))
    v_net = -assemble_weighted_blocks(topo.H, [np.eye(p)] * topo.N,
                                      g_list) @ pi[:nz]

    inputs, disturbance = {}, {}
    for i, ctrl, role in dyn:
        commanded = role.regulates == "input"
        inputs[i] = exo.Q_v if commanded else v_net[(i - 1) * p:i * p]
        s = exo.S if commanded else s_net
        disturbance[i] = _solved(
            f"node {i} disturbance map (Q = 0)", InternalModelViolated,
            ctrl.Ahat, ctrl.Dhat @ inputs[i], ctrl.Chat, s,
            np.zeros((p, s.shape[0])))
    return RegulationMaps(regime=cset.regime, reference=reference,
                          network=pi, inputs=inputs, disturbance=disturbance)


# ---------------------------------------------------------------------------
# controller set assembly


@dataclass(frozen=True)
class ControllerSet:
    """Per-network controller family sharing one coupling gain.

    ``controllers[i]`` is None exactly when node i+1 is a static master;
    ``node_roles[i]`` is its :data:`NODE_ROLES` key.
    ``G_S``/``G_B``/``G_Q`` are the cooperation reference-generator
    matrices (None in the tracking and sync regimes); ``edge_certificates``
    hold the strict-positive-real witnesses found for every edge.
    """

    regime: str
    eps: float
    controllers: tuple
    exo: Exosystem
    edge_certificates: tuple
    node_roles: tuple
    G_S: np.ndarray = None
    G_B: np.ndarray = None
    G_Q: np.ndarray = None

    @property
    def slaves(self):
        return tuple(i for i, r in enumerate(self.node_roles) if r == "slave")

    @property
    def masters(self):
        return tuple(i for i, r in enumerate(self.node_roles)
                     if r == "master")


@dataclass(frozen=True)
class NodeGains:
    """Externally supplied gains for one node (G1/G2 optional)."""

    K_x: np.ndarray
    K_zeta: np.ndarray
    G1: np.ndarray = None
    G2: np.ndarray = None


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one assumption check, with its numerical margin."""

    name: str
    entity: str
    passed: bool
    margin: float
    detail: str = ""

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"{self.name:>4} {self.entity:<12} {status}  "
                f"margin={self.margin: .3e}  {self.detail}")


def cooperation_reference_matrices(exo):
    """Reference-generator triple (G_S, G_B, G_Q) for output cooperation.

    G_S stacks p copies of S; G_B/G_Q distribute the columns of B_eta and
    rows of Q_eta one per copy.  The passivity identities
    ``(I_p x P_eta) G_S + G_S.T (I_p x P_eta) <= 0`` and
    ``(I_p x P_eta) G_B = G_Q.T`` are verified on construction.
    """
    p, q = exo.p, exo.q
    g_s = np.kron(np.eye(p), exo.S)
    g_b = block_diag([exo.B_eta[:, [i]] for i in range(p)])
    g_q = block_diag([exo.Q_eta[[i], :] for i in range(p)])
    checked_storage(np.kron(np.eye(p), exo.P_eta), g_s, g_b, g_q,
                    what="reference generator storage")
    if not observable(g_s, g_q):
        warnings.warn(
            "(G_S, G_Q) is not observable; cooperation limits may not be "
            "asymptotically reached", stacklevel=2)
    return g_s, g_b, g_q


def check_assumptions(network, exo, loops=()):
    """Structural assumption report: ranks (A1), reference spectrum (A2),
    edge strict positive realness (A3), connectivity (A4).

    Returns ``(results, edge_certs, loop_certs)``: CheckResults (A3 with
    the certificates' slacks or the reason an edge has none), per edge its
    SPR certificate or None, and per state loop of ``loops`` its
    certificate or exception, all from one :func:`spr_certificates` call.
    """
    results = []
    for i, node in enumerate(network.nodes):
        entity = f"node {i + 1}"
        if is_static(node):
            results.append(CheckResult("A1", entity, True, 0.0,
                                       "static master (no dynamics)"))
            continue
        ok = node.rank_conditions_ok()
        results.append(CheckResult(
            "A1", entity, ok, 0.0,
            "B, D_in full column rank; C full row rank" if ok
            else "rank condition fails"))
    for j, edge in enumerate(network.edges):
        ok = edge.rank_conditions_ok()
        results.append(CheckResult(
            "A1", f"edge {j + 1}", ok, 0.0,
            "F full column rank; G full row rank" if ok
            else "rank condition fails"))

    try:
        lam = marginal_eig(exo.S, require_simple=True)[0]
        ok, detail = True, f"spectrum {np.round(lam, 6)}"
    except SpectrumNotMarginal as exc:
        lam, ok, detail = np.linalg.eigvals(exo.S), False, str(exc)
    results.append(CheckResult("A2", "exosystem", ok,
                               float(np.abs(lam.real).max(initial=0.0)),
                               detail))

    certs, n_e = spr_certificates([*network.edges, *loops]), len(network.edges)
    edge_certs, loop_certs = certs[:n_e], certs[n_e:]
    for j, cert in enumerate(edge_certs):
        ok = not isinstance(cert, Exception)
        results.append(CheckResult(
            "A3", f"edge {j + 1}", ok, cert.slack if ok else 0.0,
            "strictly positive real" if ok else str(cert)))
        edge_certs[j] = cert if ok else None

    connected = check_connected(network.topology.H)
    results.append(CheckResult(
        "A4", "network", connected,
        float(network.topology.N - 1),
        "incidence matrix has row rank N-1" if connected
        else "network is disconnected"))
    return results, edge_certs, loop_certs


def assumption_report(network, exo, regime, roles=None, eps=0.0, gains=None,
                      nu0=None):
    """Run every assumption check and attempt the controller construction.

    Raises only what :func:`assign_roles` raises, before any check runs;
    returns ``(results, cset)`` where ``cset`` is None when any check
    failed.  ``nu0`` (cooperation command initial conditions) adds the
    zero-sum report line checked at simulation time.
    """
    node_roles = assign_roles(network, regime, roles)
    gains = gains or {}
    # state gains, supplied or from one lattice test; the loops they close
    # are certified in the edges' SPR call
    dynamic = [i for i, nd in enumerate(network.nodes) if not is_static(nd)]
    k_xs = {i: gains[i + 1].K_x for i in dynamic if i + 1 in gains}
    synth = [i for i in dynamic if i not in k_xs]
    k_xs.update(zip(synth, _lattice_gains([network.nodes[i] for i in synth])))
    loops = {}
    for i, k_x in k_xs.items():
        try:
            loops[i] = _state_loop(network.nodes[i], _raised(k_x))
        except Exception as exc:
            k_xs[i] = exc
    results, edge_certs, loop_certs = check_assumptions(
        network, exo, tuple(loops.values()))
    loop_certs = dict(zip(loops, loop_certs))
    if regime == "master_slave":
        n_masters = node_roles.count("master")
        results.append(CheckResult("roles", "network", True,
                                   float(n_masters), f"{n_masters} master(s)"))
    failures = [r for r in results if not r.passed]

    g_s = g_b = g_q = None
    if regime in ("cooperation", "master_slave"):
        g_s, g_b, g_q = cooperation_reference_matrices(exo)

    p = network.p
    # built once; a failed build is not cached, so every node reports it
    shared_im = functools.cache(lambda: p_copy_internal_model(exo.S, p))
    controllers = []
    for i, (node, role) in enumerate(zip(network.nodes, node_roles)):
        if is_static(node):
            controllers.append(None)
            continue
        ref_q = exo.Q_eta if g_q is None or \
            NODE_ROLES[role].generator == "exo_state" else g_q
        try:
            supplied = gains.get(i + 1)
            im = shared_im() if supplied is None or supplied.G1 is None \
                else internal_model_from_matrices(supplied.G1, supplied.G2,
                                                  exo.S)
            k_x = _raised(k_xs[i])
            k_zeta, phat = (supplied.K_zeta, None) if supplied else \
                _damped_storage(node, k_x, im, loop_certs[i])
            ctrl = make_node_controller(node, role, k_x, k_zeta, im, ref_q,
                                        phat, loop_certs[i])
            controllers.append(ctrl)
            results.append(CheckResult(
                "A5", f"node {i + 1}", True, ctrl.Phat.slack,
                "closed node Hurwitz and passive"))
        except Exception as exc:
            controllers.append(None)
            res = CheckResult("A5", f"node {i + 1}", False, 0.0, str(exc))
            results.append(res)
            failures.append(res)

    if regime == "cooperation" and nu0 is not None:
        total = np.zeros(exo.q)
        for vec in nu0.values():
            total = total + np.asarray(vec, dtype=float).ravel()
        norm = float(np.linalg.norm(total))
        results.append(CheckResult(
            "A6", "references", norm <= ZERO_SUM_TOL, norm,
            "command initial conditions sum to zero" if norm <= ZERO_SUM_TOL
            else f"command sum has norm {norm:.3e}: the nodes track with "
                 f"the predicted common bias, and the output sum drifts "
                 f"without limit (the bias drives the reference generator "
                 f"at resonance)"))

    if failures:
        return results, None
    cset = ControllerSet(
        regime=regime, eps=float(eps), controllers=tuple(controllers),
        exo=exo, edge_certificates=tuple(edge_certs), node_roles=node_roles,
        G_S=g_s, G_B=g_b, G_Q=g_q)
    return results, cset


def build_controllers(network, exo, regime, roles=None, eps=0.0, gains=None,
                      seed=0):
    """Construct the full controller family for one regime.

    Per node, gains are synthesized by :func:`passify_node` unless supplied
    in ``gains`` (then verified via :func:`verify_A5`).  All structural
    assumptions are checked first; any failure raises AssumptionFailed with
    the full list.

    Parameters
    ----------
    regime : {"tracking", "sync", "cooperation", "master_slave"}
    roles : dict, optional
        1-based node id -> "master" | "slave"; required for master_slave.
    eps : float
        Shared coupling gain stored on the controller set.
    gains : dict, optional
        1-based node id -> NodeGains for externally supplied gains.
    seed : int
        Accepted and ignored: no synthesis step is random.
    """
    results, cset = assumption_report(network, exo, regime, roles=roles,
                                      eps=eps, gains=gains)
    if cset is None:
        raise AssumptionFailed([r for r in results if not r.passed])
    return cset
