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
    PASSIVITY_TOL,
    STRICT_MARGIN,
    _sym,
    controllable,
    hyper_min_phase_check,
    is_hurwitz,
    lyapunov_kernel_basis,
    lyapunov_solve,
    marginal_kernel_certificate,
    observable,
    real_marginal_basis,
    spectral_abscissa,
    spr_certificate,
    sylvester_solve,
)
from .errors import (
    AllSlaves,
    AssumptionFailed,
    CertificateFailed,
    IdentityViolated,
    InternalModelViolated,
    NotHurwitz,
    NotHyperMinPhase,
    SynthesisFailed,
    ValidationError,
)
from .network import is_static
from .topology import (
    assemble_weighted_blocks,
    block_diag,
    check_connected,
    null_space,
)

REGIMES = ("tracking", "sync", "cooperation", "master_slave")

#: residual tolerance for the regulator output identities
MAP_IDENTITY_TOL = 1e-8
#: largest output-feedback gain kappa that passify_node tries
KAPPA_MAX = 2 ** 24


# ---------------------------------------------------------------------------
# internal models


@dataclass(frozen=True)
class InternalModel:
    """p parallel copies of the reference dynamics in companion form.

    ``G1`` is block diagonal with p copies of the companion matrix of the
    reference generator's minimal polynomial; ``G2`` stacks the matching
    unit input columns.  ``minimal_poly_coeffs`` holds (a_1, ..., a_q) of
    lambda^q + a_1 lambda^{q-1} + ... + a_q.
    """

    G1: np.ndarray
    G2: np.ndarray
    copies: int
    block_dim: int
    minimal_poly_coeffs: tuple

    @property
    def c(self):
        """Controller state dimension."""
        return self.G1.shape[0]


def minimal_polynomial_coeffs(s):
    """Coefficients (a_1..a_q) of the minimal polynomial of a simple-spectrum S."""
    s = np.atleast_2d(np.asarray(s, dtype=float))
    # simple spectrum: minimal polynomial == characteristic polynomial
    real_marginal_basis(s, require_simple=True)
    coeffs = np.poly(np.linalg.eigvals(s))
    coeffs = np.real_if_close(coeffs, tol=1e6).real
    return tuple(float(c) for c in coeffs[1:])


def companion_pair(coeffs):
    """Controllable-canonical (alpha, beta) for lambda^q + a_1 ... + a_q."""
    q = len(coeffs)
    alpha = np.zeros((q, q))
    if q > 1:
        alpha[:-1, 1:] = np.eye(q - 1)
    alpha[-1, :] = -np.asarray(coeffs, dtype=float)[::-1]
    beta = np.zeros((q, 1))
    beta[-1, 0] = 1.0
    return alpha, beta


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
    alpha, beta = companion_pair(coeffs)
    g1 = np.kron(np.eye(p), alpha)
    g2 = np.kron(np.eye(p), beta)
    im = InternalModel(G1=g1, G2=g2, copies=int(p), block_dim=len(coeffs),
                       minimal_poly_coeffs=coeffs)
    validate_internal_model(im, np.atleast_2d(np.asarray(s, dtype=float)))
    return im


def internal_model_from_matrices(g1, g2, s):
    """Wrap user-supplied (G1, G2) after checking the internal-model property.

    Checks controllability of (G1, G2) and that the minimal polynomial of
    ``s`` divides the characteristic polynomial of G1.
    """
    g1 = np.atleast_2d(np.asarray(g1, dtype=float))
    g2 = np.atleast_2d(np.asarray(g2, dtype=float))
    s = np.atleast_2d(np.asarray(s, dtype=float))
    coeffs = minimal_polynomial_coeffs(s)
    copies = g2.shape[1]
    im = InternalModel(G1=g1, G2=g2, copies=copies, block_dim=len(coeffs),
                       minimal_poly_coeffs=coeffs)
    validate_internal_model(im, s)
    return im


def validate_internal_model(im, s):
    """Controllability plus divisibility of char(G1) by minpoly(S)."""
    if not controllable(im.G1, im.G2):
        raise InternalModelViolated("(G1, G2) is not controllable")
    char = np.poly(np.linalg.eigvals(im.G1))
    char = np.real_if_close(char, tol=1e6).real
    minpoly = np.concatenate([[1.0], np.asarray(im.minimal_poly_coeffs)])
    _, rem = np.polydiv(char, minpoly)
    scale = max(1.0, np.abs(char).max())
    if rem.size and np.abs(rem).max() > 1e-10 * scale:
        raise InternalModelViolated(
            "reference minimal polynomial does not divide char(G1) "
            f"(remainder {np.abs(rem).max():.2e})")
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


def make_node_controller(node, regime, k_x, k_zeta, im, ref_q, phat=None):
    """Assemble and verify a NodeController record.

    ``ref_q`` is the output of the role's reference generator.  Verifies
    the closed node is Hurwitz and that the storage matrix ``phat``
    witnesses the passivity identities at tolerance ``PASSIVITY_TOL``.
    Without ``phat``, the storage is first synthesized from the gains (see
    :func:`verify_A5`).
    """
    ahat, dhat, dhat_ref, chat = hat_matrices(node, k_x, k_zeta, im, ref_q)
    absc = spectral_abscissa(ahat)
    if absc >= 0:
        raise NotHurwitz(f"closed node has spectral abscissa {absc:.3e}")
    k_x = np.atleast_2d(np.asarray(k_x, dtype=float))
    k_zeta = np.atleast_2d(np.asarray(k_zeta, dtype=float))
    if phat is None:
        phat = _gain_storage(node, k_x, k_zeta, im)
    return NodeController(
        regime=regime, K_x=k_x, K_zeta=k_zeta, im=im,
        Phat=_passivity_certificate(phat, ahat, dhat, chat),
        Ahat=ahat, Dhat=dhat, Dhat_ref=dhat_ref, Chat=chat)


def _passivity_certificate(p, ahat, dhat, chat):
    """Certificate of ``p``, after checking the passivity identities."""
    p = _sym(np.asarray(p, dtype=float))
    if np.linalg.eigvalsh(p)[0] <= 0:
        raise CertificateFailed("storage matrix is not positive definite")
    scale = max(1.0, float(np.linalg.norm(p, 2)) *
                float(np.linalg.norm(ahat, 2)))
    lmax = float(np.linalg.eigvalsh(_sym(p @ ahat + ahat.T @ p))[-1])
    if lmax > PASSIVITY_TOL * scale:
        raise CertificateFailed(
            f"storage inequality fails: lambda_max {lmax:.3e} > "
            f"{PASSIVITY_TOL * scale:.3e}")
    eq = np.abs(p @ dhat - chat.T).max()
    eq_scale = max(1.0, np.abs(chat).max())
    if eq > PASSIVITY_TOL * eq_scale:
        raise CertificateFailed(
            f"storage equality P Dhat = Chat.T fails (residual {eq:.3e})")
    return Certificate(P=p, slack=-lmax, kind="passivity")


# ---------------------------------------------------------------------------
# passification


def _storage_test(a, b, c):
    """Exact storage test for the state loops ``a - kappa B (C B)^{-1} C``.

    With T = [C; W] and ``W B = 0``, the family is ``T P_s T.T =
    blkdiag(sym(C B), rho P2)``, rho > 0, ``A22 P2 + P2 A22.T = -I`` (no rho
    when n = p).  The gain shifts only the (1,1) block of ``T a T^{-1}``, by
    -kappa I, so ``A' P' + P' A'.T = M0(kappa) + rho M1``, M1 free of
    kappa.  Its inertia is constant between the positive eigenvalues of the
    pencil (M0, -M1), so one rho per gap decides: the gap's geometric mean,
    half the first, twice the last, or 1 if none (real parts of complex ones
    only add points).  Returns ``storage(kappa)``: the first P_s with
    ``lambda_max < -STRICT_MARGIN max(1, ||A_k|| ||P_s||)``, or None, which
    proves the family holds none.
    """
    p_dim, n = c.shape
    t = np.vstack([c, null_space(b.T).T])
    if np.linalg.matrix_rank(t) < n:
        raise NotHyperMinPhase("output map and input complement do not span")
    ti = np.linalg.inv(t)
    bk = b @ np.linalg.solve(c @ b, c)
    ap = t @ a @ ti
    e1 = block_diag([_sym(c @ b), np.zeros((n - p_dim, n - p_dim))])
    m0 = _sym(ap @ e1 + e1 @ ap.T)
    e2 = m1 = np.zeros((n, n))
    if n > p_dim:
        a22 = ap[p_dim:, p_dim:]
        if not is_hurwitz(a22):
            raise NotHyperMinPhase("zero dynamics are not Hurwitz")
        # A22 P2 + P2 A22.T = -I   (dual orientation)
        e2 = block_diag([np.zeros((p_dim, p_dim)),
                         lyapunov_solve(a22.T, np.eye(n - p_dim))])
        m1 = _sym(ap @ e2 + e2 @ ap.T)

    def storage(kappa):
        a_norm = float(np.linalg.norm(a - kappa * bk, 2))
        m = m0 - 2.0 * kappa * e1
        rhos = [0.0]
        if n > p_dim:
            import scipy.linalg

            lam = scipy.linalg.eigvals(m, -m1)
            r = np.unique(lam.real[np.isfinite(lam) & (lam.real > 0)])
            rhos = [0.5 * r[0], *np.sqrt(r[:-1] * r[1:]), 2.0 * r[-1]] \
                if r.size else [1.0]
        for rho in rhos:
            p_s = _sym(ti @ (e1 + rho * e2) @ ti.T)
            lmax = float(np.linalg.eigvalsh(m + rho * m1)[-1])
            if lmax < -STRICT_MARGIN * max(
                    1.0, a_norm * float(np.linalg.norm(p_s, 2))):
                return p_s
        return None

    return storage


def passify_node(node, im, exo, seed=0):
    """Design passifying gains for a direct-coupling node (``D_in == B``).

    Output feedback ``K_x = -kappa (C B)^{-1} C`` with the first kappa of
    0, 1, 2, 4, ..., ``KAPPA_MAX`` that :func:`_storage_test` passes
    (feedback passivity: Byrnes, Isidori & Willems, IEEE TAC 1991);
    ``K_zeta = -G2.T P_g^{-1}`` with P_g the best-damped scale of the
    marginal-kernel certificate of G1.  The tracking controller returned
    carries the certificate ``Phat = diag(P_s, P_g)^{-1}``.

    Raises
    ------
    NotHyperMinPhase
        If the node fails the relative-degree-one / stable-zeros test.
    SynthesisFailed
        If no kappa of the lattice admits a storage in the family (proven
        for each), or no internal-model completion gives a Hurwitz node.
    """
    k_x, k_zeta, im, phat = _passifying_gains(node, im, seed)
    return make_node_controller(node, "tracking", k_x, k_zeta, im,
                                exo.Q_eta, phat)


def _passifying_gains(node, im, seed):
    """Gains, internal model and unverified storage of passify_node."""
    a, b, c = node.A, node.B, node.C
    if node.D_in is None or node.D_in.shape != b.shape or \
            np.abs(node.D_in - b).max() > 0:
        raise ValidationError(
            "node.D_in", "constructive passification needs D_in == B")
    if not hyper_min_phase_check(a, b, c):
        raise NotHyperMinPhase(
            "node fails the hyper-minimum-phase conditions")

    storage = _storage_test(a, b, c)
    kappa = 0.0
    while (p_s := storage(kappa)) is None:
        kappa = 1.0 if kappa == 0.0 else 2.0 * kappa
        if kappa > KAPPA_MAX:
            raise SynthesisFailed(
                f"proven: no kappa in 0, 1, 2, ..., {KAPPA_MAX:g} admits a "
                f"storage blkdiag(sym(C B), rho P2) with margin "
                f"{STRICT_MARGIN:g}")
    k_x = -kappa * np.linalg.solve(c @ b, c)
    rng = np.random.default_rng(seed)
    # the certificate scale is free: pick the best-damped closed node, the
    # first minimum of the spectral abscissa over these scales
    scales = np.geomspace(1e-6, 1e6, 25)
    im_try = im
    for attempt in range(5):
        p_g_base = marginal_kernel_certificate(im_try.G1)
        ahat = hat_matrices(node, k_x, np.zeros((node.m, im_try.c)),
                            im_try)[0]
        stack = np.repeat(ahat[None], len(scales), axis=0)
        for a_rho, rho in zip(stack, scales):
            a_rho[:node.n, node.n:] = node.B @ -np.linalg.solve(
                (rho * p_g_base).T, im_try.G2).T
        absc = np.linalg.eigvals(stack).real.max(axis=1)
        best = int(np.argmin(absc))
        if absc[best] < 0:
            p_g = scales[best] * p_g_base
            k_zeta = -np.linalg.solve(p_g.T, im_try.G2).T
            break
        # marginal modes unobservable through K_zeta: re-draw G2
        g2 = im_try.G2 + 0.05 * rng.standard_normal(im_try.G2.shape)
        if not controllable(im_try.G1, g2):
            continue
        im_try = InternalModel(
            G1=im_try.G1, G2=g2, copies=im_try.copies,
            block_dim=im_try.block_dim,
            minimal_poly_coeffs=im_try.minimal_poly_coeffs)
    else:
        raise SynthesisFailed(
            "closed node not Hurwitz for any internal-model completion")
    return k_x, k_zeta, im_try, _sym(np.linalg.inv(block_diag([p_s, p_g])))


def verify_A5(node, k_x, k_zeta, im, phat=None):
    """Verify (or synthesize the certificate for) externally supplied gains.

    When ``phat`` is given it is checked directly.  Otherwise a certificate
    is synthesized in the block-diagonal storage family of the constructive
    design: P_g is recovered from ``K_zeta P_g = -G2.T`` inside the
    marginal Lyapunov kernel of G1, and P_s by the exact test of
    :func:`_storage_test` with the supplied K_x.

    Returns the passivity Certificate (storage form).

    Raises
    ------
    CertificateFailed
        If no certificate in the block-diagonal family matches the gains;
        for the state loop this is proven by :func:`_storage_test`.
    NotHurwitz
        If the closed node is not Hurwitz.
    """
    p = phat.P if isinstance(phat, Certificate) else phat
    return make_node_controller(node, "tracking", k_x, k_zeta, im, None,
                                p).Phat


def _gain_storage(node, k_x, k_zeta, im):
    """Unverified block-diagonal storage matching supplied gains."""
    a, b, c = node.A, node.B, node.C
    if node.D_in is None or node.D_in.shape != b.shape or \
            np.abs(node.D_in - b).max() > 0:
        raise CertificateFailed(
            "indirect coupling (D_in != B): supply the certificate "
            "explicitly")

    # P_g from the marginal kernel, pinned by the supplied K_zeta
    basis = lyapunov_kernel_basis(im.G1)
    if not basis:
        raise CertificateFailed("marginal Lyapunov kernel of G1 is empty")
    cols = np.column_stack([(k_zeta @ m).ravel() for m in basis])
    target = (-im.G2.T).ravel()
    theta, *_ = np.linalg.lstsq(cols, target, rcond=None)
    p_g = _sym(sum(t * m for t, m in zip(theta, basis)))
    resid = np.abs(k_zeta @ p_g + im.G2.T).max()
    if resid > 1e-8 * max(1.0, np.abs(im.G2).max()):
        raise CertificateFailed(
            f"no marginal-kernel storage matches K_zeta "
            f"(residual {resid:.3e})")
    if np.linalg.eigvalsh(p_g)[0] <= 0:
        raise CertificateFailed(
            "storage pinned by K_zeta is not positive definite")

    p_s = _storage_test(a + b @ k_x, b, c)(0.0)
    if p_s is None:
        raise CertificateFailed(
            "state loop proven infeasible in the block-diagonal storage "
            f"family: no rho > 0 reaches the margin {STRICT_MARGIN:g}")
    return _sym(np.linalg.inv(block_diag([p_s, p_g])))


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
    slaves: tuple = ()
    masters: tuple = ()


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
    p_big = np.kron(np.eye(p), exo.P_eta)
    lyap = p_big @ g_s + g_s.T @ p_big
    if float(np.linalg.eigvalsh(_sym(lyap))[-1]) > 1e-9 * max(
            1.0, float(np.linalg.norm(p_big, 2)) *
            float(np.linalg.norm(g_s, 2))):
        raise CertificateFailed("reference generator is not marginal")
    resid = np.abs(p_big @ g_b - g_q.T).max()
    if resid > 1e-10 * max(1.0, np.abs(g_q).max()):
        raise CertificateFailed(
            f"reference passivity equality fails (residual {resid:.3e})")
    if not observable(g_s, g_q):
        warnings.warn(
            "(G_S, G_Q) is not observable; cooperation limits may not be "
            "asymptotically reached", stacklevel=2)
    return g_s, g_b, g_q


def check_assumptions(network, exo):
    """Structural assumption report: ranks (A1), reference spectrum (A2),
    edge strict positive realness (A3), connectivity (A4).

    Returns a list of CheckResult; the A3 entries carry the found
    certificates' slacks as margins.
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

    lam = np.linalg.eigvals(exo.S)
    re_max = float(np.abs(lam.real).max(initial=0.0))
    try:
        real_marginal_basis(exo.S, require_simple=True)
        results.append(CheckResult(
            "A2", "exosystem", True, re_max,
            f"spectrum {np.round(lam, 6)}"))
    except Exception as exc:
        results.append(CheckResult("A2", "exosystem", False, re_max,
                                   str(exc)))

    edge_certs = []
    for j, edge in enumerate(network.edges):
        try:
            cert = spr_certificate(edge)
            edge_certs.append(cert)
            results.append(CheckResult(
                "A3", f"edge {j + 1}", True, cert.slack,
                "strictly positive real"))
        except Exception as exc:
            edge_certs.append(None)
            results.append(CheckResult("A3", f"edge {j + 1}", False, 0.0,
                                       str(exc)))

    connected = check_connected(network.topology.H)
    results.append(CheckResult(
        "A4", "network", connected,
        float(network.topology.N - 1),
        "incidence matrix has row rank N-1" if connected
        else "network is disconnected"))
    return results, edge_certs


def assumption_report(network, exo, regime, roles=None, eps=0.0, gains=None,
                      seed=0, nu0=None):
    """Run every assumption check and attempt the controller construction.

    Raises only what :func:`assign_roles` raises, before any check runs;
    returns ``(results, cset)`` where ``cset`` is None when any check
    failed.  ``nu0`` (cooperation command initial conditions) adds the
    zero-sum report line checked at simulation time.
    """
    node_roles = assign_roles(network, regime, roles)
    gains = gains or {}
    results, edge_certs = check_assumptions(network, exo)
    if regime == "master_slave":
        n_masters = node_roles.count("master")
        results.append(CheckResult("roles", "network", True,
                                   float(n_masters), f"{n_masters} master(s)"))
    failures = [r for r in results if not r.passed]

    g_s = g_b = g_q = None
    if regime in ("cooperation", "master_slave"):
        g_s, g_b, g_q = cooperation_reference_matrices(exo)
    if regime == "sync" and not observable(exo.S, exo.Q_eta):
        warnings.warn("(S, Q_eta) is not observable; the synchronization "
                      "limit may not be asymptotically reached", stacklevel=2)

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
            if supplied is None:
                k_x, k_zeta, im, phat = _passifying_gains(
                    node, shared_im(), seed + i)
            else:
                im = shared_im() if supplied.G1 is None \
                    else internal_model_from_matrices(supplied.G1,
                                                      supplied.G2, exo.S)
                k_x, k_zeta, phat = supplied.K_x, supplied.K_zeta, None
            ctrl = make_node_controller(node, role, k_x, k_zeta, im, ref_q,
                                        phat)
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
            "A6", "references", norm <= 1e-10, norm,
            "command initial conditions sum to zero" if norm <= 1e-10
            else f"command sum has norm {norm:.3e} (tracking will carry "
                 f"the predicted common bias)"))

    if failures:
        return results, None
    cset = ControllerSet(
        regime=regime, eps=float(eps), controllers=tuple(controllers),
        exo=exo, edge_certificates=tuple(edge_certs), node_roles=node_roles,
        G_S=g_s, G_B=g_b, G_Q=g_q,
        slaves=tuple(i for i, r in enumerate(node_roles) if r == "slave"),
        masters=tuple(i for i, r in enumerate(node_roles) if r == "master"))
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
    """
    results, cset = assumption_report(network, exo, regime, roles=roles,
                                      eps=eps, gains=gains, seed=seed)
    if cset is None:
        raise AssumptionFailed([r for r in results if not r.passed])
    return cset
