"""Matrix and LTI certificates.

Everything here is a small dense-linear-algebra routine with an explicit
numerical contract: solvers check their residuals, certificate constructors
re-verify the inequalities they claim before returning, and every strict
inequality carries a certified slack.  Tolerances are module constants.
scipy is imported only inside the routines that need it (the Lyapunov
solver and the Riccati branch of the SPR certificate), so importing the
package loads numpy alone.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenFailure,
    HypothesisViolated,
    Infeasible,
    NotHurwitz,
    NotHyperMinPhase,
    RepeatedEigenvalue,
    SingularPencil,
    SpectrumNotMarginal,
    CertificateFailed,
    ValidationError,
)
from .topology import (
    RANK_RTOL,
    block_diag,
    full_column_rank,
    full_row_rank,
    null_space,
)

#: residual tolerance (relative) for the Lyapunov and Sylvester solvers
SOLVE_RESID_RTOL = 1e-10
#: |Re lambda| threshold for "on the imaginary axis"
MARGINAL_RE_TOL = 1e-9
#: margin required of strict LMIs
STRICT_MARGIN = 1e-8
#: fraction of the largest SPR margin an edge certificate is built at (nearer
#: the largest margin, Q sits on the boundary with far smaller slacks)
SPR_CENTRE = 0.75
#: relative width of the bisection for the largest SPR margin
SPR_BISECT_RTOL = 1e-3
#: tolerance for passivity inequalities (assumption A5, Lemma 1's P_w W1)
PASSIVITY_TOL = 1e-9
#: the conditions the SPR Riccati test fails on, by the code it reports
RICCATI_FAILS = (None, "the (1,1) block is not negative definite",
                 "the Riccati Hamiltonian has non-finite entries",
                 "the Riccati A_bar is not Hurwitz",
                 "the Riccati Hamiltonian has an imaginary eigenvalue")


def _as_square(a, name="matrix"):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {a.shape}")
    return a


def _mT(a):
    """Transpose of each matrix of a stack (the last two axes)."""
    return np.swapaxes(a, -1, -2)


def _sym(a):
    return 0.5 * (a + _mT(a))


def _norm2(a):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


# ---------------------------------------------------------------------------
# record types


@dataclass(frozen=True)
class LtiSystem:
    """State-space record ``xdot = A x + B u + D_in v``, ``y = C x``.

    Used both for nodes (A, B, C plus the coupling-input matrix ``D_in``)
    and for edges, where the fields hold (E, F, G) and ``D_in`` is None.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D_in: np.ndarray | None = None

    def __post_init__(self):
        a = _as_square(self.A, "A")
        b = np.atleast_2d(np.asarray(self.B, dtype=float))
        c = np.atleast_2d(np.asarray(self.C, dtype=float))
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)
        n = a.shape[0]
        if b.shape[0] != n:
            raise DimensionMismatch(f"B has {b.shape[0]} rows, expected {n}")
        if c.shape[1] != n:
            raise DimensionMismatch(f"C has {c.shape[1]} cols, expected {n}")
        if self.D_in is not None:
            d = np.atleast_2d(np.asarray(self.D_in, dtype=float))
            object.__setattr__(self, "D_in", d)
            if d.shape[0] != n:
                raise DimensionMismatch(
                    f"D_in has {d.shape[0]} rows, expected {n}")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    def rank_conditions_ok(self):
        """Input matrices full column rank, output full row rank."""
        ok = full_column_rank(self.B) and full_row_rank(self.C)
        if self.D_in is not None:
            ok = ok and full_column_rank(self.D_in)
        return ok


def node_system(A, B, C, D_in=None):
    """Node record; ``D_in`` defaults to B (direct coupling case)."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    return LtiSystem(A=A, B=B, C=C, D_in=B if D_in is None else D_in)


def edge_system(E, F, G):
    """Edge record (E, F, G) stored in the A/B/C slots."""
    return LtiSystem(A=E, B=F, C=G, D_in=None)


@dataclass(frozen=True)
class Certificate:
    """Symmetric positive definite witness with its certified margin.

    ``slack`` is the margin of the strict inequality the certificate
    witnesses (0 for purely semidefinite identities); ``kind`` is one of
    ``lyapunov``, ``spr``, ``passivity``, ``marginal_spectrum``, ``lemma1``.
    ``bound``: the largest violation its check accepted, when it has one.
    """

    P: np.ndarray
    slack: float
    kind: str
    bound: float = None

    def __post_init__(self):
        p = _as_square(self.P, "P")
        if np.abs(p - p.T).max() > 1e-12 * max(1.0, np.abs(p).max()):
            raise ValidationError("P", "certificate matrix not symmetric")
        object.__setattr__(self, "P", _sym(p))

    @property
    def min_eig(self):
        return float(np.linalg.eigvalsh(self.P)[0])


@dataclass(frozen=True)
class Exosystem:
    """Reference generator (S, Q_eta, Q_v) with its marginal certificate.

    ``P_eta`` satisfies ``P_eta @ S + S.T @ P_eta = 0`` with ``P_eta > 0``;
    ``B_eta = P_eta^{-1} @ Q_eta.T`` is the passive injection used by the
    synchronization controller.
    """

    S: np.ndarray
    Q_eta: np.ndarray
    Q_v: np.ndarray
    P_eta: np.ndarray
    B_eta: np.ndarray

    @property
    def q(self):
        return self.S.shape[0]

    @property
    def p(self):
        return self.Q_eta.shape[0]


def build_exosystem(S, Q_eta, Q_v=None, P_eta=None):
    """Validate A2 for ``S`` and assemble the exosystem record.

    When ``P_eta`` is not supplied it is :func:`marginal_spectrum_certificate`
    of ``S``; when it is, ``S`` passes :func:`marginal_eig` and both
    properties of ``P_eta`` are verified.  ``Q_v`` defaults to ``Q_eta``.
    """
    S = _as_square(S, "S")
    Q_eta = np.atleast_2d(np.asarray(Q_eta, dtype=float))
    Q_v = Q_eta if Q_v is None else np.atleast_2d(np.asarray(Q_v, dtype=float))
    if Q_eta.shape[1] != S.shape[0] or Q_v.shape[1] != S.shape[0]:
        raise DimensionMismatch("Q_eta/Q_v column count must match dim(S)")
    if Q_eta.shape[0] != Q_v.shape[0]:
        raise DimensionMismatch("Q_eta and Q_v must have equal row counts")
    if P_eta is None:
        P_eta = marginal_spectrum_certificate(S).P
    else:
        P_eta = _sym(_as_square(P_eta, "P_eta"))
        marginal_eig(S, require_simple=True)  # still enforce A2 on S
        scale = max(1.0, _norm2(P_eta) * _norm2(S))
        if np.linalg.eigvalsh(P_eta)[0] <= 0:
            raise ValidationError("P_eta", "not positive definite")
        if np.abs(P_eta @ S + S.T @ P_eta).max() > 1e-10 * scale:
            raise ValidationError("P_eta", "P S + S'P != 0")
    B_eta = np.linalg.solve(P_eta, Q_eta.T)
    if not observable(S, Q_eta):
        warnings.warn(
            "(S, Q_eta) is not observable; synchronization limits may not "
            "be asymptotically reached", stacklevel=2)
    return Exosystem(S=S, Q_eta=Q_eta, Q_v=Q_v, P_eta=P_eta, B_eta=B_eta)


# ---------------------------------------------------------------------------
# spectra and equation solvers


def rightmost_eigenvalue(a):
    """The eigenvalue of ``a`` with the largest real part (``-inf`` when
    ``a`` is empty)."""
    a = _as_square(a)
    if a.size == 0:
        return complex(-np.inf)
    if not np.all(np.isfinite(a)):
        raise EigenFailure("matrix has non-finite entries")
    try:
        lam = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenFailure(str(exc)) from exc
    return complex(lam[np.argmax(lam.real)])


def spectral_abscissa(a):
    """Largest real part over the eigenvalues of ``a``."""
    return rightmost_eigenvalue(a).real


def lyapunov_solve(a, q):
    """Solve ``P A + A.T P = -Q`` for symmetric P.

    Raises
    ------
    SingularPencil
        If A and -A.T share an eigenvalue (the operator is singular), or
        the residual exceeds ``SOLVE_RESID_RTOL * ||Q||``.
    """
    a = _as_square(a, "A")
    q = _as_square(q, "Q")
    if a.shape != q.shape:
        raise DimensionMismatch("A and Q must have equal shapes")
    lam = np.linalg.eigvals(a)
    scale = max(1.0, np.abs(lam).max())
    pair_sums = np.abs(lam[:, None] + lam[None, :])
    if pair_sums.min() <= 1e-12 * scale:
        raise SingularPencil("A and -A.T share an eigenvalue")
    import scipy.linalg

    q = np.asarray(q, dtype=float)
    p = _sym(scipy.linalg.solve_continuous_lyapunov(a.T, -q))
    bound = SOLVE_RESID_RTOL * max(1.0, np.linalg.norm(q))
    # one round of iterative refinement recovers digits on stiff scales
    for _ in range(2):
        res_mat = p @ a + a.T @ p + q
        if np.linalg.norm(res_mat) <= 0.5 * bound:
            break
        p = _sym(p - scipy.linalg.solve_continuous_lyapunov(a.T, res_mat))
    resid = np.linalg.norm(p @ a + a.T @ p + q)
    if resid > bound:
        raise SingularPencil(
            f"Lyapunov residual {resid:.2e} exceeds tolerance")
    return p


def sylvester_solve(a, s, r):
    """Solve ``X S = A X + R`` (regulator-equation orientation).

    S is diagonalised, ``S V = V diag(lam)``; each column of ``Y = X V``
    then solves ``(lam_j I - A) y_j = (R V)_j``, one complex LU per distinct
    eigenvalue shared by the columns that have it, and ``X = Y V^{-1}``.  S
    is small and diagonalisable wherever the toolkit calls this: an
    exosystem with simple spectrum, or copies of one.

    Raises
    ------
    SingularPencil
        If the spectra of A and S intersect, or the residual exceeds
        ``SOLVE_RESID_RTOL * (||A|| + ||S||) * ||X|| + 1e-12``.
    """
    a = _as_square(a, "A")
    s = _as_square(s, "S")
    r = np.atleast_2d(np.asarray(r, dtype=float))
    if r.shape != (a.shape[0], s.shape[0]):
        raise DimensionMismatch(
            f"R must be {(a.shape[0], s.shape[0])}, got {r.shape}")
    la = np.linalg.eigvals(a)
    ls, v = np.linalg.eig(s)
    scale = max(1.0, np.abs(la).max(initial=0.0), np.abs(ls).max(initial=0.0))
    if np.abs(la[:, None] - ls[None, :]).min() <= 1e-12 * scale:
        raise SingularPencil("A and S share an eigenvalue")
    vi = np.linalg.inv(v)
    groups = [(lam, ls == lam) for lam in dict.fromkeys(ls.tolist())]
    eye = np.eye(a.shape[0])

    def solve(rhs):
        """The X with ``X S - A X = rhs``."""
        y = rhs @ v
        for lam, cols in groups:
            y[:, cols] = np.linalg.solve(lam * eye - a, y[:, cols])
        return (y @ vi).real

    x = solve(r)
    bound = SOLVE_RESID_RTOL * (_norm2(a) + _norm2(s)) * \
        max(1.0, np.linalg.norm(x)) + 1e-12
    # iterative refinement recovers digits lost to stiff scalings
    for _ in range(2):
        res_mat = x @ s - a @ x - r
        if np.linalg.norm(res_mat) <= 0.5 * bound:
            break
        x = x - solve(res_mat)
    resid = np.linalg.norm(x @ s - a @ x - r)
    if resid > bound:
        raise SingularPencil(
            f"Sylvester residual {resid:.2e} exceeds tolerance {bound:.2e} "
            f"(eigenvector condition of S {np.linalg.cond(v):.1e})")
    return x


# ---------------------------------------------------------------------------
# marginal spectra


def marginal_eig(s, require_simple=True):
    """numpy's ``eig`` of S, ``S V = V diag(lam)``, after checking A2.

    Every eigenvalue must lie on the imaginary axis, V must have full
    complex rank (S semisimple) and, with ``require_simple``, no eigenvalue
    may repeat.  For a real S, LAPACK pairs each complex eigenvalue with its
    conjugate and conjugate eigenvector, so real certificates follow from V.

    Raises
    ------
    SpectrumNotMarginal
        If an eigenvalue has ``|Re|`` above the threshold, or S is defective.
    RepeatedEigenvalue
        If ``require_simple`` and an eigenvalue repeats.
    """
    s = _as_square(s, "S")
    lam, vec = np.linalg.eig(s)
    scale = max(1.0, np.abs(lam).max(initial=0.0))
    bad = np.abs(lam.real) > max(MARGINAL_RE_TOL, 1e-13 * scale)
    if np.any(bad):
        raise SpectrumNotMarginal(
            f"eigenvalues off the imaginary axis: {lam[bad]}")
    if require_simple:
        close = np.abs(lam[:, None] - lam[None, :]) <= 1e-8 * scale
        np.fill_diagonal(close, False)
        if close.any():
            i = np.flatnonzero(close.any(axis=1))[0]
            raise RepeatedEigenvalue(
                f"eigenvalue {lam[i]:.6g} has multiplicity > 1")
    if _rank_c(vec) < s.shape[0]:
        raise SpectrumNotMarginal(
            "defective marginal spectrum (not semisimple)")
    return lam, vec


def marginal_spectrum_certificate(s):
    """Certificate P > 0 with ``P S + S.T P = 0`` for a marginal, simple S.

    ``P = Re(V^{-H} V^{-1})`` for V of :func:`marginal_eig`: ``V^H P V = I``
    commutes with the imaginary ``diag(lam)``.  Each conjugate pair of V is
    a unitary change of the real columns ``sqrt(2) [Re x, Im x]``, so the
    product is real up to rounding.  Both properties are re-verified.
    """
    s = _as_square(s, "S")
    vi = np.linalg.inv(marginal_eig(s, require_simple=True)[1])
    p = _sym((vi.conj().T @ vi).real)
    resid = np.abs(p @ s + s.T @ p).max()
    bound = 1e-10 * max(1.0, _norm2(p) * _norm2(s))
    if resid > bound:
        raise CertificateFailed(
            f"marginal certificate residual {resid:.2e} > {bound:.2e}")
    slack = float(np.linalg.eigvalsh(p)[0])
    if slack <= 0:
        raise CertificateFailed("marginal certificate not positive definite")
    return Certificate(P=p, slack=slack, kind="marginal_spectrum")


def marginal_kernel_certificate(g1):
    """P > 0 with ``G1 P + P G1.T = 0`` for semisimple marginal G1.

    The dual of :func:`marginal_spectrum_certificate`, ``P = Re(V V^H)``;
    repeated eigenvalues are allowed, as the p-copy internal model repeats
    the reference spectrum.  The residual is re-verified.
    """
    g1 = _as_square(g1, "G1")
    v = marginal_eig(g1, require_simple=False)[1]
    p = _sym((v @ v.conj().T).real)
    resid = np.abs(g1 @ p + p @ g1.T).max()
    if resid > 1e-10 * max(1.0, _norm2(p) * _norm2(g1)):
        raise CertificateFailed(
            f"marginal kernel residual {resid:.2e} too large")
    return p


# ---------------------------------------------------------------------------
# strict positive realness


def _spr_riccati_test(k, et, w, delta):
    """Which edges of a stack have some Y giving ``Q E + E.T Q <= -delta
    I``, in normal form.

    The leading axis runs over edges of one shape, each with its own
    margin ``delta``.  With ``et = U^{-1} E U``, ``w = U.T U`` and ``U.T Q
    U = blkdiag(k, Y)`` the margin reads ``L(Y) = blkdiag(k, Y) et + et.T
    blkdiag(k, Y) + delta w <= 0``.  Its (1,1) block -R must be negative
    definite; the Schur complement is then ``A_bar.T Y + Y A_bar + Y S Y +
    Q_c < 0``, solvable with Y > 0 exactly when A_bar is Hurwitz and the
    Hamiltonian ``[[A_bar, S], [-Q_c, -A_bar.T]]`` has no imaginary-axis
    eigenvalue (bounded real lemma).  Returns ``(fails, H)``: per edge the
    index in :data:`RICCATI_FAILS` of the failing condition (0 when the
    test passes), and the stack of H, read only where the test passes
    (None when Y is empty).
    """
    m = k.shape[-1]
    a11 = et[:, :m, :m]
    r = -_sym(k @ a11 + _mT(a11) @ k + delta[:, None, None] * w[:, :m, :m])
    fails = np.where(np.linalg.eigvalsh(r)[:, 0] <= 0, 1, 0)
    live = np.flatnonzero(fails == 0)
    if et.shape[-1] == m or live.size == 0:
        return fails, None
    # the edges that pass, with blocks sliced as from a single edge's et
    k, et, w, r = k[live], et[live], w[live], r[live]
    d = delta[live, None, None]
    a12, a21, a22 = et[:, :m, m:], et[:, m:, :m], et[:, m:, m:]
    c0 = _mT(a12) @ k + d * w[:, m:, :m]
    abar = a22 + a21 @ np.linalg.solve(r, _mT(c0))
    s = _sym(a21 @ np.linalg.solve(r, _mT(a21)))
    qc = _sym(c0 @ np.linalg.solve(r, _mT(c0)) + d * w[:, m:, m:])
    h = np.block([[abar, s], [-qc, -_mT(abar)]])
    finite = np.isfinite(h).all(axis=(-2, -1))
    h[~finite] = 0.0  # keeps one edge's overflow out of the stack's LAPACK
    tol = MARGINAL_RE_TOL * np.maximum(1.0, np.linalg.norm(h, 2,
                                                           axis=(-2, -1)))
    n_y = a22.shape[-1]
    stable = np.linalg.eigvals(h[:, :n_y, :n_y]).real.max(axis=-1) < -tol
    split = np.abs(np.linalg.eigvals(h).real).min(axis=-1) > tol
    fails[live] = np.select([~finite, ~stable, ~split], [2, 3, 4])
    h_all = np.zeros((len(fails),) + h.shape[1:])
    h_all[live] = h
    return fails, h_all


def _spr_edge(edge):
    """(E, F, G) of an edge, after the checks every SPR certificate needs."""
    e, f, g = edge.A, edge.B, edge.C
    if spectral_abscissa(e) >= -MARGINAL_RE_TOL:
        raise NotHurwitz(f"edge state matrix has abscissa "
                         f"{spectral_abscissa(e):.3e}")
    if not full_column_rank(f) or not full_row_rank(g):
        raise ValidationError("edge", "F must have full column rank and "
                                      "G full row rank")
    return e, f, g


def _spr_normal_form(edge):
    """``(k, et, w, U^{-1})`` of :func:`_spr_riccati_test` for one edge,
    with U = [F, null(G)]: exactly the Q with ``U.T Q U = blkdiag((G F).T,
    Y)`` meet ``Q F = G.T``, so (G F).T must be symmetric positive
    definite."""
    e, f, g = _spr_edge(edge)
    gf = g @ f
    if np.abs(gf - gf.T).max() > 1e-10 * max(1.0, np.abs(gf).max()):
        raise Infeasible("G F is not symmetric, so no symmetric Q has "
                         "Q F = G^T")
    k = _sym(gf)
    if np.linalg.eigvalsh(k)[0] <= 0:
        raise Infeasible("G F is not positive definite, so no Q > 0 has "
                         "Q F = G^T")
    u = np.hstack([f, null_space(g)])
    ui = np.linalg.inv(u)
    return k, ui @ e @ u, u.T @ u, ui


def spr_certificate(edge, Q=None, margin=STRICT_MARGIN):
    """Strict-positive-real certificate for an edge system (E, F, G).

    Constructs (or verifies) symmetric ``Q > 0`` with ``Q F = G.T`` and
    ``lambda_max(Q E + E.T Q) < -margin``; the achieved slack is recorded
    on the returned certificate.  The construction is
    :func:`spr_certificates` on a stack of one edge.

    Raises
    ------
    NotHurwitz
        If E is not Hurwitz (no SPR certificate can exist).
    Infeasible
        If no certificate with slack above ``margin`` exists, or a supplied
        Q is not one; the message names the condition that fails.
    CertificateFailed
        If the constructed Q fails its re-verification.
    """
    if Q is not None:
        return _checked_spr(_sym(_as_square(Q, "Q")), *_spr_edge(edge),
                            margin, "supplied Q", Infeasible)
    cert = spr_certificates([edge], margin)[0]
    if isinstance(cert, Exception):
        raise cert
    return cert


def spr_certificates(edges, margin=STRICT_MARGIN):
    """The certificate of :func:`spr_certificate` for every edge, or the
    exception it raises for that edge, in edge order.

    Edges of one shape (n, m) are certified together, their Riccati tests
    stacked.  With U = [F, null(G)] (:func:`_spr_normal_form`) a
    certificate exists iff (G F).T is symmetric positive definite and
    :func:`_spr_riccati_test` passes.  Each edge's largest margin is
    bisected on that test, all edges of a shape in one loop; Y is the
    stabilizing Riccati solution at ``SPR_CENTRE`` times it (kept above
    ``margin``), which is then the slack.  One edge's failure leaves the
    others' certificates unchanged.
    """
    out = [None] * len(edges)
    groups = {}
    for j, edge in enumerate(edges):
        try:
            form = _spr_normal_form(edge)
        except Exception as exc:
            out[j] = exc
            continue
        groups.setdefault(edge.B.shape, []).append((j, form))
    for (n, m), group in groups.items():
        idx = np.array([j for j, _ in group])
        k, et, w, ui = (np.stack(x) for x in zip(*(nf for _, nf in group)))
        fails, _ = _spr_riccati_test(k, et, w, np.full(len(idx), margin))
        for j, fail in zip(idx, fails):
            if fail:
                out[j] = Infeasible(f"no SPR certificate with margin "
                                    f"{margin:.1e}: {RICCATI_FAILS[fail]}")
        keep = fails == 0
        if not keep.any():
            continue
        idx, k, et, w, ui = idx[keep], k[keep], et[keep], w[keep], ui[keep]
        if n > m:
            import scipy.linalg

            # the (1,1) block fails from the generalized eigenvalue hi on
            b11 = -_sym(k @ et[:, :m, :m] + _mT(et[:, :m, :m]) @ k)
            hi = np.array([scipy.linalg.eigh(b, w_[:m, :m],
                                             eigvals_only=True)[0]
                           if np.isfinite(b).all() else np.inf
                           for b, w_ in zip(b11, w)])
            finite = np.isfinite(hi)
            for j in idx[~finite]:
                out[j] = Infeasible("the (1,1)-block bound of the SPR "
                                    "margin overflows double precision")
            idx, k, et, w, ui, hi = (a[finite] for a in (idx, k, et, w, ui,
                                                         hi))
            lo = np.full(len(idx), margin)
            # geometric midpoints without forming lo * hi, which overflows
            # for bounds above ~1e154; a finite hi ends the bisection in at
            # most ~20 steps
            while (act := hi > (1.0 + SPR_BISECT_RTOL) * lo).any():
                mid = np.sqrt(lo[act]) * np.sqrt(hi[act])
                ok = _spr_riccati_test(k[act], et[act], w[act], mid)[0] == 0
                lo[act] = np.where(ok, mid, lo[act])
                hi[act] = np.where(ok, hi[act], mid)
            centre = np.maximum(SPR_CENTRE * lo, 0.5 * (margin + lo))
            fails, h = _spr_riccati_test(k, et, w, centre)
        for i, j in enumerate(idx):
            try:
                q_t = k[i]  # Y is empty when G is square
                if n > m:
                    if fails[i]:
                        raise CertificateFailed(f"at margin {centre[i]:.3e}: "
                                                f"{RICCATI_FAILS[fails[i]]}")
                    # the stable invariant subspace [Z1; Z2] of H gives
                    # Y = Z2 Z1^{-1}
                    z = scipy.linalg.schur(h[i], output="real",
                                           sort="lhp")[1]
                    y = np.linalg.solve(z[:n - m, :n - m].T,
                                        z[n - m:, :n - m].T).T
                    q_t = block_diag([k[i], _sym(y)])
                edge = edges[j]
                out[j] = _checked_spr(_sym(ui[i].T @ q_t @ ui[i]), edge.A,
                                      edge.B, edge.C, margin,
                                      "constructed Q", CertificateFailed)
            except Exception as exc:
                out[j] = exc
    return out


def _checked_spr(q, e, f, g, margin, what, error):
    """Re-verify ``Q F = G.T``, ``Q > 0`` and the margin, else ``error``."""
    eq_resid = np.abs(q @ f - g.T).max()
    if eq_resid > 1e-10 * max(1.0, np.abs(g).max()):
        raise error(f"{what} violates Q F = G^T (residual {eq_resid:.2e})")
    if np.linalg.eigvalsh(q)[0] <= 0:
        raise error(f"{what} is not positive definite")
    lmax = float(np.linalg.eigvalsh(_sym(q @ e + e.T @ q))[-1])
    if lmax >= -margin:
        raise error(f"{what} gives lambda_max {lmax:.2e} >= {-margin:.2e}")
    return Certificate(P=q, slack=-lmax, kind="spr")


# ---------------------------------------------------------------------------
# PBH-style checks


def controllable(a, b):
    """PBH controllability over the full spectrum."""
    a = _as_square(a, "A")
    b = np.atleast_2d(np.asarray(b, dtype=float))
    n = a.shape[0]
    for lam in np.linalg.eigvals(a):
        m = np.hstack([a - lam * np.eye(n), b])
        if _rank_c(m) < n:
            return False
    return True


def observable(a, c):
    return controllable(np.asarray(a, dtype=float).T,
                        np.atleast_2d(np.asarray(c, dtype=float)).T)


def _rank_c(m):
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def node_normal_form(a, b, c):
    """Normal form ``(T, T^{-1}, T A T^{-1})`` of a hyper-minimum-phase node.

    T = [C; W] with W B = 0 (rows of W: an orthonormal basis of B's left
    null space).  The trailing (n - p) block of ``T A T^{-1}`` is the zero
    dynamics, whose eigenvalues are the invariant zeros (none if n == p).

    Raises
    ------
    DimensionMismatch
        If ``C @ B`` is not square (m != p).
    NotHyperMinPhase
        Naming the cause: C B not symmetric or not positive definite, T
        singular, or an invariant zero with Re >= -``MARGINAL_RE_TOL``.
    """
    a = _as_square(a, "A")
    b = np.atleast_2d(np.asarray(b, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if (cb := c @ b).shape[0] != cb.shape[1]:
        raise DimensionMismatch(f"C B must be square, got {cb.shape}")
    if np.abs(cb - cb.T).max() > 1e-10 * max(1.0, np.abs(cb).max()):
        raise NotHyperMinPhase("C B is not symmetric")
    if (lmin := np.linalg.eigvalsh(_sym(cb))[0]) <= 0:
        raise NotHyperMinPhase(
            f"C B is not positive definite (smallest eigenvalue {lmin:.4g})")
    n, p = a.shape[0], cb.shape[0]
    t = np.vstack([c, null_space(b.T).T])
    if t.shape != (n, n) or np.linalg.matrix_rank(t) < n:
        raise NotHyperMinPhase("T = [C; W] is singular")
    ti = np.linalg.inv(t)
    ap = t @ a @ ti
    if (zero := rightmost_eigenvalue(ap[p:, p:])).real >= -MARGINAL_RE_TOL:
        raise NotHyperMinPhase(
            f"invariant zero {zero.real if zero.imag == 0 else zero:+.4g} "
            f"is not stable (Re >= -{MARGINAL_RE_TOL:g})")
    return t, ti, ap


# ---------------------------------------------------------------------------
# the block-interconnection stability certificate


def lemma1_certificate(w1, w2, w3, w4, w5, p_w, q_w):
    """Constructive stability certificate for the 2x2 block interconnection.

    For ``W = [[W1, W2 + W5], [W3, W4]]`` with symmetric positive definite
    ``P_w``, ``Q_w`` satisfying ``P_w W1 + W1.T P_w <= 0`` (with W1
    Hurwitz), ``Q_w W4 + W4.T Q_w < 0`` and ``P_w W2 = -W3.T Q_w``, builds
    ``P_bar = diag(P_w + eps_bar P_r, Q_w)`` with ``P_r`` from the Lyapunov
    solve ``P_r W1 + W1.T P_r = -I`` and

        eps_bar = min(1, eps1 / (a_r + a_w)^2),
        eps1 = -lambda_max(Q_w W4 + W4.T Q_w),
        a_r = ||P_r||, a_w = ||P_w|| + ||P_r W2||,

    valid whenever ``||W5|| < eps_bar``.  The negativity of
    ``P_bar W + W.T P_bar`` is re-verified by direct eigencomputation.

    Returns
    -------
    (Certificate, float)
        The block-diagonal certificate and ``eps_bar``.

    Raises
    ------
    HypothesisViolated
        If any hypothesis fails; the message names it.
    CertificateFailed
        If the assembled certificate does not achieve a negative margin.
    """
    w1 = _as_square(w1, "W1")
    w4 = _as_square(w4, "W4")
    w2 = np.atleast_2d(np.asarray(w2, dtype=float))
    w3 = np.atleast_2d(np.asarray(w3, dtype=float))
    w5 = np.atleast_2d(np.asarray(w5, dtype=float))
    p_w = _sym(_as_square(p_w, "P_w"))
    q_w = _sym(_as_square(q_w, "Q_w"))
    n1, n2 = w1.shape[0], w4.shape[0]
    if w2.shape != (n1, n2) or w3.shape != (n2, n1) or w5.shape != (n1, n2):
        raise DimensionMismatch("off-diagonal blocks inconsistent with W1/W4")

    if np.linalg.eigvalsh(p_w)[0] <= 0:
        raise HypothesisViolated("P_w is not positive definite")
    if np.linalg.eigvalsh(q_w)[0] <= 0:
        raise HypothesisViolated("Q_w is not positive definite")
    scale1 = max(1.0, _norm2(p_w) * _norm2(w1))
    if float(np.linalg.eigvalsh(_sym(p_w @ w1 + w1.T @ p_w))[-1]) > \
            PASSIVITY_TOL * scale1:
        raise HypothesisViolated("P_w W1 + W1.T P_w is not <= 0")
    eps1 = -float(np.linalg.eigvalsh(_sym(q_w @ w4 + w4.T @ q_w))[-1])
    if eps1 <= 0:
        raise HypothesisViolated("Q_w W4 + W4.T Q_w is not < 0")
    cross = np.abs(p_w @ w2 + w3.T @ q_w).max()
    cross_scale = max(1.0, np.abs(p_w @ w2).max(), np.abs(w3.T @ q_w).max())
    if cross > 1e-8 * cross_scale:
        raise HypothesisViolated(
            f"P_w W2 = -W3.T Q_w fails (residual {cross:.2e})")
    if spectral_abscissa(w1) >= -MARGINAL_RE_TOL:
        raise HypothesisViolated("W1 is not Hurwitz")

    p_r = lyapunov_solve(w1, np.eye(n1))
    a_r = _norm2(p_r)
    a_w = _norm2(p_w) + _norm2(p_r @ w2)
    eps_bar = min(1.0, eps1 / (a_r + a_w) ** 2)
    if _norm2(w5) >= eps_bar:
        raise HypothesisViolated(
            f"||W5|| = {_norm2(w5):.3e} >= eps_bar = {eps_bar:.3e}")

    p_bar = block_diag([p_w + eps_bar * p_r, q_w])
    w = np.block([[w1, w2 + w5], [w3, w4]])
    lmax = float(np.linalg.eigvalsh(_sym(p_bar @ w + w.T @ p_bar))[-1])
    if lmax >= 0:
        raise CertificateFailed(
            f"P_bar W + W.T P_bar has lambda_max {lmax:.3e} >= 0 "
            f"(eps1 {eps1:.3e}, a_r {a_r:.3e}, a_w {a_w:.3e})")
    return Certificate(P=_sym(p_bar), slack=-lmax, kind="lemma1"), eps_bar
