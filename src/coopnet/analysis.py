"""Matrix and LTI certificates.

Everything here is a small dense-linear-algebra routine with an explicit
numerical contract: solvers check their residuals, certificate constructors
re-verify the inequalities they claim before returning, and every strict
inequality carries a certified slack.  Tolerances are module constants.
Every routine on a pipeline path is numpy alone: the SPR certificates
balance by a port of LAPACK's dgebal scaling and solve their Riccati and
Lyapunov equations by the matrix sign function.  scipy is imported only
inside :func:`lyapunov_solve`, for :func:`lemma1_certificate`.
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
#: decay rate (1/time) of strict storages: ``P A + A.T P < -STRICT_MARGIN P``
STRICT_MARGIN = 1e-8
#: fraction of the largest SPR decay rate an SPR certificate is built at
#: (nearer the largest rate, Q sits on the boundary with far smaller slacks)
SPR_CENTRE = 0.75
#: relative width of the bisection for the largest SPR decay rate
SPR_BISECT_RTOL = 1e-3
#: relative tolerance of non-strict storage inequalities and of P B = C.T
PASSIVITY_TOL = 1e-9
#: relative change (1-norm) of a matrix-sign Newton step that ends it
SIGN_RTOL = 1e-10
#: Newton steps allowed for a matrix sign
_SIGN_STEPS = 100
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


def _spr_riccati_test(k, et, delta):
    """Which systems of a stack (one shape, each with its decay rate
    ``delta``) have some Y giving ``Q E + E.T Q < -delta Q``.

    With ``et = U^{-1} E U``, ``U.T Q U = blkdiag(k, Y)`` and ``et_d = et +
    (delta / 2) I`` this reads ``blkdiag(k, Y) et_d + et_d.T blkdiag(k, Y)
    < 0``: -R, its (1,1) block, must be negative definite, and then ``A_bar.T
    Y + Y A_bar + Y S Y + Q_c < 0`` has a solution Y > 0 iff A_bar is
    Hurwitz and ``H = [[A_bar, S], [-Q_c, -A_bar.T]]`` has no imaginary
    eigenvalue (bounded real lemma).  Returns per system the index in
    :data:`RICCATI_FAILS` of the failing condition (0: passed), and H.
    """
    m, n = k.shape[-1], et.shape[-1]
    et = et + 0.5 * delta[:, None, None] * np.eye(n)
    a11 = et[:, :m, :m]
    r = -_sym(k @ a11 + _mT(a11) @ k)
    fails = np.where(np.linalg.eigvalsh(r)[:, 0] <= 0, 1, 0)
    live = np.flatnonzero(fails == 0)
    if n == m or live.size == 0:
        return fails, None
    # the systems that pass, with blocks sliced as from a single system's et
    k, et, r = k[live], et[live], r[live]
    a12, a21, a22 = et[:, :m, m:], et[:, m:, :m], et[:, m:, m:]
    c0 = _mT(a12) @ k
    abar = a22 + a21 @ np.linalg.solve(r, _mT(c0))
    s = _sym(a21 @ np.linalg.solve(r, _mT(a21)))
    qc = _sym(c0 @ np.linalg.solve(r, _mT(c0)))
    h = np.concatenate([np.concatenate([abar, s], -1),
                        np.concatenate([-qc, -_mT(abar)], -1)], -2)
    finite = np.isfinite(h).all(axis=(-2, -1))
    h[~finite] = 0.0  # keeps one system's overflow out of the stack's LAPACK
    # the scale of H's spectrum, kept by Y -> c Y (S -> c S, Q_c -> Q_c / c)
    b = np.abs(h).reshape(len(h), 2, n - m, 2, n - m).max(axis=(2, 4))
    tol = MARGINAL_RE_TOL * np.maximum(
        1.0, b[:, 0, 0] + np.sqrt(b[:, 0, 1]) * np.sqrt(b[:, 1, 0]))
    stable = np.linalg.eigvals(h[:, :n - m, :n - m]).real.max(axis=-1) < -tol
    split = np.abs(np.linalg.eigvals(h).real).min(axis=-1) > tol
    fails[live] = np.select([~finite, ~stable, ~split], [2, 3, 4])
    h_all = np.zeros((len(fails),) + h.shape[1:])
    h_all[live] = h
    return fails, h_all


def _spr_checked(e, f, g):
    """``(E, F, G)``, after checking that some symmetric Q > 0 has ``Q F =
    G.T``: G F must be symmetric positive definite."""
    if not np.isfinite(e).all():
        raise EigenFailure("matrix has non-finite entries")
    gf = g @ f
    # a non-finite G F fails as not symmetric
    if gf.shape[0] != gf.shape[1] or not np.abs(gf - gf.T).max() <= \
            1e-10 * max(1.0, np.abs(gf).max()):
        raise Infeasible("G F is not symmetric, so no symmetric Q has "
                         "Q F = G^T")
    if np.linalg.eigvalsh(_sym(gf))[0] <= 0:
        raise Infeasible("G F is not positive definite, so no Q > 0 has "
                         "Q F = G^T")
    return e, f, g


def _scaled_norm(v, vmax):
    """2-norm of each row of ``|v|``, with row maxima ``vmax``, formed on
    the rows scaled by their maxima so that no square overflows."""
    return vmax * np.sqrt(np.square(v / np.where(vmax > 0, vmax, 1.0)[:, None])
                          .sum(axis=-1))


def _balance(a):
    """Diagonal D, per matrix of the stack ``a``, with ``D^{-1} a D``
    balanced: the scaling loop of LAPACK's dgebal (job 'S'; Parlett &
    Reinsch, Numer. Math. 1969), run on the whole stack at once.  For each
    i in turn, f is the power of two that brings the norms of column i
    times f and row i over f within a factor 2 of each other; it is applied
    when it cuts their sum below 0.95 times, within dgebal's underflow and
    overflow guards.  Sweeps repeat until no f is applied.  Every product
    is by a power of two, so the scales equal ``scipy.linalg.
    matrix_balance(a, permute=False, separate=True)[1][0]`` bit for bit.
    """
    a = np.array(a, dtype=float)
    sfmin1 = np.finfo(float).tiny / np.finfo(float).eps
    sfmax1, sfmin2, sfmax2 = 1.0 / sfmin1, 2.0 * sfmin1, 0.5 / sfmin1
    d, moved = np.ones(a.shape[:-1]), True
    while moved:
        moved = False
        for i in range(a.shape[-1]):
            col, row = np.abs(a[:, :, i]), np.abs(a[:, i, :])
            ca, ra = col.max(axis=-1), row.max(axis=-1)
            c, r = _scaled_norm(col, ca), _scaled_norm(row, ra)
            f, g, s = np.ones(len(a)), 0.5 * r, c + r
            live = (c != 0) & (r != 0) & np.isfinite(s + ca + ra)
            while (up := live & (c < g) & (np.max((f, c, ca), 0) < sfmax2) &
                   (np.min((r, g, ra), 0) > sfmin2)).any():
                f, c, ca = (np.where(up, 2.0 * v, v) for v in (f, c, ca))
                r, g, ra = (np.where(up, 0.5 * v, v) for v in (r, g, ra))
            g = 0.5 * c
            while (down := live & (g >= r) & (np.maximum(r, ra) < sfmax2) &
                   (np.min((f, c, g, ca), 0) > sfmin2)).any():
                f, c, g, ca = (np.where(down, 0.5 * v, v)
                               for v in (f, c, g, ca))
                r, ra = (np.where(down, 2.0 * v, v) for v in (r, ra))
            di = d[:, i]
            keep = ~live | (c + r >= 0.95 * s) | \
                ((f < 1) & (di < 1) & (f * di <= sfmin1)) | \
                ((f > 1) & (di > 1) & (di >= sfmax1 / np.maximum(f, 1.0)))
            if keep.all():
                continue
            f[keep], moved = 1.0, True
            d[:, i] *= f
            a[:, i, :] *= (1.0 / f)[:, None]
            a[:, :, i] *= f[:, None]
    return d


def _spr_normal_form(e, f, g):
    """``(k, et, U^{-1})`` of :func:`_spr_riccati_test` for a stack of
    systems of one shape, each checked by :func:`_spr_checked`.

    The Q with ``Q F = G.T`` are those with ``U.T Q U = blkdiag(k, Y)``, U
    = [F, N], G N = 0, k = (G F).T, which must be positive definite (so F
    and G have full rank).  For n > m, U = D [F_D S, null(G D)]: D balances
    [[E, F], [G, 0]] exactly, by powers of two (:func:`_balance`), and S
    gives F_D = D^{-1} F unit columns (k = S G F S).
    """
    k = _sym(g @ f)
    n, m = f.shape[-2:]
    if n == m:
        ui = np.linalg.inv(f)
        return k, ui @ e @ f, ui
    aug = np.concatenate([np.concatenate([e, f], -1), np.concatenate(
        [g, np.zeros((len(g), m, m))], -1)], -2)
    d = _balance(aug)[:, :n]
    f_d = f / d[:, :, None]
    s = 1.0 / np.linalg.norm(f_d, axis=-2)
    # G D has full row rank m, as G F is positive definite
    u = np.concatenate([f_d * s[:, None], _mT(
        np.linalg.svd(g * d[:, None])[2][:, m:])], -1)
    ui = np.linalg.inv(u)
    return (k * (s[:, :, None] * s[:, None]),
            ui @ (e * d[:, None] / d[:, :, None]) @ u, ui / d[:, None])


def _stacked_forms(systems, check):
    """``out[j]``, what ``check(systems[j])`` raised (else None), and per
    shape of B the indices and stacked :func:`_spr_normal_form` of the
    systems (E, F, G) that ``check`` returned."""
    out, groups = [None] * len(systems), {}
    for j, system in enumerate(systems):
        try:
            groups.setdefault(system.B.shape, []).append((j, check(system)))
        except Exception as exc:
            out[j] = exc
    return out, {shape: [np.array([j for j, _ in g]), *_spr_normal_form(
        *map(np.stack, zip(*(efg for _, efg in g))))]
        for shape, g in groups.items() if g}


def _spr_system(system):
    """(E, F, G), after the Hurwitz check that names the abscissa and
    :func:`_spr_checked`."""
    if (absc := spectral_abscissa(system.A)) >= -MARGINAL_RE_TOL:
        raise NotHurwitz(f"edge state matrix has abscissa {absc:.3e}")
    return _spr_checked(system.A, system.B, system.C)


def spr_certificate(edge, Q=None, margin=STRICT_MARGIN):
    """Strict-positive-real certificate for an edge system (E, F, G).

    Constructs (:func:`spr_certificates` of one edge) or verifies symmetric
    ``Q > 0`` with ``Q F = G.T`` and ``Q E + E.T Q < -margin Q``, a decay
    rate, like the certificate's slack.

    Raises
    ------
    NotHurwitz
        If E is not Hurwitz (no SPR certificate can exist).
    Infeasible
        If no certificate with decay rate above ``margin`` exists, or a
        supplied Q is not one; the message names the condition that fails.
    CertificateFailed
        If the constructed Q fails its re-verification.
    """
    if Q is not None:
        e, f, g = _spr_system(edge)
        return checked_storage(Q, e, f, g, margin, "supplied Q", Infeasible)
    return _raised(spr_certificates([edge], margin)[0])


def spr_certificates(systems, margin=STRICT_MARGIN):
    """:func:`spr_certificate`'s certificate or exception for every system
    (E, F, G), edges and node state loops (A + B K_x, B, C) alike.

    One exists iff :func:`_spr_checked` and :func:`_spr_riccati_test`
    pass.  Each system's largest decay rate is bisected on that test, all
    systems of one shape stacked; at ``SPR_CENTRE`` times it (above
    ``margin``), Y is :func:`_riccati_solution`, one matrix-sign iteration
    and one Newton step over the stack, made definite by
    :func:`_riccati_interior`, and
    :func:`checked_storage` re-verifies every Q.  One system's failure
    leaves the others unchanged.
    """
    out, groups = _stacked_forms(systems, _spr_system)
    for (n, m), (idx, k, et, ui) in groups.items():
        fails, _ = _spr_riccati_test(k, et, np.full(len(idx), margin))
        for j, fail in zip(idx[fails > 0], fails[fails > 0]):
            out[j] = Infeasible(f"no SPR certificate with margin "
                                f"{margin:.1e}: {RICCATI_FAILS[fail]}")
        idx, k, et, ui = (a[fails == 0] for a in (idx, k, et, ui))
        if n > m:
            # the (1,1) block fails above (-(k E11 + E11.T k), k)'s least eig
            b11 = -_sym(k @ et[:, :m, :m] + _mT(et[:, :m, :m]) @ k)
            finite = np.isfinite(b11).all(axis=(-2, -1))
            li = np.linalg.inv(np.linalg.cholesky(k))
            hi = np.linalg.eigvalsh(_sym(li @ np.where(
                finite[:, None, None], b11, 0.0) @ _mT(li)))[:, 0]
            finite &= np.isfinite(hi)
            for j in idx[~finite]:
                out[j] = Infeasible("the (1,1)-block bound of the SPR "
                                    "margin overflows double precision")
            idx, k, et, ui, hi = (a[finite] for a in (idx, k, et, ui, hi))
            lo = np.full(len(idx), margin)
            # geometric midpoints without forming lo * hi, which overflows
            # for bounds above ~1e154; a finite hi ends the bisection in at
            # most ~20 steps
            while (act := hi > (1.0 + SPR_BISECT_RTOL) * lo).any():
                mid = np.sqrt(lo[act]) * np.sqrt(hi[act])
                ok = _spr_riccati_test(k[act], et[act], mid)[0] == 0
                lo[act] = np.where(ok, mid, lo[act])
                hi[act] = np.where(ok, hi[act], mid)
            centre = np.maximum(SPR_CENTRE * lo, 0.5 * (margin + lo))
            fails, h = _spr_riccati_test(k, et, centre)
            ys = np.zeros((len(idx), n - m, n - m))
            if (live := fails == 0).any():
                ys[live] = _riccati_solution(h[live])
        for i, j in enumerate(idx):
            try:
                q_t = k[i]  # Y is empty when G is square
                if n > m:
                    if fails[i]:
                        raise CertificateFailed(f"at margin {centre[i]:.3e}: "
                                                f"{RICCATI_FAILS[fails[i]]}")
                    q_t = block_diag([k[i], _riccati_interior(ys[i], h[i],
                                                              k[i])])
                e, f, g = systems[j].A, systems[j].B, systems[j].C
                out[j] = checked_storage(ui[i].T @ q_t @ ui[i], e, f, g,
                                         margin, "constructed Q")
            except Exception as exc:
                out[j] = exc
    return out


def _matrix_sign(a):
    """sign(A) of each matrix of a stack with no imaginary eigenvalue, by
    Newton's iteration ``X <- (X + X^{-1}) / 2`` (Roberts, Int. J. Control
    1980).  Each matrix is first scaled by a power of two to entries below
    1 (sign(c A) = sign(A), and the scaling is exact), and each stops on its
    own, after the step that moves it by at most ``SIGN_RTOL`` of its
    1-norm, so its result does not depend on the rest of the stack.
    """
    x = np.ldexp(a, -np.frexp(np.abs(a).max(axis=(-2, -1)))[1][:, None, None])
    live = np.arange(len(x))
    for _ in range(_SIGN_STEPS):
        if not live.size:
            break
        old = x[live]
        x[live] = new = 0.5 * (old + np.linalg.inv(old))
        moved = np.abs(new - old).sum(axis=-2).max(axis=-1)
        live = live[moved > SIGN_RTOL * np.abs(new).sum(axis=-2).max(axis=-1)]
    return x


def _riccati_solution(h):
    """The stabilizing solution Y of each Riccati Hamiltonian of a stack
    (Byers, Linear Algebra Appl. 1987): with W = sign(H), the stable
    invariant subspace [I; Y] of H is the null space of W + I, so
    ``[W12; W22 + I] Y = -[W11 + I; W21]``, solved by least squares.

    That Y is accurate to about ``SIGN_RTOL``; one Newton step on the
    Riccati equation (Kleinman, IEEE Trans. Autom. Control 1968), kept
    where it lowers the residual, brings it to working precision, which
    the slack of a nearly singular Y needs."""
    r = h.shape[-1] // 2
    w = _matrix_sign(h) + np.eye(2 * r)
    q, t = np.linalg.qr(w[..., r:])
    y = _sym(np.linalg.solve(t, -_mT(q) @ w[..., :r]))
    abar, s, qc = h[..., :r, :r], h[..., :r, r:], -h[..., r:, :r]

    def residual(y):
        return _mT(abar) @ y + y @ abar + y @ s @ y + qc

    # A_cl.T dY + dY A_cl = -res with A_cl = A_bar + S Y, on row-major
    # vec(dY): kron(A_cl.T, I) + kron(I, A_cl.T)
    act, eye = _mT(abar + s @ y), np.eye(r)
    lyap = (act[:, :, None, :, None] * eye[:, None, :] +
            eye[:, None, :, None] * act[:, None, :, None, :])
    try:
        dy = np.linalg.solve(lyap.reshape(-1, r * r, r * r),
                             -residual(y).reshape(-1, r * r, 1))
    except np.linalg.LinAlgError:  # some A_cl has eigenvalues summing to 0
        return y if len(h) == 1 else np.concatenate(
            [_riccati_solution(h[i:i + 1]) for i in range(len(h))])
    new = _sym(y + dy.reshape(y.shape))
    better = np.abs(residual(new)).max(axis=(-2, -1)) < \
        np.abs(residual(y)).max(axis=(-2, -1))
    return np.where(better[:, None, None], new, y)


def _stable_lyapunov(a):
    """The Y with ``A.T Y + Y A = -I`` for a Hurwitz A, from ``sign([[A.T,
    I], [0, -A]]) = [[-I, 2 Y], [0, I]]``."""
    r = len(a)
    w = _matrix_sign(np.block([[a.T, np.eye(r)], [np.zeros((r, r)), -a]])[
        None])[0]
    return _sym(0.5 * w[:r, r:])


def _riccati_interior(y, h, k):
    """The Riccati solution Y, or Y + tau Y_L where it is not safely
    positive definite (Q_c does not observe A_bar).  With ``A_cl.T Y_L +
    Y_L A_cl = -I``, A_cl = A_bar + S Y, the Riccati form moves by ``-tau I
    + tau^2 Y_L S Y_L``; tau is at most half its root (for one state, the
    midpoint of the Riccati solutions) and ``lambda_min(k) / ||Y_L||``."""
    y = _sym(y)
    lam = np.linalg.eigvalsh(y)
    if lam[0] > 1e-12 * lam[-1]:
        return y
    r, s = len(y), h[:len(y), len(y):]
    y_l = _stable_lyapunov(h[:r, :r] + s @ y)
    return y + y_l / (2.0 * np.linalg.eigvalsh(_sym(y_l @ s @ y_l))[-1] +
                      np.linalg.eigvalsh(y_l)[-1] / np.linalg.eigvalsh(k)[0])


def checked_storage(p, a, b, c, margin=None, what="storage",
                    error=CertificateFailed):
    """Certificate of a storage P of ``x' = A x + B u``, ``y = C x``,
    checked where P is the identity: with P = L L.T and N = L.T A L^{-T},
    ``P A + A.T P`` is congruent to M = N + N.T.  A strict storage (edges,
    state loops) needs ``lambda_max(M) < -margin``, i.e. ``P A + A.T P <
    -margin P``; otherwise ``lambda_max(M) <= PASSIVITY_TOL ||N||_2``.  ``P
    B = C.T`` is checked as ``L.T B = L^{-1} C.T``, entrywise relative.
    Similarity moves N by an orthogonal congruence only, so the verdict and
    the slack ``-lambda_max(M)`` (a decay rate) ignore the coordinates.
    """
    p = _sym(_as_square(p, what))
    if not np.isfinite(p).all():
        raise Infeasible(f"{what} overflows double precision")
    try:
        l = np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        raise error(f"{what} is not positive definite") from None
    li = np.linalg.inv(l)
    n, lb = l.T @ a @ li.T, l.T @ b
    lmax = float(np.linalg.eigvalsh(n + n.T)[-1])
    bound = PASSIVITY_TOL * _norm2(n) if margin is None else -margin
    if not (lmax <= bound if margin is None else lmax < bound):
        raise error(f"{what} inequality fails: lambda_max {lmax:.3e}, bound "
                    f"{bound:.3e}")
    if not (eq := np.abs(lb - li @ c.T).max() / np.abs(lb).max()) <= \
            PASSIVITY_TOL:
        raise error(f"{what} violates P B = C^T (relative residual "
                    f"{eq:.2e})")
    return Certificate(P=p, slack=-lmax, bound=bound,
                       kind="passivity" if margin is None else "spr")


def _raised(result):
    """``result``, raised when it is an exception."""
    if isinstance(result, Exception):
        raise result
    return result


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

    if np.linalg.eigvalsh(q_w)[0] <= 0:
        raise HypothesisViolated("Q_w is not positive definite")
    # P_w > 0, P_w W1 + W1.T P_w <= 0 and P_w W2 = -W3.T Q_w
    checked_storage(p_w, w1, w2, -q_w @ w3, what="P_w (W1, W2, -Q_w W3)",
                    error=HypothesisViolated)
    eps1 = -float(np.linalg.eigvalsh(_sym(q_w @ w4 + w4.T @ q_w))[-1])
    if eps1 <= 0:
        raise HypothesisViolated("Q_w W4 + W4.T Q_w is not < 0")
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
