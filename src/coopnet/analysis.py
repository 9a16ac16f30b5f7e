"""Matrix and LTI certificates.

Everything here is a small dense-linear-algebra routine with an explicit
numerical contract: solvers check their residuals, certificate constructors
re-verify the inequalities they claim before returning, and every strict
inequality carries a certified slack.  Tolerances are module constants and
can be overridden per call.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    EigenFailure,
    HypothesisViolated,
    Infeasible,
    NotHurwitz,
    RepeatedEigenvalue,
    SingularPencil,
    SpectrumNotMarginal,
    CertificateFailed,
    ValidationError,
)
from .topology import full_column_rank, full_row_rank, matrix_rank

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
#: threshold below which eigenvalues count as "stable" in PBH-style tests
PBH_RE_TOL = 1e-9


def _as_square(a, name="matrix"):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {a.shape}")
    return a


def _sym(a):
    return 0.5 * (a + a.T)


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

    def rank_conditions_ok(self, rtol=None):
        """Input matrices full column rank, output full row rank."""
        kw = {} if rtol is None else {"rtol": rtol}
        ok = full_column_rank(self.B, **kw) and full_row_rank(self.C, **kw)
        if self.D_in is not None:
            ok = ok and full_column_rank(self.D_in, **kw)
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
    """

    P: np.ndarray
    slack: float
    kind: str

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

    When ``P_eta`` is not supplied it is constructed from the real
    eigenstructure of ``S``; when it is, both defining properties are
    verified.  ``Q_v`` defaults to ``Q_eta``.
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
        marginal_spectrum_certificate(S)  # still enforce A2 on S itself
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


def spectral_abscissa(a):
    """Largest real part over the eigenvalues of ``a``."""
    a = _as_square(a)
    if a.size == 0:
        return -np.inf
    if not np.all(np.isfinite(a)):
        raise EigenFailure("matrix has non-finite entries")
    try:
        lam = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenFailure(str(exc)) from exc
    return float(lam.real.max())


def is_hurwitz(a, tol=0.0):
    return spectral_abscissa(a) < -abs(tol)


def lyapunov_solve(a, q, rtol=SOLVE_RESID_RTOL):
    """Solve ``P A + A.T P = -Q`` for symmetric P.

    Raises
    ------
    SingularPencil
        If A and -A.T share an eigenvalue (the operator is singular), or
        the residual exceeds ``rtol * ||Q||``.
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
    q = np.asarray(q, dtype=float)
    p = _sym(scipy.linalg.solve_continuous_lyapunov(a.T, -q))
    # one round of iterative refinement recovers digits on stiff scales
    for _ in range(2):
        res_mat = p @ a + a.T @ p + q
        if np.linalg.norm(res_mat) <= 0.5 * rtol * max(1.0,
                                                       np.linalg.norm(q)):
            break
        p = _sym(p - scipy.linalg.solve_continuous_lyapunov(a.T, res_mat))
    resid = np.linalg.norm(p @ a + a.T @ p + q)
    if resid > rtol * max(1.0, np.linalg.norm(q)):
        raise SingularPencil(
            f"Lyapunov residual {resid:.2e} exceeds tolerance")
    return p


def sylvester_solve(a, s, r, rtol=SOLVE_RESID_RTOL):
    """Solve ``X S = A X + R`` (regulator-equation orientation).

    Raises
    ------
    SingularPencil
        If the spectra of A and S intersect, or the residual exceeds
        ``rtol * (||A|| + ||S||) * ||X|| + 1e-12``.
    """
    a = _as_square(a, "A")
    s = _as_square(s, "S")
    r = np.atleast_2d(np.asarray(r, dtype=float))
    if r.shape != (a.shape[0], s.shape[0]):
        raise DimensionMismatch(
            f"R must be {(a.shape[0], s.shape[0])}, got {r.shape}")
    la, ls = np.linalg.eigvals(a), np.linalg.eigvals(s)
    scale = max(1.0, np.abs(la).max(initial=0.0), np.abs(ls).max(initial=0.0))
    if np.abs(la[:, None] - ls[None, :]).min() <= 1e-12 * scale:
        raise SingularPencil("A and S share an eigenvalue")
    # A X + X (-S) = -R
    x = scipy.linalg.solve_sylvester(a, -s, -r)
    bound = rtol * (_norm2(a) + _norm2(s)) * max(1.0, np.linalg.norm(x)) \
        + 1e-12
    # iterative refinement recovers digits lost to stiff scalings
    for _ in range(2):
        res_mat = x @ s - a @ x - r
        if np.linalg.norm(res_mat) <= 0.5 * bound:
            break
        x = x + scipy.linalg.solve_sylvester(a, -s, res_mat)
    resid = np.linalg.norm(x @ s - a @ x - r)
    if resid > bound:
        raise SingularPencil(
            f"Sylvester residual {resid:.2e} exceeds tolerance {bound:.2e}")
    return x


# ---------------------------------------------------------------------------
# marginal spectra


def real_marginal_basis(s, re_tol=MARGINAL_RE_TOL, require_simple=True):
    """Real basis V with ``S = V J V^{-1}``, J block-diagonal and skew.

    J consists of 2x2 rotation blocks (one per conjugate pair) and scalar
    zeros.  Basis columns are normalized so a pure rotation block yields
    ``V^{-T} V^{-1} = I``.

    Raises
    ------
    SpectrumNotMarginal
        If any eigenvalue has ``|Re|`` above the threshold.
    RepeatedEigenvalue
        If ``require_simple`` and an eigenvalue repeats.
    """
    s = _as_square(s, "S")
    lam, vec = np.linalg.eig(s)
    scale = max(1.0, np.abs(lam).max(initial=0.0))
    tol = max(re_tol, 1e-13 * scale)
    bad = np.abs(lam.real) > tol
    if np.any(bad):
        raise SpectrumNotMarginal(
            f"eigenvalues off the imaginary axis: {lam[bad]}")
    if require_simple:
        for i in range(len(lam)):
            for j in range(i + 1, len(lam)):
                if abs(lam[i] - lam[j]) <= 1e-8 * scale:
                    raise RepeatedEigenvalue(
                        f"eigenvalue {lam[i]:.6g} has multiplicity > 1")
    used = np.zeros(len(lam), dtype=bool)
    cols, freqs = [], []
    # deterministic order: decreasing imaginary part, zeros last
    for k in sorted(range(len(lam)), key=lambda i: (-lam[i].imag, i)):
        if used[k]:
            continue
        if lam[k].imag > tol:
            partner = None
            for m in range(len(lam)):
                if m != k and not used[m] and \
                        abs(lam[m] - lam[k].conjugate()) <= 1e-8 * scale:
                    partner = m
                    break
            if partner is None:
                raise SpectrumNotMarginal(
                    f"eigenvalue {lam[k]:.6g} has no conjugate partner")
            used[k] = used[partner] = True
            u, v = vec[:, k].real.copy(), vec[:, k].imag.copy()
            c = np.sqrt((u @ u + v @ v) / 2.0)
            cols.extend([u / c, v / c])
            freqs.append(float(lam[k].imag))
        elif abs(lam[k].imag) <= tol:
            used[k] = True
            r = np.real_if_close(vec[:, k]).real.copy()
            cols.append(r / np.linalg.norm(r))
            freqs.append(0.0)
    v_mat = np.column_stack(cols) if cols else np.zeros((s.shape[0], 0))
    if matrix_rank(v_mat) < s.shape[0]:
        raise SpectrumNotMarginal("defective marginal spectrum (not semisimple)")
    return v_mat, freqs


def marginal_spectrum_certificate(s, re_tol=MARGINAL_RE_TOL):
    """Certificate P > 0 with ``P S + S.T P = 0`` for a marginal, simple S.

    The construction uses the real eigenstructure ``S = V J V^{-1}`` with J
    skew and returns ``P = V^{-T} V^{-1}``, which annihilates the Lyapunov
    operator exactly in exact arithmetic; both properties are re-verified
    numerically before returning.
    """
    s = _as_square(s, "S")
    v, _ = real_marginal_basis(s, re_tol=re_tol, require_simple=True)
    vi = np.linalg.inv(v)
    p = _sym(vi.T @ vi)
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

    Unlike :func:`marginal_spectrum_certificate` (which certifies the dual
    orientation ``P S + S.T P = 0``), this returns ``V V.T`` from the real
    eigenstructure, and repeated eigenvalues are allowed (the p-copy
    internal model repeats the reference spectrum); the spectrum must still
    be semisimple and purely imaginary.
    """
    g1 = _as_square(g1, "G1")
    v, _ = real_marginal_basis(g1, require_simple=False)
    p = _sym(v @ v.T)
    resid = np.abs(g1 @ p + p @ g1.T).max()
    if resid > 1e-10 * max(1.0, _norm2(p) * _norm2(g1)):
        raise CertificateFailed(
            f"marginal kernel residual {resid:.2e} too large")
    return p


def lyapunov_kernel_basis(g1, rtol=1e-10):
    """Basis of symmetric solutions of ``G1 P + P G1.T = 0``."""
    g1 = _as_square(g1, "G1")
    c = g1.shape[0]
    if c == 0:
        return []
    op = np.kron(np.eye(c), g1) + np.kron(g1, np.eye(c))
    sym = []
    for i in range(c):
        for j in range(i, c):
            e = np.zeros((c, c))
            e[i, j] = e[j, i] = 1.0
            sym.append(e.ravel())
    bsym = np.array(sym).T
    mat = op @ bsym
    u, sv, vt = np.linalg.svd(mat)
    cutoff = (sv > rtol * max(1.0, sv.max())).sum() if sv.size else 0
    null = vt.T[:, cutoff:]
    return [(bsym @ null[:, k]).reshape(c, c) for k in range(null.shape[1])]


# ---------------------------------------------------------------------------
# strict positive realness


def _spr_riccati_test(k, et, w, delta):
    """Whether some Y gives ``Q E + E.T Q <= -delta I``, in normal form.

    With ``et = U^{-1} E U``, ``w = U.T U`` and ``U.T Q U = blkdiag(k, Y)``
    the margin reads ``L(Y) = blkdiag(k, Y) et + et.T blkdiag(k, Y) + delta w
    <= 0``.  Its (1,1) block -R must be negative definite; the Schur
    complement is then ``A_bar.T Y + Y A_bar + Y S Y + Q_c < 0``, solvable
    with Y > 0 exactly when A_bar is Hurwitz and the Hamiltonian
    ``[[A_bar, S], [-Q_c, -A_bar.T]]`` has no imaginary-axis eigenvalue
    (bounded real lemma).  Returns ``(reason, H)``: the failing condition or
    None, and H when the test passes with a non-empty Y.
    """
    m = k.shape[0]
    a11, a12, a21, a22 = et[:m, :m], et[:m, m:], et[m:, :m], et[m:, m:]
    r = -_sym(k @ a11 + a11.T @ k + delta * w[:m, :m])
    if np.linalg.eigvalsh(r)[0] <= 0:
        return "the (1,1) block is not negative definite", None
    if a22.size == 0:
        return None, None
    c0 = a12.T @ k + delta * w[m:, :m]
    abar = a22 + a21 @ np.linalg.solve(r, c0.T)
    s = _sym(a21 @ np.linalg.solve(r, a21.T))
    qc = _sym(c0 @ np.linalg.solve(r, c0.T) + delta * w[m:, m:])
    h = np.block([[abar, s], [-qc, -abar.T]])
    tol = MARGINAL_RE_TOL * max(1.0, _norm2(h))
    if spectral_abscissa(abar) >= -tol:
        return "the Riccati A_bar is not Hurwitz", None
    if np.abs(np.linalg.eigvals(h).real).min() <= tol:
        return "the Riccati Hamiltonian has an imaginary eigenvalue", None
    return None, h


def spr_certificate(edge, Q=None, margin=STRICT_MARGIN):
    """Strict-positive-real certificate for an edge system (E, F, G).

    Constructs (or verifies) symmetric ``Q > 0`` with ``Q F = G.T`` and
    ``lambda_max(Q E + E.T Q) < -margin``; the achieved slack is recorded
    on the returned certificate.  With U = [F, null(G)], exactly the Q with
    ``U.T Q U = blkdiag((G F).T, Y)`` meet the equality, so a certificate
    exists iff (G F).T is symmetric positive definite and
    :func:`_spr_riccati_test` passes.  The largest margin is bisected on
    that test; Y is the stabilizing Riccati solution at ``SPR_CENTRE`` times
    it (kept above ``margin``), which is then the slack.

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
    e, f, g = edge.A, edge.B, edge.C
    if spectral_abscissa(e) >= -MARGINAL_RE_TOL:
        raise NotHurwitz(f"edge state matrix has abscissa "
                         f"{spectral_abscissa(e):.3e}")
    if not full_column_rank(f) or not full_row_rank(g):
        raise ValidationError("edge", "F must have full column rank and "
                                      "G full row rank")
    if Q is not None:
        return _checked_spr(_sym(_as_square(Q, "Q")), e, f, g, margin,
                            "supplied Q", Infeasible)
    n, m = f.shape
    gf = g @ f
    if np.abs(gf - gf.T).max() > 1e-10 * max(1.0, np.abs(gf).max()):
        raise Infeasible("G F is not symmetric, so no symmetric Q has "
                         "Q F = G^T")
    k = _sym(gf)
    if np.linalg.eigvalsh(k)[0] <= 0:
        raise Infeasible("G F is not positive definite, so no Q > 0 has "
                         "Q F = G^T")
    u = np.hstack([f, scipy.linalg.null_space(g)])
    ui = np.linalg.inv(u)
    et, w = ui @ e @ u, u.T @ u
    reason, _ = _spr_riccati_test(k, et, w, margin)
    if reason is not None:
        raise Infeasible(f"no SPR certificate with margin {margin:.1e}: "
                         f"{reason}")
    q_t = k  # Y is empty when G is square
    if n > m:
        # the (1,1) block fails from the generalized eigenvalue hi on
        lo = margin
        hi = float(scipy.linalg.eigh(-_sym(k @ et[:m, :m] + et[:m, :m].T @ k),
                                     w[:m, :m], eigvals_only=True)[0])
        while hi > (1.0 + SPR_BISECT_RTOL) * lo:
            mid = float(np.sqrt(lo * hi))
            if _spr_riccati_test(k, et, w, mid)[0] is None:
                lo = mid
            else:
                hi = mid
        centre = max(SPR_CENTRE * lo, 0.5 * (margin + lo))
        reason, h = _spr_riccati_test(k, et, w, centre)
        if reason is not None:
            raise CertificateFailed(f"at margin {centre:.3e}: {reason}")
        # the stable invariant subspace [Z1; Z2] of H gives Y = Z2 Z1^{-1}
        z = scipy.linalg.schur(h, output="real", sort="lhp")[1]
        y = np.linalg.solve(z[:n - m, :n - m].T, z[n - m:, :n - m].T).T
        q_t = scipy.linalg.block_diag(k, _sym(y))
    return _checked_spr(_sym(ui.T @ q_t @ ui), e, f, g, margin,
                        "constructed Q", CertificateFailed)


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


def stabilizability_check(a, b):
    """PBH test: every eigenvalue with Re >= -tol is controllable."""
    a = _as_square(a, "A")
    b = np.atleast_2d(np.asarray(b, dtype=float))
    n = a.shape[0]
    for lam in np.linalg.eigvals(a):
        if lam.real >= -PBH_RE_TOL:
            if _rank_c(np.hstack([a - lam * np.eye(n), b])) < n:
                return False
    return True


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


def _rank_c(m, rtol=1e-10):
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def transmission_rank_check(a, b, c, s):
    """Rank of ``[[A - lambda I, B], [C, 0]]`` is n+p at every eigenvalue of S."""
    a = _as_square(a, "A")
    b = np.atleast_2d(np.asarray(b, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    s = _as_square(s, "S")
    n, p = a.shape[0], c.shape[0]
    for lam in np.linalg.eigvals(s):
        top = np.hstack([a - lam * np.eye(n), b])
        bot = np.hstack([c, np.zeros((p, b.shape[1]))])
        if _rank_c(np.vstack([top, bot])) < n + p:
            return False
    return True


def invariant_zeros(a, b, c):
    """Finite invariant zeros of (A, B, C) via the system-pencil QZ."""
    a = _as_square(a, "A")
    b = np.atleast_2d(np.asarray(b, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    n, m, p = a.shape[0], b.shape[1], c.shape[0]
    pencil = np.block([[a, b], [c, np.zeros((p, m))]])
    weight = np.block([[np.eye(n), np.zeros((n, m))],
                       [np.zeros((p, n + m))]])
    alpha, beta, *_ = scipy.linalg.eig(pencil, weight, right=False,
                                       homogeneous_eigvals=True)
    scale = max(1.0, np.abs(alpha).max(initial=0.0))
    finite = np.abs(beta) > 1e-10 * scale
    return alpha[finite] / beta[finite]


def hyper_min_phase_check(a, b, c):
    """CB symmetric positive definite and all invariant zeros strictly stable.

    Systems with no finite zeros (e.g. n == p square relative-degree-one)
    pass the zero condition vacuously.

    Raises
    ------
    DimensionMismatch
        If ``C @ B`` is not square (m != p).
    """
    a = _as_square(a, "A")
    b = np.atleast_2d(np.asarray(b, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    cb = c @ b
    if cb.shape[0] != cb.shape[1]:
        raise DimensionMismatch(
            f"C B must be square for the relative-degree-one test, "
            f"got {cb.shape}")
    scale = max(1.0, np.abs(cb).max())
    if np.abs(cb - cb.T).max() > 1e-10 * scale:
        return False
    if np.linalg.eigvalsh(_sym(cb))[0] <= 0:
        return False
    zeros = invariant_zeros(a, b, c)
    return bool(np.all(zeros.real < -PBH_RE_TOL))


# ---------------------------------------------------------------------------
# the block-interconnection stability certificate


def lemma1_certificate(w1, w2, w3, w4, w5, p_w, q_w, tol=1e-9):
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
    if float(np.linalg.eigvalsh(_sym(p_w @ w1 + w1.T @ p_w))[-1]) > tol * scale1:
        raise HypothesisViolated("P_w W1 + W1.T P_w is not <= 0")
    eps1 = -float(np.linalg.eigvalsh(_sym(q_w @ w4 + w4.T @ q_w))[-1])
    if eps1 <= 0:
        raise HypothesisViolated("Q_w W4 + W4.T Q_w is not < 0")
    cross = np.abs(p_w @ w2 + w3.T @ q_w).max()
    cross_scale = max(1.0, np.abs(p_w @ w2).max(), np.abs(w3.T @ q_w).max())
    if cross > 1e-8 * cross_scale:
        raise HypothesisViolated(
            f"P_w W2 = -W3.T Q_w fails (residual {cross:.2e})")
    if not is_hurwitz(w1, tol=MARGINAL_RE_TOL):
        raise HypothesisViolated("W1 is not Hurwitz")

    p_r = lyapunov_solve(w1, np.eye(n1))
    a_r = _norm2(p_r)
    a_w = _norm2(p_w) + _norm2(p_r @ w2)
    eps_bar = min(1.0, eps1 / (a_r + a_w) ** 2)
    if _norm2(w5) >= eps_bar:
        raise HypothesisViolated(
            f"||W5|| = {_norm2(w5):.3e} >= eps_bar = {eps_bar:.3e}")

    p_bar = scipy.linalg.block_diag(p_w + eps_bar * p_r, q_w)
    w = np.block([[w1, w2 + w5], [w3, w4]])
    lmax = float(np.linalg.eigvalsh(_sym(p_bar @ w + w.T @ p_bar))[-1])
    if lmax >= 0:
        raise CertificateFailed(
            f"P_bar W + W.T P_bar has lambda_max {lmax:.3e} >= 0 "
            f"(eps1 {eps1:.3e}, a_r {a_r:.3e}, a_w {a_w:.3e})")
    return Certificate(P=_sym(p_bar), slack=-lmax, kind="lemma1"), eps_bar
