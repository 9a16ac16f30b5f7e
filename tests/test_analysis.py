import re

import numpy as np
import pytest
import scipy.linalg

from coopnet.analysis import (
    Certificate,
    build_exosystem,
    edge_system,
    lemma1_certificate,
    lyapunov_solve,
    marginal_eig,
    marginal_kernel_certificate,
    marginal_spectrum_certificate,
    node_normal_form,
    spectral_abscissa,
    spr_certificate,
    sylvester_solve,
)
from coopnet.errors import (
    DimensionMismatch,
    HypothesisViolated,
    Infeasible,
    NotHurwitz,
    NotHyperMinPhase,
    RepeatedEigenvalue,
    SingularPencil,
    SpectrumNotMarginal,
)
from coopnet.scenarios import demo_power_network, random_network, realize

from helpers import relative_degree_one_node

W = 100.0 * np.pi
ROT = np.array([[0.0, -W], [W, 0.0]])

# the demo network's three RL branches as (R, L)
RL_EDGES = [(0.05, 0.01e-3), (9.0, 1e-3), (8.0, 5e-3)]


# ---------------------------------------------------------------------------
# spectra and solvers


def test_spectral_abscissa_diag():
    assert spectral_abscissa(np.diag([-1.0, -2.0])) == -1.0


def test_spectral_abscissa_rotation_is_zero():
    assert abs(spectral_abscissa(ROT)) <= 1e-12 * W


def test_lyapunov_scalar():
    assert np.allclose(lyapunov_solve([[-1.0]], [[2.0]]), [[1.0]])


def test_lyapunov_diagonal():
    p = lyapunov_solve(np.diag([-1.0, -2.0]), np.eye(2))
    assert np.allclose(p, np.diag([0.5, 0.25]), atol=1e-12)


def test_lyapunov_marginal_rejected():
    with pytest.raises(SingularPencil):
        lyapunov_solve(ROT, np.eye(2))


def test_sylvester_scalar():
    assert np.allclose(sylvester_solve([[-1.0]], [[0.0]], [[2.0]]), [[2.0]])


def test_sylvester_diagonal():
    x = sylvester_solve(np.diag([-1.0, -2.0]), np.zeros((2, 2)), np.eye(2))
    assert np.allclose(x, np.diag([1.0, 0.5]), atol=1e-12)


def test_sylvester_shared_spectrum_rejected():
    with pytest.raises(SingularPencil):
        sylvester_solve(ROT, ROT, np.eye(2))


def _kron_sylvester_oracle(a, s, r):
    """Independent route: vectorize X S - A X = R and solve the linear system."""
    n, q = a.shape[0], s.shape[0]
    op = np.kron(s.T, np.eye(n)) - np.kron(np.eye(q), a)
    return np.linalg.solve(op, r.ravel(order="F")).reshape((n, q), order="F")


def test_sylvester_matches_kronecker_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n)) - (1.0 + n) * np.eye(n)
        w = rng.uniform(0.5, 3.0)
        s = np.array([[0.0, -w], [w, 0.0]])
        r = rng.standard_normal((n, 2))
        x = sylvester_solve(a, s, r)
        x_ref = _kron_sylvester_oracle(a, s, r)
        assert np.abs(x - x_ref).max() <= 1e-9 * max(1.0, np.abs(x_ref).max())
        resid = np.linalg.norm(x @ s - a @ x - r)
        bound = 1e-10 * (np.linalg.norm(a, 2) + np.linalg.norm(s, 2)) * \
            max(1.0, np.linalg.norm(x)) + 1e-12
        assert resid <= bound


def test_solver_residuals_on_random_well_conditioned_instances():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n)) - (2.0 + n) * np.eye(n)
        q0 = rng.standard_normal((n, n))
        q = q0 @ q0.T + np.eye(n)
        p = lyapunov_solve(a, q)
        assert np.linalg.norm(p @ a + a.T @ p + q) <= \
            1e-10 * max(1.0, np.linalg.norm(q))
        assert np.abs(p - p.T).max() <= 1e-12 * max(1.0, np.abs(p).max())


# ---------------------------------------------------------------------------
# marginal spectra


def test_marginal_certificate_rotation_is_identity():
    cert = marginal_spectrum_certificate(ROT)
    assert cert.kind == "marginal_spectrum"
    assert np.allclose(cert.P, np.eye(2), atol=1e-10)


def test_marginal_certificate_scalar_zero():
    cert = marginal_spectrum_certificate(np.zeros((1, 1)))
    assert np.allclose(cert.P, [[1.0]])


def test_marginal_certificate_two_frequencies():
    s = scipy.linalg.block_diag(ROT, [[0.0, -3.0], [3.0, 0.0]])
    cert = marginal_spectrum_certificate(s)
    resid = np.abs(cert.P @ s + s.T @ cert.P).max()
    assert resid <= 1e-10 * max(1.0, np.linalg.norm(cert.P, 2) *
                                np.linalg.norm(s, 2))
    assert np.linalg.eigvalsh(cert.P)[0] > 0
    # distinct-frequency blocks do not couple
    assert np.abs(cert.P[:2, 2:]).max() <= 1e-10


def test_marginal_certificate_similarity_transformed():
    rng = np.random.default_rng(1)
    v = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
    s = v @ ROT @ np.linalg.inv(v)
    cert = marginal_spectrum_certificate(s)
    resid = np.abs(cert.P @ s + s.T @ cert.P).max()
    assert resid <= 1e-10 * max(1.0, np.linalg.norm(cert.P, 2) *
                                np.linalg.norm(s, 2))


def test_marginal_certificate_rejects_stable_spectrum():
    with pytest.raises(SpectrumNotMarginal):
        marginal_spectrum_certificate(np.diag([-1.0, -2.0]))


def test_marginal_certificate_rejects_repeated():
    s = scipy.linalg.block_diag(ROT, ROT)
    with pytest.raises(RepeatedEigenvalue):
        marginal_spectrum_certificate(s)


def test_marginal_kernel_allows_repeated_copies():
    g1 = scipy.linalg.block_diag(ROT, ROT)
    p = marginal_kernel_certificate(g1)
    assert np.linalg.eigvalsh(p)[0] > 0
    assert np.abs(g1 @ p + p @ g1.T).max() <= 1e-8


def _real_basis_certificates(s):
    """The certificates from the real basis ``sqrt(2) [Re x, Im x]`` of
    each conjugate eigenpair (x real for a zero eigenvalue):
    ``(V_r^{-T} V_r^{-1}, V_r V_r^T)``."""
    lam, vec = np.linalg.eig(s)
    cols = []
    for k in np.flatnonzero(lam.imag >= 0):
        x = vec[:, k]
        cols += [np.sqrt(2.0) * x.real, np.sqrt(2.0) * x.imag] \
            if lam[k].imag > 0 else [x.real]
    v = np.column_stack(cols)
    vi = np.linalg.inv(v)
    return vi.T @ vi, v @ v.T


def test_marginal_certificates_equal_the_real_basis_construction():
    """V = V_r M with M unitary on each conjugate pair, so the complex
    products equal the real-basis ones, the p-copy kernel included."""
    from coopnet.scenarios import _random_marginal_exosystem
    from coopnet.synthesis import p_copy_internal_model

    rng = np.random.default_rng(5)
    for _ in range(40):
        s, _, _ = _random_marginal_exosystem(rng, q=int(rng.integers(1, 6)),
                                             p=1)
        p_eta = marginal_spectrum_certificate(s).P
        assert np.abs(p_eta - _real_basis_certificates(s)[0]).max() <= \
            1e-12 * np.abs(p_eta).max()
        g1 = p_copy_internal_model(s, int(rng.integers(1, 3))).G1
        p_g = marginal_kernel_certificate(g1)
        assert np.abs(p_g - _real_basis_certificates(g1)[1]).max() <= \
            1e-12 * np.abs(p_g).max()


_R2 = np.array([[0.0, -2.0], [2.0, 0.0]])


@pytest.mark.parametrize("s", [
    np.array([[0.0, 1.0], [0.0, 0.0]]),
    np.block([[_R2, np.eye(2)], [np.zeros((2, 2)), _R2]]),
], ids=["nilpotent", "rotation-jordan"])
def test_defective_marginal_spectrum_rejected(s):
    """A Jordan block on the imaginary axis has no marginal certificate:
    its eigenvectors do not span."""
    with pytest.raises(SpectrumNotMarginal, match="defective"):
        marginal_eig(s, require_simple=False)
    with pytest.raises(SpectrumNotMarginal, match="defective"):
        marginal_kernel_certificate(s)
    with pytest.raises(SpectrumNotMarginal):
        marginal_spectrum_certificate(s)


def test_marginal_eig_returns_the_decomposition():
    s = scipy.linalg.block_diag(ROT, [[0.0]])
    lam, v = marginal_eig(s)
    assert np.allclose(s @ v, v * lam, atol=1e-9 * W)
    assert sorted(np.round(lam.imag / W, 12)) == [-1.0, 0.0, 1.0]


def test_build_exosystem_injection_matrix():
    exo = build_exosystem(ROT, Q_eta=[[0.0, 1.0]], Q_v=[[1.0, 0.0]])
    assert np.allclose(exo.P_eta, np.eye(2), atol=1e-10)
    assert np.allclose(exo.B_eta, [[0.0], [1.0]], atol=1e-10)


# ---------------------------------------------------------------------------
# strict positive realness


@pytest.mark.parametrize("r,l", RL_EDGES)
def test_spr_rl_edge_certificate_is_inductance(r, l):
    edge = edge_system(E=[[-r / l]], F=[[1.0 / l]], G=[[1.0]])
    cert = spr_certificate(edge)
    assert np.allclose(cert.P, [[l]], rtol=1e-10)
    # Q E + E^T Q = -2 R = -(2 R / L) Q: the slack is the decay rate 2 R / L
    assert np.isclose(cert.slack, 2.0 * r / l, rtol=1e-10)


def test_spr_rejects_unstable_edge():
    with pytest.raises(NotHurwitz):
        spr_certificate(edge_system(E=[[1.0]], F=[[1.0]], G=[[1.0]]))


def test_spr_with_free_direction():
    edge = edge_system(E=np.diag([-1.0, -2.0]), F=[[1.0], [0.0]],
                       G=[[1.0, 0.0]])
    cert = spr_certificate(edge)
    q = cert.P
    assert np.abs(q @ edge.B - edge.C.T).max() <= 1e-10
    assert np.linalg.eigvalsh(q)[0] > 0
    m = q @ edge.A + edge.A.T @ q
    assert np.linalg.eigvalsh(m)[-1] < -1e-8
    # equality constraint pins the first column
    assert np.allclose(q[:, 0], [1.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("E,F,G,cause", [
    # G F = [[1, 1], [0, 1]]: Q F = G^T would need a non-symmetric Q
    (-np.eye(2), np.eye(2), [[1.0, 1.0], [0.0, 1.0]], "not symmetric"),
    # G F = -1: Q = F^{-T} (G F) F^{-1} is negative
    ([[-1.0]], [[1.0]], [[-1.0]], "not positive definite"),
    # E Hurwitz, but E11 = 1 > 0 makes Q E + E^T Q positive on e1
    ([[1.0, 1.0], [-5.0, -3.0]], [[1.0], [0.0]], [[1.0, 0.0]],
     "(1,1) block"),
    # A_bar = E22 - E21 E12 / (2 E11) = 0.125; DC gain -2 < 0
    ([[-1.0, 1.0], [-0.75, 0.5]], [[1.0], [0.0]], [[1.0, 0.0]],
     "not Hurwitz"),
    # A_bar = -0.25 Hurwitz, but A_bar^2 < S Q_c; DC gain -1/3 < 0
    ([[-1.0, 1.0], [-1.0, 0.25]], [[1.0], [0.0]], [[1.0, 0.0]],
     "imaginary eigenvalue"),
])
def test_spr_infeasible_names_its_cause(E, F, G, cause):
    edge = edge_system(E=E, F=F, G=G)
    with pytest.raises(Infeasible, match=re.escape(cause)):
        spr_certificate(edge)


def test_spr_accepts_supplied_certificate():
    edge = edge_system(E=[[-2.0]], F=[[4.0]], G=[[1.0]])
    cert = spr_certificate(edge, Q=[[0.25]])
    # Q E + E^T Q = -1 = -4 Q
    assert np.isclose(cert.slack, 4.0)


def test_spr_supplied_certificate_needs_g_f_positive_definite():
    # the supplied-Q path names the structural cause, as construction does
    edge = edge_system(E=[[-2.0]], F=[[4.0]], G=[[-1.0]])
    with pytest.raises(Infeasible, match="G F is not positive definite"):
        spr_certificate(edge, Q=[[0.25]])


def test_spr_rejects_bad_supplied_certificate():
    edge = edge_system(E=[[-2.0]], F=[[4.0]], G=[[1.0]])
    with pytest.raises(Infeasible):
        spr_certificate(edge, Q=[[1.0]])


# ---------------------------------------------------------------------------
# hyper-minimum-phase checks


def test_hyper_min_phase_examples():
    t, ti, ap = node_normal_form([[0.0]], [[1.0]], [[1.0]])
    assert np.array_equal(t, [[1.0]]) and np.array_equal(ap, [[0.0]])
    with pytest.raises(NotHyperMinPhase, match="C B is not positive "
                                                "definite"):
        node_normal_form([[0.0]], [[1.0]], [[-1.0]])
    with pytest.raises(NotHyperMinPhase, match="C B is not symmetric"):
        node_normal_form(np.zeros((2, 2)), np.eye(2), [[1.0, 1.0],
                                                       [0.0, 1.0]])


def test_hyper_min_phase_with_stable_zero():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    c = np.array([[1.0, 1.0]])
    t, ti, ap = node_normal_form(a, b, c)
    assert np.allclose(t @ ti, np.eye(2), atol=1e-15)
    assert np.abs(t[1:] @ b).max() <= 1e-15
    assert np.allclose(ap, t @ a @ ti, atol=1e-15)
    assert ap[1, 1] == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(NotHyperMinPhase, match="invariant zero \\+1 is not "
                                                "stable"):
        node_normal_form(a, b, [[-1.0, 1.0]])


def test_hyper_min_phase_rejects_nonsquare_cb():
    with pytest.raises(DimensionMismatch):
        node_normal_form(np.zeros((2, 2)), np.ones((2, 2)), np.ones((1, 2)))


@pytest.mark.parametrize("seed", [1030, 1470, 1775])
def test_normal_form_zeros_are_the_projected_spectrum(seed):
    """Relative-degree-one nodes whose stable zero the system-pencil QZ
    hid behind spurious zeros near 1e8: the zeros of the normal form are
    the nonzero eigenvalues of (I - B (C B)^{-1} C) A, an oracle that
    shares nothing with either construction, and its other p are 0."""
    a, b, c = relative_degree_one_node(seed)
    p = c.shape[0]
    ap = node_normal_form(a, b, c)[2]
    zeros = np.linalg.eigvals(ap[p:, p:])
    proj = (np.eye(a.shape[0]) - b @ np.linalg.solve(c @ b, c)) @ a
    lam = np.linalg.eigvals(proj)
    lam = lam[np.argsort(np.abs(lam))]
    assert np.abs(lam[:p]).max() <= 1e-12 * np.linalg.norm(proj, 2)
    assert np.allclose(np.sort_complex(lam[p:]), np.sort_complex(zeros),
                       rtol=1e-10, atol=0.0)
    assert zeros.real.max() < 0


def test_unstable_zero_is_named():
    with pytest.raises(NotHyperMinPhase,
                       match="invariant zero \\+3.452 is not stable"):
        node_normal_form(*relative_degree_one_node(235))


def _pencil_zeros(a, b, c):
    """Finite eigenvalues of the system pencil (the QZ oracle)."""
    n, p = a.shape[0], c.shape[0]
    pencil = np.block([[a, b], [c, np.zeros((p, p))]])
    weight = scipy.linalg.block_diag(np.eye(n), np.zeros((p, p)))
    alpha, beta = scipy.linalg.eig(pencil, weight, right=False,
                                   homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-10 * max(1.0, np.abs(alpha).max())
    return alpha[finite] / beta[finite]


def test_normal_form_zeros_match_the_system_pencil():
    """On the random_network panel the zeros of the normal form equal the
    QZ zeros of the system pencil wherever the QZ finds n - p finite ones
    (a split infinite eigenvalue can add spurious ones)."""
    compared = 0
    for seed in range(12):
        for kw in ({}, dict(n_nodes=5, m_edges=6, dims=3),
                   dict(n_nodes=4, m_edges=5, dims=3, p=2, q_exo=4)):
            for node in random_network(seed=seed, **kw).nodes:
                p, n = node.C.shape
                ap = node_normal_form(node.A, node.B, node.C)[2]
                qz = _pencil_zeros(node.A, node.B, node.C)
                if qz.size != n - p:
                    continue
                compared += 1
                for z in np.linalg.eigvals(ap[p:, p:]):
                    assert np.abs(qz - z).min() <= 1e-10 * max(1.0, abs(z))
    assert compared >= 100


# ---------------------------------------------------------------------------
# block-interconnection certificate


def test_lemma1_scalar_example():
    cert, eps_bar = lemma1_certificate(
        w1=[[-1.0]], w2=[[1.0]], w3=[[-1.0]], w4=[[-1.0]], w5=[[0.0]],
        p_w=[[1.0]], q_w=[[1.0]])
    # P_r = 1/2, eps1 = 2, a_r = 1/2, a_w = 3/2 -> eps_bar = min(1, 2/4)
    assert np.isclose(eps_bar, 0.5)
    assert np.allclose(cert.P, np.diag([1.25, 1.0]))
    assert cert.slack > 0


def test_lemma1_rejects_large_w5():
    with pytest.raises(HypothesisViolated):
        lemma1_certificate(
            w1=[[-1.0]], w2=[[1.0]], w3=[[-1.0]], w4=[[-1.0]], w5=[[0.6]],
            p_w=[[1.0]], q_w=[[1.0]])


def test_lemma1_rejects_bad_cross_identity():
    with pytest.raises(HypothesisViolated):
        lemma1_certificate(
            w1=[[-1.0]], w2=[[1.0]], w3=[[1.0]], w4=[[-1.0]], w5=[[0.0]],
            p_w=[[1.0]], q_w=[[1.0]])


def random_lemma1_instance(seed, n1=2, n2=2):
    """Instance satisfying every hypothesis, with P_w = Q_w = I."""
    rng = np.random.default_rng(seed)
    s0 = rng.standard_normal((n1, n1))
    s0 = 0.5 * (s0 - s0.T)
    r0 = np.diag(rng.uniform(0.3, 2.0, size=n1))
    w1 = s0 - r0
    s1 = rng.standard_normal((n2, n2))
    s1 = 0.5 * (s1 - s1.T)
    r1 = np.diag(rng.uniform(0.3, 2.0, size=n2))
    w4 = s1 - r1
    w3 = rng.standard_normal((n2, n1))
    w2 = -w3.T
    return w1, w2, w3, w4


def test_lemma1_random_block_instances():
    for seed in range(50):
        w1, w2, w3, w4 = random_lemma1_instance(seed)
        _, eps_bar = lemma1_certificate(
            w1, w2, w3, w4, np.zeros_like(w2), np.eye(2), np.eye(2))
        rng = np.random.default_rng(1000 + seed)
        w5 = rng.standard_normal(w2.shape)
        w5 *= 0.9 * eps_bar / max(np.linalg.norm(w5, 2), 1e-12)
        cert, _ = lemma1_certificate(w1, w2, w3, w4, w5, np.eye(2),
                                     np.eye(2))
        w = np.block([[w1, w2 + w5], [w3, w4]])
        m = cert.P @ w + w.T @ cert.P
        assert np.linalg.eigvalsh(0.5 * (m + m.T))[-1] < 0


def test_certificate_requires_symmetry():
    from coopnet.errors import ValidationError

    with pytest.raises(ValidationError):
        Certificate(P=np.array([[1.0, 2.0], [0.0, 1.0]]), slack=0.1,
                    kind="spr")


def test_marginal_certificate_on_random_transformed_spectra():
    from coopnet.scenarios import _random_marginal_exosystem

    for seed in range(40):
        rng = np.random.default_rng(seed)
        s, _, _ = _random_marginal_exosystem(rng, q=int(rng.integers(1, 5)),
                                             p=1)
        cert = marginal_spectrum_certificate(s)
        assert np.linalg.eigvalsh(cert.P)[0] > 0
        resid = np.abs(cert.P @ s + s.T @ cert.P).max()
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(cert.P, 2) *
                                    np.linalg.norm(s, 2))


def _assert_matches_scipy_sylvester(a, s, r):
    """``sylvester_solve`` agrees with scipy's Bartels-Stewart solver."""
    x = sylvester_solve(a, s, r)
    x_ref = scipy.linalg.solve_sylvester(a, -s, -r)  # A X - X S = -R
    assert np.abs(x - x_ref).max() <= 1e-10 * max(1.0, np.abs(x_ref).max())


@pytest.mark.parametrize("case", ["demo", "tracking", "sync", "cooperation",
                                  "master_slave"])
def test_sylvester_matches_scipy_on_pipeline_calls(monkeypatch, case):
    """Every regulator equation the synthesis solves, against scipy: one
    random network per regime, and the demo, whose node gains around 1e7
    give the stiffest scales the pipeline meets."""
    import coopnet.synthesis

    seeds = {"tracking": 0, "sync": 100, "cooperation": 200,
             "master_slave": 300}
    scn = demo_power_network() if case == "demo" else random_network(
        seed=seeds[case], regime=case, n_nodes=5, m_edges=6, dims=3)
    calls = []
    solve = coopnet.synthesis.sylvester_solve

    def recording(a, s, r, *args, **kwargs):
        calls.append((np.asarray(a), np.asarray(s), np.asarray(r)))
        return solve(a, s, r, *args, **kwargs)

    monkeypatch.setattr(coopnet.synthesis, "sylvester_solve", recording)
    realize(scn)
    assert len(calls) >= 5
    for a, s, r in calls:
        _assert_matches_scipy_sylvester(a, s, r)


def test_sylvester_matches_scipy_with_repeated_eigenvalues():
    """S = I_3 (x) S0, as the network maps pass it: each eigenvalue of S0
    appears three times, and its columns share one solve."""
    rng = np.random.default_rng(31)
    s = np.kron(np.eye(3), np.array([[0.0, -2.0], [2.0, 0.0]]))
    for n in (1, 4, 9):
        a = rng.standard_normal((n, n)) - (1.0 + n) * np.eye(n)
        _assert_matches_scipy_sylvester(a, s, rng.standard_normal((n, 6)))


def test_sylvester_matches_scipy_with_non_normal_s():
    """Companion form of (s^2 + 1)(s^2 + 4): simple spectrum +-1j, +-2j
    with eigenvectors far from orthogonal."""
    s = np.zeros((4, 4))
    s[:3, 1:] = np.eye(3)
    s[3] = [-4.0, 0.0, -5.0, 0.0]
    assert np.allclose(np.sort_complex(np.linalg.eigvals(s)),
                       [-2j, -1j, 1j, 2j])
    rng = np.random.default_rng(37)
    for n in (1, 3, 6):
        a = rng.standard_normal((n, n)) - (1.0 + n) * np.eye(n)
        _assert_matches_scipy_sylvester(a, s, rng.standard_normal((n, 4)))


def test_sylvester_residuals_on_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        q = int(rng.integers(1, 4))
        a = rng.standard_normal((n, n)) - (2.0 + n) * np.eye(n)
        if rng.random() < 0.5:
            w = rng.uniform(0.5, 3.0)
            s = np.array([[0.0, -w], [w, 0.0]]) if q != 1 else \
                np.zeros((1, 1))
            q = s.shape[0]
        else:
            s = rng.standard_normal((q, q)) + (1.0 + q) * np.eye(q)
        r = rng.standard_normal((n, q))
        x = sylvester_solve(a, s, r)
        resid = np.linalg.norm(x @ s - a @ x - r)
        bound = 1e-10 * (np.linalg.norm(a, 2) + np.linalg.norm(s, 2)) * \
            max(1.0, np.linalg.norm(x)) + 1e-12
        assert resid <= bound

