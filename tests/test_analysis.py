import re

import numpy as np
import pytest
import scipy.linalg

from coopnet.analysis import (
    Certificate,
    build_exosystem,
    edge_system,
    hyper_min_phase_check,
    invariant_zeros,
    lemma1_certificate,
    lyapunov_solve,
    marginal_kernel_certificate,
    marginal_spectrum_certificate,
    spectral_abscissa,
    spr_certificate,
    stabilizability_check,
    sylvester_solve,
    transmission_rank_check,
)
from coopnet.errors import (
    DimensionMismatch,
    HypothesisViolated,
    Infeasible,
    NotHurwitz,
    RepeatedEigenvalue,
    SingularPencil,
    SpectrumNotMarginal,
)

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
    # Q E + E^T Q = -2 R
    assert np.isclose(cert.slack, 2.0 * r, rtol=1e-10)


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
    assert np.isclose(cert.slack, 1.0)


def test_spr_rejects_bad_supplied_certificate():
    edge = edge_system(E=[[-2.0]], F=[[4.0]], G=[[1.0]])
    with pytest.raises(Infeasible):
        spr_certificate(edge, Q=[[1.0]])


# ---------------------------------------------------------------------------
# PBH-style checks


def test_stabilizability_examples():
    assert stabilizability_check([[0.0]], [[1.0]])
    assert not stabilizability_check(np.diag([1.0, -1.0]), [[0.0], [1.0]])
    assert stabilizability_check([[0.0]], [[1.0 / 50e-6]])


def test_transmission_rank_examples():
    assert transmission_rank_check([[0.0]], [[1.0]], [[1.0]], ROT)
    assert not transmission_rank_check([[0.0]], [[0.0]], [[1.0]], ROT)
    assert transmission_rank_check([[0.0]], [[1.0 / 30e-6]], [[1.0]], ROT)


def test_hyper_min_phase_examples():
    assert hyper_min_phase_check([[0.0]], [[1.0]], [[1.0]])
    assert not hyper_min_phase_check([[0.0]], [[1.0]], [[-1.0]])


def test_hyper_min_phase_with_stable_zero():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    c = np.array([[1.0, 1.0]])
    zeros = invariant_zeros(a, b, c)
    assert zeros.size == 1 and np.isclose(zeros[0].real, -1.0, atol=1e-9)
    assert hyper_min_phase_check(a, b, c)


def test_hyper_min_phase_rejects_nonsquare_cb():
    with pytest.raises(DimensionMismatch):
        hyper_min_phase_check(np.zeros((2, 2)), np.ones((2, 2)),
                              np.ones((1, 2)))


def test_hyper_min_phase_implies_transmission_rank():
    # relative-degree-one with stable zeros passes the rank test at any
    # marginal reference spectrum
    from coopnet.scenarios import _random_marginal_exosystem, _random_node

    for seed in range(25):
        rng = np.random.default_rng(seed)
        node = _random_node(rng, n=int(rng.integers(1, 4)), p=1)
        s, _, _ = _random_marginal_exosystem(rng, q=2, p=1)
        if hyper_min_phase_check(node.A, node.B, node.C):
            assert transmission_rank_check(node.A, node.B, node.C, s)


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
