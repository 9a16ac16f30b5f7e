"""The exact SPR edge certificate against an independent frequency-domain
test, and its metamorphic invariances.

``frequency_spr`` is the positive-real lemma's frequency-domain side
(Khalil, *Nonlinear Systems*, Lemma 6.1): Z(s) = G (sI - E)^{-1} F is
strictly positive real when E is Hurwitz, ``Z(jw) + Z(jw)^H > 0`` for every
real w, and, Z being strictly proper, ``lim w^2 (Z(jw) + Z(jw)^H)`` is
positive definite.  It searches a dense frequency grid for a violation and
never forms a Q.  A certificate Q (``Q F = G^T``, ``Q E + E^T Q < 0``)
gives ``Z + Z^H = X^H (-(Q E + E^T Q)) X`` with ``X = (jwI - E)^{-1} F``,
so every exact certificate must pass; by the KYP lemma a minimal
realization that passes has a certificate, so every exact infeasibility on
a minimal realization must fail.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopnet.analysis import (
    STRICT_MARGIN,
    edge_system,
    spectral_abscissa,
    spr_certificate,
    spr_certificates,
)
from coopnet.errors import Infeasible
from coopnet.network import Network
from coopnet.scenarios import random_network
from coopnet.synthesis import check_assumptions

from helpers import ring30


# ---------------------------------------------------------------------------
# the frequency-domain oracle


def frequency_spr(edge):
    """Whether (E, F, G) passes the frequency-domain SPR test: w = 0 and
    4,001 log-spaced frequencies from 1e-4 times the smallest eigenvalue
    modulus of E to 1e4 times the largest, plus the condition at infinity."""
    e, f, g = edge.A, edge.B, edge.C
    if np.linalg.eigvals(e).real.max() >= 0:
        return False
    gf, gef = g @ f, g @ e @ f
    if np.abs(gf - gf.T).max() > 1e-10 * max(1.0, np.abs(gf).max()):
        return False  # w (Z + Z^H) tends to a nonzero Hermitian, indefinite
    if np.linalg.eigvalsh(-(gef + gef.T))[0] <= 0:
        return False
    moduli = np.abs(np.linalg.eigvals(e))
    w = np.concatenate([[0.0], np.geomspace(1e-4 * moduli.min(),
                                            1e4 * moduli.max(), 4001)])
    x = np.linalg.solve(1j * w[:, None, None] * np.eye(e.shape[0]) - e, f)
    z = g @ x
    return bool((np.linalg.eigvalsh(z + z.conj().transpose(0, 2, 1))[:, 0]
                 > 0).all())


def minimal(edge):
    """Kalman rank test: (E, F) controllable and (E, G) observable."""
    e, f, g = edge.A, edge.B, edge.C
    n = e.shape[0]
    pw = [np.linalg.matrix_power(e, k) for k in range(n)]
    ctrb = np.hstack([p @ f for p in pw])
    obsv = np.vstack([g @ p for p in pw])
    return np.linalg.matrix_rank(ctrb) == n == np.linalg.matrix_rank(obsv)


# ---------------------------------------------------------------------------
# the panel


def generic_edge(s):
    """A Hurwitz edge whose equality ``Q0 F = G^T`` has an SPD solution Q0;
    whether some solution also makes ``Q E + E^T Q`` negative varies."""
    rng = np.random.default_rng(1000 + s)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, n))
    while True:
        e = rng.standard_normal((n, n)) - 1.5 * np.eye(n)
        if spectral_abscissa(e) < 0:
            break
    f = rng.standard_normal((n, m))
    a = rng.standard_normal((n, n))
    q0 = a @ a.T + 0.3 * np.eye(n)
    return edge_system(E=e, F=f, G=(q0 @ f).T)


NETWORK_EDGES = [(f"net{seed}-{j}", edge)
                 for seed in range(20)
                 for j, edge in enumerate(random_network(
                     seed, n_nodes=3, m_edges=3, dims=3).edges)]
GENERIC_EDGES = [(f"generic{s}", generic_edge(s)) for s in range(40)]


def exact_or_none(edge):
    try:
        return spr_certificate(edge)
    except Infeasible:
        return None


def post_checks(cert, edge):
    q = cert.P
    assert np.abs(q @ edge.B - edge.C.T).max() <= 1e-10 * max(
        1.0, np.abs(edge.C).max())
    assert np.linalg.eigvalsh(q)[0] > 0
    lmax = np.linalg.eigvalsh(q @ edge.A + edge.A.T @ q)[-1]
    assert lmax < -STRICT_MARGIN
    assert np.isclose(cert.slack, -lmax, rtol=1e-12)


def assert_centred(cert, edge):
    """The slack is at least half the largest achievable margin: no
    certificate exists with twice the slack."""
    with pytest.raises(Infeasible):
        spr_certificate(edge, margin=2.0 * cert.slack)


@pytest.mark.parametrize("label,edge", NETWORK_EDGES + GENERIC_EDGES,
                         ids=[lab for lab, _ in NETWORK_EDGES + GENERIC_EDGES])
def test_exact_certificate_agrees_with_search(label, edge):
    # the search is the frequency sweep of frequency_spr
    cert = exact_or_none(edge)
    if cert is not None:
        post_checks(cert, edge)
        assert_centred(cert, edge)
        assert frequency_spr(edge)
    elif minimal(edge):
        assert not frequency_spr(edge)


def test_panel_holds_both_verdicts():
    verdicts = [exact_or_none(edge) is None for _, edge in GENERIC_EDGES]
    assert 0 < sum(verdicts) < len(verdicts)


def test_exact_certificate_where_the_search_gives_up():
    # edge 251 is one on which a local Nelder-Mead search over the affine
    # family Q F = G^T stalls without a certificate, although one exists
    edge = generic_edge(251)
    assert (edge.n, edge.m) == (4, 1)
    cert = spr_certificate(edge)
    post_checks(cert, edge)
    assert_centred(cert, edge)
    assert frequency_spr(edge)


# ---------------------------------------------------------------------------
# metamorphic invariances


def well_conditioned(rng, n):
    """Orthogonal * diag * orthogonal, singular values in [1/2, 2]."""
    o1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    o2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return o1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ o2


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_similarity_keeps_feasibility(edge_seed, t_seed):
    edge = generic_edge(edge_seed)
    t = well_conditioned(np.random.default_rng(t_seed), edge.n)
    ti = np.linalg.inv(t)
    moved = edge_system(E=t @ edge.A @ ti, F=t @ edge.B, G=edge.C @ ti)
    cert, cert_moved = exact_or_none(edge), exact_or_none(moved)
    assert (cert is None) == (cert_moved is None)
    if cert is not None:
        # Q -> T^{-T} Q T^{-1} keeps a margin delta above delta / ||T||^2,
        # and ||T|| <= 2; each slack lies in [delta_max / 2, delta_max]
        assert cert_moved.slack >= cert.slack / 8.0


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_input_output_change_keeps_certificate(edge_seed, s_seed):
    edge = generic_edge(edge_seed)
    s = well_conditioned(np.random.default_rng(s_seed), edge.m)
    moved = edge_system(E=edge.A, F=edge.B @ s, G=s.T @ edge.C)
    cert, cert_moved = exact_or_none(edge), exact_or_none(moved)
    assert (cert is None) == (cert_moved is None)
    if cert is not None:
        scale = np.abs(cert.P).max()
        assert np.abs(cert_moved.P - cert.P).max() <= 1e-9 * scale
        assert abs(cert_moved.slack - cert.slack) <= 1e-9 * cert.slack


# ---------------------------------------------------------------------------
# stacked certification


RING_EDGES = [(f"ring30-{j}", edge)
              for j, edge in enumerate(ring30().network().edges)]


def one_at_a_time(edge):
    """spr_certificate's certificate for ``edge``, or what it raises."""
    try:
        return spr_certificate(edge)
    except Exception as exc:
        return exc


def assert_same_outcome(got, want):
    """The same certificate bit for bit, or the same exception."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got.P.tobytes() == want.P.tobytes()
        assert got.P.shape == want.P.shape
        assert got.slack == want.slack and got.kind == want.kind


def test_stacked_certificates_equal_one_edge_at_a_time():
    # one call certifies every panel edge; the shapes mix, and 10 of the
    # generic edges have no certificate
    panel = NETWORK_EDGES + GENERIC_EDGES + RING_EDGES
    edges = [edge for _, edge in panel]
    got = spr_certificates(edges)
    assert len(got) == len(edges)
    assert sum(isinstance(c, Infeasible) for c in got) == 10
    for edge, cert in zip(edges, got):
        assert_same_outcome(cert, one_at_a_time(edge))


def test_failing_edges_leave_the_others_of_their_shape_unchanged():
    """Among the ring's 30 edges of shape (2, 1), one edge fails the
    Riccati test's Hamiltonian condition, one its (1,1) block, one
    overflows the Hamiltonian and one is not Hurwitz; every other edge
    keeps its verdict and certificate."""
    scn = ring30()
    network, exo = scn.network(), scn.exosystem()
    _, before = check_assumptions(network, exo)
    # Z(s) = s / (s^2 + 0.1 s + 1) is positive real but vanishes at s = 0
    lossless_at_dc = edge_system(E=[[0.0, 1.0], [-1.0, -0.1]],
                                 F=[[0.0], [1.0]], G=[[0.0, 1.0]])
    generic11 = GENERIC_EDGES[11][1]
    unstable = edge_system(E=[[0.5, 1.0], [0.0, -1.0]], F=[[1.0], [0.0]],
                           G=[[1.0, 0.0]])
    first = network.edges[0]
    overflowing = edge_system(E=first.A, F=first.B / 1e160,
                              G=first.C * 1e160)
    assert lossless_at_dc.B.shape == generic11.B.shape == (2, 1)
    swapped = {3: lossless_at_dc, 11: generic11, 20: unstable,
               25: overflowing}
    edges = tuple(swapped.get(j, e) for j, e in enumerate(network.edges))
    with pytest.warns(RuntimeWarning, match="overflow"):
        results, after = check_assumptions(
            Network(nodes=network.nodes, edges=edges,
                    topology=network.topology), exo)
    a3 = {r.entity: r for r in results if r.name == "A3"}
    margin = f"no SPR certificate with margin {STRICT_MARGIN:.1e}: "
    assert a3["edge 4"].detail == margin + \
        "the Riccati Hamiltonian has an imaginary eigenvalue"
    assert a3["edge 12"].detail == margin + \
        "the (1,1) block is not negative definite"
    assert a3["edge 21"].detail == "edge state matrix has abscissa 5.000e-01"
    assert a3["edge 26"].detail == margin + \
        "the Riccati Hamiltonian has non-finite entries"
    for j, (cert, cert_before) in enumerate(zip(after, before)):
        if j in swapped:
            assert cert is None and not a3[f"edge {j + 1}"].passed
        else:
            assert a3[f"edge {j + 1}"].passed
            assert_same_outcome(cert, cert_before)


# ---------------------------------------------------------------------------
# huge edges: the margin bisection ends


def test_huge_edge_margin_bisection_ends(monkeypatch):
    """A ring edge with E scaled by 1e160 has a margin bound near 1e160,
    so lo * hi overflows once lo has grown; the bisection must still end.
    Geometric midpoints halve log(hi / lo), at most ln(1.8e308 / 1e-8) ~
    729, down to ln(1 + SPR_BISECT_RTOL) ~ 1e-3: 20 steps, plus the tests
    at the margin and at the centre.  Counted, not timed."""
    import coopnet.analysis as analysis

    real, calls = analysis._spr_riccati_test, []

    def counted(*args):
        calls.append(args)
        if len(calls) > 22:
            raise AssertionError("margin bisection still running after "
                                 "22 Riccati tests")
        return real(*args)

    first = ring30().network().edges[0]
    base = spr_certificate(first)
    monkeypatch.setattr(analysis, "_spr_riccati_test", counted)
    for scale in (1e160, 1e300):
        calls.clear()
        cert = spr_certificate(edge_system(E=first.A * scale, F=first.B,
                                           G=first.C))
        # Q keeps Q F = G^T, and Q E + E^T Q scales with E
        assert cert.slack == pytest.approx(scale * base.slack, rel=1e-2)
        assert 2 < len(calls) <= 22


def test_edge_whose_margin_bound_overflows_is_infeasible():
    """An edge that passes the Riccati test at the strict margin but whose
    (1,1)-block bound on the margin is not finite has no certificate the
    bisection can centre: it is reported infeasible, naming the
    overflow."""
    first = ring30().network().edges[0]
    edge = edge_system(E=first.A * 100.0, F=first.B, G=first.C * 1e306)
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(Infeasible, match="bound of the SPR margin "
                                            "overflows double precision"):
        spr_certificate(edge)
