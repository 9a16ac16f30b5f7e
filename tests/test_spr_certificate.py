"""The exact SPR edge certificate against an independent search, and its
metamorphic invariances.

``search_certificate`` is the Nelder-Mead search over the symmetric affine
family ``Q F = G^T`` that ``spr_certificate`` used before the exact
normal-form construction, except that each run stops as soon as it holds a
certificate.  It is kept here only as an oracle: whenever it finds a
certificate the exact test must find one too, and whenever the exact test
proves infeasibility the search must not find one.
"""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from coopnet.analysis import (
    STRICT_MARGIN,
    edge_system,
    spectral_abscissa,
    spr_certificate,
)
from coopnet.errors import Infeasible
from coopnet.scenarios import random_network


# ---------------------------------------------------------------------------
# the search oracle


def _sym(a):
    return 0.5 * (a + a.T)


def symmetric_affine_solutions(f, g_t, rtol=1e-10):
    """Particular symmetric P0 with ``P0 @ f = g_t`` plus a kernel basis of
    the symmetric N with ``N @ f = 0``; None when no symmetric solution
    exists."""
    n = f.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]

    def unit(i, j):
        e = np.zeros((n, n))
        e[i, j] = e[j, i] = 1.0
        return e

    mat = np.array([(unit(i, j) @ f).ravel() for i, j in pairs]).T
    sol, *_ = np.linalg.lstsq(mat, g_t.ravel(), rcond=None)
    p0 = sum(c * unit(i, j) for c, (i, j) in zip(sol, pairs))
    resid = np.abs(p0 @ f - g_t).max()
    if resid > rtol * max(1.0, np.abs(g_t).max(), np.abs(f).max()):
        return None
    _, sv, vt = np.linalg.svd(mat)
    cutoff = (sv > 1e-10 * max(1.0, sv.max())).sum() if sv.size else 0
    basis = [sum(c * unit(i, j) for c, (i, j) in zip(v, pairs))
             for v in vt[cutoff:]]
    return p0, basis


def search_certificate(e, f, g, seed=0, margin=STRICT_MARGIN):
    """Q from up to five Nelder-Mead runs, or None when the search gives up
    (which does not prove that no certificate exists)."""
    found = symmetric_affine_solutions(f, g.T)
    if found is None:
        return None
    p0, basis = found

    def lmax(q):
        return float(np.linalg.eigvalsh(_sym(q @ e + e.T @ q))[-1])

    def lmin(q):
        return float(np.linalg.eigvalsh(q)[0])

    def accept(q):
        return lmin(q) > 0 and lmax(q) < -margin

    if accept(p0) or not basis:
        return _sym(p0) if accept(p0) else None
    scale = max(1.0, np.abs(p0).max())
    delta = 1e-3 * scale

    def objective(theta):
        q = p0 + sum(t * b for t, b in zip(theta, basis))
        return max(lmax(q) + 2.0 * margin, -lmin(q) + delta)

    def stop_when_accepted(intermediate_result):
        if intermediate_result.fun < 0.0:
            raise StopIteration

    rng = np.random.default_rng(seed)
    starts = [np.zeros(len(basis))] + \
        [rng.standard_normal(len(basis)) * scale for _ in range(4)]
    for x0 in starts:
        res = scipy.optimize.minimize(
            objective, x0, method="Nelder-Mead", callback=stop_when_accepted,
            options={"maxiter": 4000, "xatol": 1e-12, "fatol": 1e-14})
        q = _sym(p0 + sum(t * b for t, b in zip(res.x, basis)))
        if accept(q):
            return q
    return None


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
    searched = search_certificate(edge.A, edge.B, edge.C)
    cert = exact_or_none(edge)
    assert (cert is None) == (searched is None)
    if cert is not None:
        post_checks(cert, edge)
        assert_centred(cert, edge)
        # the searched Q has a slack of at most the largest margin
        lyap = searched @ edge.A + edge.A.T @ searched
        assert cert.slack >= -0.5 * np.linalg.eigvalsh(lyap)[-1]


def test_panel_holds_both_verdicts():
    verdicts = [exact_or_none(edge) is None for _, edge in GENERIC_EDGES]
    assert 0 < sum(verdicts) < len(verdicts)


def test_exact_certificate_where_the_search_gives_up():
    edge = generic_edge(251)
    assert (edge.n, edge.m) == (4, 1)
    assert search_certificate(edge.A, edge.B, edge.C) is None
    cert = spr_certificate(edge)
    post_checks(cert, edge)
    assert_centred(cert, edge)


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
