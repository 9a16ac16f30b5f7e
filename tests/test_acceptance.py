"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 1 runs the pinned demo at two horizons.  At the pinned
1 s horizon its trailing errors (~3.0) must match ``demo_golden.csv``; at
the paper's 8 s horizon they must be <= 1e-2.  The controllers promise
asymptotic regulation, not a settling time: the dominant closed-loop mode
-1.165 +- 314.3j (the two load-to-ground branches seen through the nearly
shorted slave edge, on one quadrature) sets the decay, so the error ratio
between the two horizons must equal exp(7 * abscissa).
"""

import time

import numpy as np
import pytest

from coopnet.analysis import (
    build_exosystem,
    lemma1_certificate,
    spectral_abscissa,
)
from coopnet.cli import _load_golden
from coopnet.closedloop import assemble, epsilon_star
from coopnet.scenarios import (
    _random_marginal_exosystem,
    _random_node,
    demo_power_network,
    random_network,
    realize,
)
from coopnet.sim import (
    error_metrics,
    initial_state,
    integrate,
    steady_state_prediction,
    suggest_dt,
)
from coopnet.synthesis import (
    assumption_report,
    p_copy_internal_model,
    passify_node,
    regulator_map,
)

from helpers import with_zero_sum


# The paper's simulation horizon for the demo.  The CLI's failure hint
# ("try --t-end 8") and test_cli_demo_paper_horizon_passes in
# test_config_cli.py use the same 8 s; change all three together.
PAPER_HORIZON = 8.0


def _report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def demo():
    scn = demo_power_network()
    return scn, realize(scn)


def _pick_dt(cl, t_end, cap=1e-2):
    dt = min(cap, suggest_dt(cl))
    n = max(1, int(round(t_end / dt)))
    return t_end / n


def _decayed_horizon(alpha, factor=10.0, cap=2000.0):
    return min(cap, float(np.ceil(factor / abs(alpha))))


# ---------------------------------------------------------------------------


def test_criterion_1_demo_reproduction(demo):
    scn, rz = demo
    t0 = time.perf_counter()
    results, cset = assumption_report(
        rz.network, rz.cset.exo, scn.regime, roles=scn.roles, eps=scn.eps,
        gains=scn.gains)
    checks_ok = all(r.passed for r in results) and cset is not None
    modes = np.linalg.eigvals(rz.cl.A_error)
    dominant = modes[np.argmax(modes.real)]
    absc = spectral_abscissa(rz.cl.A_error)
    x0 = initial_state(rz.cl, nu0=scn.nu0, eta0=scn.eta0)
    metrics = {}
    for t_end in (scn.t_end, PAPER_HORIZON):
        res = integrate(rz.cl, x0, t_end=t_end, dt=scn.dt)
        metrics[t_end] = error_metrics(res, window=0.1)
    elapsed = time.perf_counter() - t0

    pinned, paper = metrics[scn.t_end], metrics[PAPER_HORIZON]
    measured = {"abscissa_error_system": absc}
    for i in (1, 2):
        measured[f"trailing_max_err_node{i}"] = pinned[i].max_error
        measured[f"decayed_node{i}"] = 1.0 if pinned[i].decayed else 0.0
    golden_off = {name: (measured[name], value, tol)
                  for name, (value, tol) in _load_golden().items()
                  if abs(measured[name] - value) > tol}
    worst = max(paper[i].max_error for i in (1, 2))
    decayed = all(metrics[t][i].decayed for t in metrics for i in (1, 2))
    predicted = np.exp((PAPER_HORIZON - scn.t_end) * absc)
    ratio = {i: paper[i].max_error / pinned[i].max_error for i in (1, 2)}
    ratio_ok = all(abs(r / predicted - 1.0) <= 0.05 for r in ratio.values())
    ok = (checks_ok and absc < 0 and decayed and not golden_off and
          worst <= 1e-2 and ratio_ok and elapsed <= 60.0)
    _report(
        "criterion 1 (demo reproduction)", ok,
        f"checks={'pass' if checks_ok else 'FAIL'}, dominant mode "
        f"{dominant.real:.4f} +- {abs(dominant.imag):.1f}j; "
        f"at {scn.t_end:g} s max|v-ref| = "
        f"{pinned[1].max_error:.4e}/{pinned[2].max_error:.4e} "
        f"(golden {'match' if not golden_off else 'MISMATCH'}); "
        f"at {PAPER_HORIZON:g} s = "
        f"{paper[1].max_error:.4e}/{paper[2].max_error:.4e} "
        f"(required <= 1e-2); ratio/exp({PAPER_HORIZON - scn.t_end:g} "
        f"abscissa) = {ratio[1] / predicted:.3f}/{ratio[2] / predicted:.3f} "
        f"(required within 5%), decayed={decayed}, runtime={elapsed:.1f}s "
        f"(limit 60)")
    assert checks_ok, "assumption checks failed"
    assert absc < 0, f"error system not Hurwitz at eps={scn.eps:g}"
    assert decayed, "errors not decaying"
    assert not golden_off, (
        f"pinned {scn.t_end:g} s run differs from demo_golden.csv "
        f"(name: measured, pinned, tolerance): {golden_off}")
    assert worst <= 1e-2, (
        f"trailing error {worst:.4e} exceeds 1e-2 at the paper's "
        f"{PAPER_HORIZON:g} s horizon (dominant mode {absc:.4f})")
    for i in (1, 2):
        envelope = pinned[i].max_error * predicted
        assert abs(ratio[i] / predicted - 1.0) <= 0.05, (
            f"node {i}: error fell by {ratio[i]:.4e} from {scn.t_end:g} s "
            f"to {PAPER_HORIZON:g} s, but the dominant mode "
            f"{dominant.real:.4f} +- {abs(dominant.imag):.1f}j predicts "
            f"the envelope {pinned[i].max_error:.4e} * "
            f"exp({absc:.4f} (t - {scn.t_end:g})) = {envelope:.4e} at "
            f"{PAPER_HORIZON:g} s, a factor {predicted:.4e}")
    assert elapsed <= 60.0, "runtime budget exceeded"


def test_criterion_2_internal_model_identity():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        s, q_eta, q_v = _random_marginal_exosystem(rng, q=2, p=1)
        exo = build_exosystem(s, q_eta, q_v)
        node = _random_node(rng, n=int(rng.integers(1, 4)), p=1)
        im = p_copy_internal_model(exo.S, 1)
        ctrl = passify_node(node, im, exo)
        pi = regulator_map(ctrl.Ahat, ctrl.Dhat_ref, ctrl.Chat, exo.S,
                           exo.Q_eta)
        worst = max(worst, np.abs(ctrl.Chat @ pi - exo.Q_eta).max())
    ok = worst <= 1e-8
    _report("criterion 2 (internal-model identity, 100 nodes)", ok,
            f"max ||Chat Pi - Q_eta||_inf = {worst:.3e} (required <= 1e-8)")
    assert ok


def test_criterion_3_decentralized_tracking():
    worst_err = 0.0
    for seed in range(25):
        n_nodes = 2 + seed % 3
        m_edges = min(6, n_nodes - 1 + seed % 3)
        scn = random_network(seed=seed, n_nodes=n_nodes, m_edges=m_edges,
                             dims=2, regime="tracking")
        rz = realize(scn)
        alpha = spectral_abscissa(rz.cl.A_error)
        assert alpha < 0, f"seed {seed}: tracking loop not Hurwitz"
        t_end = _decayed_horizon(alpha, factor=20.0)
        dt = _pick_dt(rz.cl, t_end)
        x0 = initial_state(rz.cl, eta0=scn.eta0)
        res = integrate(rz.cl, x0, t_end=t_end, dt=dt)
        for i in res.errors:
            worst_err = max(worst_err,
                            float(np.linalg.norm(res.errors[i][:, -1])))
    ok = worst_err <= 1e-6
    _report("criterion 3 (decentralized tracking, 25 networks)", ok,
            f"max ||e_i(T)|| = {worst_err:.3e} at T = 20/|abscissa| "
            f"(required <= 1e-6)")
    assert ok


def test_criterion_4_synchronization_limit():
    worst_rel = 0.0
    for seed in range(10):
        scn = random_network(seed=100 + seed, n_nodes=3, m_edges=3, dims=2,
                             regime="sync")
        rz = realize(scn)
        est = epsilon_star(rz.network, rz.cset, rz.maps, eps_hi=10.0)
        eps = est.eps_bisect / 2.0
        cl = assemble("sync", rz.network, rz.cset, rz.maps, eps=eps)
        alpha = spectral_abscissa(cl.A_error)
        assert alpha < 0
        t_end = _decayed_horizon(alpha)
        dt = _pick_dt(cl, t_end)
        x0 = initial_state(cl, eta0=scn.eta0)
        res = integrate(cl, x0, t_end=t_end, dt=dt)
        pred = steady_state_prediction(rz.cset, res.t, eta0=scn.eta0)
        for i in res.y:
            dev = np.linalg.norm(res.y[i][:, -1] - pred.per_node[i][:, -1])
            scale = np.linalg.norm(res.y[i], axis=0).max()
            worst_rel = max(worst_rel, dev / max(scale, 1e-12))
    ok = worst_rel <= 1e-3
    _report("criterion 4 (synchronization limit, 10 networks)", ok,
            f"max ||y_i(T) - predicted||/max_t||y_i|| = {worst_rel:.3e} "
            f"(required <= 1e-3)")
    assert ok


def _cooperation_runs():
    for seed in range(10):
        scn = random_network(seed=200 + seed, n_nodes=3, m_edges=3, dims=2,
                             regime="cooperation")
        rng = np.random.default_rng(900 + seed)
        etabar0 = {i: rng.uniform(-1.0, 1.0, size=scn.S.shape[0])
                   for i in range(1, scn.n_nodes + 1)}
        rz = realize(scn)
        est = epsilon_star(rz.network, rz.cset, rz.maps, eps_hi=10.0)
        eps = est.eps_bisect / 2.0
        cl = assemble("cooperation", rz.network, rz.cset, rz.maps, eps=eps)
        alpha = spectral_abscissa(cl.A_error)
        assert alpha < 0
        t_end = _decayed_horizon(alpha)
        dt = _pick_dt(cl, t_end)
        yield scn, rz, cl, etabar0, t_end, dt


def test_criterion_5_bias_law_and_cooperation():
    worst_bias_rel = 0.0
    worst_zero_sum = 0.0
    for scn, rz, cl, etabar0, t_end, dt in _cooperation_runs():
        # zero-sum violated: residual converges to the common bias
        c = sum(np.asarray(v) for v in scn.nu0.values())
        assert np.linalg.norm(c) > 0.05, "violation too small to measure"
        x0 = initial_state(cl, nu0=scn.nu0, etabar0=etabar0)
        res = integrate(cl, x0, t_end=t_end, dt=dt)
        pred = steady_state_prediction(rz.cset, res.t, nu0=scn.nu0,
                                       etabar0=etabar0)
        tail = res.t >= res.t[-1] - min(1.0, 0.1 * t_end)
        for i in res.errors:
            dev = np.abs(res.errors[i][:, tail] -
                         pred.bias[:, tail]).max()
            worst_bias_rel = max(worst_bias_rel,
                                 dev / np.linalg.norm(c))
        # zero-sum satisfied: residual converges to zero
        scn0 = with_zero_sum(scn)
        x0 = initial_state(cl, nu0=scn0.nu0, etabar0=etabar0)
        res0 = integrate(cl, x0, t_end=t_end, dt=dt)
        for i in res0.errors:
            worst_zero_sum = max(
                worst_zero_sum, np.abs(res0.errors[i][:, tail]).max())
    ok = worst_bias_rel <= 1e-3 and worst_zero_sum <= 1e-3
    _report(
        "criterion 5 (bias law / cooperation, 10 networks)", ok,
        f"max |residual - bias|/||c|| = {worst_bias_rel:.3e}, "
        f"max zero-sum residual = {worst_zero_sum:.3e} "
        f"(both required <= 1e-3)")
    assert ok


def test_criterion_6_output_sum_limit():
    worst_rel = 0.0
    for scn, rz, cl, etabar0, t_end, dt in _cooperation_runs():
        scn0 = with_zero_sum(scn)
        x0 = initial_state(cl, nu0=scn0.nu0, etabar0=etabar0)
        res = integrate(cl, x0, t_end=t_end, dt=dt)
        pred = steady_state_prediction(rz.cset, res.t, nu0=scn0.nu0,
                                       etabar0=etabar0)
        y_sum = sum(res.y[i] for i in res.y)
        scale = max(1.0, np.abs(y_sum).max())
        dev = np.abs(y_sum[:, -1] - pred.output_sum[:, -1]).max()
        worst_rel = max(worst_rel, dev / scale)
    ok = worst_rel <= 1e-3
    _report("criterion 6 (output-sum limit, 10 networks)", ok,
            f"max ||sum y(T) - predicted||/scale = {worst_rel:.3e} "
            f"(required <= 1e-3)")
    assert ok


def test_criterion_7_master_slave():
    worst_master = 0.0
    worst_slave = 0.0
    for seed in range(10):
        n_nodes = 3 + seed % 2
        n_slaves = 1 if seed < 5 else n_nodes - 1
        scn = random_network(seed=300 + seed, n_nodes=n_nodes,
                             m_edges=n_nodes, dims=2,
                             regime="master_slave", n_slaves=n_slaves)
        rz = realize(scn)
        est = epsilon_star(rz.network, rz.cset, rz.maps, eps_hi=10.0)
        eps = est.eps_bisect / 2.0
        cl = assemble("master_slave", rz.network, rz.cset, rz.maps,
                      eps=eps)
        alpha = spectral_abscissa(cl.A_error)
        assert alpha < 0
        t_end = _decayed_horizon(alpha)
        dt = _pick_dt(cl, t_end)
        x0 = initial_state(cl, nu0=scn.nu0, eta0=scn.eta0)
        res = integrate(cl, x0, t_end=t_end, dt=dt)
        tail = res.t >= res.t[-1] - min(1.0, 0.1 * t_end)
        for k, node_id in enumerate(cl.node_ids):
            err_tail = np.abs(res.errors[node_id][:, tail]).max()
            if (node_id - 1) in rz.cset.slaves:
                worst_slave = max(worst_slave, err_tail)
            else:
                worst_master = max(worst_master, err_tail)
    ok = worst_master <= 1e-3 and worst_slave <= 1e-3
    _report(
        "criterion 7 (master-slave, 10 networks, no zero-sum)", ok,
        f"max master |y - ref| = {worst_master:.3e}, "
        f"max slave |v - ref| = {worst_slave:.3e} (both <= 1e-3)")
    assert ok


def test_criterion_8_block_certificate():
    count = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        s0 = rng.standard_normal((n1, n1))
        w1 = 0.5 * (s0 - s0.T) - np.diag(rng.uniform(0.3, 2.0, size=n1))
        s1 = rng.standard_normal((n2, n2))
        w4 = 0.5 * (s1 - s1.T) - np.diag(rng.uniform(0.3, 2.0, size=n2))
        w3 = rng.standard_normal((n2, n1))
        w2 = -w3.T
        _, eps_bar = lemma1_certificate(
            w1, w2, w3, w4, np.zeros((n1, n2)), np.eye(n1), np.eye(n2))
        w5 = rng.standard_normal((n1, n2))
        w5 *= 0.9 * eps_bar / max(np.linalg.norm(w5, 2), 1e-12)
        cert, _ = lemma1_certificate(w1, w2, w3, w4, w5, np.eye(n1),
                                     np.eye(n2))
        w = np.block([[w1, w2 + w5], [w3, w4]])
        m = cert.P @ w + w.T @ cert.P
        lmax = np.linalg.eigvalsh(0.5 * (m + m.T))[-1]
        assert lmax < 0, f"seed {seed}: certificate not negative definite"
        count += 1
    _report("criterion 8 (block certificate, 50 instances)", True,
            f"all {count} certificates negative definite below eps_bar")


def test_criterion_9_coupling_gain_boundary(demo):
    scn, rz = demo
    eps_hi = 1e5
    est = epsilon_star(rz.network, rz.cset, rz.maps, eps_hi=eps_hi)

    def absc(e):
        return spectral_abscissa(assemble(
            "master_slave", rz.network, rz.cset, rz.maps, eps=e).A_error)

    below = absc(0.99 * est.eps_bisect)
    cond_low = below < 0
    cond_hi = True
    above = float("nan")
    if est.eps_bisect < eps_hi:
        above = absc(1.01 * est.eps_bisect)
        cond_hi = above >= -1e-9
    ok = cond_low and cond_hi and est.eps_bisect >= 20.0
    _report(
        "criterion 9 (coupling-gain boundary on the demo)", ok,
        f"eps_bisect = {est.eps_bisect:.4f} (>= 20 required), "
        f"abscissa at 0.99x = {below:.3e} (< 0), "
        f"at 1.01x = {above:.3e} (>= -1e-9)")
    assert ok
