from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from coopnet.analysis import spectral_abscissa
from coopnet.closedloop import assemble, epsilon_star
from coopnet.errors import (
    EmptyWindow,
    NonFiniteState,
    NumericalFailure,
    UnstableLoop,
    ValidationError,
)
from coopnet.scenarios import (
    demo_power_network,
    random_network,
    realize,
)
from coopnet.sim import (
    _STARTS_PER_PRODUCT,
    MAX_STORED,
    NodeMetrics,
    _STATE_BLOCK,
    _block_width,
    _expm,
    _observe,
    error_metrics,
    initial_state,
    integrate,
    steady_state_prediction,
    suggest_dt,
)

from helpers import flip_first_edge, relabel_cyclically, ring30, with_zero_sum

W = 100.0 * np.pi


class _Plain:
    """Minimal stand-in closed loop for pure integrator tests."""

    def __init__(self, a):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        n = a.shape[0]
        self.A_full = a
        self.A_error = a
        self.p = 1
        self.node_ids = (1,)
        self.y_map = np.zeros((1, n))
        self.v_map = np.zeros((1, n))
        self.ref_map = np.zeros((1, n))
        self.err_kind = {1: "output"}
        self.n_states = n
        self.index_map = ()


def test_integrate_scalar_exponential():
    res = integrate(_Plain([[-1.0]]), [1.0], t_end=1.0, dt=1e-3)
    assert abs(res.states[0, -1] - np.exp(-1.0)) <= 1e-9


def test_integrate_rotation_returns_after_one_period():
    cl = _Plain([[0.0, -W], [W, 0.0]])
    res = integrate(cl, [1.0, 0.0], t_end=0.02, dt=1e-6)
    assert np.abs(res.states[:, -1] - [1.0, 0.0]).max() <= 1e-6


def test_integrate_matches_eigendecomposition_on_every_grid():
    # every stored sample is V e^{Λt} V^{-1} x0, also at dt = 0.8, a step
    # beyond the stability region of classical RK4 for this matrix
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) - 3.0 * np.eye(4)
    x0 = rng.standard_normal(4)
    lam, vec = np.linalg.eig(a)
    coef = np.linalg.solve(vec, x0)
    for dt in (0.8, 0.2, 0.02, 0.002):
        res = integrate(_Plain(a), x0, t_end=0.8, dt=dt)
        exact = (vec @ (np.exp(np.outer(lam, res.t)) * coef[:, None])).real
        err = np.linalg.norm(res.states - exact, axis=0)
        assert np.all(err <= 1e-12 * np.linalg.norm(exact, axis=0))


def test_expm_matches_scipy():
    rng = np.random.default_rng(5)
    small = rng.standard_normal((6, 6))
    cl = _demo_loop()[0]
    n = 288
    non_normal = (rng.standard_normal((n, n)) / np.sqrt(n) - 1.5 * np.eye(n)
                  + np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n))
    panel = [np.zeros((3, 3)),
             small * (1.0 / np.abs(small).sum(axis=0).max()),  # below θ13
             small * (40.0 / np.abs(small).sum(axis=0).max()),  # above θ13
             cl.A_full * 5e-6, cl.A_full * 4e-5, non_normal]
    for a in panel:
        want = scipy.linalg.expm(a)
        assert np.abs(_expm(a) - want).max() <= 1e-13 * np.abs(want).max()


def test_coarse_step_on_a_stiff_scalar_is_exact():
    # a step far beyond the fastest time constant is still exact
    res = integrate(_Plain([[-100.0]]), [1.0], t_end=1.0, dt=0.05)
    exact = np.exp(-100.0 * res.t)
    assert np.all(np.abs(res.states[0] - exact) <= 1e-12 * exact)


def test_coarse_grid_samples_the_demo_trajectory():
    # the demo on a 1e-4 grid samples its 1 µs trajectory (stored every
    # 5 µs); each step rounds by about eps_mach |A h| and the marginal
    # reference modes carry it on, which reads 2.9e-10 of the peak at 1 s
    cl, x0, _ = _demo_loop()
    fine = integrate(cl, x0, t_end=1.0, dt=1e-6)
    coarse = integrate(cl, x0, t_end=1.0, dt=1e-4)
    every = round(1e-4 / fine.t[1])
    assert np.abs(coarse.t - fine.t[::every]).max() <= 1e-15
    expect = fine.states[:, ::every]
    assert np.abs(coarse.states - expect).max() <= \
        1e-9 * np.abs(expect).max()


def test_integrate_names_unstable_loop():
    # random_network's default eps = 1 is beyond this network's eps*, and
    # the error must say so
    rz = realize(random_network(seed=100, regime="sync"))
    x0 = initial_state(rz.cl, eta0=rz.scenario.eta0)
    assert suggest_dt(rz.cl) >= 1e-3
    with pytest.raises(UnstableLoop) as exc:
        integrate(rz.cl, x0, t_end=1.0, dt=1e-3)
    assert isinstance(exc.value, NumericalFailure)
    msg = str(exc.value)
    assert "eps=1:" in msg and "coopnet eps" in msg
    absc = float(msg.split("spectral abscissa ")[1].split(",")[0])
    assert absc == pytest.approx(spectral_abscissa(rz.cl.A_full), rel=1e-4)
    assert absc > 0


def test_unstable_loop_is_not_step_too_large_at_a_coarse_step():
    # at a coarse and at the suggested step alike, the loop itself grows
    # (A_error abscissa +0.862), and the error names that cause
    rz = realize(random_network(seed=0, n_nodes=3, m_edges=3, regime="sync",
                                eps=1.0))
    assert spectral_abscissa(rz.cl.A_error) == pytest.approx(0.862, abs=1e-3)
    x0 = initial_state(rz.cl, eta0=rz.scenario.eta0)
    for dt in (0.1, suggest_dt(rz.cl)):
        with pytest.raises(UnstableLoop) as exc:
            integrate(rz.cl, x0, t_end=10 * dt, dt=dt)
        assert "coopnet eps" in str(exc.value)


def test_integrate_reports_non_finite_state():
    with pytest.raises(NonFiniteState) as exc:
        integrate(_Plain([[-1.0]]), [np.nan], t_end=1.0, dt=1e-2)
    assert exc.value.step >= 1


def _sequential(r_s, x0, n):
    """Reference: n stored samples of x <- r_s @ x, one at a time."""
    states = [np.asarray(x0, dtype=float)]
    for _ in range(n):
        states.append(r_s @ states[-1])
    return np.column_stack(states)


def _demo_loop():
    scn = demo_power_network()
    rz = realize(scn)
    return rz.cl, initial_state(rz.cl, nu0=scn.nu0, eta0=scn.eta0), 1e-6


def _random_loop():
    scn = random_network(seed=2, regime="tracking")
    rz = realize(scn)
    return rz.cl, initial_state(rz.cl, eta0=scn.eta0), 1e-2


@pytest.mark.parametrize("n_stored", [1, _STATE_BLOCK - 1, _STATE_BLOCK,
                                      _STATE_BLOCK + 1, 3 * _STATE_BLOCK + 5])
@pytest.mark.parametrize("loop", [_demo_loop, _random_loop],
                         ids=["demo", "random"])
def test_blocked_propagation_matches_sequential_loop(loop, n_stored):
    cl, x0, dt = loop()
    s = 3
    res = integrate(cl, x0, t_end=n_stored * s * dt, dt=dt * s)
    assert "states" not in res.__dict__
    r_s = scipy.linalg.expm(cl.A_full * (dt * s))
    expect = _sequential(r_s, x0, n_stored)
    assert res.states.shape == expect.shape
    assert np.abs(res.states - expect).max() <= 1e-10 * np.abs(expect).max()
    assert res.store_every == 1
    assert np.array_equal(res.t, np.arange(n_stored + 1) * (dt * s))


def _overflowing_start(r_s, target):
    """x0 = (0, c) for the non-normal loop of :func:`_non_finite_step`,
    with c chosen so that x <- r_s x first leaves double precision at
    sample ``target``: the first component still grows there, and c
    scales it to just past the largest double."""
    x = np.array([0.0, 1.0])
    for _ in range(target):
        x = r_s @ x
    return np.array([0.0, np.finfo(float).max / abs(x[0]) * (1.0 + 1e-6)])


def _first_non_finite(r_s, x0, n):
    """First j <= n at which x <- r_s x is not finite, or None."""
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, n + 1):
            x = r_s @ x
            if not np.all(np.isfinite(x)):
                return j
    return None


def _non_finite_step(every, bad, dt=1e-4, t_end=0.3):
    """The stored sample integrate names, on a grid of steps ``dt *
    every``, for a stable but non-normal loop whose first component passes
    through ~1e6 t x2, with x0 scaled to overflow first at stored sample
    ``bad``."""
    cl = _Plain([[-1.0, 1e6], [0.0, -1.0]])
    r_s = scipy.linalg.expm(cl.A_full * (dt * every))
    x0 = _overflowing_start(r_s, bad)
    assert _first_non_finite(r_s, x0, bad + 1) == bad
    with pytest.raises(NonFiniteState) as exc:
        integrate(cl, x0, t_end=t_end, dt=dt * every)
    return exc.value.step


def _signal_width(n_stored):
    # the block width of integrate's kernel for _Plain's two signals, the
    # regulated one and the reference
    return _block_width(n_stored, 2)


@pytest.mark.parametrize("every", [1, 3])
def test_non_finite_step_is_exact_inside_a_block(every):
    # one sample after the start of the fourth block, and inside it
    width = _signal_width(3000 // every)
    assert width > 2
    for bad in (3 * width + 1, 3 * width + width // 2):
        assert _non_finite_step(every, bad) == bad


@pytest.mark.parametrize("every", [1, 3])
def test_non_finite_step_is_exact_at_a_block_start(every):
    bad = 3 * _signal_width(3000 // every)
    assert _non_finite_step(every, bad) == bad


@pytest.mark.parametrize("every", [1, 3])
def test_non_finite_step_is_exact_in_a_later_product(every):
    # 40,000 stored samples make more block starts than one product takes;
    # the overflow lands inside a block of the second product
    dt = 1e-5 / every
    width = _signal_width(40_000)
    blocks = -(-40_001 // width)
    assert blocks > _STARTS_PER_PRODUCT + 20
    bad = width * (_STARTS_PER_PRODUCT + 20) + width // 2
    assert _non_finite_step(every, bad, dt=dt, t_end=0.4) == bad


def test_non_finite_state_names_the_stored_sample():
    """999,983 steps are stored as 199,997 intervals of 999,983 / 199,997
    steps each, so a stored sample is no whole step: NonFiniteState names
    the first stored sample that is not finite."""
    cl = _Plain([[-1.0, 1e6], [0.0, -1.0]])
    dt, n_steps, n, bad = 1e-6, 999_983, 199_997, 123_457
    r_s = scipy.linalg.expm(cl.A_full * (dt * (n_steps / n)))
    x0 = _overflowing_start(r_s, bad)
    assert _first_non_finite(r_s, x0, bad + 1) == bad
    with pytest.raises(NonFiniteState) as exc:
        integrate(cl, x0, t_end=n_steps * dt, dt=dt)
    assert exc.value.step == bad


@pytest.mark.parametrize("every", [1, 3])
def test_non_finite_unformed_row_names_the_step_integrate_names(every):
    """A gain that overflows the neighboring input, not the state, first
    at stored sample ``bad``: integrate keeps the finite output, and the
    first read of ``v`` names the sample that integrate names when the
    neighboring input is the regulated signal."""
    dt, bad, a = 1e-4 * every, 700, [[-1.0, 1e6], [0.0, -1.0]]
    r_s = scipy.linalg.expm(np.array(a) * dt)
    x = np.array([0.0, 1.0])
    for _ in range(bad):
        x = r_s @ x
    gain = np.finfo(float).max / x[0] * (1.0 + 1e-6)
    lazy, regulated = _Plain(a), _Plain(a)
    lazy.y_map = np.array([[1.0, 0.0]])
    lazy.v_map = regulated.v_map = np.array([[gain, 0.0]])
    regulated.err_kind = {1: "input"}
    x0 = np.array([0.0, 1.0])
    res = integrate(lazy, x0, t_end=0.3, dt=dt)
    assert np.isfinite(res.y[1]).all()
    with pytest.raises(NonFiniteState) as unformed:
        res.v
    with pytest.raises(NonFiniteState) as stored:
        integrate(regulated, x0, t_end=0.3, dt=dt)
    assert unformed.value.step == stored.value.step == bad


@pytest.mark.parametrize("every", [1, 3])
def test_non_finite_signal_at_a_block_start_is_named(every):
    """A gain that overflows the regulated signal, not the state, first at
    the first sample of a block: integrate names that sample, not the one
    after it."""
    dt, a = 1e-4 * every, [[-1.0, 1e6], [0.0, -1.0]]
    bad = 18 * _signal_width(3000 // every)
    r_s = scipy.linalg.expm(np.array(a) * dt)
    x = np.array([0.0, 1.0])
    for _ in range(bad):
        x = r_s @ x
    cl = _Plain(a)
    cl.v_map = np.array([[np.finfo(float).max / x[0] * (1.0 + 1e-6), 0.0]])
    cl.err_kind = {1: "input"}
    with pytest.raises(NonFiniteState) as exc:
        integrate(cl, np.array([0.0, 1.0]), t_end=0.3, dt=dt)
    assert exc.value.step == bad


@pytest.fixture(scope="module")
def demo_step():
    cl, x0, dt = _demo_loop()
    return scipy.linalg.expm(cl.A_full * (dt * 5)), x0


def _observed_case(demo_step, k, general):
    step, x0 = demo_step
    n_x = step.shape[0]
    rng = np.random.default_rng(k)
    cols = np.column_stack([x0] + [x0 * rng.uniform(-1.0, 1.0, n_x)
                                   for _ in range(k - 1)])
    out = rng.standard_normal((4, n_x)) if general else np.eye(n_x)
    return step, out, cols


#: block width of the kernel runs below
_WIDTH = 64


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [1, _WIDTH - 1, _WIDTH, _WIDTH + 1, 3 * _WIDTH,
                               3 * _WIDTH + 1, None])
def test_propagate_matches_sequential_recurrence(demo_step, k, n):
    """The kernel's signals are out x_j of the sequential recurrence, for
    the identity and a general output map: for runs ending inside the first
    block, one sample before, at and after its end, at the end of the
    third block and one sample after it (width 64), and for a long run at
    the default width."""
    width = None if n is None else _WIDTH
    n = 2000 if n is None else n
    for general in (False, True):
        step, out, cols = _observed_case(demo_step, k, general)
        signals = _observe(step, out, cols, n, width)
        assert signals.shape == (k, n + 1, out.shape[0])
        for c in range(k):
            expect = out @ _sequential(step, cols[:, c], n)
            peak = np.abs(expect).max(axis=1, keepdims=True)
            assert np.all(np.abs(signals[c].T - expect) <= 1e-11 * peak)


@pytest.mark.parametrize("k", [1, 3])
def test_observe_products_follow_the_blocks(demo_step, monkeypatch, k):
    """w - 1 products build the table, one matrix-vector product (of the k
    columns) steps each block start, and one product per column forms the
    samples of up to ``_STARTS_PER_PRODUCT`` blocks."""
    step, out, cols = _observed_case(demo_step, k, True)
    # about 1.4 products of blocks of four signals
    n = _STARTS_PER_PRODUCT ** 2 // 2
    width = _block_width(n, out.shape[0])
    blocks = -(-(n + 1) // width)
    assert _STARTS_PER_PRODUCT < blocks < 2 * _STARTS_PER_PRODUCT
    shapes, matmul = [], np.matmul

    def spy(a, b, out):
        shapes.append(out.shape)
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    _observe(step, out, cols, n)
    monkeypatch.undo()
    n_x, r = step.shape[0], out.shape[0]
    expect = [(r, n_x)] * (width - 1)
    for size in (_STARTS_PER_PRODUCT, blocks - _STARTS_PER_PRODUCT):
        expect += [(k, n_x)] * size + [(size, width * r)] * k
    assert shapes == expect


def _full_demo_run():
    scn = demo_power_network()
    cl, x0, dt = _demo_loop()
    return cl, x0, dt, scn.t_end


def _ring30_run():
    # eps = 0.1 is about half the ring's boundary gain 0.179
    scn = ring30()
    cl = realize(replace(scn, eps=0.1)).cl
    return cl, initial_state(cl, nu0=scn.nu0, eta0=scn.eta0), scn.dt, \
        scn.t_end


@pytest.mark.parametrize("run", [_full_demo_run, _ring30_run],
                         ids=["demo", "ring30"])
def test_states_are_formed_on_first_read(run):
    """integrate forms only the signals; the first read of ``states``
    forms the samples of the sequential recurrence, and the signals are
    the output maps times them."""
    cl, x0, dt, t_end = run()
    res = integrate(cl, x0, t_end=t_end, dt=dt)
    assert "states" not in res.__dict__
    states = res.states
    assert res.__dict__["states"] is states and res.states is states
    r_s = scipy.linalg.expm(cl.A_full * (dt * res.store_every))
    expect = _sequential(r_s, x0, res.t.size - 1)
    assert np.abs(states - expect).max() <= 1e-10 * np.abs(expect).max()
    want = np.vstack([cl.y_map, cl.v_map, cl.ref_map]) @ states
    got = np.vstack([d[i] for d in (res.y, res.v, res.refs)
                     for i in cl.node_ids])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _traced(f):
    """f() and the (kept, peak) bytes tracemalloc traces while it runs."""
    import tracemalloc

    tracemalloc.start()
    try:
        value = f()
        return value, tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_integrate_allocates_its_result_and_no_states():
    """On the demo, integrate keeps its grid and the block starts and the
    table of its products, within 1 %, and its traced peak is under that
    plus one product: no signal array, no state buffer and no error array
    is formed, not even transiently."""
    cl, x0, dt, t_end = _full_demo_run()
    res, (kept, peak) = _traced(lambda: integrate(cl, x0, t_end=t_end, dt=dt))
    table, starts, _ = res._blocks
    run_bytes = res.t.nbytes + starts.nbytes + table.nbytes
    assert kept <= 1.01 * run_bytes
    assert peak <= kept + _STARTS_PER_PRODUCT * table[0].nbytes
    assert not {"states", "errors", "y", "v", "regulated", "refs"} & \
        set(res.__dict__)


@pytest.mark.parametrize("run", [_full_demo_run, _ring30_run],
                         ids=["demo", "ring30"])
def test_regulated_and_refs_are_formed_on_first_read(run):
    """integrate keeps neither the regulated signals nor the references.
    The first read of each forms, bit for bit, what the kernel observes
    directly from the run's one-step map and its map rows, and later reads
    return the same arrays."""
    cl, x0, dt, t_end = run()
    res = integrate(cl, x0, t_end=t_end, dt=dt)
    assert not {"regulated", "refs"} & set(res.__dict__)
    step = _expm(cl.A_full * (dt * res.store_every))
    maps = {"output": cl.y_map, "input": cl.v_map}
    p = cl.p
    rows = [maps[cl.err_kind[i]][k * p:(k + 1) * p]
            for k, i in enumerate(cl.node_ids)]
    samples = _observe(step, np.vstack(rows + [cl.ref_map]), x0[:, None],
                       res.t.size - 1)[0]
    m = len(rows) * p
    for name, columns in (("regulated", samples[:, :m]),
                          ("refs", samples[:, m:])):
        signals = getattr(res, name)
        assert getattr(res, name) is signals
        assert list(signals) == list(cl.node_ids)
        for k, i in enumerate(cl.node_ids):
            assert signals[i].tobytes() == \
                np.ascontiguousarray(columns[:, k * p:(k + 1) * p].T).tobytes()


def test_reading_regulated_does_not_form_refs():
    """Each of ``regulated`` and ``refs`` is formed alone."""
    cl, x0, dt, t_end = _full_demo_run()
    res = integrate(cl, x0, t_end=t_end, dt=dt)
    res.regulated
    assert "refs" not in res.__dict__
    assert not {"errors", "y", "v", "states"} & set(res.__dict__)


def test_demo_command_path_peaks_below_one_regulated_row():
    """The demo command's path, integrate and then error_metrics over
    ``DEMO_WINDOW``, peaks above its grid by less than one node's
    regulated row: each window is formed from only the products that cover
    it, and the run's signals are never held whole."""
    from coopnet.cli import DEMO_WINDOW

    cl, x0, dt, t_end = _full_demo_run()

    def demo_path():
        res = integrate(cl, x0, t_end=t_end, dt=dt)
        return res, error_metrics(res, window=DEMO_WINDOW)

    (res, metrics), (_, peak) = _traced(demo_path)
    assert list(metrics) == list(cl.node_ids)
    assert peak - res.t.nbytes < cl.p * res.t.size * 8
    assert not {"regulated", "refs", "errors"} & set(res.__dict__)


def test_stored_grid_follows_the_step_count():
    """s = ceil(steps / MAX_STORED) and n = ceil(steps / s) intervals of
    steps / n steps.  Where s does not divide the steps (999,983 is prime,
    1,999,966 = 2 x 999,983, 1,000,001 = 101 x 9,901) the grid keeps more
    than half the cap and ends at t_end."""
    dt = 1e-6
    for n_steps in (1_000_001, 999_983, 1_999_966, 200_001):
        res = integrate(_Plain([[-1.0]]), [1.0], t_end=n_steps * dt, dt=dt)
        n = res.t.size - 1
        assert MAX_STORED / 2 < n <= MAX_STORED
        assert abs(res.t[-1] - n_steps * dt) <= 1e-12 * n_steps * dt
        assert res.store_every == n_steps / n


@pytest.mark.parametrize("n_steps, every", [
    (200_000, 1), (10 ** 6, 5), (1_000_001, 101), (1_600_000, 8),
    (2 * 10 ** 6, 10), (8 * 10 ** 6, 40)])
def test_default_store_every_keeps_the_cap(n_steps, every):
    """``every`` is the smallest divisor of the step count at or above
    steps / MAX_STORED, the coarsest grid of whole steps that keeps the
    cap.  The stored grid keeps the cap and no fewer intervals than that
    one (1,000,001 = 101 x 9,901 steps store 166,667, not 9,901); where
    ``every`` is ceil(steps / MAX_STORED) it is every ``every``-th step,
    bit for bit."""
    assert n_steps % every == 0
    dt = 1e-6
    res = integrate(_Plain([[-1.0]]), [1.0], t_end=n_steps * dt, dt=dt)
    n = res.t.size - 1
    assert n_steps // every <= n <= MAX_STORED
    if every == -(-n_steps // MAX_STORED):
        assert res.store_every == every
        assert res.t.tobytes() == \
            (np.arange(n_steps // every + 1) * (dt * every)).tobytes()
    else:
        assert n == 166_667


def test_demo_between_whole_steps_reads_the_trailing_error():
    """1.999966 s of 1 us steps store 199,997 intervals, not 3 samples:
    the trailing 0.1 s errors are those of the 2 s run within 1e-3."""
    cl, x0, dt = _demo_loop()
    near, whole = (error_metrics(integrate(cl, x0, t_end=t_end, dt=dt),
                                 window=0.1)
                   for t_end in (1.999966, 2.0))
    for i in (1, 2):
        assert near[i].max_error == pytest.approx(whole[i].max_error,
                                                  rel=1e-3)


def test_error_metrics_form_only_their_windows():
    """On an unread demo result, error_metrics over a 0.1 s window of the
    1 s run peaks below one node's full error row."""
    cl, x0, dt, t_end = _full_demo_run()
    res = integrate(cl, x0, t_end=t_end, dt=dt)
    _, (_, peak) = _traced(lambda: error_metrics(res, window=0.1))
    assert peak < res.t.size * 8
    assert "errors" not in res.__dict__


def test_first_errors_read_allocates_the_errors():
    """After ``regulated`` and ``refs`` have been read, the first read of
    ``errors`` allocates the N p T doubles of the errors, within 1 %, and
    keeps them."""
    cl, x0, dt, t_end = _full_demo_run()
    res = integrate(cl, x0, t_end=t_end, dt=dt)
    res.regulated, res.refs
    _, (kept, peak) = _traced(lambda: res.errors)
    error_bytes = len(cl.node_ids) * cl.p * res.t.size * 8
    assert abs(kept - error_bytes) <= 0.01 * error_bytes
    assert peak <= 1.01 * error_bytes


@pytest.mark.parametrize("arg", ["t_end", "dt", "eps", "eps_hi"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_horizon_step_or_gain_names_the_argument(arg, value):
    """The library rejects what the config parser rejects."""
    rz = realize(random_network(seed=0, regime="tracking"))
    net, cset, maps = rz.network, rz.cset, rz.maps
    call = {
        "t_end": lambda: integrate(_Plain([[-1.0]]), [1.0], t_end=value,
                                   dt=1e-3),
        "dt": lambda: integrate(_Plain([[-1.0]]), [1.0], t_end=1.0,
                                dt=value),
        "eps": lambda: assemble("tracking", net, cset, maps, eps=value),
        "eps_hi": lambda: epsilon_star(net, cset, maps, eps_hi=value),
    }[arg]
    with pytest.raises(ValidationError, match=rf"^{arg}: .*finite"):
        call()


def test_suggest_dt_resolves_fastest_mode():
    cl = _Plain(np.diag([-1.0, -1000.0]))
    assert suggest_dt(cl) == pytest.approx(1e-4, rel=1e-6)


# ---------------------------------------------------------------------------
# closed-loop trajectories


def test_neighboring_input_reproduced_from_states():
    scn = demo_power_network()
    rz = realize(scn)
    x0 = initial_state(rz.cl, nu0=scn.nu0, eta0=scn.eta0)
    res = integrate(rz.cl, x0, t_end=0.01, dt=1e-6)
    h = rz.network.topology.H
    z_slices = {e.entity: (e.offset, e.length)
                for e in rz.cl.index_map if e.kind == "edge_state"}
    for i, node_id in enumerate(rz.cl.node_ids):
        v_direct = np.zeros_like(res.v[node_id])
        for j, edge in enumerate(rz.network.edges):
            off, length = z_slices[j + 1]
            zj = res.states[off:off + length]
            v_direct += -h[i, j] * (edge.C @ zj)
        assert np.abs(v_direct - res.v[node_id]).max() <= 1e-12 * max(
            1.0, np.abs(v_direct).max())


def test_edge_flows_cancel_over_nodes():
    scn = demo_power_network()
    rz = realize(scn)
    x0 = initial_state(rz.cl, nu0=scn.nu0, eta0=scn.eta0)
    res = integrate(rz.cl, x0, t_end=0.01, dt=1e-6)
    total = sum(res.v[i] for i in res.v)
    scale = max(np.abs(res.v[1]).max(), 1.0)
    assert np.abs(total).max() <= 1e-12 * scale


def test_zero_sum_commands_conserved():
    scn = with_zero_sum(random_network(seed=21, regime="cooperation"))
    rz = realize(replace(scn, eps=0.2))
    x0 = initial_state(rz.cl, nu0=scn.nu0)
    res = integrate(rz.cl, x0, t_end=20.0, dt=1e-2)
    nu_slices = [(e.offset, e.length) for e in rz.cl.index_map
                 if e.kind == "exo_state"]
    total = sum(res.states[o:o + n] for o, n in nu_slices)
    assert np.abs(total).max() <= 1e-10


def _coop_loop():
    scn = with_zero_sum(random_network(seed=21, regime="cooperation"))
    rz = realize(replace(scn, eps=0.2))
    return rz.cl, initial_state(rz.cl, nu0=scn.nu0), 1e-2


@pytest.mark.parametrize("loop", [_demo_loop, _coop_loop],
                         ids=["demo", "random"])
def test_stored_signals_are_the_maps_times_the_states(loop):
    cl, x0, dt = loop()
    res = integrate(cl, x0, t_end=2000 * dt, dt=dt)
    p = cl.p
    for name, gains in (("y", cl.y_map), ("v", cl.v_map),
                        ("refs", cl.ref_map)):
        signals = getattr(res, name)
        assert list(signals) == list(cl.node_ids)
        for k, node_id in enumerate(cl.node_ids):
            want = gains[k * p:(k + 1) * p] @ res.states
            assert np.abs(signals[node_id] - want).max() <= \
                1e-13 * np.abs(want).max()
    for node_id, kind in cl.err_kind.items():
        regulated = (res.y if kind == "output" else res.v)[node_id]
        assert np.array_equal(res.errors[node_id],
                              regulated - res.refs[node_id])


# the demo at its pinned gain, and one 5-node random network per regime at
# half its boundary gain (below ``eps_hi``)
_NETWORK_RUNS = pytest.mark.parametrize("make, eps_hi, t_end, dt", [
    (demo_power_network, None, 0.05, 1e-6),
    (lambda: random_network(0, n_nodes=5, m_edges=6, dims=3,
                            regime="tracking"), 10.0, 5.0, 1e-2),
    (lambda: random_network(100, n_nodes=5, m_edges=6, dims=3,
                            regime="sync"), 10.0, 5.0, 1e-2),
    (lambda: random_network(200, n_nodes=5, m_edges=6, dims=3,
                            regime="cooperation"), 10.0, 5.0, 1e-2),
    (lambda: random_network(300, n_nodes=5, m_edges=6, dims=3,
                            regime="master_slave"), 10.0, 5.0, 1e-2)],
    ids=["demo", "tracking-0", "sync-100", "cooperation-200",
         "master_slave-300"])


def _run_gain(scn, eps_hi):
    """The pinned gain without a ceiling, else half the boundary gain."""
    if eps_hi is None:
        return scn.eps
    rz = realize(scn)
    return epsilon_star(rz.network, rz.cset, rz.maps,
                        eps_hi=eps_hi).eps_bisect / 2.0


def _network_run(scn, eps, t_end, dt):
    cl = realize(replace(scn, eps=eps)).cl
    assert spectral_abscissa(cl.A_error) < 0
    x0 = initial_state(cl, nu0=scn.nu0, eta0=scn.eta0, etabar0=scn.etabar0)
    return cl, integrate(cl, x0, t_end=t_end, dt=dt)


@_NETWORK_RUNS
def test_errors_are_formed_on_first_read(make, eps_hi, t_end, dt):
    """integrate keeps the regulated signals, not the errors.  The first
    read of ``errors`` forms regulated minus reference bit for bit, and
    later reads return the same arrays; error_metrics forms only its
    windows, with the metrics of the full errors bit for bit."""
    scn = make()
    cl, res = _network_run(scn, _run_gain(scn, eps_hi), t_end, dt)
    assert "errors" not in res.__dict__
    window = 0.1 * t_end
    metrics = error_metrics(res, window=window)
    assert "errors" not in res.__dict__
    errors = res.errors
    assert res.errors is errors and list(errors) == list(cl.err_kind)
    for i, kind in cl.err_kind.items():
        want = (res.y if kind == "output" else res.v)[i] - res.refs[i]
        assert errors[i].tobytes() == want.tobytes()
        assert res.errors[i] is errors[i]
    trail, lead = res.t >= res.t[-1] - window, res.t <= res.t[0] + window
    for i, err in errors.items():
        tail = err[:, trail]
        tmax = float(np.abs(tail).max())
        assert metrics[i] == NodeMetrics(
            max_error=tmax, rms_error=float(np.sqrt(np.mean(tail ** 2))),
            decayed=bool(tmax < np.abs(err[:, lead]).max()))


@_NETWORK_RUNS
def test_outputs_and_inputs_are_formed_on_first_read(make, eps_hi, t_end,
                                                     dt):
    """integrate keeps each node's regulated signal and reference only.
    The first read of ``y`` or ``v`` gives a node regulating that signal
    its ``regulated`` array itself, and the other nodes' rows equal a
    direct observation of their map rows; reading ``v`` before ``y``
    gives the same arrays."""
    scn = make()
    eps = _run_gain(scn, eps_hi)
    cl, res = _network_run(scn, eps, t_end, dt)
    assert not {"y", "v"} & set(res.__dict__)
    step = _expm(cl.A_full * (dt * res.store_every))
    x0 = initial_state(cl, nu0=scn.nu0, eta0=scn.eta0, etabar0=scn.etabar0)
    p = cl.p
    for name, kind, gains in (("y", "output", cl.y_map),
                              ("v", "input", cl.v_map)):
        signals = getattr(res, name)
        assert getattr(res, name) is signals
        assert list(signals) == list(cl.node_ids)
        for k, i in enumerate(cl.node_ids):
            if cl.err_kind[i] == kind:
                assert signals[i] is res.regulated[i]
                continue
            want = _observe(step, gains[k * p:(k + 1) * p], x0[:, None],
                            res.t.size - 1)[0].T
            assert np.abs(signals[i] - want).max() <= \
                1e-13 * np.abs(want).max()
    _, other = _network_run(scn, eps, t_end, dt)
    v, y = other.v, other.y
    for i in cl.node_ids:
        assert v[i].tobytes() == res.v[i].tobytes()
        assert y[i].tobytes() == res.y[i].tobytes()


@_NETWORK_RUNS
def test_error_trajectories_survive_flips_and_relabelling(make, eps_hi,
                                                          t_end, dt):
    # flipping an edge negates its state and leaves every neighboring input
    # alone; relabelling moves node i's trajectories to node i + 1
    scn = make()
    eps = _run_gain(scn, eps_hi)

    def errors(s):
        return _network_run(s, eps, t_end, dt)[1].errors

    base = errors(scn)
    n = scn.n_nodes
    for transformed, moved in ((flip_first_edge(scn), lambda i: i),
                               (relabel_cyclically(scn), lambda i: i % n + 1)):
        got = errors(transformed)
        for i, err in base.items():
            assert np.abs(got[moved(i)] - err).max() <= \
                1e-10 * np.abs(err).max()


@pytest.mark.parametrize("regime, name, pick", [
    ("tracking", "nu0", lambda cset: 1),
    ("sync", "etabar0", lambda cset: 1),
    ("cooperation", "eta0", lambda cset: 1),
    ("master_slave", "nu0", lambda cset: cset.masters[0] + 1),
    ("master_slave", "eta0", lambda cset: cset.slaves[0] + 1)],
    ids=["tracking-nu0", "sync-etabar0", "cooperation-eta0",
         "master-nu0", "slave-eta0"])
def test_initial_state_seeds_only_blocks_the_role_owns(regime, name, pick):
    rz = realize(random_network(1, n_nodes=3, m_edges=3, regime=regime,
                                eps=0.1))
    node = pick(rz.cset)
    with pytest.raises(ValidationError, match=rf"^{name}\[{node}\]: node "):
        initial_state(rz.cl, **{name: {node: [7.0, 8.0]}})


def test_tracking_errors_decay_exponentially():
    scn = random_network(seed=2, regime="tracking")
    rz = realize(scn)
    from coopnet.analysis import spectral_abscissa

    alpha = spectral_abscissa(rz.cl.A_error)
    assert alpha < 0
    horizon = 20.0 / abs(alpha)
    x0 = initial_state(rz.cl, eta0=scn.eta0)
    res = integrate(rz.cl, x0, t_end=float(np.ceil(horizon)), dt=1e-2)
    err_norm = np.linalg.norm(
        np.vstack([res.errors[i] for i in res.errors]), axis=0)
    n3 = err_norm.size // 3
    assert err_norm[-1] <= 1e-6
    assert err_norm[-1] < err_norm[n3] < err_norm[1]


# ---------------------------------------------------------------------------
# predictions


def test_sync_prediction_zero_average():
    scn = random_network(seed=12, regime="sync")
    rz = realize(scn)
    t = np.linspace(0.0, 1.0, 11)
    eta0 = {1: [1.0, 0.0], 2: [0.0, 1.0], 3: [-1.0, -1.0]}
    pred = steady_state_prediction(rz.cset, t, eta0=eta0)
    for i in pred.per_node:
        assert np.abs(pred.per_node[i]).max() <= 1e-14


@pytest.mark.parametrize("seed,regime", [(0, "tracking"), (100, "sync"),
                                         (200, "cooperation"),
                                         (300, "master_slave")])
def test_prediction_matches_direct_expm(seed, regime):
    rz = realize(random_network(seed=seed, regime=regime))
    cset, exo = rz.cset, rz.cset.exo
    rng = np.random.default_rng(seed)
    ids = range(1, len(cset.controllers) + 1)
    nu0 = {i: rng.standard_normal(exo.q) for i in ids}
    eta0 = {i: rng.standard_normal(exo.q) for i in ids}
    ref_dim = cset.G_S.shape[0] if regime == "cooperation" else 0
    etabar0 = {i: rng.standard_normal(ref_dim) for i in ids}
    t = 0.37 + 1e-2 * np.arange(197)
    pred = steady_state_prediction(cset, t, nu0=nu0, eta0=eta0,
                                   etabar0=etabar0)
    assert pred.t[0] == 0.37

    def direct(a, out, vec):
        return np.column_stack([out @ scipy.linalg.expm(a * tk) @ vec
                                for tk in t])

    expect = {}
    for i in ids:
        if regime == "sync":
            vec = sum(eta0.values()) / len(ids)
            expect[i] = direct(exo.S, exo.Q_eta, vec)
        elif regime == "cooperation" or (i - 1) in cset.slaves:
            expect[i] = direct(exo.S, exo.Q_v, nu0[i])
        else:
            expect[i] = direct(exo.S, exo.Q_eta, eta0[i])
    got = dict(pred.per_node)
    if regime == "cooperation":
        expect["bias"] = direct(exo.S, exo.Q_v, -sum(nu0.values()) / len(ids))
        got["bias"] = pred.bias
        # the output sum has a limit only for commands that sum to zero
        assert pred.output_sum is None
        nu0[len(ids)] -= sum(nu0.values())
        zero_sum = steady_state_prediction(cset, t, nu0=nu0, eta0=eta0,
                                           etabar0=etabar0)
        expect["sum"] = direct(cset.G_S, cset.G_Q, sum(etabar0.values()))
        got["sum"] = zero_sum.output_sum
    else:
        assert pred.bias is None and pred.output_sum is None
    assert set(pred.per_node) == set(ids)
    for key, want in expect.items():
        assert np.abs(got[key] - want).max() <= 1e-12 * np.abs(want).max()


def test_cooperation_output_sum_has_no_limit_for_nonzero_command_sum():
    """cooperation-200's own commands do not sum to zero: their common
    residual drives the cooperation reference generator at resonance, so
    the output sum drifts and has no predicted limit, while every node's
    input still reaches its command plus the bias."""
    scn = random_network(200, n_nodes=5, m_edges=6, dims=3,
                         regime="cooperation")
    assert np.linalg.norm(sum(scn.nu0.values())) > 1.0
    rz = realize(scn)
    est = epsilon_star(rz.network, rz.cset, rz.maps, eps_hi=10.0)
    cl = assemble("cooperation", rz.network, rz.cset, rz.maps,
                  eps=est.eps_bisect / 2.0)
    t_end = float(np.ceil(20.0 / abs(spectral_abscissa(cl.A_error))))
    res = integrate(cl, initial_state(cl, nu0=scn.nu0), t_end=t_end,
                    dt=0.1)
    pred = steady_state_prediction(rz.cset, res.t, nu0=scn.nu0)
    assert pred.output_sum is None
    tail = res.t >= res.t[-1] - 1.0
    scale = np.abs(pred.bias).max()
    for i in res.v:
        assert np.abs(res.v[i][:, tail] - pred.per_node[i][:, tail] -
                      pred.bias[:, tail]).max() <= 1e-6 * scale
        assert np.abs(res.errors[i][:, tail] -
                      pred.bias[:, tail]).max() <= 1e-6 * scale
    y_sum = np.abs(sum(res.y.values()))
    tenth = res.t.size // 10
    assert y_sum[:, -tenth:].max() > 5.0 * y_sum[:, :tenth].max()


def test_prediction_rejects_non_uniform_grid():
    rz = realize(random_network(seed=0, regime="tracking"))
    with pytest.raises(ValidationError):
        steady_state_prediction(rz.cset, np.array([0.0, 0.1, 0.3]))


def test_cooperation_bias_two_equal_commands():
    scn = random_network(seed=21, n_nodes=2, m_edges=1,
                         regime="cooperation")
    rz = realize(replace(scn, eps=0.2))
    t = np.array([0.0])
    c = np.array([0.3, -0.7])
    pred = steady_state_prediction(rz.cset, t, nu0={1: c, 2: c})
    expect = rz.cset.exo.Q_v @ (-c)
    assert np.allclose(pred.bias[:, 0], expect, atol=1e-12)


def test_demo_command_references_are_the_stated_sinusoids():
    scn = demo_power_network()
    rz = realize(scn)
    t = np.linspace(0.0, 0.04, 2001)
    pred = steady_state_prediction(rz.cset, t, nu0=scn.nu0,
                                   eta0=scn.eta0)
    assert pred.per_node[1][0, 0] == pytest.approx(5.0, abs=1e-9)
    assert pred.per_node[2][0, 0] == pytest.approx(10.0, abs=1e-9)
    assert np.abs(pred.per_node[1][0] -
                  10.0 * np.sin(W * t + np.pi / 6)).max() <= 1e-6
    assert np.abs(pred.per_node[2][0] -
                  10.0 * np.cos(W * t)).max() <= 1e-6
    # the ground master holds zero output
    assert np.abs(pred.per_node[3]).max() == 0.0


# ---------------------------------------------------------------------------
# metrics


def _result_with_error(t, err):
    """A result whose node 1 has the error ``err``: its regulated signal is
    ``err`` and its reference zero, and err - 0.0 is err bit for bit."""
    from coopnet.sim import SimResult

    err = {1: np.atleast_2d(err)}
    zero = {1: np.zeros_like(err[1])}
    return SimResult(t=t, regulated=err, refs=zero, err_kind={1: "output"},
                     store_every=1)


def test_metrics_zero_error():
    t = np.linspace(0.0, 1.0, 101)
    res = _result_with_error(t, np.zeros((1, 101)))
    m = error_metrics(res, window=0.2)
    assert m[1].max_error == 0.0 and m[1].rms_error == 0.0
    assert not m[1].decayed


def test_metrics_exponential_decay():
    t = np.linspace(0.0, 5.0, 5001)
    res = _result_with_error(t, np.exp(-t)[None, :])
    m = error_metrics(res, window=1.0)
    assert m[1].max_error == pytest.approx(np.exp(-4.0), rel=1e-3)
    assert m[1].decayed


def test_metrics_rejects_bad_window():
    t = np.linspace(0.0, 1.0, 11)
    res = _result_with_error(t, np.zeros((1, 11)))
    with pytest.raises(EmptyWindow):
        error_metrics(res, window=2.0)
    with pytest.raises(EmptyWindow):
        error_metrics(res, window=0.0)


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("window", [0.0123456, 0.5, 1.0 / 3.0, 2.0])
def test_metrics_windows_equal_the_sample_masks(p, window):
    """The index windows select exactly the samples the masks t >= t[-1] -
    window and t <= t[0] + window select, and the RMS sums them in the
    same order: the metrics equal the masked ones bit for bit, also for
    windows that end between samples."""
    rng = np.random.default_rng(p)
    t = np.linspace(0.0, 2.0, 2001)
    err = rng.standard_normal((p, t.size)) * np.exp(-t)
    trail, lead = t >= t[-1] - window, t <= t[0] + window
    m = error_metrics(_result_with_error(t, err), window=window)[1]
    tmax = np.abs(err)[:, trail].max()
    assert m.max_error == tmax
    assert m.rms_error == float(np.sqrt(np.mean(err[:, trail] ** 2)))
    assert m.decayed == bool(tmax < np.abs(err)[:, lead].max())


def test_sync_prediction_agreement_improves_with_horizon():
    scn = random_network(seed=31, n_nodes=3, m_edges=3, regime="sync")
    rz = realize(scn)
    est = epsilon_star(rz.network, rz.cset, rz.maps, eps_hi=10.0)
    cl = assemble("sync", rz.network, rz.cset, rz.maps,
                  eps=est.eps_bisect / 2.0)
    from coopnet.analysis import spectral_abscissa

    alpha = spectral_abscissa(cl.A_error)
    devs = []
    for factor in (4.0, 8.0):
        t_end = float(np.ceil(factor / abs(alpha)))
        n = int(round(t_end / 1e-2))
        x0 = initial_state(cl, eta0=scn.eta0)
        res = integrate(cl, x0, t_end=n * 1e-2, dt=1e-2)
        pred = steady_state_prediction(rz.cset, res.t, eta0=scn.eta0)
        devs.append(max(
            np.linalg.norm(res.y[i][:, -1] - pred.per_node[i][:, -1])
            for i in res.y))
    assert devs[1] < devs[0]


def test_tracking_error_decay_rate_is_negative():
    scn = random_network(seed=2, regime="tracking")
    rz = realize(scn)
    x0 = initial_state(rz.cl, eta0=scn.eta0)
    res = integrate(rz.cl, x0, t_end=30.0, dt=1e-2)
    err = np.linalg.norm(
        np.vstack([res.errors[i] for i in res.errors]), axis=0)
    mask = err > 1e-13  # fit only above the floating-point floor
    rate = np.polyfit(res.t[mask], np.log(err[mask]), 1)[0]
    assert rate < 0
