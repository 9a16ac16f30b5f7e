"""Exact sampled simulation of the assembled closed loop, steady-state
predictions of the regulation theory, and error metrics.

The closed loop is linear and time-invariant, so its samples on a uniform
grid obey x_{j+1} = e^{A h} x_j exactly, and so do the predicted limits,
propagated as output matrices under the adjoint.  Both exponentials come
from ``_expm`` and both recurrences run in one kernel (``_propagate``).
After a sequential head of ``_BLOCK`` samples, each block of samples is
one matrix-matrix product of step^w with the w samples before it, and w
doubles from ``_BLOCK`` after every block, so a run of n samples costs
about log2(n) Python iterations, not n / 64.  The doubling stops once a
block would hold more than ``_BLOCK_VALUES`` = 2^18 numbers: larger
products gain no speed but make BLAS pack larger operands, and on the
288-state ring uncapped doubling raised the peak resident memory by about
17 MB.  The result is bit-deterministic.  The stored signals of a run are
one product of the stacked output maps with the states; each error is a
regulated signal minus its reference.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import spectral_abscissa
from .closedloop import STABILITY_TOL
from .errors import (
    DimensionMismatch,
    EmptyWindow,
    NonFiniteState,
    UnstableLoop,
    ValidationError,
)
from .synthesis import NODE_ROLES, ZERO_SUM_TOL

#: samples ``_propagate`` steps one at a time, and its first block width
_BLOCK = 64

#: most numbers (samples x columns x states) one block of ``_propagate``
#: may hold; block widths double up to this budget
_BLOCK_VALUES = 2 ** 18

#: most samples ``integrate`` stores when ``store_every`` is not given
MAX_STORED = 200_000


@dataclass(frozen=True)
class SimResult:
    """Stored trajectories of one closed-loop run.

    ``states`` is n_total x T on the uniform stored grid ``t``; ``y``,
    ``v``, ``refs`` and ``errors`` are per-node p x T arrays keyed by
    1-based node id.  ``errors`` are in each node's native regulated
    coordinates (output error for tracking/sync/master nodes, neighboring
    input error for cooperation/slave nodes).
    """

    t: np.ndarray
    states: np.ndarray
    y: dict
    v: dict
    refs: dict
    errors: dict
    regime: str
    dt: float
    store_every: int

    @property
    def t_end(self):
        return float(self.t[-1])


#: numerator coefficients of the [13/13] Padé approximant of e^x
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)

#: largest 1-norm the [13/13] approximant serves to double precision
_THETA13 = 5.371920351148152


def _expm(a):
    """Matrix exponential by scaling and squaring of the [13/13] Padé
    approximant (Higham, "The scaling and squaring method for the matrix
    exponential revisited", SIAM J. Matrix Anal. Appl. 26, 2005)."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    s = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm else 0
    a = a / 2.0 ** s
    b, ident = _PADE13, np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def suggest_dt(cl):
    """Sampling step resolving the fastest closed-loop mode ten-fold; any
    step is exact, so this only picks how finely trajectories are sampled."""
    lam = np.linalg.eigvals(cl.A_full)
    fast = float(np.abs(lam).max(initial=0.0))
    return 0.1 / max(1.0, fast)


def _pick_store_every(n_steps, store_every):
    if store_every is not None:
        s = int(store_every)
        if s < 1 or n_steps % s:
            raise ValidationError(
                "store_every", f"must divide the {n_steps} steps")
        return s
    target = max(1, int(np.ceil(n_steps / MAX_STORED)))
    for s in range(min(target, n_steps), 0, -1):
        if n_steps % s == 0:
            return s
    return 1


def _check_finite(rows, lo, hi):
    # one sum screens the block: any NaN or inf makes it non-finite, and
    # only then (or on an overflow of finite values) is each sample scanned
    if np.isfinite(rows[lo:hi].sum()):
        return
    finite = np.isfinite(rows[lo:hi]).all(axis=(1, 2))
    if not finite.all():
        raise NonFiniteState(lo + int(np.argmin(finite)))


def _propagate(step, x0, n):
    """All ``n + 1`` samples of the recurrence x_{j+1} = step x_j.

    ``x0`` is an n_x x k block of columns, each propagated independently.
    Returns an ``(n + 1, k, n_x)`` row buffer: ``rows[j]`` is sample j,
    transposed.  The first ``_BLOCK`` samples are stepped one at a time.
    After them, each block of up to w samples is one matrix-matrix product
    of the w samples before it with step^w.  The width w starts at
    ``_BLOCK`` and doubles after each block (step^2w = step^w step^w)
    while the doubled block holds at most ``_BLOCK_VALUES`` numbers
    (2w k n_x); from then on it stays fixed.  The budget bounds the
    operands BLAS packs, and so the peak memory, at no cost in speed.
    Finiteness is checked once per block.

    Raises
    ------
    NonFiniteState
        Naming the first non-finite sample j >= 1 (x0 itself is not
        checked).
    """
    x0 = np.asarray(x0, dtype=float)
    n_x, k = x0.shape
    rows = np.empty((n + 1, k, n_x))
    rows[0] = x0.T
    head = min(n, _BLOCK)
    for j in range(head):
        rows[j + 1] = rows[j] @ step.T
    _check_finite(rows, 1, head + 1)
    if n > _BLOCK:
        flat = rows.reshape((n + 1) * k, n_x)
        width, lo = _BLOCK, _BLOCK + 1
        jump = np.linalg.matrix_power(step, width).T
        while lo <= n:
            hi = min(lo + width, n + 1)
            np.matmul(flat[(lo - width) * k:(hi - width) * k], jump,
                      out=flat[lo * k:hi * k])
            _check_finite(rows, lo, hi)
            lo = hi
            if lo + width <= n and 2 * width * k * n_x <= _BLOCK_VALUES:
                jump = jump @ jump
                width *= 2
    return rows


def integrate(cl, x0, t_end, dt, store_every=None):
    """Sample the closed loop from ``x0`` every ``dt`` up to ``t_end``.

    Samples are stored every ``store_every`` steps (chosen automatically to
    cap storage when omitted; must divide the step count).  They are exact
    to rounding on any grid: each is e^{A dt store_every} times the last.

    Raises
    ------
    UnstableLoop
        If the error system has a growing mode (spectral abscissa of
        ``A_error`` above ``STABILITY_TOL``); marginal loops integrate.
    NonFiniteState
        On overflow, reporting the first bad step.
    """
    if dt <= 0 or t_end <= 0:
        raise ValidationError("dt/t_end", "must be positive")
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != cl.n_states:
        raise DimensionMismatch(
            f"x0 has {x0.size} entries, closed loop has {cl.n_states}")
    n_steps = int(round(t_end / dt))
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * t_end:
        raise ValidationError("t_end", "must be an integer number of steps")
    absc = spectral_abscissa(cl.A_error)
    if absc > STABILITY_TOL:
        raise UnstableLoop(
            f"closed loop is unstable at eps={cl.eps:g}: A_error has "
            f"spectral abscissa {absc:+.4e}, a growing mode; find "
            f"the stable coupling gains with `coopnet eps`")
    s = _pick_store_every(n_steps, store_every)
    n_stored = n_steps // s
    try:
        rows = _propagate(_expm(cl.A_full * (dt * s)), x0[:, None], n_stored)
    except NonFiniteState as exc:
        raise NonFiniteState(exc.step * s) from None
    states = rows[:, 0, :].T
    t = np.arange(n_stored + 1) * (dt * s)
    signals = np.vstack([cl.y_map, cl.v_map, cl.ref_map]) @ states
    y, v, refs = (
        dict(zip(cl.node_ids, block))
        for block in signals.reshape(3, len(cl.node_ids), cl.p, -1))
    errors = {i: (y if cl.err_kind[i] == "output" else v)[i] - refs[i]
              for i in cl.node_ids}
    return SimResult(t=t, states=states, y=y, v=v, refs=refs, errors=errors,
                     regime=cl.regime, dt=float(dt), store_every=s)


def initial_state(cl, nu0=None, eta0=None, etabar0=None, node0=None,
                  controller0=None, edge0=None):
    """Build the simulation-form initial state from per-entity values.

    Each dict maps 1-based ids to initial vectors; unspecified blocks start
    at zero.  ``eta0``/``nu0``/``etabar0`` seed only the blocks the node's
    role owns (``seeds`` in :data:`coopnet.synthesis.NODE_ROLES`): ``eta0``
    the reference generator of a node regulating its output, ``nu0`` the
    command and ``etabar0`` the reference generator of one regulating its
    neighboring input.  Any other pairing raises ValidationError.
    """
    x0 = np.zeros(cl.n_states)
    lookup = {(e.kind, e.entity): e for e in cl.index_map}
    roles = dict(zip(cl.node_ids, cl.node_roles))

    def fill(kind, entity, value, name):
        entry = lookup.get((kind, entity))
        if entry is None:
            raise ValidationError(
                f"{name}[{entity}]", f"no {kind} block for this node")
        value = np.asarray(value, dtype=float).ravel()
        if value.size != entry.length:
            raise DimensionMismatch(
                f"{name}[{entity}] has {value.size} entries, block has "
                f"{entry.length}")
        x0[entry.offset:entry.offset + entry.length] = value

    for name, values in (("eta0", eta0), ("nu0", nu0), ("etabar0", etabar0)):
        for i, val in (values or {}).items():
            if i not in roles:
                raise ValidationError(f"{name}[{i}]", "unknown node")
            role = NODE_ROLES[roles[i]]
            if name not in role.seeds:
                raise ValidationError(
                    f"{name}[{i}]",
                    f"node {i} is a {roles[i]} node regulating its "
                    f"{role.regulates}; it takes only "
                    f"{' and '.join(role.seeds)}")
            fill(role.seeds[name], i, val, name)
    for i, val in (node0 or {}).items():
        fill("node_state", i, val, "node0")
    for i, val in (controller0 or {}).items():
        fill("controller_state", i, val, "controller0")
    for j, val in (edge0 or {}).items():
        fill("edge_state", j, val, "edge0")
    return x0


# ---------------------------------------------------------------------------
# steady-state predictions


@dataclass(frozen=True)
class SteadyStatePrediction:
    """Closed-form limits of the regulation theorems on the stored grid.

    ``per_node`` holds the predicted regulated signal per node (output for
    tracking/sync/master nodes, neighboring input for cooperation/slave);
    ``bias`` the common cooperation residual when the command sum is
    nonzero; ``output_sum`` the predicted sum of node outputs, in
    cooperation with commands that sum to zero (None otherwise).
    """

    t: np.ndarray
    per_node: dict
    bias: np.ndarray
    output_sum: np.ndarray


def steady_state_prediction(cset, t, nu0=None, eta0=None, etabar0=None):
    """Evaluate the predicted steady trajectories for the set's regime.

    Each node's limit follows its role (:data:`coopnet.synthesis.NODE_ROLES`).
    tracking/master nodes: y_i -> Q_eta e^{S t} eta_i(0).
    sync: all outputs -> Q_eta e^{S t} (mean of eta_i(0)).
    cooperation/slave nodes: v_i -> Q_v e^{S t} nu_i(0); in cooperation,
    with a nonzero command sum the common residual is Q_v e^{S t} nu_0(0)
    with nu_0(0) = -(sum nu_i(0))/N.  When the commands sum to zero (norm
    at most ``ZERO_SUM_TOL``), the output sum follows the cooperation
    reference generator from the sum of etabar_i(0).  Otherwise the common
    residual drives that generator at resonance, the output sum grows
    without limit, and ``output_sum`` is None.
    """
    exo = cset.exo
    t = np.asarray(t, dtype=float)
    h = 0.0
    if t.size > 1:
        steps = np.diff(t)
        if np.abs(steps - steps[0]).max() > 1e-9 * max(steps[0], 1e-300):
            raise ValidationError("t", "prediction grid must be uniform")
        h = steps[0]

    def on_grid(a, out):
        """out e^{A t_k} for every grid point, as a (T p) x n matrix.

        The kernel propagates out^T under e^{A^T h}, so it stores T x p x n
        numbers rather than one n-vector per signal and sample.
        """
        cols = out.T
        if t[0] != 0.0:
            cols = _expm(a.T * t[0]) @ cols
        rows = _propagate(_expm(a.T * h), cols, t.size - 1)
        return rows.reshape(-1, a.shape[0])

    def signal(gains, vec):
        return (gains @ vec).reshape(t.size, -1).T

    nu0, eta0, etabar0 = ({i: np.asarray(v, dtype=float).ravel()
                           for i, v in (d or {}).items()}
                          for d in (nu0, eta0, etabar0))
    ids = range(1, len(cset.node_roles) + 1)
    zero = np.zeros(exo.q)
    # per regulated signal: its limit's output map and initial values
    limits = {"output": (exo.Q_eta, eta0), "input": (exo.Q_v, nu0)}
    grids, per_node = {}, {}
    for i, name in zip(ids, cset.node_roles):
        role = NODE_ROLES[name]
        out, start = limits[role.regulates]
        if role.regulates not in grids:
            grids[role.regulates] = on_grid(exo.S, out)
        vec = sum(start.get(k, zero) for k in ids) / len(ids) \
            if role.consensus else start.get(i, zero)
        per_node[i] = signal(grids[role.regulates], vec)
    bias, output_sum = None, None
    if cset.regime == "cooperation":
        total = sum(nu0.get(i, zero) for i in ids)
        bias = signal(grids["input"], -total / len(ids))
        if np.linalg.norm(total) <= ZERO_SUM_TOL:
            total_ref = sum(etabar0.get(i, np.zeros(cset.G_S.shape[0]))
                            for i in ids)
            output_sum = signal(on_grid(cset.G_S, cset.G_Q), total_ref)
    return SteadyStatePrediction(t=t, per_node=per_node, bias=bias,
                                 output_sum=output_sum)


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class NodeMetrics:
    """Trailing-window error metrics for one node."""

    max_error: float
    rms_error: float
    decayed: bool


def error_metrics(result, window):
    """Per-node max/RMS error over the trailing window plus a decay flag.

    The decay flag is true when the trailing-window max is below the
    leading-window max (same width at the start of the run).

    Raises
    ------
    EmptyWindow
        If the window is nonpositive, exceeds the horizon, or contains no
        stored samples.
    """
    t = result.t
    horizon = float(t[-1] - t[0])
    if window <= 0 or window > horizon:
        raise EmptyWindow(
            f"window {window} outside (0, {horizon}]")
    # the samples with t >= t[-1] - window and t <= t[0] + window
    first = int(np.searchsorted(t, t[-1] - window))
    stop = int(np.searchsorted(t, t[0] + window, side="right"))
    if first == t.size or stop == 0:
        raise EmptyWindow("window contains no stored samples")
    metrics = {}
    for node_id, err in result.errors.items():
        # contiguous, so the mean sums in the order of a row-major copy
        trail = np.ascontiguousarray(err[:, first:])
        tmax = float(np.abs(trail).max(initial=0.0))
        lmax = float(np.abs(err[:, :stop]).max(initial=0.0))
        rms = float(np.sqrt(np.mean(trail ** 2)))
        metrics[node_id] = NodeMetrics(max_error=tmax, rms_error=rms,
                                       decayed=bool(tmax < lmax))
    return metrics
