"""Exact sampled simulation of the assembled closed loop, steady-state
predictions of the regulation theory, and error metrics.

The closed loop is linear and time-invariant, so its samples on a uniform
grid obey x_{j+1} = Phi x_j exactly, with Phi = e^{A h} from ``_expm``.
What a run reports are signals M x_j (node outputs, neighboring inputs,
references), and so are the predicted limits.  One kernel,
``_observe``, forms them without the state samples: it tabulates
M Phi^i for i < w, steps only the block-start states x_{bw} =
Phi^{w b} x_0, and forms the signal samples as matrix products of the
starts with the table, laid out sample by sample.  With w about
sqrt(samples / rows of M) the table and the starts each hold about
sqrt(samples) vectors, so the signals are the only large array.

A run of any whole number of steps is stored on one uniform grid of at
most ``MAX_STORED`` intervals (:func:`integrate`).  Its signals are two
per node: the one it regulates (its output or its neighboring input) and
its reference.  The run forms and screens every product of them, then
drops it: it keeps the grid, the block starts and the table.  Everything
else is formed when ``SimResult`` is first asked for it: the regulated
signals and the references, each by forming the run's products again;
the errors (regulated minus reference); the outputs ``y`` and
neighboring inputs ``v`` of the nodes that do not regulate them; and the
states.  :func:`error_metrics` forms only the products that cover its
two windows.
"""

from dataclasses import dataclass
from functools import cached_property

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

#: samples per block of the recurrence that forms ``SimResult.states``
_STATE_BLOCK = 64

#: most block starts one product of ``_observe`` takes.  A run forms its
#: signals again product by product, whole products only (a shorter
#: product rounds some samples differently), so a window costs at least
#: one product: on the demo (blocks of 183 samples of 6 signals) 64 starts
#: make 0.56 MB, where 256 made 2.25 MB, more than one 1.6 MB signal row.
#: A longer product gains no speed but makes BLAS pack a larger operand
_STARTS_PER_PRODUCT = 64

#: most intervals between the samples ``integrate`` stores, so at most
#: MAX_STORED + 1 samples: a run of more steps stores ceil(steps / s)
#: intervals for s = ceil(steps / MAX_STORED), more than MAX_STORED / 2
#: of them, each s steps long when s divides the step count
MAX_STORED = 200_000


class SimResult:
    """Stored trajectories of one closed-loop run.

    ``t`` is the uniform stored grid.  ``regulated`` and ``refs`` are
    per-node p x T arrays on it, keyed by 1-based node id in the order of
    the closed loop's map rows: each node's regulated signal and its
    reference.  ``err_kind`` names what each node regulates, ``"output"``
    (tracking/sync/master nodes) or ``"input"`` (cooperation/slave nodes).

    A result of :func:`integrate` keeps the grid and the block starts and
    table of the products that formed the regulated signals and references
    (see :func:`_observe`), not their samples.  Each of the following is
    formed on its first read, and later reads return the same arrays:
    ``regulated`` and ``refs``, each alone, from the run's products formed
    again whole, so bit for bit as the run formed them; ``errors``
    (regulated minus reference, per node); ``y`` and ``v``, each node's
    output and neighboring input, where a node regulating that signal
    gives its ``regulated`` array itself and the other nodes' rows are
    observed in one pass over the run; and ``states`` (n_total x T),
    stepped by the run's one-step map e^{A h}, for the grid spacing h, from
    its initial state (:func:`_state_samples`).  A result built from given
    ``regulated`` and ``refs`` arrays, without a run, has no states, and
    only the ``y`` or ``v`` that every node regulates.
    """

    def __init__(self, t, regulated, refs, err_kind, store_every,
                 _loop=None, _blocks=None):
        self.t = t
        self.err_kind = err_kind
        #: steps of the run per stored interval, steps / (t.size - 1)
        self.store_every = store_every
        #: (one-step map, initial state, output maps by ``err_kind`` value)
        #: of the run, which ``states``, ``y`` and ``v`` observe
        self._loop = _loop
        #: (table, block starts, block width) of the products of the run's
        #: regulated signals and references, which ``regulated``, ``refs``
        #: and :func:`error_metrics` form again
        self._blocks = _blocks
        if regulated is not None:
            self.regulated, self.refs = regulated, refs

    @cached_property
    def regulated(self):
        return self._rows("regulated", 0, self.t.size)

    @cached_property
    def refs(self):
        return self._rows("refs", 0, self.t.size)

    @cached_property
    def errors(self):
        return {i: reg - self.refs[i] for i, reg in self.regulated.items()}

    @cached_property
    def y(self):
        return self._signal("output")

    @cached_property
    def v(self):
        return self._signal("input")

    @cached_property
    def states(self):
        step, x0, _ = self._checked_loop()
        return _state_samples(step, x0, self.t.size - 1)

    def _checked_loop(self):
        if self._loop is None:
            raise AttributeError("this result carries no closed loop")
        return self._loop

    def _signal(self, kind):
        """Each node's ``kind`` signal: a node regulating it gives its
        ``regulated`` array, and the others' rows are observed together."""
        ids = list(self.err_kind)
        others = [k for k, i in enumerate(ids) if self.err_kind[i] != kind]
        rows = {}
        if others:
            step, x0, maps = self._checked_loop()
            out = maps[kind].reshape(len(ids), -1, x0.size)[others]
            samples = _observe(step, out.reshape(-1, x0.size), x0[:, None],
                               self.t.size - 1)[0]
            rows = dict(zip((ids[k] for k in others),
                            samples.T.reshape(out.shape[:2] + (-1,))))
        return {i: rows[i] if i in rows else self.regulated[i] for i in ids}

    def _window(self, first, stop):
        """Each node's errors at samples first..stop-1, row-major: read
        from the arrays of a result built from them, and otherwise formed
        from only the run's products that cover those samples."""
        if self._blocks is None:
            return {i: np.subtract(reg[:, first:stop],
                                   self.refs[i][:, first:stop], order="C")
                    for i, reg in self.regulated.items()}
        return self._rows("errors", first, stop)

    def _rows(self, part, first, stop):
        """Each node's ``part`` ("regulated", "refs" or their difference
        "errors") at samples first..stop-1, a row-major p x (stop - first)
        array.  Every product of the run that covers those samples is
        formed again whole, from the same starts and table, into one
        buffer, and the samples are copied out of it."""
        table, starts, w = self._blocks
        size, blocks = _STARTS_PER_PRODUCT, len(starts) - 1
        # the signals: N p regulated rows, then N p reference rows
        m = table.shape[1] // (2 * w)
        rows = np.empty((m, stop - first))
        buffer = np.empty((1, min(blocks, size), table.shape[1]))
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(first // w // size * size, -(-stop // w), size):
                hi = min(lo + size, blocks)
                formed = _products(table, starts, lo, hi,
                                   buffer[:, :hi - lo])
                a, b = max(first, lo * w), min(stop, hi * w)
                piece = formed.reshape(-1, 2 * m)[a - lo * w:b - lo * w].T
                into = rows[:, a - first:b - first]
                if part == "errors":
                    np.subtract(piece[:m], piece[m:], out=into)
                else:
                    into[...] = piece[m:] if part == "refs" else piece[:m]
        ids = list(self.err_kind)
        return dict(zip(ids, rows.reshape(len(ids), -1, stop - first)))


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
    b, diag = _PADE13, np.s_[::a.shape[0] + 1]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    # the odd (u) and even (v) parts, accumulated in place: the sums are
    # those of the plain expressions, with no more than two temporaries
    u = b[13] * a6
    u += b[11] * a4
    u += b[9] * a2
    u = a6 @ u
    u += b[7] * a6
    u += b[5] * a4
    u += b[3] * a2
    u.flat[diag] += b[1]
    u = a @ u
    v = b[12] * a6
    v += b[10] * a4
    v += b[8] * a2
    v = a6 @ v
    v += b[6] * a6
    v += b[4] * a4
    v += b[2] * a2
    v.flat[diag] += b[0]
    del a, a2, a4, a6
    q = v - u
    v += u
    r = np.linalg.solve(q, v)
    for _ in range(s):
        r = r @ r
    return r


def suggest_dt(cl):
    """Sampling step resolving the fastest closed-loop mode ten-fold; any
    step is exact, so this only picks how finely trajectories are sampled."""
    lam = np.linalg.eigvals(cl.A_full)
    fast = float(np.abs(lam).max(initial=0.0))
    return 0.1 / max(1.0, fast)


def _block_width(n, r):
    """Block width of :func:`_observe` for samples 0..n of r signals: it
    balances the table (w r vectors) against the block starts (n / w)."""
    return max(1, round(np.sqrt((n + 1) / r)))


def _observe(step, out, x0, n, width=None):
    """Signals ``out step^j x0`` for j = 0..n, without the state samples.

    ``x0`` is an n_x x k block of start columns and ``out`` an r x n_x
    output map.  Returns a ``(k, n + 1, r)`` array: ``[c, j]`` is sample j
    of column c's signals.  With the block width w (``width``, by default
    :func:`_block_width`), it tabulates out step^i for i < w, steps the
    block starts x_{(b + 1) w} = step^w x_{b w} one matrix-vector product
    each, and forms the samples of up to ``_STARTS_PER_PRODUCT`` blocks of
    a column as one matrix product of their starts with the table: row b
    of the product holds samples bw..bw+w-1.

    Raises
    ------
    NonFiniteState
        Naming the first sample j >= 1 whose state or signal is not
        finite (x0 itself is not checked).  Each product's starts and
        signals are screened whole; only a block that fails is stepped
        sample by sample.
    """
    x0 = np.asarray(x0, dtype=float)
    k, r = x0.shape[1], out.shape[0]
    w = _block_width(n, r) if width is None else width
    blocks = -(-(n + 1) // w)
    signals = np.empty((k, blocks, w * r))
    _screened_blocks(step, out, x0, n, w, signals)
    return signals.reshape(k, blocks * w, r)[:, :n + 1]


def _screened_blocks(step, out, x0, n, w, signals=None):
    """The table (n_x x w r) and the block starts (blocks + 1 x k x n_x)
    of :func:`_observe` for samples 0..n of width w, with every product
    formed and screened on the way: into ``signals[c, b]`` for block b of
    column c, or, without ``signals``, into one buffer that each product
    reuses and that is then dropped.

    Raises NonFiniteState as :func:`_observe` does.
    """
    n_x, k = x0.shape
    r = out.shape[0]
    blocks = -(-(n + 1) // w)
    # an overflow is reported as NonFiniteState, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.empty((w, r, n_x))
        table[0] = out
        for i in range(1, w):
            np.matmul(table[i - 1], step, out=table[i])
        table = table.reshape(w * r, n_x).T
        jump = np.linalg.matrix_power(step, w).T
        # starts[b] is x_{b w}, transposed; the last closes the last block
        starts = np.empty((blocks + 1, k, n_x))
        starts[0] = x0.T
        if signals is None:
            buffer = np.empty((k, min(blocks, _STARTS_PER_PRODUCT), w * r))
        for lo in range(0, blocks, _STARTS_PER_PRODUCT):
            hi = min(lo + _STARTS_PER_PRODUCT, blocks)
            for b in range(lo, hi):
                np.matmul(starts[b], jump, out=starts[b + 1])
            formed = _products(table, starts, lo, hi,
                               buffer[:, :hi - lo] if signals is None
                               else signals[:, lo:hi])
            # one sum screens each array: a NaN or inf makes it non-finite
            # (so may an overflow of finite values, which costs a closer look)
            if not (np.isfinite(starts[lo:hi + 1].sum())
                    and np.isfinite(formed.sum())):
                _raise_first_non_finite(step, starts[lo:hi + 1], formed, w,
                                        lo, n)
    return table, starts


def _products(table, starts, lo, hi, into):
    """The samples of blocks lo..hi-1, one product of each column's starts
    with the table, formed into ``into`` (k x (hi - lo) x w r), which is
    returned: row b holds samples (lo + b) w .. (lo + b + 1) w - 1."""
    for c in range(into.shape[0]):
        np.matmul(starts[lo:hi, c], table, out=into[c])
    return into


def _raise_first_non_finite(step, starts, signals, w, lo, n):
    """Step each block of one product whose end state or signals are not
    finite one sample at a time, and raise NonFiniteState at its first
    sample j <= n whose state or signal is not finite.  ``signals[:, b]``
    holds the samples of block lo + b, which ``starts[b]`` opens."""
    k, blocks = signals.shape[:2]
    samples = signals.reshape(k, blocks * w, -1)
    for b in range(blocks):
        first = (lo + b) * w
        if np.isfinite(starts[b + 1]).all() and \
                np.isfinite(signals[:, b]).all():
            continue
        x = starts[b]
        for j in range(first, min(first + w, n + 1)):
            if j > first:
                x = x @ step.T
            if j and not (np.isfinite(x).all() and
                          np.isfinite(samples[:, j - lo * w]).all()):
                raise NonFiniteState(j)


def _state_samples(step, x0, n):
    """x_j = step^j x0 for j = 0..n, as an n_x x (n + 1) view of a
    sample-major buffer.  The first w = ``_STATE_BLOCK`` samples are
    stepped one at a time; after them each block of w samples is one
    product of the block before it with step^w, in place."""
    w = _STATE_BLOCK
    rows = np.empty((n + 1, x0.size))
    rows[0] = x0
    for j in range(min(n, w)):
        np.matmul(step, rows[j], out=rows[j + 1])
    if n > w:
        jump = np.linalg.matrix_power(step, w).T
        for lo in range(w + 1, n + 1, w):
            hi = min(lo + w, n + 1)
            np.matmul(rows[lo - w:hi - w], jump, out=rows[lo:hi])
    return rows.T


def integrate(cl, x0, t_end, dt):
    """Sample the closed loop from ``x0`` on a uniform grid up to ``t_end``,
    a whole number of steps ``dt``.

    The stored grid has n = ceil(steps / s) intervals of steps / n steps
    each, for s = ceil(steps / ``MAX_STORED``): every step of a run of at
    most ``MAX_STORED`` steps, every s-th step when s divides the step
    count, and otherwise more than ``MAX_STORED / 2`` intervals whose ends
    fall between steps.  Samples are exact to rounding on any grid: each
    is e^{A h} times the last, for the spacing h.  Each node's regulated
    signal and reference are formed and screened product by product (see
    :func:`_observe`), and only the block starts and the table are kept;
    all of :class:`SimResult` but its grid is formed when it is first read.

    Raises
    ------
    ValidationError
        Naming ``t_end`` or ``dt`` when it is not positive and finite, or
        ``t_end`` when it is not a whole number of steps.
    UnstableLoop
        If the error system has a growing mode (spectral abscissa of
        ``A_error`` above ``STABILITY_TOL``); marginal loops integrate.
    NonFiniteState
        On overflow, naming the first stored sample that is not finite.
    """
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not 0 < value < np.inf:
            raise ValidationError(name, "must be positive and finite")
    x0 = np.array(x0, dtype=float).ravel()
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
    s = -(-n_steps // MAX_STORED)
    n = -(-n_steps // s)
    # steps per interval: s itself, to the bit, when s divides the steps
    every = n_steps / n
    maps = {"output": cl.y_map, "input": cl.v_map}
    rows = [maps[cl.err_kind[i]][k * cl.p:(k + 1) * cl.p]
            for k, i in enumerate(cl.node_ids)]
    step = _expm(cl.A_full * (dt * every))
    out = np.vstack(rows + [cl.ref_map])
    w = _block_width(n, out.shape[0])
    table, starts = _screened_blocks(step, out, x0[:, None], n, w)
    # a float grid scaled in place: no integer grid is made and freed
    t = np.arange(n + 1, dtype=float)
    t *= dt * every
    return SimResult(t=t, regulated=None, refs=None, err_kind=cl.err_kind,
                     store_every=every, _loop=(step, x0, maps),
                     _blocks=(table, starts, w))


def initial_state(cl, nu0=None, eta0=None, etabar0=None):
    """Build the simulation-form initial state from per-node values.

    Each dict maps 1-based node ids to initial vectors; every other block
    (node, controller and edge states included) starts at zero.
    ``eta0``/``nu0``/``etabar0`` seed only the blocks the node's role owns
    (``seeds`` in :data:`coopnet.synthesis.NODE_ROLES`): ``eta0`` the
    reference generator of a node regulating its output, ``nu0`` the
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

    def on_grid(a, out, vecs):
        """Signals out e^{A t_k} x for each start x in vecs, as p x T
        views."""
        x0 = np.column_stack(vecs)
        if t[0] != 0.0:
            x0 = _expm(a * t[0]) @ x0
        return [c.T for c in _observe(_expm(a * h), out, x0, t.size - 1)]

    nu0, eta0, etabar0 = ({i: np.asarray(v, dtype=float).ravel()
                           for i, v in (d or {}).items()}
                          for d in (nu0, eta0, etabar0))
    ids = range(1, len(cset.node_roles) + 1)
    zero = np.zeros(exo.q)
    # per regulated signal: its limit's output map and initial values
    limits = {"output": (exo.Q_eta, eta0), "input": (exo.Q_v, nu0)}
    # each signal is observed once per distinct start vector: starts[kind]
    # maps a vector's bytes to (its column, the vector)
    starts, picks = {"output": {}, "input": {}}, {}

    def pick(key, kind, vec):
        column = starts[kind].setdefault(vec.tobytes(),
                                         (len(starts[kind]), vec))[0]
        picks[key] = kind, column

    for i, name in zip(ids, cset.node_roles):
        role = NODE_ROLES[name]
        start = limits[role.regulates][1]
        pick(i, role.regulates,
             sum(start.get(k, zero) for k in ids) / len(ids)
             if role.consensus else start.get(i, zero))
    if cset.regime == "cooperation":
        total = sum(nu0.get(i, zero) for i in ids)
        pick("bias", "input", -total / len(ids))
    grids = {kind: on_grid(exo.S, limits[kind][0],
                           [vec for _, vec in cols.values()])
             for kind, cols in starts.items() if cols}
    signals = {key: grids[kind][c] for key, (kind, c) in picks.items()}
    bias, output_sum = signals.pop("bias", None), None
    if bias is not None and np.linalg.norm(total) <= ZERO_SUM_TOL:
        total_ref = sum(etabar0.get(i, np.zeros(cset.G_S.shape[0]))
                        for i in ids)
        output_sum = on_grid(cset.G_S, cset.G_Q, [total_ref])[0]
    return SteadyStatePrediction(t=t, per_node=signals, bias=bias,
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
    leading-window max (same width at the start of the run).  Only the
    errors of the two windows are formed, one window at a time, from the
    products of the run that cover them (:meth:`SimResult._window`): the
    result's ``errors``, ``regulated`` and ``refs`` are not read, so an
    unread result stays without them.

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
    # one window at a time: the leading one is dropped before the trailing
    # one is formed
    lead = {i: float(np.abs(err).max(initial=0.0))
            for i, err in result._window(0, stop).items()}
    metrics = {}
    for node_id, trail in result._window(first, t.size).items():
        tmax = float(np.abs(trail).max(initial=0.0))
        # row-major, so the mean sums in the order of a row-major copy
        rms = float(np.sqrt(np.mean(trail ** 2)))
        metrics[node_id] = NodeMetrics(max_error=tmax, rms_error=rms,
                                       decayed=bool(tmax < lead[node_id]))
    return metrics
