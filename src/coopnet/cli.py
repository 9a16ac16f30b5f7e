"""Command-line interface: assumption checks, gain synthesis, coupling-gain
search, simulation with CSV/SVG emission, and the pinned demo run.

Exit codes: 0 success, 1 assumption violation, 2 numerical failure,
3 configuration error, 141 stdout closed by its reader.
"""

import argparse
import importlib.resources
import os
import sys

import numpy as np

from . import scenarios, svg
from .analysis import PASSIVITY_TOL, STRICT_MARGIN
from .closedloop import BISECT_REL_WIDTH, STABILITY_TOL, epsilon_star
from .config import format_config, parse_config
from .errors import (
    AssumptionViolation,
    ConfigError,
    CoopnetError,
    NumericalFailure,
)
from .sim import error_metrics, initial_state, integrate
from .synthesis import assumption_report

BUILTIN_SCENARIOS = {
    "power_network": scenarios.demo_power_network,
}

#: demo acceptance threshold on the trailing-window neighboring-input error
DEMO_ERR_THRESHOLD = 1e-2
#: metrics window of the demo report, seconds
DEMO_WINDOW = 0.1
#: rows formatted per write in :func:`write_csv`.  The demo's 13-column
#: CSV took 0.40 s with 256 rows, 0.36 s with 1024 and 2048, and 0.50 s
#: with 4096 (2-core x86 host); peak memory was the same with 256 and 1024
CSV_BLOCK_ROWS = 1024
#: exit code when the reader of stdout goes away: 128 + SIGPIPE, what a
#: shell reports for a writer the signal ends
EXIT_BROKEN_PIPE = 141


def _load_scenario(source):
    if source in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[source]()
    if not os.path.exists(source):
        raise ConfigError(
            f"config source {source!r} is neither a built-in scenario "
            f"({', '.join(sorted(BUILTIN_SCENARIOS))}) nor an existing file")
    with open(source, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _apply_overrides(scn, args):
    changes = {}
    if getattr(args, "dt", None) is not None:
        if args.dt <= 0:
            raise ConfigError("--dt must be > 0")
        changes["dt"] = args.dt
    if getattr(args, "t_end", None) is not None:
        if args.t_end <= 0:
            raise ConfigError("--t-end must be > 0")
        changes["t_end"] = args.t_end
    if getattr(args, "eps", None) is not None:
        changes["eps"] = args.eps
    if changes:
        from dataclasses import replace

        scn = replace(scn, **changes)
    return scn


def _realize(scn, seed):
    return scenarios.realize(scn, seed=seed)


def _fmt_mat(mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    return " | ".join("; ".join(f"{v:.10g}" for v in row) for row in mat)


# ---------------------------------------------------------------------------
# emission


def write_csv(path, result):
    """Write trajectories in the canonical column layout.

    Columns: ``t`` then per node (node-major) ``y<i>_<k>``, ``v<i>_<k>``,
    ``ref<i>_<k>``, ``err<i>_<k>``; every value is written as C's
    ``%.17g`` would write it, so the file round-trips losslessly.
    """
    # imported here: only the commands that write a CSV pay for it
    from ._g17 import format_rows

    node_ids = sorted(result.y)
    p = next(iter(result.y.values())).shape[0]
    header = ["t"]
    for i in node_ids:
        for tag in ("y", "v", "ref", "err"):
            header += [f"{tag}{i}_{k + 1}" for k in range(p)]
    cols = [result.t]
    table = {"y": result.y, "v": result.v, "ref": result.refs,
             "err": result.errors}
    for i in node_ids:
        for tag in ("y", "v", "ref", "err"):
            for k in range(p):
                cols.append(table[tag][i][k])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        # one block of rows at a time: no copy of the whole table is held
        for start in range(0, len(result.t), CSV_BLOCK_ROWS):
            stop = start + CSV_BLOCK_ROWS
            fh.write(format_rows(np.column_stack([c[start:stop]
                                                  for c in cols])))
    return path


def write_plots(out_dir, result, base="run"):
    """Three panels: errors over the run, trailing errors, trailing signals."""
    t = result.t
    errors = {f"err{i}_{k + 1}": result.errors[i][k]
              for i in sorted(result.errors)
              for k in range(result.errors[i].shape[0])}
    paths = [svg.line_chart(os.path.join(out_dir, f"{base}_errors.svg"),
                            t, errors, title="regulation errors",
                            y_label="error")]
    tail = t >= (t[-1] - max(0.1 * (t[-1] - t[0]), t[1] - t[0]))
    errors_tail = {k: v[tail] for k, v in errors.items()}
    paths.append(svg.line_chart(
        os.path.join(out_dir, f"{base}_errors_tail.svg"), t[tail],
        errors_tail, title="regulation errors (trailing window)",
        y_label="error"))
    signals = {}
    for i in sorted(result.v):
        for k in range(result.v[i].shape[0]):
            signals[f"v{i}_{k + 1}"] = result.v[i][k][tail]
            signals[f"ref{i}_{k + 1}"] = result.refs[i][k][tail]
    paths.append(svg.line_chart(
        os.path.join(out_dir, f"{base}_signals_tail.svg"), t[tail], signals,
        title="neighboring inputs vs references (trailing window)",
        y_label="signal"))
    return paths


# ---------------------------------------------------------------------------
# commands


def cmd_check(args):
    scn = _apply_overrides(_load_scenario(args.config), args)
    network, exo = scn.network(), scn.exosystem()
    results, cset = assumption_report(
        network, exo, scn.regime, roles=scn.roles, eps=scn.eps,
        gains=scn.gains, seed=args.seed, nu0=scn.nu0 or None)
    print(f"assumption report for scenario {scn.name!r} "
          f"(regime {scn.regime}, eps {scn.eps:g})")
    for r in results:
        print(" ", r)
    failed = [r for r in results if not r.passed and r.name != "A6"]
    if failed:
        print(f"{len(failed)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def cmd_synth(args):
    scn = _apply_overrides(_load_scenario(args.config), args)
    rz = _realize(scn, args.seed)
    lines = [f"synthesized controllers for {scn.name!r} "
             f"(regime {scn.regime})"]
    for i, ctrl in enumerate(rz.cset.controllers, start=1):
        if ctrl is None:
            lines.append(f"node {i}: static master (output pinned)")
            continue
        lines += [
            f"node {i} ({ctrl.regime}):",
            f"  K_x    = {_fmt_mat(ctrl.K_x)}",
            f"  K_zeta = {_fmt_mat(ctrl.K_zeta)}",
            f"  internal model: {ctrl.im.copies} copies, min poly coeffs "
            f"{tuple(round(c, 12) for c in ctrl.im.minimal_poly_coeffs)}",
            f"  passivity slack = {ctrl.Phat.slack:.3e} (tolerance "
            f"{PASSIVITY_TOL:g}), min eig P = {ctrl.Phat.min_eig:.3e}",
        ]
    for j, cert in enumerate(rz.cset.edge_certificates, start=1):
        lines.append(f"edge {j}: SPR slack = {cert.slack:.3e} "
                     f"(accepted above {STRICT_MARGIN:g})")
    text = "\n".join(lines)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "synth_report.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(text + "\n")
        with open(os.path.join(args.out, "scenario.cfg"), "w",
                  encoding="utf-8") as fh:
            fh.write(format_config(scn))
    return 0


def cmd_eps(args):
    scn = _load_scenario(args.config)
    rz = _realize(scn, args.seed)
    eps_hi = args.eps if args.eps is not None else 1000.0
    est = epsilon_star(rz.network, rz.cset, rz.maps, eps_hi=eps_hi)
    print(f"coupling-gain boundary for {scn.name!r} (ceiling {eps_hi:g})")
    n_probes = len(est.probes)
    how = (f"bisection to relative width {BISECT_REL_WIDTH:.0e}" if est.crossed
           else f"no crossing found up to the ceiling: the ceiling is stable, "
           f"{n_probes} probe{'s' if n_probes > 1 else ''} decomposed")
    print(f"  eps_bisect   = {est.eps_bisect:.6g}  ({how}; abscissa there "
          f"{est.abscissa_at_bisect:.3e})")
    if not est.crossed:
        where = "no crossing below the ceiling"
    elif np.isnan(est.eps_crossing):
        where = "not tracked: the search fell back to bisection"
    else:
        where = (f"the critical eigenvalue reaches real part "
                 f"{-STABILITY_TOL:g} at omega_crossing = "
                 f"{est.omega_crossing:.10g}")
    print(f"  eps_crossing = {est.eps_crossing:.10g}  ({where})")
    why = (f"constructive bound unavailable: {est.analytic_failure}"
           if est.analytic_failure else
           "constructive bound; conservative by design")
    print(f"  eps_analytic = {est.eps_analytic:.6g}  ({why})")
    for eps, absc in zip(est.probes, est.probe_abscissas):
        print(f"    probe eps={eps:12.6g}  abscissa={absc:+.6e}")
    return 0


def cmd_simulate(args):
    scn = _apply_overrides(_load_scenario(args.config), args)
    rz = _realize(scn, args.seed)
    x0 = initial_state(rz.cl, nu0=scn.nu0, eta0=scn.eta0,
                       etabar0=scn.etabar0)
    result = integrate(rz.cl, x0, t_end=scn.t_end, dt=scn.dt,
                       store_every=scn.store_every)
    t = result.t
    # at least two stored steps, at most the stored horizon
    window = min(max(0.1 * scn.t_end, 2 * (t[1] - t[0])), t[-1] - t[0])
    metrics = error_metrics(result, window=window)
    print(f"simulated {scn.name!r}: {result.t.size} stored samples, "
          f"dt {scn.dt:g}, horizon {scn.t_end:g} s, eps {scn.eps:g}")
    for i, m in sorted(metrics.items()):
        print(f"  node {i}: max|err| = {m.max_error:.6e}, "
              f"rms = {m.rms_error:.6e} over trailing {window:g} s, "
              f"decayed = {m.decayed}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        csv_path = write_csv(os.path.join(args.out, f"{scn.name}.csv"),
                             result)
        print(f"wrote {csv_path}")
        if args.emit == "csv+svg":
            for path in write_plots(args.out, result, base=scn.name):
                print(f"wrote {path}")
    return 0


def _load_golden():
    ref = importlib.resources.files("coopnet").joinpath(
        "data/demo_golden.csv")
    rows = {}
    with ref.open("r", encoding="utf-8") as fh:
        header = fh.readline()
        for line in fh:
            if not line.strip():
                continue
            name, value, tol = line.strip().split(",")
            rows[name] = (float(value), float(tol))
    return rows


def cmd_demo(args):
    scn = scenarios.demo_power_network()
    pinned = (getattr(args, "dt", None) in (None, scn.dt) and
              getattr(args, "t_end", None) in (None, scn.t_end) and
              getattr(args, "eps", None) in (None, scn.eps))
    scn = _apply_overrides(scn, args)
    # realize raises AssumptionFailed (exit 1) when any check fails
    rz = _realize(scn, args.seed)
    print(f"demo scenario {scn.name!r}: assumption checks all passed")

    from .analysis import spectral_abscissa

    absc = spectral_abscissa(rz.cl.A_error)
    print(f"error-system spectral abscissa at eps={scn.eps:g}: {absc:.6e} "
          f"(must be < 0)")
    x0 = initial_state(rz.cl, nu0=scn.nu0, eta0=scn.eta0)
    result = integrate(rz.cl, x0, t_end=scn.t_end, dt=scn.dt)
    window = min(DEMO_WINDOW, 0.5 * scn.t_end)
    metrics = error_metrics(result, window=window)
    measured = {
        "abscissa_error_system": absc,
    }
    checks = [("abscissa_negative", absc < 0.0,
               f"abscissa {absc:.3e} < 0")]
    for i in (1, 2):
        m = metrics[i]
        measured[f"trailing_max_err_node{i}"] = m.max_error
        measured[f"decayed_node{i}"] = 1.0 if m.decayed else 0.0
        checks.append((
            f"threshold_node{i}",
            m.max_error <= DEMO_ERR_THRESHOLD and m.decayed,
            f"max|v{i}-ref{i}| = {m.max_error:.6e} over trailing "
            f"{window:g} s of {scn.t_end:g} s "
            f"(threshold {DEMO_ERR_THRESHOLD:g}), decayed = {m.decayed}"))

    ok = True
    for name, passed, detail in checks:
        print(f"  [{'pass' if passed else 'FAIL'}] {name}: {detail}")
        ok = ok and passed
    if pinned:
        golden = _load_golden()
        for name, (value, tol) in sorted(golden.items()):
            have = measured.get(name)
            if have is None:
                print(f"  [FAIL] golden {name}: not measured")
                ok = False
                continue
            passed = abs(have - value) <= tol
            print(f"  [{'pass' if passed else 'FAIL'}] golden {name}: "
                  f"measured {have:.9e} vs pinned {value:.9e} "
                  f"(tolerance {tol:g})")
            ok = ok and passed
    else:
        print("  (parameters overridden: golden regression lines skipped)")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        csv_path = write_csv(os.path.join(args.out, "demo.csv"), result)
        print(f"wrote {csv_path}")
        if args.emit == "csv+svg":
            for path in write_plots(args.out, result, base="demo"):
                print(f"wrote {path}")
    if not ok:
        print("demo checks FAILED (see lines above; the trailing error at "
              "the pinned 1 s horizon is dominated by the slow "
              "load-coupling mode; try --t-end 8)")
        return 2
    print("demo checks passed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coopnet",
        description="Controller synthesis and closed-loop simulation for "
                    "multi-agent networks with dynamic edges.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True, sim_flags=False):
        p.add_argument("--config", required=config_required,
                       default=None if config_required else "power_network",
                       help="built-in scenario name or config file path")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for synthesis searches")
        p.add_argument("--eps", type=float, default=None,
                       help="coupling gain override (search ceiling for "
                            "the eps command)")
        if sim_flags:
            p.add_argument("--out", default=None, help="output directory")
            p.add_argument("--dt", type=float, default=None,
                           help="integration step override [s]")
            p.add_argument("--t-end", dest="t_end", type=float, default=None,
                           help="horizon override [s]")
            p.add_argument("--emit", choices=("csv", "csv+svg"),
                           default="csv", help="artifact formats")

    p = sub.add_parser("check", help="print the assumption report")
    add_common(p)
    p.set_defaults(func=cmd_check)
    p = sub.add_parser("synth", help="synthesize/verify gains and "
                                     "certificates")
    add_common(p)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_synth)
    p = sub.add_parser("eps", help="search the coupling-gain boundary")
    add_common(p)
    p.set_defaults(func=cmd_eps)
    p = sub.add_parser("simulate", help="integrate and emit CSV/SVG")
    add_common(p, sim_flags=True)
    p.set_defaults(func=cmd_simulate)
    p = sub.add_parser("demo", help="run the built-in power network "
                                    "end to end")
    add_common(p, config_required=False, sim_flags=True)
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (``coopnet eps ... | head -4``): point it
        # at devnull so the flush at exit cannot fail again, as the Python
        # docs on SIGPIPE advise, and exit like a writer killed by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except AssumptionViolation as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except CoopnetError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
