import ast
import glob
import importlib.resources
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopnet
from coopnet import svg
from coopnet.cli import EXIT_BROKEN_PIPE, main, write_csv
from coopnet.config import format_config, parse_config
from coopnet.errors import ParseError, ValidationError
from coopnet.scenarios import demo_power_network, random_network
from coopnet.network import is_static

from helpers import tracking_ground_demo, with_zero_sum


def test_roundtrip_demo_scenario():
    scn = demo_power_network()
    back = parse_config(format_config(scn))
    assert back.name == scn.name and back.regime == scn.regime
    assert back.eps == scn.eps and back.roles == scn.roles
    assert np.array_equal(back.S, scn.S)
    assert np.array_equal(back.Q_eta, scn.Q_eta)
    assert np.array_equal(back.Q_v, scn.Q_v)
    for a, b in zip(scn.nodes, back.nodes):
        if is_static(a):
            assert is_static(b)
            continue
        for attr in ("A", "B", "C", "D_in"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))
    for a, b in zip(scn.edges, back.edges):
        for attr in ("A", "B", "C"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))
    assert back.edge_ends == scn.edge_ends
    for i in scn.gains:
        assert np.array_equal(back.gains[i].K_x, scn.gains[i].K_x)
        assert np.array_equal(back.gains[i].K_zeta, scn.gains[i].K_zeta)
    for i in scn.nu0:
        assert np.array_equal(back.nu0[i], scn.nu0[i])
    assert back.dt == scn.dt and back.t_end == scn.t_end


def test_roundtrip_random_scenario():
    scn = random_network(seed=14, regime="master_slave", n_slaves=1)
    back = parse_config(format_config(scn))
    assert back.roles == scn.roles
    for a, b in zip(scn.edges, back.edges):
        assert np.array_equal(a.A, b.A)


def test_packaged_config_equals_builtin():
    ref = importlib.resources.files("coopnet").joinpath(
        "data/power_network.cfg")
    scn = parse_config(ref.read_text(encoding="utf-8"))
    demo = demo_power_network()
    assert scn.eps == demo.eps
    assert np.array_equal(scn.S, demo.S)
    assert np.array_equal(scn.nodes[0].B, demo.nodes[0].B)
    assert scn.roles == demo.roles


def _demo_text(**edits):
    text = format_config(demo_power_network())
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    return text


def test_missing_edge_matrix_names_field():
    text = _demo_text(**{"G = 1\n\n[edge 2": "\n[edge 2"})
    with pytest.raises(ValidationError) as exc:
        parse_config(text)
    assert exc.value.field == "edges[0].G"


def test_explicit_topology_cross_check():
    text = format_config(demo_power_network())
    good = text + "\n[topology]\nH = 1; 1; 0 | -1; 0; 1 | 0; -1; -1\n"
    parse_config(good)
    bad = text + "\n[topology]\nH = 1; 1; 0 | 1; 0; 1 | 0; -1; -1\n"
    with pytest.raises(ValidationError):
        parse_config(bad)


def test_unknown_key_rejected():
    text = _demo_text(**{"eps = 20": "eps = 20\nbogus = 1"})
    with pytest.raises(ParseError):
        parse_config(text)


def test_duplicate_key_rejected():
    text = _demo_text(**{"eps = 20": "eps = 20\neps = 21"})
    with pytest.raises(ParseError):
        parse_config(text)


def test_self_loop_rejected():
    text = _demo_text(**{"[edge 1 from=1 to=2]": "[edge 1 from=1 to=1]"})
    with pytest.raises(ValidationError):
        parse_config(text)


def test_bad_number_rejected():
    text = _demo_text(**{"B = 20000": "B = twenty"})
    with pytest.raises(ValidationError):
        parse_config(text)


@pytest.mark.parametrize("old, new, error, name", [
    ("eps = 20", "eps = twenty", ValidationError, "scenario.eps"),
    ("eps = 20", "eps = nan", ValidationError, "scenario.eps"),
    ("dt = 9.9999999999999995e-07", "dt = 1e-6s", ValidationError,
     "simulation.dt"),
    ("t_end = 1", "t_end = one", ValidationError, "simulation.t_end"),
    ("t_end = 1", "t_end = inf", ValidationError, "simulation.t_end"),
    ("t_end = 1", "t_end = 1\nstore_every = 5", ParseError, "line 63"),
], ids=["eps", "eps-nan", "dt", "t_end", "t_end-inf", "store_every"])
def test_bad_scalar_names_field(tmp_path, capsys, old, new, error, name):
    """A malformed or non-finite scalar is a configuration error (exit 3)
    that names its field; ``store_every``, a key the simulation section
    does not have, is one that names its line."""
    text = _demo_text(**{old: new})
    with pytest.raises(error) as exc:
        parse_config(text)
    assert str(exc.value).startswith(f"{name}: ")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["check", "--config", str(cfg)]) == 3
    assert name in capsys.readouterr().err


def test_ground_node_with_matrices_rejected():
    text = _demo_text(**{"ground = true": "ground = true\nA = 0"})
    with pytest.raises(ValidationError):
        parse_config(text)


# ---------------------------------------------------------------------------
# CLI


def test_cli_check_demo_passes(capsys):
    assert main(["check", "--config", "power_network"]) == 0
    out = capsys.readouterr().out
    assert "A1" in out and "A5" in out and "all checks passed" in out


def test_cli_check_reports_unstable_edge(tmp_path, capsys):
    text = _demo_text(**{"E = -5000": "E = 5000"})
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["check", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "A3" in out and "edge 1" in out and "FAIL" in out


@pytest.mark.parametrize("zero_sum", [False, True], ids=["drift", "zero-sum"])
def test_cli_check_a6_line(tmp_path, capsys, zero_sum):
    """Commands that do not sum to zero leave a common bias that drives
    the reference generator at resonance: the A6 line says the output sum
    drifts, and it is a report, not a failed check."""
    scn = random_network(200, regime="cooperation")
    if zero_sum:
        scn = with_zero_sum(scn)
    cfg = tmp_path / "coop.cfg"
    cfg.write_text(format_config(scn))
    assert main(["check", "--config", str(cfg)]) == 0
    a6 = [line for line in capsys.readouterr().out.splitlines()
          if line.strip().startswith("A6")]
    assert len(a6) == 1
    if zero_sum:
        assert "pass" in a6[0] and "sum to zero" in a6[0]
    else:
        assert "FAIL" in a6[0] and "common bias" in a6[0]
        assert "output sum drifts without limit" in a6[0]


_GROUND_NODE = "[node 3]\nA = 0\nB = 20000\nC = 1\nD = 20000\n"


@pytest.mark.parametrize("node, cause", [
    ("A = 0; 1 | 0; 0\nB = 0 | 1\nC = -1; 1\nD = 0 | 1\n",
     "invariant zero +1 is not stable"),
    ("A = 0\nB = 20000\nC = -1\nD = 20000\n",
     "C B is not positive definite"),
], ids=["unstable-zero", "negative-cb"])
def test_cli_check_names_why_a_synthesized_node_fails(tmp_path, capsys,
                                                      node, cause):
    """The tracking demo's ground node is synthesized: a node that is not
    hyper-minimum-phase there fails A5 with its cause."""
    text = format_config(tracking_ground_demo())
    assert _GROUND_NODE in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(_GROUND_NODE, "[node 3]\n" + node))
    assert main(["check", "--config", str(cfg)]) == 1
    a5 = [line for line in capsys.readouterr().out.splitlines()
          if line.strip().startswith("A5 node 3")]
    assert len(a5) == 1 and "FAIL" in a5[0] and cause in a5[0]


@pytest.mark.parametrize("old, new, field", [
    ("G2 = 1 | 1\n", "G2 = 1 | 1 | 1\n", "controllers[0].G2"),
    ("K_x = -1\n", "K_x = -1; 0\n", "controllers[0].K_x"),
], ids=["G2-rows", "K_x-columns"])
def test_cli_supplied_controller_shape_is_config_error(tmp_path, capsys,
                                                       old, new, field):
    ref = importlib.resources.files("coopnet").joinpath(
        "data/power_network.cfg").read_text(encoding="utf-8")
    assert ref.count(old) == 1
    text = ref.replace(old, new)
    with pytest.raises(ValidationError) as exc:
        parse_config(text)
    assert exc.value.field == field
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["check", "--config", str(cfg)]) == 3
    assert field in capsys.readouterr().err


def test_cli_synth_prints_the_applied_passivity_bound(capsys):
    """The bound is PASSIVITY_TOL ||L.T Ahat L^{-T}||_2 with P = L L.T, a
    rate in P's own coordinates: 6.7e-5 for node 2, whose slack (-1.6e-30
    here) is rounding, far inside it."""
    assert main(["synth", "--config", "power_network"]) == 0
    lines = capsys.readouterr().out.splitlines()
    line = lines[lines.index("node 2 (slave):") + 4]
    slack = float(line.split("passivity slack = ")[1].split(" ")[0])
    bound = -float(line.split("accepted above ")[1].split(")")[0])
    assert bound == pytest.approx(6.69e-5, rel=0.01)
    assert abs(slack) <= 1e-12 * bound


@pytest.mark.parametrize("argv,flag", [
    (["simulate", "--config", "power_network", "--eps", "nan"], "--eps"),
    (["simulate", "--config", "power_network", "--dt", "nan"], "--dt"),
    (["simulate", "--config", "power_network", "--t-end", "inf"], "--t-end"),
    (["synth", "--config", "power_network", "--eps", "inf"], "--eps"),
    (["demo", "--eps", "nan"], "--eps"),
    (["demo", "--dt", "nan"], "--dt"),
    (["demo", "--t-end", "inf"], "--t-end"),
    (["eps", "--config", "power_network", "--eps", "nan"], "--eps"),
    (["check", "--config", "power_network", "--eps", "nan"], "--eps"),
], ids=["simulate-eps", "simulate-dt", "simulate-t_end", "synth-eps",
        "demo-eps", "demo-dt", "demo-t_end", "eps-eps", "check-eps"])
def test_cli_non_finite_flag_is_config_error(capsys, argv, flag):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"configuration error: {flag}: non-finite value" in err


def test_cli_role_of_an_unknown_node_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "roles.cfg"
    cfg.write_text(_demo_text(**{"3:master": "3:master 9:slave"}))
    assert main(["check", "--config", str(cfg)]) == 3
    assert "roles[9]: unknown node" in capsys.readouterr().err


def test_cli_missing_config_is_config_error(capsys):
    assert main(["check", "--config", "/nonexistent/nope.cfg"]) == 3


def test_cli_malformed_config_is_config_error(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("[scenario\nname = x\n")
    assert main(["check", "--config", str(cfg)]) == 3


def test_cli_simulate_writes_deterministic_csv(tmp_path, capsys):
    scn = random_network(seed=3, regime="tracking")
    from coopnet.config import format_config as fmt

    from dataclasses import replace

    scn = replace(scn, dt=1e-2, t_end=2.0)
    cfg = tmp_path / "scn.cfg"
    cfg.write_text(fmt(scn))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(out2)]) == 0
    data1 = (out1 / f"{scn.name}.csv").read_bytes()
    data2 = (out2 / f"{scn.name}.csv").read_bytes()
    assert data1 == data2
    header = data1.decode().splitlines()[0].split(",")
    assert header[0] == "t"
    assert header[1:5] == ["y1_1", "v1_1", "ref1_1", "err1_1"]


def test_cli_simulate_rejects_a_reference_the_role_lacks(tmp_path, capsys):
    from dataclasses import replace

    # node 1 regulates its neighboring input: an eta reference has no block
    scn = random_network(1, n_nodes=3, m_edges=3, regime="cooperation",
                         eps=0.1)
    cfg = tmp_path / "scn.cfg"
    cfg.write_text(format_config(replace(
        scn, eta0={1: np.array([7.0, 8.0])}, dt=1e-2, t_end=1.0)))
    assert main(["simulate", "--config", str(cfg)]) == 3
    assert "eta0[1]: node 1 is a cooperation node regulating its input" \
        in capsys.readouterr().err


def test_cli_simulate_emits_svg(tmp_path):
    scn = random_network(seed=3, regime="tracking")
    from dataclasses import replace

    from coopnet.config import format_config as fmt

    cfg = tmp_path / "scn.cfg"
    cfg.write_text(fmt(replace(scn, dt=1e-2, t_end=2.0)))
    out = tmp_path / "plots"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--emit", "csv+svg"]) == 0
    svgs = sorted(p.name for p in out.glob("*.svg"))
    assert len(svgs) == 3
    text = (out / svgs[0]).read_text()
    assert text.startswith("<svg") and "polyline" in text


def _per_point_line_chart(path, t, series, title="", x_label="t [s]",
                          y_label="", width=920, height=360,
                          max_points=2000):
    """The reference: ``svg.line_chart`` as it formatted its polylines
    point by point, from numpy scalars."""
    t = np.asarray(t, dtype=float)
    items = list(series.items())
    stride = max(1, int(np.ceil(t.size / max_points)))
    tt = t[::stride]
    data = [(label, np.asarray(y, dtype=float).ravel()[::stride])
            for label, y in items]
    y_lo = min((y.min() for _, y in data if y.size), default=0.0)
    y_hi = max((y.max() for _, y in data if y.size), default=1.0)
    pad = 0.05 * max(y_hi - y_lo, 1e-12)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = float(tt[0]), float(tt[-1]) if tt.size > 1 else \
        (float(tt[0]) + 1.0)
    ml, mr, mt, mb = 70, 160, 34, 44
    pw, ph = width - ml - mr, height - mt - mb

    def sx(x):
        return ml + pw * (x - x_lo) / max(x_hi - x_lo, 1e-300)

    def sy(y):
        return mt + ph * (1.0 - (y - y_lo) / max(y_hi - y_lo, 1e-300))

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{ml}" y="20" font-family="monospace" font-size="13" '
           f'fill="#333">{title}</text>']
    # axes and grid
    for xv in svg._ticks(x_lo, x_hi):
        xs = sx(xv)
        out.append(f'<line x1="{xs:.1f}" y1="{mt}" x2="{xs:.1f}" '
                   f'y2="{mt + ph}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{xs:.1f}" y="{mt + ph + 16}" '
                   f'font-family="monospace" font-size="10" fill="#555" '
                   f'text-anchor="middle">{svg._fmt(xv)}</text>')
    for yv in svg._ticks(y_lo, y_hi):
        ys = sy(yv)
        out.append(f'<line x1="{ml}" y1="{ys:.1f}" x2="{ml + pw}" '
                   f'y2="{ys:.1f}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{ml - 6}" y="{ys + 3:.1f}" '
                   f'font-family="monospace" font-size="10" fill="#555" '
                   f'text-anchor="end">{svg._fmt(yv)}</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="#333" stroke-width="1"/>')
    out.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" '
               f'font-family="monospace" font-size="11" fill="#333" '
               f'text-anchor="middle">{x_label}</text>')
    if y_label:
        out.append(f'<text x="16" y="{mt + ph / 2:.1f}" '
                   f'font-family="monospace" font-size="11" fill="#333" '
                   f'text-anchor="middle" '
                   f'transform="rotate(-90 16 {mt + ph / 2:.1f})">'
                   f'{y_label}</text>')
    for k, (label, y) in enumerate(data):
        color = svg._PALETTE[k % len(svg._PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(v):.2f}" for x, v in zip(tt, y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.3"/>')
        ly = mt + 14 + 16 * k
        out.append(f'<line x1="{ml + pw + 10}" y1="{ly - 4}" '
                   f'x2="{ml + pw + 30}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="2"/>')
        out.append(f'<text x="{ml + pw + 34}" y="{ly}" '
                   f'font-family="monospace" font-size="10" fill="#333">'
                   f'{label}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
    return path


def test_demo_charts_match_the_per_point_polylines(tmp_path, monkeypatch):
    """The three charts of the demo's ``simulate --emit csv+svg``, byte for
    byte as the per-point code drew them."""
    from coopnet import cli

    results = []
    real = cli.write_plots

    def keep(out_dir, result, base="run"):
        results.append((result, base))
        return real(out_dir, result, base)

    monkeypatch.setattr(cli, "write_plots", keep)
    assert main(["simulate", "--config", "power_network", "--out",
                 str(tmp_path / "new"), "--emit", "csv+svg"]) == 0
    monkeypatch.setattr(svg, "line_chart", _per_point_line_chart)
    (tmp_path / "ref").mkdir()
    (result, base), = results
    paths = real(str(tmp_path / "ref"), result, base)
    assert len(paths) == 3
    for path in paths:
        name = os.path.basename(path)
        assert (tmp_path / "new" / name).read_bytes() == \
            (tmp_path / "ref" / name).read_bytes(), name


def _signals_panel(monkeypatch, argv):
    """The title and series names of the trailing signals panel that
    ``main(argv)`` draws."""
    panels = {}
    real = svg.line_chart

    def keep(path, t, series, title="", y_label=""):
        panels[os.path.basename(path)] = title, list(series)
        return real(path, t, series, title=title, y_label=y_label)

    monkeypatch.setattr(svg, "line_chart", keep)
    main(argv)
    panel, = (v for k, v in panels.items() if k.endswith("_signals_tail.svg"))
    return panel


def test_signals_panel_draws_each_regulated_signal(tmp_path, monkeypatch):
    """Each node's regulated signal against its reference: the demo's
    slaves 1 and 2 regulate their neighboring inputs and master 3 its
    output; every node of a tracking network regulates its output."""
    title, names = _signals_panel(monkeypatch, [
        "demo", "--t-end", "0.02", "--out", str(tmp_path / "demo"),
        "--emit", "csv+svg"])
    assert title == "regulated signals vs references (trailing window)"
    assert names == ["v1_1", "ref1_1", "v2_1", "ref2_1", "y3_1", "ref3_1"]
    from dataclasses import replace

    from coopnet.scenarios import realize

    scn = replace(random_network(seed=3, regime="tracking"), dt=1e-2,
                  t_end=2.0)
    cfg = tmp_path / "scn.cfg"
    cfg.write_text(format_config(scn))
    cl = realize(scn).cl
    _, names = _signals_panel(monkeypatch, [
        "simulate", "--config", str(cfg), "--out", str(tmp_path / "track"),
        "--emit", "csv+svg"])
    assert names == [f"{tag}{i}_{k + 1}" for i in cl.node_ids
                     for k in range(cl.p) for tag in ("y", "ref")]


def test_cli_demo_prime_step_count_above_the_cap_exits_2(capsys):
    """0.999983 s of 1 us steps: 999,983 steps, a prime, stored between
    whole steps; the run completes and misses its thresholds like the
    pinned 1 s run."""
    assert main(["demo", "--t-end", "0.999983"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    for i in (1, 2):
        assert f"  [FAIL] threshold_node{i}: max|v{i}-ref{i}| = " in out
    assert out.count("over trailing 0.1 s of 0.999983 s") == 2


def test_cli_demo_keeps_two_signals_per_node(capsys, monkeypatch):
    """The traced peak of ``coopnet demo`` stays below 0.8 of what the
    run's 3 N p signal rows and its grid would take: it keeps each node's
    regulated signal and reference, 2 N p rows."""
    import tracemalloc

    from coopnet import cli
    from coopnet.scenarios import realize

    cl = realize(demo_power_network()).cl
    samples, cli_integrate = [], cli.integrate

    def counted(*args, **kwargs):
        res = cli_integrate(*args, **kwargs)
        samples.append(res.t.size)
        return res

    monkeypatch.setattr(cli, "integrate", counted)
    tracemalloc.start()
    try:
        assert main(["demo"]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    samples, = samples
    assert peak < 0.8 * (3 * len(cl.node_ids) * cl.p + 1) * samples * 8


def test_cli_demo_short_horizon_fails_threshold(capsys):
    code = main(["demo", "--t-end", "0.02"])
    out = capsys.readouterr().out
    assert code == 2
    assert "threshold_node1" in out and "FAIL" in out


def test_cli_demo_hint_names_the_run_horizon_and_mode(capsys):
    """An overridden horizon that still fails is the one the hint names,
    with the slowest error mode measured on the run."""
    assert main(["demo", "--t-end", "2"]) == 2
    hint = capsys.readouterr().out.splitlines()[-1]
    assert hint.startswith("demo checks FAILED")
    assert "at the 2 s horizon" in hint and "1 s" not in hint
    assert "mode -1.1648 +/- 314.30j" in hint and "try --t-end 8" in hint


def test_cli_demo_hint_suggests_no_horizon_already_tried(capsys):
    """At a gain other than the pinned one, the paper's 8 s horizon fails
    too: the hint names the slowest error mode and suggests no horizon."""
    assert main(["demo", "--t-end", "8", "--eps", "2"]) == 2
    hint = capsys.readouterr().out.splitlines()[-1]
    assert hint.startswith("demo checks FAILED")
    assert "at the 8 s horizon" in hint and "slowest error mode" in hint
    assert "--t-end" not in hint


def test_cli_demo_paper_horizon_passes(capsys):
    code = main(["demo", "--t-end", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "demo checks passed" in out


def test_cli_eps_reports_both_bounds(capsys):
    """Both ends of the boundary: eps_bisect, the stable end of the
    verified bracket, and the crossing inside it."""
    scn = random_network(seed=7, regime="sync")
    from dataclasses import replace

    from coopnet.config import format_config as fmt
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        cfg = os.path.join(td, "scn.cfg")
        with open(cfg, "w") as fh:
            fh.write(fmt(scn))
        assert main(["eps", "--config", cfg, "--eps", "10"]) == 0
    out = capsys.readouterr().out
    assert "eps_bisect" in out and "eps_analytic" not in out
    assert "(stable end of a verified bracket of relative width 1e-08; " \
        "abscissa there " in out
    assert "probe" in out
    assert "eps_crossing = 0.88273780" in out and \
        "omega_crossing = 0.99652598" in out


def test_cli_synth_prints_gains_and_margins(tmp_path, capsys):
    assert main(["synth", "--config", "power_network", "--out",
                 str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "K_x" in out and "passivity slack" in out and "SPR slack" in out
    assert (tmp_path / "synth_report.txt").exists()
    assert (tmp_path / "scenario.cfg").exists()


def test_write_csv_17_digit_roundtrip(tmp_path):
    scn = demo_power_network()
    from coopnet.scenarios import realize
    from coopnet.sim import initial_state, integrate

    rz = realize(scn)
    x0 = initial_state(rz.cl, nu0=scn.nu0, eta0=scn.eta0)
    res = integrate(rz.cl, x0, t_end=0.001, dt=1e-6)
    path = write_csv(tmp_path / "x.csv", res)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape[1] == 1 + 3 * 4  # t plus 4 signals per node
    assert np.array_equal(rows[:, 1], res.y[1][0])
    # node 2's y column starts after node 1's 4 signal columns
    assert np.array_equal(rows[:, 5], res.y[2][0])


def test_write_csv_matches_per_value_formatting(tmp_path):
    from types import SimpleNamespace

    from coopnet.cli import CSV_BLOCK_ROWS

    rng = np.random.default_rng(3)
    n_rows = 2 * CSV_BLOCK_ROWS + 7  # two full blocks and a partial one
    sig = {i: rng.standard_normal((2, n_rows)) * 10.0 ** rng.integers(
        -300, 300, size=(2, n_rows)) for i in (1, 2)}
    sig[1][0, :4] = [0.0, -0.0, np.inf, np.nan]
    res = SimpleNamespace(
        t=np.linspace(0.0, 1.0, n_rows), y=sig, v=sig, refs=sig,
        errors=sig, regulated=sig)
    path = write_csv(tmp_path / "x.csv", res)
    cols = [res.t] + [sig[i][k] for i in (1, 2) for _ in range(4)
                      for k in range(2)]
    expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                       for row in np.column_stack(cols))
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        assert fh.read() == expected


def test_cli_simulate_one_interval_run(capsys):
    """A run of one stored interval: the metrics window is clamped to it."""
    assert main(["simulate", "--config", "power_network", "--t-end",
                 "1e-6"]) == 0
    out = capsys.readouterr().out
    assert "2 stored samples" in out and "over trailing 1e-06 s" in out


def _g17_oracle(rows):
    """The reference: C's ``%.17g`` of every value, one row per line."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in rows.tolist()).encode("ascii")


def _as_rows(values, n_cols):
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate([values, np.zeros(-values.size % n_cols)])
    return values.reshape(-1, n_cols)


def _g17_panel():
    """Values at every boundary of the fast path and of the %g layout."""
    vals = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, 1e-300, 1.7976931348623157e308,
            1e-266, 9.9999999999999998e-267, 9.9999999999999995e-267]
    for k in range(-300, 301):
        p = float(f"1e{k}")
        vals += [p, -p, np.nextafter(p, 0.0), np.nextafter(p, np.inf),
                 float(f"9.9999999999999995e{k}"),
                 float(f"9.9999999999999998e{k}"),
                 float(f"1.2345678901234567e{k}")]
    # dyadic m/2^k, many of them exact ties at the 18th digit
    for k in range(1, 90):
        vals += [m / 2.0 ** k for m in range(1, 400, 9)]
    # integers up to 2^53, around 2^53 and above 1e17
    vals += [float(i) for i in range(0, 2 ** 53, 2 ** 53 // 499)]
    vals += [2.0 ** e + s * 2.0 ** (e - 52) for e in range(50, 70)
             for s in (-1, 0, 1)]
    vals += [1e17 + 16 * i for i in range(-5, 6)] + [123456789012345678.0]
    # the notation switches: X = -5/-4 and 16/17
    vals += [1e-5, 9.99999e-5, 1e-4, 1.5e-4, 0.00012345, 12345678901234567.0,
             99999999999999999.0, 1e16, 1e17, 9.9999999999999998e16]
    # three-digit exponents
    vals += [1.5e100, -2.5e-100, 1e-280, 1e280, 9.87654321e-199]
    return np.array(vals)


def test_format_rows_matches_g17_on_a_deterministic_panel():
    from coopnet._g17 import format_rows

    panel = _g17_panel()
    for n_cols in (1, 7, 13):
        rows = _as_rows(panel, n_cols)
        assert format_rows(rows) == _g17_oracle(rows)


def _is_tie(value):
    """Whether the exact decimal expansion of ``value`` ends in a 5 at its
    18th significant digit: a tie for 17-digit rounding."""
    from decimal import Decimal

    digits = "".join(map(str, Decimal(abs(value)).as_tuple().digits))
    digits = digits.strip("0")
    return len(digits) == 18 and digits[-1] == "5"


def test_format_rows_certifies_all_but_ties():
    """Only values the scaling cannot certify leave the fast path: of the
    finite values in its range, exactly the ties."""
    from coopnet._g17 import RowFormatter

    def _digits(x):
        return RowFormatter(1, x.size)._digits(x)

    rng = np.random.default_rng(5)
    x = np.concatenate([
        rng.standard_normal(20000) * 10.0 ** rng.integers(-270, 270, 20000),
        np.geomspace(1e-280, 1e280, 20000), [0.0, -0.0, 2.0 ** -25]])
    ties = np.array([_is_tie(v) for v in x])
    assert 0 < ties.sum() < 100
    assert np.array_equal(_digits(x)[2], ~ties)
    outside = [np.nan, np.inf, -np.inf, 5e-324, 1e-300, 1e300]
    assert not _digits(np.array(outside))[2].any()


def test_write_csv_mixes_fast_and_fallback_rows(tmp_path):
    """Rows with a value the fast path cannot certify sit between certified
    ones, in full blocks, across block edges and in a partial block."""
    from types import SimpleNamespace

    from coopnet.cli import CSV_BLOCK_ROWS

    n_rows = 2 * CSV_BLOCK_ROWS + 5
    rng = np.random.default_rng(11)
    sig = {1: rng.standard_normal((1, n_rows))}
    odd = [np.nan, np.inf, -np.inf, 2.0 ** -25, 5e-324, 1e300]
    for row, value in zip((0, 1, 7, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                           n_rows - 1), odd):
        sig[1][0, row] = value
    res = SimpleNamespace(t=np.linspace(0.0, 1.0, n_rows), y=sig, v=sig,
                          refs=sig, errors=sig, regulated=sig)
    path = write_csv(tmp_path / "x.csv", res)
    rows = np.column_stack([res.t] + [sig[1][0]] * 4)
    with open(path, "rb") as fh:
        assert fh.readline() == b"t,y1_1,v1_1,ref1_1,err1_1\n"
        assert fh.read() == _g17_oracle(rows)


@given(st.lists(st.floats(width=64), min_size=1, max_size=64),
       st.integers(min_value=1, max_value=9))
@settings(max_examples=300, deadline=None)
def test_format_rows_matches_g17_on_any_doubles(values, n_cols):
    from coopnet._g17 import format_rows

    rows = _as_rows(values, n_cols)
    assert format_rows(rows) == _g17_oracle(rows)


def _layout_panel():
    """Values for every case of the %g layout: each output length from 1
    to 24 characters, the point after each of digits 1 to 16 and a 17-digit
    integer without one, the lead "0." to "0.000", two- and three-digit
    exponents of both signs, and +-0."""
    vals = [0.0, -0.0]
    for mant in (1.0, 1.5, 1.25, 1.2345678901234567, 1 / 3):
        vals += [s * mant * 10.0 ** e for s in (1, -1) for e in range(-7, 18)]
    vals += [s * m * 10.0 ** e for s in (1, -1) for m in (1.0, 1 / 3)
             for e in (-280, -200, -101, -100, -99, -10, 20, 99, 100, 280)]
    return vals


def test_layout_panel_covers_every_case():
    texts = ["%.17g" % v for v in _layout_panel()]
    assert {len(t) for t in texts} == set(range(1, 25))
    fixed = [t.lstrip("-") for t in texts if "e" not in t]
    assert {t.index(".") for t in fixed if "." in t} == set(range(1, 17))
    assert any(len(t) == 17 and "." not in t for t in fixed)
    leads = {t[:len(t) - len(t[2:].lstrip("0"))]
             for t in fixed if t.startswith("0.")}
    assert leads == {"0.", "0.0", "0.00", "0.000"}
    exps = {t[t.index("e"):][:2] + str(len(t) - t.index("e") - 2)
            for t in texts if "e" in t}
    assert exps == {"e+2", "e-2", "e+3", "e-3"}
    assert {"0", "-0"} <= set(texts)


def test_format_rows_layout_panel_in_every_column_and_block():
    """Every layout case in every column of a 13-column block, with a
    fallback row among them; split at every row, so the cases also meet
    block edges and blocks that hold only some of them, and one block per
    case holding only that case."""
    from coopnet._g17 import format_rows

    vals = np.array(_layout_panel())
    rows = np.array([np.roll(vals, -c) for c in range(13)]).T  # (n, 13)
    rows[len(vals) // 2, 5] = np.nan  # a row from the template
    want = _g17_oracle(rows)
    assert format_rows(rows) == want
    for k in range(1, len(rows)):
        assert format_rows(rows[:k]) + format_rows(rows[k:]) == want
    for v in vals:
        block = np.full((2, 13), v)
        assert format_rows(block) == _g17_oracle(block)
    assert format_rows(np.empty((0, 13))) == b""


# ---------------------------------------------------------------------------
# the scipy-free hot path, in fresh interpreters

PACKAGE_DIR = os.path.dirname(coopnet.__file__)


def _child_env():
    """The environment of a child interpreter that imports this coopnet."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(PACKAGE_DIR)] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# runs one command through coopnet.cli.main, then lists the scipy modules
# loaded by then; before and after the run, says whether ``fractions`` is
# loaded and, once the CSV formatter is, how many tables it has built
_MAIN_THEN_LIST_SCIPY = (
    "import sys\n"
    "from coopnet.cli import main\n"
    "def lazy():\n"
    "    g17 = sys.modules.get('coopnet._g17')\n"
    "    return ('fractions' in sys.modules,\n"
    "            g17 and g17._tables.cache_info().currsize)\n"
    "print('after import:', lazy())\n"
    "code = main(sys.argv[1:])\n"
    "print('after run:', lazy())\n"
    "print('scipy modules:', sorted(m for m in sys.modules\n"
    "                               if m.split('.')[0] == 'scipy'))\n"
    "sys.exit(code)\n")


# a sync network whose edges mostly have more states than inputs (shapes
# (3, 1), (1, 1), (3, 1), (1, 1), (2, 1), (3, 1)) and whose eps search
# crosses near 0.145, far below the CLI's ceiling of 1000
RANDOM_CFG = "random-sync-100.cfg"
_SIM_RANDOM = ["--eps", "0.07", "--t-end", "1", "--emit", "csv", "--out"]


@pytest.mark.parametrize("argv,exit_code", [
    (["demo"], 2),
    (["check", "--config", "power_network"], 0),
    (["synth", "--config", "power_network"], 0),
    (["eps", "--config", "power_network"], 0),
    (["simulate", "--config", "power_network", "--emit", "csv", "--out"], 0),
    (["synth", "--config", "tracking.cfg"], 0),
    (["check", "--config", RANDOM_CFG], 0),
    (["synth", "--config", RANDOM_CFG], 0),
    (["eps", "--config", RANDOM_CFG], 0),
    (["simulate", "--config", RANDOM_CFG] + _SIM_RANDOM, 0),
], ids=["demo", "check", "synth", "eps", "simulate", "synth-tracking",
        "check-random", "synth-random", "eps-random", "simulate-random"])
def test_cli_hot_path_loads_no_scipy(tmp_path, argv, exit_code):
    """The built-in network's commands run on numpy alone, also when they
    synthesize a node's gains (the tracking demo's ground node), and only
    a command that writes a CSV builds the formatter's tables.  So do
    those of a random network, whose edges need the balanced normal form
    and the Riccati solution, and whose eps search tracks the crossing."""
    argv, on_random = list(argv), RANDOM_CFG in argv
    if argv[-1] == "--out":
        argv.append(str(tmp_path))
    if "tracking.cfg" in argv:
        argv[argv.index("tracking.cfg")] = str(tmp_path / "tracking.cfg")
        (tmp_path / "tracking.cfg").write_text(
            format_config(tracking_ground_demo()))
    if on_random:
        argv[argv.index(RANDOM_CFG)] = str(tmp_path / RANDOM_CFG)
        (tmp_path / RANDOM_CFG).write_text(format_config(random_network(
            100, n_nodes=5, m_edges=6, dims=3, regime="sync")))
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_THEN_LIST_SCIPY] + argv,
        capture_output=True, text=True, env=_child_env(), timeout=300)
    assert proc.returncode == exit_code, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "scipy modules: []"
    assert lines[0] == "after import: (False, None)"
    writes_csv = argv[0] == "simulate"
    assert lines[-2] == f"after run: (False, {1 if writes_csv else None})"
    if argv[0] == "demo":
        assert proc.stdout.count("[pass] golden") == 5
    if argv[0] == "eps":
        assert "eps_crossing = " in proc.stdout
        assert ("nan" in proc.stdout) != on_random
    if writes_csv:
        name = "random-100" if on_random else "power_network"
        assert (tmp_path / f"{name}.csv").stat().st_size > 0


def test_benchmark_hooks_resolve(monkeypatch):
    """Every module attribute that perfbench wraps to time a layer exists:
    a refactor that drops one makes every traced benchmark run fail with
    AttributeError."""
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    import pipelines

    for module, attr, *_ in pipelines.CLI_CALLS:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr}"


def test_benchmark_calls_into_coopnet_resolve(monkeypatch):
    """perfbench's command lines parse, and its library pipeline runs on
    one network: a dropped option or keyword would fail every benchmark
    run."""
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    import gates
    import pipelines
    import spans

    from coopnet.cli import build_parser

    for make_argv in gates.CLI_ARGS.values():
        build_parser().parse_args(make_argv(7, "out"))
    case = pipelines.random_n5_cases(0)[0]
    ok, detail = pipelines.check_network(
        case, pipelines.network_pipeline(spans.OFF, case))
    assert ok, detail


def test_traced_benchmark_pass_counts_the_certified_edges(monkeypatch):
    """A traced pass of perfbench's pipeline, with its layer wrapping on,
    still runs; the ``synthesis.check_assumptions`` span counts the
    network's edges from the second item of what check_assumptions
    returns."""
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    import pipelines
    import spans

    case = pipelines.random_n5_cases(0)[1]
    rec = spans.Recorder()
    with pipelines.traced_calls(rec):
        out = pipelines.network_pipeline(rec, case)
    ok, detail = pipelines.check_network(case, out)
    assert ok, detail
    totals = spans.layer_totals(rec.spans)
    checks = totals["synthesis.check_assumptions"]
    assert checks["calls"] == 1 and checks["failed"] == 0
    assert checks["counts"] == {"edges": len(out["network"].edges)} == \
        {"edges": 6}


def test_demo_prediction_loads_no_scipy():
    """Realizing the demo, integrating it and predicting its limits on the
    stored grid run on numpy alone."""
    script = (
        "import sys\n"
        "from coopnet import demo_power_network, realize, initial_state\n"
        "from coopnet.sim import integrate, steady_state_prediction\n"
        "scn = demo_power_network()\n"
        "rz = realize(scn)\n"
        "x0 = initial_state(rz.cl, nu0=scn.nu0, eta0=scn.eta0)\n"
        "res = integrate(rz.cl, x0, t_end=0.01, dt=scn.dt)\n"
        "pred = steady_state_prediction(rz.cset, res.t, nu0=scn.nu0,\n"
        "                               eta0=scn.eta0)\n"
        "print(len(pred.per_node), res.t.size, sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "3 10001 []"


def test_formatter_tables_are_built_on_first_use():
    """Importing the CSV formatter builds none of its tables."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, coopnet._g17 as g; "
         "print('fractions' in sys.modules, "
         "g._tables.cache_info().currsize)"],
        capture_output=True, text=True, env=_child_env(), timeout=300)
    assert proc.stdout.split() == ["False", "0"], proc.stderr


# integrates a 200,001-sample run of three cooperation nodes (13 CSV
# columns; each node's output, neighboring input and reference are the
# sine, the cosine and a mix of one oscillator) without freeing a large
# array, so glibc's mmap and trim thresholds keep their defaults, then
# prints the minor page faults of writing it as CSV, which forms the
# outputs and the errors of the run
_CSV_FAULTS = (
    "import resource, sys\n"
    "from types import SimpleNamespace\n"
    "import numpy as np\n"
    "from coopnet.cli import write_csv\n"
    "from coopnet.sim import integrate\n"
    "a = np.zeros((6, 6))\n"
    "a[[0, 2, 4], [1, 3, 5]] = [-100.0, -200.0, -300.0]\n"
    "a[[1, 3, 5], [0, 2, 4]] = [100.0, 200.0, 300.0]\n"
    "cos, sin = np.eye(6)[0::2], np.eye(6)[1::2]\n"
    "cl = SimpleNamespace(\n"
    "    A_full=a, A_error=a, n_states=6, eps=1.0, regime='cooperation',\n"
    "    node_ids=(1, 2, 3), p=1, err_kind=dict.fromkeys((1, 2, 3), 'input'),\n"
    "    y_map=sin, v_map=cos, ref_map=sin + 0.5 * cos)\n"
    "res = integrate(cl, np.tile([1.0, 0.0], 3), t_end=1.0, dt=1e-6)\n"
    "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
    "write_csv(sys.argv[1], res)\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the minor page faults of Linux")
def test_write_csv_faults_its_buffers_in_once(tmp_path):
    """In a fresh interpreter whose heap thresholds are at their defaults,
    writing a 200,001 x 13 table faults in its block buffers once, not once
    a block (about 120,000 faults when each block allocates its arrays),
    also when it forms outputs and errors the run has not formed."""
    path = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-c", _CSV_FAULTS, str(path)], capture_output=True,
        text=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5000
    with open(path, "rb") as fh:
        assert sum(1 for _ in fh) == 200_002


def _module_level_imports(tree):
    """The import statements a module runs when it is imported: all of them
    outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_module_level():
    """scipy is never imported on import of the package."""
    offenders = []
    for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in _module_level_imports(tree):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else [node.module or ""])
            if any(n.split(".")[0] == "scipy" for n in names):
                offenders.append(f"{os.path.basename(path)}:{node.lineno}")
    assert not offenders, f"module-level scipy imports: {offenders}"


@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
def test_cli_eps_into_a_closed_pipe_exits_quietly(unbuffered):
    """``coopnet eps ... | head`` whose reader is gone: the write fails in
    the print loop (unbuffered stdout) or in the final flush (buffered);
    either way the command exits without a traceback."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "coopnet.cli", "eps", "--config",
         "power_network"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes away before the first line
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == EXIT_BROKEN_PIPE
    assert err == ""


def _eps_lines(capsys):
    assert main(["eps", "--config", "power_network"]) == 0
    return {line.split("=")[0].strip(): line
            for line in capsys.readouterr().out.splitlines()
            if line.lstrip().startswith("eps_")}


def test_cli_eps_says_when_nothing_crosses_below_the_ceiling(capsys):
    """The demo's ceiling probe 1000 is stable, so 1000 is the ceiling, not
    a boundary; only that probe is decomposed, and no crossing is shown."""
    lines = _eps_lines(capsys)
    line = lines["eps_bisect"]
    assert "eps_bisect   = 1000  (no crossing found up to the ceiling: " \
           "the ceiling is stable, 1 probe decomposed;" in line
    assert "bisection" not in line
    assert lines["eps_crossing"] == \
        "  eps_crossing = nan  (no crossing below the ceiling)"
