import importlib.resources
import os

import numpy as np
import pytest

from coopnet.cli import main, write_csv
from coopnet.config import format_config, parse_config
from coopnet.errors import ParseError, ValidationError
from coopnet.scenarios import demo_power_network, random_network
from coopnet.network import is_static


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


def test_cli_demo_short_horizon_fails_threshold(capsys):
    code = main(["demo", "--t-end", "0.02"])
    out = capsys.readouterr().out
    assert code == 2
    assert "threshold_node1" in out and "FAIL" in out


def test_cli_demo_paper_horizon_passes(capsys):
    code = main(["demo", "--t-end", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "demo checks passed" in out


def test_cli_eps_reports_both_bounds(capsys):
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
    assert "eps_bisect" in out and "eps_analytic" in out
    assert "probe" in out


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
        errors=sig)
    path = write_csv(tmp_path / "x.csv", res)
    cols = [res.t] + [sig[i][k] for i in (1, 2) for _ in range(4)
                      for k in range(2)]
    expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                       for row in np.column_stack(cols))
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        assert fh.read() == expected
