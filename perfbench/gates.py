"""The CLI workloads' command lines and correctness gates.

Pure Python, so the parent process can check a CLI run's outputs without
importing numpy or coopnet.  A run that fails its gate counts as a failed
operation in the workload's error rate.
"""

import os
import re

GOLDEN = os.path.join("src", "coopnet", "data", "demo_golden.csv")
CONFIG = os.path.join("src", "coopnet", "data", "power_network.cfg")

#: `coopnet demo` exits 2 at this code: criterion 1 (trailing error at the
#: pinned 1 s horizon above 1e-2) fails by construction of the demo network.
DEMO_EXIT_CODE = 2
#: the pinned config runs 10^6 steps; the 2x10^5-sample storage cap makes the
#: integrator keep every 5th step, plus the initial state
EMIT_SAMPLES = 200_001
#: trailing window of the demo and simulate reports for a 1 s horizon, s
TRAILING_WINDOW = 0.1
EMIT_PLOTS = ("power_network_errors.svg", "power_network_errors_tail.svg",
              "power_network_signals_tail.svg")
TRAILING_NAMES = {"trailing_max_err_node1": "err1_1",
                  "trailing_max_err_node2": "err2_1"}

#: command-line arguments of each CLI workload, from its seed and output
#: directory
CLI_ARGS = {
    "demo": lambda seed, out: ["demo", "--seed", str(seed)],
    "demo_emit": lambda seed, out: [
        "simulate", "--config", CONFIG, "--out", out, "--emit", "csv+svg",
        "--seed", str(seed)],
}

_GOLDEN_LINE = re.compile(
    r"\[(pass|FAIL)\] golden (\w+): measured (\S+) vs pinned")


def read_golden(root):
    """Pinned demo values: name -> (value, tolerance)."""
    rows = {}
    with open(os.path.join(root, GOLDEN), encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            if line.strip():
                name, value, tol = line.strip().split(",")
                rows[name] = (float(value), float(tol))
    return rows


def compare_golden(measured, golden):
    """Golden name -> {measured, pinned, passed} for every pinned line."""
    out = {}
    for name, (value, tol) in sorted(golden.items()):
        have = measured.get(name)
        out[name] = {"measured": have, "pinned": value,
                     "passed": have is not None and abs(have - value) <= tol}
    return out


def demo_measured(stdout):
    """Measured values of the golden lines that `coopnet demo` prints."""
    return {m.group(2): float(m.group(3))
            for m in _GOLDEN_LINE.finditer(stdout)}


def check_demo(exit_code, measured, golden):
    """`coopnet demo`: the known exit code 2 and every golden line passing."""
    lines = compare_golden(measured, golden)
    ok = exit_code == DEMO_EXIT_CODE and all(
        v["passed"] for v in lines.values())
    return ok, {"exit_code": exit_code, "golden": lines}


def trailing_max_errors(csv_path, window=TRAILING_WINDOW):
    """Row count and trailing-window max |err| per column of the CSV."""
    with open(csv_path, "rb") as fh:
        lines = fh.read().split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    header = lines[0].decode().split(",")
    cols = {name: header.index(name) for name in TRAILING_NAMES.values()}
    t_last = float(lines[-1].split(b",", 1)[0])
    worst = dict.fromkeys(cols, 0.0)
    for line in reversed(lines[1:]):
        fields = line.split(b",")
        if float(fields[0]) < t_last - window:
            break
        for name, k in cols.items():
            worst[name] = max(worst[name], abs(float(fields[k])))
    return len(lines) - 1, worst


def check_emit(exit_code, out_dir, golden):
    """`coopnet simulate ... --emit csv+svg`: exit code 0, one CSV row per
    stored sample, trailing errors matching the golden values, three plots."""
    detail = {"exit_code": exit_code}
    csv_path = os.path.join(out_dir, "power_network.csv")
    if exit_code != 0 or not os.path.isfile(csv_path):
        return False, detail
    rows, worst = trailing_max_errors(csv_path)
    measured = {name: worst[col] for name, col in TRAILING_NAMES.items()}
    lines = compare_golden(measured, golden)
    lines = {k: v for k, v in lines.items() if k in TRAILING_NAMES}
    plots = [os.path.join(out_dir, name) for name in EMIT_PLOTS]
    plots_ok = all(os.path.isfile(p) and os.path.getsize(p) > 0
                   for p in plots)
    detail.update(rows=rows, csv_bytes=os.path.getsize(csv_path),
                  golden=lines, plots_written=plots_ok)
    ok = (rows == EMIT_SAMPLES and plots_ok and
          all(v["passed"] for v in lines.values()))
    return ok, detail
