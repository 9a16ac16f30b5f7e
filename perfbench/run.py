"""Benchmark of the coopnet pipeline: wall time, set-up time, peak memory and
failures per workload, with a traced run for the per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload demo --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.

Each workload runs in child processes started one at a time from this
process, with the BLAS thread count pinned.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the metrics are the ``end_to_end`` list of BENCHMARK.json with
``--trace 0`` and its ``per_layer`` list with ``--trace 1``.  The full
record, with every sample, the environment and the spans, is written to
perfbench/results/.  See perfbench/README.md.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import gates

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "results")

#: BLAS/OpenMP threads of every child process
BLAS_THREADS = "1"
#: fresh interpreters timed per set-up measurement, after one warm-up
SETUP_SAMPLES = 5
#: `python -X importtime` runs per traced run
IMPORTTIME_SAMPLES = 3
#: a child that runs longer than this many seconds is killed
CHILD_TIMEOUT = 150.0

IMPORT_TIMER = ("import time; t0 = time.perf_counter(); import coopnet.cli; "
                "print(time.perf_counter() - t0)")

LIBRARY = ("random_n5", "ring30")

#: Steadiness of each workload on the machine the bounds were set on; the
#: record carries it.  See "Steadiness" in README.md.
HOST_SWING = ("the same operation ran up to +-25 % slower or faster on the "
              "shared 2-core host, in phases lasting minutes; CPU time "
              "swung with wall time, and a bare Python loop swung as much")
STEADINESS = {
    "demo": "wall_s spread 0.07-0.19, medians 2.04-2.47 s over four sets "
            "of ten seeded runs",
    "demo_emit": "wall_s spread 0.06-0.24, medians 5.14-6.10 s over four "
                 "sets of ten seeded runs",
    "random_n5": "wall_s spread 0.11-0.21, medians 4.06-5.80 s over four "
                 "sets of ten seeded runs",
    "ring30": "wall_s spread 0.14-0.20, medians 3.45-3.95 s over four sets "
              "of ten seeded runs",
}


class BenchmarkError(Exception):
    """The benchmark itself cannot run here (not a gate failure)."""


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    # imports read and write bytecode caches, as for an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def environment():
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "bytecode_cache": True,
        "platform": platform.platform(),
    }


def run_child(argv, timeout=CHILD_TIMEOUT):
    """Run one child to completion; returns wall seconds, exit code, peak
    RSS in MB, stdout and stderr.  The child is killed after ``timeout``."""
    out_path = os.path.join(WORK, "stdout.txt")
    err_path = os.path.join(WORK, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout, stderr


def python_child(code, flags=()):
    _, rc, _, stdout, stderr = run_child([sys.executable, *flags, "-c", code])
    if rc != 0:
        raise BenchmarkError(f"`python -c {code!r}` exited {rc}: {stderr}")
    return stdout, stderr


def setup_samples():
    """Seconds to import coopnet.cli in fresh interpreters (one warm-up
    run first, so bytecode caches exist as they do for a user)."""
    python_child(IMPORT_TIMER)
    return [float(python_child(IMPORT_TIMER)[0])
            for _ in range(SETUP_SAMPLES)]


def scipy_optimize_samples():
    """Cumulative import time of scipy.optimize under `-X importtime`."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        _, stderr = python_child("import coopnet.cli", ("-X", "importtime"))
        cumulative = 0.0
        for line in stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "scipy.optimize":
                cumulative = float(fields[1]) * 1e-6
        samples.append(cumulative)
    return samples


def fresh_path(name):
    """Path in the work directory, with any file left there removed."""
    path = os.path.join(WORK, name)
    if os.path.exists(path):
        os.remove(path)
    return path


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# operations


def cli_gate(name, exit_code, stdout, out_dir, golden):
    if name == "demo":
        return gates.check_demo(exit_code, gates.demo_measured(stdout),
                                golden)
    return gates.check_emit(exit_code, out_dir, golden)


def cli_op(name, seed, golden):
    """The real CLI command in a fresh interpreter, checked by its gate."""
    out_dir = os.path.join(WORK, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    wall, rc, rss, stdout, stderr = run_child(
        [sys.executable, "-m", "coopnet.cli",
         *gates.CLI_ARGS[name](seed, out_dir)])
    ok, detail = cli_gate(name, rc, stdout, out_dir, golden)
    if not ok:
        detail["stderr"] = stderr[-2000:]
    return {"traced": False, "wall_s": wall, "rss_mb": rss, "attempted": 1,
            "failed": int(not ok), "detail": detail}


def cli_traced_op(name, seed, golden):
    """The same command through coopnet.cli.main in a fresh interpreter,
    with each layer it calls in a span; the same gate as cli_op."""
    out_dir = os.path.join(WORK, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = fresh_path("result.json")
    wall, rc, rss, _, stderr = run_child(
        [sys.executable, os.path.join(HERE, "child.py"), "cli", name,
         "--seed", str(seed), "--out", result_path, "--work", out_dir])
    result = read_json(result_path) or {}
    ok, detail = cli_gate(name, result.get("exit_code"),
                          result.get("stdout", ""), out_dir, golden)
    ok = ok and rc == 0
    if not ok:
        detail["stderr"] = stderr[-2000:] + result.get("error", "")
    return {"traced": True, "wall_s": wall, "rss_mb": rss, "attempted": 1,
            "failed": int(not ok), "detail": detail,
            "layers": result.get("layers", {}),
            "top_level_s": result.get("top_level_s", 0.0),
            "spans": result.get("spans", [])}


def run_cli(name, seed, seconds, trace):
    golden = gates.read_golden(ROOT)
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = bool(trace) and len(ops) % 2 == 1
        op = (cli_traced_op if traced else cli_op)(name, seed, golden)
        ops.append(op)
        enough = len(ops) >= (2 if trace else 1)
        if enough and time.perf_counter() >= deadline:
            return ops, {}


def run_library(name, seed, seconds, trace):
    """All passes in one child; its peak RSS covers every pass."""
    result_path = fresh_path("result.json")
    _, rc, rss, _, stderr = run_child(
        [sys.executable, os.path.join(HERE, "child.py"), "library", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", result_path],
        timeout=seconds + CHILD_TIMEOUT)
    result = read_json(result_path)
    if rc != 0 or result is None:
        raise BenchmarkError(f"{name} child exited {rc}: {stderr[-2000:]}")
    ops = []
    for op in result["ops"]:
        failed = sum(not n["ok"] for n in op["networks"])
        ops.append(dict(op, rss_mb=rss, attempted=len(op["networks"]),
                        failed=failed))
    return ops, {"import_s": result["import_s"]}


# ---------------------------------------------------------------------------
# metrics


def layer_metric(layers, name):
    """Value of per-layer metric ``<layer>.<stat>`` for one traced op."""
    layer, stat = name.rsplit(".", 1)
    entry = layers.get(layer)
    if entry is None:
        return 0.0
    if stat == "s":
        return entry["s"]
    if stat == "failed":
        return entry["failed"]
    counts = entry["counts"]
    if stat == "steps_per_s":
        return counts.get("steps", 0) / entry["s"] if entry["s"] else 0.0
    if stat == "mb_per_s":
        return counts.get("bytes", 0) * 1e-6 / entry["s"] if entry["s"] \
            else 0.0
    return counts.get(stat, 0)


def end_to_end(ops, setup):
    untraced = [op["wall_s"] for op in ops if not op["traced"]]
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    return {
        "wall_s": statistics.median(untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(op["rss_mb"] for op in ops),
        "success_rate": 1.0 - failed / attempted,
    }


def per_layer(ops, names, scipy_optimize):
    traced = [op for op in ops if op["traced"]]
    untraced_wall = statistics.median(
        op["wall_s"] for op in ops if not op["traced"])
    traced_wall = statistics.median(op["wall_s"] for op in traced)
    values = {}
    for name in names:
        if name.startswith("trace.") or name == "import.scipy_optimize.s":
            continue
        values[name] = statistics.median(
            layer_metric(op["layers"], name) for op in traced)
    values["import.scipy_optimize.s"] = statistics.median(scipy_optimize)
    values["trace.coverage"] = statistics.median(
        op["top_level_s"] / op["wall_s"] for op in traced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_frac"] = (traced_wall - untraced_wall) / \
        untraced_wall
    return {name: values[name] for name in names}


# ---------------------------------------------------------------------------
# entry point


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(spec, name, seed, seconds, trace):
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(),
              "steadiness": {"steady": False, "workload": name,
                             "why": f"{STEADINESS[name]}; {HOST_SWING}"}}
    if trace:
        samples = scipy_optimize_samples()
        record["scipy_optimize_import_s"] = samples
    else:
        samples = setup_samples()
        record["setup_s_samples"] = samples
    runner = run_library if name in LIBRARY else run_cli
    ops, extra = runner(name, seed, seconds, trace)
    record.update(extra)
    metric_specs = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in metric_specs]
    values = (per_layer(ops, names, samples) if trace
              else end_to_end(ops, samples))
    units = {m["name"]: m["unit"] for m in metric_specs}
    record["metrics"] = {n: {"value": values[n], "unit": units[n]}
                         for n in names}
    record["wall_s_samples"] = {
        "untraced": [op["wall_s"] for op in ops if not op["traced"]],
        "traced": [op["wall_s"] for op in ops if op["traced"]]}
    record["ops"] = ops
    record["attempted"] = sum(op["attempted"] for op in ops)
    record["failed"] = sum(op["failed"] for op in ops)
    return record


def summary_lines(record):
    name = record["workload"]
    samples = record["wall_s_samples"]
    lines = [f"[{name}] seed {record['seed']}, trace {record['trace']}: "
             f"{len(samples['untraced'])} untraced and "
             f"{len(samples['traced'])} traced operations; "
             f"{record['failed']} of {record['attempted']} failed "
             f"(error rate {record['failed'] / record['attempted']:.3g})"]
    for metric, entry in record["metrics"].items():
        lines.append(f"  {metric:<40} {entry['value']:.6g} {entry['unit']}")
    last = record["ops"][-1]
    if name == "demo":
        golden = last["detail"].get("golden", {})
        passing = sum(v["passed"] for v in golden.values())
        errs = [golden.get(f"trailing_max_err_node{i}", {}).get("measured")
                for i in (1, 2)]
        lines.append(f"  exit code {last['detail'].get('exit_code')} "
                     f"(2 is the known criterion-1 failure), golden lines "
                     f"{passing}/{len(golden)} pass, trailing errors "
                     f"{errs[0]}, {errs[1]}")
    for net in last.get("networks", []):
        lines.append(
            f"  {net['network']}: n_states {net.get('n_states')}, eps* "
            f"{net.get('eps_star')}, steps {net.get('steps')}, "
            f"ok {net['ok']}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name from BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: 0, or both for all)")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "coopnet", "cli.py")):
        sys.exit("perfbench: no coopnet source under src/ at " + ROOT)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    known = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        runs = [(w, t) for w in known
                for t in ((0, 1) if args.trace is None else (args.trace,))]
    elif args.workload in known:
        runs = [(args.workload, args.trace or 0)]
    else:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")

    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    try:
        records = [run_workload(spec, w, args.seed, args.seconds, t)
                   for w, t in runs]
    except BenchmarkError as exc:
        sys.exit(f"perfbench: {exc}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if len(records) == 1:
        record = records[0]
        stem = f"{record['workload']}-seed{args.seed}-trace{record['trace']}"
        metrics = record["metrics"]
        saved = record
    else:
        stem = f"all-seed{args.seed}"
        metrics = {f"{r['workload']}.{m}": v for r in records
                   for m, v in r["metrics"].items()}
        saved = {"runs": records}
    path = os.path.join(RESULTS, stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(saved, fh, indent=1)
    for record in records:
        print("\n".join(summary_lines(record)))
    print(f"record: {os.path.relpath(path, ROOT)}")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
