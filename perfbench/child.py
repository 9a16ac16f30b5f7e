"""Child process of the benchmark; run.py starts it, one at a time.

    child.py cli WORKLOAD --seed N --out RESULT.json --work DIR
        One traced CLI operation: the import of coopnet.cli, then the
        command itself through coopnet.cli.main, with each layer it calls
        recorded as a span.
    child.py library WORKLOAD --seed N --seconds S --trace 0|1 --out RESULT.json
        Passes over the workload's networks until S seconds have passed;
        with --trace 1, every second pass is traced.

The result is written as JSON to RESULT.json.
"""

import argparse
import contextlib
import io
import json
import time
import traceback

import gates
from spans import OFF, Recorder, layer_totals, top_level_time


def _trace_fields(rec):
    return {"layers": layer_totals(rec.spans),
            "top_level_s": top_level_time(rec.spans),
            "spans": [s.as_dict() for s in rec.spans]}


def traced_cli_op(args):
    """Returns the command's exit code and standard output, for the same
    gate as the untraced command."""
    rec = Recorder()
    result = {"exit_code": None}
    stdout = io.StringIO()
    try:
        with rec.span("import.coopnet_cli"):
            from coopnet import cli
        import pipelines
        argv = gates.CLI_ARGS[args.workload](args.seed, args.work)
        with pipelines.traced_calls(rec, pipelines.CLI_CALLS), \
                contextlib.redirect_stdout(stdout):
            result["exit_code"] = cli.main(argv)
    except Exception:
        result["error"] = traceback.format_exc()
    result["stdout"] = stdout.getvalue()
    result.update(_trace_fields(rec))
    return result


def run_pass(pipelines, rec, cases):
    """One pass over the cases.  Only the pipelines are timed; each gate
    runs after its network, outside the timed part and outside any span."""
    wall, networks = 0.0, []
    with pipelines.traced_calls(rec):
        for case in cases:
            entry = {"network": case.label, "synth_seed": case.synth_seed}
            t0 = time.perf_counter()
            try:
                out = pipelines.network_pipeline(rec, case)
            except Exception:
                wall += time.perf_counter() - t0
                entry.update(ok=False, error=traceback.format_exc())
                networks.append(entry)
                continue
            entry["s"] = time.perf_counter() - t0
            wall += entry["s"]
            ok, detail = pipelines.check_network(case, out)
            entry.update(detail, ok=bool(ok))
            networks.append(entry)
    return {"wall_s": wall, "networks": networks}


def run_library(args):
    t0 = time.perf_counter()
    import pipelines
    import_s = time.perf_counter() - t0
    cases = pipelines.LIBRARY_CASES[args.workload](args.seed)
    ops = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        rec = Recorder() if traced else OFF
        op = run_pass(pipelines, rec, cases)
        op["traced"] = traced
        if traced:
            op.update(_trace_fields(rec))
        ops.append(op)
        enough = len(ops) >= (2 if args.trace else 1)
        if enough and time.perf_counter() >= deadline:
            break
    return {"import_s": import_s, "ops": ops}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("cli", "library"))
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--work", default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = (traced_cli_op(args) if args.mode == "cli"
              else run_library(args))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=float)


if __name__ == "__main__":
    main()
