"""chaineff benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload subset-dp --seed 1 --seconds 32 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
bench/README.md for the workloads, the metrics and reference figures.

This process only orchestrates: the work runs in a fresh child
interpreter with one compute thread, and set-up is also timed in a few
extra children that stop at the first timed call, so that ``setup_s``
is a median rather than one sample of interpreter start and imports.
Untraced times are scaled by the machine's measured speed (speed.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import random
import time

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170

def _metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# span name -> per-layer self-time metric
_SELF_METRIC = {
    "cli": "cli.self_s",
    "bounds": "bounds.s",
}

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


# ---------------------------------------------------------------------------
# parent


def _child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in _THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, role):
    """Run one child; returns (its result dict, monotonic time it was started)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench: {role} child failed with exit code {proc.returncode}")
    return json.loads(lines[-1]), started


def _setup_seconds(setup, started):
    """Spawn to first timed call, less sampling time, at the probe's speed."""
    return (setup["ready"] - started - setup["spent"]) * setup["scale"]


def parent(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "chaineff", "cli.py")):
        sys.stderr.write(f"bench: no chaineff sources under {SRC}\n")
        return 2
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe, started = _spawn(args, "setup")
            setups.append(_setup_seconds(probe["setup"], started))
    result, started = _spawn(args, "run")
    metrics = result.pop("metrics")
    if not args.trace:
        setups.append(_setup_seconds(metrics.pop("setup"), started))
        metrics["setup_s"] = statistics.median(setups)
    units = _metric_units("per_layer" if args.trace else "end_to_end")
    result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# child


def _run_op(cli, op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(op.argv)
    return rc, out.getvalue()


def _round(cli, ops, tracer=None, probe=None):
    """Run every op once; returns (seconds in cli.run per op, (start, end)
    per op, [(rc, stdout)]).  Time the probe spent sampling is left out."""
    times = []
    spans = []
    outputs = []
    for op in ops:
        spent = probe.spent if probe else 0.0
        t0 = time.monotonic()
        if tracer is None:
            res = _run_op(cli, op)
        else:
            res = tracer.call("cli", _run_op, cli, op)
        t1 = time.monotonic()
        times.append(t1 - t0 - (probe.spent - spent if probe else 0.0))
        spans.append((t0, t1))
        outputs.append(res)
    return times, spans, outputs


def _check_round(ops, outputs):
    """Indices of the ops whose output is wrong or missing."""
    failed = set()
    docs = []
    groups = {}
    for i, (op, (rc, text)) in enumerate(zip(ops, outputs)):
        doc = None
        if rc == 0:
            try:
                doc = json.loads(text)
                error = op.check(doc)
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {exc!r}"
        else:
            error = f"exit code {rc}"
        if error:
            failed.add(i)
            sys.stderr.write(f"bench: {op.name}: {error}\n")
        docs.append(doc)
        if op.group and doc is not None:
            groups.setdefault(op.group[0], []).append((i, doc.get(op.group[1])))
    for key, members in groups.items():
        if len({value for _, value in members}) > 1:
            sys.stderr.write(f"bench: methods disagree on {key}: {members}\n")
            failed.update(i for i, _ in members)
    return failed, docs


def child(args) -> int:
    """Set up (imports, seeded inputs written to files) and, for ``run``, measure."""
    probe = speed.SpeedProbe()
    probe.start()
    import checks
    import scipy.sparse  # noqa: F401  the transfer kernel's lazy import, paid in set-up
    import workloads
    from chaineff import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: chaineff imported from {cli.__file__}, not {SRC}")

    run_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](random.Random(args.seed), run_dir)
        ready = time.monotonic()
        setup = {"ready": ready, "spent": probe.spent, "scale": probe.scale(0.0, ready)}
        if args.role == "setup" or args.trace:
            probe.stop()
        if args.role == "setup":
            print(json.dumps({"setup": setup}))
            return 0
        return _measure(args, cli, checks, ops, setup, None if args.trace else probe)
    finally:
        probe.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, cli, checks, ops, setup, probe):
    """Timed rounds, then checks; prints the run's result line."""
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    walls, spans, traced, rounds = [], [], [], []
    per_round = []  # traced rounds: (self times, counters)
    start = time.monotonic()
    # whole rounds only; stop before a round that would end past --seconds
    min_rounds = 1 if tracer is None else 2
    longest = 0.0
    while len(rounds) < min_rounds or time.monotonic() - start + longest <= args.seconds:
        began = time.monotonic()
        use_trace = tracer is not None and len(rounds) % 2 == 1
        if use_trace:
            first = len(tracer.spans)
            before = dict(tracer.counts)
            tracer.install()
            try:
                wall, _spans, outputs = _round(cli, ops, tracer)
            finally:
                tracer.uninstall()
            counts = {k: v - before.get(k, 0.0) for k, v in tracer.counts.items()}
            selfs = tracer.self_times(first)
            selfs["semiring.cost"] = counts.get("semiring.cost_s", 0.0)
            per_round.append((selfs, counts))
            traced.append(wall)
        else:
            wall, op_spans, outputs = _round(cli, ops, probe=probe)
            walls.append(wall)
            spans.append(op_spans)
        rounds.append(outputs)
        longest = max(longest, time.monotonic() - began)
    if probe:
        time.sleep(speed.WINDOW_S)  # the samples just after the last op
        probe.stop()
        raw = _wall(walls)
        walls = [[t * probe.scale(*s) for t, s in zip(w, sp)] for w, sp in zip(walls, spans)]
        sys.stderr.write(f"bench: timed phase {raw:.4f} s as measured, "
                         f"{_wall(walls):.4f} s at the probe's reference speed\n")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = 0
    peak_entries = 0
    dp_updates = 0
    for outputs in rounds:
        bad, docs = _check_round(ops, outputs)
        failed += len(bad)
        updates = 0
        for op, doc in zip(ops, docs):
            if op.solve and doc is not None:
                peak_entries = max(peak_entries, int(doc["stats"]["peakResidentEntries"]))
                updates += int(doc["stats"]["totalDpUpdates"])
        dp_updates = max(dp_updates, updates)
    problems = checks.self_test()
    for line in problems:
        sys.stderr.write(f"bench: check self-test failed: {line}\n")

    if tracer is None:
        metrics = {
            "setup": setup,
            "wall_s": _wall(walls),
            "peak_rss_mb": peak_rss_mb,
            "peak_entries": peak_entries,
            "dp_updates": dp_updates,
        }
    else:
        metrics = _layer_metrics(cli, ops, tracer, per_round, traced, walls)
        problems += _check_accounting(per_round, traced)
        _write_spans(args, tracer)
    attempted = len(ops) * len(rounds)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _wall(rounds):
    """Sum over ops of each op's fastest time across the rounds."""
    return sum(map(min, zip(*rounds)))


def _layer_metrics(cli, ops, tracer, per_round, traced, walls):
    names = _metric_units("per_layer")
    rows = []
    for selfs, counts in per_round:
        row = dict.fromkeys(names, 0.0)
        for name, secs in selfs.items():
            row[_SELF_METRIC.get(name, name + "_s")] = secs
        for name, value in counts.items():
            row[name] = value
        solver_s = sum(row[k] for k in ("solver.held_karp_s", "solver.tradeoff_s",
                                          "solver.gs_s", "semiring.cost_s"))
        row["solver.updates_per_s"] = row["solver.updates"] / solver_s if solver_s else 0.0
        rows.append(row)
    metrics = {k: statistics.median(r[k] for r in rows) for k in names}
    # one more round, each counting kernel in a forked child for its peak memory
    tracer.install(alloc=True)
    try:
        _round(cli, ops)
    finally:
        tracer.uninstall()
    for span, mb in tracer.alloc_peak_mb.items():
        metrics["poset.peak_alloc_mb." + span.split(".", 1)[1]] = mb
    # medians of whole-round times, like the per-layer figures above
    metrics["trace.wall_s"] = statistics.median(map(sum, traced))
    metrics["trace.untraced_wall_s"] = statistics.median(map(sum, walls))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics


def _check_accounting(per_round, traced):
    """The layers' self times of a traced round sum to that round's wall."""
    problems = []
    for (selfs, _counts), times in zip(per_round, traced):
        wall = sum(times)
        if abs(sum(selfs.values()) - wall) > 1e-3 * max(1.0, wall):
            problems.append(f"self times sum to {sum(selfs.values())}, round took {wall}")
    return problems


def _write_spans(args, tracer):
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, _child in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["subset-dp", "tradeoff-sweep", "poset-count"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--role", choices=["setup", "run"], help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.role is None:
        return parent(args)
    return child(args)


if __name__ == "__main__":
    sys.exit(main())
