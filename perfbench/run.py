#!/usr/bin/env python3
"""addix benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  With one workload, the process imports addix
from ``src``, builds the workload's fields, then sends requests one after
another until --seconds have passed, always finishing the schedule cycle it
is in (see workloads.py).  Each answer is checked outside the timed region;
for seed 0 the first answers are also compared with reference.json.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json; with --trace 1 the addix layers are traced from
outside (tracing.py) and the metrics are its per-layer metrics, and the
spans are written to .perfbench_out/.  ``--workload all`` runs every
workload untraced and then traced, each in a fresh process, prints one
table with the tracing overhead and saves both results of every workload
to .perfbench_out/all-<seed>.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import workloads  # noqa: E402

# A fixed count: peak RSS grows with the number of set-ups, so a count that
# depended on time would make peak_rss_mb depend on the machine's speed.
SETUP_REPEATS = 3
MICRO_PAIRS = 4000
MICRO_REPEATS = 5
CHARSUM_TOLERANCE = 1e-6


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def metric_names() -> tuple[list[str], list[str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]], units)


# ---------------------------------------------------------------------------
# Set-up


def _import_addix():
    for name in [n for n in sys.modules if n == "addix" or n.startswith("addix.")]:
        del sys.modules[name]
    addix = importlib.import_module("addix")
    importlib.import_module("addix.verify")
    return addix


def _build(workload: str):
    addix = _import_addix()
    t1 = perf_counter()
    fields = {}
    for spec in workloads.fields_of(workload):
        field = addix.parse_field_spec(spec)
        field.elements()
        field.dlog(field.primitive)
        fields[spec] = field
    return addix, fields, perf_counter() - t1


def setup(workload: str):
    """Import addix and build the workload's fields with warm exp/log tables
    and element caches, SETUP_REPEATS times; the last set is kept.  Returns
    (addix, fields, median set-up seconds at the reference speed, median
    field-building wall seconds)."""
    if not (SRC / "addix" / "__init__.py").is_file():
        fail(f"no addix sources under {SRC}; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    totals, field_times = [], []
    with speed.Meter() as meter:
        for _ in range(SETUP_REPEATS):
            addix = fields = None  # the previous set must not add to peak RSS
            gc.collect()
            addix, fields, field_time = meter.run(lambda: _build(workload))
            totals.append(meter.normalised)
            field_times.append(field_time)
    return addix, fields, statistics.median(totals), statistics.median(field_times)


def field_micro(fields: dict, seed: int) -> dict[str, float]:
    """Nanoseconds per element add, mul and dlog, averaged over the fields;
    each is the median of MICRO_REPEATS timed passes over MICRO_PAIRS pairs."""
    rng = random.Random(f"micro:{seed}")
    per_op = {"add": [], "mul": [], "dlog": []}
    for field in fields.values():
        els = field.elements()
        pairs = [(els[rng.randrange(field.q)], els[rng.randrange(1, field.q)])
                 for _ in range(MICRO_PAIRS)]
        nonzero = [b for _, b in pairs]
        dlog = field.dlog
        runs = {"add": [], "mul": [], "dlog": []}
        for _ in range(MICRO_REPEATS):
            t0 = perf_counter()
            for a, b in pairs:
                a + b
            t1 = perf_counter()
            for a, b in pairs:
                a * b
            t2 = perf_counter()
            for b in nonzero:
                dlog(b)
            t3 = perf_counter()
            runs["add"].append(t1 - t0)
            runs["mul"].append(t2 - t1)
            runs["dlog"].append(t3 - t2)
        for op, times in runs.items():
            per_op[op].append(statistics.median(times) / MICRO_PAIRS * 1e9)
    return {f"field.{op}_ns": statistics.fmean(v) for op, v in per_op.items()}


def peak_rss_mb() -> float:
    """Peak resident set of this process.  VmHWM, unlike ru_maxrss, does not
    carry over the peak of the parent that forked this process."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Reference answers


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= CHARSUM_TOLERANCE
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def load_reference(workload: str) -> list:
    path = HERE / "reference.json"
    if not path.is_file():
        fail(f"missing {path.name}")
    return json.loads(path.read_text())[workload]


# ---------------------------------------------------------------------------
# The closed loop


def run_loop(addix, fields, workload, seed, seconds, tracer=None, reference=None):
    """Send requests until `seconds` of wall time have passed and the
    schedule cycle is complete.  Returns per-request latencies at the
    reference speed (speed.py), failure reasons, answer digests, input
    properties and per-request wall latencies."""
    stream = workloads.requests(addix, fields, workload, seed)
    cycle = workloads.cycle_length(workload)
    latencies, failures, digests, props, walls = [], [], [], [], []
    start = perf_counter()
    meter = speed.Meter()
    for req in stream:
        def body():
            if tracer is not None:
                tracer.begin(req.index)
            try:
                return workloads.execute(addix, fields, req)
            finally:
                if tracer is not None:
                    tracer.end()
        try:
            with meter:
                result = meter.run(body)
            error = None
        except Exception as exc:  # a raising request is a failed request
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        walls.append(meter.wall)
        latencies.append(meter.normalised)
        if error is None:
            error = workloads.check(addix, fields, req, result)
        if error is None:
            answer = workloads.answer(req, result)
            props.append(workloads.properties(req, result, fields))
            if reference is not None and req.index < len(reference):
                if not _same(answer, reference[req.index]):
                    error = "answer differs from reference.json"
            # digests keep memory flat however many requests a run makes
            digests.append(hashlib.sha256(
                json.dumps(answer, sort_keys=True).encode()).hexdigest())
        else:
            digests.append(None)
        if error is not None:
            failures.append(f"request {req.index} ({req.kind} over {req.field}): {error}")
        if (req.index + 1) % cycle == 0 and perf_counter() - start >= seconds:
            break
    return latencies, failures, digests, props, walls


def timing_metrics(latencies: list[float]) -> dict[str, float]:
    """Throughput over the whole run and latency percentiles, from latencies
    in seconds."""
    return {"ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3}


def input_summary(workload, seed, props, latencies) -> dict:
    qs = [p["q"] for p in props if "q" in p]
    degrees = [p["degree"] for p in props if "degree" in p]
    out = {"workload": workload, "seed": seed, "requests": len(latencies),
           "q_mix": {str(q): qs.count(q) for q in sorted(set(qs))},
           "degree_range": [min(degrees), max(degrees)] if degrees else None}
    for key, name in (("nontrivial_kernel", "decompose.nontrivial_kernel_share"),
                      ("witness_scan", "analysis.witness_scan_share")):
        flags = [p[key] for p in props if key in p]
        out[name] = sum(flags) / len(flags) if flags else 0.0
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    e2e_names, layer_names, units = metric_names()
    addix, fields, setup_s, field_setup_s = setup(workload)
    reference = load_reference(workload) if seed == 0 else None
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    latencies, failures, _, props, walls = run_loop(addix, fields, workload, seed,
                                                    seconds, tracer, reference)
    summary = input_summary(workload, seed, props, latencies)
    timings = timing_metrics(latencies)
    ops_per_s = timings["ops_per_s"]
    if trace:
        values = tracer.metrics(len(latencies))
        values.update(field_micro(fields, seed))
        values["field.setup_s"] = field_setup_s
        values["decompose.nontrivial_kernel_share"] = summary["decompose.nontrivial_kernel_share"]
        values["analysis.witness_scan_share"] = summary["analysis.witness_scan_share"]
        values["trace.ops_per_s"] = ops_per_s
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{workload}-{seed}.jsonl")
        names = layer_names
    else:
        values = {"setup_s": setup_s, **timings, "peak_rss_mb": peak_rss_mb()}
        names = e2e_names
    for line in failures:
        print(f"# FAIL {line}")
    print("# inputs " + json.dumps(summary, sort_keys=True))
    wall = timing_metrics(walls)
    print("# wall-clock, not speed-normalised: " + " ".join(
        f"{name} {value:.6g}" for name, value in wall.items())
        + f"; normalised / wall time {sum(latencies) / sum(walls):.4g}")
    print(f"# fail_ratio {len(failures) / len(latencies):.6g} "
          f"({len(failures)} of {len(latencies)} requests)")
    return {"correct": not failures, "attempted": len(latencies), "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in names}}


# ---------------------------------------------------------------------------
# All workloads, each in its own process


def run_all(seed: int, seconds: float) -> int:
    e2e_names, _, _ = metric_names()
    rows, status, saved = [], 0, {}
    for workload in workloads.WORKLOADS:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if line.startswith("# ")))
            results.append(json.loads(lines[-1]))
        plain, traced = results
        saved[workload] = {"untraced": plain, "traced": traced}
        m = {k: v["value"] for k, v in plain["metrics"].items()}
        traced_ops = traced["metrics"]["trace.ops_per_s"]["value"]
        m["fail_ratio"] = plain["failed"] / plain["attempted"]
        m["trace_overhead"] = 1 - traced_ops / m["ops_per_s"]
        rows.append((workload, plain["attempted"], m))
        status |= not (plain["correct"] and traced["correct"])
    cols = e2e_names + ["fail_ratio", "trace_overhead"]
    print(f"{'workload':<12}{'requests':>9}" + "".join(f"{c:>16}" for c in cols))
    for workload, n, m in rows:
        print(f"{workload:<12}{n:>9}" + "".join(f"{m[c]:>16.4g}" for c in cols))
    OUT.mkdir(exist_ok=True)
    (OUT / f"all-{seed}.json").write_text(json.dumps(saved, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found at the repository root")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
