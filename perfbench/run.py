"""Time-to-verdict benchmark for leviroots.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) on this process, one job at a time,
against the leviroots sources in ``src/`` of the checkout that holds this
file.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it also runs one traced pass and reports the per-layer
metrics (see README.md).  Outputs are checked on every pass.  A summary
goes to stderr, the full record (stamp, samples, output hashes, spans) to
``.perfbench_out/``, and the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracer import LAYER_NAMES, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CLI_WORKLOAD, CORPUS, SWEEPS, VERBS, WORKLOADS, setup,
)

# Fresh-interpreter set-up probes run before and after the measuring time,
# this many each, so their median spans the run.
SETUP_REPEATS = 3
PROBE_REPEATS = 5
CALL_TIMEOUT_S = 60
# Passes (sweeps) or corpus rounds (cli) of an untraced run; two at least,
# so every run compares repeated outputs byte for byte.
MIN_PASSES = 2

# Children import leviroots from the checkout's sources and nowhere else.
CHILD_ENV = {**os.environ, "PYTHONPATH": "src"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def run_child(args: list[str], timeout: float = CALL_TIMEOUT_S):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=CHILD_ENV,
        capture_output=True, timeout=timeout,
    )


def probe_seconds(*args: str) -> float:
    proc = run_child(["perfbench/probe.py", *args])
    if proc.returncode != 0:
        raise BenchError(f"probe {args} failed: {proc.stderr.decode()[-500:]}")
    return float(proc.stdout.split()[-1])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def stamp() -> dict:
    """Revision, interpreter and machine facts for one result."""
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    return {
        "git_revision": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(_git("status", "--porcelain")) if in_repo else None,
        "python": platform.python_version(),
        "executable": sys.executable,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
    }


def import_leviroots():
    """Import leviroots from the checkout, refusing any other copy."""
    if not (SRC / "leviroots" / "__init__.py").is_file():
        raise BenchError(f"no leviroots sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import leviroots

    origin = Path(leviroots.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"leviroots imported from {origin}, not from {SRC}")


def more(verdicts: list[float], start: float, seconds: float, minimum: int) -> bool:
    """Whether to run another pass: until the minimum count, then while a
    pass of median length still ends within the measuring time."""
    if len(verdicts) < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(verdicts) <= seconds


# ---------------------------------------------------------------------------
# exhaustive sweeps


@contextlib.contextmanager
def op_timer(latencies: list[float]):
    """Append the duration of every designation and node check to latencies.

    These are the sweep's operations; check_type reaches both through the
    checks module, so one timer per call at that boundary times them all.
    """
    from leviroots import checks

    originals = {name: getattr(checks, name) for name in ("check_designation", "check_node")}

    def timed(fn):
        def call(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                latencies.append(time.perf_counter() - t)
        return call

    for name, fn in originals.items():
        setattr(checks, name, timed(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(checks, name, fn)


def sweep_pass(systems, all_parabolics: bool, tracer: Tracer | None = None):
    """One sweep: check_type on every system, then the JSON verdict."""
    from leviroots import checks

    reports = []
    start = time.perf_counter()
    for rs in systems:
        if tracer is not None:
            tracer.op = str(rs.stype)
        reports.append(checks.check_type(rs, all_parabolics))
    if tracer is not None:
        tracer.op = "document"
    doc = checks.check_document(reports, all_parabolics)
    text = json.dumps(doc, indent=2)
    verdict_s = time.perf_counter() - start
    return verdict_s, doc, (text + "\n").encode()


def tally(doc: dict) -> dict:
    designations = [d for t in doc["types"] for d in t["designations"]]
    nodes = [n for t in doc["types"] for n in t["nodes"]]
    return {
        "ok": doc["ok"],
        "failure_count": doc["failure_count"],
        "types": len(doc["types"]),
        "designations": len(designations),
        "spaces": sum(d["counts"].get("troots", 0) for d in designations),
        "nodes": len(nodes),
        "failed_ops": sum(not r["ok"] for r in designations + nodes),
    }


def run_sweep(name: str, seconds: float, trace: bool) -> dict:
    sweep = SWEEPS[name]
    expected = {k: getattr(sweep, k) for k in ("types", "designations", "spaces", "nodes")}
    tracer = Tracer(op="setup") if trace else None
    with tracer or contextlib.nullcontext():
        systems = [rs for rs, _ in setup(name)]

    rec = {"passes": [], "latencies": [], "errors": [], "attempted": 0, "failed": 0}
    reference = None

    def record(verdict_s, doc, out, traced):
        nonlocal reference
        counts = tally(doc)
        digest = sha256(out)
        rec["passes"].append({"verdict_s": verdict_s, "traced": traced,
                              "sha256": digest, **counts})
        rec["attempted"] += counts["designations"] + counts["nodes"]
        failed = counts["failed_ops"]
        if not counts["ok"] or counts["failure_count"]:
            rec["errors"].append(f"pass {len(rec['passes'])}: {counts['failure_count']} failures")
        got = {k: counts[k] for k in expected}
        if got != expected:
            rec["errors"].append(f"totals {got} != {expected}")
        if reference is None:
            reference = out
        elif out != reference:
            rec["errors"].append(f"pass {len(rec['passes'])} JSON differs from pass 1")
            failed = counts["designations"] + counts["nodes"]
        rec["failed"] += failed

    verdicts = []
    start = time.perf_counter()
    while more(verdicts, start, seconds, 1 if trace else MIN_PASSES):
        with op_timer(rec["latencies"]):
            verdict_s, doc, out = sweep_pass(systems, sweep.all_parabolics)
        verdicts.append(verdict_s)
        record(verdict_s, doc, out, traced=False)
        del doc  # as in the CLI, one document is alive at a time
    rec["verdict_s"] = statistics.median(verdicts)
    rec["ops_per_pass"] = sweep.designations + sweep.nodes
    rec["designations_per_s"] = sweep.designations / rec["verdict_s"]
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        with tracer:
            traced = sweep_pass(systems, sweep.all_parabolics, tracer)
        record(*traced, traced=True)
        rec["traced_verdict_s"] = traced[0]
        rec["tracer"] = tracer
    return rec


# ---------------------------------------------------------------------------
# CLI corpus


def run_cli(seconds: float, trace: bool, seed: int) -> dict:
    rng = random.Random(seed)
    order = list(range(len(CORPUS)))
    reference: dict[int, bytes] = {}
    rec = {"rounds": [], "latencies": [], "by_verb": {v: [] for v in VERBS},
           "errors": [], "attempted": 0, "failed": 0}
    trace_file = OUT / f"cli-child-{os.getpid()}.json"
    child_layers = []

    def call(idx: int, traced: bool) -> float:
        args, expected = CORPUS[idx]
        cmd = (["perfbench/cli_child.py", str(trace_file)] if traced
               else ["-m", "leviroots.cli"]) + args.split()
        rec["attempted"] += 1
        t = time.perf_counter()
        try:
            proc = run_child(cmd)
        except subprocess.TimeoutExpired:
            rec["failed"] += 1
            rec["errors"].append(f"{args!r} timed out")
            return time.perf_counter() - t
        latency = time.perf_counter() - t
        ref = reference.setdefault(idx, proc.stdout)
        if proc.returncode != expected or proc.stdout != ref:
            rec["failed"] += 1
            rec["errors"].append(
                f"{args!r}: exit {proc.returncode} (expected {expected}), "
                f"stdout {'same' if proc.stdout == ref else 'differs'}")
        if traced:
            if not trace_file.is_file():
                raise BenchError(f"traced call {args!r} wrote no spans: "
                                 f"{proc.stderr.decode()[-500:]}")
            with open(trace_file, encoding="utf-8") as fh:
                child = json.load(fh)
            trace_file.unlink()
            child["op"] = args
            child_layers.append(child)
        else:
            rec["latencies"].append(latency)
            rec["by_verb"][args.split()[0]].append(latency)
        return latency

    def one_round(traced: bool) -> float:
        rng.shuffle(order)
        start = time.perf_counter()
        for idx in order:
            call(idx, traced)
        round_s = time.perf_counter() - start
        rec["rounds"].append({"round_s": round_s, "traced": traced})
        return round_s

    verdicts = []
    start = time.perf_counter()
    while more(verdicts, start, seconds, 1 if trace else MIN_PASSES):
        verdicts.append(one_round(traced=False))
    rec["verdict_s"] = statistics.median(verdicts)
    rec["ops_per_pass"] = len(CORPUS)
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if trace:
        rec["traced_verdict_s"] = one_round(traced=True)
        rec["children"] = child_layers
    rec["sha256"] = {CORPUS[idx][0]: sha256(out) for idx, out in sorted(reference.items())}
    return rec


# ---------------------------------------------------------------------------
# metrics


def end_to_end(rec: dict, setup_s: float) -> dict:
    ms = [x * 1000 for x in rec["latencies"]]
    return {
        "setup_s": (setup_s, "s"),
        "verdict_s": (rec["verdict_s"], "s"),
        "ops_per_s": (rec["ops_per_pass"] / rec["verdict_s"], "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (p90(ms), "ms"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MiB"),
    }


def _timed_child(args: list[str]) -> float:
    t = time.perf_counter()
    proc = run_child(args)
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        raise BenchError(f"{args} exited {proc.returncode}")
    return elapsed


def per_layer(rec: dict, cli: bool) -> tuple[dict, list[str], list]:
    """Per-layer metrics of the traced pass, the absent names and the spans."""
    if cli:
        totals = {layer: {"s": 0.0, "calls": 0} for layer in LAYER_NAMES}
        counts: dict[str, int] = {}
        absent: set[str] = set()
        spans = []
        for child in rec["children"]:
            for layer, t in child["layers"].items():
                totals[layer]["s"] += t["s"]
                totals[layer]["calls"] += t["calls"]
            for k, v in child["counts"].items():
                counts[k] = counts.get(k, 0) + v
            absent.update(child["absent"])
            spans.append({"op": child["op"], "spans": child["spans"]})
        absent_list = sorted(absent)
    else:
        tracer = rec["tracer"]
        totals, counts = tracer.layer_totals(), tracer.counts
        absent_list, spans = tracer.absent, tracer.spans
    metrics = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.s"] = (totals[layer]["s"], "s")
        metrics[f"{layer}.calls"] = (totals[layer]["calls"], "count")
    metrics["checks.designations"] = (totals["checks.check_designation"]["calls"], "count")
    metrics["checks.nodes"] = (totals["checks.check_node"]["calls"], "count")
    metrics["levi.spaces"] = (counts.get("levi.spaces", 0), "count")
    metrics["cli.python_start_ms"] = (statistics.median(
        _timed_child(["-c", "pass"]) for _ in range(PROBE_REPEATS)) * 1000, "ms")
    metrics["cli.import_ms"] = (statistics.median(
        probe_seconds("import") for _ in range(PROBE_REPEATS)) * 1000, "ms")
    for verb in VERBS:
        samples = rec.get("by_verb", {}).get(verb)
        metrics[f"cli.{verb}.p50_ms"] = (
            statistics.median(samples) * 1000 if samples else 0.0, "ms")
    metrics["trace.overhead"] = (rec["traced_verdict_s"] / rec["verdict_s"], "ratio")
    return metrics, absent_list, spans


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    try:
        import_leviroots()
        info = stamp()
        OUT.mkdir(exist_ok=True)
        setup_samples = [probe_seconds("setup", args.workload) for _ in range(SETUP_REPEATS)]
        cli = args.workload == CLI_WORKLOAD
        rec = (run_cli(args.seconds, trace, args.seed) if cli
               else run_sweep(args.workload, args.seconds, trace))
        setup_samples += [probe_seconds("setup", args.workload) for _ in range(SETUP_REPEATS)]
        if trace:
            metrics, absent, spans = per_layer(rec, cli)
        else:
            metrics, absent, spans = end_to_end(rec, statistics.median(setup_samples)), [], []
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info["loadavg_after"] = list(os.getloadavg())

    errors = rec["errors"]
    result = {
        "correct": not errors,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {k: v for k, v in rec.items() if k not in ("tracer", "children")}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": info, "setup_samples_s": setup_samples,
              "result": result, "detail": detail, "absent": absent, "spans": spans}
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record), encoding="utf-8")

    print(json.dumps({"stamp": info}), file=sys.stderr)
    for err in errors[:20]:
        print(f"FAIL {err}", file=sys.stderr)
    if absent:
        print(f"absent: {', '.join(absent)}", file=sys.stderr)
    samples = len(rec["latencies"])
    passes = len(rec.get("passes", rec.get("rounds", [])))
    print(f"{args.workload}: {passes} passes or corpus rounds, {samples} operation samples, "
          f"error_rate {rec['failed'] / rec['attempted']:.4g}, record {out_file.name}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
