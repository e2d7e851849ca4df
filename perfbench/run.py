"""girale benchmark: one workload, measured end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload amalgam-sweep --seed 1 --seconds 42 --trace 0

The run repeats whole passes over the workload's items until ``--seconds``
would be exceeded.  Each pass runs in a fresh child interpreter, one after
another, so girale's memo caches start cold the way they do for a CLI user.
The child generates the inputs from the seed (set-up), runs and times the
items, and checks every result with its oracle.  Times are scaled by a
speed probe timed between the items (speed.py), and each item's median over
the passes is reported (see README.md).  With ``--trace 1`` untraced and
traced passes alternate: the traced ones give per-layer times and counts,
and the two kinds together give the tracing overhead.  Every pass must
reproduce the first pass's results exactly.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when every
result is correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170

# one thread for BLAS/OpenMP, fixed before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def _import_girale():
    if not (SOURCE / "girale" / "__init__.py").is_file():
        sys.exit(f"error: no girale sources at {SOURCE}; run from a checkout of the repository")
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    import girale

    if Path(girale.__file__).resolve().parent != SOURCE / "girale":
        sys.exit(f"error: imported girale from {girale.__file__}, not from {SOURCE}")
    return girale


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# --- one pass, in the child -------------------------------------------------


def run_pass(girale, workload, recorder=None) -> tuple[dict, list, list]:
    """Time one pass over the workload's items; returns (record, items, results)."""
    from speed import ProbeLog
    from workloads import Result

    probes = ProbeLog()
    if recorder is not None:
        recorder.install(girale)
    try:
        probes.burst(0)
        start = time.perf_counter()
        items = workload.pass_items()
        prelude = time.perf_counter() - start
        probes.burst(1)
        durations, results = [], []
        for index, item in enumerate(items):
            if recorder is not None:
                recorder.item = index
            t0 = time.perf_counter()
            try:
                output, error = item.run(), None
            except Exception as exc:  # an item that raises is a failed item
                output, error = None, exc
            durations.append(time.perf_counter() - t0)
            probes.between(index + 2, durations[-1])
            if error is None:
                try:
                    results.append(workload.summarize(item, output))
                    continue
                except Exception as exc:  # a malformed output is a failed item
                    error = exc
            status = "capacity" if type(error).__name__ == "CapacityError" else "error"
            results.append(Result(status, f"{status}:{type(error).__name__}:{error}"))
        probes.burst(len(items) + 1)
    finally:
        if recorder is not None:
            recorder.uninstall()
    info = girale.construct.member_K.cache_info()
    record = {
        "traced": recorder is not None,
        "prelude_s": prelude,
        "durations": durations,
        "probes": probes.record(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "keys": [item.key for item in items],
        "lines": [r.line for r in results],
        "statuses": [r.status for r in results],
        "prelude_lines": [f"{k} {line}" for k, line, _ in workload.prelude],
        "member_K": (info.hits, info.misses),
    }
    return record, items, results


def check_pass(workload, items, results) -> list[str]:
    """Every result through its oracle, outside any timing; returns the problems."""
    problems = [f"{key}: {problem}" for key, _, problem in workload.prelude if problem]
    for item, result in zip(items, results):
        if result.status in ("error", "capacity"):
            problem = result.line
        else:
            try:
                problem = workload.check(item, result)
            except Exception as exc:  # the oracle could not accept the output
                problem = f"oracle raised {type(exc).__name__}: {exc}"
        if problem:
            problems.append(f"{item.key}: {problem}")
    return problems


def checked_pass(girale, workload, traced: bool):
    """One timed pass, then its oracles; traced passes add per-layer times."""
    from spans import Recorder, layer_times

    recorder = Recorder() if traced else None
    record, items, results = run_pass(girale, workload, recorder)
    record["problems"] = check_pass(workload, items, results)
    if recorder is not None:
        record["layers"] = layer_times(recorder.spans)
        record["counters"] = recorder.counters
    return record, recorder


def child(args) -> int:
    """One pass: set-up, timed items, oracles; prints the pass record as JSON."""
    girale = _import_girale()
    from spans import write_spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    record, recorder = checked_pass(girale, workload, bool(args.trace))
    record["ready"] = ready
    if recorder is not None:
        write_spans(Path(args.spans), recorder.spans, args.pass_index)
    print(json.dumps(record))
    return 0


# --- the run, in the parent -------------------------------------------------


def run_child(args, traced: bool, index: int, spans: Path) -> dict:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--pass-worker",
         "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced)),
         "--pass-index", str(index), "--spans", str(spans)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"pass {index} failed: {done.stderr.strip()[-2000:]}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - start
    record["wall_s"] = time.monotonic() - start
    return record


def run_passes(args, spans: Path) -> list[dict]:
    """Whole passes until the next one would end after ``--seconds``."""
    start = time.monotonic()
    walls: dict[bool, float] = {}
    kinds = [False, True] if args.trace else [False]
    passes: list[dict] = []
    while True:
        kind = kinds[len(passes) % len(kinds)]
        passes.append(run_child(args, kind, len(passes), spans))
        walls[kind] = passes[-1]["wall_s"]
        following = kinds[len(passes) % len(kinds)]
        predicted = walls.get(following, 2 * walls[kind])
        if len(passes) >= len(kinds) and time.monotonic() - start + predicted > args.seconds:
            return passes


def count_failures(passes: list[dict]) -> tuple[int, list[str]]:
    """Oracle problems of every pass, plus results that differ from the first pass."""
    problems = [p for record in passes for p in record["problems"]]
    first = passes[0]
    for record in passes[1:]:
        if record["prelude_lines"] != first["prelude_lines"]:
            problems.append("prelude results differ between passes")
        for key, a, b in zip(first["keys"], first["lines"], record["lines"]):
            if a != b:
                problems.append(f"{key}: pass result differs: {a!r} != {b!r}")
    return len(problems), problems


def digest_lines(record: dict) -> list[str]:
    """A pass's results, sorted by item key so the seed's item order drops out."""
    lines = list(record["prelude_lines"])
    return lines + sorted(f"{k} {line}" for k, line in zip(record["keys"], record["lines"]))


def typical_pass(passes: list[dict]) -> tuple[float, list[float], float]:
    """Set-up, item times and pass time of the passes, at the probe's reference speed.

    Every time in a pass is scaled by the speed probes taken around it (see
    speed.py), so that a stretch in which other tenants slow the host down
    slows the probe as much and drops out.  Set-up and prelude take the scale
    of the prelude, which follows the set-up directly.  Each item's time is
    then its median over the passes, and the pass time is the median prelude
    plus those item times.
    """
    from speed import scales

    setups, preludes, durations = [], [], []
    for p in passes:
        scale = scales(p["probes"], [p["prelude_s"]] + p["durations"])
        setups.append(p["setup_s"] * scale[0])
        preludes.append(p["prelude_s"] * scale[0])
        durations.append([d * k for d, k in zip(p["durations"], scale[1:])])
    items = [statistics.median(ds) for ds in zip(*durations)]
    return statistics.median(setups), items, statistics.median(preludes) + sum(items)


def end_to_end(passes: list[dict]) -> dict:
    from workloads import is_definite

    setup_s, items, pass_s = typical_pass(passes)
    durations = sorted(items)
    attempted = sum(len(p["statuses"]) for p in passes)
    decided = sum(1 for p in passes for s in p["statuses"] if is_definite(s))
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(items) / pass_s, "1/s"),
        "item_p50_ms": (_percentile(durations, 50) * 1e3, "ms"),
        "item_p90_ms": (_percentile(durations, 90) * 1e3, "ms"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "decided_frac": (decided / attempted, "1"),
    }


def per_layer(passes: list[dict]) -> dict:
    from spans import SPAN_NAMES

    traced = [p for p in passes if p["traced"]]
    first = traced[0]
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (first["layers"][name][0], "count")
        # best over the traced passes: spans are not scaled by the probe
        metrics[f"{name}.busy_s"] = (min(p["layers"][name][1] for p in traced), "s")
        metrics[f"{name}.self_s"] = (min(p["layers"][name][2] for p in traced), "s")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    hits, misses = first["member_K"]
    metrics["construct.member_K.hit_ratio"] = (ratio(hits, hits + misses), "1")
    candidates = first["counters"].get("semantics.interpolant_search.candidates", 0)
    metrics["semantics.interpolant_search.candidates"] = (candidates, "count")
    metrics["semantics.interpolant_search.candidates_per_s"] = (
        ratio(candidates, metrics["semantics.interpolant_search.busy_s"][0]),
        "1/s",
    )
    metrics["semantics.consequence.calls_per_candidate"] = (
        ratio(first["layers"]["semantics.consequence"][0], candidates),
        "1",
    )
    metrics["proofs.prove_sequent.proof_nodes"] = (
        first["counters"].get("proofs.prove_sequent.proof_nodes", 0),
        "count",
    )
    plain = typical_pass([p for p in passes if not p["traced"]])[2]
    metrics["trace.overhead_frac"] = (typical_pass(traced)[2] / plain - 1, "1")
    return metrics


def metric_block(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--spans", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pass_worker:
        return child(args)

    _import_girale()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    spans = OUT / f"{stem}.spans.tsv"
    if args.trace:
        spans.write_text("id\tname\tstart_s\tend_s\tparent\tpass\titem\n", encoding="utf-8")
    passes = run_passes(args, spans)

    failed, problems = count_failures(passes)
    attempted = sum(len(p["statuses"]) for p in passes)
    lines = digest_lines(passes[0])
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    untraced = [p for p in passes if not p["traced"]]
    metrics = per_layer(passes) if args.trace else end_to_end(untraced)

    (OUT / f"{stem}.results.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "passes": [
            {key: p[key] for key in ("traced", "setup_s", "wall_s", "prelude_s", "peak_rss_mb")}
            | {"items": len(p["durations"]), "item_s": sum(p["durations"])}
            for p in passes
        ],
        "digest": digest,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "metrics": metric_block(metrics),
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed={args.seed} passes={len(passes)} "
          f"machine={json.dumps(record['machine'], sort_keys=True)}")
    print(f"digest {args.workload} sha256={digest} lines={len(lines)}")
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    print(f"failed_frac {failed / attempted:.6f} ({failed}/{attempted})")
    if args.trace:
        from spans import SPAN_NAMES

        print(f"{'function':44} {'calls':>9} {'busy_s':>10} {'self_s':>10}")
        for name in SPAN_NAMES:
            calls = metrics[f"{name}.calls"][0]
            if calls:
                print(f"{name:44} {calls:>9} {metrics[f'{name}.busy_s'][0]:>10.4f} "
                      f"{metrics[f'{name}.self_s'][0]:>10.4f}")
        print(f"tracing overhead on {args.workload}: {metrics['trace.overhead_frac'][0]:+.1%} time per pass")
    else:
        for name, (value, unit) in metrics.items():
            print(f"{name:14} {value:12.4f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_block(metrics),
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
