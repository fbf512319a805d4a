"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper-sweeps --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``paper-sweeps``, ``sparse-internet``, ``study-store`` (see
``perfbench/README.md``).  The run sets up ``SETUP_REPEATS`` times
(``setup_s`` is their median), then times a fixed number of operations
— as many as take ``--seconds`` on the reference machine — checking
every output outside the timed region.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` sets up once, records spans at every
layer boundary and prints the per-layer metrics instead.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; a human-readable summary goes to standard error and,
with the span dump of a traced run, under ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"
KEYCACHE_SEED_DIR = ROOT / ".keycache" / "seed20200830"

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("results_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper-sweeps", "sparse-internet", "study-store"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny inputs, for the benchmark's own self-tests",
    )
    return parser.parse_args(argv)


def keycache_files() -> set[str]:
    keycache = KEYCACHE_SEED_DIR.parent
    return {
        str(path.relative_to(keycache))
        for path in keycache.rglob("*")
        if path.is_file()
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cache_counters() -> dict[str, tuple[int, int]]:
    from repro.crypto.cache import cache_stats

    return {
        stats["name"]: (stats["hits"], stats["misses"])
        for stats in cache_stats()
    }


def program_counters(before_ops, before_caches, keys) -> dict[str, float]:
    """Per-layer values read from counters the program keeps itself."""
    from repro.secure.crypto_suite import OP_STATS
    from tracing import CACHE_NAMES, SECURE_OPS

    values: dict[str, float] = {
        "deployments.keys.loaded": keys["loaded"],
        "deployments.keys.generated": keys["generated"],
    }
    after_ops = OP_STATS.as_dict()
    for op in SECURE_OPS:
        now = after_ops.get(op, {"ops": 0, "seconds": 0.0})
        then = before_ops.get(op, {"ops": 0, "seconds": 0.0})
        values[f"secure.{op}.calls"] = now["ops"] - then["ops"]
        values[f"secure.{op}.s"] = now["seconds"] - then["seconds"]
    after_caches = cache_counters()
    for name in CACHE_NAMES:
        hits0, misses0 = before_caches.get(name, (0, 0))
        hits1, misses1 = after_caches.get(name, (0, 0))
        lookups = (hits1 - hits0) + (misses1 - misses0)
        values[f"crypto.cache.{name}.lookups"] = lookups
        values[f"crypto.cache.{name}.hit_ratio"] = (
            (hits1 - hits0) / lookups if lookups else 0.0
        )
    return values


def run(workload_name, seed, seconds, trace, smoke=False) -> dict:
    """One benchmark run in this process; returns the summary dict."""
    from repro.crypto.cache import clear_caches
    from repro.secure.crypto_suite import OP_STATS
    from tracing import LAYER_METRICS, Tracer, tail_percentile
    from workloads import WORKLOADS, Tally

    workload = WORKLOADS[workload_name](seed, smoke=smoke)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    keycache_before = keycache_files()
    try:
        repeats = 1 if trace else SETUP_REPEATS
        setup_seconds = []
        for repeat in range(repeats):
            # Every set-up starts from the same cold caches.
            clear_caches()
            OP_STATS.clear()
            gc.collect()
            last = repeat == repeats - 1
            if tracer is not None and last:
                tracer.active = True
                tracer.phase = "setup"
            start = perf_counter()
            state = workload.setup()
            setup_seconds.append(perf_counter() - start)
            if tracer is not None:
                tracer.active = False
            if not last:
                workload.discard(state)
                del state
        keys = dict(workload.keys_stats(state))
        if keys["generated"] or keycache_files() != keycache_before:
            raise SystemExit(
                "perfbench: set-up generated RSA keys "
                f"({keys['generated']}); every key must come from "
                ".keycache/seed20200830"
            )
        workload.prepare(state)

        tally = Tally()
        ops_before = OP_STATS.as_dict()
        caches_before = cache_counters()
        timed = 0.0
        ops = workload.ops_for(seconds)
        for index in range(ops):
            if tracer is not None:
                tracer.begin_sweep(index)
                tracer.request = f"{workload_name}/{index}"
                tracer.phase = "run"
                tracer.active = True
                # A root span per operation: its self time is the glue
                # no layer boundary covers.
                root = tracer.open("perfbench.op")
            start = perf_counter()
            outcome = workload.op(state, index)
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.close(root)
                tracer.active = False
                tracer.request = None
            timed += elapsed
            tally.latencies.append(elapsed)
            workload.check(state, index, outcome, tally)
        extra = program_counters(ops_before, caches_before, keys)
        workload.finish(state)
    finally:
        if tracer is not None:
            tracer.uninstall()

    tail_pct, tail, samples = tail_percentile(tally.latencies)
    summary = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "timed_s": timed,
        "timed_ops": ops,
        "end_to_end": {
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": peak_rss_mb(),
            "results_per_s": tally.results / timed,
            "op_ms_p50": 1000 * statistics.median(tally.latencies),
            "op_ms_tail": 1000 * tail,
        },
        "setup_seconds": setup_seconds,
        "tail_percentile": tail_pct,
        "latency_samples": samples,
        "results": tally.results,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "digests": tally.digests,
        "keys": keys,
    }
    summary.update(workload_detail(workload_name, tally, timed))
    if tracer is not None:
        values = tracer.layer_values(extra)
        summary["per_layer"] = {
            name: values.get(name, 0) for name, _, _ in LAYER_METRICS
        }
        summary["span_self_s"] = dict(sorted(tracer.self_times()[0].items()))
        dump = OUT_DIR / f"spans-{workload_name}-seed{seed}.jsonl.gz"
        summary["spans"] = tracer.dump(dump)
        summary["span_dump"] = str(dump.relative_to(ROOT))
    return summary


def workload_detail(workload_name, tally, timed) -> dict:
    """Named throughputs and per-kind medians, for the human summary."""
    if workload_name == "study-store":
        by_kind: dict[str, list[float]] = {}
        for digest, latency in zip(tally.digests, tally.latencies):
            by_kind.setdefault(digest.split(":", 1)[0], []).append(latency)
        return {
            "req_per_s": tally.results / timed,
            "kind_ms_p50": {
                kind: 1000 * statistics.median(values)
                for kind, values in sorted(by_kind.items())
            },
            "kind_counts": {
                kind: len(values) for kind, values in sorted(by_kind.items())
            },
        }
    return {
        "hosts_per_s": tally.results / timed,
        "addrs_per_s": tally.addrs / timed,
    }


def result_line(summary) -> dict:
    from tracing import LAYER_METRICS

    if summary["trace"]:
        metrics = {
            name: {"value": summary["per_layer"][name], "unit": unit}
            for name, unit, _ in LAYER_METRICS
        }
    else:
        metrics = {
            name: {"value": summary["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def describe(summary) -> str:
    e2e = summary["end_to_end"]
    lines = [
        f"{summary['workload']} seed={summary['seed']} "
        f"trace={summary['trace']}: {summary['timed_ops']} timed ops in "
        f"{summary['timed_s']:.2f} s, setups "
        + ", ".join(f"{s:.2f}" for s in summary["setup_seconds"])
        + " s",
        f"  results/s {e2e['results_per_s']:.3f}  op p50 "
        f"{e2e['op_ms_p50']:.3f} ms  "
        f"p{summary['tail_percentile']:.2f} {e2e['op_ms_tail']:.3f} ms "
        f"(n={summary['latency_samples']})  peak RSS "
        f"{e2e['peak_rss_mb']:.1f} MiB",
        f"  checks: {summary['failed']} failed of {summary['attempted']}",
    ]
    if "kind_ms_p50" in summary:
        lines.append("  per kind p50 ms: " + ", ".join(
            f"{kind} {value:.1f} (n={summary['kind_counts'][kind]})"
            for kind, value in summary["kind_ms_p50"].items()
        ))
    lines.extend(f"  FAILED: {failure}" for failure in summary["failures"])
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not KEYCACHE_SEED_DIR.is_dir():
        print(
            "perfbench: run from a checkout holding src/repro and "
            ".keycache/seed20200830",
            file=sys.stderr,
        )
        return 2
    # The benchmark reads and writes only inside the checkout: ambient
    # store / keycache locations must not redirect the program.
    os.environ.pop("REPRO_KEYCACHE", None)
    os.environ.pop("REPRO_STUDY_STORE", None)
    sys.path.insert(0, str(ROOT / "src"))
    summary = run(
        args.workload, args.seed, args.seconds, args.trace, smoke=args.smoke
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / (
        f"summary-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(describe(summary), file=sys.stderr)
    print(json.dumps(result_line(summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
