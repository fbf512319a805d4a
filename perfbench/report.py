"""Per-layer and steadiness reports over ``perfbench/run.py`` runs.

    python3 perfbench/report.py layers --workload study-store --seed 1
    python3 perfbench/report.py spread --workload paper-sweeps --seeds 1-10

``layers`` runs one untraced and one traced run with the same seed and
prints the per-layer table (self time as a share of the traced timed
region), the workload's expected split, and the tracing overhead: the
traced-minus-untraced difference of every named throughput.

``spread`` runs one untraced run per seed and prints, for every
end-to-end metric, the median, the quartiles and the quartile spread as
a share of the median next to the bound ``BENCHMARK.json`` fixes.

Every run is a fresh ``run.py`` process, one after another.
"""

from __future__ import annotations

import argparse
import gzip
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from tracing import span_self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"

#: The throughputs whose traced-minus-untraced difference is the
#: tracing overhead, per workload.
THROUGHPUTS = {
    "paper-sweeps": ("hosts_per_s", "addrs_per_s"),
    "sparse-internet": ("hosts_per_s", "addrs_per_s"),
    "study-store": ("req_per_s",),
}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` process; returns the summary it wrote."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"run.py {workload} seed {seed} trace {trace} failed:\n"
            + completed.stderr
        )
    path = OUT_DIR / f"summary-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def load_spans(summary: dict) -> list[dict]:
    """The traced run's span dump, in span-id order."""
    with gzip.open(ROOT / summary["span_dump"], "rt") as handle:
        return [json.loads(line) for line in handle]


def expected_split(workload: str, traced: dict) -> list[str]:
    """The split the workload was chosen to exercise, as measured."""
    layer = traced["per_layer"]
    timed = traced["timed_s"]
    if workload == "paper-sweeps":
        secure = sum(
            value for name, value in layer.items()
            if name.startswith("secure.") and name.endswith(".s")
        )
        return [
            f"secure-channel crypto ops (OP_STATS, inclusive): "
            f"{secure:.2f} s = {100 * secure / timed:.1f} % of "
            f"{timed:.2f} s timed"
        ]
    if workload == "sparse-internet":
        netsim = (
            layer["netsim.candidates.self_s"] + layer["netsim.probe.self_s"]
        )
        return [
            f"netsim.candidates + netsim.probe self time: {netsim:.2f} s "
            f"= {100 * netsim / timed:.1f} % of {timed:.2f} s timed"
        ]
    kinds = [digest.split(":", 1)[0] for digest in traced["digests"]]
    spans = load_spans(traced)
    own = span_self_times(
        [span["start"] for span in spans],
        [span["end"] for span in spans],
        [span["parent"] for span in spans],
    )
    per_kind: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for span, seconds in zip(spans, own):
        request = span["request"] or ""
        if request.startswith("study-store/"):
            kind = kinds[int(request.rsplit("/", 1)[1])]
            per_kind[kind][span["name"]] += seconds
    lines = []
    for kind in ("report", "diff", "export", "publish"):
        totals = per_kind.get(kind)
        if not totals:
            continue
        total = sum(totals.values())
        top = sorted(totals.items(), key=lambda item: -item[1])[:4]
        lines.append(f"{kind}: " + ", ".join(
            f"{name} {100 * seconds / total:.0f} %" for name, seconds in top
        ))
    return lines


def layers(args) -> None:
    plain = run_once(args.workload, args.seed, args.seconds, 0)
    traced = run_once(args.workload, args.seed, args.seconds, 1)
    timed = traced["timed_s"]
    print(f"{args.workload} seed {args.seed}: untraced end-to-end")
    for name, value in plain["end_to_end"].items():
        print(f"  {name:<14} {value:12.4f}")
    if "kind_ms_p50" in plain:
        print("  per-kind p50 ms: " + ", ".join(
            f"{kind} {value:.1f}"
            for kind, value in plain["kind_ms_p50"].items()
        ))
    print(f"\nper-layer self time (traced run, {timed:.2f} s timed):")
    rows = sorted(
        (
            (name, value) for name, value in traced["per_layer"].items()
            if name.endswith(".self_s") and value > 0
        ),
        key=lambda item: -item[1],
    )
    for name, value in rows:
        print(f"  {name:<42} {value:9.3f} s {100 * value / timed:6.1f} %")
    setup = sorted(
        (
            (key.split(":", 1)[1], value)
            for key, value in traced["span_self_s"].items()
            if key.startswith("setup:")
        ),
        key=lambda item: -item[1],
    )
    setup_s = traced["end_to_end"]["setup_s"]
    print(f"\nset-up self time by span (traced set-up, {setup_s:.2f} s):")
    for name, value in setup[:8]:
        print(f"  {name:<42} {value:9.3f} s {100 * value / setup_s:6.1f} %")
    print("\nexpected split:")
    for line in expected_split(args.workload, traced):
        print("  " + line)
    print("\ntracing overhead (traced - untraced):")
    for name in THROUGHPUTS[args.workload]:
        base, with_trace = plain[name], traced[name]
        print(
            f"  {name:<12} {base:12.3f} -> {with_trace:12.3f} "
            f"({with_trace - base:+.3f}, "
            f"{100 * (with_trace - base) / base:+.1f} %)"
        )
    print(f"  spans recorded: {traced['spans']} ({traced['span_dump']})")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def spread(args) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {
        metric["name"]: metric["bound"] for metric in bench["end_to_end"]
    }
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = defaultdict(list)
    for seed in parse_seeds(args.seeds):
        summary = run_once(args.workload, seed, seconds, 0)
        status = "ok" if summary["failed"] == 0 else "FAILED"
        print(
            f"seed {seed}: {status} "
            f"({summary['failed']}/{summary['attempted']} failed) "
            + " ".join(
                f"{name}={value:.4f}"
                for name, value in summary["end_to_end"].items()
            ),
            flush=True,
        )
        for name, value in summary["end_to_end"].items():
            values[name].append(value)
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / statistics.median(series)
        print(
            f"{name:<12} median {statistics.median(series):12.4f}  "
            f"q1 {q1:12.4f}  q3 {q3:12.4f}  spread {share:.4f}  "
            f"bound {bounds[name]}"
        )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("layers", layers), ("spread", spread)):
        command = commands.add_parser(name)
        command.add_argument("--workload", required=True,
                             choices=tuple(THROUGHPUTS))
        command.add_argument("--seconds", type=float, default=0)
        command.set_defaults(handler=handler)
        if name == "layers":
            command.add_argument("--seed", type=int, default=20200830)
        else:
            command.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    if args.command == "layers" and not args.seconds:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = bench["run_seconds"]
    args.handler(args)


if __name__ == "__main__":
    main()
