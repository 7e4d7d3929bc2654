"""One benchmark harness for the insights stack.

    python3 benchmarks/suite/bench.py [--workload NAME ...] [--seed N]
        [--seconds S] [--repeat R] [--trace [0|1]] [--smoke] [--results DIR]

Runs the named workloads (default: all four) round-robin ``R`` times,
prints every end-to-end metric with its unit (median and quartiles over
the rounds), checks every output, and writes ``latest.json`` to
``--results`` (default ``benchmarks/suite/results/``). ``--trace`` adds one traced
round per workload after the untraced ones: harness spans, per-slice
``/metrics`` deltas and layer probes (run in a child process), written to
``results/trace.jsonl`` and to the per-layer table of ``latest.json``,
together with the tracing overhead (traced vs untraced end-to-end).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics named in ``BENCHMARK.json`` (or, with ``--trace``, its per-layer
metrics), prefixed ``<workload>/`` when more than one workload ran. See
``README.md`` in this directory for the workloads, metrics and policy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SMOKE_SECONDS = 1.0
#: Single-threaded BLAS in this process and every process under test, so
#: the process topology alone sets the parallelism. Unpinned, OpenBLAS
#: threads in forked training workers oversubscribe the cores and a
#: pooled ``clstm`` fit on 2 CPUs ran 3-14 s against 1.2 s serial.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Units of the end-to-end metrics every workload reports but
#: ``BENCHMARK.json`` does not gate; every other unit comes from it.
UNGATED_UNITS = {"cpu_us_per_item": "us"}


def host_facts() -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
        "numpy": numpy.__version__, "loadavg": list(os.getloadavg()), "git_sha": sha,
    }


def parse_args(argv):
    from workloads import NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=NAMES,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7, help="input seed (default: 7)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured seconds per round (default: 15)")
    parser.add_argument("--repeat", type=int, default=1, help="untraced rounds (default: 1)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="add a traced round and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny inputs and {SMOKE_SECONDS:g}s rounds, for tests")
    parser.add_argument("--results", type=Path, default=HERE / "results",
                        help="directory for latest.json and trace.jsonl "
                             "(default: results/ next to this script)")
    args = parser.parse_args(argv)
    args.workload = list(dict.fromkeys(args.workload or NAMES))
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    return args


def findings(report: dict) -> list[str]:
    out = []
    w = report["workloads"]
    if "script-shards" in w and "script-fleet" in w:
        shards, fleet = w["script-shards"], w["script-fleet"]
        s_rate = shards["end_to_end"]["stmt_per_s"]["median"]
        f_rate = fleet["end_to_end"]["stmt_per_s"]["median"]
        text = (f"script-fleet vs script-shards (same 32-statement requests, corpus, order, "
                f"threaded front and 2 connections): {f_rate:.0f} vs {s_rate:.0f} stmt/s "
                f"({f_rate / s_rate:.2f}x)")
        if "traced" in shards and "traced" in fleet:
            ls, lf = shards["traced"]["per_layer"], fleet["traced"]["per_layer"]
            candidates = {
                "transport round trip (serving.roundtrip_us_per_stmt)": (
                    lf["serving.roundtrip_us_per_stmt.shards"],
                    lf["serving.roundtrip_us_per_stmt.fleet"]),
                "front CPU (proc.cpu_us_per_item.front)": (
                    ls["proc.cpu_us_per_item.front"], lf["proc.cpu_us_per_item.front"]),
                "worker or agent CPU (proc.cpu_us_per_item.worker)": (
                    ls["proc.cpu_us_per_item.worker"], lf["proc.cpu_us_per_item.worker"]),
                "front queue wait (serving.queue_wait_ms per statement)": (
                    ls["serving.queue_wait_ms"] * 1e3 / ls["serving.batch_stmts"],
                    lf["serving.queue_wait_ms"] * 1e3 / lf["serving.batch_stmts"]),
            }
            layer, (a, b) = max(candidates.items(), key=lambda kv: abs(kv[1][1] - kv[1][0]))
            deltas = "; ".join(f"{name} {y - x:+.1f} us" for name, (x, y) in candidates.items())
            text += (f". Per statement, fleet minus shards: {deltas}. The largest is {layer}: "
                     f"{a:.1f} vs {b:.1f} us")
        else:
            text += "; run with --trace for the layer attribution"
        out.append(text + ". The old BENCH_scale.json comparison (fleet 1497 req/s vs 2-worker "
                   "local 407 req/s) used 3- vs 8-statement requests, 400 vs 800 statements and "
                   "in-process agents vs forkserver children; like for like the transports "
                   f"differ by {abs(f_rate / s_rate - 1):.0%}, so that gap came from the set-up.")
    key = w.get("keystroke", {}).get("traced")
    if key:
        queue_ms = key["per_layer"]["serving.queue_wait_ms"]
        p50 = key["end_to_end"]["p50_ms"]
        out.append(f"keystroke: serving.queue_wait_ms is {queue_ms:.2f} ms of the {p50:.2f} ms "
                   f"p50 in the 300 req/s latency slices ({queue_ms / p50:.0%}); the queue wait "
                   f"is bounded by the micro-batch collect window (max_wait_ms=2).")
    return out


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no source tree at {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_PINS)
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {**UNGATED_UNITS,
             **{m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}}

    from measure import Spans, self_times, summarize
    from probes import run_in_child
    from workloads import Context, build

    results = args.results.resolve()
    results.mkdir(parents=True, exist_ok=True)
    work = results / f"work-{os.getpid()}"
    work.mkdir()
    spans = Spans()  # only traced rounds record into it
    report = {"host": host_facts(), "config": {**vars(args), "results": str(results)},
              "workloads": {}}
    try:
        ctx = Context(ROOT, work, args.seed, args.seconds, args.smoke)
        workloads = [build(name, ctx) for name in args.workload]
        rounds = {wl.name: [] for wl in workloads}
        for _ in range(args.repeat):
            for wl in workloads:
                rounds[wl.name].append(wl.run(ctx, spans, False, None))
        for wl in workloads:
            runs = rounds[wl.name]
            entry = report["workloads"][wl.name] = {
                "why": wl.why,
                "end_to_end": {
                    m: {"unit": units[m], **summarize(r["metrics"][m] for r in runs)}
                    for m in runs[0]["metrics"]
                },
                "rounds": [{k: v for k, v in r.items() if k != "layers"} for r in runs],
            }
            if args.trace:
                started = time.perf_counter()
                rid = spans.open(f"round:{wl.name}", started)
                traced = wl.run(ctx, spans, True, rid)
                spans.close(rid, time.perf_counter())
                pid = spans.open(f"probes:{wl.name}", time.perf_counter())
                traced["layers"].update(
                    run_in_child(wl.sample, ctx.artifact, ROOT, work, spans, pid))
                spans.close(pid, time.perf_counter())
                runs.append(traced)
                entry["traced"] = {
                    "end_to_end": traced["metrics"],
                    "tracing_overhead": {
                        m: traced["metrics"][m] / entry["end_to_end"][m]["median"] - 1.0
                        for m in traced["metrics"] if entry["end_to_end"][m]["median"]
                    },
                    "per_layer": traced["layers"],
                    "checks": traced["checks"],
                }
            entry["attempted"] = sum(r["attempted"] for r in runs)
            entry["failed"] = sum(r["failed"] for r in runs)
            entry["correct"] = all(r["correct"] for r in runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["findings"] = findings(report)
    if args.trace:
        report["self_time"] = self_times(spans.records)
        with open(results / "trace.jsonl", "w", encoding="utf-8") as handle:
            for record in spans.records:
                handle.write(json.dumps(record) + "\n")
    (results / "latest.json").write_text(json.dumps(report, indent=2) + "\n")
    print_summary(report, units)
    print(json.dumps(result_line(report, contract, bool(args.trace))))
    return 0


def result_line(report: dict, contract: dict, traced: bool) -> dict:
    gated = {m["name"]: m["unit"] for m in contract["per_layer" if traced else "end_to_end"]}
    entries = report["workloads"]
    metrics = {}
    for wl, entry in entries.items():
        values = entry["traced"]["per_layer"] if traced else {
            m: s["median"] for m, s in entry["end_to_end"].items()}
        prefix = f"{wl}/" if len(entries) > 1 else ""
        for name, unit in gated.items():
            value = values.get(name)
            if not isinstance(value, (int, float)):
                raise SystemExit(f"{wl}: metric {name} was not measured")
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(e["correct"] for e in entries.values()),
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": metrics,
    }


def print_summary(report: dict, units: dict) -> None:
    host = report["host"]
    print(f"host: {host['nproc']} cpu ({host['cpu_model']}), python {host['python']}, "
          f"numpy {host['numpy']}, load {host['loadavg'][0]:.2f}, sha {host['git_sha']}")
    for wl, entry in report["workloads"].items():
        print(f"\n== {wl}: {entry['why']}")
        print(f"   correct={entry['correct']} attempted={entry['attempted']} failed={entry['failed']}")
        for m, s in entry["end_to_end"].items():
            print(f"   {m:<18} {s['median']:>12.4f} {s['unit']:<4} "
                  f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']})")
        if "traced" in entry:
            print("   per layer (traced round):")
            for m, v in entry["traced"]["per_layer"].items():
                shown = f"{v:>12.4f}" if isinstance(v, (int, float)) else f"{v!s:>12}"
                print(f"     {m:<40} {shown} {units.get(m, '')}")
            overhead = ", ".join(f"{m} {v:+.1%}" for m, v in entry["traced"]["tracing_overhead"].items())
            print(f"   tracing overhead: {overhead}")
    if report.get("self_time"):
        print("\nself time by span (top 12):")
        for row in report["self_time"][:12]:
            print(f"   {row['name']:<40} n={row['count']:<7} total {row['total_ms']:>10.1f} ms"
                  f"  self {row['self_ms']:>10.1f} ms")
    for text in report["findings"]:
        print(f"\nfinding: {text}")


if __name__ == "__main__":
    sys.exit(main())
