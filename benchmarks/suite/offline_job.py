"""The offline jobs, run as a child process of the harness.

Usage: ``python offline_job.py CONFIG.json`` (written by the harness).

The child loads the serving artifact and scores one statement (artifact
load + plan compile), prints ``{"event": "ready"}``, and in ``setup``
mode exits there. In ``run`` mode it then repeats a cycle of jobs, each a
call into a public function, until the configured seconds are used:

- ``scan_serial`` / ``scan_pooled`` — one :class:`ChunkedScan` pass with
  the template, repetition and session aggregators over the gzipped log
  (template cache cleared first, as in a fresh ``repro analyze``);
- ``bulk_serial`` / ``bulk_pooled`` — :func:`bulk_insights` over the
  statement workload into ``.jsonl.gz``; the serial pass uses 32-statement
  chunks and times each one;
- ``fit`` — ``QueryFacilitator.fit(workers=2)`` for ``ctfidf`` and
  ``clstm`` on the training workload (``fit_serial``, traced runs only,
  trains the same heads with one worker).

Each job prints a ``start`` and an ``end`` event (wall time, items,
output digest) on stdout so the harness can read ``/proc`` at the
boundaries.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys
import time


def emit(**event) -> None:
    print(json.dumps(event), flush=True)


class ChunkClock:
    """Iterator wrapper stamping the moment each chunk starts being pulled.

    In a serial :func:`bulk_insights` pass the next chunk is pulled only
    after the previous one was scored and written, so consecutive stamps
    bound each chunk's latency.
    """

    def __init__(self, items, chunk: int):
        self.items = items
        self.chunk = chunk
        self.starts: list[float] = []

    def __iter__(self):
        for i, item in enumerate(self.items):
            if i % self.chunk == 0:
                self.starts.append(time.perf_counter())
            yield item


def _digest_file(path) -> str:
    with gzip.open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def scan(cfg, workers):
    from repro.analysis.templates import summarize_template_groups
    from repro.analytics.aggregators import (
        RepetitionAggregator, SessionStatsAggregator, TemplateAggregator,
    )
    from repro.analytics.core import ChunkedScan
    from repro.sqlang.normalize import template_cache_clear
    from repro.workloads.io import iter_log

    template_cache_clear()
    job = ChunkedScan(iter_log(cfg["log"]), chunk_size=cfg["scan_chunk"], workers=workers)
    out = job.run({"templates": TemplateAggregator(),
                   "repetition": RepetitionAggregator(seed=0),
                   "sessions": SessionStatsAggregator()})
    canon = (summarize_template_groups(out["templates"]), out["repetition"], out["sessions"])
    return job.last_stats.records, hashlib.sha256(repr(canon).encode()).hexdigest(), {}


def bulk(cfg, facilitator, workers):
    from repro.analytics.insights import bulk_insights, iter_statements

    statements = iter_statements(cfg["statements"])
    out = f"{cfg['work']}/bulk_{workers}.jsonl.gz"
    if workers:
        stats = bulk_insights(cfg["artifact"], statements, out,
                              chunk_size=cfg["bulk_chunk"], workers=workers)
        extra = {}
    else:
        clock = ChunkClock(statements, 32)
        stats = bulk_insights(cfg["artifact"], clock, out, chunk_size=32,
                              facilitator=facilitator)
        stamps = clock.starts + [time.perf_counter()]
        extra = {"chunk_ms": [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])],
                 "chunk_starts": clock.starts}
    return stats.records, _digest_file(out), extra


def fit(cfg, workload, workers):
    from corpora import TRAIN_SCALE
    from repro.core.facilitator import QueryFacilitator

    probe = workload.statements()[:16]
    digest = hashlib.sha256()
    items = 0
    for model in ("ctfidf", "clstm"):
        fac = QueryFacilitator(model_name=model, scale=TRAIN_SCALE).fit(workload, workers=workers)
        items += len(workload) * TRAIN_SCALE.epochs * len(fac.heads)
        digest.update(json.dumps([i.to_dict() for i in fac.insights_batch(probe)]).encode())
    return items, digest.hexdigest(), {}


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as handle:
        cfg = json.load(handle)
    from repro.core.facilitator import QueryFacilitator
    from repro.workloads.io import load_workload

    facilitator = QueryFacilitator.load(cfg["artifact"], mmap=True)
    facilitator.insights("SELECT 1")
    emit(event="ready")
    if cfg["mode"] == "setup":
        return 0
    workload = load_workload(cfg["train"])
    jobs = [
        ("scan_serial", lambda: scan(cfg, 0)),
        ("scan_pooled", lambda: scan(cfg, cfg["workers"])),
        ("bulk_serial", lambda: bulk(cfg, facilitator, 0)),
        ("bulk_pooled", lambda: bulk(cfg, facilitator, cfg["workers"])),
        ("fit", lambda: fit(cfg, workload, cfg["workers"])),
    ]
    started = time.perf_counter()
    cycle, last_cycle_s = 0, 0.0
    while cycle == 0 or time.perf_counter() - started + last_cycle_s <= cfg["seconds"]:
        cycle_start = time.perf_counter()
        todo = jobs + ([("fit_serial", lambda: fit(cfg, workload, 1))]
                       if cfg["traced"] and cycle == 0 else [])
        for name, run in todo:
            emit(event="start", job=name, cycle=cycle)
            start = time.perf_counter()
            try:
                items, digest, extra = run()
                error = None
            except Exception as exc:  # reported to the harness as a failed job
                items, digest, extra, error = 0, None, {}, f"{type(exc).__name__}: {exc}"
            emit(event="end", job=name, cycle=cycle, start=start, end=time.perf_counter(),
                 items=items, digest=digest, error=error, **extra)
        last_cycle_s = time.perf_counter() - cycle_start
        cycle += 1
    emit(event="done", cycles=cycle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
