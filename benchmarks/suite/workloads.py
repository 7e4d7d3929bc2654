"""The four workloads: inputs, topology, load shape, metrics and checks.

Each workload object builds its inputs once (from the seed) and then
runs any number of measured rounds. A round cold-starts the system three
times (``setup_s`` is the median), keeps the third instance, drives the
load, reads ``/proc`` for CPU and memory, checks every output, and stops
every process it started. A traced round also records harness spans and,
for the servers, deltas of their ``/metrics`` series over the measured
slices.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import corpora
from loadgen import HttpLoad, post
from measure import MetricsDelta, median, scrape, tail
from procs import Lines, ProcessTree, cpu_delta, spawn, start_server, stop

#: Load connections: at most one per CPU, at most two.
N_CONNS = max(1, min(2, os.cpu_count() or 1))
COLD_STARTS = 3
PROBE_N = 1024
#: Stages the serving front records; the others run inside shard
#: workers and fleet agents, whose registries the front cannot see yet.
FRONT_STAGES = ("decode", "memo", "copy", "encode")
WORKER_STAGES = ("dedup", "featurize", "tfidf", "predict", "fanout")
WORKER_STAGES_MISSING = "null: worker-side stages are not exported (open item 3)"


def _body(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


def _expected(truth, statements) -> bytes:
    """The exact 200 body the HTTP front encodes for ``statements``."""
    return _body({"insights": [truth[s] for s in statements], "generation": 1})


class Context:
    """What every workload shares within one invocation."""

    def __init__(self, root: Path, work: Path, seed: int, seconds: float, smoke: bool):
        self.root, self.work, self.seed = root, work, seed
        self.seconds, self.smoke = seconds, smoke
        self.artifact = work / "facilitator.repro"
        self.facilitator = corpora.train_artifact(self.artifact)
        self._memo: dict = {}

    def cached(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]


def _round_result(metrics, extras, attempted, failed, checks, layers=None) -> dict:
    return {
        "metrics": metrics,
        "extras": extras,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "correct": all(checks.values()) and failed == 0,
        "layers": layers or {},
    }


# -- serving --------------------------------------------------------------------


def _cold_starts(ctx: Context, topology: str):
    samples = []
    for i in range(COLD_STARTS):
        server, agents, address, setup_s = start_server(topology, ctx.artifact, ctx.root, ctx.work)
        samples.append(setup_s)
        if i < COLD_STARTS - 1:
            stop([server, *agents])
    return samples, server, agents, address


def serving_layers(delta: MetricsDelta, phases, sharded: bool) -> dict:
    """Per-layer numbers of ``repro.serving`` from the ``/metrics`` delta
    over ``phases`` (statement counts come from the same delta)."""
    statements = delta.value("repro_service_statements_total")
    hits = delta.value("repro_service_insight_memo_hits_total")
    misses = delta.value("repro_service_insight_memo_misses_total")
    queue_ms = (delta.mean("repro_service_queue_wait_seconds") or 0.0) * 1e3
    compute_ms = (delta.mean("repro_service_compute_seconds") or 0.0) * 1e3
    client_ms = median(x for p in phases for x in p.latencies_ms("sent")) or 0.0
    stages = {}
    for stage in FRONT_STAGES + WORKER_STAGES:
        if stage == "predict":
            seconds = delta.sum_where("repro_stage_seconds_sum", "stage",
                                      lambda v: v.startswith("predict:"))
        else:
            seconds = delta.value("repro_stage_seconds_sum", stage=stage)
        stages[stage] = None if sharded and stage in WORKER_STAGES else seconds * 1e6 / max(1, statements)
    layers = {
        "serving.queue_wait_ms": queue_ms,
        "serving.compute_ms": compute_ms,
        "serving.batch_stmts": delta.mean("repro_service_batch_size"),
        "serving.memo_hit_rate": hits / (hits + misses) if hits + misses else None,
        "serving.http_us": (client_ms - queue_ms - compute_ms) * 1e3,
        "serving.shed": delta.value("repro_requests_shed_total"),
        "serving.degraded": delta.value("repro_degraded_responses_total"),
        "serving.restarts": delta.value("repro_shard_restarts_total"),
    }
    layers.update({f"serving.stage_us.{k}": v for k, v in stages.items()})
    if sharded:
        layers["serving.stage_us.note"] = WORKER_STAGES_MISSING
    return layers


def _proc_layers(slices) -> dict:
    """CPU per item of the root process (``front``) and its descendants."""
    items = sum(s["items"] for s in slices)
    return {
        f"proc.cpu_us_per_item.{role}": sum(s["cpu_s"].get(role, 0.0) for s in slices) * 1e6 / items
        for role in ("front", "worker")
    }


#: End-to-end metrics computed per measured slice.
SLICED = ("p50_ms", "p99_ms", "stmt_per_s", "cpu_us_per_item")


def _slice(parts, per_request: int, since: str) -> dict:
    """Latency, throughput and CPU of one measured slice.

    ``parts`` are the ``(phase, cpu)`` pairs the slice was sent as; CPU is
    read per part and the slice reports its best part, because CPU time
    needs far fewer samples than a p99 and so can be sliced finer.
    """
    lat = [x for phase, _ in parts for x in phase.latencies_ms(since)]
    p99 = tail(lat)
    in_window = sum(1 for phase, _ in parts for rec in phase.done if rec[3] <= phase.end)
    items = sum(len(phase.done) for phase, _ in parts) * per_request
    cpu_s = {role: sum(cpu.get(role, 0.0) for _, cpu in parts) for role in ("front", "worker")}
    return {
        "p50_ms": median(lat), "p99_ms": p99["value"], "p99_percentile": p99["percentile"],
        "samples": p99["n"],
        "stmt_per_s": in_window * per_request / sum(p.end - p.start for p, _ in parts),
        "cpu_us_per_item": min(sum(cpu.values()) * 1e6 / max(1, len(phase.done) * per_request)
                               for phase, cpu in parts),
        "items": items, "cpu_s": cpu_s,
    }


def _best_of(slices, key):
    """The best slice's value: noise from other tenants of the host only
    ever makes a slice slower, so the best slice is the steadiest
    estimate of what the system itself costs."""
    pick = max if key == "stmt_per_s" else min
    return pick(s[key] for s in slices if s[key] is not None)


class Keystroke:
    name = "keystroke"
    why = ("editor path: 1-statement requests, ~70% repeats, open loop over 2 "
           "pipelined connections; the micro-batch window and the insight memo do the work")
    topology = "async"
    #: Offered rates. Latency is measured at the lowest, well below the
    #: knee (at 600 req/s the two connections are ~90% busy and the median
    #: swings with every change in service time), in slices interleaved
    #: with the other rungs.
    rungs = (300, 600, 1200, 2400)
    latency_slices, cpu_parts = 4, 4
    shares = {"latency_slice": 0.24, "rung": 0.05, "warm": 0.04, "saturation": 0.12}
    saturation_depth = 32
    drain_cap_s = 2.0
    slo = {"p99_ms": 50.0, "complete": 0.99, "lateness_ms": 5.0}

    def __init__(self, ctx: Context):
        rng = np.random.default_rng([ctx.seed, 4])
        lowest, *higher = self.rungs
        plan = [("warm", lowest, self.shares["warm"])]
        for i in range(self.latency_slices):
            plan.append(("latency", lowest, self.shares["latency_slice"]))
            if i < len(higher):
                plan.append(("rung", higher[i], self.shares["rung"]))
        plan += [("rung", rate, self.shares["rung"]) for rate in higher[self.latency_slices:]]
        self.plan = []  # (kind, rate, [send offsets of each part])
        for kind, rate, share in plan:
            gaps = rng.exponential(1.0 / rate, size=max(20, round(rate * share * ctx.seconds)))
            split = np.array_split(gaps, self.cpu_parts if kind == "latency" else 1)
            self.plan.append((kind, rate, [np.cumsum(g).tolist() for g in split]))
        self.saturation_s = self.shares["saturation"] * ctx.seconds
        n = sum(len(o) for _, _, parts in self.plan for o in parts) + int(3000 * self.saturation_s)
        stream = corpora.sdss_zipf(n, ctx.seed)
        distinct = list(dict.fromkeys(stream))
        key_of = {s: k for k, s in enumerate(distinct)}
        self.keys = [key_of[s] for s in stream]
        truth = corpora.insight_dicts(ctx.facilitator, distinct)
        self.requests = [post("/insights", _body({"statement": s})) for s in distinct]
        self.expected = [_expected(truth, [s]) for s in distinct]
        self.sample = stream[:PROBE_N]

    def _rung(self, rate, phases) -> dict:
        """Whether offered ``rate`` was sustained, over all its phases."""
        lat = [x for p in phases for x in p.latencies_ms("due")]
        p99 = tail(lat)
        late = tail([x * 1e3 for p in phases for x in p.lateness])
        sent = sum(p.attempted for p in phases)
        within = sum(1 for p in phases for rec in p.done if rec[3] <= p.end + self.drain_cap_s)
        return {
            "offered_rps": rate, "sent": sent, "within_drain_cap": within,
            "p50_ms": median(lat), "p99_ms": p99["value"], "p99_percentile": p99["percentile"],
            "lateness_ms_p99": late["value"],
            "sustained": bool(
                p99["value"] is not None and p99["value"] <= self.slo["p99_ms"]
                and within >= self.slo["complete"] * sent
                and late["value"] is not None and late["value"] <= self.slo["lateness_ms"]
            ),
        }

    def run(self, ctx: Context, spans, traced: bool, parent) -> dict:
        setups, server, agents, address = _cold_starts(ctx, self.topology)
        load = None
        phases, slices, layers = [], [], {}
        try:
            load = HttpLoad(address, N_CONNS, self.requests, self.expected)
            tree = ProcessTree({server.pid: "front"})
            scrapes = []
            pos = 0
            for kind, rate, parts in self.plan:
                before = scrape(address) if traced and kind == "latency" else None
                sent = []
                for offsets in parts:
                    cpu0 = tree.walk()
                    phase = load.open_loop(self.keys[pos : pos + len(offsets)], offsets)
                    pos += len(offsets)
                    sent.append((phase, cpu_delta(cpu0, tree.walk())))
                    phases.append((kind, rate, phase))
                if kind == "latency":
                    slices.append(_slice(sent, 1, "due"))
                    if traced:
                        scrapes.append((before, scrape(address)))
            stream = itertools.cycle(self.keys[pos:] + self.keys[:pos])
            saturation = load.closed_loop(stream.__next__, self.saturation_depth, self.saturation_s)
            phases.append(("saturation", None, saturation))
        finally:
            if load is not None:
                load.close()
            stop([server, *agents])
        measured = [p for kind, _, p in phases if kind != "warm"]
        rows = [self._rung(rate, [p for kind, r, p in phases if r == rate and kind != "warm"])
                for rate in self.rungs]
        mismatched = sum(p.mismatched for _, _, p in phases)
        errors = sum(p.errors for _, _, p in phases)
        attempted = sum(p.attempted for _, _, p in phases)
        if traced:
            latency = [p for kind, _, p in phases if kind == "latency"]
            layers = serving_layers(MetricsDelta(scrapes), latency, sharded=False)
            layers.update(_proc_layers(slices))
            layers["load.lateness_ms_p99"] = rows[0]["lateness_ms_p99"]
            for kind, rate, phase in phases:
                self._spans(spans, parent, f"{kind}:{rate}" if rate else kind, phase)
        sustained = [r["offered_rps"] for r in rows if r["sustained"]]
        sat_done = sum(1 for rec in saturation.done if rec[3] <= saturation.end)
        metrics = {
            "setup_s": median(setups),
            "p50_ms": _best_of(slices, "p50_ms"),
            "p99_ms": _best_of(slices, "p99_ms"),
            "stmt_per_s": sat_done / self.saturation_s,
            "cpu_us_per_item": _best_of(slices, "cpu_us_per_item"),
            "peak_rss_mb": tree.peak_rss_mb,
        }
        extras = {
            "setup_s_samples": setups,
            "latency_slices": slices,
            "sustained_rps": max(sustained) if sustained else 0,
            "rungs": rows,
            "saturation": {"depth_per_connection": self.saturation_depth,
                           "completed": sat_done, "seconds": self.saturation_s},
            "connections": N_CONNS,
            "error_rate": (mismatched + errors) / attempted,
            "answered": sum(len(p.done) for p in measured),
        }
        checks = {"zero_mismatched": mismatched == 0}
        return _round_result(metrics, extras, attempted, mismatched + errors, checks, layers)

    @staticmethod
    def _spans(spans, parent, name, phase):
        end = max([phase.end] + [rec[3] for rec in phase.done])
        pid = spans.add(name, phase.start, end, parent=parent)
        for key, due, sent, done in phase.done:
            spans.add("http.request", due, done, parent=pid, req=key, sent=sent)


class Script:
    """32-statement requests over a corpus larger than every cache."""

    batch = 32
    warm_share = 0.05
    #: The closed loop runs in this many back-to-back slices, each long
    #: enough for a p99 under the ten-beyond rule.
    slices = 8

    def __init__(self, ctx: Context, name: str, topology: str):
        self.name, self.topology = name, topology
        self.why = (
            f"script checks: 32-statement requests cycling 48k distinct SQLShare statements, "
            f"closed loop; every memo misses; {'local forkserver shards' if topology == 'shards' else 'TCP fleet agents'}"
        )
        n = 2048 if ctx.smoke else 48_000
        statements = ctx.cached(("sqlshare-unique", n), lambda: corpora.sqlshare_unique(n, ctx.seed))
        batches = [statements[i : i + self.batch] for i in range(0, n, self.batch)]

        def tables():
            truth = corpora.insight_dicts(ctx.facilitator, statements)
            return ([post("/insights", _body({"statements": b})) for b in batches],
                    [_expected(truth, b) for b in batches])

        self.requests, self.expected = ctx.cached(("script-tables", n), tables)
        self.sample = statements[:PROBE_N]
        self.bodies_digest = hashlib.sha256(b"".join(self.expected)).hexdigest()

    def run(self, ctx: Context, spans, traced: bool, parent) -> dict:
        setups, server, agents, address = _cold_starts(ctx, self.topology)
        load = None
        keys = itertools.cycle(range(len(self.requests)))
        phases, slices, layers = [], [], {}
        try:
            load = HttpLoad(address, N_CONNS, self.requests, self.expected)
            tree = ProcessTree({server.pid: "front", **{a.pid: "worker" for a in agents}})
            warm = load.closed_loop(keys.__next__, 1, self.warm_share * ctx.seconds)
            before = scrape(address) if traced else None
            for _ in range(self.slices):
                cpu0 = tree.walk()
                phase = load.closed_loop(keys.__next__, 1, ctx.seconds / self.slices)
                slices.append(_slice([(phase, cpu_delta(cpu0, tree.walk()))], self.batch, "sent"))
                phases.append(phase)
            if traced:
                layers = serving_layers(MetricsDelta([(before, scrape(address))]), phases,
                                        sharded=True)
                layers.update(_proc_layers(slices))
        finally:
            if load is not None:
                load.close()
            stop([server, *agents])
        if traced:
            for phase in phases:
                pid = spans.add("closed_loop_slice", phase.start, phase.end, parent=parent)
                for key, due, sent, done in phase.done:
                    spans.add("http.request", sent, done, parent=pid, req=key)
        mismatched = warm.mismatched + sum(p.mismatched for p in phases)
        errors = warm.errors + sum(p.errors for p in phases)
        attempted = warm.attempted + sum(p.attempted for p in phases)
        metrics = {
            "setup_s": median(setups),
            **{m: _best_of(slices, m) for m in SLICED},
            "peak_rss_mb": tree.peak_rss_mb,
        }
        extras = {
            "setup_s_samples": setups,
            "slices": slices,
            "connections": N_CONNS, "statements_per_request": self.batch,
            "distinct_statements": len(self.requests) * self.batch,
            "bodies_digest": self.bodies_digest,
            "error_rate": (mismatched + errors) / attempted,
        }
        checks = {"zero_mismatched": mismatched == 0}
        return _round_result(metrics, extras, attempted, mismatched + errors, checks, layers)


# -- offline --------------------------------------------------------------------


class Offline:
    name = "offline"
    why = ("DBA and model-maintainer jobs in one child process: log scan, bulk "
           "scoring to .jsonl.gz and retraining, each pooled over 2 workers; no serving layer")
    workers = 2
    production = ("scan_pooled", "bulk_pooled", "fit")

    def __init__(self, ctx: Context):
        from repro.workloads.io import LogWriter, WorkloadWriter, save_workload
        from repro.workloads.records import QueryRecord

        # 32k statements: >= 1000 serial 32-statement chunks per cycle
        hits, n_bulk, sessions = (4000, 2048, 60) if ctx.smoke else (20_000, 32_000, 150)
        work = ctx.work
        with LogWriter(work / "log.jsonl.gz") as writer:
            writer.write_many(corpora.sdss_log(hits, ctx.seed))
        statements = corpora.sqlshare_unique(n_bulk, ctx.seed + 1)
        with WorkloadWriter(work / "bulk.jsonl.gz") as writer:
            writer.write_many(QueryRecord(statement=s) for s in statements)
        truth = corpora.insight_dicts(ctx.facilitator, statements)
        self.expected_digest = hashlib.sha256(
            "".join(json.dumps(truth[s], sort_keys=True) + "\n" for s in statements).encode()
        ).hexdigest()
        save_workload(corpora.training_workload(sessions), work / "train.jsonl")
        self.sample = statements[:PROBE_N]
        self.config = {
            "artifact": str(ctx.artifact), "log": str(work / "log.jsonl.gz"),
            "statements": str(work / "bulk.jsonl.gz"), "train": str(work / "train.jsonl"),
            "work": str(work), "workers": self.workers, "seconds": ctx.seconds,
            "scan_chunk": 4096, "bulk_chunk": 2048,
        }

    def _child(self, ctx: Context, mode: str, traced: bool):
        path = ctx.work / f"offline_{mode}.json"
        path.write_text(json.dumps({**self.config, "mode": mode, "traced": traced}))
        script = Path(__file__).with_name("offline_job.py")
        started = time.perf_counter()
        proc = spawn([sys.executable, str(script), str(path)], ctx.root, ctx.work / "offline.log")
        lines = Lines(proc)
        while (line := lines.next(120.0)) is not None and '"ready"' not in line:
            pass
        if line is None:
            stop([proc])
            raise TimeoutError("offline job never became ready")
        return proc, lines, time.perf_counter() - started

    def run(self, ctx: Context, spans, traced: bool, parent) -> dict:
        setups = []
        for _ in range(COLD_STARTS - 1):
            proc, _, setup_s = self._child(ctx, "setup", traced)
            setups.append(setup_s)
            stop([proc])
        proc, lines, setup_s = self._child(ctx, "run", traced)
        setups.append(setup_s)
        tree = ProcessTree({proc.pid: "front"})
        jobs: list[dict] = []
        try:
            cpu_at = tree.walk()
            while True:
                line = lines.next(0.1)
                if line is None:
                    tree.walk()  # catch short-lived pool workers' peak RSS
                    continue
                event = json.loads(line)
                if event["event"] == "done":
                    break
                now_cpu = tree.walk()
                if event["event"] == "start":
                    cpu_at = now_cpu
                else:
                    event["cpu"] = cpu_delta(cpu_at, now_cpu)
                    jobs.append(event)
        finally:
            stop([proc])
        return self._result(jobs, setups, tree, spans if traced else None, parent)

    def _result(self, jobs, setups, tree, spans, parent) -> dict:
        cycles: dict[int, dict] = {}
        for job in jobs:
            cycles.setdefault(job["cycle"], {})[job["job"]] = job

        def wall(job):
            return job["end"] - job["start"]

        def rate(job):
            return job["items"] / wall(job)

        def over(name, fn):
            return median(fn(c[name]) for c in cycles.values() if name in c)

        slices = []  # the bulk-scoring job of each cycle
        for c in cycles.values():
            pooled = c["bulk_pooled"]
            chunk_ms = c["bulk_serial"].get("chunk_ms", [])
            p99 = tail(chunk_ms)
            slices.append({
                "p50_ms": median(chunk_ms), "p99_ms": p99["value"],
                "p99_percentile": p99["percentile"], "samples": p99["n"],
                "stmt_per_s": rate(pooled),
                "cpu_us_per_item": sum(pooled["cpu"].values()) * 1e6 / pooled["items"],
            })
        metrics = {
            "setup_s": median(setups),
            **{m: _best_of(slices, m) for m in SLICED},
            "peak_rss_mb": tree.peak_rss_mb,
        }
        fit_digests = {j["digest"] for j in jobs if j["job"].startswith("fit")}
        checks = {
            "scan_pooled_equals_serial": all(
                c["scan_serial"]["digest"] == c["scan_pooled"]["digest"] for c in cycles.values()),
            "bulk_matches_ground_truth": all(
                j["digest"] == self.expected_digest for j in jobs if j["job"].startswith("bulk")),
            "fit_deterministic": len(fit_digests) == 1,
        }
        failed = sum(1 for j in jobs if j["error"])
        extras = {
            "setup_s_samples": setups,
            "slices": slices,
            # not gated: BENCHMARK.json metrics must exist on every workload
            "records_per_s": over("scan_pooled", rate),
            "train_rows_per_s": over("fit", rate),
            "serial_records_per_s": over("scan_serial", rate),
            "serial_bulk_stmt_per_s": over("bulk_serial", rate),
            "errors": [j["error"] for j in jobs if j["error"]],
            "error_rate": failed / len(jobs),
        }
        layers = {}
        if spans is not None:
            layers = {
                "analytics.pool_efficiency": median(
                    wall(c["scan_serial"]) / (wall(c["scan_pooled"]) * self.workers) for c in cycles.values()),
                "analytics.bulk_pool_efficiency": median(
                    wall(c["bulk_serial"]) / (wall(c["bulk_pooled"]) * self.workers) for c in cycles.values()),
                "train.pool_efficiency": wall(cycles[0]["fit_serial"]) / (wall(cycles[0]["fit"]) * self.workers),
            }
            layers.update(_proc_layers([{"items": c[n]["items"], "cpu_s": c[n]["cpu"]}
                                        for c in cycles.values() for n in self.production]))
            for job in jobs:
                jid = spans.add(f"job:{job['job']}", job["start"], job["end"], parent=parent, cycle=job["cycle"])
                starts = job.get("chunk_starts", [])
                for start, ms in zip(starts, job.get("chunk_ms", [])):
                    spans.add("bulk.chunk", start, start + ms / 1e3, parent=jid)
        return _round_result(metrics, extras, len(jobs), failed + sum(not v for v in checks.values()),
                             checks, layers)


def build(name: str, ctx: Context):
    if name == "keystroke":
        return Keystroke(ctx)
    if name == "script-shards":
        return Script(ctx, name, "shards")
    if name == "script-fleet":
        return Script(ctx, name, "fleet")
    if name == "offline":
        return Offline(ctx)
    raise ValueError(name)


NAMES = ("keystroke", "script-shards", "script-fleet", "offline")
