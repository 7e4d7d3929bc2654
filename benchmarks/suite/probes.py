"""Layer probes: each layer's public function over the workload corpus.

A probe times one call path of one layer on the same statements the
workload sends, so a per-layer number can be compared across workloads
and attributed to the end-to-end metric it should move. Each probe takes
the median of :data:`REPS` passes; per-statement figures divide by the
number of statements in a pass. Every probe call is recorded as a span.

The probes run in one child process (``python probes.py CONFIG.json``,
started by :func:`run_in_child`) so that the services they start, and
the forkserver those start, end with the session the harness stops.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from measure import median
from procs import Lines, read_line, spawn, spawn_repro, stop

REPS = 3
BATCH = 32


def _batches(statements, size=BATCH):
    return [statements[i : i + size] for i in range(0, len(statements), size)]


class Prober:
    def __init__(self):
        self.values: dict[str, float] = {}
        self.spans: list[tuple[str, float, float]] = []

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        yield
        self.spans.append((f"probe:{name}", start, time.perf_counter()))

    def time(self, name, fn, per=1, scale=1e6, setup=None) -> float:
        """Median over REPS of ``fn()``; stores seconds × scale / per."""
        samples = []
        with self.span(name):
            for _ in range(REPS):
                if setup is not None:
                    setup()
                start = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - start)
        self.values[name] = median(samples) * scale / per
        return self.values[name]


def log_records(statements):
    """Log entries carrying ``statements`` in sessions of 20 hits."""
    from repro.workloads.records import LogEntry

    return [
        LogEntry(statement=s, session_id=i // 20, session_class="bot",
                 error_class="success", answer_size=1.0, cpu_time=1.0 + i % 7,
                 ip=f"10.0.{i // 5120}.{i // 20 % 256}", timestamp=float(i))
        for i, s in enumerate(statements)
    ]


def run_probes(statements, artifact: Path, root: Path, work: Path) -> Prober:
    from repro.analytics.aggregators import (
        RepetitionAggregator, SessionStatsAggregator, TemplateAggregator,
    )
    from repro.core.facilitator import QueryFacilitator
    from repro.inference import compile_plan
    from repro.ml.logistic import LogisticRegression
    from repro.nn.lstm import LSTMLayer
    from repro.sqlang.features import extract_features
    from repro.sqlang.lexer import tokenize
    from repro.sqlang.normalize import template_cache_clear, template_cache_stats, template_of
    from repro.sqlang.parser import parse_sql
    from repro.text.encode import SequenceEncoder
    from repro.text.tfidf import TfidfVectorizer
    from repro.text.vocab import build_char_vocab
    from repro.workloads.io import LogWriter, iter_log

    p = Prober()
    n = len(statements)
    batches = _batches(statements)
    unique = list(dict.fromkeys(statements))

    # repro.sqlang
    p.time("sqlang.tokenize_us", lambda: [tokenize(s) for s in statements], per=n)
    parsed = [parse_sql(s) for s in statements]
    p.time("sqlang.parse_us", lambda: [parse_sql(s) for s in statements], per=n)
    p.time("sqlang.features_us",
           lambda: [extract_features(s, r) for s, r in zip(statements, parsed)], per=n)
    p.time("sqlang.template_us.cold", lambda: [template_of(s) for s in statements],
           per=n, setup=template_cache_clear)
    p.time("sqlang.template_us.warm", lambda: [template_of(s) for s in statements], per=n)
    template_cache_clear()
    before = template_cache_stats()
    for s in statements:
        template_of(s)
    after = template_cache_stats()
    p.values["sqlang.template_hit_rate"] = (after["hits"] - before["hits"]) / n

    # repro.inference and repro.core
    p.time("inference.load_ms", lambda: QueryFacilitator.load(artifact, mmap=True), scale=1e3)
    facilitator = QueryFacilitator.load(artifact, mmap=True)
    p.time("inference.compile_ms", lambda: compile_plan(facilitator), scale=1e3)
    plan = compile_plan(facilitator)
    vectorizer = plan.blocks[0].vectorizer
    p.time("inference.vectorize_us", lambda: [vectorizer.transform(b) for b in batches], per=n)

    def predict_all():
        from repro.core.facilitator import QueryInsights

        for b in batches:
            plan.predict_into(b, [QueryInsights(statement=s) for s in b])

    p.time("inference.plan_us", predict_all, per=n)
    p.time("core.insights_batch_us",
           lambda: [facilitator.insights_batch(b) for b in batches], per=n)
    insights = [i for b in batches for i in facilitator.insights_batch(b)]
    p.time("core.encode_us", lambda: [json.dumps(i.to_dict()) for i in insights], per=n)

    # repro.workloads.io
    records = log_records(statements)
    path = work / "probe_log.jsonl.gz"

    def write():
        with LogWriter(path) as writer:
            writer.write_many(records)

    p.time("io.write_us", write, per=n)
    p.time("io.read_us", lambda: sum(1 for _ in iter_log(path)), per=n)

    # repro.analytics
    for name, make in (("templates", TemplateAggregator),
                       ("repetition", RepetitionAggregator),
                       ("sessions", SessionStatsAggregator)):
        p.time(f"analytics.map_us.{name}", lambda make=make: make().map_chunk(records),
               per=n, setup=template_cache_clear)
    chunks = _batches(records, 128)
    aggregators = (TemplateAggregator(), RepetitionAggregator(), SessionStatsAggregator())
    partials = []

    def map_all():  # combine consumes its partials, so every pass gets fresh ones
        partials[:] = [[agg.map_chunk(c) for c in chunks] for agg in aggregators]

    def combine():
        for agg, parts in zip(aggregators, partials):
            acc = None
            for part in parts:
                acc = agg.combine(acc, part)

    p.time("analytics.combine_ms", combine, per=len(chunks), scale=1e3, setup=map_all)

    # training layers: repro.text, repro.ml, repro.nn
    head = next(h for h in facilitator.heads.values() if hasattr(h.model, "vectorizer"))
    v = head.model.vectorizer
    p.time("text.tfidf_fit_us",
           lambda: TfidfVectorizer(level=v.level, max_features=v.max_features, min_n=v.min_n,
                                   max_n=v.max_n, max_len=v.max_len,
                                   mask_digits=v.mask_digits).fit(unique),
           per=len(unique))
    from corpora import TRAIN_SCALE

    encoder = SequenceEncoder(build_char_vocab(unique), "char", max_len=TRAIN_SCALE.max_len_char)
    p.time("text.encode_us", lambda: encoder.encode_batch(statements), per=n)
    features = v.transform(unique)
    labels = np.arange(len(unique)) % 3
    p.time("ml.logistic_fit_s",
           lambda: LogisticRegression(num_classes=3, epochs=2).fit(features, labels), scale=1.0)
    rng = np.random.default_rng(0)
    layer = LSTMLayer(TRAIN_SCALE.embed_dim, TRAIN_SCALE.lstm_hidden, rng)
    x = rng.standard_normal((TRAIN_SCALE.batch_size, TRAIN_SCALE.max_len_char, TRAIN_SCALE.embed_dim))

    def lstm_steps():
        for _ in range(5):
            layer.backward(np.ones_like(layer.forward(x)))

    p.time("nn.lstm_step_ms", lstm_steps, per=5, scale=1e3)

    # repro.serving: the same 32-statement batches through each service
    p.values.update(_roundtrips(batches[:64], facilitator, artifact, root, work, p))
    return p


def _roundtrips(batches, facilitator, artifact, root, work, p) -> dict:
    from repro.serving import (
        FacilitatorService, FleetFacilitatorService, ShardedFacilitatorService,
    )

    def per_stmt(service) -> float:
        service.submit(batches[0]).result(60)  # first batch compiles the plan
        times = []
        for b in batches:
            start = time.perf_counter()
            service.submit(b).result(60)
            times.append((time.perf_counter() - start) / len(b))
        return median(times) * 1e6

    out = {}
    with p.span("serving.roundtrip.inproc"), FacilitatorService(facilitator, cache_size=0) as svc:
        out["serving.roundtrip_us_per_stmt.inproc"] = per_stmt(svc)
    with p.span("serving.roundtrip.shards"), ShardedFacilitatorService(
        artifact, n_workers=2, cache_size=0, mmap=True
    ) as svc:
        out["serving.roundtrip_us_per_stmt.shards"] = per_stmt(svc)
    agents = [spawn_repro(["worker", "--listen", "127.0.0.1:0"], root, work / "probe.log")
              for _ in range(2)]
    try:
        endpoints = [read_line(a, "listening on").split()[-1].rpartition(":") for a in agents]
        with p.span("serving.roundtrip.fleet"), FleetFacilitatorService(
            artifact, endpoints=[(h, int(port)) for h, _, port in endpoints], cache_size=0, mmap=True
        ) as svc:
            out["serving.roundtrip_us_per_stmt.fleet"] = per_stmt(svc)
    finally:
        stop(agents)
    return out


def run_in_child(statements, artifact: Path, root: Path, work: Path, spans, parent) -> dict:
    """Run :func:`run_probes` in a child process; returns its values and
    records its spans under ``parent``."""
    config = work / "probes.json"
    config.write_text(json.dumps({"statements": statements, "artifact": str(artifact),
                                  "root": str(root), "work": str(work)}))
    proc = spawn([sys.executable, __file__, str(config)], root, work / "probes.log")
    try:
        result = json.loads(Lines(proc).next(600.0) or "null")
    finally:
        stop([proc])
    if result is None:
        raise TimeoutError("layer probes did not finish")
    for name, start, end in result["spans"]:
        spans.add(name, start, end, parent=parent)
    return result["values"]


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as handle:
        cfg = json.load(handle)
    p = run_probes(cfg["statements"], Path(cfg["artifact"]), Path(cfg["root"]), Path(cfg["work"]))
    print(json.dumps({"values": p.values, "spans": p.spans}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
