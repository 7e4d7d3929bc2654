"""Statistics, spans and ``/metrics`` deltas shared by every workload.

Three rules live here so that every workload applies them the same way:

- **Percentiles** (:func:`tail`): a percentile is reported only when at
  least :data:`MIN_BEYOND` samples lie beyond it; otherwise the highest
  percentile the sample supports is reported instead, always with the
  sample count.
- **Spans** (:class:`Spans`): the harness records a span around each
  call it makes into the system (name, start, end, parent, request id),
  keeps them in memory and dumps them once at the end. A span's self
  time is its duration minus the union of its children's intervals.
- **Telemetry deltas** (:func:`scrape`, :class:`MetricsDelta`): the
  server's own Prometheus series, read before and after a phase.
"""

from __future__ import annotations

import http.client
import math
import statistics
from collections import defaultdict

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def tail(values, q: float = 0.99) -> dict:
    """Nearest-rank percentile ``q`` under the ten-beyond rule.

    Returns ``{"value", "percentile", "n"}``. When fewer than
    :data:`MIN_BEYOND` samples would lie beyond ``q``, ``percentile`` is
    lowered to the highest one (in steps of 0.1) that leaves ten beyond;
    with fewer than eleven samples the value is ``None``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= MIN_BEYOND:
        return {"value": None, "percentile": None, "n": n}
    # largest q' (0.1 steps) with n - ceil(q' n) >= MIN_BEYOND
    supported = math.floor(1000.0 * (n - MIN_BEYOND) / n) / 1000.0
    q = min(q, supported)
    rank = max(1, math.ceil(round(q * n, 9)))
    return {"value": ordered[rank - 1], "percentile": round(100.0 * q, 1), "n": n}


def median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def summarize(values) -> dict:
    """Median and quartiles of repeated measurements of one metric."""
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


# -- spans ---------------------------------------------------------------------


class Spans:
    """In-memory span log; one record per call the harness made."""

    def __init__(self):
        self.records: list[dict] = []

    def add(self, name, start, end, parent=None, req=None, **attrs) -> int:
        span_id = len(self.records)
        self.records.append(
            {"id": span_id, "name": name, "start": start, "end": end,
             "parent": parent, "req": req, **attrs}
        )
        return span_id

    def open(self, name, start, parent=None, **attrs) -> int:
        """Start a span whose end is filled in by :meth:`close`."""
        return self.add(name, start, None, parent=parent, **attrs)

    def close(self, span_id, end) -> None:
        self.records[span_id]["end"] = end


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(records) -> list[dict]:
    """Per span name: count, total and self milliseconds, largest first."""
    children = defaultdict(list)
    for rec in records:
        if rec["parent"] is not None:
            children[rec["parent"]].append((rec["start"], rec["end"]))
    table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for rec in records:
        duration = rec["end"] - rec["start"]
        covered = _union_length(children.get(rec["id"], ()), rec["start"], rec["end"])
        row = table[rec["name"]]
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered
    rows = [
        {"name": name, "count": n, "total_ms": total * 1e3, "self_ms": own * 1e3}
        for name, (n, total, own) in table.items()
    ]
    rows.sort(key=lambda row: -row["self_ms"])
    return rows


# -- the server's own telemetry ------------------------------------------------


def scrape(address) -> dict:
    """``GET /metrics`` parsed into ``{(name, labels): value}``."""
    from repro.obs.textfmt import parse_text

    conn = http.client.HTTPConnection(address[0], address[1], timeout=10)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()
    return {
        (name, tuple(sorted(sample["labels"].items()))): sample["value"]
        for name, family in parse_text(text).items()
        for sample in family["samples"]
    }


class MetricsDelta:
    """Summed differences of ``(before, after)`` scrape pairs, one pair per
    measured interval, with histogram helpers."""

    def __init__(self, pairs):
        self.delta: dict = defaultdict(float)
        for before, after in pairs:
            for key, value in after.items():
                self.delta[key] += value - before.get(key, 0.0)

    def value(self, name: str, **labels) -> float:
        return self.delta.get((name, tuple(sorted(labels.items()))), 0.0)

    def sum_where(self, name: str, label: str, predicate) -> float:
        """Summed delta of every series of ``name`` whose label matches."""
        return sum(v for key, v in self.delta.items()
                   if key[0] == name and predicate(dict(key[1]).get(label, "")))

    def mean(self, histogram: str) -> float | None:
        count = self.value(histogram + "_count")
        return self.value(histogram + "_sum") / count if count else None
