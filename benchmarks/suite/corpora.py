"""Seeded inputs: the statement corpora, the raw log and the served model.

Every input is a pure function of ``--seed`` except the served artifact
and the retraining workload, which are the system's configuration rather
than its traffic: every workload and seed scores against the same model
and retrains on the same labelled workload.

- ``sdss-zipf`` — SDSS templates weighted Zipf(s=1.1) (which templates
  are popular is drawn from the seed, the weighted-template shape of a
  query-log generator), with ~70% of statements repeating an earlier
  one, the repetition level of the paper's Figure 20.
- ``sqlshare-unique`` — distinct SQLShare-shaped statements over 200
  per-user schemas: no statement repeats, so caches cannot help.
- ``sdss-log`` — a raw log of sessions of hits drawn from ``sdss-zipf``,
  with per-IP sessions separated by more than the 30-minute
  sessionization gap.
"""

from __future__ import annotations

import numpy as np

from repro.core.facilitator import QueryFacilitator
from repro.models.factory import ModelScale
from repro.workloads.querygen import SDSS_TEMPLATES, SQLSHARE_TEMPLATES
from repro.workloads.records import LogEntry
from repro.workloads.schema import sdss_catalog, sqlshare_catalog, sqlshare_username
from repro.workloads.sdss import generate_sdss_workload
from repro.workloads.sqlshare import SQLSHARE_TEMPLATE_WEIGHTS

REPEAT_SHARE = 0.70
ZIPF_S = 1.1
#: Serving artifact: a ctfidf facilitator on a fixed SDSS workload.
ARTIFACT_SESSIONS, ARTIFACT_SEED = 120, 21
ARTIFACT_SCALE = ModelScale(epochs=2, tfidf_features=2000)
#: Offline retraining: ctfidf and a narrowed clstm, two epochs each.
TRAIN_SEED = 13
TRAIN_SCALE = ModelScale(
    epochs=2, tfidf_features=2000, lstm_hidden=32, max_len_char=96, batch_size=32
)


def sdss_zipf(n: int, seed: int) -> list[str]:
    """``n`` statements; ~70% repeat an earlier one (uniformly chosen)."""
    rng = np.random.default_rng([seed, 1])
    catalog = sdss_catalog()
    names = list(SDSS_TEMPLATES)
    rng.shuffle(names)
    weights = 1.0 / np.arange(1, len(names) + 1) ** ZIPF_S
    picks = rng.choice(len(names), size=n, p=weights / weights.sum())
    repeats = rng.random(n) < REPEAT_SHARE
    pool: list[str] = []
    stream: list[str] = []
    for i in range(n):
        if pool and repeats[i]:
            stream.append(pool[int(rng.integers(len(pool)))])
        else:
            statement = SDSS_TEMPLATES[names[picks[i]]](rng, catalog)
            pool.append(statement)
            stream.append(statement)
    return stream


def sqlshare_unique(n: int, seed: int, n_users: int = 200) -> list[str]:
    """``n`` distinct SQLShare-shaped statements in generation order."""
    rng = np.random.default_rng([seed, 2])
    catalogs = [
        sqlshare_catalog(sqlshare_username(u), seed=seed * 100_003 + u)
        for u in range(n_users)
    ]
    names = list(SQLSHARE_TEMPLATE_WEIGHTS)
    weights = np.asarray([SQLSHARE_TEMPLATE_WEIGHTS[t] for t in names])
    distinct: dict[str, None] = {}
    while len(distinct) < n:
        picks = rng.choice(len(names), size=n, p=weights / weights.sum())
        users = rng.integers(n_users, size=n)
        for pick, user in zip(picks, users):
            distinct.setdefault(SQLSHARE_TEMPLATES[names[pick]](rng, catalogs[user]), None)
            if len(distinct) == n:
                break
    return list(distinct)


def sdss_log(n_hits: int, seed: int) -> list[LogEntry]:
    """A raw log of ``n_hits`` hits in sessions, in timestamp order per IP."""
    rng = np.random.default_rng([seed, 3])
    statements = sdss_zipf(n_hits, seed + 1)
    classes = ["bot", "browser", "program", "admin", "anonymous"]
    class_p = [0.45, 0.25, 0.15, 0.05, 0.10]
    last_seen: dict[str, float] = {}
    entries: list[LogEntry] = []
    clock = 0.0
    session_id = 0
    while len(entries) < n_hits:
        session_class = classes[rng.choice(len(classes), p=class_p)]
        if session_class == "bot":
            ip = f"66.249.64.{int(rng.integers(1, 30))}"
        else:
            ip = ".".join(str(int(x)) for x in rng.integers(1, 255, size=4))
        clock += float(rng.uniform(0, 60))
        # a returning IP starts a new session past the 30-minute gap
        ts = max(clock, last_seen.get(ip, -1e18) + 1801.0 + float(rng.uniform(0, 600)))
        for _ in range(min(int(rng.geometric(1 / 15)), n_hits - len(entries))):
            cpu = float(rng.exponential(2.0))
            entries.append(
                LogEntry(
                    statement=statements[len(entries)],
                    session_id=session_id,
                    session_class=session_class,
                    error_class="success",
                    answer_size=1.0,
                    cpu_time=cpu,
                    ip=ip,
                    timestamp=ts,
                    elapsed_time=cpu * 1.1,
                )
            )
            ts += min(float(rng.exponential(120.0)), 1500.0)
        last_seen[ip] = ts
        session_id += 1
    return entries


def training_workload(n_sessions: int):
    """Labelled SDSS workload for the offline retraining job.

    Fixed like the served artifact: the ``clstm`` fit's peak memory swings
    with the particular statements (119 vs 164 MB serially for two
    150-session seeds), which would otherwise be most of the spread of
    ``peak_rss_mb`` across seeds.
    """
    return generate_sdss_workload(n_sessions=n_sessions, seed=TRAIN_SEED)


def train_artifact(path) -> QueryFacilitator:
    """Save the serving artifact; return it loaded the way servers load it."""
    workload = generate_sdss_workload(n_sessions=ARTIFACT_SESSIONS, seed=ARTIFACT_SEED)
    QueryFacilitator(model_name="ctfidf", scale=ARTIFACT_SCALE).fit(workload).save(path)
    return QueryFacilitator.load(path, mmap=True)


def insight_dicts(facilitator: QueryFacilitator, statements) -> dict[str, dict]:
    """Ground truth: ``statement -> to_dict()`` computed in this process."""
    unique = list(dict.fromkeys(statements))
    truth: dict[str, dict] = {}
    for i in range(0, len(unique), 512):
        chunk = unique[i : i + 512]
        for statement, insight in zip(chunk, facilitator.insights_batch(chunk)):
            truth[statement] = insight.to_dict()
    return truth
