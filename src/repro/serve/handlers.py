"""Endpoint implementations for ``repro serve``.

Every handler is ``async def handler(app, request) -> (status, payload,
headers)``; the app's dispatcher turns that into bytes and records
per-endpoint latency.  The event-stream endpoint is the exception — it
owns the socket until the client goes away — and lives on the app
itself (:meth:`ServeApp.stream_events`).

The versioning contract: every cell response embeds the provenance
``config_hash`` of the resolved machine configuration plus the cache
and stats schema versions.  A client that pins a ``config_hash`` is
pinning its cache key — the same hash that addresses the result on
disk — so cross-version confusion is structurally impossible: a config
or schema change yields a different key, which is a different resource.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.parallel import (CACHE_SCHEMA_VERSION, Cell,
                                        CellFailure, cell_key,
                                        resolve_engine)
from repro.serve.http import HttpError
from repro.sim.provenance import (STATS_SCHEMA_VERSION, config_hash,
                                   peak_rss_kb)

#: Spec fields a client may send; everything else is a 400 (typos in a
#: field name must not silently simulate the default instead).
CELL_FIELDS = ("mix", "scheme", "n_accesses", "warmup", "seed",
               "frame_policy", "n_cores", "engine_seed")
CELL_DEFAULTS = {"warmup": 0, "seed": 123, "frame_policy": "fragmented",
                 "n_cores": 4, "engine_seed": 11}
FRAME_POLICIES = ("sequential", "fragmented", "random")

#: Hex length of a cell key (sha256 truncation in cell_key()).
KEY_LEN = 32


def parse_cell(body: dict, max_accesses: int) -> Cell:
    """Validate a JSON cell spec into a :class:`Cell`; 400 on anything
    malformed, unknown, or over the per-cell size cap."""
    if not isinstance(body, dict):
        raise HttpError(400, "cell spec must be a JSON object")
    unknown = set(body) - set(CELL_FIELDS) - {"wait"}
    if unknown:
        raise HttpError(400, f"unknown cell fields: {sorted(unknown)}")
    for req_field in ("mix", "scheme", "n_accesses"):
        if req_field not in body:
            raise HttpError(400, f"missing required field {req_field!r}")
    spec = dict(CELL_DEFAULTS)
    spec.update({k: body[k] for k in CELL_FIELDS if k in body})
    for int_field in ("n_accesses", "warmup", "seed", "n_cores",
                      "engine_seed"):
        if not isinstance(spec[int_field], int) \
                or isinstance(spec[int_field], bool):
            raise HttpError(400, f"{int_field} must be an integer")
    if not 0 < spec["n_accesses"] <= max_accesses:
        raise HttpError(
            400, f"n_accesses must be in 1..{max_accesses}")
    if not 0 <= spec["warmup"] < spec["n_accesses"]:
        raise HttpError(400, "warmup must be in 0..n_accesses-1")
    if not 1 <= spec["n_cores"] <= 64:
        raise HttpError(400, "n_cores must be in 1..64")
    if spec["frame_policy"] not in FRAME_POLICIES:
        raise HttpError(400, f"frame_policy must be one of "
                             f"{list(FRAME_POLICIES)}")
    from repro.workloads.mixes import MIXES
    if spec["mix"] not in MIXES:
        raise HttpError(400, f"unknown mix {spec['mix']!r}")
    try:
        resolve_engine(spec["scheme"])
    except (KeyError, ValueError):
        raise HttpError(400, f"unknown scheme {spec['scheme']!r}")
    return Cell(**spec)


def cell_spec_dict(cell: Cell | None) -> dict | None:
    """JSON echo of a cell spec (explicit MachineConfigs are folded
    into the config_hash rather than dumped wholesale)."""
    if cell is None:
        return None
    spec = dataclasses.asdict(cell)
    spec["config"] = None if cell.config is None else "explicit"
    return spec


def build_envelope(key: str, cell: Cell | None, outcome) -> tuple:
    """(http_status, envelope) for a completed outcome.

    Deterministic failures (starvation, OOM of the *modeled* machine)
    are results — HTTP 200 with ``status: "failed"`` — while transient
    host failures map to 5xx and are never cached.
    """
    env = {
        "key": key,
        "config_hash": (config_hash(cell.resolve_config())
                        if cell is not None else None),
        "schema": {"cache": CACHE_SCHEMA_VERSION,
                   "stats": STATS_SCHEMA_VERSION},
        "cell": cell_spec_dict(cell),
    }
    if isinstance(outcome, CellFailure):
        env["status"] = "failed"
        env["outcome"] = {"kind": outcome.kind,
                          "message": outcome.message}
        if outcome.kind == "timeout":
            return 504, env
        if outcome.kind == "worker-crashed":
            return 503, env
        return 200, env
    env["status"] = "done"
    env["outcome"] = outcome.to_dict()
    return 200, env


def _require_key(request) -> str:
    parts = request.parts
    key = parts[1] if len(parts) > 1 else ""
    if len(key) != KEY_LEN or any(c not in "0123456789abcdef"
                                  for c in key):
        raise HttpError(400, f"malformed cell key {key!r} "
                             f"(expected {KEY_LEN} hex chars)")
    return key


async def post_cells(app, request) -> tuple:
    """Submit a cell spec: warm answers come straight from cache, cold
    ones are queued (bounded) or coalesced onto an in-flight run."""
    body = request.json()
    wait = body.get("wait", True) if isinstance(body, dict) else True
    cell = parse_cell(body, app.max_accesses)
    key = cell_key(cell)

    served = app.lookup_warm(key)
    if served is not None:
        status, env, source = served
        return status, env, {"X-Served-From": source}

    entry = app.inflight.get(key)
    if entry is None:
        entry = app.admit(key, cell)   # raises HttpError 429 when full
        source = "computed"
    else:
        app.metrics.counter("coalesced_joins").inc()
        source = "coalesced"
    if not wait:
        return 202, {"key": key, "status": "queued",
                     "config_hash": config_hash(cell.resolve_config())}, \
            {"X-Served-From": source}
    status, env = await entry.wait()
    return status, env, {"X-Served-From": source}


async def get_cell(app, request) -> tuple:
    """Addressable results: 200 from cache, 202 while in flight, else
    404 — the content-hashed key *is* the resource name."""
    key = _require_key(request)
    served = app.lookup_warm(key)
    if served is not None:
        status, env, source = served
        return status, env, {"X-Served-From": source}
    entry = app.inflight.get(key)
    if entry is not None:
        return 202, {"key": key, "status": "running",
                     "age_s": round(entry.age_s, 3)}, {}
    raise HttpError(404, f"no result for cell {key}")


async def healthz(app, request) -> tuple:
    q = app.queue
    return 200, {
        "ok": True,
        "uptime_s": round(app.uptime_s, 3),
        "queue": {"pending": q.pending, "depth": q.depth,
                  "jobs": q.jobs, "submitted": q.submitted,
                  "rejected": q.rejected, "completed": q.completed},
        "inflight": len(app.inflight),
        "cache": {"hits": app.cache.hits, "misses": app.cache.misses,
                  "stores": app.cache.stores,
                  "recovered": app.cache.recovered,
                  "migrated": app.cache.migrated,
                  "tmp_swept": app.cache.tmp_swept},
        "memo": {"entries": len(app.memo), "size": app.memo_size},
    }, {}


async def metrics(app, request) -> tuple:
    app.refresh_gauges()
    # The manifest was built at start-up; peak RSS is re-read per request
    # so it tracks the server's high-water mark.
    host = dict(app.manifest["host"], peak_rss_kb=peak_rss_kb())
    return 200, {"metrics": app.metrics.snapshot(),
                 "manifest": dict(app.manifest, host=host)}, {}
