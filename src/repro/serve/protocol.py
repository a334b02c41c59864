"""Line-delimited JSON protocol for ``repro serve``.

One request per input line, one response per output line, both JSON
objects. Requests carry an ``op`` plus op-specific fields; responses
echo the request ``id`` (when given) and either the result fields with
``"ok": true`` or ``{"ok": false, "error": ..., "type": ...}``.

Request shapes
--------------
``{"op": "find_seeds", "targets": [...], "tags": [...], "k": 2,
   "engine": "trs", "seed": 0, "deadline": 5.0}``
   (query ops also accept ``max_samples`` / ``max_rr_members`` budget
   caps alongside ``deadline``)
``{"op": "find_tags", "seeds": [...], "targets": [...], "r": 2,
   "method": "batch", "seed": 0}``
``{"op": "joint", "targets": [...], "k": 2, "r": 2, "seed": 0}``
``{"op": "spread", "seeds": [...], "targets": [...], "tags": [...],
   "num_samples": 200, "seed": 0}``
``{"op": "warm_index", "tags": [...], "theta_c": 64, "seed": 0}``
``{"op": "apply_edits", "edits": [{"op": "tag_set", "edge_id": 3,
   "tag": "a", "prob": 0.4}, ...], "repair": true}``
   (mutable servers only; replies are epoch-tagged — ``epoch`` /
   ``previous_epoch`` / dirty sizes / per-disposition asset counts)
``{"op": "metrics"}`` / ``{"op": "health"}`` / ``{"op": "ping"}``
``{"op": "events", "limit": 50}``
   (the most recent query-lifecycle events, schema
   ``repro.obs.events/2`` — the same document the live telemetry
   endpoint serves at ``/events``; against a shard router this is the
   causally merged fleet stream, each record labeled with its source
   ``worker`` and the fleet ``epoch``)
``{"op": "trace", "trace_id": "t-000001"}``
   (the ``repro.obs.trace/1`` document served at ``/trace``;
   ``enabled: false`` when the server runs without tracing)
``{"op": "flightrec", "limit": 10}``
   (the slow-query flight recorder, ``repro.obs.flight/1``, as served
   at ``/debug/slow``)

Both server kinds answer every op with the same reply shape; a shard
router adds only its documented fleet fields (``workers`` on ``ping``,
``metrics`` and ``apply_edits``).

Distributed tracing: a query may carry a compact trace context under
the private ``"_trace"`` key (``{"trace_id": ..., "parent_span_id":
...}``, see :mod:`repro.obs.distributed`). The server strips it before
it reads the query's fields — validation and responses are
byte-identical with or without it — so the executing query's spans
root under the propagating router's ``serve.query`` span.

Query responses include ``cache`` (``"miss"``/``"hit"``) and
``elapsed_ms``; pass ``"report": true`` in a request to inline the full
per-query observability report. EOF on the input stream shuts the
server down cleanly after draining in-flight queries.

QoS surface
-----------
Query ops accept ``"class"`` (alias ``"qos_class"``): one of
``interactive`` (default) / ``batch`` / ``best_effort``. Responses add
``"class"``, ``"tier"`` (``full`` unless the answer was served
degraded) and — for non-full tiers — the ``"degraded"`` payload with
the quantified-error tag (θ used, effective ε, CI width).

Admission-control rejections (overload, unmeetable deadline, shed,
circuit breaker) are *structured*: ``"error"`` is an object, not a
string — ``{"ok": false, "type": ..., "error": {"code": "overloaded" |
"deadline" | "shed" | "breaker_open", "message": ..., "retry_after_ms":
..., "class": ...}}`` — so clients can implement backoff without
parsing prose. Every other failure keeps the flat string ``"error"``.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import Future
from typing import Any, Callable, IO

from repro.exceptions import QueryRejectedError, ReproError

__all__ = [
    "execute_request", "handle_line", "handle_request", "serve_stdio",
    "submit_request", "warm",
]

QUERY_OPS = ("find_seeds", "find_tags", "joint", "spread")

#: Failures a request can cause; each becomes an error response.
_REQUEST_ERRORS = (
    ReproError, json.JSONDecodeError, KeyError, ValueError, TypeError,
)


def _limit(request: dict) -> int | None:
    limit = request.get("limit")
    return int(limit) if limit is not None else None


def _warm_index(server, request: dict) -> dict:
    return {"warmed_tags": server.warm_index(
        tags=request.get("tags"),
        theta_c=request.get("theta_c"),
        r=int(request.get("r", 2)),
        seed=int(request.get("seed", 0)),
    )}


def _apply_edits(server, request: dict) -> dict:
    edits = request.get("edits")
    if not isinstance(edits, list):
        raise ReproError("apply_edits requires an \"edits\" list")
    summary = server.apply_edits(
        edits, repair=bool(request.get("repair", True))
    )
    summary["elapsed_ms"] = round(
        summary.pop("elapsed_seconds") * 1000.0, 3
    )
    return summary


#: The admin ops, for every server kind: each entry calls the
#: same-named method of a ``CampaignServer`` or a
#: ``ShardedCampaignService``.
_ADMIN_OPS: dict[str, Callable[[Any, dict], dict]] = {
    "ping": lambda server, request: server.ping(),
    "metrics": lambda server, request: server.metrics_payload(),
    "health": lambda server, request: {"health": server.health()},
    "events": lambda server, request: server.events_payload(
        _limit(request)
    ),
    "trace": lambda server, request: server.trace_payload(
        request.get("trace_id")
    ),
    "flightrec": lambda server, request: server.flight_payload(
        _limit(request)
    ),
    "warm_index": _warm_index,
    "apply_edits": _apply_edits,
}


def execute_request(server, request: dict) -> dict:
    """Run one decoded request against either server kind (blocking).

    Returns the response fields (without ``ok``). Query ops go to
    ``server.query``: a :class:`~repro.serve.CampaignServer` parses and
    submits them, a :class:`~repro.serve.ShardedCampaignService` routes
    the dict to a worker. Admin ops dispatch through one table to
    same-named methods of either kind. Raises on invalid requests —
    :func:`handle_line` turns that into an error response.
    """
    op = request.get("op")
    if op in QUERY_OPS:
        return server.query(request)
    admin = _ADMIN_OPS.get(op) if isinstance(op, str) else None
    if admin is None:
        raise ReproError(
            f"unknown op {op!r}; expected one of "
            f"{QUERY_OPS + tuple(_ADMIN_OPS)}"
        )
    return admin(server, request)


def handle_line(server, line: str) -> dict:
    """Decode one request line and return the response dict.

    Every failure mode — bad JSON, unknown op, library errors, budget
    and overload rejections — becomes a well-formed error response; the
    protocol loop never dies on a bad request.
    """
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        return error_response(exc)
    return handle_request(server, request)


def error_response(exc: BaseException) -> dict:
    """The wire shape of a failed request.

    Admission-control rejections are machine-actionable: clients
    implement backoff from ``code`` / ``retry_after_ms``, never from
    prose. Every other failure is a flat ``error`` string.
    """
    if isinstance(exc, QueryRejectedError):
        error: Any = {
            "code": exc.code,
            "message": str(exc),
            "retry_after_ms": exc.retry_after_ms,
            "class": exc.qos_class,
        }
    else:
        error = str(exc) or repr(exc)
    return {"ok": False, "error": error, "type": type(exc).__name__}


def _settle(request_id, result: Callable[[], dict]) -> dict:
    """The response to one request whose fields ``result()`` returns.

    A request failure ``result()`` raises becomes an error response;
    anything else propagates. The request's ``id`` is echoed either way.
    """
    try:
        response: dict[str, Any] = {"ok": True, **result()}
    except _REQUEST_ERRORS as exc:
        response = error_response(exc)
    if request_id is not None:
        response["id"] = request_id
    return response


def handle_request(server, request: object) -> dict:
    """Run one decoded request and shape the full response dict.

    The dict-level core of :func:`handle_line`, shared by the stdio
    loop and the shard workers' admin ops (whose requests arrive over a
    pipe already decoded). Same guarantee: every failure becomes a
    well-formed error response.
    """
    if not isinstance(request, dict):
        return error_response(ReproError("request must be a JSON object"))
    return _settle(
        request.get("id"), lambda: execute_request(server, request)
    )


def submit_request(
    server, request: dict, reply: Callable[[dict], None]
) -> None:
    """Admit one decoded query-op request; ``reply`` gets its response.

    The non-blocking form of :func:`handle_request` for a
    :class:`~repro.serve.CampaignServer`: ``server.submit_query`` parses
    and queues the query, and ``reply`` runs with the full response dict
    when it completes, on the server thread that finished it (at once,
    on the calling thread, if it fails to parse or is refused
    admission). The response is the one :func:`handle_request` gives,
    byte for byte; an error :func:`handle_request` would let propagate
    gets an error reply without the ``id``. A shard worker's receive
    loop serves its queries through this, so a query crosses one
    thread hop inside the worker.
    """
    request_id = request.get("id")
    try:
        future = server.submit_query(request)
    except Exception as exc:  # the reply carries it, as in ``done``
        future = Future()
        future.set_exception(exc)

    def done(finished: Future) -> None:
        try:
            response = _settle(request_id, finished.result)
        except Exception as exc:  # a reply is owed whatever happens
            response = error_response(exc)
        reply(response)

    future.add_done_callback(done)


def warm(server, requests: list) -> int:
    """Run a list of request dicts before serving (``repro serve --warm``).

    Each request goes through :func:`handle_request`, so on either
    server kind it takes the path a wire request takes: a query builds
    its asset where the repeat query will read it, and an admin op such
    as ``apply_edits`` reaches every worker of a fleet. Returns the
    number of requests run; the first failed one raises, so a bad warm
    file is loud.
    """
    for request in requests:
        response = handle_request(server, dict(request))
        if not response["ok"]:
            raise ReproError(f"warm request failed: {response['error']}")
    return len(requests)


def serve_stdio(
    server,
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
) -> int:
    """Run the request/response loop until EOF. Returns request count."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    handled = 0
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        response = handle_line(server, line)
        stdout.write(json.dumps(response) + "\n")
        stdout.flush()
        handled += 1
    return handled
