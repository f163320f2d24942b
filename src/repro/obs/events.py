"""The versioned trace-event schema (see ``docs/OBSERVABILITY.md``).

Events are plain dicts so every sink can serialize them without an
intermediate object layer. Schema version 1 defines five event kinds:

``trace_start``
    Emitted once per tracer, before any span: carries the schema
    version and the build version so traces are attributable.
``span_start`` / ``span_end``
    Entry/exit of a named, nested span. ``path`` is the ``/``-joined
    chain of active span names, ``depth`` its length; ``attrs`` carries
    caller-supplied labels (e.g. the current ``minsup``). ``span_end``
    adds ``duration`` (seconds).
``counter``
    A monotone accumulation: occurrences of a named thing (records,
    MFIs mined, pairs dropped). Aggregation sums values per name.
``gauge``
    A point-in-time measurement (distinct transactions, vocabulary size).
    Aggregation keeps the last value per name.

Determinism contract: for a deterministic workload, two runs emit the
same event sequence except for the fields named in
:data:`TIMESTAMP_FIELDS` — everything else (ordering included) is
reproducible, which :func:`strip_timestamps` lets tests assert.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

__all__ = [
    "SCHEMA_VERSION",
    "TRACE_START",
    "SPAN_START",
    "SPAN_END",
    "COUNTER",
    "GAUGE",
    "TIMESTAMP_FIELDS",
    "SCHEDULE_ATTRS",
    "strip_timestamps",
    "strip_volatile",
]

#: Version of the event (and report) schema; bump on breaking change.
SCHEMA_VERSION = 1

TRACE_START = "trace_start"
SPAN_START = "span_start"
SPAN_END = "span_end"
COUNTER = "counter"
GAUGE = "gauge"

#: The only event fields allowed to differ between identical runs.
TIMESTAMP_FIELDS = ("t", "duration")

#: Span attributes that depend on the OS schedule, not the workload:
#: merged worker events carry the pid of whichever pool worker happened
#: to pick the chunk up. Everything else about a merged worker event —
#: path, depth, chunk index, ordering — is workload-determined.
SCHEDULE_ATTRS = ("worker",)


def strip_timestamps(event: Mapping[str, Any]) -> Dict[str, Any]:
    """Copy of ``event`` without its wall-time fields.

    Two traces of the same deterministic run must be equal after this
    projection — the property ``tests/test_end_to_end_determinism.py``
    pins.
    """
    return {
        key: value
        for key, value in event.items()
        if key not in TIMESTAMP_FIELDS
    }


def strip_volatile(event: Mapping[str, Any]) -> Dict[str, Any]:
    """:func:`strip_timestamps` plus the schedule-dependent attributes.

    The projection under which two traces of the same deterministic
    *parallel* run must be equal: worker pids (:data:`SCHEDULE_ATTRS`)
    vary with the pool schedule even though the merged event sequence —
    keyed by chunk index, not arrival order — does not.
    """
    stripped = strip_timestamps(event)
    attrs = stripped.get("attrs")
    if isinstance(attrs, Mapping):
        remaining = {
            key: value
            for key, value in attrs.items()
            if key not in SCHEDULE_ATTRS
        }
        if remaining:
            stripped["attrs"] = remaining
        else:
            stripped.pop("attrs", None)
    return stripped
