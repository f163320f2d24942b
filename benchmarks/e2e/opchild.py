"""One benchmark op, run in a fresh process: ``python3 opchild.py SPEC``.

``SPEC`` is a JSON file written by ``run.py``. Two kinds of op:

* ``resolve`` — one ``repro resolve`` call (``repro.cli.main``) on the
  corpus, followed by reader queries (``entities(certainty)``) on the
  resolution it produced, ``query_count`` of them back to back;
* ``ingest`` — set-up builds a WAL-backed ``IncrementalResolver`` over
  the base corpus; the op streams the arrivals through ``add_records``
  in fixed batches, with one reader query after each batch.

With ``"trace": true`` the layer functions are wrapped first
(``tracing.install``) and the recorded spans go into the result. The
result JSON (timings, output digest, peak RSS, spans) is written to the
spec's ``result`` path; the process exits 0 only if the op completed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

#: The op clock starts here, before ``repro`` is imported.
T0 = time.perf_counter()


def _vm_hwm_kb(pid: str) -> int:
    """Peak resident set size of a live process, from /proc (0 if gone)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def peak_rss_mb() -> Dict[str, float]:
    """Peak RSS of this process and of its largest worker, in MiB."""
    own = max(
        _vm_hwm_kb("self"), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    )
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for child in multiprocessing.active_children():
        worker = max(worker, _vm_hwm_kb(str(child.pid)))
    return {"self_mb": own / 1024.0, "worker_mb": worker / 1024.0}


def ranked_digest(resolution: Any, extra: bytes = b"") -> str:
    """SHA-256 over the ranked list at fixed formatting, plus ``extra``."""
    digest = hashlib.sha256()
    for evidence in resolution.ranked():
        confidence = (
            "" if evidence.confidence is None else f"{evidence.confidence:.6f}"
        )
        a, b = evidence.pair
        digest.update(f"{a},{b},{evidence.similarity:.6f},{confidence}\n".encode())
    digest.update(extra)
    return digest.hexdigest()


def _time_queries(resolution: Any, certainty: float, count: int) -> List[float]:
    latencies = []
    for _ in range(count):
        start = time.perf_counter()
        resolution.entities(certainty)
        latencies.append((time.perf_counter() - start) * 1e3)
    return latencies


def run_resolve(spec: Dict[str, Any], tracer: Any) -> Dict[str, Any]:
    from repro import cli
    from repro.core.pipeline import UncertainERPipeline

    runs: List[Any] = []
    run = UncertainERPipeline.run

    def keep_result(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = run(self, *args, **kwargs)
        runs.append(result)
        return result

    UncertainERPipeline.run = keep_result
    log = Path(spec["dir"]) / "cli.log"
    with open(log, "w") as handle, contextlib.redirect_stdout(handle):
        with tracer.span("op.run"):
            code = cli.main(spec["argv"])
    op_s = time.perf_counter() - T0
    if code != 0 or not runs:
        raise RuntimeError(f"repro resolve exited {code}; see {log}")
    resolution = runs[-1]
    # Time the queries against a settled heap, not the CLI's garbage.
    gc.collect()
    with tracer.span("op.query"):
        query_ms = _time_queries(
            resolution, spec["certainty"], spec["query_count"]
        )
    csv_bytes = Path(spec["csv"]).read_bytes()
    return {
        "op_s": op_s,
        "batch_ms": [op_s * 1e3],
        "query_ms": query_ms,
        "digest": ranked_digest(resolution, csv_bytes),
    }


def run_ingest(spec: Dict[str, Any], tracer: Any) -> Dict[str, Any]:
    from repro.core import PipelineConfig
    from repro.core.incremental import IncrementalResolver
    from repro.records import Dataset
    from repro.resilience.wal import WriteAheadLog

    wal_dir = Path(spec["dir"]) / "wal"
    with tracer.span("op.setup"):
        base = Dataset.from_json(spec["base"])
        arrivals = list(Dataset.from_json(spec["arrivals"]))
        wal = WriteAheadLog(wal_dir, fsync=True)
        resolver = IncrementalResolver(
            base, PipelineConfig(expert_weighting=True), wal=wal
        )
    wal_bytes_before = sum(path.stat().st_size for path in wal_dir.iterdir())
    start = time.perf_counter()
    setup_s = start - T0
    size = spec["batch_size"]
    certainty = spec["certainty"]
    batch_ms: List[float] = []
    query_ms: List[float] = []
    with tracer.span("op.run"):
        for offset in range(0, len(arrivals), size):
            tick = time.perf_counter()
            resolver.add_records(arrivals[offset:offset + size])
            tock = time.perf_counter()
            resolver.resolution().entities(certainty)
            batch_ms.append((tock - tick) * 1e3)
            query_ms.append((time.perf_counter() - tock) * 1e3)
    op_s = time.perf_counter() - start
    segments = wal.counters()["segments"]
    wal.close()
    final = resolver.resolution()
    final.to_csv(spec["csv"], certainty=certainty)
    return {
        "op_s": op_s,
        "setup_s": setup_s,
        "batch_ms": batch_ms,
        "query_ms": query_ms,
        "digest": ranked_digest(final),
        "wal": {
            "bytes_written": sum(
                path.stat().st_size for path in wal_dir.iterdir()
            ) - wal_bytes_before,
            "segments": segments,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    spec = json.loads(Path(args[0]).read_text())
    sink = None
    if spec["trace"]:
        import tracing

        tracer, sink = tracing.install()
    else:
        from repro.obs.tracer import NULL_TRACER as tracer
    runner = run_resolve if spec["kind"] == "resolve" else run_ingest
    result = runner(spec, tracer)
    result.update(peak_rss_mb())
    if sink is not None:
        result["spans"] = sink.spans
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
