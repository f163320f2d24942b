"""End-to-end resolve/ingest benchmark with per-layer attribution.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload resolve-classify --seed 1 \
        --seconds 35 --trace 0

Workloads (see ``README.md`` in this directory for why each was chosen
and which layer metric should move which end-to-end metric):

* ``resolve-classify`` — ``repro resolve --expert-weighting --classify``
  on a six-community RandomSet analogue (885 records);
* ``italy-block-w2`` — ``repro resolve --expert-weighting --workers 2``
  on the ItalySet analogue at a quarter of its published size (2,389
  records);
* ``ingest-query`` — a WAL-backed ``IncrementalResolver`` over 40% of a
  2,730-record corpus absorbs the rest in batches of 32, with one reader
  query (``resolution().entities(certainty)``) after each batch.

Before each op, set-up generates the corpus and shuffles it by
``--seed``, and a fixed kernel is timed on each CPU. Ops run
closed-loop, one client, each in a fresh ``opchild.py`` process, until
``--seconds`` have passed. With ``--trace 1`` untraced and traced ops
alternate and the per-layer metrics come from the traced ones. Every
op's output digest is checked: against ``reference.json`` at the
default seed, otherwise against the run's other ops. The last stdout
line is the JSON result.

End-to-end times are scaled per op by the kernel's time (README.md,
"Why host-scaled times"), and each is the median over the run's ops.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 1
#: End-to-end times are scaled to a host on which the calibration
#: kernel (``calibrate``) takes this long: its time on a quiet 2-vCPU
#: Xeon VM (README.md, "Why host-scaled times").
CAL_REF_S = 0.0105
#: Reader queries run back to back after each resolve op.
QUERY_COUNT = 50
#: Every run, set-up included, must end well inside three minutes.
RUN_LIMIT_S = 170.0
#: Output-quality floors: a correct resolution of these corpora lands
#: far above them at every seed.
MIN_PRECISION = 0.3
MIN_RECALL = 0.3

#: Each workload resolves one fixed corpus, made by the library's
#: generators at their default seeds (README.md says why). ``--seed``
#: shuffles the record order; on the batch workloads that must not
#: change the output, so every seed is checked against the reference.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "resolve-classify": {
        "kind": "resolve",
        "corpus": ("random", 400),
        "seed_permutes_only": True,
        "flags": ["--expert-weighting", "--classify"],
        "certainty": 0.0,
        "workers": 1,
    },
    "italy-block-w2": {
        "kind": "resolve",
        "corpus": ("italy", 0.25),
        "seed_permutes_only": True,
        "flags": ["--expert-weighting", "--workers", "2"],
        "certainty": 0.4,
        "workers": 2,
    },
    "ingest-query": {
        "kind": "ingest",
        "corpus": ("random", 1200),
        "base_share": 0.4,
        "batch_size": 32,
        "certainty": 0.4,
        "workers": 1,
    },
}

#: Per-layer counts that must repeat exactly for a given input.
#: ``parallel.bytes_not_pickled`` is left out: it is a pickle length,
#: which moves by a few bytes with the process's hash seed.
COUNT_METRICS = (
    "mining.calls", "mining.transactions", "mining.mfis",
    "blocking.calls", "blocking.pairs_scored", "blocking.blocks_in",
    "blocking.candidate_pairs", "blocking.scalar_pair_calls",
    "similarity.vectors", "classify.training_pairs",
    "classify.pairs_ranked", "tagging.pairs", "core.live_pairs",
    "ingest.candidates_scored", "ingest.dirty_items",
    "ingest.evidence_produced", "parallel.dispatches", "parallel.chunks",
    "parallel.worker_chunks", "parallel.inline_chunks", "parallel.retries",
    "parallel.pools_created", "parallel.shared_segment_bytes", "wal.appends",
    "wal.bytes_written", "wal.segments",
)


def log(message: str) -> None:
    print(f"e2e {message}", flush=True)


def tail(samples: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``; with ten samples or fewer there
    is no such percentile and the maximum is reported as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n, n
    return ordered[-1], 100.0, n


# -- host ----------------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return proc.stdout.strip() or None


def host_header(args: argparse.Namespace, workers: int) -> Dict[str, Any]:
    import numpy

    cpus = len(os.sched_getaffinity(0))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus_usable": cpus,
        "workers": workers,
        "cpu_starved": cpus < workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


# -- host speed ----------------------------------------------------------------

_CAL_RNG = random.Random(7)
_CAL_WORDS = [
    "".join(_CAL_RNG.choice("abcdefghij") for _ in range(_CAL_RNG.randint(3, 9)))
    for _ in range(3000)
]
_CAL_BAGS = [frozenset(_CAL_RNG.sample(_CAL_WORDS, 12)) for _ in range(300)]


def _kernel() -> float:
    """Seconds for one pass of a fixed set-and-dict kernel."""
    start = time.perf_counter()
    counts: Dict[str, int] = {}
    for i, bag in enumerate(_CAL_BAGS):
        for other in _CAL_BAGS[i + 1:i + 30]:
            _ = len(bag & other) * 1000 // len(bag | other)
        for word in bag:
            counts[word] = counts.get(word, 0) + 1
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - start


def calibrate() -> List[float]:
    """The kernel's best of three on each usable CPU, pinned in turn."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(min(_kernel() for _ in range(3)))
    finally:
        os.sched_setaffinity(0, set(cpus))
    return times


def host_cal_ms(ops: List[Dict[str, Any]]) -> float:
    """Median over ops of the slowest CPU's kernel time, in ms."""
    return median([max(op["cal_s"]) for op in ops]) * 1e3


def host_scale(op: Dict[str, Any]) -> float:
    """Factor that turns the op's times into times on the reference host.

    The op's kernel time is the slowest CPU's, taken just before it: an
    op with workers waits for its slowest one.
    """
    return CAL_REF_S / max(op["cal_s"])


# -- set-up --------------------------------------------------------------------


def generate(workload: Dict[str, Any], seed: int, work: Path) -> Dict[str, Any]:
    """Generate and write one workload's inputs; returns paths and truth."""
    from repro.datagen import build_corpus
    from repro.datagen.corpus import build_italy_set
    from repro.records import Dataset

    family, size = workload["corpus"]
    if family == "italy":
        dataset, _ = build_italy_set(scale=size)
    else:
        dataset, _ = build_corpus(size)
    records = list(dataset)
    random.Random(seed).shuffle(records)
    truth = {record.book_id: record.person_id for record in records}
    inputs: Dict[str, Any] = {"truth": truth, "records": len(records)}
    if workload["kind"] == "resolve":
        inputs["corpus"] = work / "corpus.json"
        Dataset(records, name=dataset.name).to_json(inputs["corpus"])
        return inputs
    n_base = int(len(records) * workload["base_share"])
    inputs["base"] = work / "base.json"
    inputs["arrivals"] = work / "arrivals.json"
    inputs["n_arrivals"] = len(records) - n_base
    Dataset(records[:n_base], name="base").to_json(inputs["base"])
    Dataset(records[n_base:], name="arrivals").to_json(inputs["arrivals"])
    return inputs


def set_up(
    workload: Dict[str, Any], seed: int, work: Path
) -> Tuple[Dict[str, Any], float]:
    """Generate one op's inputs afresh; returns them and the seconds taken.

    Every op gets its own set-up, so the set-up times of a run are
    spread over the whole run rather than over its first second.
    """
    start = time.perf_counter()
    inputs = generate(workload, seed, work)
    return inputs, time.perf_counter() - start


# -- ops -----------------------------------------------------------------------


def op_spec(
    workload: Dict[str, Any], inputs: Dict[str, Any], op_dir: Path,
    traced: bool,
) -> Dict[str, Any]:
    spec: Dict[str, Any] = {
        "kind": workload["kind"],
        "trace": traced,
        "dir": str(op_dir),
        "csv": str(op_dir / "out.csv"),
        "result": str(op_dir / "result.json"),
        "certainty": workload["certainty"],
    }
    if workload["kind"] == "resolve":
        spec["query_count"] = QUERY_COUNT
        spec["argv"] = [
            "resolve", str(inputs["corpus"]), *workload["flags"],
            "--certainty", str(workload["certainty"]), "--out", spec["csv"],
        ]
    else:
        spec["base"] = str(inputs["base"])
        spec["arrivals"] = str(inputs["arrivals"])
        spec["batch_size"] = workload["batch_size"]
    return spec


def run_op(spec: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    """Run one op in a fresh process group; raises on any failure."""
    op_dir = Path(spec["dir"])
    op_dir.mkdir(parents=True)
    spec_path = op_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if part
    )
    with open(op_dir / "stderr.log", "w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "opchild.py"), str(spec_path)],
            env=env, stdout=subprocess.DEVNULL, stderr=stderr,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"op hung past {timeout:.0f}s") from None
        finally:
            # Reap anything the op left behind (e.g. pool workers).
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    if code != 0:
        lines = (op_dir / "stderr.log").read_text().strip().splitlines()
        raise RuntimeError(f"op exited {code}: {lines[-1] if lines else ''}")
    return json.loads(Path(spec["result"]).read_text())


def pair_quality(csv_path: str, truth: Dict[int, Optional[int]]) -> Tuple[float, float]:
    """Precision and recall of the crisp output against the generator truth."""
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    hits = sum(
        1 for row in rows
        if truth[int(row[0])] is not None
        and truth[int(row[0])] == truth[int(row[1])]
    )
    sizes: Dict[int, int] = {}
    for person in truth.values():
        if person is not None:
            sizes[person] = sizes.get(person, 0) + 1
    gold = sum(k * (k - 1) // 2 for k in sizes.values())
    precision = hits / len(rows) if rows else 0.0
    return precision, (hits / gold if gold else 0.0)


def layer_result(result: Dict[str, Any]) -> Dict[str, float]:
    from tracing import layer_metrics

    metrics = layer_metrics(result["spans"])
    wal = result.get("wal", {})
    metrics["wal.bytes_written"] = wal.get("bytes_written", 0)
    metrics["wal.segments"] = wal.get("segments", 0)
    return metrics


# -- the run -------------------------------------------------------------------


def load_reference() -> Dict[str, Any]:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())
    return {}


def check_op(
    op: Dict[str, Any], expected: Dict[str, Any], traced: bool
) -> Optional[str]:
    """Why ``op`` disagrees with ``expected`` output (None if it agrees)."""
    if op["digest"] != expected.get("digest", op["digest"]):
        return "output digest differs from the reference"
    if traced and "counts" in expected:
        counts = {key: op["layers"][key] for key in COUNT_METRICS}
        diff = sorted(
            key for key in COUNT_METRICS if counts[key] != expected["counts"][key]
        )
        if diff:
            return f"counts differ from the reference: {', '.join(diff)}"
    if op["precision"] < MIN_PRECISION or op["recall"] < MIN_RECALL:
        return (f"quality below floor: precision={op['precision']:.3f} "
                f"recall={op['recall']:.3f}")
    return None


def run_ops(
    args: argparse.Namespace, workload: Dict[str, Any], work: Path,
    run_start: float,
) -> Tuple[List[Dict[str, Any]], List[str], Dict[str, Any]]:
    """Closed loop, one client, until ``--seconds`` have been measured."""
    reference: Dict[str, Any] = {}
    if not args.write_reference:
        reference = load_reference().get(args.workload, {})
    expected: Dict[str, Any] = {}
    if args.seed == DEFAULT_SEED:
        expected = dict(reference)
    elif workload.get("seed_permutes_only") and "digest" in reference:
        # Some counts follow the record order; the ranked output must not.
        expected = {"digest": reference["digest"]}
    plan = [False, True] if args.trace else [False]
    ops: List[Dict[str, Any]] = []
    failures: List[str] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        begin = time.perf_counter()
        inputs, setup_s = set_up(workload, args.seed, work)
        traced = plan[len(ops) % len(plan)]
        op_dir = work / f"op{len(ops)}"
        spec = op_spec(workload, inputs, op_dir, traced)
        cal_s = calibrate()
        start = time.perf_counter()
        timeout = max(RUN_LIMIT_S - (start - run_start), 1.0)
        try:
            op = run_op(spec, timeout)
            op["precision"], op["recall"] = pair_quality(spec["csv"], inputs["truth"])
            if traced:
                op["layers"] = layer_result(op)
            problem = check_op(op, expected, traced)
        except (RuntimeError, OSError, ValueError, KeyError) as error:
            op, problem = {}, f"{type(error).__name__}: {error}"
        op["traced"] = traced
        op["cal_s"] = cal_s
        op["gen_s"] = setup_s
        op["ok"] = problem is None
        ops.append(op)
        if problem is not None:
            failures.append(f"op{len(ops) - 1}: {problem}")
        elif "digest" not in expected:
            # First good op of a run away from the reference: the rest
            # of the run must reproduce it.
            expected["digest"] = op["digest"]
        if op["ok"] and traced and "counts" not in expected:
            expected["counts"] = {key: op["layers"][key] for key in COUNT_METRICS}
        now = time.perf_counter()
        last_wall = now - begin
        kinds_done = {o["traced"] for o in ops}
        if now >= deadline and len(kinds_done) == len(plan):
            break
        if now - run_start + last_wall > RUN_LIMIT_S:
            if len(kinds_done) < len(plan):
                failures.append("no time left for a traced op")
            break
    return ops, failures, inputs


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def samples(ops: List[Dict[str, Any]], key: str) -> List[float]:
    return [value for op in ops for value in op[key]]


def end_to_end(
    workload: Dict[str, Any], inputs: Dict[str, Any],
    ops: List[Dict[str, Any]], scaled: bool = True,
) -> Dict[str, float]:
    """End-to-end metrics: medians over ops of host-scaled op figures."""
    good = [op for op in ops if op["ok"] and not op["traced"]]
    if not good:
        return {}

    def over_ops(figure: Any) -> float:
        return median([
            figure(op) * (host_scale(op) if scaled else 1.0) for op in good
        ])

    op_s = over_ops(lambda op: op["op_s"])
    items = inputs["n_arrivals" if workload["kind"] == "ingest" else "records"]
    return {
        "setup_s": over_ops(lambda op: op["gen_s"] + op.get("setup_s", 0.0)),
        "resolve_s": op_s,
        "records_per_s": items / op_s,
        "batch_ms.p50": over_ops(lambda op: median(op["batch_ms"])),
        "query_ms.p50": over_ops(lambda op: median(op["query_ms"])),
        "pair_precision": median([op["precision"] for op in good]),
        "pair_recall": median([op["recall"] for op in good]),
        "peak_rss_mb": median([op["self_mb"] + op["worker_mb"] for op in good]),
    }


def per_layer(ops: List[Dict[str, Any]]) -> Dict[str, float]:
    traced = [op for op in ops if "layers" in op]
    plain = [op for op in ops if op["ok"] and not op["traced"]]
    metrics: Dict[str, float] = {}
    if traced:
        for key in sorted(traced[0]["layers"]):
            values = [op["layers"][key] for op in traced]
            metrics[key] = values[0] if key in COUNT_METRICS else median(values)
    if plain:
        # Tails repeat less well than a tenth from run to run, so they
        # are reported here, from the run's untraced ops.
        for key in ("batch_ms", "query_ms"):
            value, percentile, n = tail(samples(plain, key))
            metrics[f"{key}.tail"] = value
            log(f"{key}.tail is p{percentile:.1f} of {n} samples")
    if traced and plain:
        untraced_s = median([op["op_s"] for op in plain])
        overhead = median([op["op_s"] for op in traced]) - untraced_s
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_ratio"] = overhead / untraced_s
    metrics["host.cal_ms"] = host_cal_ms(ops)
    metrics["failed_ratio"] = sum(1 for op in ops if not op["ok"]) / len(ops)
    return metrics


def declared(kind: str) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="store this traced run's digest and counts as the reference "
             "for the default seed",
    )
    args = parser.parse_args(argv)
    # A terminated run unwinds through run_op, which kills its op.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2e: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference and (args.seed != DEFAULT_SEED or not args.trace):
        parser.error("--write-reference needs --trace 1 at the default seed")
    sys.path.insert(0, str(ROOT / "src"))
    run_start = time.perf_counter()
    workload = WORKLOADS[args.workload]
    work = ROOT / ".e2e_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    header = host_header(args, workload["workers"])
    log(f"host: {json.dumps(header, sort_keys=True)}")
    if header["cpu_starved"]:
        log(f"WARNING: {workload['workers']} workers on {header['cpus_usable']} "
            f"usable CPU(s): timings include queue wait for a CPU")

    ops, failures, inputs = run_ops(args, workload, work, run_start)
    for failure in failures:
        log(f"FAILED {failure}")
    for index, op in enumerate(ops):
        if op["ok"]:
            log(f"op{index} traced={op['traced']} op_s={op['op_s']:.3f} "
                f"digest={op['digest'][:16]}")

    units = declared("per_layer" if args.trace else "end_to_end")
    log(f"host: calibration kernel median {host_cal_ms(ops):.3f} ms, "
        f"reference {CAL_REF_S * 1e3:.3f} ms")
    if args.trace:
        values = per_layer(ops)
    else:
        values = end_to_end(workload, inputs, ops)
        log(f"unscaled: {json.dumps(end_to_end(workload, inputs, ops, False))}")
    if args.trace:
        good = [op for op in ops if "layers" in op]
        if good:
            log(f"counts: {json.dumps({k: values[k] for k in COUNT_METRICS})}")
            with open(work / "spans.jsonl", "w") as handle:
                for index, op in enumerate(ops):
                    for span in op.get("spans", []):
                        name, start, end, parent, counts = span
                        handle.write(json.dumps({
                            "op": index, "name": name, "start": start,
                            "end": end, "parent": parent, "counts": counts,
                        }) + "\n")
        if args.write_reference and good and not failures:
            reference = load_reference()
            reference[args.workload] = {
                "seed": DEFAULT_SEED,
                "digest": good[0]["digest"],
                "counts": {key: values[key] for key in COUNT_METRICS},
            }
            REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            log(f"wrote the {args.workload} reference")
    failed = sum(1 for op in ops if not op["ok"])
    summary = {
        "correct": failed == 0 and not failures,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values
        },
    }
    (work / "result.json").write_text(json.dumps(
        {"host": header, "summary": summary, "ops": [
            {key: value for key, value in op.items() if key != "spans"}
            for op in ops
        ]}, indent=1,
    ))
    print(json.dumps(summary), flush=True)
    return 0 if len(summary["metrics"]) == len(units) else 1


if __name__ == "__main__":
    sys.exit(main())
