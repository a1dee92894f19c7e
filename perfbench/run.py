"""Benchmark of the ``phrasealign`` package in ``src/``.

    python3 perfbench/run.py --workload stage1 --seed 0 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) in this process as a closed loop with
one caller: set up ``SETUP_REPEATS`` times (each set-up ends with one untimed
warm-up operation), then run operations back to back for ``--seconds``. Every
operation's outputs are checked against ``reference.json``. The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: import time plus the median of the set-ups.
- ``items_per_s``: train samples (stage1, stage2), gallery images (gallery) or
  queries (retrieval) per second of operation wall time.
- ``op_ms_p90``: latency of one train step, one 64-image gallery chunk or one
  query (nearest-rank). The median is printed but not reported as a metric:
  on a host whose speed switches between two states for tens of seconds at a
  time, a run's median jumps between them, while its mean (``items_per_s``)
  and its 90th percentile move far less from run to run.
- ``peak_rss_mb``: peak resident set size of the process.

With ``--trace 1`` operations alternate untraced and traced; the traced ones
run under ``tracer.Tracer`` and give the per-layer metrics, per operation.
Spans and the run record are written to ``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3

# per-layer metrics: calls and self time per operation of each wrapped layer
LAYERS = (
    "model.encode_image", "model.encode_image.nograd",
    "model.encode_text", "model.encode_text.nograd",
    "model.cross_encode",
    "local_align.local_alignment_loss", "losses.masked_phrase_loss",
    "numerics.backward",
    "trainer.train_step", "trainer.adamw_step", "model.momentum_update",
    "data.make_batches",
    "losses.itc_loss", "losses.itm_loss", "losses.sample_negatives",
    "losses.fusion_triplet_loss", "losses.total_loss", "losses.fine_similarity",
)
COUNTERS = ("numerics.graph_nodes", "numerics.tensors")

# what ``items_per_s`` counts on each workload
THROUGHPUT_NAMES = {"stage1": "samples_per_s", "stage2": "samples_per_s",
                    "gallery": "gallery_images_per_s",
                    "retrieval": "queries_per_s"}


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def host_fingerprint() -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")}}


class Totals:
    def __init__(self):
        self.items = self.attempted = self.failed = 0
        self.wall = 0.0
        self.latencies: list = []

    def add(self, outcome, wall: float) -> None:
        self.items += outcome.items
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.wall += wall
        self.latencies.extend(outcome.latencies)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("stage1", "stage2", "gallery", "retrieval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "phrasealign" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import phrasealign
    if Path(phrasealign.__file__).resolve().parent != (SRC / "phrasealign").resolve():
        print(f"perfbench: imported {phrasealign.__file__}, not the package "
              f"under {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer
    import_s = time.perf_counter() - _T0

    reference = workloads.load_reference(args.workload, args.seed)
    checked = Totals()      # every checked operation, warm-ups included
    setups = []
    session = None
    for _ in range(SETUP_REPEATS):
        session = None      # release the previous set-up first
        start = time.perf_counter()
        session = workloads.setup(args.workload, args.seed, reference)
        warm = session.op(0)
        setups.append(time.perf_counter() - start)
        checked.add(warm, 0.0)

    tracer = Tracer() if args.trace else None
    runs = {False: Totals(), True: Totals()}
    unit_counts = []        # exact counters of each traced operation unit
    i = 1
    deadline = time.perf_counter() + args.seconds
    # a traced run times at least one traced operation
    while time.perf_counter() < deadline or (args.trace and not runs[True].latencies):
        traced = bool(args.trace) and i % 2 == 0
        start = time.perf_counter()
        if traced:
            before = Counter(tracer.counts)
            op_id = None if session.op_name == "step" else i
            with tracer.installed(), \
                    tracer.span(f"bench.{session.op_name}", op_id):
                outcome = session.op(i)
            wall = time.perf_counter() - start
            unit_counts.append({k: v - before[k] for k, v in tracer.counts.items()
                                if v != before[k]})
        else:
            outcome = session.op(i)
            wall = time.perf_counter() - start
        runs[traced].add(outcome, wall)
        checked.add(outcome, 0.0)
        i += 1

    counts_repeat = all(c == unit_counts[0] for c in unit_counts)
    plain = runs[False]
    op_name = session.op_name
    record = {"workload": args.workload, "seed": args.seed,
              "corpus": workloads.corpus_key(args.seed),
              "seconds": args.seconds, "trace": args.trace,
              **workloads.configs(session), "host": host_fingerprint()}
    print("record " + json.dumps(record, sort_keys=True))
    print(f"{checked.failed}/{checked.attempted} {op_name}s failed their "
          f"output check; failed_share = "
          f"{checked.failed / checked.attempted:.6g}")

    if args.trace:
        spans = runs[True]
        n = len(spans.latencies)
        selfs = tracer.self_times()
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = (tracer.counts[layer + ".calls"] / n, "count")
            metrics[f"{layer}.self_s"] = (selfs[layer] / n, "s")
        for name in COUNTERS:
            metrics[name] = (tracer.counts[name] / n, "count")
        metrics["bench.self_s"] = (selfs[f"bench.{session.op_name}"] / n, "s")
        per_op = spans.wall / n
        base = plain.wall / len(plain.latencies) if plain.latencies else per_op
        metrics["trace.overhead_share"] = (per_op / base - 1.0, "ratio")
        metrics["trace.coverage"] = (tracer.coverage(), "ratio")
        metrics["trace.ops"] = (n, "count")
        print(f"traced {n} {op_name}s; per-{op_name} counters repeat exactly: "
              f"{counts_repeat}")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {**record, "unit_counts": unit_counts[0] if unit_counts else {}})
    else:
        lat_ms = [t * 1000.0 for t in plain.latencies]
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "items_per_s": (plain.items / plain.wall, "1/s"),
            "op_ms_p90": (nearest_rank(lat_ms, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        print(f"items_per_s is {THROUGHPUT_NAMES[args.workload]}; "
              f"op is one {op_name}; {len(lat_ms)} {op_name}s timed, "
              f"{len(lat_ms) - math.ceil(0.9 * len(lat_ms))} beyond p90; "
              f"op_ms_p50 = {statistics.median(lat_ms):.6g} ms (unbounded); "
              f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s, "
              f"imports {import_s:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": checked.failed == 0 and counts_repeat,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
