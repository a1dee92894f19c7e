"""Run workloads over several seeds and report, per metric, the median, the
quartiles and the spread (interquartile distance over median).

    python3 perfbench/repeat.py --workloads stage1 retrieval --seeds 0-9
    python3 perfbench/repeat.py --seeds 0-9 --trace 1 --out summary.json

Runs ``run.py`` once per (workload, seed), one after another, for the
``run_seconds`` of ``BENCHMARK.json``. A spread above a third of the metric's
bound is flagged. Exits non-zero if any run fails or reports wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    record = next((json.loads(line[len("record "):]) for line in lines
                   if line.startswith("record ")), {})
    return json.loads(lines[-1]), record


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"),
                    help="inclusive range such as 0-9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = ap.parse_args(argv)

    summary, ok, host = {}, True, None
    for workload in args.workloads:
        values: dict = {}
        for seed in args.seeds:
            result, record = run_once(workload, seed, BENCHMARK["run_seconds"],
                                      args.trace)
            host = record.get("host", host)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} failed", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            bound = BOUNDS.get(name)
            flag = " (above a third of its bound)" if bound and \
                s["spread"] > bound / 3 else ""
            print(f"{workload:9s} {name:40s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.3f}{flag}")
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "trace": args.trace,
                                        "run_seconds": BENCHMARK["run_seconds"],
                                        "host": host, "workloads": summary},
                                       indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
