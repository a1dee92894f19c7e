"""Regenerate ``reference.json``: the checked outputs of every workload for
each of the ``POOL`` reference corpora.

    python3 perfbench/make_reference.py

The committed file was computed from the package's seed commit. Regenerate it
only for a change that is meant to alter the numbers, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def _round(x: float) -> float:
    return float(f"{x:.13g}")


def reference_for(workload: str, seed: int):
    session = workloads.setup(workload, seed)
    if workload in ("stage1", "stage2"):
        return session.op(0).values
    if workload == "gallery":
        return [session.op(c).values for c in range(session.n_chunks)]
    return [[ids, [_round(x) for x in logits]]
            for ids, logits in (session.op(q).values
                                for q in range(len(session.queries)))]


def main() -> None:
    table = {"pool": workloads.POOL}
    for workload in workloads.WORKLOADS:
        table[workload] = {workloads.corpus_key(s): reference_for(workload, s)
                           for s in range(workloads.POOL)}
        print(f"{workload}: {workloads.POOL} corpora", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(table) + "\n",
                                        encoding="utf-8")


if __name__ == "__main__":
    main()
