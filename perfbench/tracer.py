"""Spans and exact counters for the traced benchmark run.

The tracer wraps the public functions of the ``phrasealign`` modules from
outside the package, only while :meth:`Tracer.installed` is active, so the
untraced run executes the package unmodified. Each wrapped call records one
span ``[name, start, end, parent, op]``; spans stay in memory and are written
once, when the run ends. A span's self time is its duration minus the
durations of its child spans (calls nest, single-threaded, so children never
overlap). Exact counters hold calls per span name, ``Tensor`` constructions
and autodiff graph nodes reachable from each root handed to ``backward``.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from pathlib import Path

from phrasealign import data, local_align, losses, model, numerics, trainer

# (module, attribute, span name). ``trainer`` imported ``make_batches`` and
# ``local_alignment_loss`` by name, so those are wrapped in its namespace.
LAYER_FUNCTIONS = (
    (model, "encode_image", "model.encode_image"),
    (model, "encode_text", "model.encode_text"),
    (model, "cross_encode", "model.cross_encode"),
    (model, "momentum_update", "model.momentum_update"),
    (numerics, "backward", "numerics.backward"),
    (trainer, "local_alignment_loss", "local_align.local_alignment_loss"),
    (local_align, "local_alignment_loss", "local_align.local_alignment_loss"),
    (losses, "itc_loss", "losses.itc_loss"),
    (losses, "itm_loss", "losses.itm_loss"),
    (losses, "sample_negatives", "losses.sample_negatives"),
    (losses, "fusion_triplet_loss", "losses.fusion_triplet_loss"),
    (losses, "masked_phrase_loss", "losses.masked_phrase_loss"),
    (losses, "total_loss", "losses.total_loss"),
    (losses, "fine_similarity", "losses.fine_similarity"),
    (trainer, "train_step", "trainer.train_step"),
    (trainer, "adamw_step", "trainer.adamw_step"),
    (trainer, "make_batches", "data.make_batches"),
    (data, "make_batches", "data.make_batches"),
)

# encoders called under ``no_grad`` (momentum shadows) or with
# ``mode="infer"`` get their own span name
_SPLIT_BY_GRAD = ("model.encode_image", "model.encode_text")

# spans the benchmark opens around one operation; everything else is a layer
ROOT_PREFIX = "bench."


def count_graph_nodes(root) -> int:
    """Distinct tensors reachable from ``root`` through ``.parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _encoder_mode(args, kwargs) -> str:
    return kwargs.get("mode", args[3] if len(args) > 3 else "train")


class Tracer:
    def __init__(self):
        self.spans: list = []       # [name, start, end, parent index or -1, op]
        self.counts: Counter = Counter()
        self.op = 0                 # spans of one step or query share this id
        self._stack: list = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self.counts[name + ".calls"] += 1
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        """A root span opened by the benchmark around one operation unit;
        ``op`` is left alone when ``train_step`` numbers the steps."""
        if op is not None:
            self.op = op
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        tracer = self
        split = name in _SPLIT_BY_GRAD
        new_step = name == "trainer.train_step"

        def traced(*args, **kwargs):
            label = name
            if split and (not numerics.is_grad_enabled()
                          or _encoder_mode(args, kwargs) == "infer"):
                label = name + ".nograd"
            if new_step:
                tracer.op += 1
            rec = tracer._open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return traced

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function and count Tensor constructions; restore
        the originals on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in LAYER_FUNCTIONS]
        init = numerics.Tensor.__init__
        counts = self.counts

        def counting_init(tensor, *args, **kwargs):
            counts["numerics.tensors"] += 1
            init(tensor, *args, **kwargs)

        for mod, attr, name in LAYER_FUNCTIONS:
            setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
        traced_backward = numerics.backward

        def counted_backward(root):
            counts["numerics.graph_nodes"] += count_graph_nodes(root)
            return traced_backward(root)

        numerics.backward = counted_backward
        numerics.Tensor.__init__ = counting_init
        try:
            yield self
        finally:
            numerics.Tensor.__init__ = init
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)

    # -- summaries --------------------------------------------------------

    def self_times(self) -> Counter:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def coverage(self) -> float:
        """Share of root-span wall time spent inside layer spans."""
        wall = layers = 0.0
        for name, start, end, parent, _ in self.spans:
            if name.startswith(ROOT_PREFIX):
                wall += end - start
            elif parent < 0 or self.spans[parent][0].startswith(ROOT_PREFIX):
                layers += end - start
        return layers / wall if wall > 0 else 0.0

    def write(self, path, record: dict) -> None:
        """Write the run record and every span (times in seconds from the
        first span's start)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [[name, round(s - t0, 7), round(e - t0, 7), parent, op]
                 for name, s, e, parent, op in self.spans]
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"record": record,
                                    "span_fields": ["name", "start_s", "end_s",
                                                    "parent", "op"],
                                    "spans": spans}) + "\n", encoding="utf-8")
