"""The benchmark's workloads: inputs, one operation, and its output check.

A workload session is built by ``setup(name, seed)``; each call of
``session.op(i)`` runs one operation unit and checks its outputs against the
reference values in ``reference.json``, which were computed from the seed
commit of the package by ``make_reference.py``.

The workload seed chooses one of ``POOL`` reference corpora (``seed % POOL``),
so every seed has reference outputs; the package receives only the generated
corpus and the default configs.

- ``stage1``: ``trainer.train`` with ``stage2_epochs=0`` for one epoch on the
  default corpus; operation = one train step, unit = one ``train()`` call.
- ``stage2``: the same with ``stage1_epochs=0``, one stage-2 epoch.
- ``gallery``: infer-mode image encoding plus coarse projection of the test
  gallery of the largest corpus, 64 images per operation.
- ``retrieval``: 128 caption queries against that gallery (embedded during
  set-up); coarse cosine rank, then rerank of the top 8 by the ITM logit.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np

from phrasealign import data, losses, model, numerics, trainer
from phrasealign.textproc import TextPipeline

POOL = 8
GALLERY_CONFIG = dict(n_identities=896, images_per_identity=4,
                      test_images_per_identity=3)
CHUNK = 64          # gallery images per operation
N_QUERIES = 128
TOP_K = 8
PARAM_SEED = 0      # retrieval parameters stay at this seeded init

# tolerance of every float check. Summing the ITM terms in reverse order moves
# the logged losses by at most 4e-16 (relative); a 1% error in the backward of
# tanh moves the next step's loss by 5e-7 (stage 1) to 1e-4 (stage 2)
RTOL = 1e-9
ATOL = 1e-12
LOSS_KEYS = ("lr", "itc", "itm", "tri", "biatt", "mpm", "total")

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def corpus_key(seed: int) -> str:
    return str(seed % POOL)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))


@dataclasses.dataclass
class Outcome:
    """One operation unit: ``items`` processed, a latency per operation."""

    items: int
    latencies: list
    attempted: int
    failed: int
    values: object = None      # the checked outputs, for the reference


# ---------------------------------------------------------------------------
# training


class TrainSession:
    op_name = "step"

    def __init__(self, stage: int, seed: int, data_cfg=None, model_cfg=None,
                 train_cfg=None, reference=None):
        self.pipeline = TextPipeline()
        self.data_cfg = data_cfg or data.DataConfig()
        self.dataset = data.generate_dataset(self.data_cfg,
                                             numerics.Rng(seed % POOL))
        self.model_cfg = model_cfg or model.ModelConfig(
            vocab_size=len(self.pipeline.vocab))
        epochs = dict(stage1_epochs=1, stage2_epochs=0) if stage == 1 else \
            dict(stage1_epochs=0, stage2_epochs=1)
        self.train_cfg = dataclasses.replace(train_cfg or trainer.TrainConfig(),
                                             **epochs)
        self.reference = reference
        self.items = len(self.dataset.train_records())    # one epoch per call

    def op(self, i: int) -> Outcome:
        """One ``train()`` call; latencies are per step, clocked at each
        ``train_step`` entry."""
        entries = []
        inner = trainer.train_step

        def clocked(*args, **kwargs):
            entries.append(time.perf_counter())
            return inner(*args, **kwargs)

        trainer.train_step = clocked
        try:
            rows = trainer.train(self.model_cfg, self.train_cfg, self.dataset,
                                 self.pipeline).log_rows
        except (trainer.NumericalError, numerics.NonFiniteError):
            rows = None
        finally:
            end = time.perf_counter()
            trainer.train_step = inner
        latencies = [b - a for a, b in zip(entries, entries[1:] + [end])]
        values = None if rows is None else \
            [[row[k] for k in LOSS_KEYS] for row in rows]
        expected = self.reference
        if expected is None:
            return Outcome(self.items, latencies, len(entries),
                           0 if values is not None else len(entries), values)
        failed = len(expected)
        if values is not None:
            failed -= sum(len(got) == len(want) and all(map(close, got, want))
                          for got, want in zip(values, expected))
        return Outcome(self.items, latencies, len(expected), failed, values)


# ---------------------------------------------------------------------------
# retrieval


def l2_rows(x: np.ndarray) -> np.ndarray:
    return x / np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1e-12)


def embed_images(images, params, cfg):
    """Infer-mode encoder outputs and unit coarse embeddings of ``images``."""
    outs = [model.encode_image(x, params, cfg, mode="infer") for x in images]
    cls = np.vstack([o.cls.data for o in outs])
    return outs, l2_rows(cls @ params["proj.img.w"].data)


def rank_query(token_ids, gallery_outs, gallery_emb, params, cfg, k=TOP_K):
    """Coarse cosine rank over the gallery, then the ITM logit of each of the
    top ``k``. Returns (candidates in coarse order, their logits, reranked
    candidates)."""
    text = model.encode_text(token_ids, params, cfg, mode="infer")
    query = l2_rows(text.cls.data @ params["proj.txt.w"].data)
    coarse = gallery_emb @ query
    candidates = np.argsort(-coarse, kind="stable")[:k]
    logits = np.array([
        float(losses.fine_similarity(
            model.cross_encode(text, gallery_outs[j], params, cfg,
                               mode="infer").cls, params["itm.w"]).data)
        for j in candidates])
    order = candidates[np.argsort(-logits, kind="stable")]
    return candidates, logits, order


class _GallerySetup:
    def __init__(self, seed: int, data_cfg=None, model_cfg=None):
        self.pipeline = TextPipeline()
        self.data_cfg = data_cfg or data.DataConfig(**GALLERY_CONFIG)
        self.dataset = data.generate_dataset(self.data_cfg,
                                             numerics.Rng(seed % POOL))
        self.model_cfg = model_cfg or model.ModelConfig(
            vocab_size=len(self.pipeline.vocab))
        self.params = model.init_params(self.model_cfg, numerics.Rng(PARAM_SEED))
        self.test = self.dataset.test_records()


class GallerySession(_GallerySetup):
    op_name = "chunk"

    def __init__(self, seed: int, reference=None, **cfgs):
        super().__init__(seed, **cfgs)
        self.n_chunks = len(self.test) // CHUNK
        self.reference = reference
        # fixed probe: each chunk is checked by one weighted sum of its rows
        self.probe = np.random.default_rng(0).standard_normal(
            (CHUNK, self.model_cfg.proj_dim))

    def op(self, i: int) -> Outcome:
        c = i % self.n_chunks
        images = [r.image for r in self.test[c * CHUNK:(c + 1) * CHUNK]]
        start = time.perf_counter()
        try:
            _, emb = embed_images(images, self.params, self.model_cfg)
        except numerics.NonFiniteError:
            emb = None
        latency = time.perf_counter() - start
        value = None if emb is None else float(np.sum(emb * self.probe))
        ok = value is not None and (self.reference is None
                                    or close(value, self.reference[c]))
        return Outcome(len(images), [latency], 1, 0 if ok else 1, value)


class RetrievalSession(_GallerySetup):
    op_name = "query"

    def __init__(self, seed: int, reference=None, n_queries=N_QUERIES, **cfgs):
        super().__init__(seed, **cfgs)
        self.gallery_outs, self.gallery_emb = embed_images(
            [r.image for r in self.test], self.params, self.model_cfg)
        stride = len(self.test) // n_queries
        self.queries = [self.pipeline.encode(self.test[q * stride].caption)
                        for q in range(n_queries)]
        self.reference = reference

    def op(self, i: int) -> Outcome:
        q = i % len(self.queries)
        start = time.perf_counter()
        try:
            candidates, logits, _ = rank_query(
                self.queries[q], self.gallery_outs, self.gallery_emb,
                self.params, self.model_cfg)
        except numerics.NonFiniteError:
            candidates = None
        latency = time.perf_counter() - start
        if candidates is None:
            return Outcome(1, [latency], 1, 1)
        value = [candidates.tolist(), logits.tolist()]
        ok = True
        if self.reference is not None:
            want_ids, want_logits = self.reference[q]
            ok = value[0] == want_ids and all(map(close, value[1], want_logits))
        return Outcome(1, [latency], 1, 0 if ok else 1, value)


# ---------------------------------------------------------------------------

WORKLOADS = ("stage1", "stage2", "gallery", "retrieval")


def load_reference(workload: str, seed: int):
    table = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return table[workload][corpus_key(seed)]


def setup(workload: str, seed: int, reference=None):
    if workload == "stage1":
        return TrainSession(1, seed, reference=reference)
    if workload == "stage2":
        return TrainSession(2, seed, reference=reference)
    if workload == "gallery":
        return GallerySession(seed, reference=reference)
    if workload == "retrieval":
        return RetrievalSession(seed, reference=reference)
    raise ValueError(f"unknown workload {workload!r}")


def configs(session) -> dict:
    out = {"DataConfig": dataclasses.asdict(session.data_cfg),
           "ModelConfig": dataclasses.asdict(session.model_cfg)}
    if isinstance(session, TrainSession):
        out["TrainConfig"] = dataclasses.asdict(session.train_cfg)
    else:
        out["param_seed"] = PARAM_SEED
    return out
