"""Golden values of ``trainer.train_step`` on a tiny config, for the default
switches and for every non-default value of each switch.

    PYTHONPATH=src python tests/fixtures/train_step_golden.py

rewrites ``train_step_golden.json`` beside this file. Each variant runs one
stage-1 step, one AdamW and momentum update, then one stage-2 step with the
queue the first step filled. Per step it records the loss breakdown, the
contrastive probabilities, the pooling-weight sums, and per parameter the
gradient's L2 norm and its dot product with a fixed probe seeded by the
parameter's name. ``tests/test_trainer.py`` recomputes every record with the
current code and compares.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from phrasealign import numerics as nx
from phrasealign.data import DataConfig, generate_dataset, make_batches
from phrasealign.losses import QueueState
from phrasealign.model import MomentumState, ModelConfig, init_params, momentum_update
from phrasealign.numerics import Rng
from phrasealign.textproc import TextPipeline
from phrasealign.trainer import OptimState, TrainConfig, adamw_step, train_step

PATH = Path(__file__).with_suffix(".json")
GEOMETRY = dict(patch_rows=2, patch_cols=2, patch_pixels=6)

# name -> (ModelConfig overrides, TrainConfig overrides)
VARIANTS = {
    "default": ({}, {}),
    "biatt_row=cls": ({"biatt_row": "cls"}, {}),
    "biatt_phrase=clean": ({"biatt_phrase": "clean"}, {}),
    "mpm_positions=all": ({"mpm_positions": "all"}, {}),
    "tie_score_head": ({"tie_score_head": True}, {}),
    "triplet_direction=printed": ({}, {"triplet_direction": "printed"}),
    "neg_sampling=uniform": ({}, {"neg_sampling": "uniform"}),
    "enable_triplet=False": ({}, {"enable_triplet": False}),
    "enable_biatt=False": ({}, {"enable_biatt": False}),
    "enable_mpm=False": ({}, {"enable_mpm": False}),
}


def _probe(name: str, shape) -> np.ndarray:
    return np.random.default_rng(zlib.crc32(name.encode())).standard_normal(shape)


def _grad_records(params) -> dict:
    """[L2 norm, probe dot] of each parameter's gradient. Head h of a stacked
    ``{block}.wq``/``wk``/``wv`` is recorded as ``{block}.h{h}.wq`` etc., in
    per-head q, k, v order, the keys and order of the per-head layout the
    fixture was recorded with."""
    grads = {}
    for name, p in params.named():
        block, _, kind = name.rpartition(".")
        if kind in ("wk", "wv"):
            continue
        heads = ([(f"{block}.h{h}.{k}", params[f"{block}.{k}"].grad[h])
                  for h in range(p.grad.shape[0]) for k in ("wq", "wk", "wv")]
                 if kind == "wq" else [(name, p.grad)])
        for key, g in heads:
            grads[key] = [float(np.linalg.norm(g)),
                          float(np.sum(g * _probe(key, g.shape)))]
    return grads


def record(variant: str) -> dict:
    model_over, train_over = VARIANTS[variant]
    pipeline = TextPipeline()
    dataset = generate_dataset(
        DataConfig(n_identities=5, images_per_identity=3, **GEOMETRY), Rng(0))
    model_cfg = ModelConfig(d=8, heads=2, n_self_layers=1, n_cross_layers=2,
                            bidiratt_layer=1, proj_dim=4, max_text_len=20,
                            vocab_size=len(pipeline.vocab), **GEOMETRY,
                            **model_over)
    cfg = TrainConfig(batch_size=5, queue_size=8, **train_over)
    rng = Rng(cfg.seed)
    init_rng, batch_rng, neg_rng = rng.child(), rng.child(), rng.child()
    params = init_params(model_cfg, init_rng)
    # widen the init so similarities, logits and attention differ enough for
    # every switch to change the numbers; the vocabulary classifier stays at
    # init scale so its softmax does not saturate
    for name, t in params.named():
        if t.data.ndim >= 2 and name != "mpm.w2":
            t.data *= 40.0
    momentum = MomentumState.from_params(params, cfg.momentum_coeff)
    queue = QueueState(cfg.queue_size, model_cfg.proj_dim)
    optim = OptimState.for_params(params)
    batches = make_batches(dataset.train_records(), cfg.batch_size, pipeline,
                           batch_rng)
    out = {}
    for stage, batch in zip((1, 2), batches):
        total, breakdown, diag = train_step(batch, stage, params, momentum,
                                            queue, model_cfg, cfg, neg_rng)
        nx.backward(total)
        out[f"stage{stage}"] = {
            "loss": {k: getattr(breakdown, k)
                     for k in ("itc", "itm", "tri", "biatt", "mpm", "total")},
            "p_i2t": breakdown.p_i2t.tolist(),
            "p_t2i": breakdown.p_t2i.tolist(),
            "weight_sums": list(diag.weight_sums),
            "grads": _grad_records(params),
        }
        adamw_step(params, optim, 1e-3, cfg.weight_decay)
        momentum_update(params, momentum)
        params.zero_grads()
    return out


if __name__ == "__main__":
    lines = [f"{json.dumps(v)}: {json.dumps(record(v))}" for v in VARIANTS]
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
