"""Golden values of ``trainer.train_step`` on a tiny config, for the default
switches and for every non-default value of each switch.

    PYTHONPATH=src python tests/fixtures/train_step_golden.py [VARIANT ...]

rewrites ``train_step_golden.json`` beside this file: the named variants'
records, or every record when none is named. Every other line of the file is
kept byte for byte. Each variant runs one
stage-1 step, one AdamW and momentum update, then one stage-2 step with the
queue the first step filled. Per step it records the loss breakdown and,
per parameter, the gradient's L2 norm and its dot product with a fixed probe
seeded by the parameter's name. ``tests/test_trainer.py`` recomputes every
record with the current code and compares.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import zlib
from pathlib import Path

import numpy as np

from phrasealign import numerics as nx
from phrasealign.data import DataConfig, generate_dataset, make_batches
from phrasealign.model import ModelConfig, init_params, momentum_update
from phrasealign.numerics import Rng
from phrasealign.textproc import TextPipeline
from phrasealign.trainer import TrainConfig, TrainState, adamw_step, train_step

PATH = Path(__file__).with_suffix(".json")
GEOMETRY = dict(patch_rows=2, patch_cols=2, patch_pixels=6)

# name -> (ModelConfig overrides, TrainConfig overrides)
VARIANTS = {
    "default": ({}, {}),
    "biatt_row=cls": ({"biatt_row": "cls"}, {}),
    "biatt_phrase=clean": ({"biatt_phrase": "clean"}, {}),
    "tie_score_head": ({"tie_score_head": True}, {}),
    "triplet_direction=printed": ({}, {"triplet_direction": "printed"}),
    "neg_sampling=uniform": ({}, {"neg_sampling": "uniform"}),
    "enable_triplet=False": ({}, {"enable_triplet": False}),
    "enable_biatt=False": ({}, {"enable_biatt": False}),
    "enable_mpm=False": ({}, {"enable_mpm": False}),
    "bidiratt_layer=2": ({"bidiratt_layer": 2}, {}),   # traces the last layer
}


def _probe(name: str, shape) -> np.ndarray:
    return np.random.default_rng(zlib.crc32(name.encode())).standard_normal(shape)


def _grad_records(params, grads) -> dict:
    """[L2 norm, probe dot] of each parameter's gradient, zero where
    ``grads``, as ``backward`` returns them, holds none. Head h of a stacked
    ``{block}.wq``/``wk``/``wv`` is recorded as ``{block}.h{h}.wq`` etc., in
    per-head q, k, v order, the keys and order of the per-head layout the
    fixture was recorded with."""
    def grad(name):
        return grads.get(params[name], np.zeros(params[name].shape))

    out = {}
    for name, p in params.items():
        block, _, kind = name.rpartition(".")
        if kind in ("wk", "wv"):
            continue
        heads = ([(f"{block}.h{h}.{k}", grad(f"{block}.{k}")[h])
                  for h in range(p.shape[0]) for k in ("wq", "wk", "wv")]
                 if kind == "wq" else [(name, grad(name))])
        for key, g in heads:
            out[key] = [float(np.linalg.norm(g)),
                        float(np.sum(g * _probe(key, g.shape)))]
    return out


def record(variant: str) -> dict:
    model_over, train_over = VARIANTS[variant]
    pipeline = TextPipeline()
    dataset = generate_dataset(
        DataConfig(n_identities=5, images_per_identity=3, **GEOMETRY), Rng(0))
    # a variant's overrides replace these base values
    model_cfg = dataclasses.replace(
        ModelConfig(d=8, heads=2, n_self_layers=1, n_cross_layers=2, bidiratt_layer=1,
                    proj_dim=4, max_text_len=20, vocab_size=len(pipeline.vocab),
                    **GEOMETRY),
        **model_over)
    cfg = TrainConfig(batch_size=5, queue_size=8, **train_over)
    rng = Rng(cfg.seed)
    init_rng, batch_rng, neg_rng = rng.child(), rng.child(), rng.child()
    params = init_params(model_cfg, init_rng)
    # widen the init so similarities, logits and attention differ enough for
    # every switch to change the numbers; the vocabulary classifier stays at
    # init scale so its softmax does not saturate
    for name, t in params.items():
        if t.data.ndim >= 2 and name != "mpm.w2":
            t.data *= 40.0
    state = TrainState.for_params(params, model_cfg, cfg, batch_rng, neg_rng)
    batches = make_batches(dataset.train_records(), cfg.batch_size, pipeline,
                           state.batch_rng)
    out = {}
    for stage, batch in zip((1, 2), batches):
        total, breakdown = train_step(batch, stage, state, model_cfg, cfg)
        grads = nx.backward(total)
        out[f"stage{stage}"] = {
            "loss": {k: getattr(breakdown, k)
                     for k in ("itc", "itm", "tri", "biatt", "mpm", "total")},
            "grads": _grad_records(params, grads),
        }
        adamw_step(params, grads, state.optim, 1e-3, cfg.weight_decay)
        momentum_update(params, state.momentum)
    return out


def rewrite(names=()) -> None:
    """Re-record the named variants and any the file lacks, or every variant
    when none is named; keep every other line of the file byte for byte."""
    unknown = sorted(set(names) - VARIANTS.keys())
    if unknown:
        raise SystemExit(f"unknown variants: {unknown}")
    kept = {}
    for line in PATH.read_text(encoding="utf-8").splitlines()[1:-1] if names else ():
        kept[json.loads(line.partition(": ")[0])] = line.rstrip(",")
    lines = [kept[v] if v in kept and v not in names else
             f"{json.dumps(v)}: {json.dumps(record(v))}" for v in VARIANTS]
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    rewrite(sys.argv[1:])
