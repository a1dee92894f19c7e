import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from phrasealign import data, trainer
from phrasealign import losses as ls
from phrasealign import model as md
from phrasealign.numerics import Rng
from phrasealign.textproc import TextPipeline

FIXTURES = Path(__file__).with_name("fixtures")
_spec = importlib.util.spec_from_file_location(
    "train_step_golden", FIXTURES / "train_step_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RTOL = 1e-10
ATOL = 1e-12


def assert_matches(got, want, path="record"):
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert abs(got - want) <= ATOL + RTOL * abs(want), \
            f"{path}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden_records():
    return json.loads(golden.PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("variant", list(golden.VARIANTS))
def test_train_step_matches_golden(variant, golden_records):
    assert_matches(golden.record(variant), golden_records[variant], variant)


def tiny_setup(**train_over):
    geometry = dict(patch_rows=2, patch_cols=2, patch_pixels=6)
    pipeline = TextPipeline()
    dataset = data.generate_dataset(
        data.DataConfig(n_identities=3, images_per_identity=3, **geometry), Rng(0))
    model_cfg = md.ModelConfig(d=8, heads=2, n_self_layers=1, n_cross_layers=2,
                               bidiratt_layer=1, proj_dim=4, max_text_len=20,
                               vocab_size=len(pipeline.vocab), **geometry)
    cfg = trainer.TrainConfig(batch_size=3, **train_over)
    return pipeline, dataset, model_cfg, cfg


def test_train_step_enqueues_batch_momentum_embeddings():
    pipeline, dataset, model_cfg, cfg = tiny_setup()
    params = md.init_params(model_cfg, Rng(1))
    momentum = md.MomentumState.from_params(params, cfg.momentum_coeff)
    queue = ls.QueueState(cfg.queue_size, model_cfg.proj_dim)
    batch = data.make_batches(dataset.train_records(), cfg.batch_size, pipeline,
                              Rng(2))[0]
    trainer.train_step(batch, 1, params, momentum, queue, model_cfg, cfg, Rng(3))
    assert queue.filled == len(batch.images)


def test_train_is_bitwise_reproducible():
    pipeline, dataset, model_cfg, cfg = tiny_setup(stage1_epochs=1,
                                                   stage2_epochs=1)
    a = trainer.train(model_cfg, cfg, dataset, pipeline)
    b = trainer.train(model_cfg, cfg, dataset, pipeline)
    assert len(a.log_rows) > 0
    assert a.log_rows == b.log_rows
    for name, t in a.params.named():
        assert np.array_equal(t.data, b.params[name].data), name
    for name, t in a.momentum.shadow.items():
        assert np.array_equal(t.data, b.momentum.shadow[name].data), name
