import dataclasses
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


# ---------------------------------------------------------------------------
# optimizer, schedule and clipping


def grad_params(**grads):
    """Params holding zeros with the given gradients, one per name."""
    params = md.Params()
    for name, g in grads.items():
        params.add(name, np.zeros_like(g)).grad[...] = g
    return params


def test_adamw_first_step_is_bias_corrected_sign_step():
    g = np.array([[0.5, -2.0], [1e-3, 0.0]])
    params = grad_params(w=g)
    state = trainer.OptimState.for_params(params)
    trainer.adamw_step(params, state, lr=0.1, weight_decay=0.0)
    # after one step m/bc1 = g and v/bc2 = g*g, so the update is lr*g/(|g|+eps)
    assert state.step == 1
    assert np.allclose(params["w"].data, -0.1 * g / (np.abs(g) + state.eps),
                       rtol=1e-12, atol=0.0)


def test_adamw_decays_only_tensors_of_two_or_more_axes():
    params = grad_params(bias=np.zeros(3), matrix=np.zeros((2, 3)),
                         stacked=np.zeros((2, 3, 4)))
    for _, p in params.named():
        p.data[...] = 1.0
    trainer.adamw_step(params, trainer.OptimState.for_params(params), lr=0.1,
                       weight_decay=0.5)
    # zero gradients leave only the decoupled decay, 1 - lr * decay
    assert np.array_equal(params["bias"].data, np.ones(3))
    assert np.allclose(params["matrix"].data, 0.95, rtol=1e-15, atol=0.0)
    assert np.allclose(params["stacked"].data, 0.95, rtol=1e-15, atol=0.0)


def test_cosine_lr_warmup_endpoints_and_decay_to_zero():
    kwargs = dict(total_steps=20, base_lr=1e-3, warmup_steps=4, warmup_lr=1e-6)
    assert trainer.cosine_lr(0, **kwargs) == 1e-6
    assert trainer.cosine_lr(4, **kwargs) == pytest.approx(1e-3, rel=1e-15)
    assert trainer.cosine_lr(20, **kwargs) == pytest.approx(0.0, abs=1e-18)
    values = [trainer.cosine_lr(s, **kwargs) for s in range(4, 21)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError, match="nonnegative"):
        trainer.cosine_lr(-1, **kwargs)


def test_clip_gradients_returns_norm_and_rescales():
    params = grad_params(a=np.array([3.0, 0.0]), b=np.array([[0.0, 4.0]]))
    assert trainer.clip_gradients(params, max_norm=1.0) == pytest.approx(5.0)
    assert np.allclose(params["a"].grad, [0.6, 0.0], rtol=1e-15)
    assert np.allclose(params["b"].grad, [[0.0, 0.8]], rtol=1e-15)
    total = sum(float((p.grad ** 2).sum()) for _, p in params.named())
    assert total == pytest.approx(1.0, rel=1e-15)


def test_clip_gradients_zero_max_norm_leaves_gradients():
    params = grad_params(a=np.array([3.0, 0.0]), b=np.array([[0.0, 4.0]]))
    assert trainer.clip_gradients(params, max_norm=0.0) == pytest.approx(5.0)
    assert np.array_equal(params["a"].grad, [3.0, 0.0])
    assert np.array_equal(params["b"].grad, [[0.0, 4.0]])


def test_train_writes_checkpoints_and_log(tmp_path):
    pipeline, dataset, model_cfg, cfg = tiny_setup(stage1_epochs=1,
                                                   stage2_epochs=1)
    result = trainer.train(model_cfg, cfg, dataset, pipeline, out_dir=tmp_path)
    # training is reproducible, so a stage-1-only run gives the stage-1 state
    stage1 = trainer.train(model_cfg, dataclasses.replace(cfg, stage2_epochs=0),
                           dataset, pipeline)
    assert result.checkpoints == {1: tmp_path / "stage1.ckpt",
                                  2: tmp_path / "stage2.ckpt"}
    for stage, want in ((1, stage1), (2, result)):
        params = md.init_params(model_cfg, Rng(99))
        momentum = md.MomentumState.from_params(params, cfg.momentum_coeff)
        md.load_params_state(params, momentum,
                             md.load_checkpoint(result.checkpoints[stage]))
        for name, t in want.params.named():
            assert np.array_equal(params[name].data, t.data), (stage, name)
        for name, t in want.momentum.shadow.items():
            assert np.array_equal(momentum.shadow[name].data, t.data), (stage, name)

    lines = (tmp_path / "training_log.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(trainer.LOG_COLUMNS)
    assert len(lines) == len(result.log_rows) + 1
    for line, row in zip(lines[1:], result.log_rows):
        assert line.split(",") == [str(row["step"])] + [
            f"{row[c]:.12g}" for c in trainer.LOG_COLUMNS[1:]]
