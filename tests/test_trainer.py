import copy
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from phrasealign import data, trainer
from phrasealign import losses as ls
from phrasealign import model as md
from phrasealign import numerics as nx
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


def test_golden_records_are_the_fixture_variants(golden_records):
    assert list(golden_records) == list(golden.VARIANTS)


# the values a ``str`` switch takes; each one other than its default needs a
# golden variant
STR_SWITCH_VALUES = {"neg_sampling": ("hard", "uniform")}


def test_golden_variants_cover_every_switch_value():
    """A golden variant sets each non-default value of every ``bool`` or
    ``str`` field of ``ModelConfig`` and ``TrainConfig`` alone, so a new
    switch or switch value fails here until the fixture records it."""
    variants = list(golden.VARIANTS.values())
    for side, config in enumerate((md.ModelConfig, trainer.TrainConfig)):
        for field in dataclasses.fields(config):
            if field.type in ("bool", bool):
                values = [not field.default]
            elif field.type in ("str", str):
                assert field.name in STR_SWITCH_VALUES, \
                    f"{field.name}: list its values in STR_SWITCH_VALUES"
                values = [v for v in STR_SWITCH_VALUES[field.name] if v != field.default]
            else:
                continue
            for value in values:
                over = ({}, {field.name: value}) if side else ({field.name: value}, {})
                assert over in variants, f"no golden variant sets {field.name}={value!r}"


def test_golden_rewrite_of_named_variants_keeps_every_other_line(tmp_path, monkeypatch):
    path = tmp_path / "golden.json"
    path.write_bytes(golden.PATH.read_bytes())
    monkeypatch.setattr(golden, "PATH", path)
    monkeypatch.setattr(golden, "record", lambda variant: {"stub": variant})
    before = path.read_text(encoding="utf-8").splitlines(keepends=True)
    golden.rewrite(["tie_score_head"])
    after = path.read_text(encoding="utf-8").splitlines(keepends=True)
    changed = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
    assert len(after) == len(before) and len(changed) == 1
    assert json.loads(path.read_text(encoding="utf-8"))["tie_score_head"] == \
        {"stub": "tie_score_head"}
    golden.rewrite()
    assert json.loads(path.read_text(encoding="utf-8")) == {
        v: {"stub": v} for v in golden.VARIANTS}
    with pytest.raises(SystemExit, match="unknown variants"):
        golden.rewrite(["no_such_variant"])


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


def tiny_state(pipeline, dataset, model_cfg, cfg):
    """A state of fresh parameters for the tiny corpus, and its first batch."""
    state = trainer.TrainState.for_params(md.init_params(model_cfg, Rng(1)), model_cfg,
                                          cfg, Rng(2), Rng(3))
    batch = data.make_batches(dataset.train_records(), cfg.batch_size, pipeline,
                              state.batch_rng)[0]
    return state, batch


def first_step(stage):
    """``train_step`` on the first batch of the tiny corpus, every term
    enabled; returns (batch, queue, step outputs)."""
    pipeline, dataset, model_cfg, cfg = tiny_setup()
    state, batch = tiny_state(pipeline, dataset, model_cfg, cfg)
    return batch, state.queue, trainer.train_step(batch, stage, state, model_cfg, cfg)


def default_setup():
    """The default configs and corpus, a fresh state and its first batch (8
    images, 24 image-text and 28 image-phrase pairs)."""
    pipeline = TextPipeline()
    dataset = data.generate_dataset(data.DataConfig(), Rng(0))
    model_cfg = md.ModelConfig(vocab_size=len(pipeline.vocab))
    cfg = trainer.TrainConfig()
    state = trainer.TrainState.for_params(md.init_params(model_cfg, Rng(1)), model_cfg,
                                          cfg, Rng(2), Rng(3))
    batch = data.make_batches(dataset.train_records(), cfg.batch_size, pipeline,
                              state.batch_rng)[0]
    assert len(batch.images) == 8 and sum(map(len, batch.masked_phrases)) == 28
    return model_cfg, cfg, state, batch


def default_step(stage=2):
    """``default_setup``'s configs, and a ``train_step`` of ``stage`` on its
    batch as a zero-argument callable returning the total."""
    model_cfg, cfg, state, batch = default_setup()

    def step():
        total, _ = trainer.train_step(batch, stage, state, model_cfg, cfg)
        return total

    return model_cfg, state.params, step


# one default stage-1 step and its backward, as default_step builds it;
# writes the loss terms and every gradient to the .npz file named by argv[1]
_STEP_AND_BACKWARD = """
import dataclasses, sys
import numpy as np
from phrasealign import data, trainer
from phrasealign import model as md
from phrasealign import numerics as nx
from phrasealign.numerics import Rng
from phrasealign.textproc import TextPipeline
pipeline = TextPipeline()
dataset = data.generate_dataset(data.DataConfig(), Rng(0))
model_cfg = md.ModelConfig(vocab_size=len(pipeline.vocab))
cfg = trainer.TrainConfig()
state = trainer.TrainState.for_params(md.init_params(model_cfg, Rng(1)), model_cfg, cfg,
                                      Rng(2), Rng(3))
batch = data.make_batches(dataset.train_records(), cfg.batch_size, pipeline,
                          state.batch_rng)[0]
total, breakdown = trainer.train_step(batch, 1, state, model_cfg, cfg)
grads = nx.backward(total)
np.savez(sys.argv[1], **{f"loss.{k}": v for k, v in dataclasses.asdict(breakdown).items()},
         **{f"grad.{name}": grads[p] for name, p in state.params.items() if p in grads})
"""


def test_default_step_is_bit_identical_at_a_fixed_blas_thread_count(tmp_path):
    """Two runs at one BLAS thread give the same bytes; a run at two threads
    may sum a product in another order, so its gradients may differ in the
    last bits (about 1e-15 of an array's largest entry, measured), but
    its losses do not."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(FIXTURES.parent.parent / "src"), os.environ.get("PYTHONPATH")]))}
    runs = []
    for i, threads in enumerate(("1", "1", "2")):
        path = tmp_path / f"run{i}.npz"
        subprocess.run([sys.executable, "-c", _STEP_AND_BACKWARD, str(path)], check=True,
                       env={**env, "OPENBLAS_NUM_THREADS": threads}, timeout=120)
        with np.load(path) as arrays:
            runs.append(dict(arrays))
    same, other = runs[:2], runs[2]
    assert sum(k.startswith("grad.") for k in other) == 156
    for key in same[0]:
        assert same[0][key].tobytes() == same[1][key].tobytes(), key
        if key.startswith("loss."):
            assert other[key] == same[0][key], key
        else:
            assert np.abs(other[key] - same[0][key]).max() <= \
                1e-14 * np.abs(same[0][key]).max(), key


def test_cross_keys_projected_once_per_distinct_image(monkeypatch):
    # every cross layer of both streams hands the attention the 8 batch
    # images' rows, not one image stack per pair
    model_cfg, params, step = default_step()
    keys = {id(p) for name, p in params.items() if name.endswith(".cross.wk")}
    rows = []
    attention = nx.attention

    def counting(x_q, x_kv, wq, wk, *rest, **kwargs):
        if id(wk) in keys:
            rows.append(x_kv.shape)
        return attention(x_q, x_kv, wq, wk, *rest, **kwargs)

    monkeypatch.setattr(nx, "attention", counting)
    step()
    assert rows == [(8, model_cfg.n_patches + 1, model_cfg.d)] * \
        (2 * model_cfg.n_cross_layers)


# graph nodes of a default step, leaves included: one node per residual
# sublayer, one row-selection node per last layer that computes some rows
# only; an unfused op chain coming back shows up here
GRAPH_SIZE = {1: 219, 2: 290}


def test_backward_leaves_every_node_value_unchanged():
    # a gradient handed on without a copy never aliases a node's value, and
    # backward releases every op node it passes but keeps its value and links
    _, _, step = default_step()
    total = step()
    nodes = nx._toposort(total)
    before = [n.data.copy() for n in nodes]
    nx.backward(total)
    assert len(nodes) == len(nx._toposort(total)) == GRAPH_SIZE[2]
    for node, data in zip(nodes, before):
        assert np.array_equal(node.data, data), node.op
        if node.parents:
            with pytest.raises(nx.GradientStateError, match=f"'{node.op}'"):
                node._backward_fn(np.ones_like(node.data))


@pytest.mark.parametrize("stage", list(GRAPH_SIZE))
def test_default_step_graph_size(stage):
    _, _, step = default_step(stage)
    assert len(nx._toposort(step())) == GRAPH_SIZE[stage]


# the tracemalloc peak of a default step and its backward, in MiB, between
# its values with a node per residual sublayer and cross-attention keys and
# values per image (20.1 and 25.3) and without (24.9 and 34.3)
@pytest.mark.parametrize("stage, bound", [(1, 22.5), (2, 29.8)])
def test_default_step_peak_memory(stage, bound, peak_mib):
    _, _, step = default_step(stage)
    assert peak_mib(lambda: nx.backward(step())) < bound


# tracemalloc MiB of a default step that outlive its backward while the root
# is held, between their values when backward frees each node's saved arrays
# (2.67 and 3.68) and when it does not (17.73 and 22.92)
@pytest.mark.parametrize("stage, bound", [(1, 10.2), (2, 13.3)])
def test_held_step_after_backward_memory(stage, bound, held_mib):
    _, _, step = default_step(stage)

    def differentiated():
        total = step()
        nx.backward(total)
        return total

    assert held_mib(differentiated) < bound


# the tracemalloc peak of a default step, its backward and a second step
# built while the first root is held, as train() holds it, in MiB: between
# its values when backward frees each node's saved arrays (20.66 and 27.34)
# and when it does not (35.72 and 46.58)
@pytest.mark.parametrize("stage, bound", [(1, 28.2), (2, 37.0)])
def test_next_step_peak_memory_with_the_last_root_held(stage, bound, peak_mib):
    _, _, step = default_step(stage)

    def two_steps():
        total = step()
        nx.backward(total)
        step()

    assert peak_mib(two_steps) < bound


# tracemalloc MiB of a default step when the last layers compute only the
# rows a loss reads and the local alignment pools the image stack by index,
# stage 1 / stage 2, against every row computed and a per-pair image copy
# pooled: the peak of a step and its backward (17.21 / 21.74 against 19.56 /
# 24.76), what outlives that backward while the root is held (2.43 / 3.04
# against 2.67 / 3.69), and the peak of a second step built while the first
# root is held (18.36 / 24.17 against 20.65 / 27.35). Each bound lies between.
READ_ROWS_MIB = {1: (18.4, 2.55, 19.5), 2: (23.2, 3.35, 25.8)}


@pytest.mark.parametrize("stage", list(READ_ROWS_MIB))
def test_step_memory_with_last_layers_on_read_rows(stage, peak_mib, held_mib):
    _, _, step = default_step(stage)
    peak, held, next_peak = READ_ROWS_MIB[stage]

    def differentiated():
        total = step()
        nx.backward(total)
        return total

    def two_steps():
        kept = differentiated()  # noqa: F841
        step()

    assert peak_mib(lambda: nx.backward(step())) < peak
    assert held_mib(differentiated) < held
    assert peak_mib(two_steps) < next_peak


# the tracemalloc peak, in MiB, of one train() epoch of the default corpus
# and configs, stage 1 / stage 2, when train() releases each step's graph
# before the next is built and the matching cross-encode names its texts by
# index (21.18 / 25.72), against the last root held while the next step is
# built and a per-pair copy of the texts (22.87 / 28.68). Each bound lies
# between.
TRAIN_EPOCH_MIB = {1: 22.0, 2: 27.2}


def train_epoch(stage):
    """One ``train()`` epoch of ``stage`` on the default corpus and configs,
    as a zero-argument callable."""
    pipeline = TextPipeline()
    dataset = data.generate_dataset(data.DataConfig(), Rng(0))
    model_cfg = md.ModelConfig(vocab_size=len(pipeline.vocab))
    cfg = trainer.TrainConfig(stage1_epochs=int(stage == 1), stage2_epochs=int(stage == 2))
    return lambda: trainer.train(model_cfg, cfg, dataset, pipeline)


@pytest.mark.parametrize("stage", list(TRAIN_EPOCH_MIB))
def test_one_train_epoch_peak_memory(stage, peak_mib):
    assert peak_mib(train_epoch(stage)) < TRAIN_EPOCH_MIB[stage]


# tracemalloc peaks of a default step, in MiB, stage 1 / stage 2, when
# backward recomputes the attention projections and feed-forward hidden rows
# from the nodes' parents, against the graph keeping them: a step and its
# backward (12.79 / 14.99 against 16.78 / 21.30), a second step built while
# the first root is held (13.50 / 16.64 against 18.18 / 23.64), and one
# train() epoch (17.05 / 19.26 against 21.20 / 25.73). Each bound lies
# between.
RECOMPUTED_MIB = {1: (14.5, 15.5, 19.0), 2: (18.0, 20.0, 22.5)}


@pytest.mark.parametrize("stage", list(RECOMPUTED_MIB))
def test_step_memory_with_projections_recomputed_in_backward(stage, peak_mib):
    _, _, step = default_step(stage)
    peak, next_peak, epoch = RECOMPUTED_MIB[stage]

    def two_steps():
        total = step()
        nx.backward(total)
        step()

    assert peak_mib(lambda: nx.backward(step())) < peak
    assert peak_mib(two_steps) < next_peak
    assert peak_mib(train_epoch(stage)) < epoch


def test_memory_helpers_measure_from_entry_and_leave_a_running_trace(peak_mib,
                                                                      held_mib):
    # 8 MiB (2**20 float64 entries) allocated inside each measure, with as
    # much again traced before it in a trace the helpers must neither count
    # nor stop
    n = 2**20
    was_tracing = tracemalloc.is_tracing()
    assert 7.9 < peak_mib(lambda: np.ones(n)) < 8.5
    assert tracemalloc.is_tracing() == was_tracing
    tracemalloc.start()  # does nothing if a trace is running
    try:
        before = np.ones(n)  # noqa: F841
        assert 7.9 < peak_mib(lambda: np.ones(n)) < 8.5
        assert 7.9 < held_mib(lambda: np.ones(n)) < 8.5
        assert tracemalloc.is_tracing()
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("switch, term", [
    ("enable_mpm", "mpm"), ("enable_biatt", "biatt"), ("enable_triplet", "tri")])
def test_a_switched_off_term_leaves_every_other_term_as_is(switch, term):
    """One ``enable_*`` switch off zeroes its term and leaves every other term
    of a stage-2 step on the same state and batch bit-equal to the default
    step's: in particular the local term reads the same phrase pass whether
    MPM is on or off."""
    model_cfg, cfg, state, batch = default_setup()
    want, got = (trainer.train_step(batch, 2, state.replica(), model_cfg, step_cfg)[1]
                 for step_cfg in (cfg, dataclasses.replace(cfg, **{switch: False})))
    assert getattr(want, term) > 0.0 and getattr(got, term) == 0.0
    for other in ("itc", "itm", "tri", "biatt", "mpm"):
        if other != term:
            assert getattr(got, other) == getattr(want, other), other


@pytest.mark.parametrize("field, value", [
    ("warmup_frac", -0.5), ("warmup_frac", 3.0), ("weight_decay", -1.0),
    ("base_lr", float("nan")), ("warmup_lr", float("inf")),
    ("triplet_margin", float("nan")), ("stage1_epochs", -1), ("batch_size", 0),
    ("queue_size", 0), ("seed", -1)])
def test_train_config_rejects_bad_values(field, value):
    trainer.TrainConfig().validate()
    with pytest.raises(ValueError, match=field):
        trainer.TrainConfig(**{field: value}).validate()


@pytest.mark.parametrize("field, value", [
    ("stage1_epochs", 1.5), ("stage2_epochs", 2.0), ("batch_size", "8"),
    ("queue_size", 256.0), ("seed", None), ("batch_size", True), ("seed", False),
    ("stage1_epochs", True)])
def test_train_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        trainer.TrainConfig(**{field: value}).validate()


@pytest.mark.parametrize("field, value", [
    ("enable_mpm", "no"), ("enable_biatt", 0), ("enable_triplet", 1),
    ("enable_mpm", None), ("enable_biatt", "False")])
def test_train_config_rejects_switches_that_are_not_bools(field, value):
    # a non-empty string is true, so enable_mpm="no" would build the MPM term
    with pytest.raises(ValueError, match=f"^{field} must be a bool, got {value!r}"):
        trainer.TrainConfig(**{field: value}).validate()
    trainer.TrainConfig(**{field: np.bool_(False)}).validate()


@pytest.mark.parametrize("field, value", [
    ("base_lr", "1e-3"), ("warmup_lr", None), ("warmup_frac", [0.1]),
    ("momentum_coeff", True), ("weight_decay", "0")])
def test_train_config_rejects_non_numbers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
        trainer.TrainConfig(**{field: value}).validate()
    trainer.TrainConfig(**{field: np.float64(0.5)}).validate()


def test_train_step_enqueues_batch_momentum_embeddings():
    batch, queue, _ = first_step(1)
    assert queue.filled == len(batch.images)


@pytest.mark.parametrize("stage", [0, 3])
def test_train_step_rejects_an_unknown_stage(stage):
    pipeline, dataset, model_cfg, cfg = tiny_setup()
    state, batch = tiny_state(pipeline, dataset, model_cfg, cfg)
    with pytest.raises(ValueError, match="stage must be 1 or 2"):
        trainer.train_step(batch, stage, state, model_cfg, cfg)


def test_steps_on_replicas_repeat_the_step_and_leave_the_state(param_grads):
    pipeline, dataset, model_cfg, cfg = tiny_setup()
    state, batch = tiny_state(pipeline, dataset, model_cfg, cfg)
    trainer.train_step(batch, 1, state, model_cfg, cfg)    # a non-empty queue
    queue = copy.deepcopy(state.queue)
    neg_rng = copy.deepcopy(state.neg_rng)
    runs = []
    for _ in range(2):
        replica = state.replica()
        total, _ = trainer.train_step(batch, 2, replica, model_cfg, cfg)
        runs.append((float(total.data), param_grads(state.params, total)))
        assert replica.queue.filled > queue.filled
    (total_a, grads_a), (total_b, grads_b) = runs
    assert total_a == total_b
    for name, g in grads_a.items():
        assert np.array_equal(g, grads_b[name]), name
    for field in ("q_img", "q_txt", "cursor", "filled"):
        assert np.array_equal(getattr(state.queue, field), getattr(queue, field)), field
    assert np.array_equal(state.neg_rng.uniform(16), neg_rng.uniform(16))


def test_train_returns_its_state_one_optimizer_step_per_log_row():
    pipeline, dataset, model_cfg, cfg = tiny_setup(stage1_epochs=1, stage2_epochs=1)
    state = trainer.train(model_cfg, cfg, dataset, pipeline)
    assert state.optim.step == len(state.log_rows) > 0
    assert [row["step"] for row in state.log_rows] == list(range(state.optim.step))


def test_stage1_step_builds_no_stage2_term(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("stage 1 built a stage-2 loss term")

    monkeypatch.setattr(trainer, "local_alignment_loss", refuse)
    monkeypatch.setattr(ls, "masked_phrase_loss", refuse)
    monkeypatch.setattr(ls, "fusion_triplet_loss", refuse)
    batch, _, (total, bd) = first_step(1)
    assert any(batch.masked_phrases)
    assert bd.tri == bd.biatt == bd.mpm == 0.0
    assert float(total.data) == bd.total == pytest.approx(bd.itc + bd.itm, rel=1e-15)


def test_train_is_bitwise_reproducible():
    pipeline, dataset, model_cfg, cfg = tiny_setup(stage1_epochs=1,
                                                   stage2_epochs=1)
    a = trainer.train(model_cfg, cfg, dataset, pipeline)
    b = trainer.train(model_cfg, cfg, dataset, pipeline)
    assert len(a.log_rows) > 0
    assert a.log_rows == b.log_rows
    for name, t in a.params.items():
        assert np.array_equal(t.data, b.params[name].data), name
    for name, t in a.momentum.shadow.items():
        assert np.array_equal(t.data, b.momentum.shadow[name].data), name


def test_train_names_the_step_of_a_nonfinite_loss(monkeypatch):
    pipeline, dataset, model_cfg, cfg = tiny_setup(stage1_epochs=3,
                                                   stage2_epochs=0)
    calls = []
    itm_loss = ls.itm_loss

    def failing_third_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise nx.NonFiniteError("non-finite values produced by op 'bce'")
        return itm_loss(*args, **kwargs)

    monkeypatch.setattr(ls, "itm_loss", failing_third_call)
    with pytest.raises(trainer.NumericalError,
                       match=r"non-finite loss at step 2: .*'bce'") as info:
        trainer.train(model_cfg, cfg, dataset, pipeline)
    assert isinstance(info.value.__cause__, nx.NonFiniteError)
    assert len(calls) == 3


def test_train_names_the_step_of_a_nonfinite_gradient(monkeypatch):
    pipeline, dataset, model_cfg, cfg = tiny_setup(stage1_epochs=3,
                                                   stage2_epochs=0)
    made, calls = [], []
    init_params, backward = md.init_params, nx.backward

    def recording(*args):
        made.append(init_params(*args))
        return made[-1]

    def planting_at_third_call(root):
        grads = backward(root)
        calls.append(None)
        if len(calls) == 3:
            grads[made[0]["itm.w"]][0, 0] = np.nan
        return grads

    monkeypatch.setattr(md, "init_params", recording)
    monkeypatch.setattr(nx, "backward", planting_at_third_call)
    with pytest.raises(trainer.NumericalError,
                       match=r"^non-finite gradient on parameter itm\.w at step 2$"):
        trainer.train(model_cfg, cfg, dataset, pipeline)
    assert len(calls) == 3


def test_lr_schedule_spans_each_stage_of_batches():
    pipeline, dataset, model_cfg, cfg = tiny_setup(stage1_epochs=2, stage2_epochs=1)
    cfg = dataclasses.replace(cfg, batch_size=2)
    # drop a record of the first identity, so the identities hold 1, 2 and 2
    first = next(i for i in dataset.train_indices
                 if dataset.records[i].identity == 0)
    dataset = dataclasses.replace(
        dataset, train_indices=[i for i in dataset.train_indices if i != first])
    per_epoch = len(data.make_batches(dataset.train_records(), cfg.batch_size,
                                      pipeline, Rng(0)))
    rows = trainer.train(model_cfg, cfg, dataset, pipeline).log_rows
    stages = (rows[:2 * per_epoch], rows[2 * per_epoch:])
    for epochs, stage_rows in zip((2, 1), stages):
        total = epochs * per_epoch
        assert len(stage_rows) == total
        warmup = int(round(cfg.warmup_frac * total))
        assert [row["lr"] for row in stage_rows] == [
            trainer.cosine_lr(step, total, cfg.base_lr, warmup, cfg.warmup_lr)
            for step in range(total)]


# ---------------------------------------------------------------------------
# optimizer and schedule


def grad_params(**grads):
    """Parameters holding zeros, and the given gradients keyed by parameter,
    one per name."""
    params = {name: nx.Tensor(np.zeros_like(g), requires_grad=True)
              for name, g in grads.items()}
    return params, {params[name]: g for name, g in grads.items()}


def test_adamw_first_step_is_bias_corrected_sign_step():
    g = np.array([[0.5, -2.0], [1e-3, 0.0]])
    params, grads = grad_params(w=g)
    state = trainer.OptimState.for_params(params)
    trainer.adamw_step(params, grads, state, lr=0.1, weight_decay=0.0)
    # after one step m/bc1 = g and v/bc2 = g*g, so the update is lr*g/(|g|+eps)
    assert state.step == 1
    assert np.allclose(params["w"].data, -0.1 * g / (np.abs(g) + trainer.ADAM_EPS),
                       rtol=1e-12, atol=0.0)


def test_adamw_decays_only_tensors_of_two_or_more_axes():
    params, grads = grad_params(bias=np.zeros(3), matrix=np.zeros((2, 3)),
                                stacked=np.zeros((2, 3, 4)))
    for p in params.values():
        p.data[...] = 1.0
    trainer.adamw_step(params, grads, trainer.OptimState.for_params(params), lr=0.1,
                       weight_decay=0.5)
    # zero gradients leave only the decoupled decay, 1 - lr * decay
    assert np.array_equal(params["bias"].data, np.ones(3))
    assert np.allclose(params["matrix"].data, 0.95, rtol=1e-15, atol=0.0)
    assert np.allclose(params["stacked"].data, 0.95, rtol=1e-15, atol=0.0)


def test_adamw_names_the_parameter_with_a_nan_gradient():
    params, grads = grad_params(a=np.ones(2), b=np.array([[1.0, np.nan]]))
    state = trainer.OptimState.for_params(params)
    before = params["a"].data.copy()
    with pytest.raises(trainer.NumericalError,
                       match="non-finite gradient on parameter b"):
        trainer.adamw_step(params, grads, state, lr=0.1, weight_decay=0.01)
    # nothing is stepped: not the parameter before the bad one either
    assert np.array_equal(params["a"].data, before)
    assert np.array_equal(params["b"].data, np.zeros((1, 2)))
    assert state.step == 0
    for moments in (state.m, state.v):
        assert all(np.array_equal(m, np.zeros_like(m)) for m in moments.values())


def test_adamw_steps_a_parameter_without_a_gradient_as_with_a_zero_one():
    """A parameter with no entry in the gradients takes, bit for bit, the
    step a zero gradient gives it: weight decay, decaying moments and an
    update from what they held."""
    rng = Rng(7)
    init = {"reached": rng.normal((2, 3)), "unreached": rng.normal((3, 2)),
            "bias": rng.normal(3)}
    runs = []
    for missing in (False, True):
        params = {name: nx.Tensor(value.copy(), requires_grad=True)
                  for name, value in init.items()}
        state = trainer.OptimState.for_params(params)
        for step in range(3):
            # the first step reaches every parameter, so the moments are
            # not zero once the gradients go missing
            grads = {p: Rng(step).normal(p.shape) if step == 0 or name == "reached"
                     else np.zeros(p.shape) for name, p in params.items()}
            if missing and step:
                grads = {params["reached"]: grads[params["reached"]]}
            trainer.adamw_step(params, grads, state, lr=0.1, weight_decay=0.01)
        runs.append((params, state))
    (want, want_state), (got, got_state) = runs
    for name in init:
        assert got[name].data.tobytes() == want[name].data.tobytes(), name
        assert got_state.m[name].tobytes() == want_state.m[name].tobytes(), name
        assert got_state.v[name].tobytes() == want_state.v[name].tobytes(), name


def test_train_steps_the_parameters_no_term_reaches():
    """``score.w`` feeds no loss, and the masked-phrase head none in stage 1:
    backward gives them no entry, and train() steps them as with a zero
    gradient: their moments stay zero, a matrix only decays and a vector
    keeps its value."""
    pipeline, dataset, model_cfg, cfg = tiny_setup(stage1_epochs=1, stage2_epochs=0)
    state, batch = tiny_state(pipeline, dataset, model_cfg, cfg)
    total, _ = trainer.train_step(batch, 1, state, model_cfg, cfg)
    grads = nx.backward(total)
    unreached = sorted(name for name, p in state.params.items() if p not in grads)
    assert unreached == ["mpm.b1", "mpm.b2", "mpm.w1", "mpm.w2", "score.w"]
    init = md.init_params(model_cfg, Rng(cfg.seed).child())
    trained = trainer.train(model_cfg, cfg, dataset, pipeline)
    decay = np.prod([1.0 - row["lr"] * cfg.weight_decay for row in trained.log_rows])
    for name in unreached:
        assert not trained.optim.m[name].any() and not trained.optim.v[name].any()
        value, start = trained.params[name].data, init[name].data
        if start.ndim >= 2:
            assert np.allclose(value, start * decay, rtol=1e-14, atol=0.0), name
        else:
            assert np.array_equal(value, start), name


def test_cosine_lr_warmup_endpoints_and_decay_to_zero():
    kwargs = dict(total_steps=20, base_lr=1e-3, warmup_steps=4, warmup_lr=1e-6)
    assert trainer.cosine_lr(0, **kwargs) == 1e-6
    assert trainer.cosine_lr(4, **kwargs) == pytest.approx(1e-3, rel=1e-15)
    assert trainer.cosine_lr(20, **kwargs) == pytest.approx(0.0, abs=1e-18)
    values = [trainer.cosine_lr(s, **kwargs) for s in range(4, 21)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError, match="nonnegative"):
        trainer.cosine_lr(-1, **kwargs)


def test_train_writes_checkpoints_and_log(tmp_path):
    pipeline, dataset, model_cfg, cfg = tiny_setup(stage1_epochs=1,
                                                   stage2_epochs=1)
    result = trainer.train(model_cfg, cfg, dataset, pipeline, out_dir=tmp_path)
    # training is reproducible, so a stage-1-only run gives the stage-1 state
    stage1 = trainer.train(model_cfg, dataclasses.replace(cfg, stage2_epochs=0),
                           dataset, pipeline)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "stage1.ckpt", "stage2.ckpt", "training_log.csv"]
    for stage, want in ((1, stage1), (2, result)):
        params = md.init_params(model_cfg, Rng(99))
        momentum = md.MomentumState.from_params(params, cfg.momentum_coeff)
        md.load_params_state(params, momentum,
                             md.load_checkpoint(tmp_path / f"stage{stage}.ckpt"))
        for name, t in want.params.items():
            assert np.array_equal(params[name].data, t.data), (stage, name)
        for name, t in want.momentum.shadow.items():
            assert np.array_equal(momentum.shadow[name].data, t.data), (stage, name)

    lines = (tmp_path / "training_log.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(trainer.LOG_COLUMNS)
    assert len(lines) == len(result.log_rows) + 1
    for line, row in zip(lines[1:], result.log_rows):
        assert line.split(",") == [str(row["step"])] + [
            f"{row[c]:.12g}" for c in trainer.LOG_COLUMNS[1:]]
