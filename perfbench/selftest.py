"""Tests of the benchmark itself, on a tiny config (a few seconds):

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the package's own test run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from phrasealign import data, model, numerics, trainer  # noqa: E402
from phrasealign.textproc import TextPipeline  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, count_graph_nodes  # noqa: E402

GEOMETRY = dict(patch_rows=2, patch_cols=2, patch_pixels=6)


def tiny_model_config() -> model.ModelConfig:
    return model.ModelConfig(d=8, heads=2, n_self_layers=1, n_cross_layers=2,
                             bidiratt_layer=1, proj_dim=4, max_text_len=20,
                             vocab_size=len(TextPipeline().vocab), **GEOMETRY)


def tiny_train_session(stage: int, reference=None) -> workloads.TrainSession:
    return workloads.TrainSession(
        stage, 0, data_cfg=data.DataConfig(n_identities=3, images_per_identity=3,
                                           **GEOMETRY),
        model_cfg=tiny_model_config(),
        train_cfg=trainer.TrainConfig(batch_size=3), reference=reference)


def tiny_retrieval_session() -> workloads.RetrievalSession:
    return workloads.RetrievalSession(
        0, n_queries=4,
        data_cfg=data.DataConfig(n_identities=4, images_per_identity=2,
                                 **GEOMETRY),
        model_cfg=tiny_model_config())


@pytest.mark.parametrize("stage", [1, 2])
def test_traced_training_is_bit_identical(stage):
    session = tiny_train_session(stage)
    plain = session.op(0)
    tracer = Tracer()
    originals = (model.cross_encode, numerics.backward, numerics.Tensor.__init__)
    with tracer.installed():
        traced = session.op(1)
    assert (model.cross_encode, numerics.backward,
            numerics.Tensor.__init__) == originals
    assert plain.failed == traced.failed == 0
    assert traced.values == plain.values
    assert tracer.counts["trainer.train_step.calls"] == len(plain.values)
    assert tracer.counts["numerics.graph_nodes"] > 0
    if stage == 2:
        assert tracer.counts["local_align.local_alignment_loss.calls"] > 0


def test_traced_retrieval_is_bit_identical():
    session = tiny_retrieval_session()
    tracer = Tracer()
    for q in range(len(session.queries)):
        plain = session.op(q).values
        with tracer.installed(), tracer.span("bench.query", q):
            traced = session.op(q).values
        assert traced == plain
    assert tracer.counts["model.cross_encode.calls"] == 4 * len(session.queries)
    assert tracer.counts["numerics.graph_nodes"] == 0


def test_rerank_matches_hand_computation():
    session = tiny_retrieval_session()
    params, cfg = session.params, session.model_cfg
    assert len(session.test) == 4
    token_ids = session.queries[1]
    k = 2

    text = model.encode_text(token_ids, params, cfg, mode="infer")
    q = text.cls.data @ params["proj.txt.w"].data
    q = q / np.sqrt(sum(x * x for x in q))
    coarse = []
    for j, out in enumerate(session.gallery_outs):
        g = out.cls.data @ params["proj.img.w"].data
        g = g / np.sqrt(sum(x * x for x in g))
        coarse.append((-sum(a * b for a, b in zip(g, q)), j))
    top = [j for _, j in sorted(coarse)[:k]]
    itm_w = params["itm.w"].data[:, 0]
    logit = {j: sum(a * b for a, b in zip(
        model.cross_encode(text, session.gallery_outs[j], params, cfg,
                           mode="infer").reps.data[0], itm_w)) for j in top}
    expected_order = sorted(top, key=lambda j: -logit[j])

    candidates, logits, order = workloads.rank_query(
        token_ids, session.gallery_outs, session.gallery_emb, params, cfg, k=k)
    assert candidates.tolist() == top
    np.testing.assert_allclose(logits, [logit[j] for j in top], rtol=1e-12)
    assert order.tolist() == expected_order


def test_reference_check_counts_a_wrong_loss_as_failed():
    values = tiny_train_session(2).op(0).values
    assert tiny_train_session(2, reference=values).op(1).failed == 0
    wrong = [list(row) for row in values]
    wrong[-1][-1] *= 1.0 + 1e-7
    outcome = tiny_train_session(2, reference=wrong).op(1)
    assert (outcome.attempted, outcome.failed) == (len(values), 1)


def test_self_time_and_coverage():
    tracer = Tracer()
    tracer.spans = [["bench.query", 0.0, 10.0, -1, 0],
                    ["model.cross_encode", 1.0, 6.0, 0, 0],
                    ["losses.fine_similarity", 2.0, 3.0, 1, 0],
                    ["model.cross_encode", 7.0, 9.0, 0, 0]]
    selfs = tracer.self_times()
    assert selfs["bench.query"] == 3.0
    assert selfs["model.cross_encode"] == 6.0
    assert selfs["losses.fine_similarity"] == 1.0
    assert tracer.coverage() == 0.7


def test_graph_node_count():
    x = numerics.Tensor(np.ones(2), requires_grad=True)
    y = numerics.Tensor(np.ones(2), requires_grad=True)
    root = numerics.sum_all(numerics.add(numerics.mul(x, y), x))
    assert count_graph_nodes(root) == 5
