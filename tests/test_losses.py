import math

import numpy as np
import pytest

from phrasealign import losses as ls
from phrasealign import model as md
from phrasealign import numerics as nx
from phrasealign.numerics import Rng, Tensor
from phrasealign.textproc import MASK_ID, MaskedPhrase


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# queue


def test_queue_entries_normalized():
    q = ls.QueueState(4, 3)
    q.enqueue(np.array([[3.0, 0.0, 0.0]]), np.array([[0.0, 5.0, 0.0]]))
    assert abs(np.linalg.norm(q.image_candidates()[0]) - 1.0) <= 1e-9
    assert abs(np.linalg.norm(q.text_candidates()[0]) - 1.0) <= 1e-9


def test_queue_wraps_fifo():
    q = ls.QueueState(3, 2)
    for i in range(4):
        row = np.array([[1.0 + i, 0.0]])
        q.enqueue(row, row)
    assert q.cursor == 1
    assert q.filled == 3
    # slot 0 now holds the newest entry (value 4), slot 1 the second oldest
    assert q.q_img[0, 0] == pytest.approx(1.0)  # normalized [4, 0] -> [1, 0]
    got = {tuple(np.round(r, 6)) for r in q.q_img}
    assert (1.0, 0.0) in got


def test_queue_rejects_bad_capacity():
    with pytest.raises(ValueError):
        ls.QueueState(0, 2)


def test_queue_rejects_unmatched_rows():
    q = ls.QueueState(4, 4)
    for img, txt in ((np.ones((3, 4)), np.ones((2, 4))),
                     (np.ones((2, 3)), np.ones((2, 3)))):
        with pytest.raises(nx.ShapeError, match="enqueue needs matching"):
            q.enqueue(img, txt)
    assert q.filled == 0 and q.cursor == 0


# ---------------------------------------------------------------------------
# itc


def test_itc_single_item_empty_queue_zero_loss():
    q = ls.QueueState(8, 2)
    emb = unit_rows(np.array([[1.0, 0.0]]))
    loss = ls.itc_loss(Tensor(emb), Tensor(emb), emb, emb, q, Tensor(1.0))
    # the positive is the only candidate: an unfilled queue slot would add a
    # zero logit and a loss of log(1 + 1/e)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-15)


def test_itc_orthonormal_pair_hand_value():
    q = ls.QueueState(8, 2)
    emb = np.eye(2)
    loss = ls.itc_loss(Tensor(emb), Tensor(emb), emb, emb, q, Tensor(1.0))
    expected = -math.log(math.e / (math.e + 1.0))
    assert float(loss.data) == pytest.approx(expected, abs=1e-12)


def test_itc_queue_entries_are_negatives():
    q = ls.QueueState(8, 2)
    emb = np.eye(2)
    # fill the queue with vectors identical to the positives: the loss must
    # rise because they enter the denominator as negatives
    q.enqueue(emb, emb)
    loss_with_queue = ls.itc_loss(Tensor(emb), Tensor(emb), emb, emb, q, Tensor(1.0))
    q2 = ls.QueueState(8, 2)
    loss_empty = ls.itc_loss(Tensor(emb), Tensor(emb), emb, emb, q2, Tensor(1.0))
    assert float(loss_with_queue.data) > float(loss_empty.data)
    # each row faces its 2 batch candidates plus the 2 filled queue slots,
    # logits (1, 0, 1, 0), and not the 6 unfilled ones
    e = math.e
    assert float(loss_with_queue.data) == pytest.approx(math.log(2.0 * (e + 1.0) / e),
                                                   rel=1e-12)
    assert float(loss_empty.data) == pytest.approx(math.log((e + 1.0) / e), rel=1e-12)


def test_itc_rejects_momentum_rows_that_do_not_match():
    q = ls.QueueState(4, 2)
    emb = np.eye(2)
    # three momentum rows for two items would shift every positive's column
    for mom_img, mom_txt in ((np.eye(3, 2), np.eye(3, 2)), (emb, np.eye(2, 3))):
        with pytest.raises(nx.ShapeError, match="differ in shape"):
            ls.itc_loss(Tensor(emb), Tensor(emb), mom_img, mom_txt, q, Tensor(1.0))


def test_itc_rejects_nonpositive_temperature():
    q = ls.QueueState(4, 2)
    emb = np.eye(2)
    with pytest.raises(ValueError, match="temperature"):
        ls.itc_loss(Tensor(emb), Tensor(emb), emb, emb, q, Tensor(-0.1))


def test_itc_momentum_side_receives_no_gradient():
    q = ls.QueueState(8, 2)
    emb = np.eye(2)
    img = Tensor(emb, requires_grad=True)
    txt = Tensor(emb, requires_grad=True)
    tau = Tensor(np.asarray(1.0), requires_grad=True)
    loss = ls.itc_loss(img, txt, emb, emb, q, tau)
    grads = nx.backward(loss)
    assert np.abs(grads[img]).max() > 0
    assert txt in grads and tau in grads
    # queue holds plain arrays; nothing in the graph points at them
    assert q.q_img.base is None


# ---------------------------------------------------------------------------
# itm


def test_itm_logit_zero_is_log2_per_pair():
    loss = ls.itm_loss(Tensor([0.0]), [1.0])
    assert float(loss.data) == pytest.approx(math.log(2.0))


def test_itm_saturated_positive():
    assert float(ls.itm_loss(Tensor([20.0]), [1.0]).data) < 1e-8


def test_itm_identical_fusion_minimum_at_zero():
    def total(z):
        return float(ls.itm_loss(Tensor([z, z]), [1.0, 0.0]).data)

    assert total(0.0) == pytest.approx(2.0 * math.log(2.0))
    assert total(0.5) > total(0.0)
    assert total(-0.5) > total(0.0)


def test_itm_normalizes_by_positive_count():
    loss = ls.itm_loss(Tensor(np.zeros(4)), [1.0, 1.0, 0.0, 0.0])
    assert float(loss.data) == pytest.approx(2.0 * math.log(2.0))


def test_fine_similarity_scalar():
    cls = Tensor(np.array([1.0, 2.0]))
    w_o = Tensor(np.array([[0.5], [1.0]]))
    assert float(ls.fine_similarity(cls, w_o).data) == pytest.approx(2.5)


# ---------------------------------------------------------------------------
# negatives


def test_negatives_batch_of_two_forced():
    sims = np.zeros((2, 2))
    neg_txt, neg_img = ls.sample_negatives([0, 1], sims, Rng(0))
    assert neg_txt == [1, 0]
    assert neg_img == [1, 0]


def test_negatives_batch_of_one_empty():
    neg_txt, neg_img = ls.sample_negatives([0], np.zeros((1, 1)), Rng(0))
    assert neg_txt == [] and neg_img == []


@pytest.mark.parametrize("n", [1, 3])
def test_negatives_reject_unknown_mode(n):
    with pytest.raises(ValueError, match="bogus"):
        ls.sample_negatives(list(range(n)), np.zeros((n, n)), Rng(0), mode="bogus")


def test_negatives_uniform_monte_carlo():
    rng = Rng(42)
    counts = {j: 0 for j in range(4) if j != 0}
    n = 10_000
    sims = Rng(7).normal((4, 4))
    for _ in range(n):
        neg_txt, _ = ls.sample_negatives([0, 1, 2, 3], sims, rng, mode="uniform")
        counts[neg_txt[0]] += 1
    for j, c in counts.items():
        assert abs(c / n - 1.0 / 3.0) <= 0.02


def test_negatives_never_select_self():
    rng = Rng(3)
    sims = np.full((3, 3), -5.0)
    np.fill_diagonal(sims, 50.0)  # the (masked) self is by far the best match
    for _ in range(200):
        neg_txt, neg_img = ls.sample_negatives([0, 1, 2], sims, rng)
        for i, j in enumerate(neg_txt):
            assert j != i
        for j, i in enumerate(neg_img):
            assert i != j


def test_negatives_hard_mode_prefers_similar():
    rng = Rng(11)
    sims = np.array([[0.0, 5.0, -5.0],
                     [0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0]])
    picks = [ls.sample_negatives([0, 1, 2], sims, rng)[0][0] for _ in range(200)]
    assert picks.count(1) > 190


# ---------------------------------------------------------------------------
# triplet


def test_triplet_boundary_zero():
    loss = ls.fusion_triplet_loss(Tensor(1.0), Tensor(0.4), Tensor(0.4), margin=0.6)
    assert float(loss.data) == pytest.approx(0.0)


def test_triplet_hand_value():
    loss = ls.fusion_triplet_loss(Tensor(1.0), Tensor(0.8), Tensor(0.8), margin=0.6)
    assert float(loss.data) == pytest.approx(0.32)


def test_triplet_satisfied_margin():
    loss = ls.fusion_triplet_loss(Tensor(10.0), Tensor(0.0), Tensor(0.0), margin=0.6)
    assert float(loss.data) == 0.0


def test_triplet_gradient_is_zero_at_the_kink():
    # neg - pos + margin is exactly 0 for both negatives
    leaves = [Tensor(v, requires_grad=True) for v in (1.0, 0.5, 0.5)]
    loss = ls.fusion_triplet_loss(*leaves, margin=0.5)
    grads = nx.backward(loss)
    assert float(loss.data) == 0.0
    assert [float(np.sum(grads.get(t, 0.0))) for t in leaves] == [0.0, 0.0, 0.0]


def test_triplet_gradient_beside_the_kink():
    """At gaps of +-delta the gradient of each negative is 2 max(gap, 0)
    over the pair count, the positive's is minus their sum, and finite
    differences, whose stencil stays on one side of the kink, agree."""
    margin, delta = 0.5, 1e-3
    values = [np.ones(2), np.array([0.5 - delta, 0.5 + delta]),
              np.array([0.5 + delta, 0.5 - delta])]
    leaves = [Tensor(v, requires_grad=True) for v in values]
    grads = nx.backward(ls.fusion_triplet_loss(*leaves, margin=margin))
    pos, neg_img, neg_txt = values
    want_img, want_txt = (2.0 * np.maximum(neg - pos + margin, 0.0) / len(pos)
                          for neg in (neg_img, neg_txt))
    assert np.allclose(want_img, [0.0, delta], rtol=1e-9, atol=0.0)
    for got, want in zip((grads[t] for t in leaves),
                         (-(want_img + want_txt), want_img, want_txt)):
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    for k in range(3):
        def f(x, k=k):
            args = [x if j == k else Tensor(v) for j, v in enumerate(values)]
            return ls.fusion_triplet_loss(*args, margin=margin)

        assert nx.finite_diff_check(f, Tensor(values[k])) < 1e-6


def test_triplet_rejects_bad_margin():
    with pytest.raises(ValueError):
        ls.fusion_triplet_loss(Tensor(0.0), Tensor(0.0), Tensor(0.0), margin=-1.0)


# ---------------------------------------------------------------------------
# masked phrase loss


def mpm_setup(vocab_size=10, d=4, zero=True):
    rng = Rng(0)
    params = {name: Tensor(value, requires_grad=True) for name, value in (
        ("mpm.w1", np.zeros((d, d)) if zero else rng.normal((d, d))),
        ("mpm.b1", np.zeros(d)),
        ("mpm.w2", np.zeros((d, vocab_size)) if zero else rng.normal((d, vocab_size))),
        ("mpm.b2", np.zeros(vocab_size)))}
    masked = MaskedPhrase((5, MASK_ID), 1, 7)
    # a batch of one: the fused [MASK] row
    fusion = md.EncoderOutput(Tensor(Rng(1).normal((1, 1, d))), rows=[masked.mask_index + 1])
    return params, fusion, masked, vocab_size


def test_mpm_uniform_logits_log_vocab():
    params, fusion, masked, v = mpm_setup(zero=True)
    loss = ls.masked_phrase_loss(fusion, [masked], params)
    assert loss.data.item() == pytest.approx(math.log(v))


def test_mpm_saturated_correct():
    params, fusion, masked, v = mpm_setup(zero=True)
    params["mpm.b2"].data[masked.target_id] = 30.0
    loss = ls.masked_phrase_loss(fusion, [masked], params)
    assert loss.data.item() < 1e-8


def test_mpm_rejects_a_fusion_of_every_row():
    params, fusion, masked, _ = mpm_setup()
    every_row = md.EncoderOutput(Tensor(Rng(1).normal((1, 3, fusion.reps.shape[-1]))))
    with pytest.raises(ValueError, match="fusion holds every row; MPM reads rows"):
        ls.masked_phrase_loss(every_row, [masked], params)


# ---------------------------------------------------------------------------
# total


def test_total_zero_phrases_is_global_only():
    total, bd = ls.total_loss(Tensor(1.0), Tensor(2.0), Tensor(0.5), None, None)
    assert float(total.data) == pytest.approx(3.5)
    assert bd.biatt == 0.0 and bd.mpm == 0.0


def test_total_phrase_additivity():
    one, _ = ls.total_loss(Tensor(0.0), Tensor(0.0), Tensor(0.0),
                           Tensor([0.3]), Tensor([0.7]))
    two, _ = ls.total_loss(Tensor(0.0), Tensor(0.0), Tensor(0.0),
                           Tensor([0.3] * 2), Tensor([0.7] * 2))
    assert float(two.data) == pytest.approx(2.0 * float(one.data))


def test_total_breakdown_sums_exactly():
    total, bd = ls.total_loss(Tensor(0.37), Tensor(1.21), Tensor(0.11),
                              Tensor([0.53, 0.19]), Tensor([2.41, 0.07]),
                              phrase_scale=0.5)
    assert abs(bd.total - (bd.itc + bd.itm + bd.tri + bd.biatt + bd.mpm)) <= 1e-12
    assert bd.total == pytest.approx(float(total.data))


def test_all_losses_nonnegative():
    rng = Rng(5)
    for _ in range(5):
        z = float(rng.normal(()))
        assert float(ls.itm_loss(Tensor([z]), [1.0]).data) >= 0.0
        assert float(ls.fusion_triplet_loss(Tensor(z), Tensor(z - 1), Tensor(z),
                                            margin=0.6).data) >= 0.0
