import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phrasealign import model as md
from phrasealign import numerics as nx
from phrasealign.textproc import TextPipeline


def t(data, grad=False):
    return nx.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def tanh(x, *norm):
    """Elementwise tanh through the op that has one: ``tanh_mlp`` with
    identity weights and zero biases, which equals np.tanh exactly. Given a
    gain and a bias, the residual node: the layer norm of x + tanh(x)."""
    eye, zero = t(np.eye(x.shape[-1])), t(np.zeros(x.shape[-1]))
    return nx.tanh_mlp(x, eye, zero, eye, zero, *norm)


def unit_norm(width):
    """The gain and bias of a layer norm with no learned scale or shift."""
    return t(np.ones(width)), t(np.zeros(width))


# ---------------------------------------------------------------------------
# matmul: linear, the one product of rows with a weight


def test_matmul_identity():
    m = t([[2.0, -1.0], [0.5, 3.0]])
    eye = t(np.eye(2))
    assert np.array_equal(nx.linear(m, eye).data, m.data)


def test_matmul_hand():
    y = nx.linear(t([[1.0, 2.0], [3.0, 4.0]]), t([[1.0], [1.0]]))
    assert np.array_equal(y.data, [[3.0], [7.0]])


def test_matmul_zeros():
    y = nx.linear(t(np.zeros((3, 4))), t(np.ones((4, 2))))
    assert np.array_equal(y.data, np.zeros((3, 2)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(nx.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        nx.linear(t(np.ones((2, 3))), t(np.ones((2, 2))))
    # the weight is one matrix, never a stack
    with pytest.raises(nx.ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
        nx.linear(t(np.ones((2, 3, 4))), t(np.ones((3, 4, 5))))


def test_matmul_associativity():
    rng = nx.Rng(7)
    a, b, c = (t(rng.normal((4, 5))), t(rng.normal((5, 6))), t(rng.normal((6, 3))))
    left = nx.linear(nx.linear(a, b), c).data
    right = nx.linear(a, nx.linear(b, c)).data
    assert np.abs(left - right).max() < 1e-10


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["(d,)", "(B, d)", "(B, L, d)"])
def test_linear_without_bias(lead):
    """Without a bias the node is ``x @ w`` with parents (x, w) alone, on a
    row, a matrix or a batch of matrices; its gradients are numpy's
    products, the weight's summed over every row, and pass central
    differences."""
    rng = nx.Rng(25)
    x, w = t(rng.normal(lead + (4,)), grad=True), t(rng.normal((4, 6), 0.5), grad=True)
    y = nx.linear(x, w)
    assert np.array_equal(y.data, x.data @ w.data)
    assert y.parents == (x, w)
    g = rng.normal(y.shape)
    grads = nx.backward(nx.sum_all(nx.mul(y, t(g))))
    assert set(grads) == {x, w}
    assert np.allclose(grads[x], g @ w.data.T, rtol=1e-12, atol=1e-12)
    assert np.allclose(grads[w], x.data.reshape(-1, 4).T @ g.reshape(-1, 6),
                       rtol=1e-12, atol=1e-12)
    for probe in (x, w):
        def f(v):
            return nx.sum_all(tanh(nx.linear(*(v if leaf is probe else leaf
                                                for leaf in (x, w)))))

        assert nx.finite_diff_check(f, probe) < 1e-6


# ---------------------------------------------------------------------------
# heads as the leading axis


def test_stacked_ops_match_per_head_matrices(layer_norm, near):
    rng = nx.Rng(8)
    x = t(rng.normal((4, 6)))
    w = t(rng.normal((3, 6, 2)))
    u = t(rng.normal((2, 5)))
    wo, bo = t(rng.normal((6, 6))), t(rng.normal(6))
    gain, bias = t(rng.normal(6) + 1.0), t(rng.normal(6))
    q = nx.linear(t(x.data @ w.data), u)
    out, a, v = nx.attention(x, x, w, w, w, wo, bo, gain, bias, 0.5, trace=True)
    assert q.shape == (3, 4, 5) and a.shape == (3, 4, 4) and v.shape == (3, 4, 2)
    for h in range(3):
        qh = x.data @ w.data[h]
        assert np.array_equal(v[h], qh)
        assert np.array_equal(q.data[h], qh @ u.data)
        one = t(w.data[h:h + 1])
        alone = nx.attention(x, x, one, one, one, t(wo.data[2 * h:2 * h + 2]), bo,
                             gain, bias, 0.5, trace=True)
        assert np.array_equal(a[h], alone[1][0])
        assert np.array_equal(nx.take_row(q, 1).data[h], q.data[h, 1])
    # the heads' a . v side by side, head 0 first, then the output projection
    # and the layer norm of the residual sum
    merged = np.concatenate(list(a @ v), axis=1)
    assert near(out.data, layer_norm(x.data + (merged @ wo.data + bo.data), gain.data,
                                     bias.data))


def test_attention_rejects_a_key_bias_that_is_not_one_value_per_key():
    """A key bias broadcasts to the ([B,] heads, L_q, L_kv) scores without
    enlarging them, and its query axis is 1: softmax ignores a bias per
    query row. Any other raises ShapeError, before any arithmetic. The
    model's (B, 1, 1, L) padding bias and its gather per pair pass."""
    rng = nx.Rng(29)
    x, w = t(rng.normal((4, 3))), t(rng.normal((2, 3, 2)))
    rest = (t(rng.normal((4, 3))), t(np.zeros(3)), *unit_norm(3), 1.0)
    for shape in ((4,), (1, 4), (1, 1, 4), (2, 1, 4)):     # scores (2, 4, 4)
        nx.attention(x, x, w, w, w, *rest, np.zeros(shape))
    for shape in ((3,), (5, 2, 4, 4), (4, 1), (2, 4), (2, 4, 4), (1, 1, 1, 4)):
        with pytest.raises(nx.ShapeError, match="key bias"):
            nx.attention(x, x, w, w, w, *rest, np.zeros(shape))
    batch = t(rng.normal((3, 4, 3)))
    pad = np.where(np.arange(4) < np.array([[4], [2], [3]]), 0.0,
                   md.PAD_BIAS)[:, None, None, :]
    nx.attention(batch, batch, w, w, w, *rest, pad)
    texts = nx.gather_rows(batch, [2, 0, 2, 1])
    nx.attention(texts, texts, w, w, w, *rest, pad[[2, 0, 2, 1]])
    for bad in (pad[:2], pad[..., :3], pad[:, :, [0, 0]]):
        with pytest.raises(nx.ShapeError, match="key bias"):
            nx.attention(batch, batch, w, w, w, *rest, bad)


def test_attention_requires_a_head_stack():
    x, w = t(np.ones((2, 3))), t(np.ones((3, 4)))
    with pytest.raises(nx.ShapeError):
        nx.attention(x, x, w, w, w, t(np.ones((4, 3))), t(np.zeros(3)), *unit_norm(3), 1.0)


@pytest.mark.parametrize("probe", ["matrix", "stack", "shared right"])
def test_finite_diff_stacked_head_ops(probe):
    """A matrix times each matrix of a stack, picked by gather_rows, a stack
    times a shared matrix, attention with one stack as its query, key and
    value weights, and stacked take_row; each operand probed."""
    rng = nx.Rng(13)
    leaves = {"matrix": t(rng.normal((4, 6))), "stack": t(rng.normal((3, 6, 2))),
              "shared right": t(rng.normal((2, 5)))}
    wo, bo = t(rng.normal((6, 6), 0.5)), t(rng.normal(6, 0.5))
    gain, bias = t(rng.normal(6, 0.5) + 1.0), t(rng.normal(6, 0.5))

    def f(v):
        x, w, u = (v if name == probe else leaf for name, leaf in leaves.items())
        q = nx.reshape(nx.concat([nx.linear(x, nx.gather_rows(w, h)) for h in range(3)]),
                       (3, 4, 2))
        out = nx.attention(x, x, w, w, w, wo, bo, gain, bias, 0.5)
        return nx.sum_n([nx.sum_all(tanh(out)),
                         nx.sum_all(nx.mul(nx.take_row(q, 1), nx.take_row(q, 2))),
                         nx.mean_all(tanh(nx.linear(q, u)))])

    assert nx.finite_diff_check(f, leaves[probe]) < 1e-6


# ---------------------------------------------------------------------------
# a leading batch axis


def test_batched_ops_match_per_item_ops():
    rng = nx.Rng(14)
    short, long_ = rng.normal((2, 6)), rng.normal((3, 6))
    w = t(rng.normal((2, 6, 3)))
    padded = np.vstack([short, np.zeros((1, 6))])
    x = t(np.stack([padded, long_, padded]))
    row = t(rng.normal((1, 6)))
    top = nx.prepend_row(row, x)
    assert top.shape == (3, 4, 6)
    for b in range(3):
        assert np.array_equal(top.data[b], nx.prepend_row(row, t(x.data[b])).data)
    wo, bo = t(rng.normal((6, 6))), t(rng.normal(6))
    gain, bias = t(rng.normal(6)), t(rng.normal(6))
    out, a, v = nx.attention(x, x, w, w, w, wo, bo, gain, bias, 0.5, trace=True)
    normed = tanh(out, gain, bias)
    assert out.shape == (3, 3, 6)
    for b in range(3):
        one = nx.attention(t(x.data[b]), t(x.data[b]), w, w, w, wo, bo, gain, bias, 0.5,
                           trace=True)
        assert np.array_equal(out.data[b], one[0].data)
        assert np.array_equal(a[b], one[1]) and np.array_equal(v[b], one[2])
        assert np.array_equal(normed.data[b], tanh(t(out.data[b]), gain, bias).data)
        assert np.array_equal(nx.gather_rows(x, b).data, x.data[b])
    assert np.array_equal(nx.gather_rows(x, [2, 0, 2]).data, x.data[[2, 0, 2]])
    # losses over the last axis, one target or label per row or element
    targets = np.array([[0, 5, 2], [1, 1, 4], [3, 0, 5]])
    labels = (rng.uniform((3, 3, 6)) > 0.5).astype(float)
    ce = nx.cross_entropy_logits(normed, targets)
    bce = nx.binary_cross_entropy_logit(normed, labels)
    assert ce.shape == (3, 3) and bce.shape == (3, 3, 6)
    for b in range(3):
        for r in range(3):
            row = t(normed.data[b, r])
            assert np.allclose(ce.data[b, r],
                               nx.cross_entropy_logits(row, int(targets[b, r])).data,
                               rtol=1e-15, atol=0.0)
            for j in range(6):
                assert bce.data[b, r, j] == float(nx.binary_cross_entropy_logit(
                    t(normed.data[b, r, j]), labels[b, r, j]).data)
    with pytest.raises(nx.ShapeError):
        nx.cross_entropy_logits(normed, targets[0])
    with pytest.raises(nx.ShapeError):
        nx.binary_cross_entropy_logit(normed, labels[0])


@pytest.mark.parametrize("probe", ["short", "long", "cls", "weights", "gain", "bias"])
def test_finite_diff_batched_ops(probe):
    """A zero-padded stack under a shared [CLS] row, batched attention and a
    residual tanh node that share one layer norm's gain and bias, int and
    repeated leading-axis indexing, and batched cross-entropy and BCE; each
    operand probed."""
    rng = nx.Rng(15)
    leaves = {"short": t(rng.normal((2, 4))), "long": t(rng.normal((3, 4))),
              "cls": t(rng.normal((1, 4))), "weights": t(rng.normal((2, 4, 3))),
              "gain": t(rng.normal(4, 0.5) + 1.0), "bias": t(rng.normal(4, 0.5))}
    wo, bo = t(rng.normal((6, 4), 0.5)), t(rng.normal(4, 0.5))

    def f(v):
        short, long_, cls, w, gain, bias = (v if name == probe else leaf
                                            for name, leaf in leaves.items())
        padded = nx.concat([short, t(np.zeros((1, 4)))])
        stack = nx.reshape(nx.concat([padded, long_, padded]), (3, 3, 4))
        rows = nx.prepend_row(cls, stack)
        out = nx.attention(rows, rows, w, w, w, wo, bo, gain, bias, 0.5)
        y = tanh(out, gain, bias)
        picked = nx.gather_rows(y, [2, 0, 2])
        one = nx.gather_rows(y, 1)
        ce = nx.cross_entropy_logits(y, np.array([[0, 3, 2, 1], [1, 1, 2, 3],
                                                  [3, 0, 1, 2]]))
        bce = nx.binary_cross_entropy_logit(one, np.eye(4))
        return nx.sum_n([nx.sum_all(tanh(picked)), nx.mean_all(nx.mul(one, one)),
                         nx.sum_all(ce), nx.sum_all(bce)])

    assert nx.finite_diff_check(f, leaves[probe]) < 1e-6


def test_shared_matrix_matmul_backward_matches_broadcast_sum():
    """(..., L, d) @ (d, w): the weight gradient equals the per-index
    products summed back over the leading axes."""
    rng = nx.Rng(17)
    for lead in ((5,), (2, 3)):
        a = t(rng.normal(lead + (3, 4)), grad=True)
        w = t(rng.normal((4, 6)), grad=True)
        g = rng.normal(lead + (3, 6))
        grads = nx.backward(nx.sum_all(nx.mul(nx.linear(a, w), t(g))))
        want_a = nx._unbroadcast(g @ np.swapaxes(w.data, -1, -2), a.shape)
        want_w = nx._unbroadcast(np.swapaxes(a.data, -1, -2) @ g, w.shape)
        assert grads[a].shape == a.shape and grads[w].shape == w.shape
        assert np.allclose(grads[a], want_a, rtol=1e-12, atol=1e-12)
        assert np.allclose(grads[w], want_w, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("ids", [[2, 1, 2, 2], [[1, 3, 1], [1, 1, -1]], 3],
                         ids=["1-D", "2-D", "int"])
def test_gather_rows_backward_matches_add_at(ids):
    """Repeated ids (and a negative one) add their gradient rows into one
    entry in the same order as np.add.at; unused entries get zero."""
    rng = nx.Rng(18)
    table = t(rng.normal((5, 2, 3)), grad=True)
    picked = nx.gather_rows(table, ids)
    g = rng.normal(picked.shape)
    got = nx.backward(nx.sum_all(nx.mul(picked, t(g))))[table]
    want = np.zeros(table.shape)
    np.add.at(want, np.asarray(ids), g)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    assert not got[0].any()


@pytest.mark.parametrize("k", [0, 3, -1])
def test_gather_rows_of_an_int_id_matches_its_one_entry_list(k):
    """An int id is a 0-d id: the entry ``table[k]``, with the leading axis
    dropped, holds the values of ``[k]``'s one entry and takes the same
    gradient."""
    rng = nx.Rng(26)
    table = t(rng.normal((5, 2, 3)), grad=True)
    one, listed = nx.gather_rows(table, k), nx.gather_rows(table, [k])
    assert one.shape == (2, 3) and listed.shape == (1, 2, 3)
    assert np.array_equal(one.data, listed.data[0])
    g = rng.normal((2, 3))
    got = nx.backward(nx.sum_all(nx.mul(one, t(g))))[table]
    want = nx.backward(nx.sum_all(nx.mul(listed, t(g[None]))))[table]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("rows", [1, [2, 0, 2]], ids=["one row", "row per matrix"])
def test_select_rows_keeps_a_one_row_matrix(rows):
    """One row of every matrix, or one per matrix, as (B, 1, n); the
    gradient goes back to the picked rows only."""
    rng = nx.Rng(19)
    stack = t(rng.normal((3, 4, 2)), grad=True)
    picked = nx.select_rows(stack, rows)
    at = np.broadcast_to(rows, (3,))
    assert np.array_equal(picked.data, stack.data[np.arange(3), at][:, None])
    g = rng.normal(picked.shape)
    got = nx.backward(nx.sum_all(nx.mul(picked, t(g))))[stack]
    want = np.zeros(stack.shape)
    want[np.arange(3), at] = g[:, 0]
    assert np.array_equal(got, want)
    assert nx.select_rows(t(stack.data[0]), 3).shape == (1, 2)


def test_select_rows_rejects_bad_rows():
    stack = t(np.zeros((3, 4, 2)))
    with pytest.raises(nx.ShapeError):
        nx.select_rows(stack, [0, 1])
    with pytest.raises(IndexError):
        nx.select_rows(stack, [0, 4, 1])
    with pytest.raises(IndexError):
        nx.select_rows(stack, -1)


# ---------------------------------------------------------------------------
# fused ops: attention and tanh MLP sublayers, linear


def row_softmax(scores):
    """Softmax of each row of ``scores``: the attention weights of a batch of
    one zero query per row against zero keys, each pair taking its row of
    the scores as its key bias."""
    scores = np.asarray(scores, dtype=np.float64)
    rows, cols = scores.shape
    zero = t(np.zeros((1, 1, 1)))
    return nx.attention(t(np.zeros((rows, 1, 1))), t(np.zeros((rows, cols, 1))), zero,
                        zero, zero, t(np.zeros((1, 1))), t(np.zeros(1)), *unit_norm(1),
                        1.0, scores[:, None, None, :], trace=True)[1][:, 0, 0]


def test_row_softmax_uniform():
    y = row_softmax([[0.0, 0.0, 0.0]])
    assert np.allclose(y, 1.0 / 3.0)


def test_row_softmax_hand():
    y = row_softmax([[math.log(1.0), math.log(3.0)]])
    assert np.allclose(y, [[0.25, 0.75]], atol=1e-12)


def test_row_softmax_no_overflow(attention_chain, near):
    """Rows that the shift by the key-0 score would take out of exp's range
    are redone with the row maximum as the shift: key 0 biased up by 1,000,
    so its exponential would overflow; key 0 masked with ``PAD_BIAS`` and
    every other key biased 800 below it, so every exponential and the row
    sum would underflow to 0; and query and key rows of norms that put the
    shifted scores past the exponent bound. Each matches the chain, and
    nothing warns."""
    y = row_softmax([[1000.0, 0.0]])
    assert np.all(np.isfinite(y))
    assert y[0, 0] > 1.0 - 1e-12
    assert y[0, 1] < 1e-12
    assert np.all(y >= 0.0) and np.all(y <= 1.0)
    args = [leaf.data for leaf in attention_args("pair", attention_case("pair")[0])]
    # keys 1-4 close together, key 0 opposite them: a query row puts its
    # weight on one side, and spreads it over keys 1-4 on theirs
    x_q, x_kv = args[:2]
    wide = [12.0 * x_q, 12.0 * np.vstack([-x_kv[:1], x_kv[:1] + 0.02 * x_kv[1:]])]
    wide += args[2:]
    for arrays, key_bias, tol in (
            (args, np.array([1000.0, 0.0, 3.0, -2.0, 1.0]), {}),
            (args, np.array([md.PAD_BIAS, -800.0, -801.0, -805.0, -800.0]),
             {"rtol": LARGE_SCORES_RTOL}),
            (wide, None, {"rtol": LARGE_SCORES_RTOL})):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out, a, v = nx.attention(*(t(x) for x in arrays), 0.6, key_bias, trace=True)
        want_out, want_a, want_v = attention_chain(*arrays[:7], 0.6, key_bias,
                                                   norm=arrays[7:])
        assert near(out.data, want_out, **tol) and near(a, want_a, **tol)
        assert np.array_equal(v, want_v)
    scores = 0.6 * (wide[0] @ wide[2]) @ np.swapaxes(wide[1] @ wide[3], -1, -2)
    assert (scores - scores[..., :1]).max() > 710.0     # exp would overflow
    assert 0.1 < a[0, 1, 1:].max() < 0.9                # and a row spreads


def test_finite_diff_attention_through_the_guard():
    """The gradient of a softmax redone with the row maximum: key 0 masked
    and the other keys biased 800 below it, so every exponential of the
    shift by key 0 underflows."""
    leaves, _, _ = attention_case("pair")
    key_bias = np.array([md.PAD_BIAS, -800.0, -801.0, -805.0, -800.0])
    c = t(nx.Rng(26).normal((3, 4)))

    def f(v):
        out = nx.attention(*attention_args("pair", {**leaves, "wq": v}), 0.6, key_bias)
        return nx.sum_all(nx.mul(out, c))

    assert nx.finite_diff_check(f, leaves["wq"]) < 1e-6


# logit gaps below ~30 keep every entry strictly inside (0, 1) at float64;
# beyond that the tails round to exact 0/1 (see the overflow test above)
@given(hnp.arrays(np.float64, (3, 5), elements=st.floats(-14, 14)))
def test_row_softmax_rows_are_distributions(x):
    y = row_softmax(x)
    assert np.abs(y.sum(axis=1) - 1.0).max() <= 1e-9
    assert np.all(y > 0.0) and np.all(y < 1.0)


# how far a softmax over scores of magnitude up to about 2e3 may be from the
# chain: a weight's relative error is the absolute error of its score, about
# 1.1e-16 of that magnitude; the worst measured is 2.6e-14
LARGE_SCORES_RTOL = 1e-12

ATTENTION_WEIGHTS = ("wq", "wk", "wv", "wo", "bo", "gain", "bias")

# image indexes of 4 images: the pairs of an image are not adjacent and
# images 1 and 3 take one pair each; pairs on images 0 and 3 only; every
# pair on one image; one pair
RAGGED = {"unsorted": [2, 0, 3, 0, 2, 1], "unused image": [0, 3, 0],
          "one image": [1, 1, 1, 1], "single pair": [2]}


def attention_case(case):
    """Leaves, key bias and key/value index of a small attention: ``self``
    shares one (B, L, d) x between queries and keys, with a padding key
    bias; ``cross`` is a batch against an image stack whose index repeats
    an image; ``pair`` is one (L_q, d) matrix against one (L_kv, d); a
    ``RAGGED`` case is a batch against a stack of 4 images under its index."""
    rng = nx.Rng(25)
    if case in RAGGED:
        index, rows = RAGGED[case], [(len(RAGGED[case]), 3, 4), (4, 5, 4)]
    else:
        index = [1, 0, 1] if case == "cross" else None
        rows = {"self": [(3, 4, 4)], "cross": [(3, 3, 4), (2, 5, 4)],
                "pair": [(3, 4), (5, 4)]}[case]
    leaves = dict(zip(("x",) if case == "self" else ("x_q", "x_kv"),
                      (t(rng.normal(shape)) for shape in rows)))
    leaves.update({name: t(rng.normal((2, 4, 3))) for name in ATTENTION_WEIGHTS[:3]})
    leaves.update(wo=t(rng.normal((6, 4), 0.5)), bo=t(rng.normal(4)),
                  gain=t(rng.normal(4, 0.5) + 1.0), bias=t(rng.normal(4, 0.5)))
    pad = np.where(np.arange(4) < np.array([[4], [2], [3]]), 0.0, -1e30)
    key_bias = pad[:, None, None, :] if case == "self" else None
    return leaves, key_bias, index


def attention_args(case, leaves):
    names = ("x", "x") if case == "self" else ("x_q", "x_kv")
    return [leaves[name] for name in names + ATTENTION_WEIGHTS]


def chain_of(case, attention_chain):
    """The attention chain of ``case`` with its layer norm, as arrays."""
    leaves, key_bias, index = attention_case(case)
    args = [a.data for a in attention_args(case, leaves)]
    return attention_chain(*args[:7], 0.6, key_bias, index, norm=args[7:])


@pytest.mark.parametrize("case, probe", [
    (case, probe) for case in ("self", "cross", "pair", "unsorted")
    for probe in (("x",) if case == "self" else ("x_q", "x_kv")) + ATTENTION_WEIGHTS])
def test_finite_diff_attention(case, probe):
    """Each of the nine inputs probed; the shared x of self-attention fills
    the query and the key/value input at once."""
    leaves, key_bias, index = attention_case(case)
    x_q = attention_args(case, leaves)[0]
    c = t(nx.Rng(26).normal(x_q.shape))

    def f(v):
        out = nx.attention(*attention_args(case, {**leaves, probe: v}), 0.6, key_bias,
                           index)
        return nx.sum_all(nx.mul(out, c))

    assert nx.finite_diff_check(f, leaves[probe]) < 1e-6


@pytest.mark.parametrize("case", list(RAGGED))
def test_indexed_attention_matches_the_chain(case, attention_chain, near):
    """Pairs indexing a stack of images against the chain that gathers keys
    and values per pair: the values, which come back per pair, agree bit for
    bit, the output and the attention within ``CHAIN_RTOL``."""
    leaves, _, index = attention_case(case)
    out, a, v = nx.attention(*attention_args(case, leaves), 0.6, None, index, trace=True)
    want_out, want_a, want_v = chain_of(case, attention_chain)
    assert v.shape == (len(index), 2, 5, 3) and np.array_equal(v, want_v)
    assert near(a, want_a)
    assert near(out.data, want_out)


@pytest.mark.parametrize("case", list(RAGGED))
def test_indexed_attention_gradients_match_the_selected_rows(case):
    """Every input's gradient through the indexed path equals that of the
    same attention over the image rows gathered per pair; an image no pair
    uses gets none."""
    leaves, _, index = attention_case(case)
    c = t(nx.Rng(26).normal((len(index), 3, 4)))

    def grads(indexed):
        fresh = {name: t(leaf.data, grad=True) for name, leaf in leaves.items()}
        x_q, x_kv, *weights = attention_args(case, fresh)
        out = nx.attention(x_q, x_kv, *weights, 0.6, None, index) if indexed else \
            nx.attention(x_q, nx.gather_rows(x_kv, index), *weights, 0.6)
        got = nx.backward(nx.sum_all(nx.mul(out, c)))
        return out.data, {name: got[leaf] for name, leaf in fresh.items()}

    (got, got_grads), (want, want_grads) = grads(True), grads(False)
    assert np.array_equal(got, want)
    for name, g in want_grads.items():
        assert np.allclose(got_grads[name], g, rtol=1e-12, atol=1e-12), name
    unused = np.setdiff1d(np.arange(4), index)
    assert not got_grads["x_kv"][unused].any()


def test_indexed_attention_keeps_no_per_pair_keys_or_values(held_mib):
    """64 pairs on 2 entries of 100 keys: while its graph is alive, the node
    keeps no copy of the keys and values per pair. What it keeps, output
    included, stays under half the size of those copies."""
    rng = nx.Rng(28)
    pairs, entries, keys, d, heads, w = 64, 2, 100, 32, 4, 8
    x_q = t(rng.normal((pairs, 2, d)), grad=True)
    x_kv = t(rng.normal((entries, keys, d)))
    weights = [t(rng.normal((heads, d, w))) for _ in range(3)] + [
        t(rng.normal((heads * w, d))), t(np.zeros(d)), *unit_norm(d)]
    index = np.arange(pairs) % entries
    copies = 2 * pairs * heads * keys * w * 8 / 2**20
    held = held_mib(lambda: nx.attention(x_q, x_kv, *weights, 0.5, kv_index=index))
    assert held < copies / 2


def kept_by(node, name):
    """The array ``name`` that the node's backward function keeps."""
    fn = node._backward_fn
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


@pytest.mark.parametrize("case", ["self", "cross", "pair"])
def test_traced_attention_hands_out_the_weights_its_node_keeps(case, near):
    """A traced call keeps one array of weights: the exponentials its
    backward reads, normalized in place, are the attention it hands out,
    read-only, with rows that sum to 1. The output is that of an untraced
    call bit for bit, and every input's gradient lies within 1e-12 of the
    untraced one's largest entry."""
    leaves, key_bias, index = attention_case(case)
    c = t(nx.Rng(26).normal(attention_args(case, leaves)[0].shape))

    def run(trace):
        fresh = {name: t(leaf.data, grad=True) for name, leaf in leaves.items()}
        got = nx.attention(*attention_args(case, fresh), 0.6, key_bias, index,
                           trace=trace)
        out = got[0] if trace else got
        kept = kept_by(out, "e")
        grads = nx.backward(nx.sum_all(nx.mul(out, c)))
        return got, kept, {name: grads[leaf] for name, leaf in fresh.items()}

    (out, a, _), kept, grads = run(True)
    plain, _, want_grads = run(False)
    assert a is kept and not a.flags.writeable
    with pytest.raises(ValueError):
        a[..., 0] = 0.0
    assert np.abs(a.sum(axis=-1) - 1.0).max() <= 1e-12
    assert np.array_equal(out.data, plain.data)
    for name, g in want_grads.items():
        assert near(grads[name], g, rtol=1e-12), name


def layer_norm_by_reshapes(s, gain, bias):
    """The fused layer norm as it was before it worked on one (rows, n)
    matrix, in plain numpy: each row mean a reshape of all rows to (rows,
    n), a product with the column of 1/n, and a reshape back. Returns (out,
    backward) as ``numerics._layer_norm`` does; ``s`` is left as it is."""
    n = s.shape[-1]
    col, rows = np.full((n, 1), 1.0 / n), s.shape[:-1] + (1,)

    def mean(x):
        return (x.reshape(-1, n) @ col).reshape(rows)

    xhat = s - mean(s)
    inv = 1.0 / np.sqrt(mean(xhat * xhat) + 1e-5)
    xhat *= inv

    def bw(g):
        gh = g * gain
        return ((gh - mean(gh) - xhat * mean(gh * xhat)) * inv,
                (g * xhat).reshape(-1, n).sum(axis=0), g.reshape(-1, n).sum(axis=0))

    return xhat * gain + bias, bw


def strided(a):
    """``a``'s values in an array whose last axis skips every other entry."""
    out = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))[..., ::2]
    out[...] = a
    return out


def leading_axes_swapped(a):
    """``a``'s values in an array whose first two axes cannot be merged into
    one: its rows cannot be viewed as one (rows, n) matrix."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1)).swapaxes(0, 1)


@pytest.mark.parametrize("shape", [(5, 6), (3, 5, 6), (2, 3, 4, 6)],
                         ids=["2-D", "3-D", "4-D"])
@pytest.mark.parametrize("layout", [np.ascontiguousarray, strided, leading_axes_swapped])
def test_layer_norm_on_its_rows_view_equals_the_reshape_chain(shape, layout):
    """The layer norm that works on one (rows, n) matrix of the residual sum
    equals the chain that reshapes for each row mean, bit for bit, forward
    and backward, on 2-D to 4-D sums, contiguous or not. A sum whose leading
    axes cannot be merged has no such matrix as a view: it is normalized in
    a copy, and what the layer norm returns and what its backward reads are
    that copy, never the sum it was not written into."""
    rng = nx.Rng(29)
    values, g = rng.normal(shape, 3.0) + 1.0, rng.normal(shape)
    gain, bias = t(rng.normal(6) + 1.0), t(rng.normal(6))
    s = layout(values)
    assert np.array_equal(s, values)
    if layout is leading_axes_swapped and len(shape) > 2:
        assert not np.shares_memory(s.reshape(-1, 6), s)
    want, want_bw = layer_norm_by_reshapes(layout(values), gain.data, bias.data)
    got, got_bw = nx._layer_norm(s, gain, bias)
    assert got.shape == shape and np.array_equal(got, want)
    for got_g, want_g in zip(got_bw(layout(g)), want_bw(layout(g))):
        assert got_g.shape == want_g.shape and np.array_equal(got_g, want_g)


@pytest.mark.parametrize("probe", ["x", "w1", "b1", "w2", "b2", "gain", "bias"])
def test_finite_diff_tanh_mlp(probe):
    """The plain node and the residual node LN(x + tanh_mlp(x)) on the same
    weights; each input probed."""
    rng = nx.Rng(27)
    leaves = {"x": t(rng.normal((2, 3, 4))), "w1": t(rng.normal((4, 6), 0.5)),
              "b1": t(rng.normal(6, 0.5)), "w2": t(rng.normal((6, 4))),
              "b2": t(rng.normal(4)), "gain": t(rng.normal(4, 0.5) + 1.0),
              "bias": t(rng.normal(4, 0.5))}
    c, c_norm = t(rng.normal((2, 3, 4))), t(rng.normal((2, 3, 4)))

    def f(v):
        args = [v if name == probe else leaf for name, leaf in leaves.items()]
        return nx.sum_n([nx.sum_all(nx.mul(nx.tanh_mlp(*args[:5]), c)),
                         nx.sum_all(nx.mul(nx.tanh_mlp(*args), c_norm))])

    assert nx.finite_diff_check(f, leaves[probe]) < 1e-6


def test_fused_ops_equal_the_chains_they_replace(attention_chain, layer_norm, near):
    """Each fused op's value is the chain of ops it replaced, written out in
    numpy: bit for bit where the op runs the chain's arithmetic, within
    ``CHAIN_RTOL`` where it has a softmax or a layer norm."""
    for case in ("self", "cross", "pair"):
        leaves, key_bias, index = attention_case(case)
        got = nx.attention(*attention_args(case, leaves), 0.6, key_bias, index,
                           trace=True)
        want = chain_of(case, attention_chain)
        assert near(got[0].data, want[0]), case
        assert near(got[1], want[1]) and np.array_equal(got[2], want[2]), case

    rng = nx.Rng(19)
    x = rng.normal((3, 4, 6))
    gain, bias = rng.normal(6) + 1.0, rng.normal(6)
    w, b = rng.normal((6, 3)), rng.normal(3)
    w2, b2 = rng.normal((3, 5)), rng.normal(5)
    w3, b3 = rng.normal((3, 6)), rng.normal(6)
    for rows in (x, x[0]):
        assert np.array_equal(nx.linear(t(rows), t(w), t(b)).data, rows @ w + b)
        assert np.array_equal(nx.tanh_mlp(t(rows), t(w), t(b), t(w2), t(b2)).data,
                              np.tanh(rows @ w + b) @ w2 + b2)
        residual = nx.tanh_mlp(*(t(a) for a in (rows, w, b, w3, b3, gain, bias)))
        assert near(residual.data,
                    layer_norm(rows + (np.tanh(rows @ w + b) @ w3 + b3), gain, bias))


@pytest.mark.parametrize("bias", ["none", "pad"])
@pytest.mark.parametrize("probe", ["rows", "wq", "wk"])
def test_finite_diff_attention_weights_single_image(probe, bias):
    """One image's (L, d) rows attending to themselves through (heads, d,
    head_dim) weights, with and without a padding key bias; the rows and the
    weights that set the attention weights probed."""
    rng = nx.Rng(20)
    leaves = {"rows": t(rng.normal((4, 6))), "wq": t(rng.normal((2, 6, 3))),
              "wk": t(rng.normal((2, 6, 3)))}
    key_bias = None if bias == "none" else np.array([0.0, 0.0, 0.0, -1e30])
    wv, wo, bo = t(rng.normal((2, 6, 3))), t(rng.normal((6, 6))), t(rng.normal(6))
    c = t(rng.normal((4, 6)))

    def f(v):
        x, wq, wk = (v if name == probe else leaf for name, leaf in leaves.items())
        out = nx.attention(x, x, wq, wk, wv, wo, bo, *unit_norm(6), 0.5, key_bias)
        return nx.sum_all(nx.mul(out, c))

    assert nx.finite_diff_check(f, leaves[probe]) < 1e-6


@pytest.mark.parametrize("bias", ["none", "pad"])
@pytest.mark.parametrize("probe", ["q", "k"])
def test_finite_diff_attention_weights_batch(probe, bias):
    """(B, L, d) query rows against (B, L_k, d) key rows, with and without a
    per-pair padding key bias; each side probed."""
    rng = nx.Rng(21)
    leaves = {"q": t(rng.normal((3, 4, 3))), "k": t(rng.normal((3, 5, 3)))}
    pad = np.where(np.arange(5) < np.array([[5], [3], [4]]), 0.0, -1e30)
    key_bias = None if bias == "none" else pad[:, None, None, :]
    wq, wk, wv = (t(rng.normal((2, 3, 2))) for _ in range(3))
    wo, bo = t(rng.normal((4, 3))), t(rng.normal(3))
    c = t(rng.normal((3, 4, 3)))

    def f(v):
        x_q, x_kv = (v if name == probe else leaf for name, leaf in leaves.items())
        out = nx.attention(x_q, x_kv, wq, wk, wv, wo, bo, *unit_norm(3), 0.7, key_bias)
        return nx.sum_all(nx.mul(out, c))

    assert nx.finite_diff_check(f, leaves[probe]) < 1e-6


@pytest.mark.parametrize("probe", ["x", "delta", "gain", "bias"])
def test_finite_diff_add_layer_norm(probe):
    """The add & layer norm that ends a residual node, alone: with zero
    weights the residual tanh node is LN(x + delta), its second bias the
    delta added to every row."""
    rng = nx.Rng(22)
    leaves = {"x": t(rng.normal((2, 3, 5))), "delta": t(rng.normal(5)),
              "gain": t(rng.normal(5, 0.5) + 1.0), "bias": t(rng.normal(5, 0.5))}
    w1, b1, w2 = t(np.zeros((5, 4))), t(np.zeros(4)), t(np.zeros((4, 5)))

    def f(v):
        x, delta, gain, bias = (v if name == probe else leaf
                                for name, leaf in leaves.items())
        return nx.sum_all(tanh(nx.tanh_mlp(x, w1, b1, w2, delta, gain, bias)))

    assert nx.finite_diff_check(f, leaves[probe]) < 1e-6


@pytest.mark.parametrize("lead", [(4,), (2, 4)], ids=["2-D", "3-D"])
@pytest.mark.parametrize("probe", ["x", "w", "b"])
def test_finite_diff_linear(probe, lead):
    rng = nx.Rng(23)
    leaves = {"x": t(rng.normal(lead + (5,))), "w": t(rng.normal((5, 3), 0.5)),
              "b": t(rng.normal(3))}

    def f(v):
        x, w, b = (v if name == probe else leaf for name, leaf in leaves.items())
        return nx.sum_all(tanh(nx.linear(x, w, b)))

    assert nx.finite_diff_check(f, leaves[probe]) < 1e-6


def test_linear_backward_matches_broadcast_sum():
    """(..., L, d) rows: the one-contraction weight and bias gradients equal
    the per-index products summed back over the leading axes."""
    rng = nx.Rng(24)
    for lead in ((5,), (2, 3)):
        x = t(rng.normal(lead + (3, 4)), grad=True)
        w, b = t(rng.normal((4, 6)), grad=True), t(rng.normal(6), grad=True)
        g = rng.normal(lead + (3, 6))
        grads = nx.backward(nx.sum_all(nx.mul(nx.linear(x, w, b), t(g))))
        assert np.allclose(grads[x], g @ w.data.T, rtol=1e-12, atol=1e-12)
        assert np.allclose(grads[w], nx._unbroadcast(np.swapaxes(x.data, -1, -2) @ g,
                                                     w.shape), rtol=1e-12, atol=1e-12)
        assert np.allclose(grads[b], g.reshape(-1, 6).sum(axis=0), rtol=1e-12,
                           atol=1e-12)


def test_fused_ops_reject_mismatched_operands():
    leaves, _, _ = attention_case("cross")
    x_q, x_kv, wq, wk, wv, wo, bo, gain, bias = attention_args("cross", leaves)
    index = [1, 0, 1]

    def attend(*, x_q=x_q, x_kv=x_kv, wq=wq, wk=wk, wo=wo, bo=bo, gain=gain,
               key_bias=None, index=index):
        return nx.attention(x_q, x_kv, wq, wk, wv, wo, bo, gain, bias, 1.0, key_bias,
                            index)

    attend()
    attend(x_kv=nx.gather_rows(x_kv, index), index=None, key_bias=np.zeros(5))
    for bad in (dict(wk=t(np.ones((2, 4, 2)))),             # key width
                dict(x_q=t(np.ones((3, 3, 5)))),            # query width
                dict(x_kv=t(np.ones((2, 5, 5)))),           # key/value width
                dict(index=None),                           # keys per pair
                dict(index=[1, 0]),                         # an entry per pair
                dict(x_q=t(np.ones((3, 4)))),               # a batch to index
                dict(wo=t(np.ones((5, 4)))),                # heads * width rows
                dict(wo=t(np.ones((6, 5)))),                # the residual's width
                dict(bo=t(np.ones(6))),
                dict(gain=t(np.ones(5)))):                  # the norm's width
        with pytest.raises(nx.ShapeError):
            attend(**bad)
    # images are never padded: a key bias takes no index
    with pytest.raises(nx.ShapeError, match="key bias"):
        attend(key_bias=np.zeros(5))
    for bad in ([1, 0, 2], [1, -1, 0]):
        with pytest.raises(IndexError, match="index"):
            attend(index=bad)
    w1, b1, w2, b2 = (t(np.ones(s)) for s in ((4, 6), (6,), (6, 3), (3,)))
    w2_4, b2_4 = t(np.ones((6, 4))), t(np.ones(4))
    nx.tanh_mlp(x_q, w1, b1, w2, b2)
    nx.tanh_mlp(x_q, w1, b1, w2_4, b2_4, *unit_norm(4))
    for bad in ((x_kv, w1, b1, t(np.ones((5, 3))), b2), (x_q, w1, b1, w2, b1),
                (x_q, w1, t(np.ones(4)), w2, b2), (t(np.ones((3, 5))), w1, b1, w2, b2),
                (x_q, w1, b1, w2, b2, *unit_norm(3)),               # residual width
                (x_q, w1, b1, w2_4, b2_4, t(np.ones(3)), b2_4),     # norm width
                (x_q, w1, b1, w2_4, b2_4, t(np.ones(4))),           # a gain alone
                (x_q, w1, b1, w2_4, b2_4, None, b2_4)):             # a bias alone
        with pytest.raises(nx.ShapeError):
            nx.tanh_mlp(*bad)
    with pytest.raises(nx.ShapeError):
        nx.linear(t(np.ones((2, 3))), t(np.ones((2, 3, 4))), t(np.zeros(4)))
    with pytest.raises(nx.ShapeError):
        nx.linear(t(np.ones((2, 3))), t(np.ones((3, 4))), t(np.zeros(3)))


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_hand():
    loss = nx.cross_entropy_logits(t([0.0, 0.0]), 0)
    assert abs(float(loss.data) - math.log(2.0)) < 1e-12


def test_cross_entropy_saturated():
    loss = nx.cross_entropy_logits(t([10.0, -10.0]), 0)
    assert float(loss.data) < 1e-8


def test_cross_entropy_shift_invariance():
    z = np.array([0.3, -1.2, 2.0])
    a = float(nx.cross_entropy_logits(t(z), 1).data)
    b = float(nx.cross_entropy_logits(t(z + 123.0), 1).data)
    assert abs(a - b) < 1e-9


def test_cross_entropy_bad_index():
    with pytest.raises(IndexError):
        nx.cross_entropy_logits(t([0.0, 0.0]), 2)


def test_bce_logit_values():
    assert abs(float(nx.binary_cross_entropy_logit(t(0.0), 1.0).data) - math.log(2.0)) < 1e-12
    assert float(nx.binary_cross_entropy_logit(t(20.0), 1.0).data) < 1e-8
    assert float(nx.binary_cross_entropy_logit(t(-500.0), 0.0).data) < 1e-12


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_gives_ones():
    x = t([1.0, 2.0, 3.0], grad=True)
    assert np.array_equal(nx.backward(nx.sum_all(x))[x], np.ones(3))


def test_backward_product_rule():
    x = t([1.0, 2.0], grad=True)
    y = t([3.0, 4.0], grad=True)
    grads = nx.backward(nx.sum_all(nx.mul(x, y)))
    assert np.array_equal(grads[x], [3.0, 4.0])
    assert np.array_equal(grads[y], [1.0, 2.0])


def test_backward_unreached_leaf_has_no_entry():
    x = t([1.0, 2.0], grad=True)
    other = t([5.0], grad=True)
    grads = nx.backward(nx.sum_all(x))
    assert list(grads) == [x]
    # a root that needs no gradient reaches no leaf
    assert nx.backward(nx.sum_all(t([1.0, 2.0]))) == {}


def test_backward_requires_scalar_root():
    x = t([1.0, 2.0], grad=True)
    with pytest.raises(nx.ShapeError):
        nx.backward(nx.mul(x, x))


def test_backward_repeat_through_the_root_raises():
    # an op root's graph is differentiated once
    x = t([1.0, 2.0], grad=True)
    root = nx.sum_all(x)
    nx.backward(root)
    with pytest.raises(nx.GradientStateError, match="'sum_all'.*once"):
        nx.backward(root)


def test_backward_passes_over_shared_leaves_are_independent():
    """Two graphs from the same leaves, each differentiated with no reset in
    between, in either order: each mapping equals that of its graph alone,
    and the second pass leaves the first one's arrays as they were."""
    def graphs():
        x, y = t([1.0, 2.0], grad=True), t([3.0, -1.0], grad=True)
        return x, y, [nx.sum_all(nx.mul(x, y)), nx.sum_all(nx.mul(nx.mul(x, x), y))]

    want = [{"x": [3.0, -1.0], "y": [1.0, 2.0]}, {"x": [6.0, -4.0], "y": [1.0, 4.0]}]
    for order in ((0, 1), (1, 0)):
        x, y, roots = graphs()
        got, kept = {}, {}
        for i in order:
            got[i] = nx.backward(roots[i])
            kept[i] = {leaf: g.copy() for leaf, g in got[i].items()}
        for i in order:
            assert set(got[i]) == {x, y}
            assert np.array_equal(got[i][x], want[i]["x"])
            assert np.array_equal(got[i][y], want[i]["y"])
            for leaf, g in kept[i].items():
                assert np.array_equal(got[i][leaf], g)
        assert not set(map(id, got[0].values())) & set(map(id, got[1].values()))


def test_backward_frees_what_a_node_saved_and_keeps_value_and_parents():
    x = t([1.0, 2.0], grad=True)
    saved = np.array([3.0, 4.0])
    freed = weakref.ref(saved)
    h = nx.Tensor(x.data * saved, requires_grad=True, op="scale", parents=(x,),
                  backward_fn=lambda g, s=saved: (g * s,))
    del saved
    root = nx.sum_all(h)
    grads = nx.backward(root)
    assert freed() is None
    assert h.parents == (x,) and root.parents == (h,)
    assert np.array_equal(h.data, [3.0, 8.0]) and np.array_equal(grads[x], [3.0, 4.0])


def test_backward_through_a_consumed_node_raises():
    # a new root on a node that backward has passed raises, since what the
    # node saved is gone: it neither passes for a leaf nor differentiates
    # again
    x = t([1.0, 2.0], grad=True)
    h = nx.mul(x, x)
    nx.backward(nx.sum_all(h))
    with pytest.raises(nx.GradientStateError, match="'mul'.*once"):
        nx.backward(nx.sum_all(nx.mul(h, 3.0)))


def test_no_grad_allocates_nothing():
    x = t([1.0, 2.0], grad=True)
    with nx.no_grad():
        y = nx.sum_all(nx.mul(x, x))
    assert y.parents == () and not y.requires_grad
    assert nx.backward(y) == {}


def test_nonfinite_rejected():
    with pytest.raises(nx.NonFiniteError):
        nx.Tensor([np.inf, 1.0])
    with pytest.raises(nx.NonFiniteError):
        nx.div(t([1.0]), t([0.0]))


@pytest.mark.parametrize("values", [[1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf],
                                    [np.inf, -np.inf], np.nan],
                         ids=["nan", "+inf", "-inf", "inf and -inf", "nan scalar"])
@pytest.mark.filterwarnings("error")
def test_nonfinite_element_rejected(values):
    # the screen raises NonFiniteError and prints no numpy RuntimeWarning
    with pytest.raises(nx.NonFiniteError):
        nx.Tensor(values)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.filterwarnings("error")
def test_nonfinite_element_of_transposed_view_rejected(bad):
    # a view that is not C-contiguous is screened through its memory-order
    # ravel, not a copy
    x = np.arange(24.0).reshape(2, 3, 4)
    x[1, 2, 0] = bad
    view = np.swapaxes(x, -1, -2)
    assert not view.flags.c_contiguous
    with pytest.raises(nx.NonFiniteError):
        nx.Tensor(view)
    x[1, 2, 0] = 0.0
    assert np.array_equal(nx.Tensor(view).data, view)


@pytest.mark.filterwarnings("error")
def test_finite_values_with_overflowing_sum_accepted():
    x = nx.Tensor([1e308, 1e308])
    assert np.array_equal(x.data, [1e308, 1e308])


# ---------------------------------------------------------------------------
# gradients as values


def test_backward_returns_the_leaves_gradients_only():
    x = t([1.0, 2.0], grad=True)
    y = t([3.0, 4.0], grad=True)
    h = nx.mul(x, y)
    grads = nx.backward(nx.sum_all(nx.mul(h, h)))
    assert set(grads) == {x, y}
    assert np.array_equal(grads[x], 2.0 * h.data * y.data)
    assert np.array_equal(grads[y], 2.0 * h.data * x.data)


def test_gradient_handed_to_several_parents_is_shared_and_never_written():
    """add and sum_n hand one array to each parent, and every parent's
    gradient, leaf or not, may be that very array: a later gradient makes a
    new sum instead of adding into it, so it never reaches another entry."""
    a, b = t([1.0, 2.0], grad=True), t([3.0, -1.0], grad=True)
    c, d = np.array([0.5, -2.0]), np.array([4.0, 0.25])
    for order in (1, -1):
        x, y = nx.mul(a, 2.0), nx.mul(b, 3.0)
        # x and y reach the root through add(x, y) and through mul(x, y),
        # which backward may reach first or second
        grads = nx.backward(nx.sum_n([nx.sum_all(nx.mul(nx.add(x, y), t(c))),
                                      nx.sum_all(nx.mul(nx.mul(x, y), t(d)))][::order]))
        assert np.allclose(grads[a], 2.0 * (c + d * y.data), rtol=1e-15, atol=0.0)
        assert np.allclose(grads[b], 3.0 * (c + d * x.data), rtol=1e-15, atol=0.0)

    x = nx.mul(a, 2.0)
    assert np.array_equal(nx.backward(nx.sum_all(nx.mul(nx.add(x, x), t(c))))[a],
                          4.0 * c)

    x, y = nx.mul(a, 2.0), nx.mul(b, 3.0)
    grads = nx.backward(nx.sum_n([nx.sum_all(nx.mul(nx.sum_n([x, x, y]), t(c))),
                                  nx.sum_all(nx.mul(y, t(d)))]))
    assert np.array_equal(grads[a], 4.0 * c)
    assert np.array_equal(grads[b], 3.0 * (c + d))


@pytest.mark.parametrize("add", [nx.add, lambda a, b: nx.sum_n([a, b])],
                         ids=["add", "sum_n"])
def test_array_handed_to_two_leaves_is_shared_and_never_written(add):
    """Two leaves fed straight into add or sum_n get the one array the op
    hands on; a later gradient of one leaf is a new sum, leaving the other's
    entry as it was."""
    a, b = t([1.0, 2.0], grad=True), t([3.0, -1.0], grad=True)
    c = np.array([0.5, -2.0])
    grads = nx.backward(nx.sum_all(nx.mul(add(a, b), t(c))))
    assert np.shares_memory(grads[a], grads[b]) and np.array_equal(grads[a], c)
    grads = nx.backward(nx.sum_n([nx.sum_all(nx.mul(add(a, b), t(c))),
                                  nx.sum_all(nx.mul(a, 3.0))]))
    assert np.array_equal(grads[b], c) and np.array_equal(grads[a], c + 3.0)


@pytest.mark.parametrize("handed_on", ["view", "kept", "read_only"])
def test_array_handed_on_by_a_backward_function_is_never_written(handed_on):
    """A backward function may hand on an array it keeps, a view of one, or a
    read-only view (``row_sums`` returns ``np.broadcast_to``): the op result
    h takes it as it is, and h's second gradient makes the exact sum in a new
    array, leaving the handed array unchanged."""
    kept = np.ones(2)
    handed = {"view": kept[:], "kept": kept,
              "read_only": np.broadcast_to(kept, (2,))}[handed_on]
    a = t([1.0, 2.0], grad=True)
    for order in (1, -1):
        h = nx.mul(a, 2.0)
        odd = nx.Tensor([0.0, 0.0], requires_grad=True, op="odd", parents=(h,),
                        backward_fn=lambda g: (handed,))
        grads = nx.backward(nx.sum_n([nx.sum_all(odd),
                                      nx.sum_all(nx.mul(h, 3.0))][::order]))
        assert np.array_equal(kept, [1.0, 1.0])
        assert np.array_equal(grads[a], [8.0, 8.0])


def test_first_gradient_of_wrong_shape_raises():
    h = nx.mul(t([1.0, 2.0], grad=True), 2.0)
    bad = nx.Tensor([1.0, 1.0], requires_grad=True, op="bad", parents=(h,),
                    backward_fn=lambda g: (np.ones(3),))
    with pytest.raises(nx.ShapeError, match="'bad'.*\\(3,\\).*\\(2,\\)"):
        nx.backward(nx.sum_all(bad))


def test_later_or_leaf_gradient_of_wrong_shape_raises():
    # a broadcastable gradient would otherwise widen an op result's or a
    # leaf's sum
    x = t([1.0, 2.0], grad=True)
    for to_leaf in (False, True):
        for order in (1, -1):
            h = nx.mul(x, 2.0)
            g = np.ones(1) if to_leaf else np.ones((3, 1))
            bad = nx.Tensor([1.0, 1.0], requires_grad=True, op="bad",
                            parents=(x if to_leaf else h,), backward_fn=lambda _: (g,))
            with pytest.raises(nx.ShapeError, match="'bad'"):
                nx.backward(nx.sum_n([nx.sum_all(nx.mul(h, 3.0)),
                                      nx.sum_all(bad)][::order]))


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_sum_of_squares():
    x = t([1.0, 2.0, 3.0])
    err = nx.finite_diff_check(lambda v: nx.sum_all(nx.mul(v, v)), x, eps=1e-5)
    assert err < 1e-6


def test_finite_diff_constant():
    x = t([1.0, 2.0])
    err = nx.finite_diff_check(lambda v: nx.mul(nx.sum_all(v), 0.0), x)
    assert err == 0.0


def test_finite_diff_of_a_function_that_ignores_its_input():
    # backward reaches another leaf but not the probe, so the analytic
    # gradient is zero, as is the numeric one
    x = t([1.0, 2.0])
    assert nx.finite_diff_check(lambda v: nx.sum_all(t([3.0, 4.0], grad=True)), x) == 0.0


def test_central_difference_is_exact_on_a_quartic():
    # the fourth-order stencil differentiates polynomials up to degree 4
    # exactly, here up to roundoff; a second-order one misses by 5 h^2 = 0.05
    def f(s):
        return 2.0 + s - 3.0 * s**2 + 5.0 * s**3 - 7.0 * s**4

    assert abs(nx.central_difference(f, 0.1) - 1.0) < 1e-12


def test_finite_diff_softmax_cross_entropy():
    rng = nx.Rng(3)
    x = t(rng.normal(6))
    err = nx.finite_diff_check(lambda v: nx.cross_entropy_logits(v, 2), x)
    assert err < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_finite_diff_layer_norm(seed):
    # the layer norm that ends a residual node, here LN(x + tanh(x))
    rng = nx.Rng(seed)
    x = t(rng.normal((3, 5)))
    gain = t(rng.normal(5, 0.5) + 1.0)
    bias = t(rng.normal(5, 0.5))
    err = nx.finite_diff_check(lambda v: nx.sum_all(tanh(tanh(v, gain, bias))), x)
    assert err < 1e-6


def test_finite_diff_composite_ops():
    rng = nx.Rng(11)
    x = t(rng.normal((4, 3)))

    w = t(rng.normal((2, 3, 2)))
    wo, bo = t(rng.normal((4, 3))), t(rng.normal(3))

    def f(v):
        y = nx.attention(v, v, w, w, w, wo, bo, *unit_norm(3), 1.0)
        z = nx.l2_normalize_rows(tanh(y))
        return nx.mean_all(nx.mul(z, nx.add(z, 1.0)))

    assert nx.finite_diff_check(f, x) < 1e-6


def test_finite_diff_concat_and_sum_n():
    rng = nx.Rng(12)
    x = t(rng.normal((2, 3)))
    w = t(rng.normal((3, 3)))

    def f(v):
        rows = nx.concat([v, nx.linear(v, w), tanh(v)])
        return nx.sum_n([nx.sum_all(rows), nx.mean_all(nx.mul(rows, rows)),
                         nx.sum_all(v)])

    assert nx.finite_diff_check(f, x) < 1e-6


def test_concat_and_sum_n_reject_mismatched_shapes():
    with pytest.raises(nx.ShapeError):
        nx.concat([t(np.zeros((2, 3))), t(np.zeros((2, 2)))])
    with pytest.raises(nx.ShapeError):
        nx.sum_n([t(1.0), t([1.0, 2.0])])
    with pytest.raises(nx.ShapeError):
        nx.prepend_row(t(np.zeros((1, 3))), t(np.zeros((2, 4, 2))))
    with pytest.raises(nx.ShapeError):
        nx.prepend_row(t(np.zeros((2, 3))), t(np.zeros((2, 4, 3))))


# ---------------------------------------------------------------------------
# invariant: autodiff matches finite differences on every primitive loss


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_random_small_graphs(seed):
    rng = nx.Rng(100 + seed)
    w = t(rng.normal((6, 4)))
    # identity keys, projections and output: the scores are h itself and the
    # output rows are the layer norm of h plus its row softmax
    eye, stack = t(np.eye(4)), t(np.eye(4)[None])

    def f(v):
        h = tanh(nx.linear(v, w))
        s = nx.attention(h, eye, stack, stack, stack, eye, t(np.zeros(4)), *unit_norm(4),
                         1.0)
        return nx.cross_entropy_logits(nx.take_row(s, 0), seed % 4)

    x = t(rng.normal((2, 6)))
    assert nx.finite_diff_check(f, x) < 1e-6


# ---------------------------------------------------------------------------
# rng


def test_rng_bitwise_reproducible():
    a = nx.Rng(1234).normal(1000)
    b = nx.Rng(1234).normal(1000)
    assert np.array_equal(a, b)


def test_rng_children_deterministic():
    a = nx.Rng(5).child().normal(10)
    b = nx.Rng(5).child().normal(10)
    assert np.array_equal(a, b)


def test_truncated_normal_bounded():
    x = nx.Rng(9).truncated_normal((1000,), scale=0.02)
    assert np.abs(x).max() <= 0.04 + 1e-15


def rescanning_truncated_normal(rng, shape, scale=1.0):
    """``Rng.truncated_normal`` as it was, the reference for its draws: each
    round re-scans the whole array. Returns (draws, redraw rounds)."""
    x = rng._g.standard_normal(shape)
    bad = np.abs(x) > 2.0
    rounds = 0
    while bad.any():
        x[bad] = rng._g.standard_normal(int(bad.sum()))
        bad = np.abs(x) > 2.0
        rounds += 1
    return x * scale, rounds


@pytest.mark.parametrize("shape, seed", [((4, 5), 261), ((2, 3, 4), 273)])
def test_truncated_normal_examples_need_three_redraw_rounds(shape, seed):
    assert rescanning_truncated_normal(nx.Rng(seed), shape)[1] == 3


@given(shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=24),
       seed=st.integers(0, 2**32 - 1))
@example(shape=(4, 5), seed=261)
@example(shape=(2, 3, 4), seed=273)
def test_truncated_normal_matches_the_rescanning_loop(shape, seed):
    want, _ = rescanning_truncated_normal(nx.Rng(seed), shape, 0.02)
    assert np.array_equal(nx.Rng(seed).truncated_normal(shape, 0.02), want)


@pytest.mark.parametrize("seed", range(5))
def test_init_params_draws_match_the_rescanning_loop(seed, monkeypatch):
    cfg = md.ModelConfig(vocab_size=len(TextPipeline().vocab))
    got = md.init_params(cfg, nx.Rng(seed))
    monkeypatch.setattr(nx.Rng, "truncated_normal", lambda rng, shape, scale=1.0:
                        rescanning_truncated_normal(rng, shape, scale)[0])
    want = md.init_params(cfg, nx.Rng(seed))
    assert list(got) == list(want)
    for (name, a), (_, b) in zip(got.items(), want.items()):
        assert np.array_equal(a.data, b.data), name
