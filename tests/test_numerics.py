import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phrasealign import numerics as nx


def t(data, grad=False):
    return nx.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    m = t([[2.0, -1.0], [0.5, 3.0]])
    eye = t(np.eye(2))
    assert np.array_equal(nx.matmul(eye, m).data, m.data)


def test_matmul_hand():
    y = nx.matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[1.0], [1.0]]))
    assert np.array_equal(y.data, [[3.0], [7.0]])


def test_matmul_zeros():
    y = nx.matmul(t(np.zeros((3, 4))), t(np.ones((4, 2))))
    assert np.array_equal(y.data, np.zeros((3, 2)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(nx.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        nx.matmul(t(np.ones((2, 3))), t(np.ones((2, 2))))
    # stacked operands must agree on the leading (head) axis
    with pytest.raises(nx.ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
        nx.matmul(t(np.ones((2, 3, 4))), t(np.ones((3, 4, 5))))


def test_matmul_associativity():
    rng = nx.Rng(7)
    a, b, c = (t(rng.normal((4, 5))), t(rng.normal((5, 6))), t(rng.normal((6, 3))))
    left = nx.matmul(nx.matmul(a, b), c).data
    right = nx.matmul(a, nx.matmul(b, c)).data
    assert np.abs(left - right).max() < 1e-10


# ---------------------------------------------------------------------------
# heads as the leading axis


def test_stacked_ops_match_per_head_matrices():
    rng = nx.Rng(8)
    x = t(rng.normal((4, 6)))
    w = t(rng.normal((3, 6, 2)))
    u = t(rng.normal((2, 5)))
    q = nx.matmul(x, w)
    scores = nx.matmul(q, nx.transpose(q))
    soft = nx.row_softmax(scores)
    assert q.shape == (3, 4, 2) and scores.shape == (3, 4, 4)
    for h in range(3):
        qh = x.data @ w.data[h]
        assert np.array_equal(q.data[h], qh)
        assert np.array_equal(nx.matmul(q, u).data[h], qh @ u.data)
        assert np.array_equal(scores.data[h], qh @ qh.T)
        assert np.array_equal(soft.data[h], nx.row_softmax(t(scores.data[h])).data)
        assert np.array_equal(nx.take_row(soft, 1).data[h], soft.data[h, 1])
    assert np.array_equal(nx.merge_heads(q).data, np.concatenate(list(q.data), axis=1))


def test_merge_heads_requires_a_stack():
    with pytest.raises(nx.ShapeError):
        nx.merge_heads(t(np.ones((2, 3))))


@pytest.mark.parametrize("probe", ["matrix", "stack", "shared right"])
def test_finite_diff_stacked_head_ops(probe):
    """A matrix times a stack, stack times stack, stack times a shared matrix,
    3-D softmax, stacked take_row and merge_heads; each operand probed."""
    rng = nx.Rng(13)
    leaves = {"matrix": t(rng.normal((4, 6))), "stack": t(rng.normal((3, 6, 2))),
              "shared right": t(rng.normal((2, 5)))}

    def f(v):
        x, w, u = (v if name == probe else leaf for name, leaf in leaves.items())
        q = nx.matmul(x, w)
        a = nx.row_softmax(nx.matmul(q, nx.transpose(q)))
        return nx.sum_n([nx.sum_all(nx.tanh(nx.merge_heads(nx.matmul(a, q)))),
                         nx.sum_all(nx.mul(nx.take_row(a, 1), nx.take_row(a, 2))),
                         nx.mean_all(nx.tanh(nx.matmul(q, u)))])

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
    q = nx.matmul(nx.reshape(x, (3, 1, 3, 6)), w)
    gain, bias = t(rng.normal(6)), t(rng.normal(6))
    merged = nx.merge_heads(q)
    normed = nx.layer_norm_rows(merged, gain, bias)
    assert q.shape == (3, 2, 3, 3) and merged.shape == (3, 3, 6)
    for b in range(3):
        assert np.array_equal(q.data[b], nx.matmul(t(x.data[b]), w).data)
        assert np.array_equal(merged.data[b], nx.merge_heads(t(q.data[b])).data)
        assert np.array_equal(normed.data[b],
                              nx.layer_norm_rows(t(merged.data[b]), gain, bias).data)
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
                assert bce.data[b, r, j] == nx.binary_cross_entropy_logit(
                    t(normed.data[b, r, j]), labels[b, r, j]).item()
    with pytest.raises(nx.ShapeError):
        nx.cross_entropy_logits(normed, targets[0])
    with pytest.raises(nx.ShapeError):
        nx.binary_cross_entropy_logit(normed, labels[0])
    # leading axes that do not broadcast are still rejected
    with pytest.raises(nx.ShapeError):
        nx.matmul(nx.reshape(x, (3, 1, 3, 6)), t(rng.normal((2, 2, 6, 3))))


@pytest.mark.parametrize("probe", ["short", "long", "cls", "weights", "gain", "bias"])
def test_finite_diff_batched_ops(probe):
    """A zero-padded stack under a shared [CLS] row, (B, 1, L, d) @
    (heads, d, w) (both operands) and (B, heads) @ (B, heads) matmul, batched
    merge_heads and layer_norm_rows, int and repeated leading-axis indexing,
    and batched cross-entropy and BCE; each operand probed."""
    rng = nx.Rng(15)
    leaves = {"short": t(rng.normal((2, 4))), "long": t(rng.normal((3, 4))),
              "cls": t(rng.normal((1, 4))), "weights": t(rng.normal((2, 4, 3))),
              "gain": t(rng.normal(6, 0.5) + 1.0), "bias": t(rng.normal(6, 0.5))}

    def f(v):
        short, long_, cls, w, gain, bias = (v if name == probe else leaf
                                            for name, leaf in leaves.items())
        padded = nx.concat([short, t(np.zeros((1, 4)))], axis=0)
        stack = nx.reshape(nx.concat([padded, long_, padded], axis=0), (3, 3, 4))
        x = nx.reshape(nx.prepend_row(cls, stack), (3, 1, 4, 4))
        q = nx.matmul(x, w)
        scores = nx.matmul(q, nx.transpose(nx.tanh(q)))
        y = nx.layer_norm_rows(nx.merge_heads(nx.tanh(q)), gain, bias)
        picked = nx.gather_rows(y, [2, 0, 2])
        one = nx.gather_rows(y, 1)
        ce = nx.cross_entropy_logits(y, np.array([[0, 5, 2, 1], [1, 1, 4, 3],
                                                  [3, 0, 5, 2]]))
        bce = nx.binary_cross_entropy_logit(one, np.eye(4, 6))
        return nx.sum_n([nx.sum_all(nx.tanh(picked)), nx.mean_all(nx.mul(one, one)),
                         nx.mean_all(nx.tanh(scores)), nx.sum_all(ce),
                         nx.sum_all(bce)])

    assert nx.finite_diff_check(f, leaves[probe]) < 1e-6


def test_shared_stack_matmul_backward_matches_broadcast_sum():
    """(B, 1, L, d) @ (heads, d, w): the one-contraction backward equals the
    per-pair products summed back over the broadcast axes."""
    rng = nx.Rng(16)
    a, w = t(rng.normal((5, 1, 3, 4)), grad=True), t(rng.normal((2, 4, 3)), grad=True)
    g = rng.normal((5, 2, 3, 3))
    nx.backward(nx.sum_all(nx.mul(nx.matmul(a, w), t(g))))
    want_a = nx._unbroadcast(g @ np.swapaxes(w.data, -1, -2), a.shape)
    want_w = nx._unbroadcast(np.swapaxes(a.data, -1, -2) @ g, w.shape)
    assert a.grad.shape == a.shape and w.grad.shape == w.shape
    assert np.allclose(a.grad, want_a, rtol=1e-12, atol=1e-12)
    assert np.allclose(w.grad, want_w, rtol=1e-12, atol=1e-12)


def test_shared_matrix_matmul_backward_matches_broadcast_sum():
    """(..., L, d) @ (d, w): the one-contraction weight gradient equals the
    per-index products summed back over the leading axes."""
    rng = nx.Rng(17)
    for lead in ((5,), (2, 3)):
        a = t(rng.normal(lead + (3, 4)), grad=True)
        w = t(rng.normal((4, 6)), grad=True)
        g = rng.normal(lead + (3, 6))
        nx.backward(nx.sum_all(nx.mul(nx.matmul(a, w), t(g))))
        want_a = nx._unbroadcast(g @ np.swapaxes(w.data, -1, -2), a.shape)
        want_w = nx._unbroadcast(np.swapaxes(a.data, -1, -2) @ g, w.shape)
        assert a.grad.shape == a.shape and w.grad.shape == w.shape
        assert np.allclose(a.grad, want_a, rtol=1e-12, atol=1e-12)
        assert np.allclose(w.grad, want_w, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("ids", [[2, 1, 2, 2], [[1, 3, 1], [1, 1, -1]], 3],
                         ids=["1-D", "2-D", "int"])
def test_gather_rows_backward_matches_add_at(ids):
    """Repeated ids (and a negative one) add their gradient rows into one
    entry in the same order as np.add.at; unused entries get zero."""
    rng = nx.Rng(18)
    table = t(rng.normal((5, 2, 3)), grad=True)
    picked = nx.gather_rows(table, ids)
    g = rng.normal(picked.shape)
    nx.backward(nx.sum_all(nx.mul(picked, t(g))))
    want = np.zeros(table.shape)
    np.add.at(want, np.asarray(ids), g)
    assert np.allclose(table.grad, want, rtol=1e-12, atol=1e-12)
    assert not table.grad[0].any()


# ---------------------------------------------------------------------------
# row_softmax


def test_row_softmax_uniform():
    y = nx.row_softmax(t([[0.0, 0.0, 0.0]]))
    assert np.allclose(y.data, 1.0 / 3.0)


def test_row_softmax_hand():
    y = nx.row_softmax(t([[math.log(1.0), math.log(3.0)]]))
    assert np.allclose(y.data, [[0.25, 0.75]], atol=1e-12)


def test_row_softmax_no_overflow():
    y = nx.row_softmax(t([[1000.0, 0.0]]))
    assert np.all(np.isfinite(y.data))
    assert y.data[0, 0] > 1.0 - 1e-12
    assert y.data[0, 1] < 1e-12
    assert np.all(y.data >= 0.0) and np.all(y.data <= 1.0)


# logit gaps below ~30 keep every entry strictly inside (0, 1) at float64;
# beyond that the tails round to exact 0/1 (see the overflow test above)
@given(hnp.arrays(np.float64, (3, 5), elements=st.floats(-14, 14)))
def test_row_softmax_rows_are_distributions(x):
    y = nx.row_softmax(t(x)).data
    assert np.abs(y.sum(axis=1) - 1.0).max() <= 1e-9
    assert np.all(y > 0.0) and np.all(y < 1.0)


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_hand():
    loss = nx.cross_entropy_logits(t([0.0, 0.0]), 0)
    assert abs(loss.item() - math.log(2.0)) < 1e-12


def test_cross_entropy_saturated():
    loss = nx.cross_entropy_logits(t([10.0, -10.0]), 0)
    assert loss.item() < 1e-8


def test_cross_entropy_shift_invariance():
    z = np.array([0.3, -1.2, 2.0])
    a = nx.cross_entropy_logits(t(z), 1).item()
    b = nx.cross_entropy_logits(t(z + 123.0), 1).item()
    assert abs(a - b) < 1e-9


def test_cross_entropy_bad_index():
    with pytest.raises(IndexError):
        nx.cross_entropy_logits(t([0.0, 0.0]), 2)


def test_bce_logit_values():
    assert abs(nx.binary_cross_entropy_logit(t(0.0), 1.0).item() - math.log(2.0)) < 1e-12
    assert nx.binary_cross_entropy_logit(t(20.0), 1.0).item() < 1e-8
    assert nx.binary_cross_entropy_logit(t(-500.0), 0.0).item() < 1e-12


def test_item_needs_one_element():
    assert t([[2.5]]).item() == 2.5
    with pytest.raises(nx.ShapeError, match="one element"):
        t([1.0, 2.0, 3.0]).item()


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_gives_ones():
    x = t([1.0, 2.0, 3.0], grad=True)
    nx.backward(nx.sum_all(x))
    assert np.array_equal(x.grad, np.ones(3))


def test_backward_product_rule():
    x = t([1.0, 2.0], grad=True)
    y = t([3.0, 4.0], grad=True)
    nx.backward(nx.sum_all(nx.mul(x, y)))
    assert np.array_equal(x.grad, [3.0, 4.0])
    assert np.array_equal(y.grad, [1.0, 2.0])


def test_backward_unreachable_node_stays_zero():
    x = t([1.0, 2.0], grad=True)
    other = t([5.0], grad=True)
    nx.backward(nx.sum_all(x))
    assert np.array_equal(other.grad, [0.0])


def test_backward_requires_scalar_root():
    x = t([1.0, 2.0], grad=True)
    with pytest.raises(nx.ShapeError):
        nx.backward(nx.mul(x, x))


def test_backward_repeat_requires_reset():
    x = t([1.0, 2.0], grad=True)
    root = nx.sum_all(x)
    nx.backward(root)
    with pytest.raises(nx.GradientStateError):
        nx.backward(root)


def test_backward_stale_leaf_detected():
    x = t([1.0, 2.0], grad=True)
    nx.backward(nx.sum_all(x))
    with pytest.raises(nx.GradientStateError):
        nx.backward(nx.sum_all(nx.mul(x, x)))
    nx.zero_grads([x])
    nx.backward(nx.sum_all(nx.mul(x, x)))
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_no_grad_allocates_nothing():
    x = t([1.0, 2.0], grad=True)
    with nx.no_grad():
        y = nx.sum_all(nx.mul(x, x))
    assert y.parents == () and y.grad is None and not y.requires_grad


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
# gradient slots


def test_interior_slot_released_and_leaf_slots_kept():
    x = t([1.0, 2.0], grad=True)
    y = t([3.0, 4.0], grad=True)
    h = nx.mul(x, y)
    assert h.grad is None and x.grad is not None
    nx.backward(nx.sum_all(nx.mul(h, h)))
    assert h.grad is None
    assert np.array_equal(x.grad, 2.0 * h.data * y.data)
    assert np.array_equal(y.grad, 2.0 * h.data * x.data)


def test_gradient_handed_to_several_parents_is_not_shared():
    """add and sum_n hand one array to each parent: the first may keep it,
    the others get their own copy, so a later gradient added into one slot
    does not reach another."""
    a, b = t([1.0, 2.0], grad=True), t([3.0, -1.0], grad=True)
    c, d = np.array([0.5, -2.0]), np.array([4.0, 0.25])
    for order in (1, -1):
        a.zero_grad()
        b.zero_grad()
        x, y = nx.mul(a, 2.0), nx.mul(b, 3.0)
        # x and y reach the root through add(x, y) and through mul(x, y),
        # which backward may reach first or second
        nx.backward(nx.sum_n([nx.sum_all(nx.mul(nx.add(x, y), t(c))),
                              nx.sum_all(nx.mul(nx.mul(x, y), t(d)))][::order]))
        assert np.allclose(a.grad, 2.0 * (c + d * y.data), rtol=1e-15, atol=0.0)
        assert np.allclose(b.grad, 3.0 * (c + d * x.data), rtol=1e-15, atol=0.0)

    a.zero_grad()
    x = nx.mul(a, 2.0)
    nx.backward(nx.sum_all(nx.mul(nx.add(x, x), t(c))))
    assert np.array_equal(a.grad, 4.0 * c)

    a.zero_grad()
    b.zero_grad()
    x, y = nx.mul(a, 2.0), nx.mul(b, 3.0)
    nx.backward(nx.sum_n([nx.sum_all(nx.mul(nx.sum_n([x, x, y]), t(c))),
                          nx.sum_all(nx.mul(y, t(d)))]))
    assert np.array_equal(a.grad, 4.0 * c)
    assert np.array_equal(b.grad, 3.0 * (c + d))


def test_gradient_viewing_another_buffer_is_copied():
    # only a view of the slot being given up is handed on as it is
    kept = np.ones(2)
    a = t([1.0, 2.0], grad=True)
    for order in (1, -1):
        a.zero_grad()
        h = nx.mul(a, 2.0)
        odd = nx.Tensor([0.0, 0.0], requires_grad=True, op="odd", parents=(h,),
                        backward_fn=lambda g: (kept[:],))
        nx.backward(nx.sum_n([nx.sum_all(odd), nx.sum_all(nx.mul(h, 3.0))][::order]))
        assert np.array_equal(kept, [1.0, 1.0])
        assert np.array_equal(a.grad, [8.0, 8.0])


def test_first_gradient_of_wrong_shape_raises():
    h = nx.mul(t([1.0, 2.0], grad=True), 2.0)
    bad = nx.Tensor([1.0, 1.0], requires_grad=True, op="bad", parents=(h,),
                    backward_fn=lambda g: (np.ones(3),))
    with pytest.raises(nx.ShapeError, match="'bad'.*\\(3,\\).*\\(2,\\)"):
        nx.backward(nx.sum_all(bad))


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


def test_finite_diff_softmax_cross_entropy():
    rng = nx.Rng(3)
    x = t(rng.normal(6))
    err = nx.finite_diff_check(lambda v: nx.cross_entropy_logits(v, 2), x)
    assert err < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_finite_diff_layer_norm(seed):
    rng = nx.Rng(seed)
    x = t(rng.normal((3, 5)))
    gain = t(rng.normal(5, 0.5) + 1.0)
    bias = t(rng.normal(5, 0.5))
    err = nx.finite_diff_check(
        lambda v: nx.sum_all(nx.tanh(nx.layer_norm_rows(v, gain, bias))), x)
    assert err < 1e-6


def test_finite_diff_composite_ops():
    rng = nx.Rng(11)
    x = t(rng.normal((4, 3)))

    def f(v):
        y = nx.row_softmax(nx.matmul(v, nx.transpose(v)))
        z = nx.l2_normalize_rows(nx.tanh(y))
        return nx.mean_all(nx.mul(z, nx.add(z, 1.0)))

    assert nx.finite_diff_check(f, x) < 1e-6


def test_finite_diff_concat_and_sum_n():
    rng = nx.Rng(12)
    x = t(rng.normal((2, 3)))
    w = t(rng.normal((3, 3)))

    def f(v):
        rows = nx.concat([v, nx.matmul(v, w), v], axis=0)
        cols = nx.concat([rows, nx.tanh(rows)], axis=1)
        return nx.sum_n([nx.sum_all(cols), nx.mean_all(nx.mul(cols, cols)),
                         nx.sum_all(v)])

    assert nx.finite_diff_check(f, x) < 1e-6


def test_concat_and_sum_n_reject_mismatched_shapes():
    with pytest.raises(nx.ShapeError):
        nx.concat([t(np.zeros((2, 3))), t(np.zeros((2, 2)))], axis=0)
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

    def f(v):
        h = nx.tanh(nx.matmul(v, w))
        s = nx.row_softmax(h)
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
