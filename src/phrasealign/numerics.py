"""Dense float64 tensor ops with reverse-mode differentiation.

The whole artifact computes on one value type: a float64 numpy array wrapped
in :class:`Tensor`. While gradients are enabled (the default), operations on
tensors that sit on a differentiable path are recorded on an acyclic graph;
``backward`` then returns d(root)/d(leaf) for every leaf (a tensor created
with ``requires_grad=True``) the root reaches, keyed by the leaf. Inside
:func:`no_grad` nothing is recorded.

Gradients are values, and no tensor holds one: no gradient array is written
once made. A node's gradient is the first one that reaches it, as it is;
each later one replaces it with a new sum. An op result's gradient lives in
the pass alone and is dropped once passed on to the node's parents, so no
full-size buffer is held for a node backward has passed or never reaches.
Two passes share no gradient state, so nothing is reset between them.

A node's backward function saves only what it cannot cheaply rebuild: the
softmax exponentials and the reciprocals of their row sums (not the
normalized weights; a traced attention, which hands its weights out, keeps
the exponentials normalized in place instead), the merged heads, and a
norm's normalized input and scale.
It recomputes its projections and hidden rows from its parents' values, by
the ops the forward pass ran, so the gradients equal those from saved arrays
bit for bit; the one exception, attention keys without the forward pass's
shift by key 0, carries no gradient. Backward reads parent values and weights as they are when it
runs, so nothing may write them between a forward pass and its backward.

A graph is differentiated once. As ``backward`` passes a node it frees the
node's backward function and every array that function saved, and keeps the
node's value and its ``parents``; a held root keeps only the values of its
graph alive. Backward through a node it has passed raises.

Every op costs a call, a Tensor with its finiteness scan, a graph node and a
backward call, so the layers' op chains are fused ops, one node each with a
hand-written backward. :func:`attention` is a whole residual attention
sublayer: the q/k/v projections, the scaled, key-biased row softmax, a . v,
the head merge, the output projection, the residual add and the layer norm.
Its softmax makes no pass per row: each row is shifted by its score against
key 0, inside the key product, and normalized through the value product,
whose column of ones gives the row sums; the layer norm takes its row means
as products of one (rows, n) view of its residual sum with a column of 1/n.
Given an index of key/value entries per pair it projects each entry once;
each pair gathers its entry's keys and values transiently, in forward and
again in backward.
:func:`tanh_mlp` is a linear, tanh, linear feed-forward, and with a norm's
gain and bias the residual feed-forward sublayer.

The differentiable ops are the elementwise :func:`add`, :func:`sub`,
:func:`mul`, :func:`div`, :func:`relu`, :func:`exp` and :func:`sqrt`; the
sums :func:`sum_all`, :func:`mean_all`, :func:`row_sums` and :func:`sum_n`;
the row ops :func:`reshape`, :func:`concat` (row stacking),
:func:`prepend_row`, :func:`take_row`, :func:`select_rows` and
:func:`gather_rows`; :func:`linear`, the one product of rows with a weight,
its bias optional; the fused :func:`tanh_mlp` and :func:`attention`; the
losses :func:`cross_entropy_logits` and :func:`binary_cross_entropy_logit`;
and the composite :func:`l2_normalize_rows`. They are the ops the package
calls, each in the modes it calls, and no more:
``tests/test_public_surface.py`` fails on an op without a caller. Constants,
such as an attention key bias, are plain arrays, not Tensors.

At the model's sizes Python overhead, not arithmetic, sets the cost of a
call: an infer-mode cross-encode of one pair with every array shrunk to a
few entries still takes about three quarters of its default-size time. So
a fused op reads each operand's shape once, into locals, not through
``Tensor`` properties, and calls ndarray methods and ufunc reductions, not
numpy's Python-level wrappers; the model's blocks fetch their weights by
direct lookups, with no generator, and compute no constant through numpy.

Also here: :class:`Rng`, a seeded PCG64 generator every stochastic choice in
the artifact goes through; :func:`finite_diff_check`, the central
difference oracle used to validate every analytic gradient; and
:func:`save_arrays` / :func:`load_arrays`, the one on-disk container that
datasets and checkpoints are both written in.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from pathlib import Path
from typing import Callable, NoReturn, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GradientStateError(RuntimeError):
    """Backward ran through a node a second time."""


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


def all_finite(arr: np.ndarray) -> bool:
    """Whether a float64 array holds no NaN or Inf. A finite sum of squares
    implies it; only a non-finite one (overflow can also cause that) needs
    the full scan. vdot costs less than arr.sum() and warns on neither
    inf - inf nor overflow; ravel in memory order views a transposed array."""
    flat = arr if arr.flags.c_contiguous else arr.ravel(order="K")
    return math.isfinite(np.vdot(flat, flat)) or bool(np.isfinite(arr).all())


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def is_grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    """A float64 array plus its place in the differentiation graph.

    ``data`` is the value (row-major numpy array). ``requires_grad`` marks a
    leaf :func:`backward` differentiates with respect to, or an op result
    recorded from one; the tensor holds no gradient itself.
    ``op`` and ``parents`` describe how the tensor was produced. They and
    ``data`` stay once :func:`backward` has passed the node; its backward
    function, and every array that function saved, go: a graph is
    differentiated once. A backward function recomputes what it did not save
    from the parents' ``data``, which nothing may write in between.
    """

    __slots__ = ("data", "op", "parents", "requires_grad", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = (), backward_fn=None):
        arr = np.asarray(data, dtype=np.float64)
        if not all_finite(arr):
            raise NonFiniteError(f"non-finite values produced by op '{op}'")
        self.data = arr
        self.op = op
        self.parents = parents
        self.requires_grad = bool(requires_grad)
        self._backward_fn = backward_fn

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, op: str, parents: tuple, backward_fn) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, op=op, parents=parents,
                      backward_fn=backward_fn)
    return Tensor(data, op=op)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bw(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

    return _result(a.data + b.data, "add", (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bw(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))

    return _result(a.data - b.data, "sub", (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bw(g):
        return (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape))

    return _result(a.data * b.data, "mul", (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bw(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return (ga, gb)

    # non-finite results (e.g. division by zero) are rejected by the
    # Tensor constructor, so the numpy warning is redundant noise
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data
    return _result(out, "div", (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w``, plus the (width,) bias ``b`` if given, for (..., d) rows
    and a (d, width) weight, as one node: the package's one product of rows
    with a weight. Backward contracts all rows at once."""
    if w.data.ndim != 2 or x.shape[-1:] != w.shape[:1] or \
            b is not None and b.shape != w.shape[1:]:
        raise ShapeError(f"linear shape mismatch: {x.shape} @ {w.shape} + "
                         f"{None if b is None else b.shape}")
    d, width = w.shape
    y = x.data @ w.data
    if b is not None:
        y += b.data

    def bw(g):
        grads = (g @ w.data.T, x.data.reshape(-1, d).T @ g.reshape(-1, width))
        return grads if b is None else grads + (g.sum(axis=tuple(range(g.ndim - 1))),)

    return _result(y, "linear", (x, w) if b is None else (x, w, b), bw)


def tanh_mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
             gain: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """``tanh(x @ w1 + b1) @ w2 + b2`` for (..., d) rows, a (d, m) and an
    (m, width) weight and their biases, as one node; backward contracts all
    rows at once. Given a (d,) ``gain`` and ``bias``, the node is the whole
    residual sublayer: the layer norm of ``x + tanh_mlp(x)``. The node saves
    no hidden rows: backward recomputes ``tanh(x @ w1 + b1)`` from the
    parents' values by the ops the forward pass ran."""
    norm = () if gain is None and bias is None else (gain, bias)
    xd, w1d, w2d = x.data, w1.data, w2.data
    if w1d.ndim != 2 or w2d.ndim != 2 or xd.shape[-1:] != w1d.shape[:1] or \
            b1.data.shape != w1d.shape[1:] or w2d.shape[:1] != b1.data.shape or \
            b2.data.shape != w2d.shape[1:] or norm and (None in norm or not
                gain.data.shape == bias.data.shape == b2.data.shape == xd.shape[-1:]):
        raise ShapeError(f"tanh_mlp shape mismatch: {xd.shape} @ {w1d.shape} + "
                         f"{b1.shape}, @ {w2d.shape} + {b2.shape}, norm "
                         f"{[None if t is None else t.shape for t in norm]}")
    d, m = w1d.shape

    def hidden():
        h = xd @ w1d
        h += b1.data
        return np.tanh(h, out=h)

    y = hidden() @ w2d
    y += b2.data
    if norm:
        y, norm_bw = _layer_norm(xd + y, gain, bias)

    def bw(g):
        if norm:
            g, ggain, gbias = norm_bw(g)
        lead = tuple(range(g.ndim - 1))
        h = hidden()
        gz = g @ w2d.T
        gz *= 1.0 - h * h
        gx = gz @ w1d.T
        if norm:
            gx += g
        return (gx, xd.reshape(-1, d).T @ gz.reshape(-1, m), gz.sum(axis=lead),
                h.reshape(-1, m).T @ g.reshape(-1, w2d.shape[1]),
                g.sum(axis=lead)) + ((ggain, gbias) if norm else ())

    return _result(y, "tanh_mlp", (x, w1, b1, w2, b2) + norm, bw)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    old = a.shape
    return _result(a.data.reshape(shape), "reshape", (a,),
                   lambda g: (g.reshape(old),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bw(g):
        return (g * mask,)

    return _result(a.data * mask, "relu", (a,), bw)


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)

    def bw(g):
        return (g * y,)

    return _result(y, "exp", (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    y = np.sqrt(a.data)

    def bw(g):
        return (g * 0.5 / y,)

    return _result(y, "sqrt", (a,), bw)


def sum_all(a: Tensor) -> Tensor:
    def bw(g):
        return (np.full(a.shape, float(g)),)

    return _result(a.data.sum(), "sum_all", (a,), bw)


def mean_all(a: Tensor) -> Tensor:
    n = a.size

    def bw(g):
        return (np.full(a.shape, float(g) / n),)

    return _result(a.data.mean(), "mean_all", (a,), bw)


def row_sums(a: Tensor) -> Tensor:
    """Sum along the last axis of a matrix, keeping a (m, 1) column."""
    if a.data.ndim != 2:
        raise ShapeError(f"row_sums expects a matrix, got shape {a.shape}")

    def bw(g):
        return (np.broadcast_to(g, a.shape),)

    return _result(a.data.sum(axis=1, keepdims=True), "row_sums", (a,), bw)


def sum_n(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of same-shape tensors as one graph node, added left to right."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("sum_n needs at least one tensor")
    shape = tensors[0].shape
    if any(t.shape != shape for t in tensors):
        raise ShapeError(f"sum_n shape mismatch: {[t.shape for t in tensors]}")
    out = tensors[0].data.copy()
    for t in tensors[1:]:
        out += t.data
    return _result(out, "sum_n", tuple(tensors), lambda g: (g,) * len(tensors))


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Matrices of equal width stacked row-wise, the first on top."""
    tensors = [_as_tensor(t) for t in tensors]
    if any(t.data.ndim != 2 for t in tensors) or len({t.shape[1] for t in tensors}) != 1:
        raise ShapeError(f"concat needs matrices of equal width: "
                         f"{[t.shape for t in tensors]}")
    sizes = [t.shape[0] for t in tensors]

    def bw(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1]))

    return _result(np.concatenate([t.data for t in tensors]), "concat",
                   tuple(tensors), bw)


def prepend_row(row: Tensor, a: Tensor) -> Tensor:
    """A (1, n) ``row`` on top of a matrix, or of each matrix of a
    (..., rows, n) stack, which all share it: (..., rows + 1, n)."""
    if row.data.ndim != 2 or row.shape[0] != 1 or a.data.ndim < 2 or \
            row.shape[1] != a.shape[-1]:
        raise ShapeError(f"prepend_row needs a (1, n) row and (..., rows, n) "
                         f"matrices: {row.shape}, {a.shape}")
    out = np.empty(a.shape[:-2] + (a.shape[-2] + 1, a.shape[-1]))
    out[..., :1, :] = row.data
    out[..., 1:, :] = a.data

    def bw(g):
        return _unbroadcast(g[..., :1, :], row.shape), g[..., 1:, :]

    return _result(out, "prepend_row", (row, a), bw)


def take_row(a: Tensor, index: int) -> Tensor:
    """Row ``index`` (axis -2) of a matrix or of each stacked matrix: (n,)
    from a matrix, (heads, n) from a (heads, rows, n) stack."""
    if a.data.ndim < 2:
        raise ShapeError(f"take_row expects a matrix, got shape {a.shape}")
    if not 0 <= index < a.shape[-2]:
        raise IndexError(f"row {index} out of range for shape {a.shape}")

    def bw(g):
        out = np.zeros(a.shape)
        out[..., index, :] = g
        return (out,)

    return _result(a.data[..., index, :].copy(), "take_row", (a,), bw)


def select_rows(a: Tensor, rows) -> Tensor:
    """Row ``rows`` (axis -2) of a matrix or of each stacked matrix, or with
    one row per matrix of a (B, L, n) stack, row ``rows[b]`` of matrix b;
    each kept as a one-row matrix: (..., 1, n)."""
    idx = np.asarray(rows, dtype=np.intp)
    if a.data.ndim < 2 or idx.ndim and idx.shape != a.shape[:-2]:
        raise ShapeError(f"select_rows needs one row or one row per matrix: rows "
                         f"{idx.shape} of shape {a.shape}")
    if ((idx < 0) | (idx >= a.shape[-2])).any():
        raise IndexError(f"rows {idx.tolist()} out of range for shape {a.shape}")
    at = np.broadcast_to(idx, a.shape[:-2])[..., None, None]

    def bw(g):
        out = np.zeros(a.shape)
        np.put_along_axis(out, at, g, axis=-2)
        return (out,)

    return _result(np.take_along_axis(a.data, at, axis=-2), "select_rows", (a,), bw)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Entries along the leading axis: ``table[ids]`` for ids of any shape
    (duplicates allowed), so a (B, L) id matrix looks up a (B, L, d) batch of
    embedding rows, and an int, a 0-d id, the single entry with that axis
    dropped.

    Gradients scatter-add back as one product (:func:`_hits`)."""
    if table.data.ndim < 1:
        raise ShapeError("gather_rows needs a leading axis to index")
    idx = np.asarray(ids, dtype=np.intp)

    def bw(g):
        n, width = table.shape[0], math.prod(table.shape[1:])
        return ((_hits(idx, n) @ g.reshape(idx.size, width)).reshape(table.shape),)

    return _result(np.take(table.data, idx, axis=0), "gather_rows", (table,), bw)


def _hits(idx: np.ndarray, n: int) -> np.ndarray:
    """The 0/1 (n, idx.size) matrix of which of n entries each id picks.
    Times the gradient rows of ``np.take(table, idx, axis=0)`` it adds them
    back into the table, repeated ids in id order like ``np.add.at``, at a
    fraction of its cost."""
    return (np.arange(n)[:, None] == idx.reshape(-1) % n).astype(np.float64)


# ---------------------------------------------------------------------------
# attention and softmax-family ops


def _project_back(x: np.ndarray, ws: Sequence[np.ndarray], gs: Sequence[np.ndarray]):
    """Gradients of the per-head projections ``x[..., None, :, :] @ w`` of
    (..., L, d) rows by (heads, d, width) weights ``ws``, given their (...,
    heads, L, width) gradients ``gs``: one contraction over all rows, heads
    and weights for ``x``, and one for the weights. Returns (x gradient,
    list of weight gradients)."""
    n = len(ws)
    heads, d, width = ws[0].shape
    rows = np.empty(x.shape[:-1] + (n, heads, width))
    for i, g in enumerate(gs):
        rows[..., i, :, :] = np.swapaxes(g, -3, -2)
    rows = rows.reshape(-1, n * heads * width)
    gx = rows @ np.concatenate([np.swapaxes(w, 1, 2).reshape(heads * width, d) for w in ws])
    gw = (x.reshape(-1, d).T @ rows).reshape(d, n, heads, width)
    return gx.reshape(x.shape), [np.swapaxes(gw[:, i], 0, 1) for i in range(n)]


# a shifted score above this exponent could overflow exp; a normalizer below
# this floor (key 0 biased down) could have underflowed. Either redoes the
# softmax with each row shifted by its own maximum
_EXP_BOUND = 300.0
_SUM_FLOOR = 1e-280


def attention(x_q: Tensor, x_kv: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
              wo: Tensor, bo: Tensor, gain: Tensor, bias: Tensor, scale: float,
              key_bias: np.ndarray | None = None, kv_index=None, trace: bool = False):
    """A multi-head attention sublayer as one node: the layer norm, with a
    (d,) gain and bias, of ``x_q`` plus the attention output. The (L_q, d)
    or (B, L_q, d) query rows and the key/value rows are projected per head
    by (heads, d, w) weights; softmax(scale * q k^T + key_bias) over the keys
    weighs the values; the heads' a . v are merged side by side, head 0
    first, and projected by a (heads * w, d) weight plus a (d,) bias.

    ``x_kv`` has the queries' leading axes, or, with ``kv_index``, is an
    (n, L_kv, d) stack: batch entry b attends to entry ``kv_index[b]``. Keys
    and values are then projected once per entry; each pair gathers its
    entry's rows for the products, in forward and again in backward. Their
    gradients sum over each entry's pairs. ``key_bias`` is an array of one
    value per key, broadcast to the ([B,] heads, L_q, L_kv) scores without
    enlarging them, and with a query axis of 1; it takes no ``kv_index``.
    Self-attention passes one tensor as ``x_q`` and ``x_kv``.

    The softmax runs no pass per row. Each row is shifted by its score
    against key 0, inside the key product: forward projects the key/value
    rows less row 0, so q k^T gives the shifted scores. Their exponentials
    ``e`` are normalized through the output: ``e @ [v | 1]`` gives the
    weighted values and each row's sum ``s``, and the (L_q, w) output rows,
    not the weights, are divided by ``s``. Key 0's exponential is 1 unless
    the key bias moves it. A shifted score above ``_EXP_BOUND`` or a
    normalizer below ``_SUM_FLOOR`` redoes the exponentials with each row's
    own maximum as the shift.

    The node saves ``e``, ``1/s``, the merged heads and the norm's arrays,
    and no projection: backward recomputes q, k and v from the parents'
    values by the ops the forward pass ran, the keys without the shift.
    A traced node saves ``e`` normalized in place, ``e / s``, and no
    ``1/s``.

    Returns the node, or with ``trace`` (node, a, v), where the plain arrays
    are the ([B,] heads, L_q, L_kv) attention, the node's own read-only
    ``e / s``, and the ([B,] heads, L_kv, w) values of each pair."""
    q_shape, kv_shape, ws = x_q.data.shape, x_kv.data.shape, wq.data.shape
    if len(ws) != 3:
        raise ShapeError(f"attention needs (heads, d, w) weights, got {ws}")
    heads, d, w = ws
    lead = q_shape[:-2]
    idx = None if kv_index is None else np.asarray(kv_index, dtype=np.intp)
    kv_ok = len(kv_shape) == len(q_shape) and kv_shape[-1] == d and (
        kv_shape[:-2] == lead if idx is None else idx.shape == lead != ())
    if not (wk.data.shape == wv.data.shape == ws and len(q_shape) in (2, 3)
            and q_shape[-1] == d and kv_ok and wo.data.shape == (heads * w, d)
            and bo.data.shape == gain.data.shape == bias.data.shape == (d,)):
        raise ShapeError(f"attention shape mismatch: queries {q_shape}, keys "
                         f"{kv_shape}, index {None if idx is None else idx.shape}, "
                         f"weights {ws} {wk.shape} {wv.shape}, out {wo.shape} "
                         f"+ {bo.shape}, norm {gain.shape} {bias.shape}")
    if idx is not None:
        if key_bias is not None:
            raise ShapeError("attention takes no key bias with a key/value index")
        if ((idx < 0) | (idx >= kv_shape[0])).any():
            raise IndexError(f"key/value index {idx.tolist()} outside "
                             f"0..{kv_shape[0] - 1}")
    if key_bias is not None:
        scores, kb = lead + (heads, q_shape[-2], kv_shape[-2]), np.shape(key_bias)
        if len(kb) > len(scores) or len(kb) > 1 and kb[-2] != 1 or any(
                n != 1 and n != m for n, m in zip(kb[::-1], scores[::-1])):
            raise ShapeError(f"key bias {kb} is not one value per key of the "
                             f"scores {scores}")
    xq = x_q.data[:, None] if lead else x_q.data
    xkv = xq if x_kv is x_q else x_kv.data[:, None] if lead else x_kv.data

    # the projections, by the same ops in forward and in backward, so the
    # graph keeps none of them. Scale q, not the scores, and keep one buffer
    # of scores: each (4, 65, 65) float64 temporary is past the allocator's
    # mmap threshold. The values carry a column of ones: [v | 1]. Forward
    # shifts the keys by key 0 in the rows the key product reads: (x - x_0)
    # wk is k - k_0, and its row 0 is exactly 0
    def projections(shift: bool):
        k = (xkv - xkv[..., :1, :] if shift else xkv) @ wk.data
        v = np.empty(k.shape[:-1] + (w + 1,))
        np.matmul(xkv, wv.data, out=v[..., :w])
        v[..., w] = 1.0
        q = xq @ wq.data
        q *= scale
        return q, k, v

    # each pair's entry, gathered where a product needs it, never a copy per
    # pair kept
    def per_pair(arr):
        return arr if idx is None else arr[idx]

    def exponentials(row_max: bool):
        e = q @ per_pair(k).swapaxes(-1, -2)
        if key_bias is not None:
            e += key_bias
        if row_max or not np.maximum.reduce(e, axis=None) <= _EXP_BOUND:
            e -= np.maximum.reduce(e, axis=-1, keepdims=True)
        return np.exp(e, out=e)

    q, k, v = projections(True)
    e = exponentials(False)
    pair_v = per_pair(v)
    av = e @ pair_v
    # without a key bias, key 0's exponential is 1 and no sum is below 1
    if key_bias is not None and not av[..., w:].min() >= _SUM_FLOOR:
        e = exponentials(True)
        av = e @ pair_v
    sums, heads_out = av[..., w:], av[..., :w]
    heads_out /= sums
    merged = heads_out.swapaxes(-3, -2).reshape(q_shape[:-1] + (heads * w,))
    # a trace hands out the weights the node keeps: e normalized in place,
    # read-only, whose 1/s backward reads as 1. Otherwise backward reads 1/s
    # from a fresh array, not from a view that keeps av
    if trace:
        e /= sums
        e.flags.writeable = False
    inv = 1.0 if trace else 1.0 / sums if _grad_enabled else None
    y = merged @ wo.data
    y += bo.data
    y, norm_bw = _layer_norm(x_q.data + y, gain, bias)

    def bw(g):
        g, ggain, gbias = norm_bw(g)
        q, k, v = projections(False)
        gm = g @ wo.data.T
        # softmax backward: d(scores) = a * (d(a) - rowdot), where rowdot,
        # the row sums of d(a) * a, equals those of d(a . v) * (a . v): a sum
        # over w, not over the keys. With a = e / s that is
        # e * ([d(a . v) | -rowdot] / s) . [v | 1], one product
        gav = np.empty(e.shape[:-1] + (w + 1,))
        gav[..., :w] = gm.reshape(q_shape[:-1] + (heads, w)).swapaxes(-3, -2)
        gav[..., w] = -(gm * merged).reshape(q_shape[:-1] + (heads, w)).sum(
            axis=-1).swapaxes(-1, -2)
        gav *= inv
        gs = gav @ per_pair(v).swapaxes(-1, -2)
        gs *= e
        # each row of d(scores) sums to 0, so the shift by key 0 carries no
        # gradient: q and k take those of the unshifted keys
        gq = gs @ per_pair(k)
        gq *= scale
        gk = gs.swapaxes(-1, -2) @ q
        gv = e.swapaxes(-1, -2) @ gav[..., :w]
        if idx is not None:     # each entry sums its pairs' key/value gradients
            hits = _hits(idx, k.shape[0])
            gk = (hits @ gk.reshape(idx.size, -1)).reshape(k.shape)
            gv = (hits @ gv.reshape(idx.size, -1)).reshape(k.shape)
        if x_kv is x_q:
            gxq, (gwq, gwk, gwv) = _project_back(x_q.data, (wq.data, wk.data, wv.data),
                                                 (gq, gk, gv))
            gxkv = None
        else:
            gxq, (gwq,) = _project_back(x_q.data, (wq.data,), (gq,))
            gxkv, (gwk, gwv) = _project_back(x_kv.data, (wk.data, wv.data), (gk, gv))
        gxq += g
        return (gxq, gxkv, gwq, gwk, gwv,
                merged.reshape(-1, heads * w).T @ g.reshape(-1, d),
                g.sum(axis=tuple(range(g.ndim - 1))), ggain, gbias)

    out = _result(y, "attention", (x_q, x_kv, wq, wk, wv, wo, bo, gain, bias), bw)
    return (out, e, pair_v[..., :w]) if trace else out


@functools.lru_cache(maxsize=None)
def _mean_column(n: int) -> np.ndarray:
    """The (n, 1) column of 1/n: a row's mean as one product. Read-only, as
    every caller shares it."""
    col = np.full((n, 1), 1.0 / n)
    col.flags.writeable = False
    return col


def _layer_norm(s: np.ndarray, gain: Tensor, bias: Tensor):
    """The layer norm over the last axis (width n), with (n,) gain and bias,
    that ends each residual node. It works on one (rows, n) matrix of ``s``:
    a view of ``s``, the node's own residual sum, normalized in place, or
    for a sum whose rows cannot be viewed so, a copy that every later step
    reads in its place. The row means, of ``s`` and of its centred squares
    in forward and of two gradient terms in backward, are each one product
    of all rows with a column of 1/n, not a reduction per row. Returns (out,
    backward), where backward maps d(out) to (d(s), d(gain), d(bias))."""
    shape = s.shape
    col = _mean_column(shape[-1])
    xhat = s.reshape(-1, shape[-1])
    xhat -= xhat @ col
    inv = 1.0 / np.sqrt((xhat * xhat) @ col + 1e-5)
    xhat *= inv
    out = xhat * gain.data + bias.data

    def bw(g):
        g = g.reshape(xhat.shape)
        gh = g * gain.data
        return (((gh - gh @ col - xhat * ((gh * xhat) @ col)) * inv).reshape(shape),
                (g * xhat).sum(axis=0), g.sum(axis=0))

    return out.reshape(shape), bw


def cross_entropy_logits(logits: Tensor, target_index) -> Tensor:
    """Negative log softmax probability of the target along the last axis:
    (..., V) logits and integer targets of shape ``logits.shape[:-1]`` give
    (...) losses; a vector and an int give a scalar."""
    z = logits.data
    target = np.asarray(target_index)
    if z.ndim < 1 or target.shape != z.shape[:-1]:
        raise ShapeError(f"cross_entropy_logits: targets of shape {target.shape} "
                         f"for logits of shape {z.shape}")
    n = z.shape[-1]
    if target.dtype.kind not in "iu" or ((target < 0) | (target >= n)).any():
        raise IndexError(f"target index {target_index} is not an integer in "
                         f"0..{n - 1}")
    idx = target[..., None]
    m = z.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))

    def bw(g):
        p = np.exp(z - lse)
        np.put_along_axis(p, idx, np.take_along_axis(p, idx, axis=-1) - 1.0, axis=-1)
        return (np.asarray(g)[..., None] * p,)

    return _result((lse - np.take_along_axis(z, idx, axis=-1))[..., 0],
                   "cross_entropy_logits", (logits,), bw)


def binary_cross_entropy_logit(logit: Tensor, label) -> Tensor:
    """Stable BCE of sigmoid(logit) against 0/1 labels, elementwise; ``label``
    is a scalar or an array of the logit's shape."""
    z = logit.data
    label = np.asarray(label, dtype=np.float64)
    if label.ndim and label.shape != z.shape:
        raise ShapeError(f"binary_cross_entropy_logit: labels of shape "
                         f"{label.shape} for logits of shape {z.shape}")
    e = np.exp(-np.abs(z))
    value = np.maximum(z, 0.0) - z * label + np.log1p(e)
    sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bw(g):
        return (g * (sig - label),)

    return _result(value, "bce_logit", (logit,), bw)


# ---------------------------------------------------------------------------
# small composites


def l2_normalize_rows(a: Tensor) -> Tensor:
    return div(a, sqrt(row_sums(mul(a, a))))


# ---------------------------------------------------------------------------
# backward pass


def _toposort(root: Tensor) -> list:
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # inputs before consumers


def _spent(op: str, g) -> NoReturn:
    """The backward function of a node that :func:`backward` has passed."""
    raise GradientStateError(f"backward already ran through a node of op '{op}' "
                             "and freed its saved arrays; a graph is "
                             "differentiated once")


def backward(root: Tensor) -> dict:
    """d(root)/d(leaf) for every ``requires_grad`` leaf ``root`` reaches, as a
    mapping from the leaf to an array of its shape; empty for a root that
    needs no gradient.

    ``root`` must be scalar. No gradient array is written once made: a node's
    gradient is the first one that reaches it, as it is, and each later one
    replaces it with a new sum. A backward function may therefore return
    views, arrays it keeps, or one array for several parents, but each of
    the input's own shape; the returned arrays may be such views or shared,
    and are read, not written. An op result's gradient is dropped once its
    backward function has run.

    A graph is differentiated once: each node's backward function is freed,
    with every array it saved, as soon as it has run, and node values and
    ``parents`` stay. A later backward through such a node raises
    ``GradientStateError`` naming its op.
    """
    if root.size != 1:
        raise ShapeError(f"backward requires a scalar root, got shape {root.shape}")
    if not root.requires_grad:
        return {}
    grads = {root: np.ones_like(root.data)}
    for node in reversed(_toposort(root)):
        if node._backward_fn is None or node not in grads:
            continue
        parent_grads = node._backward_fn(grads.pop(node))
        node._backward_fn = functools.partial(_spent, node.op)
        for parent, g in zip(node.parents, parent_grads):
            if g is None or not parent.requires_grad:
                continue
            if np.shape(g) != parent.data.shape:
                raise ShapeError(f"backward of op '{node.op}' gave a gradient of "
                                 f"shape {np.shape(g)} for an input of shape "
                                 f"{parent.shape}")
            grads[parent] = grads[parent] + g if parent in grads else g
    # every op result's entry was popped as its backward ran: leaves remain
    return grads


# ---------------------------------------------------------------------------
# finite differences


def central_difference(f: Callable[[float], float], h: float) -> float:
    """The fourth-order stencil (8 (f(h) - f(-h)) - (f(2h) - f(-2h))) / 12h
    of f' at 0, whose truncation error falls as h^4, so a step large enough
    to keep roundoff down still resolves small gradient elements of deep
    graphs."""
    return (8.0 * (f(h) - f(-h)) - (f(2.0 * h) - f(-2.0 * h))) / (12.0 * h)


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor,
                      eps: float = 1e-5) -> float:
    """Max relative error between f's autodiff gradient and central differences.

    The numeric gradient takes :func:`central_difference` per entry. ``f``
    must be a deterministic scalar-valued function. Relative error uses the
    denominator max(|analytic|, |numeric|, 1e-8) per element.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    leaf = Tensor(x.data.copy(), requires_grad=True)
    analytic = backward(f(leaf)).get(leaf, np.zeros(x.shape))

    flat = x.data.reshape(-1).copy()
    numeric = np.zeros_like(flat)

    def at(i, value):
        flat[i] = value
        return float(f(Tensor(flat.reshape(x.shape))).data)

    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            numeric[i] = central_difference(lambda s: at(i, orig + s), eps)
            flat[i] = orig
    numeric = numeric.reshape(x.shape)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


# ---------------------------------------------------------------------------
# seeded randomness


class Rng:
    """Deterministic PCG64 stream; one seed fixes every draw bit-for-bit."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._g = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        return self._g.standard_normal(shape) * scale

    def truncated_normal(self, shape, scale: float = 1.0) -> np.ndarray:
        """Normal draws redrawn beyond two standard units, then scaled. Each
        round redraws the entries still out of range, in memory order, and
        checks only those."""
        x = self._g.standard_normal(shape)
        flat = x.reshape(-1)
        out = np.flatnonzero(np.abs(flat) > 2.0)
        while out.size:
            flat[out] = self._g.standard_normal(out.size)
            out = out[np.abs(flat[out]) > 2.0]
        return x * scale

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._g.uniform(low, high, shape)

    def integer(self, n: int) -> int:
        """Uniform draw from 0..n-1."""
        return int(self._g.integers(0, n))

    def choice(self, n: int, p=None) -> int:
        return int(self._g.choice(n, p=p))

    def permutation(self, n: int) -> np.ndarray:
        return self._g.permutation(n)

    def shuffled(self, items: Sequence) -> list:
        idx = self._g.permutation(len(items))
        return [items[i] for i in idx]

    def child(self) -> "Rng":
        """An independent stream derived deterministically from this one."""
        return Rng(int(self._g.integers(0, 2**63 - 1)))


# ---------------------------------------------------------------------------
# on-disk container


def save_arrays(path, magic: bytes, manifest: dict, arrays: dict) -> None:
    """Write ``manifest.json`` and ``tensors.bin`` into directory ``path``.

    tensors.bin holds ``magic``, then each array (or Tensor) of ``arrays`` as
    little-endian float64, row-major, back to back in mapping order.
    manifest.json is ``manifest`` plus a ``tensors`` list giving each array's
    name, shape, byte offset and byte length.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = len(magic)
    with open(path / "tensors.bin", "wb") as fh:
        fh.write(magic)
        for name, value in arrays.items():
            arr = value.data if isinstance(value, Tensor) else np.asarray(value)
            raw = arr.astype("<f8").tobytes(order="C")
            entries.append({"name": name, "shape": list(arr.shape),
                            "offset": offset, "bytes": len(raw)})
            fh.write(raw)
            offset += len(raw)
    (path / "manifest.json").write_text(
        json.dumps({**manifest, "tensors": entries}, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")


def load_arrays(path, magic: bytes, version: int,
                error: type[Exception]) -> tuple[dict, dict]:
    """Read a directory written by :func:`save_arrays` into (manifest, name ->
    array). The manifest must be a JSON object whose ``format_version`` is
    ``version``; every array must be finite. Any malformed or unreadable file
    raises ``error``, naming the tensor where there is one."""
    path = Path(path)
    try:
        manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
        blob = (path / "tensors.bin").read_bytes()
    except (OSError, ValueError) as e:  # ValueError: bad UTF-8 or JSON
        raise error(f"unreadable {path}: {e}") from e
    if not isinstance(manifest, dict):
        raise error("manifest is not a JSON object")
    if manifest.get("format_version") != version:
        raise error(f"unsupported format version {manifest.get('format_version')!r}, "
                    f"expected {version}")
    if blob[:len(magic)] != magic:
        raise error("bad magic bytes in tensors.bin")
    entries = manifest.get("tensors")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise error("manifest has no list of tensor entries")
    arrays = {}
    end = len(magic)  # arrays are stored back to back in manifest order
    for i, entry in enumerate(entries):
        missing = [k for k in ("name", "shape", "offset", "bytes") if k not in entry]
        if missing:
            raise error(f"manifest entry {i} "
                        f"({entry.get('name', 'unnamed')!r}) lacks {missing}")
        name, shape, start, nbytes = (entry[k] for k in ("name", "shape", "offset",
                                                          "bytes"))
        if not isinstance(name, str):
            raise error(f"manifest entry {i} has name {name!r}, not a string")
        if name in arrays:
            raise error(f"manifest entry {i} repeats tensor name {name!r}")
        if not (isinstance(shape, list) and
                all(type(n) is int and n >= 0 for n in shape) and
                type(nbytes) is int and nbytes == 8 * math.prod(shape)):
            raise error(f"tensor {name!r}: {nbytes!r} bytes do not hold "
                        f"shape {shape!r}")
        if type(start) is not int or start != end:
            raise error(f"tensor {name!r} starts at offset {start!r}, "
                        f"expected {end}")
        end = start + nbytes
        if end > len(blob):
            raise error(f"tensors.bin truncated in tensor {name!r}")
        values = np.frombuffer(blob, dtype="<f8", count=nbytes // 8,
                               offset=start).reshape(shape)
        if not all_finite(values):
            raise error(f"tensor {name!r} holds NaN or Inf")
        arrays[name] = values.copy()
    if end != len(blob):
        last = f"tensor {entries[-1]['name']!r}" if entries else "the magic bytes"
        raise error(f"tensors.bin has {len(blob) - end} trailing bytes after {last}")
    return manifest, arrays
