"""Dense float64 tensor ops with reverse-mode differentiation.

The whole artifact computes on one value type: a float64 numpy array wrapped
in :class:`Tensor`. While gradients are enabled (the default), operations on
tensors that sit on a differentiable path are recorded on an acyclic graph;
``backward`` then accumulates d(root)/d(node) into each node's ``grad`` slot.
Inside :func:`no_grad` nothing is recorded and no gradient state is allocated.

Only leaves (tensors created with ``requires_grad=True``) own a gradient slot
from the start: it is zero-initialized and keeps what ``backward`` adds to it.
An op result gets its slot inside ``backward`` when the first gradient
reaches it, and loses it again once that gradient has been passed on to its
parents, so no full-size buffer is held for nodes backward never reaches.
Leaf slots accumulate with ``+=`` and must be cleared explicitly through
``zero_grads`` between backward passes; reuse without a reset raises.

Also here: :class:`Rng`, a seeded PCG64 generator every stochastic choice in
the artifact goes through; :func:`finite_diff_check`, the central
difference oracle used to validate every analytic gradient; and
:func:`save_arrays` / :func:`load_arrays`, the one on-disk container that
datasets and checkpoints are both written in.
"""

from __future__ import annotations

import contextlib
import json
import math
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GradientStateError(RuntimeError):
    """Gradient slots were reused without an explicit reset."""


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording. Ops inside allocate no gradient state."""
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
    """A float64 array plus its slot in the differentiation graph.

    ``data`` is the value (row-major numpy array). ``grad`` mirrors its shape:
    a leaf created with ``requires_grad=True`` starts with a zero slot; an op
    result produced while recording starts with ``None``, holds its gradient
    only between its first use in :func:`backward` and the call of its
    backward function, and is ``None`` again afterwards. ``op`` and
    ``parents`` describe how the tensor was produced.
    """

    __slots__ = ("data", "grad", "op", "parents", "requires_grad",
                 "_backward_fn", "_grad_dirty")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = (), backward_fn=None):
        arr = np.asarray(data, dtype=np.float64)
        # a finite sum of squares implies finite elements; only a non-finite
        # one (which overflow of finite values can also cause) needs the full
        # scan. vdot costs less than arr.sum() at every size measured and,
        # unlike it, prints no RuntimeWarning on inf - inf or on overflow. It
        # copies an array that is not C-contiguous; ravel in memory order is a
        # view of the same values for a transposed one
        flat = arr if arr.flags.c_contiguous else arr.ravel(order="K")
        if not math.isfinite(np.vdot(flat, flat)) and not np.isfinite(arr).all():
            raise NonFiniteError(f"non-finite values produced by op '{op}'")
        self.data = arr
        self.op = op
        self.parents = parents
        self.requires_grad = bool(requires_grad)
        self._backward_fn = backward_fn
        self.grad = np.zeros_like(arr) if self.requires_grad and backward_fn is None \
            else None
        self._grad_dirty = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs one element, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0
        self._grad_dirty = False

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
    # a reshape to the same shape would still make a view, which backward
    # then copies
    return grad if grad.shape == shape else grad.reshape(shape)


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; leading axes broadcast, so a matrix is
    shared by every leading index and ``(B, 1, L, d) @ (heads, d, w)`` gives
    ``(B, heads, L, w)``.

    Where one weight is shared by every leading index, backward contracts
    over all rows at once, with no per-index weight gradient summed over the
    leading axes: for (B, 1, L, d) @ (heads, d, w), (B*L, heads*w) @
    (heads*w, d) for ``a`` and (d, B*L) @ (B*L, heads*w) for ``b``; for
    (..., L, d) @ (d, w), (d, rows) @ (rows, w) for ``b``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    # broadcast_shapes costs more than a small matmul: only call it when the
    # leading axes differ
    if a.data.ndim > 2 and b.data.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        try:
            np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        except ValueError:
            raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}") from None

    if a.data.ndim == 4 and a.shape[1] == 1 and b.data.ndim == 3:
        def bw(g):
            heads, d, w = b.shape
            rows = np.swapaxes(g, 1, 2).reshape(-1, heads * w)
            ga = np.empty(a.shape)    # owns its buffer, so backward need not copy it
            np.matmul(rows, np.swapaxes(b.data, 1, 2).reshape(heads * w, d),
                      out=ga.reshape(-1, d))
            gb = a.data.reshape(-1, d).T @ rows
            return ga, np.swapaxes(gb.reshape(d, heads, w), 0, 1)
    elif a.data.ndim > 2 and b.data.ndim == 2:
        def bw(g):
            d, w = b.shape
            return g @ b.data.T, a.data.reshape(-1, d).T @ g.reshape(-1, w)
    else:
        def bw(g):
            return (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape),
                    _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _result(a.data @ b.data, "matmul", (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    return _result(np.swapaxes(a.data, -1, -2), "transpose", (a,),
                   lambda g: (np.swapaxes(g, -1, -2),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    old = a.shape
    return _result(a.data.reshape(shape), "reshape", (a,),
                   lambda g: (g.reshape(old),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bw(g):
        return (g * mask,)

    return _result(a.data * mask, "relu", (a,), bw)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def bw(g):
        return (g * (1.0 - y * y),)

    return _result(y, "tanh", (a,), bw)


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
        return (np.broadcast_to(g, a.shape).copy(),)

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


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Matrices joined along ``axis`` (0: stack rows, 1: join columns)."""
    tensors = [_as_tensor(t) for t in tensors]
    if any(t.data.ndim != 2 for t in tensors) or \
            len({t.shape[1 - axis] for t in tensors}) != 1:
        raise ShapeError(f"concat along axis {axis} needs matrices of equal "
                         f"extent on the other axis: {[t.shape for t in tensors]}")
    sizes = [t.shape[axis] for t in tensors]

    def bw(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _result(np.concatenate([t.data for t in tensors], axis=axis), "concat",
                   tuple(tensors), bw)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"slice_rows expects a matrix, got shape {a.shape}")

    def bw(g):
        out = np.zeros(a.shape)
        out[start:stop] = g
        return (out,)

    return _result(a.data[start:stop].copy(), "slice_rows", (a,), bw)


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


def as_row(a: Tensor) -> Tensor:
    """View a 1-D vector as a (1, n) matrix."""
    return reshape(a, (1, a.size))


def merge_heads(a: Tensor) -> Tensor:
    """(..., heads, rows, w) -> (..., rows, heads*w): head blocks side by
    side, head 0 first."""
    if a.data.ndim < 3:
        raise ShapeError(f"merge_heads expects (..., heads, rows, width), got {a.shape}")
    *lead, heads, rows, width = a.shape

    def bw(g):
        return (np.swapaxes(g.reshape(*lead, rows, heads, width), -3, -2),)

    return _result(np.swapaxes(a.data, -3, -2).reshape(*lead, rows, heads * width),
                   "merge_heads", (a,), bw)


def gather_rows(table: Tensor, ids: int | Sequence[int]) -> Tensor:
    """Entries along the leading axis: ``table[ids]`` for ids of any shape
    (duplicates allowed), so a (B, L) id matrix looks up a (B, L, d) batch of
    embedding rows, or for an int the single entry with that axis dropped.

    Gradients scatter-add back as one product: a 0/1 (table entries, ids)
    matrix times the gradient rows, which adds repeated ids in id order
    like ``np.add.at`` at a fraction of its cost."""
    if table.data.ndim < 1:
        raise ShapeError("gather_rows needs a leading axis to index")
    idx = ids if isinstance(ids, (int, np.integer)) else np.asarray(ids, dtype=np.intp)

    def bw(g):
        if not isinstance(idx, np.ndarray):
            out = np.zeros(table.shape)
            out[idx] = g
            return (out,)
        n, width = table.shape[0], math.prod(table.shape[1:])
        hits = np.arange(n)[:, None] == idx.reshape(-1) % n
        out = np.empty(table.shape)
        np.matmul(hits.astype(np.float64), g.reshape(idx.size, width),
                  out=out.reshape(n, width))
        return (out,)

    return _result(np.take(table.data, idx, axis=0), "gather_rows", (table,), bw)


# ---------------------------------------------------------------------------
# softmax-family ops


def row_softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, computed with max-subtraction."""
    if a.data.ndim < 2:
        raise ShapeError(f"row_softmax expects a matrix, got shape {a.shape}")
    # one buffer: a (4, 65, 65) float64 temporary is past the allocator's
    # mmap threshold, so each extra one costs fresh page faults
    y = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _result(y, "row_softmax", (a,), bw)


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


def layer_norm_rows(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis (width n) with learned gain and
    bias (1-D, width n), for any number of leading axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"layer_norm_rows expects rows, got shape {a.shape}")
    n = a.shape[-1]
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    y = xhat * gain.data + bias.data

    def bw(g):
        gh = g * gain.data
        m1 = gh.mean(axis=-1, keepdims=True)
        m2 = (gh * xhat).mean(axis=-1, keepdims=True)
        ga = (gh - m1 - xhat * m2) * inv
        return (ga, (g * xhat).reshape(-1, n).sum(axis=0),
                g.reshape(-1, n).sum(axis=0))

    return _result(y, "layer_norm_rows", (a, gain, bias), bw)


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


def _buffer(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory: ``a`` itself or its base."""
    return a if a.base is None else a.base


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(node) into the grad slot of every reachable leaf.

    ``root`` must be scalar. An op result's slot is the first gradient that
    reaches it; later ones are added into it, and the slot is given up once
    the node's backward function has run. Grad slots touched by a previous
    backward must be reset (``zero_grads``) first; silent accumulation across
    passes is an error by design.

    Contract of a backward function: it never returns an array it keeps, so
    each array it returns is either new or a view of the gradient it was
    given. The first gradient is therefore taken without a copy when it owns
    its buffer or views the buffer of the slot being given up, unless a
    sibling in the same tuple took that buffer first (``add`` and ``sum_n``
    hand one array to several parents); any other array is copied.
    """
    if root.size != 1:
        raise ShapeError(f"backward requires a scalar root, got shape {root.shape}")
    if root._grad_dirty:
        raise GradientStateError(
            "backward already ran through this root; reset gradients first")
    if not root.requires_grad:
        return
    order = _toposort(root)
    touched = {id(root)}
    if root.grad is not None and root.grad.any():
        raise GradientStateError("root gradient is stale; call zero_grads first")
    root.grad = np.ones_like(root.data)
    root._grad_dirty = True
    for node in reversed(order):
        if node._backward_fn is None or node.grad is None:
            continue
        released = _buffer(node.grad)
        grads = node._backward_fn(node.grad)
        node.grad = None
        taken = set()   # ids of the buffers handed on without a copy
        for parent, g in zip(node.parents, grads):
            if g is None or not parent.requires_grad:
                continue
            if id(parent) not in touched:
                if parent._grad_dirty:
                    raise GradientStateError(
                        f"stale gradient on tensor from op '{parent.op}'; "
                        "call zero_grads before backward")
                touched.add(id(parent))
                parent._grad_dirty = True
            if parent.grad is not None:
                if taken and id(_buffer(parent.grad)) in taken:
                    # a parent listed twice: its slot is a buffer taken from
                    # this tuple, which later siblings may still read
                    parent.grad = parent.grad + g
                else:
                    parent.grad += g
                continue
            if np.shape(g) != parent.data.shape:
                raise ShapeError(f"backward of op '{node.op}' gave a gradient of "
                                 f"shape {np.shape(g)} for an input of shape "
                                 f"{parent.shape}")
            buffer = _buffer(g) if isinstance(g, np.ndarray) else None
            if buffer is not None and (buffer is g or buffer is released) and \
                    id(buffer) not in taken and g.dtype == np.float64 and \
                    g.flags.writeable:
                parent.grad = g
                taken.add(id(buffer))
            else:
                parent.grad = np.array(g, dtype=np.float64, order="C")


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()


# ---------------------------------------------------------------------------
# finite differences


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor,
                      eps: float = 1e-5) -> float:
    """Max relative error between f's autodiff gradient and central differences.

    The numeric gradient is the fourth-order stencil
    (8 (f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h, whose truncation error
    falls as h^4, so a step large enough to keep roundoff down still
    resolves small gradient elements of deep graphs. ``f`` must be a
    deterministic scalar-valued function. Relative error uses the
    denominator max(|analytic|, |numeric|, 1e-8) per element.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    leaf = Tensor(x.data.copy(), requires_grad=True)
    out = f(leaf)
    backward(out)
    analytic = leaf.grad.copy()

    flat = x.data.reshape(-1).copy()
    numeric = np.zeros_like(flat)

    def at(i, value):
        flat[i] = value
        return float(f(Tensor(flat.reshape(x.shape))).data)

    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            near = at(i, orig + eps) - at(i, orig - eps)
            far = at(i, orig + 2.0 * eps) - at(i, orig - 2.0 * eps)
            flat[i] = orig
            numeric[i] = (8.0 * near - far) / (12.0 * eps)
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
        """Normal draws redrawn beyond two standard units, then scaled."""
        x = self._g.standard_normal(shape)
        bad = np.abs(x) > 2.0
        while bad.any():
            x[bad] = self._g.standard_normal(int(bad.sum()))
            bad = np.abs(x) > 2.0
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
        if not np.isfinite(values).all():
            raise error(f"tensor {name!r} holds NaN or Inf")
        arrays[name] = values.copy()
    if end != len(blob):
        last = f"tensor {entries[-1]['name']!r}" if entries else "the magic bytes"
        raise error(f"tensors.bin has {len(blob) - end} trailing bytes after {last}")
    return manifest, arrays
