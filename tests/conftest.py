import tracemalloc
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import settings

from phrasealign import numerics as nx

settings.register_profile("default", max_examples=30,
                          deadline=timedelta(seconds=20))
settings.load_profile("default")


def _layer_norm(s, gain, bias):
    """Layer norm over the last axis in plain numpy, eps 1e-5."""
    return (s - s.mean(axis=-1, keepdims=True)) * \
        (1.0 / np.sqrt(s.var(axis=-1, keepdims=True) + 1e-5)) * gain + bias


def _attention_chain(x_q, x_kv, wq, wk, wv, wo, bo, scale, bias=None, index=None,
                     norm=None):
    """The attention block as the chain of ops it was before its fusion, in
    plain numpy: per-head projections, the per-pair gather of keys and
    values, the scaled, key-biased row softmax, a . v, the head merge and the
    output projection, and with ``norm``, a (gain, bias) pair, the layer norm
    of ``x_q`` plus that output. Returns (out, a, v) as arrays, with a and v
    per pair."""
    def lift(x):
        return x[:, None] if x.ndim == 3 else x

    q, k, v = lift(x_q) @ wq, lift(x_kv) @ wk, lift(x_kv) @ wv
    if index is not None:
        k, v = k[index], v[index]
    scores = (q * scale) @ np.swapaxes(k, -1, -2)
    if bias is not None:
        scores = scores + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)
    merged = np.swapaxes(a @ v, -3, -2).reshape(x_q.shape[:-1] + (-1,))
    out = merged @ wo + bo
    return (out if norm is None else _layer_norm(x_q + out, *norm)), a, v


# how far a fused op may be from its chain: the fused softmax shifts each row
# by its key-0 score and normalizes the output, the layer norm takes its row
# means as products, and the chain does neither. The worst deviation
# measured is 1.0e-15 of the largest entry; this is ten times that
CHAIN_RTOL = 1e-14


def _near(got, want, rtol=CHAIN_RTOL):
    """Whether ``got`` has ``want``'s shape and lies within ``rtol`` of
    want's largest magnitude everywhere."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and \
        bool(np.abs(got - want).max() <= rtol * np.abs(want).max())


def _tensors_made(fn):
    """The number of Tensors constructed while ``fn()`` runs."""
    made = 0
    init = nx.Tensor.__init__

    def counting(self, *args, **kwargs):
        nonlocal made
        made += 1
        init(self, *args, **kwargs)

    nx.Tensor.__init__ = counting
    try:
        fn()
    finally:
        nx.Tensor.__init__ = init
    return made


def _traced_mib(fn):
    """(size, peak), in MiB, of what tracemalloc traces while ``fn()`` runs,
    both above the traced size at entry, its return value kept alive: what
    ``fn()`` still holds when it returns, and the most it held at once. A
    trace that is already running goes on; one started here is stopped."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        kept = fn()  # noqa: F841
        size, peak = tracemalloc.get_traced_memory()
        return (size - base) / 2**20, (peak - base) / 2**20
    finally:
        if started:
            tracemalloc.stop()


def _peak_mib(fn):
    """The tracemalloc peak, in MiB, of what is allocated while ``fn()``
    runs."""
    return _traced_mib(fn)[1]


def _held_mib(fn):
    """The tracemalloc size, in MiB, of what ``fn()`` allocated and still
    holds when it returns, its return value kept alive."""
    return _traced_mib(fn)[0]


def _param_grads(params, root):
    """``backward(root)`` by parameter name, with zeros for each parameter
    the root does not reach: the gradient each optimizer step reads."""
    grads = nx.backward(root)
    return {name: grads.get(p, np.zeros_like(p.data)) for name, p in params.items()}


@pytest.fixture
def layer_norm():
    return _layer_norm


@pytest.fixture
def attention_chain():
    return _attention_chain


@pytest.fixture
def near():
    return _near


@pytest.fixture
def tensors_made():
    return _tensors_made


@pytest.fixture
def peak_mib():
    return _peak_mib


@pytest.fixture
def held_mib():
    return _held_mib


@pytest.fixture
def param_grads():
    return _param_grads
