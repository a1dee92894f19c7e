from datetime import timedelta

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("default", max_examples=30,
                          deadline=timedelta(seconds=20))
settings.load_profile("default")


def _attention_chain(x_q, x_kv, wq, wk, wv, wo, bo, scale, bias=None, index=None):
    """The attention block as the chain of ops it was before its fusion, in
    plain numpy: per-head projections, the per-pair gather of keys and
    values, the scaled, key-biased row softmax, a . v, the head merge and the
    output projection. Returns (out, a, v) as arrays."""
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
    return merged @ wo + bo, a, v


@pytest.fixture
def attention_chain():
    return _attention_chain
