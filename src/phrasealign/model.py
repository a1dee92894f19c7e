"""Unimodal encoders, the multi-head cross-modal encoder with attention
tracing, momentum shadows of the unimodal weights, and checkpoint files in
the :func:`numerics.save_arrays` container.

The encoders are deliberately small: linear patch/token embeddings plus
post-norm self-attention blocks, each sublayer LN(x + f(x)). The cross-modal
encoder runs self-attention over the text rows, cross-attention with text
queries against image keys/values, then a feed-forward, per layer; one
layer's attention matrices and projected values can be captured as a trace:
plain arrays, which differentiation never reaches. Parameters are a plain
``dict`` from name to leaf Tensor, in :func:`init_params`'s creation order;
a pass reads its weights from the dict it is given by name, so the momentum
shadows, a dict of the mirrored names, run the same passes. The same
cross-modal parameters serve the image-text and image-phrase streams. Heads
are the leading array axis: ``wq``/``wk``/``wv`` are (heads, d, head_dim). Each
residual sublayer, its layer norm included, is one graph node: a
:func:`numerics.attention` node per attention block and a
:func:`numerics.tanh_mlp` node per feed-forward. Pairs that share an image
share its cross-attention keys and values: given an image index per pair,
each cross layer projects every image once, and each pair gathers its
image's keys and values transiently for its products. Texts are named by
index as well: given a text index per pair, cross layer 0's self-attention,
the only sublayer that reads the text alone, runs once per distinct text,
and one gather picks each pair's rows; every later sublayer runs per pair.

Every pass runs every layer and returns exactly the rows its caller reads,
in one :class:`EncoderOutput`. Given ``rows`` (0 for [CLS], or one row per
sequence), the last layer's queries are those rows, one
:func:`numerics.select_rows` node, while its keys and values still come
from every row. Training passes the [CLS] row to the matching cross-encode
and to the momentum encoders, and each phrase's [MASK] row to the phrase
cross-encode. A traced cross layer computes every row, since the local
alignment reads each pair's mask row; traced last, it selects ``rows``
after. Retrieval and the gallery pass no rows.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

import numpy as np

from . import numerics as nx
from .numerics import Tensor, Rng
from .textproc import CLS_ID, PAD_ID, UNK_ID

CHECKPOINT_VERSION = 2   # 2: stacked (heads, d, head_dim) attention weights
_CKPT_MAGIC = b"PACKPT01"

INIT_STD = 0.02
INIT_TEMPERATURE = 0.07


def check_counts(config, low: dict) -> None:
    """Raise ValueError naming the first field of the dataclass ``config``
    that is declared ``int`` and holds no integer (a bool is none), that is
    declared ``bool`` and holds no bool (a string or an integer is none), or
    that holds less than its entry in ``low``."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.type in ("int", int) and (isinstance(value, bool) or
                                            not isinstance(value, (int, np.integer))):
            raise ValueError(f"{field.name} must be an integer, got {value!r}")
        if field.type in ("bool", bool) and not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{field.name} must be a bool, got {value!r}")
        if field.name in low and value < low[field.name]:
            raise ValueError(f"{field.name} must be at least {low[field.name]}")


@dataclasses.dataclass
class ModelConfig:
    d: int = 32                   # representation width
    heads: int = 4                # d must divide evenly; head width d' = d/heads
    n_self_layers: int = 1
    n_cross_layers: int = 6
    bidiratt_layer: int = 3       # 1-based cross layer whose attention is traced
    proj_dim: int = 16            # width of the coarse-similarity embeddings
    patch_rows: int = 8
    patch_cols: int = 8
    patch_pixels: int = 48
    max_text_len: int = 50
    vocab_size: int = 0           # filled from the text pipeline
    ffn_mult: int = 2
    tie_score_head: bool = False

    @property
    def head_dim(self) -> int:
        return self.d // self.heads

    @property
    def n_patches(self) -> int:
        return self.patch_rows * self.patch_cols

    def validate(self) -> None:
        check_counts(self, {"n_self_layers": 0, **dict.fromkeys(
            ("d", "heads", "n_cross_layers", "proj_dim", "patch_rows", "patch_cols",
             "patch_pixels", "max_text_len", "ffn_mult"), 1)})
        if self.d % self.heads != 0:
            raise ValueError(f"width {self.d} not divisible by {self.heads} heads")
        if not 1 <= self.bidiratt_layer <= self.n_cross_layers:
            raise ValueError(f"bidiratt_layer {self.bidiratt_layer} outside "
                             f"1..{self.n_cross_layers}")
        if self.patch_pixels % 3 != 0:
            raise ValueError("patch_pixels must hold whole RGB triples")
        if self.vocab_size < 4:
            raise ValueError("vocab_size must include the reserved tokens")


# momentum shadows mirror the unimodal encoders and the coarse projections
_MOMENTUM_PREFIXES = ("embed.", "img_self", "txt_self", "proj.")


def is_momentum_mirrored(name: str) -> bool:
    return name.startswith(_MOMENTUM_PREFIXES)


@dataclasses.dataclass
class MomentumState:
    shadow: dict
    alpha: float

    @classmethod
    def from_params(cls, params: dict, alpha: float) -> "MomentumState":
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"momentum coefficient {alpha} outside [0, 1)")
        shadow = {name: Tensor(t.data.copy(), op=f"momentum:{name}")
                  for name, t in params.items() if is_momentum_mirrored(name)}
        return cls(shadow=shadow, alpha=alpha)


def momentum_update(live: dict, state: MomentumState) -> None:
    """shadow <- alpha * shadow + (1 - alpha) * live, elementwise."""
    a = state.alpha
    for name, shadow in state.shadow.items():
        src = live[name]
        if src.data.shape != shadow.data.shape:
            raise ValueError(f"momentum shape drift on {name}: "
                             f"{shadow.data.shape} vs {src.data.shape}")
        shadow.data *= a
        shadow.data += (1.0 - a) * src.data


# ---------------------------------------------------------------------------
# initialization


def init_params(cfg: ModelConfig, rng: Rng) -> dict[str, Tensor]:
    """Truncated-normal weights (std 0.02), zero biases, temperature 0.07."""
    cfg.validate()
    p = {}
    d, dh, v = cfg.d, cfg.head_dim, cfg.vocab_size

    def add(name, data):
        p[name] = Tensor(data, requires_grad=True, op=f"param:{name}")

    def w(name, *shape):
        add(name, rng.truncated_normal(shape, INIT_STD))

    def zeros(name, *shape):
        add(name, np.zeros(shape))

    def ones(name, *shape):
        add(name, np.ones(shape))

    w("embed.patch.w", cfg.patch_pixels, d)
    zeros("embed.patch.b", d)
    w("embed.token", v, d)
    w("embed.pos_img", cfg.n_patches + 1, d)
    w("embed.pos_txt", cfg.max_text_len + 1, d)
    w("embed.cls_img", 1, d)

    def attention_block(prefix):
        # draw order per head: q, k, v, so every seed keeps its values
        draws = [[rng.truncated_normal((d, dh), INIT_STD) for _ in range(3)]
                 for _ in range(cfg.heads)]
        for name, per_head in zip(("wq", "wk", "wv"), zip(*draws)):
            add(f"{prefix}.{name}", np.stack(per_head))
        w(f"{prefix}.out.w", d, d)
        zeros(f"{prefix}.out.b", d)

    def ffn_block(prefix):
        w(f"{prefix}.w1", d, cfg.ffn_mult * d)
        zeros(f"{prefix}.b1", cfg.ffn_mult * d)
        w(f"{prefix}.w2", cfg.ffn_mult * d, d)
        zeros(f"{prefix}.b2", d)

    def ln(prefix):
        ones(f"{prefix}.g", d)
        zeros(f"{prefix}.b", d)

    for stream in ("img_self", "txt_self"):
        for layer in range(cfg.n_self_layers):
            attention_block(f"{stream}{layer}.attn")
            ln(f"{stream}{layer}.ln1")
            ffn_block(f"{stream}{layer}.ffn")
            ln(f"{stream}{layer}.ln2")

    for layer in range(cfg.n_cross_layers):
        attention_block(f"cross{layer}.self")
        ln(f"cross{layer}.ln1")
        attention_block(f"cross{layer}.cross")
        ln(f"cross{layer}.ln2")
        ffn_block(f"cross{layer}.ffn")
        ln(f"cross{layer}.ln3")

    w("score.w", dh, 1)
    w("itm.w", d, 1)
    w("proj.img.w", d, cfg.proj_dim)
    w("proj.txt.w", d, cfg.proj_dim)
    w("mpm.w1", d, d)
    zeros("mpm.b1", d)
    w("mpm.w2", d, v)
    zeros("mpm.b2", v)
    add("temp.log_tau", np.log(INIT_TEMPERATURE))
    return p


# ---------------------------------------------------------------------------
# outputs and traces


# key bias of padding rows: far enough below any score that its softmax weight
# is exactly 0, and finite, so that a row of padding alone would still give
# weights rather than inf - inf = NaN. Key 0 is the [CLS] row and is never
# padded: the attention shifts each score row by its key-0 score, and that
# key's weight exp(0) = 1 keeps every row sum at least 1
PAD_BIAS = -1e30


@dataclasses.dataclass
class AttentionTrace:
    """Attention state of one cross-attention layer, head as an axis; a
    batched cross-encode adds a leading pair axis, and padded text rows of a
    pair hold finite values nothing reads. Both are plain arrays, so the
    local alignment weights they give are constants under differentiation.
    Both are per pair: given an image index, the values are the traced
    layer's gather of each pair's image values, which its graph does not
    keep."""

    attn: np.ndarray            # ([B,] heads, L_text+1, L_img+1), rows sum to 1
    values: np.ndarray          # ([B,] heads, L_img+1, head_dim)


@dataclasses.dataclass
class EncoderOutput:
    """Encoded rows of one sequence, (L+1, d), or of a batch of sequences
    padded to the longest, (B, L_max+1, d), from an encoder or a
    cross-encode; row 0 is the global [CLS] row. A text-encoder batch whose
    lengths differ carries ``pad_bias``, a (B, 1, 1, L_max+1) key-bias array:
    0 on real rows, ``PAD_BIAS`` on padding. A traced cross-encode adds its
    ``trace``.

    A pass given ``rows`` holds exactly those rows: ``reps`` is then (1, d)
    or (B, 1, d), row ``rows`` of each sequence (or ``rows[b]`` of sequence
    b), with no ``pad_bias``. ``cls`` raises unless it holds row 0."""

    reps: Tensor
    pad_bias: np.ndarray | None = None
    rows: int | np.ndarray | None = None   # None: every row
    trace: AttentionTrace | None = None

    @property
    def cls(self) -> Tensor:
        if self.rows is not None and np.any(self.rows):
            raise ValueError(f"the output holds rows {np.asarray(self.rows).tolist()} "
                             "of each sequence, not the [CLS] row 0")
        return nx.take_row(self.reps, 0)


# ---------------------------------------------------------------------------
# blocks


def _multi_head_attention(queries_from: Tensor, keys_values_from: Tensor,
                          params: dict, prefix: str, norm: str, cfg: ModelConfig,
                          key_bias: np.ndarray | None = None, kv_index=None,
                          trace: bool = False):
    """The attention sublayer as one :func:`numerics.attention` node with the
    block's weights and the layer norm ``norm``: all heads (and pairs) at
    once, ``key_bias`` added to the scores, and with ``kv_index`` keys and
    values projected once per entry of ``keys_values_from``. With ``trace``,
    returns (node, attention, values) as :func:`numerics.attention` does."""
    return nx.attention(queries_from, keys_values_from, params[prefix + ".wq"],
                        params[prefix + ".wk"], params[prefix + ".wv"],
                        params[prefix + ".out.w"], params[prefix + ".out.b"],
                        params[norm + ".g"], params[norm + ".b"],
                        1.0 / math.sqrt(cfg.head_dim), key_bias, kv_index, trace)


def _ffn(x: Tensor, params: dict, prefix: str, norm: str) -> Tensor:
    """The feed-forward sublayer, LN(x + tanh_mlp(x)), as one node."""
    return nx.tanh_mlp(x, params[prefix + ".w1"], params[prefix + ".b1"],
                       params[prefix + ".w2"], params[prefix + ".b2"],
                       params[norm + ".g"], params[norm + ".b"])


def _grad_mode(mode: str):
    """The context of a pass in ``mode``: ``"train"`` records a graph,
    ``"infer"`` does not; any other mode raises."""
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    return nx.no_grad() if mode == "infer" else contextlib.nullcontext()


def _queries(x: Tensor, rows) -> Tensor:
    """The query rows of a layer: all of ``x``, or given ``rows``, one
    :func:`numerics.select_rows` node."""
    return x if rows is None else nx.select_rows(x, rows)


def _self_layers(x: Tensor, stream: str, params: dict, cfg: ModelConfig,
                 rows=None, key_bias: np.ndarray | None = None) -> Tensor:
    """The self-attention layers of ``stream``, each an attention and a
    feed-forward sublayer. Given ``rows``, the last layer computes those
    query rows only, against keys and values of every row; with no layers,
    they are selected from ``x``."""
    if not cfg.n_self_layers:
        return _queries(x, rows)
    for layer in range(cfg.n_self_layers):
        prefix = f"{stream}{layer}"
        q = _queries(x, rows if layer == cfg.n_self_layers - 1 else None)
        x = _multi_head_attention(q, x, params, f"{prefix}.attn", f"{prefix}.ln1", cfg,
                                  key_bias)
        x = _ffn(x, params, f"{prefix}.ffn", f"{prefix}.ln2")
    return x


def _cross_layer(layer: int, x: Tensor, text_bias: np.ndarray | None, image: Tensor,
                 params: dict, cfg: ModelConfig, rows=None, index=None,
                 trace: bool = False, text_index=None):
    """Cross layer ``layer`` (0-based): self-attention over the text rows
    ``x``, whose padding ``text_bias`` keeps out, cross-attention with text
    queries against the ``image`` rows (given ``index``, image ``index[b]``
    for pair b), feed-forward. Given ``text_index``, ``x`` and ``text_bias``
    hold distinct texts: the self-attention runs once per text, and one
    gather then picks text ``text_index[b]`` for pair b. Given ``rows``, the
    layer computes only those query rows, picked after that gather; keys and
    values still come from every row. Returns (rows out, the layer's
    :class:`AttentionTrace` with ``trace``, else None)."""
    prefix = f"cross{layer}"
    queries = x if text_index is not None else _queries(x, rows)
    x = _multi_head_attention(queries, x, params, f"{prefix}.self", f"{prefix}.ln1",
                              cfg, text_bias)
    if text_index is not None:
        x = _queries(nx.gather_rows(x, text_index), rows)
    cross = _multi_head_attention(x, image, params, f"{prefix}.cross", f"{prefix}.ln2",
                                  cfg, kv_index=index, trace=trace)
    captured = None
    if trace:
        cross, a, v = cross
        captured = AttentionTrace(a, v)
    return _ffn(cross, params, f"{prefix}.ffn", f"{prefix}.ln3"), captured


# ---------------------------------------------------------------------------
# encoders


def encode_image(patches, params: dict, cfg: ModelConfig, mode: str = "train",
                 rows=None) -> EncoderOutput:
    """Linear patch embedding + positions + [CLS] + self-attention layers,
    for one image's (n_patches, patch_pixels) patches or a (B, n_patches,
    patch_pixels) stack of images in one call; images are never padded.
    ``rows``: the row the caller reads of each image (0 for [CLS]), or of
    image b ``rows[b]``; the last layer computes only those, None all."""
    patches = patches if isinstance(patches, Tensor) else Tensor(patches)
    if patches.data.ndim not in (2, 3) or \
            patches.shape[-2:] != (cfg.n_patches, cfg.patch_pixels):
        raise nx.ShapeError(
            f"expected {cfg.n_patches} patches of {cfg.patch_pixels} pixels per "
            f"image, for one image or a stack, got shape {patches.shape}")
    with _grad_mode(mode):
        x = nx.linear(patches, params["embed.patch.w"], params["embed.patch.b"])
        x = nx.prepend_row(params["embed.cls_img"], x)
        x = nx.add(x, params["embed.pos_img"])
        return EncoderOutput(_self_layers(x, "img_self", params, cfg, rows), rows=rows)


def encode_text(token_ids, params: dict, cfg: ModelConfig, mode: str = "train",
                rows=None) -> EncoderOutput:
    """Token embedding + positions + [CLS] + self-attention layers, for one
    id list or a sequence of id lists in one call. A batch is padded with
    ``PAD_ID`` to the longest text; if lengths differ it carries
    ``pad_bias``, which gives the padding weight 0 in the self-attention.
    ``rows`` as for :func:`encode_image`; an output of some rows only
    carries no ``pad_bias``.

    Unknown ids fall back to the [UNK] row. Phrases reuse the text positional
    rows from position 0."""
    batched = len(token_ids) > 0 and not isinstance(token_ids[0], (int, np.integer))
    texts = token_ids if batched else [token_ids]
    lengths = [len(t) + 1 for t in texts]
    if max(lengths) > cfg.max_text_len + 1:
        raise nx.ShapeError(f"text length {max(lengths) - 1} exceeds {cfg.max_text_len}")
    ids = np.full((len(texts), max(lengths)), PAD_ID)
    for b, t in enumerate(texts):
        ids[b, :lengths[b]] = [CLS_ID] + [i if 0 <= i < cfg.vocab_size else UNK_ID
                                          for i in t]
    real = np.arange(max(lengths)) < np.array(lengths)[:, None]
    pad_bias = None if real.all() else np.where(real, 0.0, PAD_BIAS)[:, None, None, :]
    with _grad_mode(mode):
        x = nx.gather_rows(params["embed.token"], ids if batched else ids[0])
        x = nx.add(x, nx.gather_rows(params["embed.pos_txt"], np.arange(max(lengths))))
        x = _self_layers(x, "txt_self", params, cfg, rows, pad_bias)
        return EncoderOutput(x, pad_bias if rows is None else None, rows)


def coarse_embeddings(images, token_ids, params: dict, cfg: ModelConfig, rows=None):
    """Encode a batch of images and a batch of texts, one encoder call each,
    and project their [CLS] rows into the coarse space, one unit row per item.
    ``rows`` goes to both encoders: 0 computes the [CLS] rows alone.

    Returns (image output, text output, image embeddings, text embeddings).
    """
    img_out = encode_image(np.stack(images), params, cfg, rows=rows)
    txt_out = encode_text(token_ids, params, cfg, rows=rows)
    return (img_out, txt_out,
            nx.l2_normalize_rows(nx.linear(img_out.cls, params["proj.img.w"])),
            nx.l2_normalize_rows(nx.linear(txt_out.cls, params["proj.txt.w"])))


def cross_encode(text_out: EncoderOutput, img_out: EncoderOutput, params: dict,
                 cfg: ModelConfig, trace_layer: int | None = None,
                 mode: str = "train", image_index=None, rows=None,
                 text_index=None) -> EncoderOutput:
    """Per layer (:func:`_cross_layer`): self-attention over text rows,
    cross-attention with text queries against image keys/values,
    feed-forward. ``trace_layer`` (1-based) captures that layer's attention
    trace.

    Takes one pair, or a batch of pairs: text and image reps with the same
    leading pair axis, as the batched encoders give them. Texts and images
    can both be named by index instead, repeats allowed: ``image_index``
    gives the image of each pair in a stack of images, and then every cross
    layer projects each image's keys and values once, and each pair gathers
    its image's for its products; ``text_index`` gives the text of each
    pair in a batch of texts, and then cross layer 0's self-attention runs
    once per text and one gather picks each pair's rows and padding.
    Either gives the same numbers as a per-pair copy of the rows. A text
    batch's ``pad_bias`` keeps its padding out of the text self-attention;
    image rows are never padded. The fused reps and the trace have the pair
    axis.

    ``rows``: the text row the caller reads of each pair (0 for [CLS]), or
    of pair b ``rows[b]``; the last layer computes only those, None all. A
    traced layer computes every row for its trace, so a traced last layer
    then selects ``rows``: the output holds exactly ``rows`` either way.
    Empty ``rows`` raise ``ShapeError``."""
    ctx = _grad_mode(mode)
    if trace_layer is not None and not 1 <= trace_layer <= cfg.n_cross_layers:
        raise ValueError(f"trace_layer {trace_layer} outside 1..{cfg.n_cross_layers}")
    index = None if image_index is None else np.asarray(image_index, dtype=np.intp)
    texts = None if text_index is None else np.asarray(text_index, dtype=np.intp)
    pairs = img_out.reps.shape[:-2] if index is None else index.shape
    if (text_out.reps.shape[:-2] if texts is None else texts.shape) != pairs or \
            img_out.pad_bias is not None or \
            (index is not None and img_out.reps.data.ndim != 3) or \
            (texts is not None and text_out.reps.data.ndim != 3):
        raise nx.ShapeError(f"need one unpadded image per text: text "
                            f"{text_out.reps.shape}, image {img_out.reps.shape}"
                            + ("" if index is None else f", index {index.shape}")
                            + ("" if texts is None else f", text index {texts.shape}"))
    if texts is not None and ((texts < 0) | (texts >= text_out.reps.shape[0])).any():
        raise IndexError(f"text_index {texts.tolist()} outside "
                         f"0..{text_out.reps.shape[0] - 1}")
    if text_out.rows is not None or img_out.rows is not None:
        raise nx.ShapeError("cross_encode needs every row of the text and the image")
    select_after = trace_layer == cfg.n_cross_layers
    # after layer 0, a text index has made the text rows and padding per pair
    pair_bias = text_out.pad_bias if texts is None or text_out.pad_bias is None \
        else text_out.pad_bias[texts]
    with ctx:
        x, bias, trace = text_out.reps, text_out.pad_bias, None
        for layer in range(cfg.n_cross_layers):
            x, captured = _cross_layer(
                layer, x, bias, img_out.reps, params, cfg,
                None if select_after or layer < cfg.n_cross_layers - 1 else rows, index,
                layer + 1 == trace_layer, None if layer else texts)
            trace, bias = trace or captured, pair_bias
        x = _queries(x, rows) if select_after else x
        return EncoderOutput(x, rows=rows, trace=trace)


# ---------------------------------------------------------------------------
# checkpoints


class CheckpointError(ValueError):
    """A checkpoint file is malformed or has an unsupported version."""


def save_checkpoint(path, named_tensors: dict) -> None:
    """Write ``named_tensors`` (arrays or Tensors) into directory ``path`` with
    :func:`numerics.save_arrays`, under the checkpoint magic and version."""
    nx.save_arrays(path, _CKPT_MAGIC, {"format_version": CHECKPOINT_VERSION},
                   named_tensors)


def load_checkpoint(path) -> dict:
    """Read a directory written by :func:`save_checkpoint` into name -> array.
    A malformed file raises CheckpointError, naming the tensor where there is
    one."""
    return nx.load_arrays(path, _CKPT_MAGIC, CHECKPOINT_VERSION, CheckpointError)[1]


def params_state(params: dict, momentum: MomentumState | None = None) -> dict:
    state = dict(params)
    if momentum is not None:
        for name, tensor in momentum.shadow.items():
            state[f"momentum/{name}"] = tensor
    return state


def load_params_state(params: dict, momentum: MomentumState | None,
                      state: dict) -> None:
    """Copy ``state`` (names as in :func:`params_state`) into the live and
    momentum tensors. Nothing is written unless ``state`` holds exactly the
    model's tensors, each with its shape; otherwise CheckpointError names
    the first offender."""
    targets = params_state(params, momentum)
    surplus = [name for name in state if name not in targets]
    if surplus:
        raise CheckpointError(f"state tensor {surplus[0]!r} has no place in the "
                              f"model ({len(surplus)} such tensors)")
    for name, tensor in targets.items():
        if name not in state:
            raise CheckpointError(f"state has no tensor {name!r}")
        shape = np.shape(state[name])
        if shape != tensor.data.shape:
            raise CheckpointError(f"tensor {name!r} has shape {shape}, "
                                  f"expected {tensor.data.shape}")
    for name, tensor in targets.items():
        tensor.data[...] = state[name]
