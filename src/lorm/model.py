"""Transformer backbone: embedding, encoding, pooling, and token-score heads.

The network maps an MCPS (see :mod:`lorm.sequence`) to one probability
distribution over K tokens per channel:

    E = P @ W_E                      patch embedding
    E~ = E + P_pos                   learnable absolute positions
    Z = blocks(E~)                   L pre-norm Transformer blocks + final norm
    g = mean of Z rows               global context vector
    u = layernorm(gelu(g))           head features
    v = u @ W_c                      K*C scores, C blocks of K
    pi_c = softmax(v block c)

Parameters live in one flat vector in a canonical order (embed, pos,
per-layer attention, per-layer ffn, norms, head) that gradients, Adam's
moments and the checkpoint's parameter block share. Attention and
feed-forward tensors form the frozen set during fine-tuning; embeddings,
norms, and the head stay trainable.

Parameters are immutable during inference, so concurrent forward passes over
shared parameters are safe; training mutates them and must be exclusive.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from collections import namedtuple
from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import Iterable

import numpy as np

from ._checks import check_int, quote
from .sequence import num_patches
from .signal_io import ChannelStats

__all__ = [
    "BackboneConfig",
    "ModelParameters",
    "ParameterPartition",
    "Checkpoint",
    "CheckpointError",
    "param_shapes",
    "init_model",
    "gelu",
    "gelu_grad",
    "forward_batch",
    "backward_from_scores",
    "partition_parameters",
    "save_checkpoint",
    "load_checkpoint",
]

LN_EPS = 1e-5
INIT_STD = 0.02
CHECKPOINT_MAGIC = b"LORM"
CHECKPOINT_VERSION = 1


@dataclass
class BackboneConfig:
    """Architecture hyperparameters; max_seq_len = N*C is fixed at build time."""

    hidden_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 256
    max_seq_len: int = 60
    attention_mode: str = "causal"
    num_tokens: int = 10
    num_channels: int = 3
    patch_len: int = 16

    def __post_init__(self) -> None:
        for name in ("hidden_dim", "num_layers", "num_heads", "ffn_dim", "max_seq_len",
                     "num_tokens", "num_channels", "patch_len"):
            check_int(name, getattr(self, name))
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"num_heads must divide hidden_dim, got {self.num_heads} and {self.hidden_dim}"
            )
        if self.attention_mode not in ("causal", "bidirectional"):
            raise ValueError("attention_mode must be 'causal' or 'bidirectional', "
                             f"got {quote(self.attention_mode)}")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads

    @classmethod
    def from_dict(cls, doc: dict) -> "BackboneConfig":
        unknown = sorted(set(doc) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(**doc)


def param_shapes(cfg: BackboneConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list: embed, pos, attention, ffn, norms, head."""
    d, f, layers = cfg.hidden_dim, cfg.ffn_dim, range(cfg.num_layers)
    shapes = [("embed.w_e", (cfg.patch_len, d)), ("pos.p_pos", (cfg.max_seq_len, d))]
    for l in layers:  # w_q, b_q, w_k, b_k, w_v, b_v, w_o, b_o
        for x in "qkvo":
            shapes += [(f"layers.{l}.attn.w_{x}", (d, d)), (f"layers.{l}.attn.b_{x}", (d,))]
    for l in layers:
        shapes += [(f"layers.{l}.ffn.w1", (d, f)), (f"layers.{l}.ffn.b1", (f,)),
                   (f"layers.{l}.ffn.w2", (f, d)), (f"layers.{l}.ffn.b2", (d,))]
    norms = [f"layers.{l}.ln{i}" for l in layers for i in (1, 2)] + ["final_ln", "head_ln"]
    shapes += [(f"{n}.{p}", (d,)) for n in norms for p in ("gain", "bias")]
    return shapes + [("head.w_c", (d, cfg.num_tokens * cfg.num_channels))]


class ModelParameters:
    """Every weight in one C-contiguous vector ``flat``, laid out by the
    (name, shape) list ``shapes`` of :func:`param_shapes` exactly as a
    checkpoint's parameter block. ``params[name]`` is a reshaped view of
    ``flat``, written in place; the read-only ``tensors`` maps every name to
    its view. Gradients share the class and the layout.
    """

    def __init__(self, shapes: list[tuple[str, tuple[int, ...]]], flat: np.ndarray) -> None:
        self.shapes, self.flat = shapes, flat
        tensors, start = {}, 0
        for name, shape in shapes:
            tensors[name] = flat[start : start + math.prod(shape)].reshape(shape)
            start += math.prod(shape)
        if start != flat.size:
            raise ValueError(f"the layout holds {start} values, the vector {flat.size}")
        self.tensors = MappingProxyType(tensors)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def copy(self) -> "ModelParameters":
        return ModelParameters(self.shapes, self.flat.copy())


# disjoint trainable/frozen name sets covering every parameter
ParameterPartition = namedtuple("ParameterPartition", "trainable frozen")


def _truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """normal(0, std) with resampling outside +-2 std."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2.0 * std
    while np.any(bad):
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2.0 * std
    return x


def init_model(cfg: BackboneConfig, seed: int, dtype=np.float32) -> ModelParameters:
    """Deterministic initialisation: matrices ~ truncated normal(0, 0.02),
    all biases 0, layer-norm gains 1."""
    rng = np.random.default_rng(seed)
    shapes = param_shapes(cfg)
    params = ModelParameters(shapes, np.zeros(sum(math.prod(s) for _, s in shapes), dtype))
    for name, shape in shapes:
        if name.endswith(".gain"):
            params[name][...] = 1.0
        elif len(shape) > 1:  # biases stay 0
            params[name][...] = _truncated_normal(rng, shape, INIT_STD)
    return params


def partition_parameters(params: ModelParameters) -> ParameterPartition:
    """Frozen: attention and feed-forward tensors. Trainable: everything else
    (patch embedding, positions, every layer norm, and the head)."""
    frozen = frozenset(n for n in params.names() if ".attn." in n or ".ffn." in n)
    trainable = frozenset(params.names()) - frozen
    return ParameterPartition(trainable=trainable, frozen=frozen)


# erf(x) = x + x * r(x^2) for |x| < 1, with r(z) = erf(sqrt(z)) / sqrt(z) - 1
# fitted on z in [0, 1] by mpmath.chebyfit at 50 digits (12 coefficients,
# highest degree first). The fit is within 7.4e-18 of r, far below float64
# rounding.
_ERF_SMALL = tuple(map(np.float64, (
    -7.795898827002142e-10, 1.3720064546777686e-08, -1.6208483801871705e-07,
    1.6447424703317362e-06, -1.492473690741966e-05, 0.00012055294904839707,
    -0.0008548325975389692, 0.0052239776071164225, -0.02686617064323777,
    0.11283791670945006, -0.37612638903183543, 0.12837916709551256,
)))

# elements per block: the three float64 scratch buffers (768 KB) stay in a
# 2 MB L2 cache, and a block is large enough to amortise numpy's per-call cost
_ERF_BLOCK = 32768


def _buffer(work: dict | None, key: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A C-contiguous ``shape`` array lent by the workspace ``work``, or a
    fresh one without a workspace, for ``out=`` arguments.

    The workspace holds one flat array per key, reallocated only when a call
    needs more elements or another dtype; a call gets a view of its leading
    elements. One key can therefore lend arrays of several shapes in turn,
    as the backward pass's scratch buffers do, and a smaller batch gets a
    leading piece of a buffer.
    """
    if work is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    buf = work.get(key)
    if buf is None or buf.dtype != dtype or buf.size < size:
        buf = work[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _erf(x: np.ndarray, out: np.ndarray | None = None, work: dict | None = None) -> np.ndarray:
    """erf computed in float64 and returned in x's dtype.

    Float64 results are within one ulp of the exact erf; a float32 result is
    that value rounded to float32, which is the correctly rounded erf for
    every float32 input. The array is worked through in blocks so that every
    Horner pass runs in cache; an array of one block (every monitoring
    input) takes no per-block slices. Elements with |x| >= 1 (or NaN) take
    the C library's erf (``math.erf``). ``out`` (C-contiguous, x's shape and
    dtype) may be x itself; a workspace ``work`` lends the float64 scratch.
    """
    flat = x.reshape(-1)
    if out is None:
        out = np.empty(x.shape, x.dtype)
    dest = out.reshape(-1)
    n = flat.size
    size = min(n, _ERF_BLOCK)
    # three arrays: at B=1 each stays under glibc's 128 KB mmap threshold,
    # where one 3n block would not
    a, z, r = (_buffer(work, key, (size,), np.float64) for key in ("erf_a", "erf_z", "erf_r"))
    if n <= _ERF_BLOCK:
        _erf_block(flat, dest, a, z, r)
    else:
        for start in range(0, n, _ERF_BLOCK):
            stop = min(start + _ERF_BLOCK, n)
            m = stop - start
            _erf_block(flat[start:stop], dest[start:stop], a[:m], z[:m], r[:m])
    return out


def _erf_block(
    src: np.ndarray, dest: np.ndarray, a: np.ndarray, z: np.ndarray, r: np.ndarray
) -> None:
    """dest = erf(src) for one block, through the float64 scratch arrays a,
    z and r of src's length."""
    a[...] = src
    np.multiply(a, a, out=z)
    if np.maximum.reduce(z, axis=None) < 1.0:  # False for NaN
        _erf_small(a, z, r)
    else:
        # |x| >= 1 overflows or meets inf - inf in the polynomial; the C
        # library's erf overwrites those elements (about 1% of a trained
        # model's FFN inputs), one at a time
        with np.errstate(over="ignore", invalid="ignore"):
            _erf_small(a, z, r)
        idx = np.flatnonzero(~(z < 1.0))
        r[idx] = list(map(math.erf, a[idx].tolist()))
    dest[...] = r


def _erf_small(a: np.ndarray, z: np.ndarray, r: np.ndarray) -> None:
    """r = a + a * r(z), with z = a * a: erf(a) for |a| < 1, by Horner."""
    np.multiply(z, _ERF_SMALL[0], out=r)
    for c in _ERF_SMALL[1:-1]:
        np.add(r, c, out=r)
        np.multiply(r, z, out=r)
    np.add(r, _ERF_SMALL[-1], out=r)
    np.multiply(r, a, out=r)
    np.add(r, a, out=r)


def gelu(
    x: np.ndarray, work: dict | None = None, cdf_key: str = "gelu.cdf", act_key: str = "gelu.act"
) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian-CDF GELU (not the tanh approximation).

    Returns (x * Phi(x), Phi(x)); pass Phi on to :func:`gelu_grad` so that
    the backward pass does not evaluate erf again. With a workspace ``work``
    Phi is its buffer ``cdf_key`` and the output its buffer ``act_key``.
    """
    cdf = np.divide(x, np.sqrt(x.dtype.type(2.0)), out=_buffer(work, cdf_key, x.shape, x.dtype))
    _erf(cdf, out=cdf, work=work)
    cdf += 1.0
    cdf *= 0.5
    return np.multiply(x, cdf, out=_buffer(work, act_key, x.shape, x.dtype)), cdf


def gelu_grad(x: np.ndarray, cdf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """d gelu / dx = Phi(x) + x * phi(x), with cdf = Phi(x) as from gelu."""
    dt = x.dtype.type
    grad = np.multiply(-0.5, x, out=out)
    grad *= x
    np.exp(grad, out=grad)
    grad /= np.sqrt(dt(2.0) * dt(np.pi))  # phi(x)
    grad *= x
    grad += cdf
    return grad


def _mean(x: np.ndarray, axis: int) -> np.ndarray:
    """``x.mean(axis, keepdims=True)``, the same bits without numpy's
    Python-level wrapper: the same pairwise sum, divided by the count.

    np.mean divides a float32 sum by its intp count in float64 and rounds
    the quotient to float32. Dividing in float32 gives the same bits: a
    quotient rounded to float64 and then to float32 is the correctly
    rounded float32 quotient (float64 has more than 2 * 24 + 2 bits), and
    every count below 2**24 is exact in float32.
    """
    m = np.add.reduce(x, axis=axis, keepdims=True)
    m /= x.dtype.type(x.shape[axis])
    return m


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """LayerNorm over the last axis; returns (y, xhat, inv_std) for backward."""
    xhat = x - _mean(x, -1)
    # the population variance exactly as np.var computes it, without its
    # second pass for the mean; y's buffer holds the squares first
    y = np.multiply(xhat, xhat)
    inv_std = _mean(y, -1)
    inv_std += x.dtype.type(LN_EPS)
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    xhat *= inv_std
    np.multiply(gain, xhat, out=y)
    y += bias
    return y, xhat, inv_std


def _layer_norm_backward(dy, xhat, inv_std, gain, dgain=None, dbias=None):
    """d loss / dx of :func:`_layer_norm` as a fresh array; the gain and bias
    gradients are written into ``dgain`` and ``dbias`` where they are given.

    dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), with
    dxhat = dy * gain, worked out in place in dx and one scratch array: the
    same float operations in the same order.
    """
    axes = tuple(range(dy.ndim - 1))
    scratch = np.empty_like(xhat)
    if dgain is not None:
        np.add.reduce(np.multiply(dy, xhat, out=scratch), axis=axes, out=dgain)
    if dbias is not None:
        np.add.reduce(dy, axis=axes, out=dbias)
    dx = np.multiply(dy, gain)  # dxhat
    mean_dxhat = _mean(dx, -1)
    mean_dxhat_xhat = _mean(np.multiply(dx, xhat, out=scratch), -1)
    dx -= mean_dxhat
    dx -= np.multiply(xhat, mean_dxhat_xhat, out=scratch)
    dx *= inv_std
    return dx


def _softmax_last(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # A row maximum is exact in any order, so it is taken over a transposed
    # copy, one elementwise maximum per column across every row, in place of
    # one short reduction per row. Only the sign of a zero maximum can differ,
    # and x - (+-0) exponentiates to the same bits.
    rows = x.reshape(-1, x.shape[-1])
    peak = np.maximum.reduce(np.ascontiguousarray(rows.T), axis=0)
    e = np.subtract(x, peak.reshape(*x.shape[:-1], 1), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


@functools.lru_cache(maxsize=8)
def _causal_bias(t: int, dtype: type) -> np.ndarray:
    """Read-only (t, t) additive mask: -inf at the future positions, 0 elsewhere.

    Adding it makes every finite future score -inf and leaves the other
    scores' values (a -0.0 becomes +0.0, which softmax maps to the same
    bits). Unlike a -inf fill it lets a non-finite future score spoil its
    row, which finite inputs never produce.
    """
    bias = np.triu(np.full((t, t), dtype(-np.inf)), k=1)
    bias.flags.writeable = False
    return bias


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """The (B, H, t, d / H) head view of a (B, t, d) array; writing to it
    writes the merged array."""
    b, t, d = x.shape
    return x.reshape(b, t, num_heads, d // num_heads).transpose(0, 2, 1, 3)


# The workspace buffer that the backward pass's temporaries without a cache
# array to take share in turn: GELU's output and derivative, the recomputed
# layer-norm outputs and the score gradient's product with the probabilities.
# The forward pass lends it to GELU's output, which the w2 matmul consumes.
_SCRATCH = "scratch.0"


def forward_batch(
    p_batch: np.ndarray,
    params: ModelParameters,
    cfg: BackboneConfig,
    want_cache: bool = False,
    work: dict | None = None,
):
    """Run the full network on a (B, NC, h) batch of patch sequences.

    Returns (distributions (B, C, K) float64, cache); the cache is None
    unless requested. It holds what :func:`backward_from_scores` reads and
    no more, besides the small witnesses ``e_tilde``, ``z``, ``g``, ``u``,
    ``v`` and ``dists``. Per layer that is the two layer norms' normalised
    inputs and inverse deviations, the head views q, k and v, the
    attention probabilities, the merged heads, and the FFN pre-activation
    ``h_pre`` with its Gaussian CDF ``h_cdf``. The residual stream, the
    layer norms' outputs and GELU's output are not kept; the backward pass
    recomputes them as ``gain * xhat + bias`` and ``h_pre * h_cdf``, the
    operations :func:`_layer_norm` and :func:`gelu` do.

    One window (B = 1) costs mostly numpy's per-call overhead, so the pass
    makes few calls and works in place where it can: every bias and
    residual is added into the fresh output of the matmul before it, the
    causal mask is a cached additive 0/-inf bias, ``attn @ v`` is written
    through the head view of the merged array, and means and sums are
    direct ``np.add.reduce`` calls. The backward pass overwrites the
    cache's arrays, so a cache serves one backward pass. Every step does
    the float operations of the textbook out-of-place formula, so the
    results keep its bits.

    ``work`` is an optional workspace, a plain dict of buffers (see
    :func:`_buffer`). It lends each layer's attention probabilities, FFN
    pre-activation and GELU CDF, and one GELU output buffer that every
    layer shares (the backward pass's scratch buffer, free while the
    forward pass runs), so that repeated calls allocate none of them again.
    Results are the same bits with or without it. A cache built on a
    workspace stays valid only until that workspace is next used, and
    concurrent calls must not share one.
    """
    w = params.tensors
    dtype = params.flat.dtype.type
    x_in = np.ascontiguousarray(p_batch, dtype=dtype)
    if x_in.ndim != 3 or x_in.shape[1] != cfg.max_seq_len or x_in.shape[2] != cfg.patch_len:
        raise ValueError("window shape differs from training configuration")
    b, t, _ = x_in.shape
    nh = cfg.num_heads
    scale = dtype(1.0 / np.sqrt(cfg.head_dim))
    causal_bias = _causal_bias(t, dtype) if cfg.attention_mode == "causal" else None

    x = x_in @ w["embed.w_e"]
    x += w["pos.p_pos"]
    e_tilde = x

    layers_cache = []
    for l in range(cfg.num_layers):
        pre = f"layers.{l}"
        a_in, xhat1, inv1 = _layer_norm(x, w[f"{pre}.ln1.gain"], w[f"{pre}.ln1.bias"])
        q = a_in @ w[f"{pre}.attn.w_q"]
        q += w[f"{pre}.attn.b_q"]
        k = a_in @ w[f"{pre}.attn.w_k"]
        k += w[f"{pre}.attn.b_k"]
        v = a_in @ w[f"{pre}.attn.w_v"]
        v += w[f"{pre}.attn.b_v"]
        q, k, v = _split_heads(q, nh), _split_heads(k, nh), _split_heads(v, nh)
        scores = np.matmul(
            q, k.transpose(0, 1, 3, 2), out=_buffer(work, pre + ".attn", (b, nh, t, t), dtype)
        )
        scores *= scale
        if causal_bias is not None:
            scores += causal_bias
        attn = _softmax_last(scores, out=scores)
        heads = np.empty((b, t, cfg.hidden_dim), dtype)
        np.matmul(attn, v, out=_split_heads(heads, nh))
        # x_mid = x + (heads @ w_o + b_o), the same sums in place
        x_mid = heads @ w[f"{pre}.attn.w_o"]
        x_mid += w[f"{pre}.attn.b_o"]
        x_mid += x

        f_in, xhat2, inv2 = _layer_norm(x_mid, w[f"{pre}.ln2.gain"], w[f"{pre}.ln2.bias"])
        h_pre = np.matmul(
            f_in, w[f"{pre}.ffn.w1"],
            out=_buffer(work, pre + ".h_pre", (b, t, cfg.ffn_dim), dtype),
        )
        h_pre += w[f"{pre}.ffn.b1"]
        h_act, h_cdf = gelu(h_pre, work, pre + ".gelu.cdf", _SCRATCH)
        x_next = h_act @ w[f"{pre}.ffn.w2"]
        x_next += w[f"{pre}.ffn.b2"]
        x_next += x_mid

        if want_cache:
            layers_cache.append(
                dict(
                    xhat1=xhat1, inv1=inv1, q=q, k=k, v=v, attn=attn, heads=heads,
                    xhat2=xhat2, inv2=inv2, h_pre=h_pre, h_cdf=h_cdf,
                )
            )
        x = x_next

    z, xhat_f, inv_f = _layer_norm(x, w["final_ln.gain"], w["final_ln.bias"])
    g = _mean(z, 1)[:, 0]
    g_act, g_cdf = gelu(g)
    u, xhat_h, inv_h = _layer_norm(g_act, w["head_ln.gain"], w["head_ln.bias"])
    v_scores = u @ w["head.w_c"]

    # token probabilities in float64 so each block sums to 1 within 1e-9
    blocks = v_scores.astype(np.float64).reshape(b, cfg.num_channels, cfg.num_tokens)
    dists = _softmax_last(blocks, out=blocks)

    cache = None
    if want_cache:
        cache = dict(
            cfg=cfg, params=params, work=work, p=x_in, e_tilde=e_tilde, layers=layers_cache,
            xhat_f=xhat_f, inv_f=inv_f, z=z, g=g, g_cdf=g_cdf, xhat_h=xhat_h, inv_h=inv_h,
            u=u, v=v_scores, dists=dists,
        )
    return dists, cache


def backward_from_scores(
    cache: dict, d_scores: np.ndarray, trainable: Iterable[str] | None = None
) -> ModelParameters:
    """Backpropagate d loss / d v (shape (B, K*C) or (B, C, K)) to the parameters.

    Returns one gradient vector in the parameters' layout, holding the
    gradients of the names in ``trainable``, or of every parameter when it
    is None. The other entries are 0: their weight-gradient products are
    skipped, while d loss / dx still flows through every layer down to the
    embedding. GELU's output is recomputed as ``h_pre * h_cdf`` only where
    the w2 gradient is wanted, and a layer norm's output only where the
    gradient of a weight that reads it is.

    The vector and the scratch buffer come from the workspace the forward
    pass used, if any, and the vector stays valid only until that workspace
    next computes gradients. The pass consumes the cache, so a second call
    on it raises ValueError: each temporary takes a cache array of its layer
    read for the last time (dh_pre ``h_cdf``, the score gradient the buffer
    of ``h_pre``, d_heads and then dq the merged heads, dk and dv k and v,
    the d loss / d a_in sum q), or else the scratch buffer, which GELU's
    output and derivative, the layer-norm outputs and the score gradient's
    product with the probabilities take in turn.
    """
    if cache.get("consumed"):
        raise ValueError("this cache has served its backward pass; run forward_batch again")
    cache["consumed"] = True
    cfg: BackboneConfig = cache["cfg"]
    params: ModelParameters = cache["params"]
    work = cache["work"]
    dtype = params.flat.dtype.type
    b, t, d = cache["p"].shape[0], cfg.max_seq_len, cfg.hidden_dim
    nh = cfg.num_heads
    scale = dtype(1.0 / np.sqrt(cfg.head_dim))
    grads = ModelParameters(params.shapes, _buffer(work, "grads", params.flat.shape, dtype))
    wanted = grads.tensors
    if trainable is not None:
        grads.flat.fill(0)
        wanted = {n: grads[n] for n in trainable}

    def dense(w_name: str, b_name: str | None, x: np.ndarray | None, dy: np.ndarray) -> None:
        """Gradients of w and b in y = x @ w + b, over all leading axes, where
        wanted; x is read only for w's."""
        dy_rows = dy.reshape(-1, dy.shape[-1])
        if w_name in wanted:
            np.matmul(x.reshape(-1, x.shape[-1]).T, dy_rows, out=wanted[w_name])
        if b_name in wanted:
            np.add.reduce(dy_rows, axis=0, out=wanted[b_name])

    def merged_rows(x: np.ndarray) -> np.ndarray:
        """The (B * t, d) rows of the array under the head view x, as a view."""
        return x.transpose(0, 2, 1, 3).reshape(b * t, d)

    def norm_out(pre: str, xhat: np.ndarray, *weights: str) -> np.ndarray | None:
        """Norm ``pre``'s output gain * xhat + bias as :func:`_layer_norm` makes
        it, in the scratch buffer, if a gradient in ``weights`` is wanted."""
        if not any(n in wanted for n in weights):
            return None
        y = np.multiply(params[pre + ".gain"], xhat, out=_buffer(work, _SCRATCH, xhat.shape, dtype))
        y += params[pre + ".bias"]
        return y

    def norm(pre: str, dy: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, skip=None):
        """d loss / dx of the layer norm ``pre``, plus ``skip``, the gradient
        that reaches x past the block, where given; writes its wanted gradients."""
        dgain, dbias = wanted.get(pre + ".gain"), wanted.get(pre + ".bias")
        dx = _layer_norm_backward(dy, xhat, inv_std, params[pre + ".gain"], dgain, dbias)
        if skip is not None:
            dx += skip
        return dx

    dv_scores = np.ascontiguousarray(d_scores, dtype=dtype).reshape(b, -1)

    dense("head.w_c", None, cache["u"], dv_scores)
    du = dv_scores @ params["head.w_c"].T
    dg_act = norm("head_ln", du, cache["xhat_h"], cache["inv_h"])
    dg = dg_act * gelu_grad(cache["g"], cache["g_cdf"])
    dz = np.divide(dg[:, None, :], dtype(t), out=np.empty((b, t, d), dtype))  # dg / t per row
    dx = norm("final_ln", dz, cache["xhat_f"], cache["inv_f"])
    del dz  # freed before the layers' temporaries

    ffn_shape = (b, t, cfg.ffn_dim)
    for l in range(cfg.num_layers - 1, -1, -1):
        pre = f"layers.{l}"
        lc = cache["layers"][l]

        # feed-forward branch
        h_pre, h_cdf = lc["h_pre"], lc["h_cdf"]
        h_act = None
        if f"{pre}.ffn.w2" in wanted:
            h_act = np.multiply(h_pre, h_cdf, out=_buffer(work, _SCRATCH, ffn_shape, dtype))
        dense(f"{pre}.ffn.w2", f"{pre}.ffn.b2", h_act, dx)
        h_grad = gelu_grad(h_pre, h_cdf, out=_buffer(work, _SCRATCH, ffn_shape, dtype))
        dh_pre = np.matmul(dx, params[f"{pre}.ffn.w2"].T, out=h_cdf)
        dh_pre *= h_grad
        f_in = norm_out(pre + ".ln2", lc["xhat2"], f"{pre}.ffn.w1")
        dense(f"{pre}.ffn.w1", f"{pre}.ffn.b1", f_in, dh_pre)
        # from here on dx is d loss / d x_mid
        dx = norm(pre + ".ln2", dh_pre @ params[f"{pre}.ffn.w1"].T, lc["xhat2"], lc["inv2"], dx)

        # attention branch
        q, k, v, a, heads = lc["q"], lc["k"], lc["v"], lc["attn"], lc["heads"]
        dense(f"{pre}.attn.w_o", f"{pre}.attn.b_o", heads, dx)
        d_heads = _split_heads(np.matmul(dx, params[f"{pre}.attn.w_o"].T, out=heads), nh)
        d_s = np.matmul(
            d_heads, v.transpose(0, 1, 3, 2), out=_buffer(work, pre + ".h_pre", a.shape, dtype)
        )
        np.matmul(a.transpose(0, 1, 3, 2), d_heads, out=v)  # dv
        d_s_a = np.multiply(d_s, a, out=_buffer(work, _SCRATCH, a.shape, dtype))
        d_s -= np.add.reduce(d_s_a, axis=-1, keepdims=True)
        d_s *= a
        np.matmul(d_s, k, out=d_heads)  # dq, in the buffer of heads
        np.matmul(d_s.transpose(0, 1, 3, 2), q, out=k)  # dk

        rows = {n: merged_rows(x) for n, x in zip("qkv", (d_heads, k, v))}
        rows["q"] *= scale
        rows["k"] *= scale
        a_in = norm_out(pre + ".ln1", lc["xhat1"], *(f"{pre}.attn.w_{n}" for n in "qkv"))
        for n, d_rows in rows.items():
            dense(f"{pre}.attn.w_{n}", f"{pre}.attn.b_{n}", a_in, d_rows)
        # da_in = dq @ w_q.T + dk @ w_k.T + dv @ w_v.T, summed in order in
        # q's buffer; heads, which holds dq, takes the later products
        da_in = np.matmul(rows["q"], params[f"{pre}.attn.w_q"].T, out=merged_rows(q))
        for n in "kv":
            da_in += np.matmul(rows[n], params[f"{pre}.attn.w_{n}"].T, out=rows["q"])
        dx = norm(pre + ".ln1", da_in.reshape(b, t, d), lc["xhat1"], lc["inv1"], dx)

    if "pos.p_pos" in wanted:
        np.add.reduce(dx, axis=0, out=wanted["pos.p_pos"])
    dense("embed.w_e", None, cache["p"], dx)
    return grads


class CheckpointError(ValueError):
    """Raised when a checkpoint file cannot be read or fails validation."""


@dataclass
class Checkpoint:
    """Everything needed to redeploy a trained model on a stream. ``check``
    holds every rule of the record; building and saving one run it."""

    params: ModelParameters
    config: BackboneConfig
    stats: ChannelStats
    window_len: int
    context_len: int
    channel_names: list[str]
    codebook_hash: str

    def check(self) -> None:
        cfg, s, w, names = self.config, self.context_len, self.window_len, self.channel_names
        if not (type(w) is type(s) is int and 0 < s < w):
            problem = f"window geometry {s!r}/{w!r} is not 0 < S < W"
        elif not (isinstance(names, list) and all(type(n) is str for n in names)
                  and isinstance(self.codebook_hash, str)):
            problem = "channel_names must be a list of strings, codebook_hash a string"
        elif not len(names) == cfg.num_channels == self.stats.num_channels:
            problem = (f"{len(names)} channel names, stats for "
                       f"{self.stats.num_channels} channels, model for {cfg.num_channels}")
        elif num_patches(s, cfg.patch_len) * cfg.num_channels != cfg.max_seq_len:
            problem = f"context_len {s} mismatches max_seq_len {cfg.max_seq_len}"
        elif self.params.shapes != param_shapes(cfg):
            raise CheckpointError("parameters do not match the configuration's canonical layout")
        elif not np.isfinite(self.params.flat).all():
            raise CheckpointError("parameter block holds non-finite values")
        else:
            return
        raise CheckpointError(f"invalid metadata ({problem})")

    __post_init__ = check


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Check ``ckpt`` again, then write the binary checkpoint: LORM magic, u32
    version, length-prefixed JSON metadata, then the parameter vector as
    little-endian float32."""
    ckpt.check()
    meta = {
        "config": asdict(ckpt.config),
        "windowing": {"window_len": ckpt.window_len, "context_len": ckpt.context_len},
        "stats": {
            "mean": [float(x) for x in ckpt.stats.mean],
            "std": [float(x) for x in ckpt.stats.std],
            "epsilon": float(ckpt.stats.epsilon),
        },
        "channel_names": ckpt.channel_names,
        "codebook_hash": ckpt.codebook_hash,
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(ckpt.params.flat.astype("<f4", copy=False).tobytes())


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; load(save(x)) is byte-equivalent to x for float32
    parameters. Any malformed file raises CheckpointError naming ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    if len(data) < 12:
        raise CheckpointError(f"{path}: truncated header ({len(data)} of 12 bytes)")
    version, meta_len = struct.unpack_from("<II", data, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        meta = json.loads(data[12 : 12 + meta_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise CheckpointError(f"{path}: corrupt metadata block ({exc})") from None
    try:
        cfg = BackboneConfig.from_dict(meta["config"])
        window_len, context_len = meta["windowing"]["window_len"], meta["windowing"]["context_len"]
        stats = ChannelStats(
            mean=np.asarray(meta["stats"]["mean"]),
            std=np.asarray(meta["stats"]["std"]),
            epsilon=meta["stats"]["epsilon"],
        )
        names, codebook_hash = meta["channel_names"], meta["codebook_hash"]
    except KeyError as exc:
        raise CheckpointError(f"{path}: metadata lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: invalid metadata ({exc})") from None
    raw = memoryview(data)[12 + meta_len :]
    # each layer holds at least four d x d float32 matrices: a block too small
    # for the claimed depth is rejected before param_shapes loops over it
    if len(raw) < 16 * cfg.num_layers * cfg.hidden_dim**2:
        raise CheckpointError(
            f"{path}: parameter block holds {len(raw)} bytes, too few for {cfg.num_layers} layers"
        )
    shapes = param_shapes(cfg)
    size = sum(math.prod(shape) for _, shape in shapes)
    if len(raw) != 4 * size:
        raise CheckpointError(
            f"{path}: parameter block holds {len(raw)} bytes, expected {4 * size}"
        )
    params = ModelParameters(shapes, np.frombuffer(raw, dtype="<f4").astype(np.float32))
    try:
        return Checkpoint(params, cfg, stats, window_len, context_len, names, codebook_hash)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
