"""Backbone correctness: parameter registry, initialisation, forward pass
against an independent double-precision reference, masking, and checkpoints."""

import hashlib
import json
import math
import struct
import time
from dataclasses import replace

import numpy as np
import pytest

from lorm.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    BackboneConfig,
    Checkpoint,
    CheckpointError,
    backward_from_scores,
    forward_batch,
    gelu,
    gelu_grad,
    init_model,
    load_checkpoint,
    param_shapes,
    partition_parameters,
    save_checkpoint,
    _ERF_BLOCK,
    _ERF_SMALL,
    _causal_bias,
    _erf,
    _layer_norm,
    _mean,
    _softmax_last,
    _split_heads,
)
from lorm.signal_io import ChannelStats

TINY = BackboneConfig(
    hidden_dim=8,
    num_layers=1,
    num_heads=2,
    ffn_dim=16,
    max_seq_len=6,
    num_tokens=4,
    num_channels=2,
    patch_len=5,
)


def tiny_params(seed=1, dtype=np.float64):
    return init_model(TINY, seed=seed, dtype=dtype)


def one_window(rows, params, cfg):
    """forward_batch on one window: (its (C, K) distributions, its cache)."""
    dists, cache = forward_batch(rows[None, :, :], params, cfg, want_cache=True)
    return dists[0], cache


# --- independent reference implementation, plain loops and per-head slices ---

def ref_layer_norm_rows(x, gain, bias, eps=1e-5):
    out = np.empty_like(x)
    for t in range(x.shape[0]):
        row = x[t]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        out[t] = gain * (row - mu) / np.sqrt(var + eps) + bias
    return out


ref_erf = np.vectorize(math.erf, otypes=[np.float64])


def ref_gelu(x):
    return 0.5 * x * (1.0 + ref_erf(x / np.sqrt(2.0)))


def ref_forward(rows, params, cfg):
    t_len, h = rows.shape
    d, nh = cfg.hidden_dim, cfg.num_heads
    dh = d // nh
    e = np.zeros((t_len, d))
    we = params["embed.w_e"]
    for t in range(t_len):
        for j in range(d):
            acc = 0.0
            for i in range(h):
                acc += rows[t, i] * we[i, j]
            e[t, j] = acc
    x = e + params["pos.p_pos"]

    for l in range(cfg.num_layers):
        pre = f"layers.{l}"
        a_in = ref_layer_norm_rows(x, params[f"{pre}.ln1.gain"], params[f"{pre}.ln1.bias"])
        q = a_in @ params[f"{pre}.attn.w_q"] + params[f"{pre}.attn.b_q"]
        k = a_in @ params[f"{pre}.attn.w_k"] + params[f"{pre}.attn.b_k"]
        v = a_in @ params[f"{pre}.attn.w_v"] + params[f"{pre}.attn.b_v"]
        heads = np.zeros((t_len, d))
        for head in range(nh):
            sl = slice(head * dh, (head + 1) * dh)
            for t in range(t_len):
                limit = t + 1 if cfg.attention_mode == "causal" else t_len
                scores = np.array(
                    [q[t, sl] @ k[j, sl] / np.sqrt(dh) for j in range(limit)]
                )
                weights = np.exp(scores - scores.max())
                weights /= weights.sum()
                heads[t, sl] = sum(weights[j] * v[j, sl] for j in range(limit))
        x = x + heads @ params[f"{pre}.attn.w_o"] + params[f"{pre}.attn.b_o"]
        f_in = ref_layer_norm_rows(x, params[f"{pre}.ln2.gain"], params[f"{pre}.ln2.bias"])
        x = x + ref_gelu(f_in @ params[f"{pre}.ffn.w1"] + params[f"{pre}.ffn.b1"]) @ params[
            f"{pre}.ffn.w2"
        ] + params[f"{pre}.ffn.b2"]

    z = ref_layer_norm_rows(x, params["final_ln.gain"], params["final_ln.bias"])
    g = z.mean(axis=0)
    u = ref_layer_norm_rows(
        ref_gelu(g)[None, :], params["head_ln.gain"], params["head_ln.bias"]
    )[0]
    scores = u @ params["head.w_c"]
    dists = np.zeros((cfg.num_channels, cfg.num_tokens))
    for c in range(cfg.num_channels):
        block = scores[c * cfg.num_tokens : (c + 1) * cfg.num_tokens]
        exp = np.exp(block - block.max())
        dists[c] = exp / exp.sum()
    return z, g, u, scores, dists


class TestParameterRegistry:
    def test_shapes_and_total_count(self):
        # independent count: enumerate formulas per tensor family
        cfg = TINY
        d, f, t, h = cfg.hidden_dim, cfg.ffn_dim, cfg.max_seq_len, cfg.patch_len
        expected_total = (
            h * d
            + t * d
            + cfg.num_layers * (4 * d * d + 4 * d)
            + cfg.num_layers * (d * f + f + f * d + d)
            + cfg.num_layers * 4 * d
            + 4 * d
            + d * cfg.num_tokens * cfg.num_channels
        )
        params = tiny_params()
        assert params.flat.size == expected_total
        assert params.names() == [name for name, _ in param_shapes(cfg)]

    def test_serialization_order(self):
        names = [name for name, _ in param_shapes(TINY)]
        assert names[0] == "embed.w_e"
        assert names[1] == "pos.p_pos"
        assert names[-1] == "head.w_c"
        # attention tensors come before ffn tensors, norms before head
        first_ffn = names.index("layers.0.ffn.w1")
        last_attn = max(i for i, n in enumerate(names) if ".attn." in n)
        assert last_attn < first_ffn

    def test_partition_rule(self):
        params = tiny_params()
        part = partition_parameters(params)
        assert part.trainable | part.frozen == set(params.names())
        assert not part.trainable & part.frozen
        for name in part.frozen:
            assert ".attn." in name or ".ffn." in name
        for name in part.trainable:
            assert ".attn." not in name and ".ffn." not in name
        assert "embed.w_e" in part.trainable
        assert "pos.p_pos" in part.trainable
        assert "head.w_c" in part.trainable
        assert "layers.0.ln1.gain" in part.trainable
        assert "final_ln.bias" in part.trainable

    def test_frozen_scalar_count(self):
        # d=8, L=1, ffn=16: 4(d^2+d) + (d*f+f) + (f*d+d) = 288+144+136 = 568
        params = tiny_params()
        part = partition_parameters(params)
        assert sum(params[n].size for n in part.frozen) == 568


class TestInit:
    def test_gains_ones_biases_zero(self):
        params = tiny_params()
        for name in params.names():
            if name.endswith(".gain"):
                assert np.all(params[name] == 1.0)
            elif params[name].ndim == 1:
                assert np.all(params[name] == 0.0)

    def test_truncated_normal_bounds(self):
        params = init_model(
            BackboneConfig(
                hidden_dim=32, num_layers=2, num_heads=4, ffn_dim=64,
                max_seq_len=40, num_tokens=8, num_channels=3, patch_len=16,
            ),
            seed=0,
        )
        for name in params.names():
            if params[name].ndim == 2:
                assert np.abs(params[name]).max() <= 0.04 + 1e-9  # 2 sigma
                assert params[name].std() > 0.01  # actually random

    def test_seeded_determinism(self):
        a = init_model(TINY, seed=5)
        b = init_model(TINY, seed=5)
        for name in a.names():
            assert np.array_equal(a[name], b[name])
        c = init_model(TINY, seed=6)
        assert not np.array_equal(a["embed.w_e"], c["embed.w_e"])

    def test_default_dtype_float32(self):
        assert tiny_params(dtype=np.float32).flat.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tensors_are_views_of_one_vector(self, dtype, assert_one_vector):
        params = tiny_params(dtype=dtype)
        assert params.flat.dtype == dtype
        assert_one_vector(params, TINY)
        assert_one_vector(params.copy(), TINY)
        params["head.w_c"][0, 0] = 7.0
        assert params.flat[-params["head.w_c"].size] == 7.0
        with pytest.raises(TypeError):
            params.tensors["head.w_c"] = np.zeros_like(params["head.w_c"])

    def test_same_draws_as_per_tensor_arrays(self):
        """The vector holds the values of the per-tensor initialisation that
        drew each matrix from one generator in canonical order."""
        rng = np.random.default_rng(4)
        want = []
        for name, shape in param_shapes(TINY):
            if name.endswith(".gain"):
                value = np.ones(shape)
            elif len(shape) == 1:
                value = np.zeros(shape)
            else:
                value = rng.normal(0.0, 0.02, size=shape)
                bad = np.abs(value) > 0.04
                while np.any(bad):
                    value[bad] = rng.normal(0.0, 0.02, size=int(bad.sum()))
                    bad = np.abs(value) > 0.04
            want.append(np.ascontiguousarray(value, dtype=np.float32).reshape(-1))
        assert tiny_params(seed=4, dtype=np.float32).flat.tobytes() == np.concatenate(want).tobytes()


class TestForward:
    def test_embedding_matmul_triple_loop_oracle(self):
        params = tiny_params()
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(6, 5))
        _, cache = one_window(rows, params, TINY)
        we, pos = params["embed.w_e"], params["pos.p_pos"]
        for t in range(6):
            for j in range(8):
                acc = 0.0
                for i in range(5):
                    acc += rows[t, i] * we[i, j]
                assert cache["e_tilde"][0, t, j] == pytest.approx(acc + pos[t, j], abs=1e-10)

    def test_full_forward_matches_reference(self):
        params = tiny_params(seed=2)
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(6, 5))
        dists, cache = one_window(rows, params, TINY)
        z, g, u, scores, ref_dists = ref_forward(rows, params, TINY)
        assert np.allclose(cache["z"][0], z, atol=1e-8)
        assert np.allclose(cache["g"][0], g, atol=1e-8)
        assert np.allclose(cache["u"][0], u, atol=1e-8)
        assert np.allclose(cache["v"][0], scores, atol=1e-8)
        assert np.allclose(dists, ref_dists, atol=1e-8)

    def test_reference_match_bidirectional_two_layers(self):
        cfg = BackboneConfig(
            hidden_dim=8, num_layers=2, num_heads=2, ffn_dim=16,
            max_seq_len=5, attention_mode="bidirectional",
            num_tokens=3, num_channels=2, patch_len=4,
        )
        params = init_model(cfg, seed=7, dtype=np.float64)
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(5, 4))
        dists, _ = one_window(rows, params, cfg)
        *_, ref_dists = ref_forward(rows, params, cfg)
        assert np.allclose(dists, ref_dists, atol=1e-8)

    def test_distributions_sum_to_one(self):
        params = tiny_params(dtype=np.float32)
        rng = np.random.default_rng(11)
        for _ in range(20):
            rows = rng.normal(size=(6, 5)) * 10
            dists, _ = one_window(rows, params, TINY)
            assert np.all(dists >= 0.0)
            assert np.all(np.abs(dists.sum(axis=1) - 1.0) <= 1e-9)

    def test_deterministic(self):
        params = tiny_params()
        rows = np.random.default_rng(12).normal(size=(6, 5))
        a, _ = one_window(rows, params, TINY)
        b, _ = one_window(rows, params, TINY)
        assert np.array_equal(a, b)

    def test_shape_mismatch_error(self):
        params = tiny_params()
        with pytest.raises(ValueError, match="window shape differs from training configuration"):
            forward_batch(np.zeros((1, 7, 5)), params, TINY)
        with pytest.raises(ValueError, match="window shape differs from training configuration"):
            forward_batch(np.zeros((1, 6, 4)), params, TINY)


class TestErf:
    """lorm's own erf against the C library's (math.erf)."""

    @staticmethod
    def _boundaries():
        # +-0, +-inf and both float32 neighbours of each integer 0 to 6; 1 is
        # the only branch boundary (the polynomial below it, math.erf from it)
        edges = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], dtype=np.float32)
        pts = [edges, np.nextafter(edges, np.float32(-np.inf)), np.nextafter(edges, np.float32(np.inf))]
        pts = np.concatenate(pts + [np.array([np.inf], dtype=np.float32)])
        return np.concatenate([pts, -pts])

    @staticmethod
    def _ulps(got, want):
        """|got - want| in float32 ulps, by bit pattern; a sign difference
        (+0.0 against -0.0 included) counts as more than 2**30 ulps."""
        return np.abs(got.view(np.int32).astype(np.int64) - want.view(np.int32))

    def test_float32_within_one_ulp_of_rounded_erf(self):
        """Float32 erf is at most 1 ulp from float64's erf rounded to
        float32, with its sign, and exact where |x| >= 1."""
        grid = np.linspace(-6.0, 6.0, 2_000_001).astype(np.float32)
        x = np.concatenate([grid, self._boundaries()])
        expected = ref_erf(x.astype(np.float64)).astype(np.float32)
        got = _erf(x)
        assert got.dtype == np.float32
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert self._ulps(got, expected).max() <= 1
        tail = ~(np.abs(x) < 1.0)
        assert got[tail].tobytes() == expected[tail].tobytes()

    def test_float32_one_ulp_and_odd_on_every_257th_in_0_1(self):
        """Every 257th float32 bit pattern in [0, 1), the polynomial's whole
        range: within 1 ulp of the float64 path rounded to float32, and
        erf(-x) == -erf(x) bit for bit."""
        bits = np.arange(0, int(np.float32(1.0).view(np.uint32)), 257, dtype=np.uint32)
        x = bits.view(np.float32)
        got = _erf(x)
        assert self._ulps(got, _erf(x.astype(np.float64)).astype(np.float32)).max() <= 1
        assert _erf(-x).tobytes() == (-got).tobytes()

    def test_float64_bytes_pinned(self):
        """Float64 erf keeps its bytes: a fixed sha256 over a grid from
        -8 to 8, tiny magnitudes down to 1e-300, +-0, +-1e300, +-inf, NaN."""
        tiny = np.geomspace(1e-300, 1.0, 10_001)
        x = np.concatenate([np.linspace(-8.0, 8.0, 400_001), tiny, -tiny,
                            [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan]])
        assert hashlib.sha256(_erf(x).tobytes()).hexdigest() == (
            "b670cee30e123e875c98f943b6f79e5304a38f597c79f671c94fcf4be5ea2a62"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float32_overflowing_square_gives_sign(self):
        """x * x overflows float32 above about 1.8e19: +-1e20, +-3.4e38 and
        +-inf give +-1 and NaN gives NaN, without a numpy warning."""
        x = np.array([1e20, -1e20, 3.4e38, -3.4e38, np.inf, -np.inf, np.nan], dtype=np.float32)
        got = _erf(x)
        assert got.dtype == np.float32
        assert got[:-1].tolist() == [1.0, -1.0] * 3 and np.isnan(got[-1])

    def test_float32_gelu_workspace_holds_float32_only(self):
        """A float32 gelu and in-place erf borrow no float64 scratch."""
        work = {}
        x = np.random.default_rng(4).normal(0.0, 2.0, size=(2, 15_360)).astype(np.float32)
        gelu(x, work)
        inplace = x.copy()
        _erf(inplace, out=inplace, work=work)
        assert work and all(buf.dtype == np.float32 for buf in work.values())

    def test_float64_within_4e_16(self):
        x = np.concatenate([np.linspace(-8.0, 8.0, 400_001), self._boundaries().astype(np.float64)])
        got = _erf(x)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - ref_erf(x))) <= 4e-16

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float64_tail_is_math_erf(self):
        """Elements with |x| >= 1, inf and NaN get math.erf's float64 bits,
        and +-1e300, whose square overflows, print no numpy warning."""
        x = np.concatenate([np.linspace(-8.0, 8.0, 400_001), self._boundaries().astype(np.float64),
                            [np.nan, -np.nan, 1e300, -1e300, -0.999999]])
        tail = ~(np.abs(x) < 1.0)
        got = _erf(x)
        assert got[tail].tobytes() == ref_erf(x[tail]).tobytes()

    def test_float32_tail_hash_on_1_to_4(self):
        """_erf on every float32 in [1, 4], in ascending order, against a
        fixed sha256 of its bytes, and the same bytes negated on [-4, -1]."""
        lo, hi = (int(np.float32(v).view(np.uint32)) for v in (1.0, 4.0))
        digest = hashlib.sha256()
        for start in range(lo, hi + 1, 1 << 20):
            x = np.arange(start, min(start + (1 << 20), hi + 1), dtype=np.uint32).view(np.float32)
            got = _erf(x)
            digest.update(got.tobytes())
            assert _erf(-x).tobytes() == (-got).tobytes()
        assert digest.hexdigest() == (
            "91365a8dbb375034dff479611333616fa6b77d14f58e965b65e22813058d1f79"
        )

    def test_nan_and_shape(self):
        got = _erf(np.array([[np.nan, 0.5], [-7.0, 1.0]], dtype=np.float32))
        assert got.shape == (2, 2) and np.isnan(got[0, 0]) and got[1, 0] == -1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_cdf_reuse_is_bitwise(self, dtype):
        """gelu's cached Phi gives bit for bit the values of the formulas that
        evaluated erf once in gelu and again in gelu_grad."""
        x = np.random.default_rng(3).normal(0.0, 2.0, size=(7, 300)).astype(dtype)
        dt = x.dtype.type
        phi = np.exp(-0.5 * x * x) / np.sqrt(dt(2.0) * dt(np.pi))
        old_act = 0.5 * x * (1.0 + _erf(x / np.sqrt(dt(2.0))))
        old_grad = 0.5 * (1.0 + _erf(x / np.sqrt(dt(2.0)))) + x * phi
        act, cdf = gelu(x)
        grad = gelu_grad(x, cdf)
        assert act.dtype == grad.dtype == dtype
        assert act.tobytes() == old_act.tobytes()
        assert grad.tobytes() == old_grad.tobytes()


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_buffered_erf_and_gelu_are_bitwise(self, dtype):
        """In place, with a workspace, or allocating: the same bytes,
        including the |x| >= 1 tail, NaN and a second, smaller call."""
        rng = np.random.default_rng(5)
        work = {}
        for shape in ((3, 12_000), (2, 12_000)):
            x = rng.normal(0.0, 3.0, size=shape).astype(dtype)
            x.flat[::997] = np.nan
            want = _erf(x)
            inplace = x.copy()
            _erf(inplace, out=inplace, work=work)
            assert inplace.tobytes() == want.tobytes()
            want_act, want_cdf, want_grad = old_gelu(x)
            for w in (None, work):
                act, cdf = gelu(x, w, "g.cdf", "g.act")
                grad = gelu_grad(x, cdf, out=None if w is None else np.empty_like(x))
                assert act.tobytes() == want_act.tobytes()
                assert cdf.tobytes() == want_cdf.tobytes()
                assert grad.tobytes() == want_grad.tobytes()
        assert work["g.act"].shape == (3 * 12_000,) and act.base is work["g.act"]


def old_layer_norm(x, gain, bias, eps=1e-5):
    """The two-pass formula _layer_norm replaced."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = (x - mu) * inv_std
    return gain * xhat + bias, xhat, inv_std


def old_softmax_last(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestInPlaceKernels:
    """The in-place layer norm and softmax give the bytes of their old
    out-of-place formulas."""

    @pytest.mark.parametrize("shape", [(64,), (3, 60, 64), (37, 48, 16), (2, 5, 257)])
    def test_layer_norm_bitwise(self, dtype, shape):
        rng = np.random.default_rng(shape[-1])
        x = rng.normal(0.5, 3.0, size=shape).astype(dtype)
        gain = rng.normal(1.0, 0.1, size=shape[-1]).astype(dtype)
        bias = rng.normal(0.0, 0.1, size=shape[-1]).astype(dtype)
        before = x.copy()
        got = _layer_norm(x, gain, bias)
        want = old_layer_norm(x, gain, bias)
        assert np.array_equal(x, before)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("shape", [(8,), (3, 8), (2, 4, 60, 60), (5, 3, 10)])
    def test_softmax_bitwise(self, dtype, shape):
        rng = np.random.default_rng(len(shape))
        x = rng.normal(0.0, 4.0, size=shape).astype(dtype)
        if len(shape) == 4:
            np.copyto(x, dtype(-np.inf), where=np.triu(np.ones(shape[-2:], bool), k=1))
        before = x.copy()
        got = _softmax_last(x)
        want = old_softmax_last(x)
        assert np.array_equal(x, before)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


def old_gelu(x):
    """The out-of-place GELU formulas the buffered gelu / gelu_grad replaced."""
    dt = x.dtype.type
    cdf = 0.5 * (1.0 + _erf(x / np.sqrt(dt(2.0))))
    grad = cdf + x * (np.exp(-0.5 * x * x) / np.sqrt(dt(2.0) * dt(np.pi)))
    return x * cdf, cdf, grad


def old_layer_norm_backward(dy, xhat, inv_std, gain):
    """The allocating layer-norm backward formula: (dx, dgain, dbias)."""
    dgain = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    dbias = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gain
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return dx, dgain, dbias


def _merge_heads(x):
    """(B, H, t, d / H) heads as one (B, t, d) array, copied."""
    b, nh, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, nh * dh)


def old_forward_backward(p, params, cfg, d_scores):
    """The allocating forward and backward passes that the workspace and the
    frozen-gradient skip replaced, kept as the reference: (dists, z, grads)."""
    dtype = params.flat.dtype.type
    x_in = np.ascontiguousarray(p, dtype=dtype)
    b, t, _ = x_in.shape
    nh = cfg.num_heads
    scale = dtype(1.0 / np.sqrt(cfg.head_dim))
    x = x_in @ params["embed.w_e"] + params["pos.p_pos"]
    layers = []
    for l in range(cfg.num_layers):
        pre = f"layers.{l}"
        a_in, xhat1, inv1 = _layer_norm(x, params[f"{pre}.ln1.gain"], params[f"{pre}.ln1.bias"])
        q, k, v = (
            _split_heads(a_in @ params[f"{pre}.attn.w_{n}"] + params[f"{pre}.attn.b_{n}"], nh)
            for n in "qkv"
        )
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        if cfg.attention_mode == "causal":
            scores = np.where(np.triu(np.ones((t, t), bool), k=1), dtype(-np.inf), scores)
        attn = old_softmax_last(scores)
        heads = _merge_heads(attn @ v)
        x_mid = x + (heads @ params[f"{pre}.attn.w_o"] + params[f"{pre}.attn.b_o"])
        f_in, xhat2, inv2 = _layer_norm(x_mid, params[f"{pre}.ln2.gain"], params[f"{pre}.ln2.bias"])
        h_pre = f_in @ params[f"{pre}.ffn.w1"] + params[f"{pre}.ffn.b1"]
        h_act, _, h_grad = old_gelu(h_pre)
        layers.append((xhat1, inv1, a_in, q, k, v, attn, heads, xhat2, inv2, f_in, h_act, h_grad))
        x = x_mid + (h_act @ params[f"{pre}.ffn.w2"] + params[f"{pre}.ffn.b2"])
    z, xhat_f, inv_f = _layer_norm(x, params["final_ln.gain"], params["final_ln.bias"])
    g = z.mean(axis=1)
    g_act, _, g_grad = old_gelu(g)
    u, xhat_h, inv_h = _layer_norm(g_act, params["head_ln.gain"], params["head_ln.bias"])
    dists = old_softmax_last(
        (u @ params["head.w_c"]).astype(np.float64).reshape(b, cfg.num_channels, cfg.num_tokens)
    )

    grads = {}
    dv = np.ascontiguousarray(d_scores, dtype=dtype).reshape(b, -1)
    grads["head.w_c"] = u.T @ dv
    dg_act, grads["head_ln.gain"], grads["head_ln.bias"] = old_layer_norm_backward(
        dv @ params["head.w_c"].T, xhat_h, inv_h, params["head_ln.gain"]
    )
    dz = np.repeat((dg_act * g_grad)[:, None, :], t, axis=1) / dtype(t)
    dx, grads["final_ln.gain"], grads["final_ln.bias"] = old_layer_norm_backward(
        dz, xhat_f, inv_f, params["final_ln.gain"]
    )
    for l in range(cfg.num_layers - 1, -1, -1):
        pre = f"layers.{l}"
        xhat1, inv1, a_in, q, k, v, a, heads, xhat2, inv2, f_in, h_act, h_grad = layers[l]
        flat = lambda arr: arr.reshape(b * t, -1)
        grads[f"{pre}.ffn.w2"] = flat(h_act).T @ flat(dx)
        grads[f"{pre}.ffn.b2"] = flat(dx).sum(axis=0)
        dh_pre = (dx @ params[f"{pre}.ffn.w2"].T) * h_grad
        grads[f"{pre}.ffn.w1"] = flat(f_in).T @ flat(dh_pre)
        grads[f"{pre}.ffn.b1"] = flat(dh_pre).sum(axis=0)
        dx_mid_ln, grads[f"{pre}.ln2.gain"], grads[f"{pre}.ln2.bias"] = old_layer_norm_backward(
            dh_pre @ params[f"{pre}.ffn.w1"].T, xhat2, inv2, params[f"{pre}.ln2.gain"]
        )
        dx_mid = dx + dx_mid_ln
        grads[f"{pre}.attn.w_o"] = flat(heads).T @ flat(dx_mid)
        grads[f"{pre}.attn.b_o"] = flat(dx_mid).sum(axis=0)
        d_heads = _split_heads(dx_mid @ params[f"{pre}.attn.w_o"].T, nh)
        d_attn = d_heads @ v.transpose(0, 1, 3, 2)
        d_s = a * (d_attn - np.sum(d_attn * a, axis=-1, keepdims=True))
        d_rows = {
            "q": flat(_merge_heads((d_s @ k) * scale)),
            "k": flat(_merge_heads((d_s.transpose(0, 1, 3, 2) @ q) * scale)),
            "v": flat(_merge_heads(a.transpose(0, 1, 3, 2) @ d_heads)),
        }
        for n in "qkv":
            grads[f"{pre}.attn.w_{n}"] = flat(a_in).T @ d_rows[n]
            grads[f"{pre}.attn.b_{n}"] = d_rows[n].sum(axis=0)
        da_in = (
            d_rows["q"] @ params[f"{pre}.attn.w_q"].T
            + d_rows["k"] @ params[f"{pre}.attn.w_k"].T
            + d_rows["v"] @ params[f"{pre}.attn.w_v"].T
        ).reshape(b, t, -1)
        dx_ln, grads[f"{pre}.ln1.gain"], grads[f"{pre}.ln1.bias"] = old_layer_norm_backward(
            da_in, xhat1, inv1, params[f"{pre}.ln1.gain"]
        )
        dx = dx_mid + dx_ln
    grads["pos.p_pos"] = dx.sum(axis=0)
    grads["embed.w_e"] = x_in.reshape(b * t, -1).T @ dx.reshape(b * t, -1)
    return dists, z, grads


SMALL = dict(hidden_dim=16, num_layers=2, num_heads=4, ffn_dim=32, max_seq_len=12,
             num_tokens=5, num_channels=3, patch_len=4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["causal", "bidirectional"])
class TestBufferedPasses:
    """forward_batch and backward_from_scores, with and without a workspace
    and a trainable set, give the bytes of the allocating passes they replaced."""

    def _case(self, mode, dtype, b, seed=0):
        cfg = BackboneConfig(attention_mode=mode, **SMALL)
        params = init_model(cfg, seed=3, dtype=dtype)
        rng = np.random.default_rng(seed)
        p = rng.normal(size=(b, cfg.max_seq_len, cfg.patch_len))
        d = rng.normal(size=(b, cfg.num_channels, cfg.num_tokens)) / (b * cfg.num_channels)
        return cfg, params, p, d

    @pytest.mark.parametrize("b", [1, 5])
    def test_no_workspace_matches_old_passes(self, mode, dtype, b):
        cfg, params, p, d = self._case(mode, dtype, b)
        want_dists, want_z, want_grads = old_forward_backward(p, params, cfg, d)
        dists, cache = forward_batch(p, params, cfg, want_cache=True)
        assert dists.tobytes() == want_dists.tobytes()
        assert cache["z"].tobytes() == want_z.tobytes()
        assert forward_batch(p, params, cfg)[0].tobytes() == want_dists.tobytes()
        grads = backward_from_scores(cache, d)
        assert sorted(grads.names()) == sorted(want_grads)
        for name in params.names():
            assert grads[name].dtype == dtype
            assert grads[name].tobytes() == want_grads[name].tobytes(), name

    def test_trainable_set_gives_those_gradients(self, mode, dtype):
        """The wanted entries hold the full pass's bytes and every other
        entry is 0, also in a workspace vector that held full gradients."""
        cfg, params, p, d = self._case(mode, dtype, 5)
        full = backward_from_scores(forward_batch(p, params, cfg, want_cache=True)[1], d)
        trainable = sorted(partition_parameters(params).trainable)
        only = ["layers.1.ffn.b1", "layers.0.attn.w_k", "embed.w_e", "final_ln.bias"]
        work = {}
        backward_from_scores(forward_batch(p, params, cfg, want_cache=True, work=work)[1], d)
        for names in (trainable, only):
            for w in (None, work):
                cache = forward_batch(p, params, cfg, want_cache=True, work=w)[1]
                grads = backward_from_scores(cache, d, names)
                assert grads.names() == params.names()
                assert (w is None) != np.shares_memory(grads.flat, work["grads"])
                for name in params.names():
                    if name in names:
                        assert grads[name].tobytes() == full[name].tobytes(), name
                    else:
                        assert not grads[name].any(), name
                        assert full[name].any(), name

    def test_workspace_matches_and_is_reused(self, mode, dtype):
        work = {}
        for b, seed in ((5, 0), (5, 1), (2, 2), (5, 3)):
            cfg, params, p, d = self._case(mode, dtype, b, seed)
            want_dists, _, want_grads = old_forward_backward(p, params, cfg, d)
            dists, cache = forward_batch(p, params, cfg, want_cache=True, work=work)
            grads = backward_from_scores(cache, d)
            assert dists.tobytes() == want_dists.tobytes()
            assert all(grads[n].tobytes() == want_grads[n].tobytes() for n in params.names())
            assert grads.flat.base is work["grads"]
            if seed == 0:
                buffers = dict(work)
        # a smaller batch borrows leading rows; nothing was reallocated
        assert all(work[key] is buf for key, buf in buffers.items())
        assert cache["layers"][0]["attn"].base is work["layers.0.attn"]


class TestCausalMask:
    def test_cached_read_only_upper_triangle(self):
        bias = _causal_bias(6, np.float32)
        assert bias is _causal_bias(6, np.float32)
        assert not bias.flags.writeable and bias.dtype == np.float32
        future = np.triu(np.ones((6, 6), dtype=bool), k=1)
        assert np.all(bias[future] == -np.inf)
        assert np.all(bias[~future] == 0.0) and not np.signbit(bias[~future]).any()
        with pytest.raises(ValueError):
            bias[0, 0] = 1.0


class TestMasking:
    def test_causal_rows_bitwise_stable(self):
        # perturbing row j must leave Z rows < j bit-identical
        params = tiny_params(dtype=np.float32)
        rng = np.random.default_rng(13)
        rows = rng.normal(size=(6, 5))
        bumped = rows.copy()
        bumped[4] += 100.0
        za = one_window(rows, params, TINY)[1]["z"][0]
        zb = one_window(bumped, params, TINY)[1]["z"][0]
        assert np.array_equal(za[:4], zb[:4])
        assert not np.array_equal(za[4:], zb[4:])

    def test_bidirectional_sees_future(self):
        cfg = BackboneConfig(
            hidden_dim=8, num_layers=1, num_heads=2, ffn_dim=16,
            max_seq_len=6, attention_mode="bidirectional",
            num_tokens=4, num_channels=2, patch_len=5,
        )
        params = init_model(cfg, seed=1, dtype=np.float64)
        rng = np.random.default_rng(14)
        rows = rng.normal(size=(6, 5))
        bumped = rows.copy()
        bumped[5] += 100.0
        za = one_window(rows, params, cfg)[1]["z"][0]
        zb = one_window(bumped, params, cfg)[1]["z"][0]
        assert not np.allclose(za[0], zb[0])

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="attention_mode"):
            BackboneConfig(attention_mode="sideways")


REFERENCE = dict(hidden_dim=64, num_layers=2, num_heads=4, ffn_dim=256, max_seq_len=60,
                 num_tokens=8, num_channels=3, patch_len=16)


def old_erf(x):
    """_erf's arithmetic, in x's dtype with that dtype's table, as plain
    out-of-place expressions over the whole array at once: the reference for
    its blocked, in-place passes."""
    coeffs = _ERF_SMALL[x.dtype]
    z = x * x
    with np.errstate(over="ignore", invalid="ignore"):
        r = z * coeffs[0]
        for c in coeffs[1:-1]:
            r = (r + c) * z
        r = (r + coeffs[-1]) * x + x
    tail = ~(z < 1.0)
    r[tail] = ref_erf(x[tail])
    return r


@pytest.mark.parametrize("n", [3, 7, 60, 64, 257])
def test_mean_divides_as_np_mean(n):
    """_mean's division in float32 gives the bits of np.mean's float64
    division rounded to float32, for sums from subnormal to 1e36."""
    rng = np.random.default_rng(n)
    x = (rng.standard_normal((20_000, n)) * 10.0 ** rng.uniform(-44, 36, (20_000, 1)))
    x = x.astype(np.float32)
    assert (np.abs(x[np.nonzero(x)]) < np.finfo(np.float32).tiny).any()
    assert _mean(x, -1).tobytes() == x.mean(axis=-1, keepdims=True).tobytes()
    assert _mean(x, 0).tobytes() == x.mean(axis=0, keepdims=True).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestReferenceScaleBitwise:
    """The lean kernels and passes give the bytes of the textbook formulas
    at the reference scale: d=64, 60 tokens, FFN 256, one window and 32."""

    @pytest.mark.parametrize("shape", [(1, 64), (1, 60, 64), (32, 60, 64)])
    def test_layer_norm(self, dtype, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(0.0, 2.0, size=shape).astype(dtype)
        gain = rng.normal(1.0, 0.1, size=64).astype(dtype)
        bias = rng.normal(0.0, 0.1, size=64).astype(dtype)
        for a, b in zip(_layer_norm(x, gain, bias), old_layer_norm(x, gain, bias)):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("shape", [(1, 64), (1, 60, 64), (2, 4, 60, 60)])
    def test_softmax(self, dtype, shape):
        x = np.random.default_rng(len(shape)).normal(0.0, 4.0, size=shape).astype(dtype)
        assert _softmax_last(x).tobytes() == old_softmax_last(x).tobytes()

    def test_softmax_under_additive_mask_with_negative_zeros(self, dtype):
        """-0.0 scores become +0.0 under the 0/-inf bias, even where they are
        the row maximum; the probabilities keep the bytes of the -inf fill."""
        t = 60
        rng = np.random.default_rng(9)
        scores = -np.abs(rng.normal(0.0, 3.0, size=(2, 4, t, t))).astype(dtype)
        scores[:, :, ::3, :] = dtype(-0.0)  # whole rows of -0.0
        scores[:, :, 1::3, ::2] = dtype(-0.0)  # -0.0 beside negative scores
        scores[:, :, 2::3, 0] = dtype(-0.0)
        assert np.signbit(scores[scores == 0]).all()
        bias = _causal_bias(t, dtype)
        assert not bias.flags.writeable and bias is _causal_bias(t, dtype)
        added = scores + bias
        filled = np.where(np.triu(np.ones((t, t), bool), k=1), dtype(-np.inf), scores)
        assert np.array_equal(added, filled)
        assert not np.array_equal(np.signbit(added), np.signbit(filled))
        assert _softmax_last(added).tobytes() == old_softmax_last(filled).tobytes()

    @pytest.mark.parametrize("size", [64, 15_360, _ERF_BLOCK - 1, _ERF_BLOCK, _ERF_BLOCK + 1])
    def test_erf(self, dtype, size):
        x = np.random.default_rng(size).normal(0.0, 1.5, size=size).astype(dtype)
        x[::1001] = np.nan
        x[1::997] = np.inf
        want = old_erf(x).tobytes()
        assert _erf(x).tobytes() == want
        assert _erf(x, work={}).tobytes() == want
        inplace = x.copy()
        _erf(inplace, out=inplace)
        assert inplace.tobytes() == want
        small = np.clip(x, dtype(-0.99), dtype(0.99))  # every block takes the |x| < 1 path
        assert _erf(small).tobytes() == old_erf(small).tobytes()

    @pytest.mark.parametrize("mode", ["causal", "bidirectional"])
    @pytest.mark.parametrize("b", [1, 32])
    def test_forward_backward(self, dtype, mode, b):
        cfg = BackboneConfig(attention_mode=mode, **REFERENCE)
        params = init_model(cfg, seed=5, dtype=dtype)
        rng = np.random.default_rng(b)
        p = rng.normal(size=(b, cfg.max_seq_len, cfg.patch_len))
        d = rng.normal(size=(b, cfg.num_channels, cfg.num_tokens)) / (b * cfg.num_channels)
        want_dists, want_z, want_grads = old_forward_backward(p, params, cfg, d)
        for work in (None, {}):
            dists, cache = forward_batch(p, params, cfg, want_cache=True, work=work)
            assert dists.tobytes() == want_dists.tobytes()
            assert cache["z"].tobytes() == want_z.tobytes()
            grads = backward_from_scores(cache, d)
            for name in params.names():
                assert grads[name].tobytes() == want_grads[name].tobytes(), name


LIST_OF_STRINGS = "channel_names must be a list of strings, codebook_hash a string"


class TestCheckpoint:
    def _stats(self):
        return ChannelStats(mean=np.array([0.5, -1.0]), std=np.array([2.0, 3.0]))

    def _ckpt(self, params, **fields):
        return Checkpoint(**{
            "params": params,
            "config": TINY,
            "stats": self._stats(),
            "window_len": 16,  # 3 patches of 5 per channel: TINY's max_seq_len 6
            "context_len": 15,
            "channel_names": ["a", "b"],
            "codebook_hash": "cafe" * 16,
            **fields,
        })

    def _save(self, path, params):
        save_checkpoint(str(path), self._ckpt(params))

    def test_round_trip_byte_identity(self, tmp_path):
        params = tiny_params(dtype=np.float32)
        p1 = tmp_path / "m1.lorm"
        p2 = tmp_path / "m2.lorm"
        self._save(p1, params)
        ckpt = load_checkpoint(str(p1))
        save_checkpoint(str(p2), ckpt)
        assert p1.read_bytes() == p2.read_bytes()
        for name in params.names():
            assert np.array_equal(ckpt.params[name], params[name])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parameter_block_is_the_flat_vector(self, tmp_path, dtype, assert_one_vector):
        params = tiny_params(seed=3, dtype=dtype)
        path = tmp_path / "m.lorm"
        self._save(path, params)
        data = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", data, 8)
        assert data[12 + meta_len :] == params.flat.astype("<f4").tobytes()
        ckpt = load_checkpoint(str(path))
        assert_one_vector(ckpt.params, TINY)
        assert ckpt.params.flat.dtype == np.float32 and ckpt.params.flat.flags.writeable
        assert ckpt.params.flat.tobytes() == params.flat.astype(np.float32).tobytes()

    def test_other_layout_is_rejected(self, tmp_path):
        """A vector laid out for another model is not written, even when it
        holds the same names."""
        params = init_model(replace(TINY, num_tokens=TINY.num_tokens + 1), seed=1)
        with pytest.raises(CheckpointError, match="canonical layout"):
            self._save(tmp_path / "m.lorm", params)
        assert not (tmp_path / "m.lorm").exists()

    def test_metadata_round_trip(self, tmp_path):
        path = tmp_path / "m.lorm"
        self._save(path, tiny_params(dtype=np.float32))
        ckpt = load_checkpoint(str(path))
        assert ckpt.config == TINY
        assert ckpt.window_len == 16 and ckpt.context_len == 15
        assert ckpt.channel_names == ["a", "b"]
        assert ckpt.codebook_hash == "cafe" * 16
        assert np.allclose(ckpt.stats.mean, [0.5, -1.0])
        assert np.allclose(ckpt.stats.std, [2.0, 3.0])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lorm"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_parameter_block(self, tmp_path):
        path = tmp_path / "m.lorm"
        self._save(path, tiny_params(dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CheckpointError, match="parameter block"):
            load_checkpoint(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.lorm"
        self._save(path, tiny_params(dtype=np.float32))
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))

    def _rewrite_meta(self, path, edit):
        """Apply ``edit`` to the JSON metadata of the checkpoint at ``path``."""
        data = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", data, 8)
        meta = json.loads(data[12 : 12 + meta_len])
        edit(meta)
        blob = json.dumps(meta).encode("utf-8")
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + meta_len :])

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.lorm"
        path.write_bytes(b"LORM\x01\x00\x00")
        with pytest.raises(CheckpointError, match="truncated header") as exc:
            load_checkpoint(str(path))
        assert str(path) in str(exc.value)

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "m.lorm"
        self._save(path, tiny_params(dtype=np.float32))
        self._rewrite_meta(path, lambda meta: meta["config"].update(dropout=0.1))
        with pytest.raises(CheckpointError, match="unknown config key.*dropout") as exc:
            load_checkpoint(str(path))
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize(
        "key", ["config", "windowing", "stats", "channel_names", "codebook_hash"]
    )
    def test_missing_metadata_key(self, tmp_path, key):
        path = tmp_path / "m.lorm"
        self._save(path, tiny_params(dtype=np.float32))
        self._rewrite_meta(path, lambda meta: meta.pop(key))
        with pytest.raises(CheckpointError, match=f"lacks key '{key}'") as exc:
            load_checkpoint(str(path))
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["windowing"].update(window_len="x"), "window geometry"),
            (lambda m: m["windowing"].update(window_len=16.0), "window geometry"),
            (lambda m: m["windowing"].update(context_len=16), "window geometry"),
            (lambda m: m["windowing"].update(window_len=11, context_len=10), "max_seq_len 6"),
            (lambda m: m.update(channel_names=["a"]), "1 channel names"),
            (lambda m: m.update(channel_names="ab"), "list of strings"),
            (lambda m: m["stats"].update(mean=[0.0] * 3, std=[1.0] * 3), "stats for 3 channels"),
            (lambda m: m["stats"].update(std=[1.0, float("nan")]), "must be finite"),
            (lambda m: m["stats"].update(epsilon=float("inf")), "epsilon"),
            (lambda m: m.update(codebook_hash=7), "codebook_hash"),
            (lambda m: m["config"].update(num_heads=0), "num_heads must be an integer >= 1"),
            (lambda m: m["config"].update(hidden_dim=8.5), "hidden_dim must be an integer"),
        ],
    )
    def test_inconsistent_metadata_names_file(self, tmp_path, edit, message):
        path = tmp_path / "m.lorm"
        self._save(path, tiny_params(dtype=np.float32))
        self._rewrite_meta(path, edit)
        with pytest.raises(CheckpointError, match=message) as exc:
            load_checkpoint(str(path))
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"window_len": "x"}, "window geometry 15/'x' is not 0 < S < W"),
            ({"window_len": 16.0}, "window geometry 15/16.0 is not 0 < S < W"),
            ({"context_len": 16}, "window geometry 16/16 is not 0 < S < W"),
            ({"window_len": 11, "context_len": 10}, "context_len 10 mismatches max_seq_len 6"),
            ({"channel_names": ["a"]}, "1 channel names, stats for 2 channels, model for 2"),
            ({"channel_names": "ab"}, LIST_OF_STRINGS),
            (
                {"stats": ChannelStats(mean=[0.0] * 3, std=[1.0] * 3)},
                "2 channel names, stats for 3 channels, model for 2",
            ),
            ({"codebook_hash": 7}, LIST_OF_STRINGS),
        ],
    )
    def test_inconsistent_record_is_refused_when_built(self, fields, message):
        """The in-memory cases of test_inconsistent_metadata_names_file, with
        the message load_checkpoint puts after the file's name. The stats and
        config cases of that test are refused by ChannelStats and
        BackboneConfig themselves."""
        with pytest.raises(CheckpointError) as exc:
            self._ckpt(tiny_params(dtype=np.float32), **fields)
        assert str(exc.value) == f"invalid metadata ({message})"

    def test_non_finite_record_is_refused_when_built(self):
        params = tiny_params(dtype=np.float32)
        params.flat[3] = np.inf
        with pytest.raises(CheckpointError, match="^parameter block holds non-finite values$"):
            self._ckpt(params)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: c.params.flat.__setitem__(0, np.nan), "^parameter block holds non-finite"),
            (lambda c: c.channel_names.append("c"), r"^invalid metadata \(3 channel names"),
        ],
    )
    def test_save_refuses_record_changed_after_build(self, tmp_path, edit, message):
        """save_checkpoint checks the record again, so one edited in place
        after it was built writes no file."""
        ckpt = self._ckpt(tiny_params(dtype=np.float32))
        edit(ckpt)
        path = tmp_path / "m.lorm"
        with pytest.raises(CheckpointError, match=message):
            save_checkpoint(str(path), ckpt)
        assert not path.exists()

    def test_file_message_is_the_record_message_after_the_path(self, tmp_path):
        path = tmp_path / "m.lorm"
        self._save(path, tiny_params(dtype=np.float32))
        self._rewrite_meta(path, lambda m: m.update(channel_names=["a"]))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(str(path))
        assert str(exc.value) == (
            f"{path}: invalid metadata (1 channel names, stats for 2 channels, model for 2)"
        )

    def test_non_finite_parameter_names_file(self, tmp_path):
        path = tmp_path / "m.lorm"
        self._save(path, tiny_params(dtype=np.float32))
        data = bytearray(path.read_bytes())
        data[-4:] = struct.pack("<f", float("inf"))
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=f"^{path}: parameter block holds non-finite"):
            load_checkpoint(str(path))

    def test_huge_layer_count_rejected_at_once(self, tmp_path):
        """The parameter block is measured against the claimed depth before
        the per-layer shapes are built, so a small file claiming 10**9
        layers is rejected at once."""
        path = tmp_path / "m.lorm"
        self._save(path, tiny_params(dtype=np.float32))
        self._rewrite_meta(path, lambda m: m["config"].update(num_layers=10**9))
        start = time.process_time()
        with pytest.raises(CheckpointError, match="too few for 1000000000 layers") as exc:
            load_checkpoint(str(path))
        assert time.process_time() - start < 0.5
        assert str(exc.value).startswith(f"{path}: parameter block holds ")

    def test_deeply_nested_metadata_names_file(self, tmp_path):
        path = tmp_path / "m.lorm"
        blob = b"[" * 100_000 + b"]" * 100_000
        header = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(blob))
        path.write_bytes(header + blob)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(str(path))
        assert str(exc.value).startswith(f"{path}: corrupt metadata block (maximum recursion")
