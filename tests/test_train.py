"""Loss, Adam, the training loop, freezing, and gradient fidelity."""

import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorm import train
from lorm.model import (
    BackboneConfig,
    backward_from_scores,
    forward_batch,
    init_model,
    partition_parameters,
)
from lorm.sequence import build_mcps
from lorm.signal_io import (
    ChannelStats,
    MultiChannelSeries,
    WindowingConfig,
    compute_channel_stats,
    normalize_window,
    segment_windows,
    split_context_target,
)
from lorm.tokenizer import CodebookSet, tokenize_window
from lorm.train import (
    PROB_FLOOR,
    Adam,
    TrainConfig,
    build_examples,
    dataset_loss,
    gradient_check,
    loss_and_grad,
    token_errors,
    train_model,
    write_train_report_csv,
)

CFG = BackboneConfig(
    hidden_dim=8,
    num_layers=1,
    num_heads=2,
    ffn_dim=16,
    max_seq_len=6,
    num_tokens=4,
    num_channels=2,
    patch_len=5,
)


# the reference scale of the acceptance tests and the benchmark
REFERENCE = BackboneConfig(hidden_dim=64, num_layers=2, num_heads=4, ffn_dim=256,
                           max_seq_len=60, num_tokens=8, num_channels=3, patch_len=16)


def make_batch(n, seed=0, cfg=CFG):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(n, cfg.max_seq_len, cfg.patch_len))
    y = rng.integers(0, cfg.num_tokens, size=(n, cfg.num_channels))
    return p, y


class ReadLog(dict):
    """A dict that records every key read through ``[]``."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __getitem__(self, key):
        self.log.add(key)
        return super().__getitem__(key)


def window_loss_reference(dists, tokens):
    """The per-window loss that monitoring used before the (B, C) window
    errors: float64 probabilities, -(one pairwise sum of the clamped logs) / C."""
    p = np.asarray(dists, dtype=np.float64)
    picked = p[np.arange(p.shape[0]), np.asarray(tokens)]
    return -float(np.add.reduce(np.log(np.maximum(picked, PROB_FLOOR)))) / p.shape[0]


def one_window_loss(dists, tokens):
    """The WLF of one window, as monitoring takes it: the mean of the one
    row of token_errors at B=1."""
    return float(token_errors(np.asarray(dists)[None], np.asarray(tokens)[None])[0].mean())


class TestTokenErrors:
    def test_uniform_is_ln_k(self):
        dists = np.full((3, 5), 0.2)
        assert one_window_loss(dists, [0, 3, 4]) == pytest.approx(np.log(5), abs=1e-12)

    def test_probability_one_is_positive_zero(self):
        """Each error -log(1.0) is -0.0, and their mean +0.0; the negated
        mean of the logs that the window loss took before gave -0.0."""
        dists = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert token_errors(dists[None], np.array([[0, 1]])).tolist() == [[0.0, 0.0]]
        assert one_window_loss(dists, [0, 1]).hex() == (0.0).hex()
        assert window_loss_reference(dists, [0, 1]).hex() == (-0.0).hex()

    def test_clamp_floor(self):
        dists = np.array([[0.0, 1.0]])
        errors = token_errors(dists[None], np.array([[0]]))
        assert errors.tolist() == [[-np.log(PROB_FLOOR)]]

    def test_per_channel_oracle(self):
        """One float64 error per (window, channel), each the negative log of
        the picked probability."""
        rng = np.random.default_rng(1)
        raw = rng.uniform(0.05, 1.0, size=(2, 4, 6))
        dists = raw / raw.sum(axis=2, keepdims=True)
        y = np.array([[2, 0, 5, 1], [3, 3, 0, 4]])
        errors = token_errors(dists, y)
        assert errors.shape == (2, 4) and errors.dtype == np.float64
        for b in range(2):
            for c in range(4):
                assert errors[b, c] == pytest.approx(-np.log(dists[b, c, y[b, c]]), abs=1e-12)
        assert one_window_loss(dists[1], y[1]) == errors[1].mean()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="need one token per channel distribution"):
            token_errors(np.full((1, 2, 3), 1 / 3), np.array([[0]]))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), c=st.integers(1, 16), k=st.integers(1, 6))
    def test_one_window_is_the_window_loss_bit_for_bit(self, data, c, k):
        """At B=1 the row mean runs the pairwise sum and the division of the
        old per-window formula, for any C (numpy unrolls sums from 8 terms)
        and for probabilities at or below the clamp floor. Negating before
        the sum flips every term's sign and so the sum's, except for a zero
        sum: where every picked probability is 1.0 the old -0.0 is now +0.0."""
        prob = st.one_of(
            st.floats(0.0, 1.0), st.floats(0.0, 2 * PROB_FLOOR), st.sampled_from([0.0, 5e-324])
        )
        dists = np.array(data.draw(st.lists(st.lists(prob, min_size=k, max_size=k),
                                            min_size=c, max_size=c)))
        tokens = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=c, max_size=c)))
        want = window_loss_reference(dists, tokens)
        if want == 0.0:  # the old -0.0 of an all-1.0 pick reads +0.0 now
            want = 0.0
        assert one_window_loss(dists, tokens).hex() == want.hex()


class TestLossAndGrad:
    def test_score_gradient_blocks_sum_to_zero(self):
        # d loss / d v within one channel block sums to 0 (softmax identity),
        # so the head bias direction is never pushed uniformly
        params = init_model(CFG, seed=1, dtype=np.float64)
        p, y = make_batch(3, seed=2)
        _, grads = loss_and_grad(p, y, params, CFG)
        # head.w_c columns for one channel block: gradient = u^T dv, and
        # sum_k dv[:, c, k] = 0 means block columns of dW_c sum to ~0 per row
        wc_grad = grads["head.w_c"].reshape(CFG.hidden_dim, CFG.num_channels, CFG.num_tokens)
        assert np.allclose(wc_grad.sum(axis=2), 0.0, atol=1e-12)

    def test_loss_matches_dataset_loss(self):
        params = init_model(CFG, seed=3, dtype=np.float64)
        p, y = make_batch(5, seed=4)
        loss, _ = loss_and_grad(p, y, params, CFG)
        want = dataset_loss(p, y, params, CFG, TrainConfig().batch_size)
        assert loss == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize(
        "picked, clamped",
        [(np.nextafter(PROB_FLOOR, 0), True), (PROB_FLOOR, False),
         (np.nextafter(PROB_FLOOR, 1), False)],
    )
    def test_clamp_edges(self, monkeypatch, picked, clamped):
        """A channel's score gradient is zero exactly where its picked
        probability is strictly below PROB_FLOOR; the loss reads the floor
        there, and the other channel keeps its gradient."""
        dists = np.array([[[picked, 1.0 - picked], [0.5, 0.5]]])
        seen = []
        monkeypatch.setattr(train, "forward_batch", lambda *args, **kw: (dists.copy(), None))
        monkeypatch.setattr(train, "backward_from_scores", lambda cache, dv, names: seen.append(dv))
        loss, _ = loss_and_grad(np.zeros((1, 6, 5)), np.array([[0, 1]]), None, CFG)
        dv = seen[0]
        assert (not dv[0, 0].any()) == clamped
        assert dv[0, 1].tolist() == [0.25, -0.25]
        assert loss == (-np.log(max(picked, PROB_FLOOR)) - np.log(0.5)) / 2

    def test_near_uniform_at_init(self):
        params = init_model(CFG, seed=5, dtype=np.float64)
        p, y = make_batch(8, seed=6)
        loss, _ = loss_and_grad(p, y, params, CFG)
        assert abs(loss - np.log(CFG.num_tokens)) < 0.1


class TestWorkspace:
    """One workspace reused across calls gives the bytes of fresh calls. Of
    what a call returns only the gradient vector lives in it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reused_workspace_matches_fresh_calls(self, dtype):
        params = init_model(CFG, seed=7, dtype=dtype)
        trainable = sorted(partition_parameters(params).trainable)
        work = {}
        for i, n in enumerate((32, 32, 5, 32, 1)):
            p, y = make_batch(n, seed=30 + i)
            want_loss, want = loss_and_grad(p, y, params, CFG)
            for names in (None, trainable):
                loss, grads = loss_and_grad(p, y, params, CFG, names, work)
                assert loss == want_loss
                assert np.shares_memory(grads.flat, work["grads"])
                for name in params.names():
                    if names is None or name in names:
                        assert grads[name].tobytes() == want[name].tobytes(), name
                    else:  # frozen: 0, although the full pass before wrote it
                        assert not grads[name].any() and want[name].any(), name
            assert dataset_loss(p, y, params, CFG, 8, work) == dataset_loss(p, y, params, CFG, 8)

    @pytest.mark.parametrize("mode", ["causal", "bidirectional"])
    def test_reference_scale_batches_and_phases(self, mode):
        """At the reference scale one workspace goes through B = 32, 16, 32,
        each with full and frozen gradients; every call gives the loss and
        gradient bytes of a call without a workspace."""
        cfg = replace(REFERENCE, attention_mode=mode)
        params = init_model(cfg, seed=3)
        trainable = sorted(partition_parameters(params).trainable)
        work = {}
        for i, n in enumerate((32, 16, 32)):
            p, y = make_batch(n, seed=50 + i, cfg=cfg)
            for names in (None, trainable, None):
                want_loss, want = loss_and_grad(p, y, params, cfg, names)
                loss, grads = loss_and_grad(p, y, params, cfg, names, work)
                assert loss == want_loss
                assert grads.flat.tobytes() == want.flat.tobytes()

    def test_cache_holds_what_the_backward_reads(self):
        """Every per-layer cache entry is read by the full backward pass, and
        of the top-level entries only the witnesses are not. The layer norms'
        outputs are recomputed, not cached."""
        p, y = make_batch(4, seed=60, cfg=REFERENCE)
        params = init_model(REFERENCE, seed=3)
        d = np.random.default_rng(61).normal(size=(4, REFERENCE.num_channels, REFERENCE.num_tokens))
        _, cache = forward_batch(p, params, REFERENCE, want_cache=True, work={})
        top, per_layer = set(), [set() for _ in cache["layers"]]
        layers = [ReadLog(lc, log) for lc, log in zip(cache["layers"], per_layer)]
        logged = ReadLog({**cache, "layers": layers}, top)
        backward_from_scores(logged, d)
        assert per_layer == [set(lc) for lc in cache["layers"]]
        assert set(cache) - top == {"e_tilde", "z", "v", "dists"}
        assert all({"a_in", "f_in"}.isdisjoint(lc) for lc in cache["layers"])

    @pytest.mark.parametrize("with_work", [False, True])
    def test_cache_serves_one_backward_pass(self, with_work):
        """The backward pass overwrites the cache's arrays, so a second pass
        on the same cache raises instead of returning wrong gradients."""
        p, y = make_batch(4, seed=62)
        params = init_model(CFG, seed=3)
        d = np.random.default_rng(63).normal(size=(4, CFG.num_channels, CFG.num_tokens))
        work = {} if with_work else None
        _, cache = forward_batch(p, params, CFG, want_cache=True, work=work)
        want = backward_from_scores(cache, d).flat.copy()
        heads = cache["layers"][0]["heads"].copy()
        with pytest.raises(ValueError, match="served its backward pass"):
            backward_from_scores(cache, d)
        assert cache["layers"][0]["heads"].tobytes() == heads.tobytes()
        _, cache = forward_batch(p, params, CFG, want_cache=True, work=work)
        assert backward_from_scores(cache, d).flat.tobytes() == want.tobytes()

    def test_memory_at_reference_scale(self):
        """Workspace bytes plus the tracemalloc peak of a warm B=32 step stay
        at the 24.37 MB measured with the consumed cache (5% headroom), so
        one more (B, t, F) float32 array (2 MB) cached or allocated per step
        fails; no buffer is larger than that array, and the backward pass's
        (B, t, d) temporaries and second scratch buffer are gone."""
        params = init_model(REFERENCE, seed=3)
        p, y = make_batch(32, seed=70, cfg=REFERENCE)
        largest = 32 * REFERENCE.max_seq_len * REFERENCE.ffn_dim * 4
        for names in (None, sorted(partition_parameters(params).trainable)):
            work = {}
            for _ in range(2):
                loss_and_grad(p, y, params, REFERENCE, names, work)
            tracemalloc.start()
            try:
                loss_and_grad(p, y, params, REFERENCE, names, work)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = sum(buf.nbytes for buf in work.values())
            assert held + peak < 25.5e6, (held, peak)
            assert max(buf.nbytes for buf in work.values()) <= largest
            assert {"scratch.1", "d_heads", "dq", "dk", "dv"}.isdisjoint(work)

    def test_results_outlive_the_next_call(self):
        """Distributions outlive later calls; the gradient vector outlives
        forward passes and is overwritten only by the next gradient call."""
        params = init_model(CFG, seed=8, dtype=np.float32)
        work = {}
        p, y = make_batch(8, seed=40)
        _, grads = loss_and_grad(p, y, params, CFG, work=work)
        dists, _ = forward_batch(p, params, CFG, work=work)
        kept_grads = grads.flat.copy()
        kept_dists = dists.copy()
        p2, y2 = make_batch(8, seed=41)
        dataset_loss(p2, y2, params, CFG, 8, work)
        forward_batch(p2, params, CFG, want_cache=True, work=work)
        assert grads.flat.tobytes() == kept_grads.tobytes()
        _, grads2 = loss_and_grad(p2, y2, params, CFG, work=work)
        assert dists.tobytes() == kept_dists.tobytes()
        assert np.shares_memory(grads.flat, grads2.flat)
        assert grads.flat.tobytes() == loss_and_grad(p2, y2, params, CFG)[1].flat.tobytes()
        for key, buf in work.items():
            assert not np.shares_memory(dists, buf)
            assert np.shares_memory(grads.flat, buf) == (key == "grads")


class TestAdam:
    def test_single_step_closed_form(self):
        # one step from zero moments: m_hat = g, v_hat = g^2,
        # theta' = theta - lr * g / (|g| + eps)
        params = init_model(CFG, seed=7, dtype=np.float64)
        before = params.copy()
        grads = params.copy()
        grads.flat[...] = 0.5
        opt = Adam(params, params.names(), TrainConfig(learning_rate=0.01, epsilon=1e-8))
        opt.step(params, grads)
        for n in params.names():
            expected = before[n] - 0.01 * 0.5 / (0.5 + 1e-8)
            assert np.allclose(params[n], expected, atol=1e-12)

    def test_two_steps_reference(self):
        # scalar reference with explicit bias correction
        params = init_model(CFG, seed=8, dtype=np.float64)
        name = "head_ln.bias"
        theta0 = params[name].copy()
        cfg = TrainConfig(learning_rate=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8)
        opt = Adam(params, [name], cfg)
        g1, g2 = 0.3, -0.2
        grads = params.copy()
        grads.flat[...] = 0.0
        for g in (g1, g2):
            grads[name][...] = g
            opt.step(params, grads)

        m = v = 0.0
        theta = 0.0
        for t, g in [(1, g1), (2, g2)]:
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            theta -= 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(params[name], theta0 + theta, atol=1e-12)

    def test_only_listed_names_updated(self):
        params = init_model(CFG, seed=9, dtype=np.float64)
        before = params.copy()
        opt = Adam(params, ["head.w_c"], TrainConfig(learning_rate=0.1))
        grads = params.copy()
        grads.flat[...] = 1.0
        opt.step(params, grads)
        assert not np.array_equal(params["head.w_c"], before["head.w_c"])
        assert np.array_equal(params["embed.w_e"], before["embed.w_e"])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_other_entries_bitwise_untouched(self, dtype):
        """Entries outside the names keep their bits over many steps, even
        under large non-zero gradients and with non-finite values."""
        params = init_model(CFG, seed=9, dtype=dtype)
        params["layers.0.attn.w_q"][0, :3] = [np.nan, np.inf, -0.0]
        names = sorted(partition_parameters(params).trainable)
        before = params.copy()
        opt = Adam(params, names, TrainConfig(learning_rate=0.1))
        grads = params.copy()
        rng = np.random.default_rng(3)
        for _ in range(5):
            grads.flat[...] = rng.normal(0.0, 1e3, size=grads.flat.size)
            opt.step(params, grads)
        for name in params.names():
            moved = params[name].tobytes() != before[name].tobytes()
            assert moved == (name in names), name

    def test_whole_vector_step_matches_per_tensor_formula(self):
        """The in-place vector update gives the bits of the out-of-place
        textbook formula applied tensor by tensor."""
        params = init_model(CFG, seed=4)
        want = {n: params[n].copy() for n in params.names()}
        m = {n: np.zeros_like(w) for n, w in want.items()}
        v = {n: np.zeros_like(w) for n, w in want.items()}
        opt = Adam(params, params.names(), TrainConfig(learning_rate=1e-2))
        grads = params.copy()
        rng = np.random.default_rng(5)
        for t in range(1, 6):
            grads.flat[...] = rng.normal(0.0, 0.1, size=grads.flat.size)
            opt.step(params, grads)
            for n in want:
                g = grads[n]
                m[n] = 0.9 * m[n] + (1.0 - 0.9) * g
                v[n] = 0.999 * v[n] + (1.0 - 0.999) * g * g
                m_hat, v_hat = m[n] / (1.0 - 0.9**t), v[n] / (1.0 - 0.999**t)
                want[n] = want[n] - 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
        for n in want:
            assert params[n].dtype == np.float32
            assert params[n].tobytes() == want[n].tobytes(), n


class TestGradientCheck:
    def test_causal_model(self):
        params = init_model(CFG, seed=10, dtype=np.float64)
        p, y = make_batch(2, seed=11)
        assert gradient_check(p, y, params, CFG) < 1e-4

    def test_bidirectional_model(self):
        cfg = BackboneConfig(
            hidden_dim=8, num_layers=1, num_heads=2, ffn_dim=16,
            max_seq_len=5, attention_mode="bidirectional",
            num_tokens=3, num_channels=2, patch_len=4,
        )
        params = init_model(cfg, seed=12, dtype=np.float64)
        rng = np.random.default_rng(13)
        p = rng.normal(size=(2, 5, 4))
        y = rng.integers(0, 3, size=(2, 2))
        assert gradient_check(p, y, params, cfg) < 1e-4


# one epoch at the reference scale (3 channels, 20 patches of 16, K=8, d=64,
# 2 layers) over 50 windows at batch 32: the second batch's weight gradients
# sum over 18 * 60 = 1,080 rows, a count whose OpenBLAS blocking, and so
# whose bits, follow the thread count
REFERENCE_EPOCH = """
import hashlib
import numpy as np
from lorm.model import BackboneConfig, init_model
from lorm.train import TrainConfig, train_model
cfg = BackboneConfig(num_tokens=8, num_channels=3, patch_len=16, max_seq_len=60)
rng = np.random.default_rng(0)
p = rng.normal(size=(58, 60, 16)).astype(np.float32)
y = rng.integers(0, 8, size=(58, 3))
params = init_model(cfg, seed=1)
train_cfg = TrainConfig(batch_size=32, max_epochs=1, seed=2)
train_model(p[:50], y[:50], p[50:], y[50:], params, cfg, train_cfg)
print(hashlib.sha256(params.flat.tobytes()).hexdigest())
"""


class TestBlasThreads:
    """train_model holds numpy's OpenBLAS at one thread while it runs."""

    @staticmethod
    def openblas():
        api = train._numpy_openblas()
        if api is None:
            pytest.skip(f"numpy's OpenBLAS with {' and '.join(train._OPENBLAS_THREAD_API)} "
                        "is not loaded in this process")
        return api

    def test_same_bits_at_one_and_two_threads(self):
        self.openblas()
        src = os.path.dirname(os.path.dirname(os.path.abspath(train.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = [
            subprocess.run(
                [sys.executable, "-c", REFERENCE_EPOCH],
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
                stdout=subprocess.PIPE, text=True, check=True, timeout=300,
            ).stdout
            for threads in ("1", "2")
        ]
        assert digests[0] == digests[1]

    def test_one_thread_inside_and_the_count_restored(self, monkeypatch):
        get, set_ = self.openblas()
        seen = []

        def counting_loss_and_grad(*args):
            seen.append(get())
            if len(seen) == 3:
                raise RuntimeError("third step")
            return loss_and_grad(*args)

        monkeypatch.setattr(train, "loss_and_grad", counting_loss_and_grad)
        p, y = make_batch(16, seed=14)
        params = init_model(CFG, seed=17, dtype=np.float64)
        before = get()
        set_(2)
        try:
            cfg = TrainConfig(batch_size=4, max_epochs=1)
            train_model(p[:8], y[:8], p[8:], y[8:], params, CFG, cfg)
            assert (seen, get()) == ([1, 1], 2)
            with pytest.raises(RuntimeError, match="third step"):
                train_model(p[:8], y[:8], p[8:], y[8:], params, CFG, cfg)
            assert (seen, get()) == ([1, 1, 1], 2)
        finally:
            set_(before)

    def test_trains_unpinned_where_openblas_is_not_found(self, monkeypatch):
        monkeypatch.setattr(train, "_numpy_openblas", lambda: None)
        p, y = make_batch(12, seed=14)
        params = init_model(CFG, seed=17, dtype=np.float64)
        report = train_model(p[:8], y[:8], p[8:], y[8:], params, CFG, TrainConfig(max_epochs=1))
        assert report.epochs == [1]


class TestTrainModel:
    def _data(self, n_train=24, n_val=8):
        p, y = make_batch(n_train + n_val, seed=14)
        return p[:n_train], y[:n_train], p[n_train:], y[n_train:]

    def test_overfits_tiny_dataset(self):
        # memorise 4 fixed examples: loss far below the uniform level
        rng = np.random.default_rng(15)
        p = rng.normal(size=(4, CFG.max_seq_len, CFG.patch_len))
        y = rng.integers(0, CFG.num_tokens, size=(4, CFG.num_channels))
        params = init_model(CFG, seed=16, dtype=np.float64)
        cfg = TrainConfig(learning_rate=3e-3, batch_size=4, max_epochs=300, patience=300)
        train_model(p, y, p, y, params, CFG, cfg)
        assert dataset_loss(p, y, params, CFG, cfg.batch_size) < 0.1 * np.log(CFG.num_tokens)

    def test_params_end_at_best_epoch(self):
        p_train, y_train, p_val, y_val = self._data()
        params = init_model(CFG, seed=17, dtype=np.float64)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=15, patience=3)
        report = train_model(p_train, y_train, p_val, y_val, params, CFG, cfg)
        final_val = dataset_loss(p_val, y_val, params, CFG, cfg.batch_size)
        assert final_val == pytest.approx(report.best_val_loss, abs=1e-12)
        assert report.val_losses[report.best_epoch - 1] == report.best_val_loss

    def test_early_stopping_bound(self):
        p_train, y_train, p_val, y_val = self._data()
        params = init_model(CFG, seed=18, dtype=np.float64)
        cfg = TrainConfig(learning_rate=5e-2, batch_size=8, max_epochs=60, patience=4)
        report = train_model(p_train, y_train, p_val, y_val, params, CFG, cfg)
        if report.stopped_early:
            assert len(report.epochs) == report.best_epoch + cfg.patience
        else:
            assert len(report.epochs) == cfg.max_epochs

    def test_shuffles_are_seeded(self):
        p_train, y_train, p_val, y_val = self._data()
        results = []
        for _ in range(2):
            params = init_model(CFG, seed=19, dtype=np.float64)
            cfg = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=3, patience=10, seed=21)
            report = train_model(p_train, y_train, p_val, y_val, params, CFG, cfg)
            results.append((report.train_losses, params.copy()))
        assert results[0][0] == results[1][0]
        for n in results[0][1].names():
            assert np.array_equal(results[0][1][n], results[1][1][n])

    def test_freeze_keeps_frozen_tensors_bitwise(self):
        p_train, y_train, p_val, y_val = self._data()
        params = init_model(CFG, seed=20, dtype=np.float32)
        frozen_before = {
            n: params[n].tobytes() for n in partition_parameters(params).frozen
        }
        cfg = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=5, patience=10)
        train_model(p_train, y_train, p_val, y_val, params, CFG, cfg, freeze=True)
        for n, blob in frozen_before.items():
            assert params[n].tobytes() == blob
        assert not np.array_equal(
            params["head.w_c"], init_model(CFG, seed=20, dtype=np.float32)["head.w_c"]
        )

    def test_params_stay_one_vector(self, assert_one_vector):
        """Both phases update and restore the parameters in place: every
        tensor stays a view of the one vector the model started with."""
        p_train, y_train, p_val, y_val = self._data()
        params = init_model(CFG, seed=23, dtype=np.float32)
        flat = params.flat
        start = flat.copy()
        for freeze in (False, True):
            cfg = TrainConfig(learning_rate=5e-2, batch_size=8, max_epochs=6, patience=2)
            report = train_model(p_train, y_train, p_val, y_val, params, CFG, cfg, freeze=freeze)
            assert params.flat is flat
            assert_one_vector(params, CFG)
            assert report.best_epoch >= 1
        assert not np.array_equal(flat, start)

    def test_empty_train_rejected(self):
        p, y = make_batch(2)
        with pytest.raises(ValueError, match="training set is empty"):
            train_model(p[:0], y[:0], p, y, init_model(CFG, seed=0), CFG, TrainConfig())

    def test_non_finite_abort(self):
        p_train, y_train, p_val, y_val = self._data(8, 4)
        params = init_model(CFG, seed=21, dtype=np.float64)
        params["embed.w_e"][0, 0] = np.nan
        with pytest.raises(RuntimeError, match="non-finite"):
            train_model(p_train, y_train, p_val, y_val, params, CFG, TrainConfig(max_epochs=1))

    def test_report_csv_format(self, tmp_path):
        p_train, y_train, p_val, y_val = self._data(8, 4)
        params = init_model(CFG, seed=22, dtype=np.float64)
        report = train_model(
            p_train, y_train, p_val, y_val, params, CFG, TrainConfig(max_epochs=2, patience=5)
        )
        path = tmp_path / "report.csv"
        write_train_report_csv(report, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 1 + len(report.epochs)
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == report.train_losses[0]
        assert float(first[2]) == report.val_losses[0]


class TestBuildExamples:
    def test_shapes_and_tokens(self):
        rng = np.random.default_rng(23)
        series = MultiChannelSeries(
            samples=rng.normal(size=(200, 2)),
            channel_names=["a", "b"],
        )
        windowing = WindowingConfig(window_len=31, context_len=30, stride=31)
        windows = segment_windows(series, windowing)
        stats = compute_channel_stats(series)
        books = CodebookSet(
            np.array([[[-1.0], [1.0]], [[-1.0], [1.0]]]), channel_names=["a", "b"]
        )
        p, y = build_examples(windows, stats, 30, books, patch_len=7)
        n = len(windows)
        assert p.shape == (n, 2 * 5, 7)  # ceil(30/7)=5 patches per channel
        assert y.shape == (n, 2)
        assert set(np.unique(y)) <= {0, 1}

    @pytest.mark.parametrize(
        "window_len, context_len, patch_len, stride",
        [(31, 30, 7, 31), (21, 20, 5, 4), (25, 21, 4, 9), (40, 33, 16, 13)],
    )
    def test_bitwise_equal_to_per_window_loop(self, window_len, context_len, patch_len, stride):
        """The array path returns the (p, y) of the per-window
        normalise -> split -> build_mcps / tokenize_window loop it replaced."""
        rng = np.random.default_rng(window_len + stride)
        series = MultiChannelSeries(
            samples=rng.normal(3.0, 2.0, size=(300, 3)),
            channel_names=["a", "b", "c"],
        )
        windows = segment_windows(
            series, WindowingConfig(window_len=window_len, context_len=context_len, stride=stride)
        )
        stats = compute_channel_stats(series)
        target_len = window_len - context_len
        books = CodebookSet(rng.normal(size=(3, 5, target_len)), ["a", "b", "c"])
        p, y = build_examples(windows, stats, context_len, books, patch_len)

        p_rows, y_rows = [], []
        for w in windows:
            context, target = split_context_target(normalize_window(w, stats), context_len)
            p_rows.append(build_mcps(context, patch_len))
            y_rows.append(tokenize_window(target, books))
        want_p, want_y = np.stack(p_rows), np.stack(y_rows)
        assert p.dtype == want_p.dtype and p.shape == want_p.shape
        assert p.tobytes() == want_p.tobytes()
        assert y.dtype == want_y.dtype and np.array_equal(y, want_y)

        # a list of (W, C) windows gives the same bytes as the (n, W, C) array
        p_list, y_list = build_examples(list(windows), stats, context_len, books, patch_len)
        assert p_list.tobytes() == p.tobytes() and np.array_equal(y_list, y)

    def test_non_finite_after_normalisation_rejected(self):
        windows = [np.full((11, 1), 1e308)]
        stats = ChannelStats(mean=np.array([-1e308]), std=np.ones(1))
        books = CodebookSet(np.zeros((1, 2, 1)), ["a"])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            build_examples(windows, stats, 10, books, patch_len=4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "bad, shown", [(-4e38, "-4e+38"), (1e300, "1e+300"), (np.nan, "nan")]
    )
    def test_sample_beyond_float32_rejected(self, bad, shown):
        """The model runs in float32: a sample past its range is named,
        target samples included, and float32's largest value passes."""
        eps = 2.0**-30  # std + eps == 1: normalised samples equal the raw ones
        stats = ChannelStats(mean=np.zeros(2), std=np.full(2, 1.0 - eps), epsilon=eps)
        books = CodebookSet(np.zeros((2, 2, 1)), ["a", "b"])
        windows = np.zeros((3, 11, 2))
        windows[1, 0, 0] = windows[2, 10, 1] = float(np.finfo(np.float32).max)
        build_examples(windows, stats, 10, books, patch_len=5)
        windows[2, 10, 1] = bad
        match = f"^normalised window holds {re.escape(shown)}, non-finite as float32$"
        with pytest.raises(ValueError, match=match):
            build_examples(windows, stats, 10, books, patch_len=5)

    def test_empty_rejected(self):
        stats = ChannelStats(mean=np.zeros(1), std=np.ones(1))
        books = CodebookSet(np.zeros((1, 2, 1)), channel_names=["a"])
        with pytest.raises(ValueError, match="training set is empty"):
            build_examples([], stats, 10, books, patch_len=4)
