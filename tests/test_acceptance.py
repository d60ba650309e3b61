"""Acceptance gate: one test per shipped criterion, at pinned tolerances.

Each test prints an `ACCEPTANCE n: PASS/FAIL` line (collected into a summary
section at the end of the run) and then asserts, so a red criterion is visible
both ways. The heavyweight fixtures train a real model once per session at the
reference scale (3 channels, ~200k samples, window 321/320, patch 16, K=8,
d=64, 2 layers) and reuse it across criteria.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

import lorm.train
from lorm.cli import main as cli_main
from lorm.model import (
    BackboneConfig,
    Checkpoint,
    forward_batch,
    init_model,
    load_checkpoint,
    partition_parameters,
    save_checkpoint,
)
from lorm.monitor import (
    DeployedModel,
    MonitorConfig,
    calibrate_threshold,
    monitor_stream,
    score_window,
)
from lorm.evaluation import compute_metrics
from lorm.sequence import build_mcps, num_patches
from lorm.signal_io import (
    ChannelStats,
    WindowingConfig,
    compute_channel_stats,
    segment_windows,
    stack_windows,
    stream_windows,
    train_val_split,
)
from lorm.synth import SynthConfig, generate_run
from lorm.tokenizer import (
    CodebookSet,
    fit_codebook_set,
    kmeans_plusplus_init,
    lloyd_kmeans,
    load_codebooks,
    save_codebooks,
)
from lorm.train import (
    build_examples,
    dataset_loss,
    gradient_check,
    token_errors,
    train_model,
    TrainConfig,
)
from lorm.signal_io import normalize_window, split_context_target

WINDOWING = WindowingConfig(window_len=321, context_len=320, stride=321)
PATCH_LEN = 16
NUM_TOKENS = 8
CHANNELS = 3

STATIONARY = dict(
    channels=CHANNELS,
    sample_rate_hz=1000.0,
    duration_samples=200_000,
    noise_sigma=0.05,
    degradation_onset=100_000,
    degradation_rate=0.0,
    cuts=40,
)

TOOL = dict(
    channels=CHANNELS,
    sample_rate_hz=1000.0,
    duration_samples=150_000,
    noise_sigma=0.05,
    degradation_onset=90_000,  # 60% of the stream
    degradation_rate=5e-5,
    cuts=40,
)


def reference_backbone() -> BackboneConfig:
    return BackboneConfig(
        hidden_dim=64,
        num_layers=2,
        num_heads=4,
        ffn_dim=256,
        max_seq_len=num_patches(WINDOWING.context_len, PATCH_LEN) * CHANNELS,
        attention_mode="causal",
        num_tokens=NUM_TOKENS,
        num_channels=CHANNELS,
        patch_len=PATCH_LEN,
    )


def prepare(series, seed):
    windows = segment_windows(series, WINDOWING)
    train_w, val_w = train_val_split(windows, 0.2, seed=seed)
    stats = compute_channel_stats(stack_windows(train_w))
    return train_w, val_w, stats


@pytest.fixture(scope="module")
def trained_stack(tmp_path_factory):
    """Two-phase training at reference scale, plus the on-disk deployment."""
    out = tmp_path_factory.mktemp("trained")
    backbone = reference_backbone()

    corpus = generate_run(SynthConfig(seed=11, **STATIONARY), WINDOWING)
    target = generate_run(SynthConfig(seed=12, **STATIONARY), WINDOWING)

    train_b, val_b, stats_b = prepare(target.series, seed=12)
    books = fit_codebook_set(
        [
            split_context_target(normalize_window(w, stats_b), WINDOWING.context_len)[1]
            for w in train_b
        ],
        k=NUM_TOKENS,
        seed=12,
        channel_names=target.series.channel_names,
    )
    books_path = str(out / "codebooks.json")
    save_codebooks(books, books_path)

    t0 = time.monotonic()

    # phase one: all parameters, on the pretraining corpus
    train_a, val_a, stats_a = prepare(corpus.series, seed=11)
    p_a, y_a = build_examples(train_a, stats_a, WINDOWING.context_len, books, PATCH_LEN)
    pv_a, yv_a = build_examples(val_a, stats_a, WINDOWING.context_len, books, PATCH_LEN)
    params = init_model(backbone, seed=0)
    report1 = train_model(
        p_a, y_a, pv_a, yv_a, params, backbone,
        TrainConfig(learning_rate=3e-3, max_epochs=20, patience=20, seed=11),
    )

    # sorted, so the logged digest does not depend on PYTHONHASHSEED
    frozen_names = sorted(partition_parameters(params).frozen)
    digest_before = hashlib.sha256(
        b"".join(params[n].tobytes() for n in frozen_names)
    ).hexdigest()

    # phase two: frozen attention/FFN, on the monitored tool's own healthy run
    p_b, y_b = build_examples(train_b, stats_b, WINDOWING.context_len, books, PATCH_LEN)
    pv_b, yv_b = build_examples(val_b, stats_b, WINDOWING.context_len, books, PATCH_LEN)
    report2 = train_model(
        p_b, y_b, pv_b, yv_b, params, backbone,
        TrainConfig(learning_rate=1e-3, max_epochs=10, patience=10, seed=12),
        freeze=True,
    )
    seconds = time.monotonic() - t0

    digest_after = hashlib.sha256(
        b"".join(params[n].tobytes() for n in frozen_names)
    ).hexdigest()

    ckpt_path = str(out / "checkpoint.lorm")
    ckpt = Checkpoint(
        params=params,
        config=backbone,
        stats=stats_b,
        window_len=WINDOWING.window_len,
        context_len=WINDOWING.context_len,
        channel_names=target.series.channel_names,
        codebook_hash=load_codebooks(books_path).file_hash,
    )
    save_checkpoint(ckpt_path, ckpt)
    return {
        "backbone": backbone,
        "params": params,
        "reports": (report1, report2),
        "val_set": (pv_b, yv_b),
        "seconds": seconds,
        "digests": (digest_before, digest_after),
        "deployed": DeployedModel.from_files(ckpt_path, books_path),
    }


@pytest.fixture(scope="module")
def tool_runs(trained_stack):
    """Monitor a calibration tool and a test tool, both degrading from 60%."""
    deployed = trained_stack["deployed"]

    def monitor(seed, threshold):
        run = generate_run(SynthConfig(seed=seed, **TOOL), WINDOWING)
        cfg = MonitorConfig(buffer_len=100, threshold=threshold)
        records = list(
            monitor_stream(deployed, iter(segment_windows(run.series, WINDOWING)), cfg)
        )
        return run, records

    dev_run, dev_records = monitor(seed=13, threshold=float("inf"))
    hi = np.array([rec.hi for rec in dev_records], dtype=np.float64)  # NaN in the baseline
    located = dev_run.wear.locate([rec.window_index for rec in dev_records])
    positions = np.where(np.isnan(hi), -1, located)
    calibration = calibrate_threshold(hi, positions, dev_run.wear, 300.0)

    test_run, test_records = monitor(seed=14, threshold=calibration.tau)
    return {
        "calibration": calibration,
        "dev": (dev_run, dev_records),
        "test": (test_run, test_records),
    }


class TestCriterion1:
    def test_uniform_loss_anchor(self, acceptance_log):
        # a zeroed class matrix spreads probability evenly over K=10 tokens
        cfg = BackboneConfig(
            hidden_dim=16,
            num_layers=1,
            num_heads=2,
            ffn_dim=32,
            max_seq_len=2 * num_patches(20, 5),
            num_tokens=10,
            num_channels=2,
            patch_len=5,
        )
        params = init_model(cfg, seed=1)
        params["head.w_c"][...] = 0.0
        books = CodebookSet(
            np.tile(np.linspace(-2, 2, 10)[:, None], (2, 1, 1)), channel_names=["a", "b"]
        )
        deployed = DeployedModel(
            checkpoint=Checkpoint(
                params=params,
                config=cfg,
                stats=ChannelStats(mean=np.zeros(2), std=np.ones(2)),
                window_len=21,
                context_len=20,
                channel_names=["a", "b"],
                codebook_hash="",
            ),
            codebooks=books,
        )
        rng = np.random.default_rng(2)
        errors = [
            abs(score_window(rng.normal(size=(21, 2)), deployed) - math.log(10))
            for _ in range(5)
        ]
        worst = max(errors)
        ok = worst < 1e-6
        acceptance_log(1, ok, f"zero-head score ln(10) +/- 1e-6 (worst |err|={worst:.2e})")
        assert ok


class TestCriterion2:
    def test_training_effectiveness(self, trained_stack, acceptance_log):
        report1, report2 = trained_stack["reports"]
        pv, yv = trained_stack["val_set"]
        val_loss = dataset_loss(
            pv, yv, trained_stack["params"], trained_stack["backbone"], TrainConfig().batch_size
        )
        bar = 0.8 * math.log(NUM_TOKENS)
        epochs = len(report1.epochs) + len(report2.epochs)
        seconds = trained_stack["seconds"]
        ok = val_loss < bar and epochs <= 30 and seconds < 900.0
        acceptance_log(
            2,
            ok,
            f"two-phase training val_loss={val_loss:.4f} < {bar:.4f} "
            f"in {epochs} epochs, {seconds:.1f}s",
        )
        assert ok


class TestCriterion3:
    def test_health_index_separation_and_alarm(self, tool_runs, acceptance_log):
        test_run, records = tool_runs["test"]
        onset = TOOL["degradation_onset"]
        w = WINDOWING.window_len

        def offset(record):
            return (record.window_index - 1) * WINDOWING.stride

        pre = [r for r in records if offset(r) + w <= onset]
        post = [r for r in records if offset(r) >= onset]
        pre_alarms = sum(1 for r in pre if r.alarm)
        fpr_zero = pre_alarms == 0

        wear = test_run.wear
        crossing_cut = int(wear.cut_id[wear.wear_um > 300.0].min())
        first_alarm = next((r.window_index for r in records if r.alarm), None)
        alarm_cut = None
        if first_alarm is not None:
            alarm_cut = int(wear.cut_id[wear.locate([first_alarm])[0]])
        alarm_in_time = alarm_cut is not None and alarm_cut <= crossing_cut + 10

        pre_hi = [r.hi for r in pre if r.hi is not None]
        post_hi = [r.hi for r in post if r.hi is not None]
        iqr = float(np.percentile(pre_hi, 75) - np.percentile(pre_hi, 25))
        separated = float(np.median(post_hi)) >= float(np.median(pre_hi)) + 3.0 * iqr

        ok = fpr_zero and alarm_in_time and separated
        tau = tool_runs["calibration"].tau
        acceptance_log(
            3,
            ok,
            f"tau={tau:.3f} (healthy max HI {max(pre_hi):.3f}), pre-onset alarms={pre_alarms}, "
            f"first alarm cut {alarm_cut} vs crossing cut {crossing_cut} (+10 allowed), "
            f"median HI {np.median(pre_hi):.3f} -> {np.median(post_hi):.3f} "
            f"(needs +{3 * iqr:.3f})",
        )
        assert ok


class TestDriftingChannel:
    """Not a numbered criterion: the per-channel errors that the WLF averages
    name the channel that drifts."""

    def test_errors_name_the_fault_channel(self, tool_runs, trained_stack):
        deployed = trained_stack["deployed"]
        ckpt = deployed.checkpoint
        test_run, records = tool_runs["test"]
        windows = segment_windows(test_run.series, WINDOWING)
        p, y = build_examples(
            windows, ckpt.stats, ckpt.context_len, deployed.codebooks, ckpt.config.patch_len
        )
        dists, _ = forward_batch(p, ckpt.params, ckpt.config)
        errors = token_errors(dists, y)
        assert errors.shape == (len(records), CHANNELS)
        # the batched pass rounds its float32 activations apart from B=1's
        wlf = np.array([r.wlf for r in records])
        assert np.abs(errors.mean(axis=1) - wlf).max() < 1e-5

        offsets = np.arange(len(windows)) * WINDOWING.stride
        pre = errors[offsets + WINDOWING.window_len <= TOOL["degradation_onset"]]
        post = errors[offsets >= TOOL["degradation_onset"]]
        rise = post.mean(axis=0) - pre.mean(axis=0)
        fault = SynthConfig().fault_channel
        others = np.delete(rise, fault)
        assert rise[fault] >= 1.0 and (rise[fault] >= 5.0 * others).all(), rise


class TestCriterion4:
    def test_gradient_fidelity(self, acceptance_log, monkeypatch):
        cfg = BackboneConfig(
            hidden_dim=8,
            num_layers=1,
            num_heads=2,
            ffn_dim=16,
            max_seq_len=6,
            num_tokens=4,
            num_channels=2,
            patch_len=5,
        )
        params = init_model(cfg, seed=3, dtype=np.float64)
        rng = np.random.default_rng(4)
        p = rng.normal(size=(2, 6, 5))
        y = rng.integers(0, 4, size=(2, 2))
        # cover every coordinate of every tensor
        monkeypatch.setattr(lorm.train, "_CHECK_COORDS", 10**9)
        err = gradient_check(p, y, params, cfg)
        ok = err < 1e-4
        acceptance_log(4, ok, f"analytic vs central differences, max rel err {err:.2e} < 1e-4")
        assert ok


class TestCriterion5:
    def test_freeze_contract(self, trained_stack, acceptance_log):
        before, after = trained_stack["digests"]
        ok = before == after
        acceptance_log(
            5, ok, f"frozen block sha256 unchanged through phase two ({before[:12]}..)"
        )
        assert ok


class TestCriterion6:
    @staticmethod
    def plain_lloyd_inertia(points, k, seed):
        # flat reference: same seeding, then alternate assign/update with
        # lowest-index tie-breaks until assignments stop changing
        centroids = [c.copy() for c in kmeans_plusplus_init(points, k, seed)]
        assignments = None
        while True:
            new_assignments = []
            for x in points:
                dists = [float(np.sum((x - c) ** 2)) for c in centroids]
                new_assignments.append(dists.index(min(dists)))
            if new_assignments == assignments:
                break
            assignments = new_assignments
            for j in range(k):
                members = [points[i] for i, a in enumerate(assignments) if a == j]
                if members:
                    centroids[j] = np.mean(members, axis=0)
        return sum(
            float(np.sum((points[i] - centroids[a]) ** 2)) for i, a in enumerate(assignments)
        )

    def test_kmeans_oracle_equivalence(self, acceptance_log):
        worst = 0.0
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            k = 2 + seed % 3  # K in {2, 3, 4}
            centers = rng.uniform(-8, 8, size=(k, 2))
            points = np.concatenate(
                [center + 0.3 * rng.normal(size=(64 // k, 2)) for center in centers]
            )
            result = lloyd_kmeans(points, k, seed=seed)
            oracle = self.plain_lloyd_inertia(points, k, seed=seed)
            worst = max(worst, abs(result.inertia_history[-1] - oracle))

        rng = np.random.default_rng(200)
        points = rng.normal(size=(40, 3))
        k1 = lloyd_kmeans(points, 1, seed=0)
        mean_gap = float(np.max(np.abs(k1.centroids[0] - points.mean(axis=0))))

        ok = worst < 1e-9 and mean_gap < 1e-12
        acceptance_log(
            6,
            ok,
            f"inertia gap {worst:.2e} < 1e-9 over 8 seeded runs; "
            f"K=1 centroid vs mean {mean_gap:.2e} < 1e-12",
        )
        assert ok


class TestCriterion7:
    def test_metric_formulas(self, acceptance_log):
        pred = [True] * 5 + [False] * 12 + [True] + [False] * 2
        lab = [True] * 5 + [False] * 12 + [False] + [True] * 2
        report = compute_metrics(pred, lab)
        expected = {
            "accuracy": 0.85,
            "precision": 0.833333,
            "recall": 0.714286,
            "f1": 0.769231,
            "fpr": 0.076923,
        }
        gaps = {
            name: abs(getattr(report, name) - value) for name, value in expected.items()
        }
        ok = max(gaps.values()) < 1e-6
        acceptance_log(
            7, ok, f"tp=5 fp=1 fn=2 tn=12 metrics, worst gap {max(gaps.values()):.2e} < 1e-6"
        )
        assert ok, gaps


class TestCriterion8:
    def test_detection_deviation_arithmetic(self, tmp_path, acceptance_log):
        """``lorm eval`` on a 285.61 um cut (windows 1-10) and a 335.18 um
        cut (11-20), with alarms from window 11 on, then from window 1 on."""
        (tmp_path / "wear.csv").write_text(
            "cut_id,wear_um,first_window,last_window\n1,285.61,1,10\n2,335.18,11,20\n"
        )
        deviations = []
        for first_alarm in (11, 1):
            rows = "".join(f"{w},0.5,0.1,{int(w >= first_alarm)}\n" for w in range(1, 21))
            (tmp_path / "hi.csv").write_text("window_index,wlf,hi,alarm\n" + rows)
            assert cli_main(["eval", "--out", str(tmp_path)]) == 0
            doc = json.loads((tmp_path / "metrics.json").read_text())
            deviations.append(doc["detection_deviation_um"])
        late, early = deviations
        ok = abs(late - 35.18) < 1e-12 and abs(early - 14.39) < 1e-12
        acceptance_log(
            8, ok, f"|335.18-300|={late!r}, |285.61-300|={early!r}, both within 1e-12"
        )
        assert ok


class TestCriterion9:
    def test_structural_round_trips(self, tmp_path, acceptance_log):
        rng = np.random.default_rng(9)

        # 200 random flatten/unflatten combinations
        mcps_ok = True
        for _ in range(200):
            s = int(rng.integers(1, 40))
            c = int(rng.integers(1, 5))
            h = int(rng.integers(1, 12))
            context = rng.normal(size=(s, c))
            rows = build_mcps(context, h)
            # the inverse: channel c's patches, concatenated, minus the padding
            back = rows.reshape(c, -1)[:, :s].T
            mcps_ok = mcps_ok and np.array_equal(back, context)

        # checkpoint byte identity
        cfg = BackboneConfig(
            hidden_dim=8,
            num_layers=1,
            num_heads=2,
            ffn_dim=16,
            max_seq_len=6,
            num_tokens=4,
            num_channels=2,
            patch_len=5,
        )
        first = str(tmp_path / "a.lorm")
        second = str(tmp_path / "b.lorm")
        ckpt = Checkpoint(
            params=init_model(cfg, seed=10),
            config=cfg,
            stats=ChannelStats(mean=np.zeros(2), std=np.ones(2)),
            window_len=16,  # 3 patches of 5 per channel: max_seq_len 6
            context_len=15,
            channel_names=["a", "b"],
            codebook_hash="x" * 64,
        )
        save_checkpoint(first, ckpt)
        save_checkpoint(second, load_checkpoint(first))
        with open(first, "rb") as fa, open(second, "rb") as fb:
            ckpt_ok = fa.read() == fb.read()

        # stream-vs-batch windowing equality
        stream_ok = True
        samples = rng.normal(size=(500, 3))
        for stride in (20, 41, 100):
            windowing = WindowingConfig(window_len=41, context_len=40, stride=stride)
            from lorm.signal_io import MultiChannelSeries

            series = MultiChannelSeries(samples=samples, channel_names=["x", "y", "z"])
            batch = segment_windows(series, windowing)
            streamed = list(stream_windows(iter(samples), windowing, channel_count=3))
            stream_ok = stream_ok and len(batch) == len(streamed)
            stream_ok = stream_ok and all(
                np.array_equal(a, b) for a, b in zip(batch, streamed)
            )

        ok = mcps_ok and ckpt_ok and stream_ok
        acceptance_log(
            9,
            ok,
            f"mcps round trip x200 {'ok' if mcps_ok else 'BROKEN'}, "
            f"checkpoint bytes {'ok' if ckpt_ok else 'BROKEN'}, "
            f"stream windows {'ok' if stream_ok else 'BROKEN'}",
        )
        assert ok


class TestCriterion10:
    def test_pipeline_determinism(self, tmp_path, acceptance_log):
        config = {
            "seed": 5,
            "windowing": {"window_len": 61, "context_len": 60, "stride": 30},
            "patch": {"patch_len": 12},
            "tokenizer": {"num_tokens": 4},
            "model": {"hidden_dim": 16, "num_layers": 1, "num_heads": 2, "ffn_dim": 32},
            "train": {"max_epochs": 2, "patience": 5},
            "monitor": {"buffer_len": 10, "threshold": 0.2},
            "synth": {
                "channels": 2,
                "duration_samples": 9000,
                "noise_sigma": 0.1,
                "degradation_onset": 5000,
                "degradation_rate": 1e-3,
                "cuts": 8,
            },
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))

        artifacts = []
        for label in ("one", "two"):
            out = tmp_path / label
            base = ["--config", str(config_path), "--out", str(out)]
            for command in ("synth", "fit-codebooks", "pretrain", "train", "monitor"):
                assert cli_main([command] + base) == 0, command
            artifacts.append(
                (
                    (out / "checkpoint.lorm").read_bytes(),
                    (out / "hi.csv").read_bytes(),
                )
            )
        ok = artifacts[0] == artifacts[1]
        acceptance_log(
            10, ok, "same-seed pipeline reruns: checkpoint.lorm and hi.csv byte-identical"
        )
        assert ok
