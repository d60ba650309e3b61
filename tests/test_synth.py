"""Synthetic signal generator: determinism, degradation shape, ground truth."""

import numpy as np
import pytest

from lorm.signal_io import WindowingConfig, segment_windows
from lorm.synth import WEAR_END_UM, WEAR_START_UM, SynthConfig, generate_run

WINDOWING = WindowingConfig(window_len=101, context_len=100, stride=50)
WEAR_COLUMNS = ("cut_id", "wear_um", "first_window", "last_window")


def small_cfg(**kw):
    base = dict(
        channels=2,
        sample_rate_hz=1000.0,
        duration_samples=4000,
        noise_sigma=0.1,
        degradation_onset=2000,
        degradation_rate=0.0,
        cuts=8,
        fault_channel=0,
        seed=7,
    )
    base.update(kw)
    return SynthConfig(**base)


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        runs = [generate_run(small_cfg(degradation_rate=1e-3), WINDOWING) for _ in range(2)]
        assert runs[0].series.samples.tobytes() == runs[1].series.samples.tobytes()
        for name in ("cut_id", "wear_um", "first_window", "last_window"):
            assert np.array_equal(getattr(runs[0].wear, name), getattr(runs[1].wear, name))

    def test_different_seed_differs(self):
        a = generate_run(small_cfg(seed=1), WINDOWING)
        b = generate_run(small_cfg(seed=2), WINDOWING)
        assert not np.array_equal(a.series.samples, b.series.samples)


class TestHealthySignal:
    def test_matches_plain_reconstruction(self):
        # rate 0: noise plus fixed-amplitude sinusoids, rebuilt here with loops
        # from each channel's three harmonics (frequency_hz, amplitude, phase)
        cfg = small_cfg()
        run = generate_run(cfg, WINDOWING)

        rng = np.random.default_rng(cfg.seed)
        expected = rng.normal(0.0, cfg.noise_sigma, size=(cfg.duration_samples, cfg.channels))
        t = np.arange(cfg.duration_samples) / cfg.sample_rate_hz
        for c in range(cfg.channels):
            base = 30.0 + 17.0 * c
            harmonics = [
                (base, 1.0, 0.37 * c),
                (2.0 * base, 0.5, 1.1 + 0.2 * c),
                (3.3 * base, 0.25, 2.0),
            ]
            for frequency_hz, amplitude, phase in harmonics:
                expected[:, c] += amplitude * np.sin(2.0 * np.pi * frequency_hz * t + phase)
        assert np.array_equal(run.series.samples, expected)

    def test_wear_constant_at_start_level(self):
        run = generate_run(small_cfg(), WINDOWING)
        assert (run.wear.wear_um == WEAR_START_UM).all()


class TestDegradation:
    def test_pre_onset_samples_equal_healthy_run(self):
        # growth is (t - onset)+: before the onset the faulty run is the
        # healthy run, byte for byte
        healthy = generate_run(small_cfg(degradation_rate=0.0), WINDOWING)
        faulty = generate_run(small_cfg(degradation_rate=2e-3), WINDOWING)
        onset = small_cfg().degradation_onset
        assert np.array_equal(
            healthy.series.samples[:onset], faulty.series.samples[:onset]
        )
        assert not np.array_equal(
            healthy.series.samples[onset + 1 :], faulty.series.samples[onset + 1 :]
        )

    def test_only_fault_channel_changes(self):
        healthy = generate_run(small_cfg(degradation_rate=0.0), WINDOWING)
        faulty = generate_run(small_cfg(degradation_rate=2e-3, fault_channel=1), WINDOWING)
        assert np.array_equal(healthy.series.samples[:, 0], faulty.series.samples[:, 0])
        assert not np.array_equal(healthy.series.samples[:, 1], faulty.series.samples[:, 1])

    def test_post_onset_rms_grows(self):
        cfg = small_cfg(degradation_rate=2e-3, noise_sigma=0.05)
        run = generate_run(cfg, WINDOWING)
        post = run.series.samples[cfg.degradation_onset :, 0]
        quarters = np.array_split(post, 4)
        rms = [float(np.sqrt(np.mean(q**2))) for q in quarters]
        assert all(b > a for a, b in zip(rms, rms[1:]))

    def test_sideband_appears_post_onset(self):
        # sideband at 1.5 x first harmonic (30 Hz -> 45 Hz) only after onset
        cfg = small_cfg(degradation_rate=2e-3, noise_sigma=0.0)
        run = generate_run(cfg, WINDOWING)
        x = run.series.samples[:, 0]
        onset = cfg.degradation_onset

        def mag_at(segment, freq_hz):
            spec = np.abs(np.fft.rfft(segment))
            freqs = np.fft.rfftfreq(len(segment), d=1.0 / cfg.sample_rate_hz)
            return spec[np.argmin(np.abs(freqs - freq_hz))]

        pre, post = x[:onset], x[onset:]
        assert mag_at(pre, 45.0) < 1e-6 * len(pre)
        assert mag_at(post, 45.0) > 0.01 * len(post)


class TestWearTable:
    def test_monotone_and_bounded(self):
        run = generate_run(small_cfg(degradation_rate=1e-3), WINDOWING)
        wears = run.wear.wear_um.tolist()
        assert all(b >= a for a, b in zip(wears, wears[1:]))
        assert wears[0] == WEAR_START_UM
        assert all(WEAR_START_UM <= w <= WEAR_END_UM for w in wears)

    def test_crosses_limit_when_degrading(self):
        run = generate_run(small_cfg(degradation_rate=1e-3), WINDOWING)
        wears = run.wear.wear_um.tolist()
        assert max(wears) > 300.0
        assert min(wears) < 300.0

    def test_every_window_is_in_its_midpoint_cut(self):
        # span = 4000/8 = 500 samples; window k starts at (k - 1) * 50
        run = generate_run(small_cfg(degradation_rate=1e-3), WINDOWING)
        n_windows = len(segment_windows(run.series, WINDOWING))
        windows = np.arange(1, n_windows + 1)
        cuts = run.wear.cut_id[run.wear.locate(windows)].tolist()
        mids = (windows - 1) * WINDOWING.stride + WINDOWING.window_len // 2
        assert cuts == [min(8, m // 500 + 1) for m in mids]

    def test_covers_every_window_contiguously(self):
        cfg = small_cfg()
        run = generate_run(cfg, WINDOWING)
        n_windows = len(segment_windows(run.series, WINDOWING))
        assert (run.wear.locate(range(1, n_windows + 1)) >= 0).all()
        assert run.wear.first_window[0] == 1
        assert run.wear.last_window[-1] == n_windows
        assert (run.wear.first_window[1:] == run.wear.last_window[:-1] + 1).all()

    def test_midpoint_assignment(self):
        # span = 4000/8 = 500 samples; window at offset 450 has midpoint 500,
        # landing in the second cut
        run = generate_run(small_cfg(), WindowingConfig(window_len=101, context_len=100, stride=450))
        # offsets 0, 450, 900, ... midpoints 50, 500, 950, ...
        positions = run.wear.locate([1, 2, 3])
        assert run.wear.cut_id[positions].tolist() == [1, 2, 2]

    def test_more_cuts_than_windows(self):
        cfg = small_cfg(duration_samples=500, degradation_onset=400, cuts=50)
        windowing = WindowingConfig(window_len=101, context_len=100, stride=100)
        run = generate_run(cfg, windowing)
        assert len(segment_windows(run.series, windowing)) == 4
        assert (run.wear.locate([1, 2, 3, 4]) >= 0).all()
        assert run.wear.last_window[-1] == 4

    @pytest.mark.parametrize(
        "kw, windowing",
        [
            (dict(degradation_rate=1e-3), WINDOWING),
            (dict(degradation_rate=1e-3, cuts=7), WINDOWING),
            (dict(degradation_rate=2e-4, degradation_onset=0, cuts=13),
             WindowingConfig(window_len=33, context_len=32, stride=7)),
            (dict(degradation_rate=0.0, cuts=3), WINDOWING),
            (dict(degradation_rate=1e-3, degradation_onset=4000), WINDOWING),
            (dict(degradation_rate=1e-3, cuts=1), WINDOWING),
            (dict(degradation_rate=1e-3, duration_samples=500, degradation_onset=400, cuts=50),
             WindowingConfig(window_len=101, context_len=100, stride=100)),
            (dict(degradation_rate=1e-3, cuts=10**12), WINDOWING),
        ],
    )
    def test_wear_table_is_the_per_cut_formula(self, kw, windowing):
        """Each row holds the cut's windows and the linear wear at the cut's
        midpoint, (j + 0.5) * span, as one formula per cut gives them."""
        cfg = small_cfg(**kw)
        run = generate_run(cfg, windowing)
        got = {key: getattr(run.wear, key).tolist() for key in WEAR_COLUMNS}
        assert got == reference_wear_table(cfg, windowing)

    def test_one_cut_per_window_for_many_cuts(self):
        run = generate_run(small_cfg(degradation_rate=1e-3, cuts=10**12), WINDOWING)
        n_windows = len(segment_windows(run.series, WINDOWING))
        windows = np.arange(1, n_windows + 1)
        assert run.wear.first_window.tolist() == run.wear.last_window.tolist() == windows.tolist()


def reference_wear_table(cfg, windowing):
    """The wear table window by window in plain Python: a window belongs to
    the cut that holds its midpoint, and cut j's wear is the linear curve at
    (j + 0.5) * span; cuts without a window get no row."""
    span = cfg.duration_samples / cfg.cuts
    rows = {}
    starts = range(0, cfg.duration_samples - windowing.window_len + 1, windowing.stride)
    for k, start in enumerate(starts, start=1):
        j = min(cfg.cuts - 1, int((start + windowing.window_len // 2) / span))
        rows.setdefault(j, [k, k])[1] = k
    table = {key: [] for key in WEAR_COLUMNS}
    for j, (first, last) in rows.items():
        wear = WEAR_START_UM
        if cfg.degradation_rate != 0.0 and cfg.degradation_onset < cfg.duration_samples:
            progress = ((j + 0.5) * span - cfg.degradation_onset) / (
                cfg.duration_samples - cfg.degradation_onset
            )
            wear = WEAR_START_UM + (WEAR_END_UM - WEAR_START_UM) * min(max(progress, 0.0), 1.0)
        for key, value in zip(table, (j + 1, wear, first, last)):
            table[key].append(value)
    return table


class TestValidation:
    def test_onset_outside_run(self):
        with pytest.raises(ValueError, match="onset"):
            small_cfg(degradation_onset=4001)

    def test_negative_rate(self):
        with pytest.raises(ValueError, match="rate"):
            small_cfg(degradation_rate=-1e-3)

    def test_fault_channel_range(self):
        with pytest.raises(ValueError, match="fault_channel"):
            small_cfg(fault_channel=2)

    def test_cuts_positive(self):
        with pytest.raises(ValueError, match="cuts"):
            small_cfg(cuts=0)
