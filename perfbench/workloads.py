"""The benchmark's three workloads, at the reference scale of the acceptance
tests: 3 channels, window 321 with 320 context samples, patch 16, K=8, d=64,
2 layers, 4 heads, FFN 256.

Every workload is a closed loop with one caller: the next step starts only
when the last one has returned. A workload is driven through ``setup()``,
which builds its inputs from the seed, and ``run_round(traced)``, which does
one repetition of its work, checks the outputs and returns a :class:`Round`.

The timed figures are *paced* CPU time (see :class:`Pace`): CPU seconds of
the work, scaled by how fast a fixed reference kernel ran just before and
just after it, to what they would be at the reference kernel's nominal
speed. Wall-clock figures are reported beside them for reading, not gated.

lorm is always reached through module attributes (``model.forward_batch``),
never through names bound at import, so the traced run's wrappers apply.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from lorm import model, monitor, sequence, signal_io, synth, tokenizer, train

clock = time.perf_counter

WINDOW_LEN = 321
CONTEXT_LEN = 320
PATCH_LEN = 16
NUM_TOKENS = 8
CHANNELS = 3
BACKBONE = dict(hidden_dim=64, num_layers=2, num_heads=4, ffn_dim=256, attention_mode="causal")
NOISE_SIGMA = 0.05
DEGRADATION_RATE = 5e-5
ONSET_FRACTION = 0.6


def cpu_clock() -> float:
    """CPU seconds used so far by this process and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def batch_kernel():
    """Reference kernel for training: three steps of tanh(x @ w) on a
    1920 x 256 activation (32 windows of 60 tokens, FFN width), whose
    working set, like a training batch's, spills out of the core's own
    caches. About 20 ms of CPU on an idle core of the reference machine."""
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((32 * 60, 256))
    w = rng.standard_normal((256, 256)) / 16.0

    def run() -> None:
        x = x0
        for _ in range(3):
            x = np.tanh(x @ w)

    return run, 0.020


def window_kernel():
    """Reference kernel for monitoring: 200 small steps, tanh(x @ m) on a
    240 x 64 activation, dominated like scoring one window by many small
    numpy calls. About 10 ms of CPU on the reference machine."""
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((240, 64))
    m = rng.standard_normal((64, 64)) / 8.0

    def run() -> None:
        x = x0
        for _ in range(200):
            x = np.tanh(x @ m)

    return run, 0.010


def spawn_kernel():
    """The CLI workload's reference kernel: start a bare interpreter, which is
    what most of a lorm command's CPU time goes to. About 40 ms of CPU on the
    reference machine."""

    def run() -> None:
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)

    return run, 0.040


class Pace:
    """Gauges how fast the host runs right now, between pieces of timed work.

    On a shared host the same work takes 15-30% more or less CPU time from
    one minute to the next, as other guests load the machine's cores, caches
    and memory; a median over runs cannot average that away. The gauge runs a
    fixed reference kernel that does not touch lorm and times it in CPU
    seconds; work timed between two gauges is scaled by
    ``2 * nominal / (before + after)``, so that it reads as on the idle
    reference machine. A change to lorm moves the work and not the kernel,
    so it shows in full.
    """

    def __init__(self, kernel) -> None:
        self.kernel, self.nominal = kernel()
        self.taken = 0.0  # CPU seconds spent in the kernel so far
        self.last = self.nominal

    def gauge(self) -> float:
        """Run the kernel once; its CPU seconds."""
        c0 = cpu_clock()
        self.kernel()
        took = cpu_clock() - c0
        self.taken += took
        self.last = took
        return took

    def split(self) -> float:
        """Gauge now; the scale for the work done since the last gauge."""
        before = self.last
        return self.scale(before, self.gauge())

    def scale(self, before: float, after: float) -> float:
        return 2.0 * self.nominal / (before + after)


@dataclass
class Round:
    """One repetition of a workload's work."""

    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    layers: dict[str, float] = field(default_factory=dict)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p, percentile(values, p)
    return None


def describe(values: list[float], what: str) -> str:
    found = tail(values)
    if found is None:
        return f"median of {len(values)} {what}; too few for a tail percentile"
    p, value = found
    return f"median of {len(values)} {what}; p{p:g} = {value:.6g}"


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def _windowing(stride: int = WINDOW_LEN) -> signal_io.WindowingConfig:
    return signal_io.WindowingConfig(window_len=WINDOW_LEN, context_len=CONTEXT_LEN, stride=stride)


def _synth_config(seed: int, duration: int, degrading: bool) -> synth.SynthConfig:
    return synth.SynthConfig(
        channels=CHANNELS,
        duration_samples=duration,
        noise_sigma=NOISE_SIGMA,
        degradation_onset=int(ONSET_FRACTION * duration),
        degradation_rate=DEGRADATION_RATE if degrading else 0.0,
        seed=seed,
    )


def _backbone() -> model.BackboneConfig:
    return model.BackboneConfig(
        max_seq_len=sequence.num_patches(CONTEXT_LEN, PATCH_LEN) * CHANNELS,
        num_tokens=NUM_TOKENS,
        num_channels=CHANNELS,
        patch_len=PATCH_LEN,
        **BACKBONE,
    )


def _prepare(series, seed: int):
    windows = signal_io.segment_windows(series, _windowing())
    train_w, val_w = signal_io.train_val_split(windows, 0.2, seed=seed)
    stats = signal_io.compute_channel_stats(signal_io.stack_windows(train_w))
    return train_w, val_w, stats


def _fit_codebooks(train_w, stats, seed: int, names) -> tokenizer.CodebookSet:
    targets = [
        signal_io.split_context_target(signal_io.normalize_window(w, stats), CONTEXT_LEN)[1]
        for w in train_w
    ]
    return tokenizer.fit_codebook_set(targets, k=NUM_TOKENS, seed=seed, channel_names=names)


class Workload:
    name = ""
    in_process = True
    kernel = staticmethod(batch_kernel)

    def __init__(self, root: str) -> None:
        self.root = root
        self.problems: list[str] = []
        self.pace = Pace(self.kernel)

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def setup(self) -> None:
        raise NotImplementedError

    def timed_setup(self) -> tuple[float, float, float]:
        """Set up once; wall, CPU and paced seconds."""
        self.pace.gauge()
        w0, c0 = clock(), cpu_clock()
        self.setup()
        wall, cpu = clock() - w0, cpu_clock() - c0
        return wall, cpu, cpu * self.pace.split()

    def run_round(self, traced: bool) -> Round:
        raise NotImplementedError

    def ops_per_round(self) -> int:
        raise NotImplementedError

    def end_to_end(self) -> dict[str, float]:
        """round_paced_s, primary_paced_ms and secondary_paced_ms from the untraced rounds."""
        raise NotImplementedError

    def report(self) -> list[tuple[str, float, str, str]]:
        """(name, value, unit, note) rows under the workload's own metric names."""
        raise NotImplementedError

    def samples(self) -> dict[str, list[float]]:
        """Every untraced sample the end-to-end figures are taken from."""
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class TrainTwoPhase(Workload):
    """Pretrain every tensor on one stationary run, then adapt with freeze=True
    on a second. Patience equals the epoch count, so every round does the same
    work."""

    name = "train_two_phase"

    def __init__(self, root: str, seed: int, tiny: bool) -> None:
        super().__init__(root)
        # 128 training windows (4 batches of 32) and one epoch per phase keep
        # a round under a second, so a run has dozens to take the median of;
        # patience equals the epoch count, so no round stops early
        self.duration = 20_000 if tiny else 51_360
        self.epochs = 1
        self.corpus_seed, self.target_seed, self.model_seed, self.train_seed = _seeds(seed, 4)
        self.backbone = _backbone()
        # per round and phase: (paced, wall) seconds of one epoch
        self.full_epoch: list[tuple[float, float]] = []
        self.frozen_epoch: list[tuple[float, float]] = []

    def setup(self) -> None:
        corpus = synth.generate_run(_synth_config(self.corpus_seed, self.duration, False), _windowing())
        target = synth.generate_run(_synth_config(self.target_seed, self.duration, False), _windowing())
        train_b, val_b, stats_b = _prepare(target.series, self.target_seed)
        books = _fit_codebooks(train_b, stats_b, self.target_seed, target.series.channel_names)
        train_a, val_a, stats_a = _prepare(corpus.series, self.corpus_seed)

        def examples(windows, stats):
            return train.build_examples(windows, stats, CONTEXT_LEN, books, PATCH_LEN)

        self.full_data = (*examples(train_a, stats_a), *examples(val_a, stats_a))
        self.frozen_data = (*examples(train_b, stats_b), *examples(val_b, stats_b))
        self.windows_per_epoch = len(train_a)

    def ops_per_round(self) -> int:
        return 2

    def _check(self, report: train.TrainReport, phase: str) -> bool:
        losses = report.train_losses + report.val_losses
        if len(report.epochs) != self.epochs or not all(math.isfinite(x) for x in losses):
            self.problem(f"{phase}: epochs {report.epochs}, losses {losses}")
            return False
        return True

    def _phase(self, data, params, cfg, freeze: bool):
        """Train one phase; its report, CPU, paced and wall seconds."""
        w0, c0 = clock(), cpu_clock()
        report = train.train_model(*data, params, self.backbone, cfg, freeze=freeze)
        wall, cpu = clock() - w0, cpu_clock() - c0
        return report, cpu, cpu * self.pace.split(), wall

    def run_round(self, traced: bool) -> Round:
        params = model.init_model(self.backbone, seed=self.model_seed)
        cfg = train.TrainConfig(max_epochs=self.epochs, patience=self.epochs, seed=self.train_seed)
        self.pace.gauge()
        full, full_cpu, full_paced, full_wall = self._phase(self.full_data, params, cfg, False)
        frozen_names = model.partition_parameters(params).frozen
        before = {n: params[n].tobytes() for n in frozen_names}
        frozen, frozen_cpu, frozen_paced, frozen_wall = self._phase(self.frozen_data, params, cfg, True)

        failed = 0 if self._check(full, "pretrain") else 1
        ok = self._check(frozen, "adapt")
        moved = sorted(n for n in frozen_names if params[n].tobytes() != before[n])
        if moved:
            self.problem(f"adapt changed frozen tensors {moved}")
            ok = False
        failed += 0 if ok else 1
        if not traced:
            self.full_epoch.append((full_paced / self.epochs, full_wall / self.epochs))
            self.frozen_epoch.append((frozen_paced / self.epochs, frozen_wall / self.epochs))
        return Round(wall_s=full_wall + frozen_wall, cpu_s=full_cpu + frozen_cpu,
                     attempted=2, failed=failed)

    def end_to_end(self) -> dict[str, float]:
        return {
            "round_paced_s": statistics.median(
                f[0] + a[0] for f, a in zip(self.full_epoch, self.frozen_epoch)),
            "primary_paced_ms": 1e3 * statistics.median(p for p, _ in self.full_epoch),
            "secondary_paced_ms": 1e3 * statistics.median(p for p, _ in self.frozen_epoch),
        }

    def samples(self) -> dict[str, list[float]]:
        return {
            "pretrain_epoch_paced_s": [p for p, _ in self.full_epoch],
            "adapt_epoch_paced_s": [p for p, _ in self.frozen_epoch],
            "pretrain_epoch_s": [w for _, w in self.full_epoch],
            "adapt_epoch_s": [w for _, w in self.frozen_epoch],
        }

    def report(self):
        rounds = f"rounds of {self.epochs} epoch over {self.windows_per_epoch} windows"
        rows = []
        for phase, samples in (("pretrain", self.full_epoch), ("adapt", self.frozen_epoch)):
            paced = [p for p, _ in samples]
            wall = [w for _, w in samples]
            rows.append((f"{phase}_epoch_s", statistics.median(wall), "s", "wall, " + describe(wall, rounds)))
            rows.append((f"{phase}_epoch_paced_s", statistics.median(paced), "s", describe(paced, rounds)))
        return rows


def _timed_rows(rows, window_len: int, stride: int, stamps: list, pace: Pace, gauges: list, every: int):
    """Yield sample rows. When a window's last sample leaves, note the wall
    and CPU time and the index of the last gauge; before every `every`-th
    window, gauge the host first, outside any window's latency."""
    due = window_len - 1
    window = 0
    for i, row in enumerate(rows):
        if i == due:
            if window and window % every == 0:
                gauges.append(pace.gauge())
            stamps.append((clock(), cpu_clock(), len(gauges) - 1))
            window += 1
            due += stride
        yield row


class MonitorDense(Workload):
    """Score a degrading run held in memory at a stride of 32 samples, so
    windows overlap heavily; no CSV and no process start."""

    name = "monitor_dense"
    kernel = staticmethod(window_kernel)
    stride = 32
    gauge_every = 50  # windows between two gauges of the host's pace

    def __init__(self, root: str, seed: int, tiny: bool) -> None:
        super().__init__(root)
        self.duration = 8_000 if tiny else 50_000
        self.buffer_len = 50 if tiny else 500
        self.healthy_seed, self.run_seed, self.model_seed = _seeds(seed, 3)
        self.config = monitor.MonitorConfig(buffer_len=self.buffer_len, threshold=0.2)
        # per pass: p50, p90 and p99 window latency and the pass's duration,
        # paced and wall
        self.passes: dict[str, list[float]] = {}
        self.latency_s: list[float] = []
        self.reference: bytes | None = None

    def setup(self) -> None:
        healthy = synth.generate_run(_synth_config(self.healthy_seed, self.duration, False), _windowing())
        train_w, _, stats = _prepare(healthy.series, self.healthy_seed)
        books = _fit_codebooks(train_w, stats, self.healthy_seed, healthy.series.channel_names)
        backbone = _backbone()
        checkpoint = model.Checkpoint(
            params=model.init_model(backbone, seed=self.model_seed),
            config=backbone,
            stats=stats,
            window_len=WINDOW_LEN,
            context_len=CONTEXT_LEN,
            channel_names=list(healthy.series.channel_names),
            codebook_hash="",
        )
        self.deployed = monitor.DeployedModel(checkpoint=checkpoint, codebooks=books)
        run = synth.generate_run(_synth_config(self.run_seed, self.duration, True), _windowing())
        self.rows = run.series.samples
        self.expected = (self.duration - WINDOW_LEN) // self.stride + 1

    def ops_per_round(self) -> int:
        return self.expected

    def run_round(self, traced: bool) -> Round:
        stamps: list[tuple[float, float, int]] = []
        wall_latency: list[float] = []
        cpu_latency = array("d")
        cpu_interval = array("d")  # from the previous record, gauges left out
        segment: list[int] = []
        wlf = array("d")
        hi_missing: list[bool] = []
        pace = self.pace
        gauges = [pace.gauge()]
        source = _timed_rows(self.rows, WINDOW_LEN, self.stride, stamps, pace, gauges, self.gauge_every)
        windows = signal_io.stream_windows(source, _windowing(self.stride), channel_count=CHANNELS)
        w0, c0 = clock(), cpu_clock()
        taken0 = pace.taken
        last, taken = c0, taken0
        for record in monitor.monitor_stream(self.deployed, windows, self.config):
            wall, cpu = clock(), cpu_clock()
            sent_wall, sent_cpu, seg = stamps[record.window_index - 1]
            wall_latency.append(wall - sent_wall)
            cpu_latency.append(cpu - sent_cpu)
            cpu_interval.append(cpu - last - (pace.taken - taken))
            segment.append(seg)
            last, taken = cpu, pace.taken
            wlf.append(record.wlf)
            hi_missing.append(record.hi is None)
        wall = clock() - w0
        cpu = cpu_clock() - c0 - (pace.taken - taken0)
        gauges.append(pace.gauge())

        if self.reference is None:
            self.reference = wlf.tobytes()
        reference = array("d")
        reference.frombytes(self.reference)
        failed = max(0, self.expected - len(wlf))
        if failed:
            self.problem(f"{len(wlf)} windows scored, expected {self.expected}")
        bad = 0
        for i, value in enumerate(wlf):
            same = i < len(reference) and value.hex() == reference[i].hex()
            if not (math.isfinite(value) and hi_missing[i] == (i < self.buffer_len) and same):
                bad += 1
        if bad:
            self.problem(f"{bad} windows failed the WLF/HI checks")
        if not traced and len(wlf) == self.expected:
            # each window scaled by the gauges either side of its segment
            scale = [pace.scale(a, b) for a, b in zip(gauges, gauges[1:])]
            latency = [v * scale[s] for v, s in zip(cpu_latency, segment)]
            for p in (50.0, 90.0, 99.0):
                self.passes.setdefault(f"paced_p{p:g}", []).append(percentile(latency, p))
                self.passes.setdefault(f"wall_p{p:g}", []).append(percentile(wall_latency, p))
            self.passes.setdefault("paced_pass", []).append(
                math.fsum(v * scale[s] for v, s in zip(cpu_interval, segment)))
            self.passes.setdefault("wall_pass", []).append(wall)
            self.latency_s.extend(wall_latency)
        return Round(wall_s=wall, cpu_s=cpu, attempted=self.expected, failed=failed + bad)

    def _median(self, key: str) -> float:
        return statistics.median(self.passes[key])

    def end_to_end(self) -> dict[str, float]:
        # each pass's own percentile, then the median over passes. The gated
        # tail is p90: p99 of 1553 windows rests on 16 of them and moves with
        # the host more than with lorm, so it is reported but not gated.
        if not self.passes:
            return {}
        return {
            "round_paced_s": self._median("paced_pass"),
            "primary_paced_ms": 1e3 * self._median("paced_p50"),
            "secondary_paced_ms": 1e3 * self._median("paced_p90"),
        }

    def samples(self) -> dict[str, list[float]]:
        return dict(self.passes)

    def report(self):
        n = len(self.passes["wall_pass"])
        rows = []
        for kind in ("wall", "paced"):
            per_s = [self.expected / s for s in self.passes[f"{kind}_pass"]]
            suffix = "" if kind == "wall" else "_paced"
            rows.append((f"monitor_windows_per_s{suffix}", statistics.median(per_s), "1/s",
                         f"{kind}, median of {n} passes of {self.expected} windows"))
            for p in (50, 90, 99):
                rows.append((f"window_latency_p{p}_ms{suffix}", 1e3 * self._median(f"{kind}_p{p}"), "ms",
                             f"{kind}, median over {n} passes of each pass's p{p}"))
        ms = [1e3 * s for s in self.latency_s]
        rows.append(("window_latency_pooled_ms", statistics.median(ms), "ms",
                     f"wall, {describe(ms, 'windows')}; "
                     f"{self.expected - math.ceil(0.99 * self.expected)} windows beyond p99 per pass"))
        return rows


# README quick start; (command, extra arguments, file renamed afterwards)
QUICK_START = [
    ("synth", ["--set", "synth.degradation_rate=0.0", "--seed", "{healthy_seed}"], ("signal.csv", "healthy.csv")),
    ("synth", ["--seed", "{degrading_seed}"], None),
    ("fit-codebooks", ["--set", "paths.signal=healthy.csv"], None),
    ("pretrain", ["--set", "paths.pretrain_signal=healthy.csv"], ("checkpoint.lorm", "pretrained.lorm")),
    ("train", ["--set", "paths.signal=healthy.csv", "--set", "paths.init_checkpoint=pretrained.lorm"], None),
    ("monitor", ["--set", "monitor.threshold=1e9"], None),
    ("calibrate", [], None),
    ("monitor", ["--set", "monitor.threshold={tau}"], None),
    ("eval", [], None),
]
BUILD_STEPS = 5  # synth .. train; the rest monitor and evaluate


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class CliPipeline(Workload):
    """The README quick start as sequential ``python -m lorm`` processes."""

    name = "cli_pipeline"
    in_process = False
    kernel = staticmethod(spawn_kernel)

    def __init__(self, root: str, seed: int, tiny: bool) -> None:
        super().__init__(root)
        duration = 16_000 if tiny else 32_000
        self.healthy_seed, self.degrading_seed, config_seed = _seeds(seed, 3)
        self.config = {
            "seed": config_seed,
            "tokenizer": {"num_tokens": NUM_TOKENS},
            "train": {"max_epochs": 1, "patience": 1},
            "monitor": {"buffer_len": 5 if tiny else 20},
            "synth": {
                "duration_samples": duration,
                "noise_sigma": NOISE_SIGMA,
                "degradation_onset": int(ONSET_FRACTION * duration),
                "degradation_rate": DEGRADATION_RATE,
                "cuts": 10 if tiny else 40,
            },
        }
        self.work = os.path.join(root, ".perfbench_out", "tmp", f"cli-{os.getpid()}")
        self.spans_dir = os.path.join(root, ".perfbench_out", "spans", self.name)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.rounds = 0
        self.hashes: dict[str, str] = {}
        # per pipeline: paced seconds of synth .. train and of the rest, and
        # wall seconds of the whole and of each command, all invocations summed
        self.build_paced: list[float] = []
        self.monitor_paced: list[float] = []
        self.pipeline_s: list[float] = []
        self.command_s: dict[str, list[float]] = {}
        self.import_s: list[float] = []

    def setup(self) -> None:
        os.makedirs(self.work, exist_ok=True)
        self.config_path = os.path.join(self.work, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        # a cold interpreter start, so the first timed command finds files cached
        subprocess.run(
            [sys.executable, "-c", "import lorm.cli"],
            cwd=self.root, env=self.env, check=True, timeout=120,
        )

    def ops_per_round(self) -> int:
        return len(QUICK_START)

    def _command(self, out: str, step: int, command: str, extra: list[str], traced: bool):
        argv = [command, "--config", self.config_path, "--out", out, *extra]
        spans_path = None
        if traced:
            spans_path = os.path.join(self.spans_dir, f"round{self.rounds}-{step}-{command}.json")
            argv = [sys.executable, os.path.join(self.root, "perfbench", "launch.py"), spans_path, *argv]
        else:
            argv = [sys.executable, "-m", "lorm", *argv]
        w0, c0 = clock(), cpu_clock()
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=150)
        wall, cpu = clock() - w0, cpu_clock() - c0
        return wall, cpu, cpu * self.pace.split(), proc, spans_path

    def run_round(self, traced: bool) -> Round:
        self.rounds += 1
        out = os.path.join(self.work, f"round{self.rounds}")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        if traced:
            os.makedirs(self.spans_dir, exist_ok=True)
        values = {"healthy_seed": self.healthy_seed, "degrading_seed": self.degrading_seed}
        walls: list[float] = []
        cpus: list[float] = []
        paced: list[float] = []
        commands: dict[str, float] = {}
        layers: dict[str, float] = {}
        failed = 0
        self.pace.gauge()
        for step, (command, extra, rename) in enumerate(QUICK_START):
            if command == "monitor" and "{tau}" in " ".join(extra):
                values["tau"] = repr(self._tau(out))
            wall, cpu, step_paced, proc, spans_path = self._command(
                out, step, command, [a.format(**values) for a in extra], traced)
            if proc.returncode != 0:
                failed += 1
                self.problem(f"{command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            elif rename is not None:
                os.replace(os.path.join(out, rename[0]), os.path.join(out, rename[1]))
            walls.append(wall)
            cpus.append(cpu)
            paced.append(step_paced)
            commands[command] = commands.get(command, 0.0) + wall
            if spans_path is not None and os.path.exists(spans_path):
                with open(spans_path, "r", encoding="utf-8") as fh:
                    child = json.load(fh)
                self.import_s.append(child["import_s"])
                for key, value in child["totals"].items():
                    layers[key] = layers.get(key, 0.0) + value
        failed += self._check_outputs(out)
        shutil.rmtree(out, ignore_errors=True)
        if not traced:
            self.build_paced.append(sum(paced[:BUILD_STEPS]))
            self.monitor_paced.append(sum(paced[BUILD_STEPS:]))
            self.pipeline_s.append(sum(walls))
            for command, wall in commands.items():
                self.command_s.setdefault(command, []).append(wall)
        return Round(wall_s=sum(walls), cpu_s=sum(cpus), attempted=len(QUICK_START), failed=failed,
                     layers=layers)

    def _tau(self, out: str) -> float:
        try:
            with open(os.path.join(out, "metrics.json"), "r", encoding="utf-8") as fh:
                return float(json.load(fh)["calibration"]["tau"])
        except (OSError, ValueError, KeyError, TypeError):
            return float("nan")

    def _check_outputs(self, out: str) -> int:
        failed = 0
        tau = self._tau(out)
        try:
            with open(os.path.join(out, "metrics.json"), "r", encoding="utf-8") as fh:
                classification = json.load(fh).get("classification")
        except (OSError, ValueError):
            classification = None
        if not math.isfinite(tau) or not isinstance(classification, dict):
            failed += 1
            self.problem(f"metrics.json: tau {tau}, classification {classification!r}")
        for name in ("checkpoint.lorm", "hi.csv"):
            path = os.path.join(out, name)
            digest = _sha256(path) if os.path.exists(path) else "missing"
            expected = self.hashes.setdefault(name, digest)
            if digest == "missing" or digest != expected:
                failed += 1
                self.problem(f"{name}: sha256 {digest[:12]} differs from {expected[:12]}")
        return failed

    def end_to_end(self) -> dict[str, float]:
        return {
            "round_paced_s": statistics.median(
                b + m for b, m in zip(self.build_paced, self.monitor_paced)),
            "primary_paced_ms": 1e3 * statistics.median(self.build_paced),
            "secondary_paced_ms": 1e3 * statistics.median(self.monitor_paced),
        }

    def samples(self) -> dict[str, list[float]]:
        return {"build_paced_s": self.build_paced, "monitor_paced_s": self.monitor_paced,
                "pipeline_s": self.pipeline_s}

    def report(self):
        n = len(self.pipeline_s)
        rows = [("pipeline_s", statistics.median(self.pipeline_s), "s", "wall, " + describe(self.pipeline_s, "pipelines"))]
        for command, walls in self.command_s.items():
            rows.append((f"cli.{command}.wall_s", statistics.median(walls), "s",
                         f"median of {n} pipelines, all invocations summed"))
        return rows

    def layer_extras(self) -> dict[str, float]:
        extras = {f"cli.{c}.wall_s": statistics.median(w) for c, w in self.command_s.items()}
        if self.import_s:
            extras["cli.import_s"] = statistics.median(self.import_s)
        return extras

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (TrainTwoPhase, MonitorDense, CliPipeline)}
