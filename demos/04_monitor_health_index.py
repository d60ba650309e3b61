"""
Online monitoring: prediction error as a health index
=====================================================

Once trained on healthy data, the model's per-window token cross-entropy
(WLF) is a drift detector: the first windows of a deployment set the
baseline, and the health index (HI) is each window's WLF minus that baseline
mean. The alarm threshold tau is calibrated from a run with known wear: the
mean HI over the cut whose wear sits closest to the 300 um limit.
"""

import json
import os
import tempfile

import numpy as np

from lorm import read_health_csv
from lorm.cli import main
from lorm.evaluation import WearTable

workdir = tempfile.mkdtemp(prefix="lorm_demo_")
config = os.path.join(workdir, "config.json")
with open(config, "w", encoding="utf-8") as fh:
    json.dump(
        {
            "seed": 6,
            "windowing": {"window_len": 321, "context_len": 320, "stride": 160},
            "patch": {"patch_len": 16},
            "tokenizer": {"num_tokens": 8},
            "model": {"hidden_dim": 64, "num_layers": 2, "num_heads": 4, "ffn_dim": 256},
            "train": {"max_epochs": 20, "patience": 20},
            "monitor": {"buffer_len": 50, "threshold": 0.2},
            "synth": {
                "channels": 3,
                "duration_samples": 40000,
                "noise_sigma": 0.05,
                "degradation_onset": 24000,
                "degradation_rate": 0.00028,
                "cuts": 20,
            },
        },
        fh,
    )

base = ["--config", config, "--out", workdir]


def run(command, *extra):
    print(f"--- lorm {command}" + (f"  [{' '.join(extra)}]" if extra else ""))
    rc = main([command] + base + list(extra))
    assert rc == 0, f"{command} failed with exit code {rc}"


# three recordings: a corpus machine for pretraining, the target machine
# while still healthy, and the target machine degrading to failure; the
# healthy recordings run longer so training sees plenty of boundary cases
long_healthy = ["--set", "synth.degradation_rate=0.0",
                "--set", "synth.duration_samples=200000"]
run("synth", *long_healthy, "--seed", "7")
os.rename(os.path.join(workdir, "signal.csv"), os.path.join(workdir, "corpus.csv"))
run("synth", *long_healthy, "--seed", "8")
os.rename(os.path.join(workdir, "signal.csv"), os.path.join(workdir, "healthy.csv"))
run("synth", "--seed", "4")  # the degrading tool, a draw unseen by training

# learning steps use non-overlapping windows; monitoring keeps stride 80
no_overlap = ["--set", "windowing.stride=321"]

# codebooks come from the target machine's healthy reference
run("fit-codebooks", "--set", "paths.signal=healthy.csv", *no_overlap)

# phase one: train every parameter on the corpus machine, at a hotter rate
run(
    "pretrain",
    "--set", "paths.pretrain_signal=corpus.csv",
    "--set", "train.learning_rate=0.003",
    *no_overlap,
)
os.rename(os.path.join(workdir, "checkpoint.lorm"), os.path.join(workdir, "pretrained.lorm"))

# phase two: a short adaptation to the target machine, backbone frozen
run(
    "train",
    "--set", "paths.signal=healthy.csv",
    "--set", "paths.init_checkpoint=pretrained.lorm",
    "--set", "train.max_epochs=10",
    *no_overlap,
)

# first pass over the degrading stream: collect the health index without
# alarming (huge threshold)
run("monitor", "--set", "monitor.threshold=1e9")

# calibrate tau from the collected HI and the known wear table
run("calibrate")
with open(os.path.join(workdir, "metrics.json"), "r", encoding="utf-8") as fh:
    tau = json.load(fh)["calibration"]["tau"]

# second pass: alarms against the calibrated threshold, then score them
run("monitor", "--set", f"monitor.threshold={tau!r}")
run("eval")

# the strict wear>300 labelling counts alarms in the 150-300 ramp as false
# positives, so break the alarms down by what the tool actually looked like
health = read_health_csv(os.path.join(workdir, "hi.csv"))
table = WearTable.from_csv(os.path.join(workdir, "wear.csv"))
wear = table.wear_um[table.locate(health.window_index[health.alarm])]
zones = {
    "flat-healthy": int(np.sum(wear <= 150.0)),
    "wear rising to the limit": int(np.sum((wear > 150.0) & (wear <= 300.0))),
    "past the limit": int(np.sum(wear > 300.0)),
}
print("\nalarms by wear zone:", ", ".join(f"{v} {k}" for k, v in zones.items()))

# sketch the trajectory in the terminal
defined = ~np.isnan(health.hi)
windows, his, alarms = health.window_index[defined], health.hi[defined], health.alarm[defined]
lo, hi = his.min(), his.max()
print(f"\nhealth index over {his.size} scored windows, range [{lo:.3f}, {hi:.3f}]:")
for idx, chunk, alarmed in zip(*(np.array_split(c, 20) for c in (windows, his, alarms))):
    level = float(np.mean(chunk))
    bar = "#" * max(0, int(40 * (level - lo) / (hi - lo + 1e-12)))
    marker = " ALARM" if alarmed.any() else ""
    print(f"  window {idx[0]:>4}  {level:+.3f} |{bar}{marker}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    plt.figure(figsize=(8, 3))
    plt.plot(windows, his, lw=0.8)
    plt.axhline(tau, color="orange", lw=0.8, ls="--", label=f"tau={tau:.3f}")
    if alarms.any():
        plt.scatter(windows[alarms], his[alarms], s=6, color="red", label="alarm")
    plt.legend()
    plt.xlabel("window")
    plt.ylabel("health index")
    plt.tight_layout()
    out = os.path.join(workdir, "health_index.png")
    plt.savefig(out, dpi=120)
    print(f"\nplot written to {out}")
except ImportError:
    print("\nmatplotlib not installed; skipped the plot")
