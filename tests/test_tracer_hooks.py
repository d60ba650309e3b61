"""The benchmark's tracer hooks still attach to lorm.

``perfbench/spans.py`` (standard library only) wraps lorm functions by module
and attribute name, and counts work from their first positional argument. A
rename or signature change there would otherwise show only in traced
benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from lorm import model, train

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves():
    spans = load_spans()
    for module_name, attr, *_ in spans.SPECS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr}"


def test_traced_training_round_counts_work():
    spans = load_spans()
    cfg = model.BackboneConfig(
        hidden_dim=8, num_layers=1, num_heads=2, ffn_dim=16,
        max_seq_len=6, num_tokens=4, num_channels=2, patch_len=5,
    )
    rng = np.random.default_rng(0)
    p = rng.normal(size=(12, cfg.max_seq_len, cfg.patch_len))
    y = rng.integers(0, cfg.num_tokens, size=(12, cfg.num_channels))
    raw_forward = model.forward_batch
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        params = model.init_model(cfg, seed=0)
        train_cfg = train.TrainConfig(batch_size=4, max_epochs=1, patience=1)
        train.train_model(p[:8], y[:8], p[8:], y[8:], params, cfg, train_cfg, freeze=True)
    finally:
        uninstall()
    assert model.forward_batch is raw_forward
    # per window: one FFN activation (t * ffn) and one head activation (d)
    per_window = cfg.max_seq_len * cfg.ffn_dim + cfg.hidden_dim
    assert tracer.counters["model.forward_batch.windows"] == 8 + 4
    assert tracer.counters["model.gelu.elements"] == 12 * per_window
    assert tracer.counters["model.gelu_grad.elements"] == 8 * per_window
    totals = tracer.totals()
    assert totals["train.train_model.calls"] == 1
    assert totals["model.backward_from_scores.calls"] == 2
