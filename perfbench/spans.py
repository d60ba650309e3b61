"""In-memory span tracer and the wrappers that attach it to lorm's modules.

A span is one call into a public lorm function, timed from the benchmark's
side: name, start, end and the id of the span that was open when it started.
Wrappers are installed by rebinding attributes in the benchmark process, so
lorm's source is unchanged. A function that other lorm modules imported by
name (``from .model import forward_batch``) is rebound in each of them.

Generator functions (sample sources, window assembly, monitoring) get one
span per ``next()``, because calling them only builds the generator.

Self time is a span's duration minus the time its child spans cover. Busy
time counts only the outermost span of a name, so recursion or a wrapped
function calling another wrapped alias is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array


class Tracer:
    """Spans of one process, kept in flat arrays until written out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        depth = self._depth.get(nid, 0)
        self._depth[nid] = depth + 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if depth else 0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name_id[sid]] -= 1

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def totals(self, lo: int = 0, hi: int | None = None) -> dict[str, float]:
        """busy_s, self_s and calls per span name, over spans lo..hi-1."""
        hi = len(self) if hi is None else hi
        child = [0.0] * (hi - lo)
        for sid in range(lo, hi):
            p = self.parent[sid]
            if p >= lo:
                child[p - lo] += self.end[sid] - self.start[sid]
        out: dict[str, float] = {}
        for sid in range(lo, hi):
            name = self.names[self.name_id[sid]]
            dur = self.end[sid] - self.start[sid]
            if not self.nested[sid]:
                _add(out, f"{name}.busy_s", dur)
            _add(out, f"{name}.self_s", dur - child[sid - lo])
            _add(out, f"{name}.calls", 1)
        return out

    def dump(self) -> dict:
        """Every span, column-wise, for writing to a file."""
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }


def _add(into: dict[str, float], key: str, value: float) -> None:
    into[key] = into.get(key, 0) + value


def merge(into: dict[str, float], extra: dict[str, float]) -> None:
    for key, value in extra.items():
        _add(into, key, value)


def _wrap_call(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if counter is not None:
            counter(tracer, args, result)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn, per_item):
    def traced(it):
        while True:
            sid = tracer.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(sid)
            if per_item is not None:
                tracer.count(per_item)
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return traced(fn(*args, **kwargs))

    return wrapper


def _count_windows(tracer, args, result):
    tracer.count("model.forward_batch.windows", len(args[0]))


def _count_elements(key):
    def counter(tracer, args, result):
        tracer.count(key, args[0].size)

    return counter


def _count_iters(tracer, args, result):
    tracer.count("tokenizer.lloyd_kmeans.iters", result.n_iter)


def _count_parsed(tracer, args, result):
    tracer.count("signal_io.samples_parsed", result.num_samples)


# (module, attribute, span name, counter or per-item counter key, generator?)
SPECS = [
    ("lorm.synth", "generate_run", "synth.generate_run", None, False),
    ("lorm.signal_io", "read_signal_csv", "signal_io.read_signal_csv", _count_parsed, False),
    ("lorm.signal_io", "write_signal_csv", "signal_io.write_signal_csv", None, False),
    ("lorm.signal_io", "csv_sample_source", "signal_io.csv_sample_source", "signal_io.samples_parsed", True),
    ("lorm.signal_io", "stream_windows", "signal_io.stream_windows", None, True),
    ("lorm.signal_io", "segment_windows", "signal_io.segment_windows", None, False),
    ("lorm.signal_io", "train_val_split", "signal_io.train_val_split", None, False),
    ("lorm.signal_io", "compute_channel_stats", "signal_io.compute_channel_stats", None, False),
    ("lorm.signal_io", "normalize_window", "signal_io.normalize_window", None, False),
    ("lorm.tokenizer", "fit_codebook_set", "tokenizer.fit_codebook_set", None, False),
    ("lorm.tokenizer", "lloyd_kmeans", "tokenizer.lloyd_kmeans", _count_iters, False),
    ("lorm.tokenizer", "tokenize_window", "tokenizer.tokenize_window", None, False),
    ("lorm.tokenizer", "save_codebooks", "tokenizer.save_codebooks", None, False),
    ("lorm.tokenizer", "load_codebooks", "tokenizer.load_codebooks", None, False),
    ("lorm.tokenizer", "codebook_file_hash", "tokenizer.codebook_file_hash", None, False),
    ("lorm.sequence", "build_mcps", "sequence.build_mcps", None, False),
    ("lorm.model", "init_model", "model.init_model", None, False),
    ("lorm.model", "forward_batch", "model.forward_batch", _count_windows, False),
    ("lorm.model", "backward_from_scores", "model.backward_from_scores", None, False),
    ("lorm.model", "gelu", "model.gelu", _count_elements("model.gelu.elements"), False),
    ("lorm.model", "gelu_grad", "model.gelu_grad", _count_elements("model.gelu_grad.elements"), False),
    ("lorm.model", "save_checkpoint", "model.save_checkpoint", None, False),
    ("lorm.model", "load_checkpoint", "model.load_checkpoint", None, False),
    ("lorm.train", "build_examples", "train.build_examples", None, False),
    ("lorm.train", "train_model", "train.train_model", None, False),
    ("lorm.train", "loss_and_grad", "train.loss_and_grad", None, False),
    ("lorm.train", "dataset_loss", "train.dataset_loss", None, False),
    ("lorm.train", "Adam.step", "train.adam_step", None, False),
    ("lorm.train", "write_train_report_csv", "train.write_train_report_csv", None, False),
    ("lorm.monitor", "score_window", "monitor.score_window", None, False),
    ("lorm.monitor", "monitor_stream", "monitor.monitor_stream", None, True),
    ("lorm.monitor", "calibrate_threshold", "monitor.calibrate_threshold", None, False),
    ("lorm.monitor", "write_health_csv", "monitor.write_health_csv", None, False),
    ("lorm.monitor", "read_health_csv", "monitor.read_health_csv", None, False),
    ("lorm.monitor", "DeployedModel.from_files", "monitor.deployed_from_files", None, False),
    ("lorm.evaluation", "WearTable.from_csv", "evaluation.wear_from_csv", None, False),
    ("lorm.evaluation", "label_windows", "evaluation.label_windows", None, False),
    ("lorm.evaluation", "compute_metrics", "evaluation.compute_metrics", None, False),
    ("lorm.evaluation", "write_metrics_json", "evaluation.write_metrics_json", None, False),
]

# spans opened by the benchmark itself rather than by a wrapper
EXTRA_SPAN_NAMES = ["cli.main"]


def span_names() -> list[str]:
    return [spec[2] for spec in SPECS] + EXTRA_SPAN_NAMES


def install(tracer: Tracer):
    """Rebind every function in SPECS to a traced wrapper; returns an undo."""
    undo = []
    lorm_modules = [m for n, m in sys.modules.items() if n == "lorm" or n.startswith("lorm.")]
    for module_name, attr, name, counter, generator in SPECS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = _wrap_call(tracer, name, fn, counter)
            setattr(cls, method, classmethod(wrapped) if is_classmethod else wrapped)
            undo.append((cls, method, raw))
            continue
        fn = getattr(module, attr)
        if generator:
            wrapped = _wrap_generator(tracer, name, fn, counter)
        else:
            wrapped = _wrap_call(tracer, name, fn, counter)
        for mod in lorm_modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, fn))

    def uninstall() -> None:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return uninstall
