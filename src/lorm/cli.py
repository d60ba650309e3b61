"""Command-line pipeline driver.

Subcommands cover the whole workflow: synth, fit-codebooks, pretrain, train,
monitor, calibrate, eval. Behaviour is controlled by one JSON config document
with a section per concern; any scalar can be overridden with repeatable
--set section.key=value flags. Outputs land under --out with fixed names
(signal.csv, wear.csv, codebooks.json, checkpoint.lorm, train_report.csv,
hi.csv, metrics.json).

Relative paths in the config resolve against --out, so chained commands in
one directory find each other's outputs. A signal source of the form
tcp://host:port streams samples from a socket instead of a file (monitor
only); a signal file is always read whole.

Exit codes: 0 success, 2 for usage or configuration problems (the diagnostic
names the offending field), 1 for runtime failures, 130 when interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import Sequence

import numpy as np

from ._checks import check_int, check_real, quote
from .evaluation import (
    WearTable,
    compute_metrics,
    format_metrics_table,
    label_windows,
    write_metrics_json,
)
from .model import (
    BackboneConfig,
    Checkpoint,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .monitor import (
    DeployedModel,
    HealthColumns,
    MonitorConfig,
    calibrate_threshold,
    format_alarm_line,
    monitor_stream,
    read_health_csv,
    write_health_csv,
)
from .sequence import num_patches
from .signal_io import (
    MultiChannelSeries,
    WindowingConfig,
    compute_channel_stats,
    normalize_window,
    read_signal_csv,
    segment_windows,
    socket_sample_source,
    stream_windows,
    train_val_split,
    write_signal_csv,
)
from .synth import SynthConfig, generate_run
from .tokenizer import fit_codebook_set, load_codebooks, save_codebooks
from .train import (
    TrainConfig,
    build_examples,
    train_model,
    write_train_report_csv,
)

__all__ = ["ConfigError", "default_config", "load_run_config", "main"]


class ConfigError(ValueError):
    """Configuration or usage problem; maps to exit code 2."""


def _field_defaults(cls, skip=()) -> dict:
    """The field defaults of a config dataclass, less the fields in skip."""
    return {f.name: f.default for f in fields(cls) if f.name not in skip}


# the patch, tokenizer, model, train, monitor and synth defaults are the
# config dataclasses' own field defaults; the model section leaves out what
# the data and the other sections decide
DEFAULT_CONFIG: dict = {
    "seed": 0,
    "windowing": {"window_len": 321, "context_len": 320, "stride": 321},
    "patch": {"patch_len": BackboneConfig.patch_len},
    "tokenizer": {"num_tokens": BackboneConfig.num_tokens},
    "model": _field_defaults(
        BackboneConfig, skip={"max_seq_len", "num_channels", "num_tokens", "patch_len"}
    ),
    "train": _field_defaults(TrainConfig, skip={"seed"}),
    "monitor": _field_defaults(MonitorConfig),
    "synth": _field_defaults(SynthConfig, skip={"seed"}),
    "eval": {"wear_limit_um": 300.0},
    "paths": {
        "signal": "signal.csv",
        "pretrain_signal": "",
        "wear": "wear.csv",
        "codebooks": "codebooks.json",
        "checkpoint": "checkpoint.lorm",
        "init_checkpoint": "",
        "hi": "hi.csv",
    },
}


def default_config() -> dict:
    return json.loads(json.dumps(DEFAULT_CONFIG))


@dataclass
class RunConfig:
    """Validated settings for one invocation. ``backbone`` holds the model, patch
    and tokenizer sections; each command sets max_seq_len and num_channels."""

    seed: int
    out_dir: str
    windowing: WindowingConfig
    backbone: BackboneConfig
    train: TrainConfig
    monitor: MonitorConfig
    synth: SynthConfig
    wear_limit_um: float
    paths: dict[str, str]

    def __post_init__(self) -> None:
        for key, value in self.paths.items():
            if not isinstance(value, str):
                raise ConfigError(
                    f'paths.{key} must be a file name or "" for none, got {quote(value)}'
                )

    def resolve(self, key: str, feed: bool = False) -> str:
        """The existing file that paths.<key> names, a relative name under the
        out dir. Only where ``feed`` is set may it be a tcp://host:port source,
        which is returned as given."""
        value = self.paths[key]
        if not value:
            raise ConfigError(f"paths.{key} is required for this command")
        if value.startswith("tcp://"):
            if not feed:
                raise ConfigError(f"paths.{key}: this command needs a file, not a socket")
            return value
        path = os.path.join(self.out_dir, value)
        if not os.path.exists(path):
            raise ConfigError(f"paths.{key}: no such file: {path}")
        return path

    def out_path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)


def _merge(base: dict, extra: dict, prefix: str = "") -> None:
    """Write extra over base, key by key: every key must be in base, a section
    takes only an object, and a scalar takes no object with keys."""
    for key, value in extra.items():
        where = f"{prefix}{key}"
        section = isinstance(base.get(key), dict)
        if key not in base or (isinstance(value, dict) and value and not section):
            # the whole dotted key, as --set spells it
            while isinstance(value, dict) and value:
                sub, value = next(iter(value.items()))
                where = f"{where}.{sub}"
            raise ConfigError(f"unknown config key: {where}")
        if section:
            if not isinstance(value, dict):
                raise ConfigError(f"{where} is a section, not a scalar")
            _merge(base[key], value, prefix=f"{where}.")
        else:
            base[key] = value


def _set_update(assignment: str) -> dict:
    """--set a.b=v as the config fragment {a: {b: v}}. v is its JSON value, or
    the text itself where that is not JSON or is an object: --set writes one
    scalar, never a section."""
    if "=" not in assignment:
        raise ConfigError(f"--set expects section.key=value, got {assignment!r}")
    dotted, text = assignment.split("=", 1)
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        value = text
    *sections, leaf = dotted.strip().split(".")
    update = {leaf: text if isinstance(value, dict) else value}
    for section in reversed(sections):
        update = {section: update}
    return update


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, optional config file, --set overrides, and --seed, then
    validate every section eagerly so bad values fail before any work."""
    config = default_config()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deeply
            raise ConfigError(f"{args.config}: invalid JSON ({exc})") from None
        if not isinstance(user, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        _merge(config, user)
    for assignment in args.set or []:
        _merge(config, _set_update(assignment))
    if args.seed is not None:
        _merge(config, {"seed": args.seed})

    try:
        seed = config["seed"]
        check_int("seed", seed, low=0)
        windowing = WindowingConfig(**config["windowing"])
        backbone = BackboneConfig(**config["model"], **config["patch"], **config["tokenizer"])
        train_cfg = TrainConfig(seed=seed, **config["train"])
        monitor_cfg = MonitorConfig(**config["monitor"])
        synth_cfg = SynthConfig(seed=seed, **config["synth"])
        wear_limit = check_real("wear_limit_um", config["eval"]["wear_limit_um"])
    except (TypeError, ValueError, OverflowError) as exc:
        # a dataclass message starts with its field name; name the section too
        message = str(exc)
        key = message.split(" ", 1)[0]
        section = next((name for name, v in config.items() if isinstance(v, dict) and key in v), "")
        raise ConfigError(f"{section}.{message}" if section else message) from None

    return RunConfig(
        seed=seed,
        out_dir=args.out or ".",
        windowing=windowing,
        backbone=backbone,
        train=train_cfg,
        monitor=monitor_cfg,
        synth=synth_cfg,
        wear_limit_um=wear_limit,
        paths=config["paths"],
    )


def _prepare_splits(cfg: RunConfig, series: MultiChannelSeries):
    """Shared deterministic prep: windows, split, training-split stats."""
    windows = segment_windows(series, cfg.windowing)
    if len(windows) < 2:
        raise ConfigError(
            f"signal yields {len(windows)} windows; need at least 2 "
            f"(window_len {cfg.windowing.window_len}, stride {cfg.windowing.stride})"
        )
    train_w, val_w = train_val_split(windows, cfg.train.val_fraction, seed=cfg.seed)
    stats = compute_channel_stats(np.concatenate(train_w))
    return train_w, val_w, stats


def cmd_synth(cfg: RunConfig) -> int:
    if cfg.synth.duration_samples < cfg.windowing.window_len:
        raise ConfigError(
            f"synth.duration_samples is {cfg.synth.duration_samples}, shorter than "
            f"windowing.window_len {cfg.windowing.window_len}: the run would hold no window"
        )
    run = generate_run(cfg.synth, cfg.windowing)
    write_signal_csv(run.series, cfg.out_path("signal.csv"))
    run.wear.to_csv(cfg.out_path("wear.csv"))
    print(
        f"wrote {run.series.num_samples} samples x {run.series.num_channels} channels, "
        f"{run.wear.cut_id.size} cuts"
    )
    return 0


def cmd_fit_codebooks(cfg: RunConfig) -> int:
    signal_path = cfg.resolve("signal")
    series = read_signal_csv(signal_path)
    train_w, _, stats = _prepare_splits(cfg, series)
    if len(train_w) < cfg.backbone.num_tokens:
        raise ConfigError(
            f"tokenizer.num_tokens is {cfg.backbone.num_tokens}, but {signal_path} yields "
            f"{len(train_w)} training windows; k-means needs at least one per token"
        )
    targets = normalize_window(np.stack(train_w)[:, cfg.windowing.context_len :], stats)
    codebooks = fit_codebook_set(
        targets, k=cfg.backbone.num_tokens, seed=cfg.seed, channel_names=series.channel_names
    )
    save_codebooks(codebooks, cfg.out_path("codebooks.json"))
    print(f"wrote codebooks.json (K={codebooks.K}, channels={codebooks.num_channels})")
    return 0


def _run_training(cfg: RunConfig, freeze: bool, signal_key: str) -> int:
    signal_path = cfg.resolve(signal_key)
    codebooks_path = cfg.resolve("codebooks")
    init_path = cfg.resolve("init_checkpoint") if cfg.paths["init_checkpoint"] else ""
    series = read_signal_csv(signal_path)
    train_w, val_w, stats = _prepare_splits(cfg, series)
    codebooks = load_codebooks(codebooks_path)
    target_dim = cfg.windowing.window_len - cfg.windowing.context_len
    try:
        codebooks.check_fits(cfg.backbone.num_tokens, target_dim, series.channel_names, "this run")
    except ValueError as exc:
        raise ConfigError(f"paths.codebooks: {exc}") from None

    seq_len = num_patches(cfg.windowing.context_len, cfg.backbone.patch_len) * series.num_channels
    backbone = replace(cfg.backbone, max_seq_len=seq_len, num_channels=series.num_channels)
    if init_path:
        ckpt = load_checkpoint(init_path)
        if ckpt.channel_names != series.channel_names:
            raise ConfigError(
                f"paths.init_checkpoint: trained on channels {ckpt.channel_names}, "
                f"signal has {series.channel_names}"
            )
        theirs, mine = asdict(ckpt.config), asdict(backbone)
        # max_seq_len last: with the channels and patch_len equal, only
        # context_len, which the checkpoint records, changes it; name that
        for name in sorted(mine, key="max_seq_len".__eq__):
            if theirs[name] != mine[name]:
                if name == "max_seq_len":
                    name = "context_len"
                    theirs[name], mine[name] = ckpt.context_len, cfg.windowing.context_len
                raise ConfigError(
                    f"paths.init_checkpoint: checkpoint has {name}={theirs[name]!r}, "
                    f"this run {mine[name]!r}"
                )
        params = ckpt.params
    else:
        params = init_model(backbone, seed=cfg.seed)

    p_train, y_train = build_examples(
        train_w, stats, cfg.windowing.context_len, codebooks, backbone.patch_len
    )
    p_val, y_val = build_examples(
        val_w, stats, cfg.windowing.context_len, codebooks, backbone.patch_len
    )
    report = train_model(
        p_train, y_train, p_val, y_val, params, backbone, cfg.train, freeze=freeze
    )
    write_train_report_csv(report, cfg.out_path("train_report.csv"))
    ckpt = Checkpoint(
        params=params,
        config=backbone,
        stats=stats,
        window_len=cfg.windowing.window_len,
        context_len=cfg.windowing.context_len,
        channel_names=series.channel_names,
        codebook_hash=codebooks.file_hash,
    )
    save_checkpoint(cfg.out_path("checkpoint.lorm"), ckpt)
    print(
        f"best epoch {report.best_epoch} val_loss {report.best_val_loss:.6f} "
        f"({'early stop' if report.stopped_early else 'ran to max_epochs'})"
    )
    return 0


def cmd_pretrain(cfg: RunConfig) -> int:
    key = "pretrain_signal" if cfg.paths["pretrain_signal"] else "signal"
    return _run_training(cfg, freeze=False, signal_key=key)


def cmd_train(cfg: RunConfig) -> int:
    return _run_training(cfg, freeze=True, signal_key="signal")


def _window_source(cfg: RunConfig, deployed: DeployedModel):
    """Raw windows for monitoring, none read before the first is asked for: a
    file is read whole and segmented, a tcp:// feed windowed as it arrives."""
    path = cfg.resolve("signal", feed=True)
    windowing = WindowingConfig(
        window_len=deployed.checkpoint.window_len,
        context_len=deployed.checkpoint.context_len,
        stride=cfg.windowing.stride,
    )
    names = deployed.checkpoint.channel_names
    if not path.startswith("tcp://"):
        return _file_windows(path, windowing, names)
    host, sep, port_text = path[len("tcp://") :].partition(":")
    if not sep or not host:
        raise ConfigError(f"paths.signal: expected tcp://host:port, got {path!r}")
    digits = port_text.lstrip("0")  # a port is in ASCII digits, not "+80" or "8_0"
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        samples = socket_sample_source(host, int(digits), timeout_s=cfg.monitor.read_timeout_s)
    except ValueError:  # the library checks the range; int() refuses over 4300 digits
        raise ConfigError(f"paths.signal: bad port in {path!r}") from None
    return stream_windows(samples, windowing, channel_count=len(names), source=path)


def _file_windows(path: str, windowing: WindowingConfig, names: list[str]):
    series = read_signal_csv(path)
    if series.channel_names != names:
        raise ValueError(
            f"{path}: channels {series.channel_names}, but the checkpoint expects {names}"
        )
    yield from segment_windows(series, windowing)


def cmd_monitor(cfg: RunConfig) -> int:
    deployed = DeployedModel.from_files(cfg.resolve("checkpoint"), cfg.resolve("codebooks"))
    windows, hi_path = _window_source(cfg, deployed), cfg.out_path("hi.csv")
    counts: list[int] = []  # rows in hi.csv and alarms among them, once it is open

    def records():
        counts[:] = [0, 0]
        for record in monitor_stream(deployed, windows, cfg.monitor):
            if record.alarm:
                counts[1] += 1
                print(format_alarm_line(record, cfg.monitor.threshold))
            yield record
            counts[0] += 1

    try:
        write_health_csv(records(), hi_path)
    except (KeyboardInterrupt, ValueError, OSError, RuntimeError) as exc:
        if not counts:  # hi.csv was never opened
            raise
        held = f"{hi_path} holds {counts[0]} windows"
        if isinstance(exc, KeyboardInterrupt):
            raise KeyboardInterrupt(held) from None
        raise RuntimeError(f"{exc}; {held}") from None
    written, alarms = counts
    print(f"monitored {written} windows, {alarms} alarms")
    if written < cfg.monitor.buffer_len:
        print(
            f"warning: the stream ended after {written} windows, before the baseline of "
            f"monitor.buffer_len={cfg.monitor.buffer_len} windows filled, so hi is empty for "
            "every window",
            file=sys.stderr,
        )
    return 0


def _read_health_and_wear(cfg: RunConfig) -> tuple[HealthColumns, np.ndarray, WearTable]:
    """hi.csv's columns, wear.csv's table, and for each window the row of its
    cut in the table: -1 for a window without a health index or outside
    every cut. Stops when no window has both."""
    hi_path, wear_path = cfg.resolve("hi"), cfg.resolve("wear")
    health = read_health_csv(hi_path)
    wear = WearTable.from_csv(wear_path)
    defined = ~np.isnan(health.hi)
    positions = np.where(defined, wear.locate(health.window_index), -1)
    if not (positions >= 0).any():
        hint = ""
        if defined.size and not defined.any():
            hint = (
                f": all {defined.size} windows fell in the baseline, so monitor.buffer_len was "
                "at least the run's window count; monitor again with a smaller "
                "monitor.buffer_len"
            )
        raise ValueError(
            f"{hi_path}: no post-buffer window overlaps the wear table {wear_path}{hint}"
        )
    return health, positions, wear


def cmd_calibrate(cfg: RunConfig) -> int:
    health, positions, wear = _read_health_and_wear(cfg)
    calibration = calibrate_threshold(health.hi, positions, wear, cfg.wear_limit_um)
    write_metrics_json({"calibration": asdict(calibration)}, cfg.out_path("metrics.json"))
    print(f"tau={calibration.tau!r} cut={calibration.cut_id} wear_um={calibration.wear_um!r}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    health, positions, wear = _read_health_and_wear(cfg)
    scored = positions >= 0
    labels = label_windows(wear, cfg.wear_limit_um, positions[scored])
    report = compute_metrics(health.alarm[scored], labels)
    first = np.flatnonzero(health.alarm)[:1]
    first_alarm = deviation = None
    if first.size:
        first_alarm, row = int(health.window_index[first[0]]), positions[first[0]]
        # an alarm always has a health index, so -1 here means outside every cut
        if row < 0:
            raise ValueError(
                f"{cfg.resolve('hi')}: first alarm, window {first_alarm}, is outside "
                f"{cfg.resolve('wear')}"
            )
        deviation = abs(float(wear.wear_um[row]) - cfg.wear_limit_um)
    write_metrics_json(
        {
            "classification": asdict(report),
            "detection_deviation_um": deviation,
            "first_alarm_window": first_alarm,
        },
        cfg.out_path("metrics.json"),
    )
    print(format_metrics_table(report, deviation_um=deviation))
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "fit-codebooks": cmd_fit_codebooks,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "monitor": cmd_monitor,
    "calibrate": cmd_calibrate,
    "eval": cmd_eval,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorm",
        description="Self-supervised token-prediction condition monitoring pipeline.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS), help="pipeline stage to run")
    parser.add_argument("--config", default=None, help="JSON config file merged over defaults")
    parser.add_argument(
        "--set",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="override one config scalar (repeatable)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--out", default=".", help="directory for outputs and relative config paths"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args)
        os.makedirs(cfg.out_dir, exist_ok=True)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        print("; ".join(["error: interrupted", *map(str, exc.args)]), file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
