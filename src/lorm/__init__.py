"""Self-supervised condition monitoring by masked token prediction.

Multi-channel signal windows are split into a continuous context and a
per-channel discretised target token; a compact Transformer learns to predict
the target tokens from the flattened multi-sensor context, and the online
prediction error serves as a health index with threshold alarms.
"""

from .evaluation import (
    ConfusionCounts,
    MetricReport,
    WearTable,
    compute_metrics,
    detection_deviation,
    format_metrics_table,
    label_windows,
    write_metrics_json,
)
from .model import (
    BackboneConfig,
    Checkpoint,
    CheckpointError,
    ModelParameters,
    ParameterPartition,
    forward_batch,
    init_model,
    load_checkpoint,
    partition_parameters,
    save_checkpoint,
)
from .monitor import (
    DeployedModel,
    HealthRecord,
    HealthTracker,
    MonitorConfig,
    ThresholdCalibration,
    calibrate_threshold,
    format_alarm_line,
    monitor_stream,
    read_health_csv,
    score_window,
    write_health_csv,
)
from .sequence import build_mcps, num_patches
from .signal_io import (
    ChannelStats,
    MultiChannelSeries,
    StreamFormatError,
    WindowingConfig,
    compute_channel_stats,
    csv_sample_source,
    normalize_window,
    read_signal_csv,
    segment_windows,
    socket_sample_source,
    split_context_target,
    stack_windows,
    stream_windows,
    train_val_split,
    write_signal_csv,
)
from .synth import SynthConfig, SynthRun, generate_run
from .tokenizer import (
    CodebookSet,
    KMeansResult,
    codebook_file_hash,
    fit_codebook_set,
    kmeans_plusplus_init,
    lloyd_kmeans,
    load_codebooks,
    save_codebooks,
    tokenize_window,
)
from .train import (
    Adam,
    TrainConfig,
    TrainReport,
    build_examples,
    dataset_loss,
    gradient_check,
    loss_and_grad,
    train_model,
    window_loss,
    write_train_report_csv,
)

__version__ = "0.1.0"
