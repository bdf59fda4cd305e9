"""Real-time event-camera corner detection toolkit.

A look-up-based Harris detector built on a threshold-ordinal surface,
classic event-wise baselines (eHarris, FAST, ARC) behind the same
interface, stream pre-filters, and a benchmark/evaluation harness for
throughput, delay, and precision-recall comparisons.
"""

__version__ = "0.1.0"

from .baselines import (
    ArcDetector,
    ArcRingConfig,
    EHarrisConfig,
    EHarrisDetector,
    FastDetector,
    decision_parameter_sweep,
    process_chunked,
)
from .bench import (
    DelayTrace,
    ThroughputModel,
    ThroughputResult,
    fit_throughput_model,
    measure_throughput,
    paced_replay,
)
from .errors import (
    CountMismatch,
    EvcError,
    FormatError,
    GeometryViolation,
    ImageTooSmall,
    InstrumentationUnavailable,
    InvalidParameter,
    Misalignment,
    RecallNotSpanned,
    StreamTooShort,
    TimestampRegression,
)
from .evaluate import (
    GroundTruth,
    PrCurve,
    binarize_scores,
    load_ground_truth,
    pr_curve,
    precision_at_recall,
)
from .events import (
    EventStream,
    SensorGeometry,
    Tags,
    read_stream,
    read_tags,
    write_stream,
    write_tags,
)
from .filters import refractory_filter, sp_filter
from .harris import (
    HarrisParams,
    PatchEvaluator,
    harris_response_map,
)
from .luvharris import (
    HarrisLut,
    LuvHarrisConfig,
    LuvHarrisDetector,
    regenerate_lut,
)
from .render import export_plot_data, render_tos, render_trails, save_frames, write_pgm
from .stats import PipelineStats
from .surfaces import TosSurface, tos_default_threshold
