"""Clock calibration for intraday price series.

Fits per-interval durations that collapse return distributions onto a single
diffusive law, assembles them into a monotone time change, and ships the
scaling diagnostics (moments, Hurst slopes, density collapse, volatility
seasonality and memory) needed to judge the result against the physical
clock and against moment-matching clocks.
"""

from .analysis import (
    CorrelationCurve,
    CutoffReport,
    HurstSpectrum,
    MomentRow,
    MomentTable,
    VolatilityProfile,
    cutoff_check,
    hurst_slopes,
    intraday_volatility_profile,
    linear_correlation_contiguous,
    moment_curve,
    pdf_collapse_export,
    pooled_bar_sample,
    span_union_samples,
    volatility_autocorrelation,
)
from .clock import (
    AdditivityRow,
    CalibrationResult,
    ClockCalibration,
    SearchConfig,
    TimeMap,
    additivity_report,
    assemble_time_map,
    calibrate_clock,
    calibrate_interval,
)
from .errors import ClassSpecError, DataError, FstError, MapRangeError, ParseError
from .ks import KsResult, ks_distance, rescaled_ks
from .momentclock import (
    ClockComparison,
    ComparisonRow,
    MomentClockResult,
    NonadditivityResult,
    compare_clocks,
    moment_time,
    nonadditivity_demo,
)
from .series import (
    DayGrid,
    IntervalClass,
    PartitionSpec,
    PriceSeries,
    ReturnSample,
    class_sample,
    detrend,
    filter_complete_days,
    ingest_csv,
    load_cache,
    load_series,
    raw_returns,
    save_cache,
    synthetic_dates,
)
from .synthetic import (
    ActivityProfile,
    GeneratorConfig,
    GroundTruthClock,
    cascade_hurst,
    generate_multifractal,
    generate_seasonal,
    generate_selfsimilar,
    write_prices_csv,
)

__version__ = "0.1.0"
