"""Clock calibration for intraday price series.

Fits per-interval durations that collapse return distributions onto a single
diffusive law, assembles them into a monotone time change, and ships the
scaling diagnostics (moments, Hurst slopes, density collapse, volatility
seasonality and memory) needed to judge the result against the physical
clock and against moment-matching clocks.

Importing the package loads none of its submodules: each exported name is
imported from its module on first access (PEP 562).
"""
import importlib

_EXPORTS = {
    "analysis": """CorrelationCurve CutoffReport HurstSpectrum MomentRow MomentTable
        VolatilityProfile clock_returns cutoff_check hurst_slopes intraday_volatility_profile
        linear_correlation_contiguous moment_curve pdf_collapse_export
        pooled_bar_sample span_union_samples volatility_autocorrelation""",
    "clock": """AdditivityRow ClassFit ClockCalibration SearchConfig TimeMap
        additivity_report assemble_time_map calibrate_clock calibrate_interval""",
    "errors": "ClassSpecError DataError FstError MapRangeError ParseError",
    "ks": "KsResult ks_distance rescaled_ks",
    "momentclock": """ClockComparison ComparisonRow MomentClockResult NonadditivityResult
        compare_clocks moment_time nonadditivity_demo""",
    "series": """DayGrid IntervalClass PartitionSpec PriceSeries ReturnSample class_sample
        class_samples filter_complete_days ingest_csv load_cache load_series save_cache
        synthetic_dates""",
    "synthetic": """ActivityProfile GeneratorConfig GroundTruthClock cascade_hurst
        generate_multifractal generate_seasonal generate_selfsimilar write_prices_csv""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
