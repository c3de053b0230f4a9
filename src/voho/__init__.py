"""voho: volatility-homogenised decomposition and entropy-rate studies.

Decomposes price series into fixed-size up/down moves (regular steps in
price rather than time), estimates entropy rates of the original and
decomposed sequences with a context-tree weighted estimator, and runs the
comparative study pipeline over real or synthetic market data.
"""

from .ctw import EntropyEstimate, entropy_rate
from .errors import (
    AllInstrumentsFailedError,
    ConfigError,
    DataError,
    DataFormatError,
    VohoError,
)
from .homogenise import SkeletonSeries, decompose, skeleton_to_symbols, write_skeleton_csv
from .ingest import (
    PriceSeries,
    SyntheticSpec,
    filter_eligible,
    generate_synthetic_path,
    load_prices,
    log_returns,
)
from .pipeline import (
    InputSpec,
    StudyConfig,
    config_from_json,
    run_study,
    validate_config,
)
from .quantise import quantile_bins
from .stats import (
    StudyResult,
    StudyRow,
    correlation_matrix,
    delta_summary,
    kernel_density,
    pearson,
)
from .variants import Variant

__version__ = "0.1.0"

__all__ = [
    "AllInstrumentsFailedError",
    "ConfigError",
    "DataError",
    "DataFormatError",
    "EntropyEstimate",
    "InputSpec",
    "PriceSeries",
    "SkeletonSeries",
    "StudyConfig",
    "StudyResult",
    "StudyRow",
    "SyntheticSpec",
    "Variant",
    "VohoError",
    "config_from_json",
    "correlation_matrix",
    "decompose",
    "delta_summary",
    "entropy_rate",
    "filter_eligible",
    "generate_synthetic_path",
    "kernel_density",
    "load_prices",
    "log_returns",
    "pearson",
    "quantile_bins",
    "run_study",
    "skeleton_to_symbols",
    "validate_config",
    "write_skeleton_csv",
]
