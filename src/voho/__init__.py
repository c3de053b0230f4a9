"""voho: volatility-homogenised decomposition and entropy-rate studies.

Decomposes price series into fixed-size up/down moves (regular steps in
price rather than time), estimates entropy rates of the original and
decomposed sequences with a context-tree weighted estimator, and runs the
comparative study pipeline over real or synthetic market data.

The package root names the study API. Each layer's functions are imported
from their module: `voho.ctw.entropy_rate`, `voho.homogenise.decompose`,
`voho.ingest.load_prices`.
"""

from .errors import AllInstrumentsFailedError, ConfigError, DataError, VohoError
from .ingest import SyntheticSpec
from .pipeline import InputSpec, StudyConfig, config_from_json, run_study, validate_config
from .stats import StudyResult

__version__ = "0.1.0"

__all__ = [
    "AllInstrumentsFailedError",
    "ConfigError",
    "DataError",
    "InputSpec",
    "StudyConfig",
    "StudyResult",
    "SyntheticSpec",
    "VohoError",
    "config_from_json",
    "run_study",
    "validate_config",
]
