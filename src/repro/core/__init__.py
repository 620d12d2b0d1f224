"""The paper's contribution, packaged: ETag stapling end to end.

Attribute access is lazy (PEP 562): :mod:`repro.browser` depends on
:mod:`repro.core.etag_config`, while the higher-level members here depend
back on :mod:`repro.browser` — eager imports would cycle.
"""

from .etag_config import (DEFAULT_MAX_ENTRIES, ETAG_CONFIG_HEADER,
                          EtagConfig)

__all__ = [
    "EtagConfig", "ETAG_CONFIG_HEADER", "DEFAULT_MAX_ENTRIES",
    "CachingMode", "ModeSetup", "build_mode",
    "Catalyst", "VisitOutcome", "run_visit_sequence",
    "estimate_plt", "estimate_reduction",
    "VectorAnalyticModel", "CompiledSite", "compile_site",
    "batch_estimate_plt", "numpy_available",
]

_LAZY = {
    "CachingMode": "modes",
    "ModeSetup": "modes",
    "build_mode": "modes",
    "Catalyst": "catalyst",
    "VisitOutcome": "catalyst",
    "run_visit_sequence": "catalyst",
    "estimate_plt": "analysis_vec",
    "estimate_reduction": "analysis_vec",
    "VectorAnalyticModel": "analysis_vec",
    "CompiledSite": "analysis_vec",
    "compile_site": "analysis_vec",
    "batch_estimate_plt": "analysis_vec",
    "numpy_available": "analysis_vec",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
