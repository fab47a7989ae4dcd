"""The paper's workloads: HEP analysis job, scenario runner, campaign."""

from repro._lazy import exports

_EXPORTS = {
    "DAVIX_TCP": ".analysis",
    "XROOTD_TCP": ".analysis",
    "AnalysisConfig": ".analysis",
    "AnalysisReport": ".analysis",
    "davix_analysis": ".analysis",
    "xrootd_analysis": ".analysis",
    "Campaign": ".hammercloud",
    "CellStats": ".hammercloud",
    "results_to_csv": ".hammercloud",
    "TREE_PATH": ".runner",
    "Scenario": ".runner",
    "run_scenario": ".runner",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = exports(__name__, _EXPORTS)
