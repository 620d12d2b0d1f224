"""Experiment harness: every figure/claim in the paper, regenerable."""

from .cross_page import (CrossPageResult, format_cross_page,
                         make_multipage_site, run_cross_page)
from .figure1 import (FIGURE1_REVISIT_DELAY_S, Figure1Panels,
                      build_figure1_site, run_figure1)
from .figure3 import (HEADLINE_CONDITION, PAPER_REVISIT_DELAYS_S,
                      Figure3Cell, Figure3Result, run_figure3)
from .first_render import (FirstRenderResult, format_first_render,
                           run_first_render)
from .fleet import (DEFAULT_FLEET_COHORTS, CohortFleet, FleetDesResult,
                    FleetResult, default_population, run_fleet_analytic,
                    run_fleet_des, validate_fleet)
from .harness import (GridResult, PairMeasurement, measure_pair, replay,
                      run_grid)
from .motivation import MotivationStats, measure_motivation
from .stats import (Summary, bootstrap_ci, mean, median, percentile,
                    stdev, summarize)
from .server_load import (ServerLoadResult, format_server_load,
                          run_server_load)
from .user_weighted import UserWeightedResult, run_user_weighted
from .report_html import build_report, write_report
from .report import format_grid, format_pct, format_table

__all__ = [
    "measure_pair", "replay", "run_grid", "PairMeasurement", "GridResult",
    "run_figure1", "build_figure1_site", "Figure1Panels",
    "FIGURE1_REVISIT_DELAY_S",
    "run_figure3", "Figure3Result", "Figure3Cell",
    "PAPER_REVISIT_DELAYS_S", "HEADLINE_CONDITION",
    "measure_motivation", "MotivationStats",
    "run_cross_page", "CrossPageResult", "format_cross_page",
    "make_multipage_site",
    "run_first_render", "FirstRenderResult", "format_first_render",
    "format_table", "format_grid", "format_pct",
    "Summary", "summarize", "mean", "median", "percentile", "stdev",
    "bootstrap_ci",
    "run_fleet_analytic", "run_fleet_des", "validate_fleet",
    "default_population", "DEFAULT_FLEET_COHORTS",
    "FleetResult", "FleetDesResult", "CohortFleet",
    "run_user_weighted", "UserWeightedResult",
    "run_server_load", "ServerLoadResult", "format_server_load",
    "build_report", "write_report",
]
