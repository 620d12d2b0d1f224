"""Bundling the regenerated figures into one self-contained HTML report.

``pytest benchmarks/`` drops each figure/table as a text artifact under
``benchmarks/results/``; this module folds them into a single static
HTML page (no scripts, no external assets) for sharing.

    python -m repro report --out report.html
"""

from __future__ import annotations

import html
import json
import pathlib
from typing import Optional

__all__ = ["build_report", "write_report"]

#: presentation order and human titles; artifacts not listed are appended
#: alphabetically at the end
_SECTIONS: tuple[tuple[str, str], ...] = (
    ("headline_claim", "Headline: the ~30 % claim"),
    ("figure3_full", "Figure 3 — full grid"),
    ("figure3_grid", "Figure 3 — bench subsample"),
    ("figure3_delay_series", "Figure 3 — revisit-delay series"),
    ("figure1_timelines", "Figure 1 — worked-example timelines"),
    ("figure1_rtts", "Figure 1 — round trips eliminated"),
    ("motivation_stats", "§2.2 motivation statistics"),
    ("baseline_comparison", "§5 baseline comparison"),
    ("rdr_latency_profile", "RDR latency profile"),
    ("extreme_cache_staleness", "Extreme Cache stale-serve risk"),
    ("catalyst_staleness", "Catalyst vs standard staleness"),
    ("cross_page_navigation", "Cross-page navigation"),
    ("first_render", "First-render improvement"),
    ("population_fleet_des", "User-weighted benefit — sampled fleet DES"),
    ("server_load", "Server-side load"),
    ("handover_schedules", "Mobility / handover schedules"),
    ("etag_config_overhead", "X-Etag-Config size overhead"),
    ("map_digest_savings", "Map-digest savings"),
    ("injection_overhead", "Injected artifact sizes"),
    ("session_footprint", "Session-recording footprint"),
    ("redundant_transfers", "Redundant transfer bytes"),
    ("ablation_churn", "Ablation: content churn"),
    ("ablation_developer", "Ablation: developer quality"),
    ("ablation_css_transitive", "Ablation: CSS-transitive stapling"),
    ("ablation_slow_start", "Ablation: TCP slow start"),
    ("ablation_http2", "Ablation: HTTP/2 transport"),
    ("ablation_push_cancel", "Ablation: push cancellation"),
    ("analytic_sweep", "Analytic sweep — full grid (vectorized)"),
    ("sweep_validation", "Analytic sweep — DES validation"),
    ("population_fleet", "Population fleet — analytic pricing"),
)

_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       max-width: 72rem; margin: 2rem auto; padding: 0 1rem;
       background: #101418; color: #d8dee6; }
h1 { font-size: 1.4rem; border-bottom: 1px solid #2c3440;
     padding-bottom: .5rem; }
h2 { font-size: 1.05rem; color: #8fd0ff; margin-top: 2rem; }
pre { background: #161c24; border: 1px solid #2c3440; border-radius: 6px;
      padding: .8rem 1rem; overflow-x: auto; font-size: .82rem;
      line-height: 1.35; }
p.meta { color: #7b8494; font-size: .85rem; }
"""


_SPARK_BLOCKS = " ▁▂▃▄▅▆▇█"


def _sparkline(values: list[float]) -> str:
    top = max(values) if values else 0.0
    if top <= 0:
        return " " * len(values)
    scale = len(_SPARK_BLOCKS) - 1
    return "".join(_SPARK_BLOCKS[round(value / top * scale)]
                   for value in values)


def _slo_timeline_text(results_dir: pathlib.Path) -> Optional[str]:
    """SLO verdicts + per-interval timelines from load-test artifacts.

    Scans every ``*.json`` whose payload says ``"bench": "load_test"``
    (the ``repro loadtest --out`` shape).  Renders the objective table
    when the run carried an SLO report, and an ok/shed sparkline over
    the zero-filled interval series either way.
    """
    blocks = []
    for path in sorted(results_dir.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict) \
                or payload.get("bench") != "load_test":
            continue
        lines = [path.name]
        series = payload.get("series") or []
        if series:
            ok = [float(row.get("ok", 0)) for row in series]
            shed = [float(row.get("shed", 0)) for row in series]
            lines.append(f"  ok   per interval |{_sparkline(ok)}| "
                         f"peak {max(ok):,.0f}")
            lines.append(f"  shed per interval |{_sparkline(shed)}| "
                         f"peak {max(shed):,.0f}")
        slo = payload.get("slo")
        if isinstance(slo, dict):
            verdict = "PASS" if slo.get("passed") else "BREACH"
            lines.append(f"  SLO: {verdict}")
            for objective in slo.get("objectives", []):
                status = "BREACH" if objective.get("breached") else "ok"
                worst = (objective.get("worst") or {}).get("burn_rate")
                burn = (f", worst burn {worst:.2f}x"
                        if isinstance(worst, (int, float)) else "")
                lines.append(f"    [{status:6s}] "
                             f"{objective.get('name', '?')}{burn}")
        if len(lines) > 1:
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks) if blocks else None


def _fleet_cohorts_text(results_dir: pathlib.Path) -> Optional[str]:
    """Per-cohort PLT percentiles from population-fleet run payloads.

    Scans every ``*.json`` whose payload says ``"bench":
    "population_fleet_run"`` (the ``repro fleet --out`` shape) and
    renders each cohort's per-mode p50/p90/p99 plus origin load, with
    the DES cross-check and validation verdict when the run carried
    them.
    """
    from .report import format_pct, format_table
    blocks = []
    for path in sorted(results_dir.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict) \
                or payload.get("bench") != "population_fleet_run":
            continue
        lines = [f"{path.name}: {payload.get('users', '?'):,} users, "
                 f"{payload.get('population_visits', '?'):,} visits, "
                 f"{payload.get('backend', '?')} backend"]
        rows = []
        cohorts = payload.get("cohorts") or []
        for cohort in cohorts + [{"name": "fleet", "label": "",
                                  "modes": payload.get("fleet") or []}]:
            for index, mode in enumerate(cohort.get("modes", [])):
                rows.append([
                    cohort.get("name", "?") if index == 0 else "",
                    mode.get("mode", "?"),
                    f"{mode.get('p50_ms', 0):,.0f}",
                    f"{mode.get('p90_ms', 0):,.0f}",
                    f"{mode.get('p99_ms', 0):,.0f}",
                    f"{mode.get('origin_rps', 0):,.1f}",
                    format_pct(mode.get("hit_ratio", 0.0)),
                ])
        if rows:
            lines.append(format_table(
                ["cohort", "mode", "p50 ms", "p90 ms", "p99 ms",
                 "origin req/s", "hit"], rows))
        des = payload.get("des")
        if isinstance(des, dict):
            lines.append(f"  DES cross-check: {des.get('visits', 0)} "
                         f"sampled visits, "
                         f"{des.get('workers', '?')} worker(s)")
        validation = payload.get("validation")
        if isinstance(validation, dict):
            verdict = "PASS" if validation.get("passed") else "FAIL"
            lines.append(f"  validation: Spearman rho="
                         f"{validation.get('rho', 0):.3f} "
                         f"(gate >= {validation.get('min_rho', 0):g}) "
                         f"-> {verdict}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) if blocks else None


def build_report(results_dir: pathlib.Path,
                 title: str = "CacheCatalyst reproduction — results") -> str:
    """Render every ``*.txt`` artifact in ``results_dir`` into HTML."""
    artifacts: dict[str, str] = {}
    for path in sorted(results_dir.glob("*.txt")):
        artifacts[path.stem] = path.read_text()

    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        "<p class='meta'>regenerated by "
        "<code>pytest benchmarks/</code>; "
        f"{len(artifacts)} artifacts</p>",
    ]
    slo_timeline = _slo_timeline_text(results_dir)
    if slo_timeline is not None:
        parts.append("<h2>Load-test SLOs &amp; timelines</h2>")
        parts.append("<p class='meta'>from <code>repro loadtest --slo "
                     "--out ...</code> artifacts: burn-rate verdicts and "
                     "per-interval ok/shed sparklines</p>")
        parts.append(f"<pre>{html.escape(slo_timeline.rstrip())}</pre>")
    fleet_cohorts = _fleet_cohorts_text(results_dir)
    if fleet_cohorts is not None:
        parts.append("<h2>Population fleet — per-cohort PLT "
                     "percentiles</h2>")
        parts.append("<p class='meta'>from <code>repro fleet --out ..."
                     "</code> payloads: per-cohort p50/p90/p99 by mode, "
                     "origin load, DES cross-check and the analytic-vs-"
                     "DES validation verdict</p>")
        parts.append(f"<pre>{html.escape(fleet_cohorts.rstrip())}</pre>")
    listed = set()
    for stem, heading in _SECTIONS:
        text = artifacts.get(stem)
        if text is None:
            continue
        listed.add(stem)
        parts.append(f"<h2>{html.escape(heading)}</h2>")
        parts.append(f"<pre>{html.escape(text.rstrip())}</pre>")
    for stem in sorted(set(artifacts) - listed):
        parts.append(f"<h2>{html.escape(stem)}</h2>")
        parts.append(f"<pre>{html.escape(artifacts[stem].rstrip())}</pre>")
    parts.append("</body></html>")
    return "\n".join(parts)


def write_report(results_dir: pathlib.Path,
                 out_path: pathlib.Path,
                 title: Optional[str] = None) -> pathlib.Path:
    """Build and write the report; returns the output path."""
    kwargs = {} if title is None else {"title": title}
    out_path.write_text(build_report(results_dir, **kwargs))
    return out_path
