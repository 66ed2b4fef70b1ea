"""Self-contained HTML timeline report for telemetry series.

One file, no external assets: each telemetry series renders as its own
small-multiple step chart (series differ in unit and scale, so they
never share an axis), with a digest summary line, a crosshair+tooltip
hover layer, and a lazily-built table view of the same samples.  The
output is a pure function of the recorder's content — no timestamps,
no random ids — so serial and parallel sweeps produce byte-identical
reports.
"""

from __future__ import annotations

import html as _html
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Callable, List, Tuple, Union

from repro.obs.export import atomic_write_text

if TYPE_CHECKING:
    from repro.obs.blame import BlameReport
    from repro.obs.telemetry import NullTelemetry, Telemetry, TimeSeries

    AnyTelemetry = Union[Telemetry, NullTelemetry]

# Chart geometry (px).
_WIDTH = 680
_HEIGHT = 170
_MARGIN_LEFT = 56
_MARGIN_RIGHT = 12
_MARGIN_TOP = 8
_MARGIN_BOTTOM = 24
_PLOT_W = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

_CSS = """
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --gridline: #e1e0d9;
  --baseline: #c3c2b7;
  --series-1: #2a78d6;
  --border: rgba(11, 11, 11, 0.10);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page);
  color: var(--text-primary);
  margin: 0;
  padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --gridline: #2c2c2a;
    --baseline: #383835;
    --series-1: #3987e5;
    --border: rgba(255, 255, 255, 0.10);
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --page: #0d0d0d;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted: #898781;
  --gridline: #2c2c2a;
  --baseline: #383835;
  --series-1: #3987e5;
  --border: rgba(255, 255, 255, 0.10);
}
.viz-root h1 { font-size: 18px; margin: 0 0 4px; }
.viz-root .subtitle { color: var(--text-secondary); font-size: 13px; margin: 0 0 20px; }
.viz-root .chart-card {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 12px 16px 8px;
  margin: 0 0 16px;
  max-width: 720px;
}
.viz-root .chart-title { font-size: 14px; font-weight: 600; margin: 0; }
.viz-root .chart-sub {
  color: var(--text-secondary);
  font-size: 12px;
  margin: 2px 0 8px;
  font-variant-numeric: tabular-nums;
}
.viz-root svg { display: block; }
.viz-root .grid line { stroke: var(--gridline); stroke-width: 1; }
.viz-root .axis-baseline { stroke: var(--baseline); stroke-width: 1; }
.viz-root .tick-label {
  fill: var(--text-muted);
  font-size: 11px;
  font-variant-numeric: tabular-nums;
}
.viz-root .series-line {
  stroke: var(--series-1);
  stroke-width: 2;
  stroke-linejoin: round;
  stroke-linecap: round;
  fill: none;
}
.viz-root .crosshair { stroke: var(--baseline); stroke-width: 1; display: none; }
.viz-root .hover-dot { fill: var(--series-1); display: none; }
.viz-root .chart-wrap { position: relative; }
.viz-root .tooltip {
  position: absolute;
  display: none;
  pointer-events: none;
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 6px;
  padding: 4px 8px;
  font-size: 12px;
  color: var(--text-primary);
  font-variant-numeric: tabular-nums;
  white-space: nowrap;
  box-shadow: 0 1px 4px rgba(0, 0, 0, 0.12);
}
.viz-root .tooltip .t { color: var(--text-secondary); }
.viz-root details { margin: 4px 0 2px; }
.viz-root summary {
  color: var(--text-secondary);
  font-size: 12px;
  cursor: pointer;
}
.viz-root table {
  border-collapse: collapse;
  font-size: 12px;
  font-variant-numeric: tabular-nums;
  margin: 6px 0;
}
.viz-root th, .viz-root td {
  text-align: right;
  padding: 2px 10px;
  border-bottom: 1px solid var(--gridline);
}
.viz-root th { color: var(--text-secondary); font-weight: 600; }
.viz-root td.label, .viz-root th.label { text-align: left; }
.viz-root .blame-bar {
  display: inline-block;
  height: 9px;
  background: var(--series-1);
  border-radius: 2px;
  vertical-align: middle;
}
.viz-root .blame-card table { width: 100%; max-width: 640px; }
"""

_JS = """
function fmtVal(v) {
  return Math.abs(v) >= 1000 ? v.toLocaleString("en-US", {maximumFractionDigits: 0})
       : Number(v.toPrecision(4)).toString();
}
document.querySelectorAll(".chart-card").forEach(function (card) {
  var data = JSON.parse(card.querySelector("script[type='application/json']").textContent);
  var svg = card.querySelector("svg");
  var wrap = card.querySelector(".chart-wrap");
  var cross = card.querySelector(".crosshair");
  var dot = card.querySelector(".hover-dot");
  var tip = card.querySelector(".tooltip");
  var g = data.geom;
  function xPx(t) { return g.ml + (t - g.t0) / (g.t1 - g.t0) * g.pw; }
  function yPx(v) { return g.mt + g.ph - v / g.ymax * g.ph; }
  svg.addEventListener("mousemove", function (ev) {
    var rect = svg.getBoundingClientRect();
    var x = (ev.clientX - rect.left) * (g.w / rect.width);
    var t = g.t0 + (x - g.ml) / g.pw * (g.t1 - g.t0);
    var best = 0, bestD = Infinity;
    for (var i = 0; i < data.samples.length; i++) {
      var d = Math.abs(data.samples[i][0] - t);
      if (d < bestD) { bestD = d; best = i; }
    }
    var s = data.samples[best];
    var px = xPx(s[0]), py = yPx(s[1]);
    cross.setAttribute("x1", px); cross.setAttribute("x2", px);
    cross.style.display = "block";
    dot.setAttribute("cx", px); dot.setAttribute("cy", py);
    dot.setAttribute("r", 4); dot.style.display = "block";
    tip.innerHTML = "<span class='t'>" + s[0].toFixed(3) + " ms</span> &middot; "
      + fmtVal(s[1]) + (data.unit ? " " + data.unit : "");
    tip.style.display = "block";
    var left = px / g.w * rect.width + 12;
    if (left + tip.offsetWidth > rect.width) left -= tip.offsetWidth + 24;
    tip.style.left = left + "px";
    tip.style.top = (py / g.h * rect.height - 28) + "px";
  });
  svg.addEventListener("mouseleave", function () {
    cross.style.display = "none";
    dot.style.display = "none";
    tip.style.display = "none";
  });
  var details = card.querySelector("details");
  details.addEventListener("toggle", function () {
    if (!details.open || details.dataset.built) return;
    details.dataset.built = "1";
    var rows = data.samples.map(function (s) {
      return "<tr><td>" + s[0].toFixed(3) + "</td><td>" + fmtVal(s[1]) + "</td></tr>";
    });
    details.querySelector("tbody").innerHTML = rows.join("");
  });
});
"""


def _nice_ceil(value: float) -> float:
    """Smallest 1/2/5 x 10^k at or above ``value``."""
    if value <= 0:
        return 1.0
    exponent = math.floor(math.log10(value))
    base = 10.0 ** exponent
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mult * base >= value * (1 - 1e-9):
            return mult * base
    return 10.0 * base


def _ticks(limit: float, n: int = 4) -> List[float]:
    return [limit * i / n for i in range(n + 1)]


def _fmt_tick(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def _step_paths(
    samples: List[Tuple[float, float]],
    period_ms: float,
    xpx: Callable[[float], float],
    ypx: Callable[[float], float],
) -> List[str]:
    """Step-after subpaths, broken at unobserved gaps between buckets."""
    paths: List[str] = []
    parts: List[str] = []
    prev_t = None
    for t, v in samples:
        if prev_t is not None and t - prev_t > period_ms * 1.5:
            parts.append(f"H{xpx(prev_t + period_ms):.1f}")
            paths.append(" ".join(parts))
            parts = []
            prev_t = None
        if prev_t is None:
            parts.append(f"M{xpx(t):.1f} {ypx(v):.1f}")
        else:
            parts.append(f"H{xpx(t):.1f} V{ypx(v):.1f}")
        prev_t = t
    if parts:
        parts.append(f"H{xpx(prev_t + period_ms):.1f}")
        paths.append(" ".join(parts))
    return paths


def _chart_card(series: "TimeSeries") -> str:
    samples = [
        (t_ns / 1e6, value) for t_ns, value in series.samples()
    ]
    period_ms = series.period_ns / 1e6
    digest = series.digest()
    t0 = samples[0][0] if samples else 0.0
    t1 = (samples[-1][0] + period_ms) if samples else 1.0
    if t1 <= t0:
        t1 = t0 + period_ms
    ymax = _nice_ceil(max((v for _t, v in samples), default=0.0))

    def xpx(t: float) -> float:
        return _MARGIN_LEFT + (t - t0) / (t1 - t0) * _PLOT_W

    def ypx(v: float) -> float:
        return _MARGIN_TOP + _PLOT_H - v / ymax * _PLOT_H

    grid = []
    labels = []
    for tick in _ticks(ymax):
        y = ypx(tick)
        grid.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.1f}" '
            f'x2="{_MARGIN_LEFT + _PLOT_W}" y2="{y:.1f}"/>'
        )
        labels.append(
            f'<text class="tick-label" x="{_MARGIN_LEFT - 6}" '
            f'y="{y + 3.5:.1f}" text-anchor="end">{_fmt_tick(tick)}</text>'
        )
    x_tick_count = 5
    for i in range(x_tick_count + 1):
        t = t0 + (t1 - t0) * i / x_tick_count
        x = xpx(t)
        labels.append(
            f'<text class="tick-label" x="{x:.1f}" '
            f'y="{_MARGIN_TOP + _PLOT_H + 16}" text-anchor="middle">'
            f"{t:.3g}</text>"
        )
    line = "".join(
        f'<path class="series-line" d="{d}"/>'
        for d in _step_paths(samples, period_ms, xpx, ypx)
    )
    onset = series.first_active_ns()
    onset_text = "-" if onset is None else f"{onset / 1e6:.3f} ms"
    sub = (
        f"{series.kind} &middot; n={digest.count} &middot; "
        f"mean={_fmt_tick(digest.mean)} &middot; "
        f"p99={_fmt_tick(digest.quantile(0.99))} &middot; "
        f"max={_fmt_tick(digest.max or 0.0)}"
        f"{' ' + _html.escape(series.unit) if series.unit else ''}"
        f" &middot; first active {onset_text}"
        f" &middot; {series.dropped} samples folded to digest"
    )
    payload = json.dumps(
        {
            "unit": series.unit,
            "samples": [[round(t, 6), round(v, 6)] for t, v in samples],
            "geom": {
                "w": _WIDTH,
                "h": _HEIGHT,
                "ml": _MARGIN_LEFT,
                "mt": _MARGIN_TOP,
                "pw": _PLOT_W,
                "ph": _PLOT_H,
                "t0": t0,
                "t1": t1,
                "ymax": ymax,
            },
        },
        separators=(",", ":"),
        sort_keys=True,
    )
    title = f"sim {series.pid} &middot; {_html.escape(series.name)}"
    unit_th = _html.escape(series.unit) or "value"
    return f"""<div class="chart-card">
<p class="chart-title">{title}</p>
<p class="chart-sub">{sub}</p>
<div class="chart-wrap">
<svg viewBox="0 0 {_WIDTH} {_HEIGHT}" width="{_WIDTH}" height="{_HEIGHT}"
     role="img" aria-label="{_html.escape(series.name)} over time">
<g class="grid">{''.join(grid)}</g>
<line class="axis-baseline" x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP + _PLOT_H}"
      x2="{_MARGIN_LEFT + _PLOT_W}" y2="{_MARGIN_TOP + _PLOT_H}"/>
{line}
<line class="crosshair" y1="{_MARGIN_TOP}" y2="{_MARGIN_TOP + _PLOT_H}" x1="0" x2="0"/>
<circle class="hover-dot" cx="0" cy="0" r="4"/>
{''.join(labels)}
</svg>
<div class="tooltip"></div>
</div>
<details><summary>Table view</summary>
<table><thead><tr><th>t (ms)</th><th>{unit_th}</th></tr></thead>
<tbody></tbody></table>
</details>
<script type="application/json">{payload}</script>
</div>"""


def telemetry_report_html(
    telemetry: "AnyTelemetry", title: str = "Telemetry timeline"
) -> str:
    """Render the full report document as a string."""
    cards = [_chart_card(series) for series in telemetry]
    if cards:
        body = "\n".join(cards)
        count = len(cards)
        subtitle = (
            f"{count} series &middot; time in milliseconds of simulated time; "
            "each chart is one resource on its own scale"
        )
    else:
        body = '<p class="subtitle">(no telemetry series recorded)</p>'
        subtitle = "no series recorded"
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_html.escape(title)}</title>
<style>{_CSS}</style>
</head>
<body class="viz-root">
<h1>{_html.escape(title)}</h1>
<p class="subtitle">{subtitle}</p>
{body}
<script>{_JS}</script>
</body>
</html>
"""


def write_telemetry_html(
    telemetry: "AnyTelemetry",
    path: Union[str, Path],
    title: str = "Telemetry timeline",
) -> Path:
    """Write the report atomically; returns the path."""
    return atomic_write_text(path, telemetry_report_html(telemetry, title))


# ----------------------------------------------------------------------
# Blame report (repro.obs.blame)
# ----------------------------------------------------------------------
def _share_row(label: str, holder: str, share: float) -> str:
    width = max(0.0, min(1.0, share)) * 240.0
    return (
        f'<tr><td class="label">{_html.escape(label)}</td>'
        f'<td class="label">{_html.escape(holder)}</td>'
        f'<td>{share * 100.0:.1f}%</td>'
        f'<td class="label"><span class="blame-bar" '
        f'style="width:{width:.1f}px"></span></td></tr>'
    )


def blame_section_html(report: "BlameReport") -> str:
    """The blame cards (no document shell) — embeddable and standalone.

    A pure function of the report's content, valid even with zero
    observed I/Os or zero captured outliers (no axis math is involved,
    so there is nothing to divide by).
    """
    from repro.obs.blame import format_ns

    parts: List[str] = []
    if not report.observed:
        parts.append(
            '<div class="chart-card blame-card">'
            '<p class="chart-title">Blame</p>'
            '<p class="chart-sub">(no I/Os observed)</p></div>'
        )
        return "\n".join(parts)
    for (device, op), records in report.groups():
        digest = report.group_digest(device, op)
        title = f"{_html.escape(device)} / {_html.escape(op)}"
        sub = (
            f"{digest.count} I/Os &middot; "
            f"p50={format_ns(digest.quantile(0.50))} &middot; "
            f"p99={format_ns(digest.quantile(0.99))} &middot; "
            f"p99.9={format_ns(digest.quantile(0.999))} &middot; "
            f"max={format_ns(digest.max or 0.0)}"
        )
        shares = report.tail_blame(device, op)
        if shares:
            rows = [_share_row(r, h, s) for r, h, s in shares]
            service = 1.0 - sum(s for _r, _h, s in shares)
            rows.append(_share_row("(service)", "", service))
            body = (
                '<table><thead><tr><th class="label">resource</th>'
                '<th class="label">holder</th><th>share</th>'
                '<th class="label"></th></tr></thead>'
                f'<tbody>{"".join(rows)}</tbody></table>'
            )
        else:
            body = '<p class="chart-sub">(no wait edges captured)</p>'
        outliers = "".join(
            f"<tr><td>{rec.io_id}</td><td>{format_ns(rec.latency_ns)}</td>"
            f"<td>{format_ns(rec.wait_ns)}</td>"
            f"<td>{format_ns(rec.service_ns)}</td></tr>"
            for rec in records
        )
        outlier_table = (
            '<details><summary>Outliers</summary>'
            '<table><thead><tr><th>io</th><th>latency</th><th>wait</th>'
            '<th>service</th></tr></thead>'
            f'<tbody>{outliers}</tbody></table></details>'
            if records
            else ""
        )
        parts.append(
            f'<div class="chart-card blame-card"><p class="chart-title">{title}</p>'
            f'<p class="chart-sub">{sub}</p>{body}{outlier_table}</div>'
        )
    slo_rows = report.slo_rows()
    if slo_rows:
        rows = "".join(
            f'<tr><td class="label">{_html.escape(row["label"])}</td>'
            f'<td>{row["checked"] - row["misses"]}/{row["checked"]}</td>'
            f'<td>{row["attainment"] * 100.0:.3f}%</td>'
            f'<td class="label">{"MET" if row["met"] else "MISSED"}</td>'
            f'<td>{row["peak_burn"]:.1f}x</td></tr>'
            for row in slo_rows
        )
        parts.append(
            '<div class="chart-card blame-card"><p class="chart-title">SLO '
            'attainment</p><table><thead><tr><th class="label">objective</th>'
            '<th>ok</th><th>attainment</th><th class="label">verdict</th>'
            '<th>peak burn</th></tr></thead>'
            f'<tbody>{rows}</tbody></table></div>'
        )
    return "\n".join(parts)


def blame_report_html(
    report: "BlameReport", title: str = "Tail-latency blame"
) -> str:
    """Render the standalone blame report document."""
    subtitle = (
        f"{report.observed} I/Os observed &middot; top "
        f"{report.top} outliers per (device, op) group"
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_html.escape(title)}</title>
<style>{_CSS}</style>
</head>
<body class="viz-root">
<h1>{_html.escape(title)}</h1>
<p class="subtitle">{subtitle}</p>
{blame_section_html(report)}
</body>
</html>
"""


def write_blame_html(
    report: "BlameReport",
    path: Union[str, Path],
    title: str = "Tail-latency blame",
) -> Path:
    """Write the blame report atomically; returns the path."""
    return atomic_write_text(path, blame_report_html(report, title))
