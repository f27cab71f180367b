"""Paper-style result tables (plain text + markdown)."""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str | None = None
) -> str:
    """Fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_markdown(
    headers: Sequence[str], rows: Sequence[Sequence], title: str | None = None
) -> str:
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| " + " | ".join(str(h) for h in headers) + " |")
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def speedup(base_ms: float, other_ms: float) -> float:
    """How many times faster *other* is than *base*."""
    if other_ms <= 0:
        return float("inf")
    return base_ms / other_ms


def ascii_bar_chart(
    series: dict[str, float],
    title: str | None = None,
    width: int = 50,
    log_scale: bool = True,
    unit: str = "ms",
) -> str:
    """Horizontal bar chart, log-scale by default (the paper plots all kNN
    and one-to-many charts in logarithmic scale)."""
    import math

    lines = []
    if title:
        lines.append(title)
    if not series:
        lines.append("(no data)")
        return "\n".join(lines)
    positives = [v for v in series.values() if v > 0]
    label_width = max(len(label) for label in series)
    if not positives:
        for label, value in series.items():
            lines.append(f"{label.ljust(label_width)} | {value:g} {unit}")
        return "\n".join(lines)
    high = max(positives)
    low = min(positives)
    for label, value in series.items():
        if value <= 0:
            bar = ""
        elif log_scale:
            # map [low, high] to [1, width] in log space
            if high == low:
                bar_len = width
            else:
                span = math.log(high) - math.log(low)
                bar_len = 1 + int(
                    (math.log(value) - math.log(low)) / span * (width - 1)
                )
            bar = "#" * bar_len
        else:
            bar = "#" * max(1, int(value / high * width))
        lines.append(
            f"{label.ljust(label_width)} | {bar} {value:g} {unit}"
        )
    return "\n".join(lines)


def series_chart(
    rows: list[dict],
    label_keys: list[str],
    value_key: str,
    title: str | None = None,
    width: int = 50,
) -> str:
    """Chart one value column of experiment rows; labels join *label_keys*."""
    series = {
        " ".join(str(row[k]) for k in label_keys): row[value_key] for row in rows
    }
    return ascii_bar_chart(series, title=title, width=width)
