"""Trace analytics: Fig. 7-style per-predicate access timelines.

The paper's Figure 7 visualizes *how* an algorithm spends accesses over
time -- which predicate is being descended or probed at each step. This
module reconstructs that view from a written trace file
(:mod:`repro.obs.trace`): one row per predicate, logical ticks on the
x-axis, one character per bucket showing the dominant activity::

    p0 |ssssssssssrr.rr......|  10 sa  4 ra  0 hits  0 faults
    p1 |ccccssss....rrrr!x...|   8 sa  4 ra  4 hits  1 faults

Legend: ``s`` charged sorted access, ``r`` charged random access,
``c`` cache-served (uncharged) access, ``x`` faulted attempt, ``!``
breaker transition, ``$`` budget rejection, ``.`` idle. When several
kinds land in one bucket the most severe wins (``$`` > ``!`` > ``x`` >
``r`` > ``s`` > ``c``).

Use it via :func:`format_timeline` or ``repro trace out.jsonl``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

#: Bucket glyphs, most severe last (rendering keeps the max).
_SEVERITY = {".": 0, "c": 1, "s": 2, "r": 3, "x": 4, "!": 5, "$": 6}

#: Event type -> glyph for predicate-scoped events.
_GLYPHS = {
    "access": {"sorted": "s", "random": "r"},
    "cache_hit": {"sorted": "c", "random": "c"},
    "fault": {"sorted": "x", "random": "x"},
    "breaker": {"sorted": "!", "random": "!"},
    "budget_rejected": {"sorted": "$", "random": "$"},
    "breaker_rejected": {"sorted": "!", "random": "!"},
}


@dataclass
class PredicateTimeline:
    """One predicate's activity over the trace's tick range."""

    predicate: int
    sorted_accesses: int = 0
    random_accesses: int = 0
    cache_hits: int = 0
    faults: int = 0
    breaker_transitions: int = 0
    budget_rejections: int = 0
    ticks: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class Timeline:
    """The parsed, per-predicate view of one trace."""

    predicates: list[PredicateTimeline]
    first_tick: int
    last_tick: int
    event_counts: dict[str, int]
    dropped_hint: int = 0

    @property
    def span(self) -> int:
        """Tick range covered (at least 1)."""
        return max(1, self.last_tick - self.first_tick + 1)


def build_timeline(events: Sequence[dict]) -> Timeline:
    """Fold trace events into per-predicate timelines.

    Events without a ``predicate`` field (phases, sessions, backoffs)
    contribute to the aggregate event counts only.
    """
    lanes: dict[int, PredicateTimeline] = {}
    counts: dict[str, int] = {}
    first: Optional[int] = None
    last: Optional[int] = None
    for record in events:
        event = str(record.get("event", ""))
        counts[event] = counts.get(event, 0) + 1
        tick = record.get("tick")
        if isinstance(tick, int):
            first = tick if first is None else min(first, tick)
            last = tick if last is None else max(last, tick)
        predicate = record.get("predicate")
        if not isinstance(predicate, int):
            continue
        lane = lanes.setdefault(predicate, PredicateTimeline(predicate))
        kind = str(record.get("kind", "sorted"))
        if event == "access":
            if kind == "sorted":
                lane.sorted_accesses += 1
            else:
                lane.random_accesses += 1
        elif event == "cache_hit":
            lane.cache_hits += 1
        elif event == "fault":
            lane.faults += 1
        elif event == "breaker":
            lane.breaker_transitions += 1
        elif event == "budget_rejected":
            lane.budget_rejections += 1
        glyph = _GLYPHS.get(event, {}).get(kind)
        if glyph is not None and isinstance(tick, int):
            lane.ticks.append((tick, glyph))
    return Timeline(
        predicates=[lanes[i] for i in sorted(lanes)],
        first_tick=first if first is not None else 0,
        last_tick=last if last is not None else 0,
        event_counts=counts,
    )


def _render_lane(
    lane: PredicateTimeline, first: int, span: int, width: int
) -> str:
    cells = ["."] * width
    for tick, glyph in lane.ticks:
        bucket = min(width - 1, (tick - first) * width // span)
        if _SEVERITY[glyph] > _SEVERITY[cells[bucket]]:
            cells[bucket] = glyph
    return "".join(cells)


def _optimizer_summaries(events: Sequence[dict]) -> list[str]:
    """One line per completed optimizer run carrying timing/fallback data.

    The optimizer's ``done`` phase event reports per-phase wall time
    (when a clock was injected) and the estimator's fallback count;
    showing them in the timeline keeps optimization overhead visible
    next to the execution it paid for.
    """
    lines: list[str] = []
    for record in events:
        if record.get("event") != "phase" or record.get("phase") != "done":
            continue
        parts: list[str] = []
        seconds = record.get("phase_seconds")
        if isinstance(seconds, dict) and seconds:
            parts.append(
                "phases "
                + " ".join(
                    f"{name}={float(value):.4f}s"
                    for name, value in seconds.items()
                )
            )
        fallbacks = record.get("fallbacks")
        if isinstance(fallbacks, (int, float)) and fallbacks:
            parts.append(f"fallbacks={int(fallbacks)}")
        if parts:
            lines.append("  optimizer: " + ", ".join(parts))
    return lines


def format_timeline(events: Sequence[dict], width: int = 64) -> str:
    """Render the Fig. 7-style ASCII timeline of a loaded trace."""
    if width < 8:
        raise ValueError(f"width must be >= 8, got {width}")
    timeline = build_timeline(events)
    lines = [
        f"trace: {sum(timeline.event_counts.values())} events, "
        f"ticks {timeline.first_tick}..{timeline.last_tick}"
    ]
    rendered_counts = ", ".join(
        f"{name} x{count}"
        for name, count in sorted(timeline.event_counts.items())
    )
    if rendered_counts:
        lines.append(f"  events: {rendered_counts}")
    lines.extend(_optimizer_summaries(events))
    if not timeline.predicates:
        lines.append("  (no predicate-scoped events)")
        return "\n".join(lines)
    for lane in timeline.predicates:
        bar = _render_lane(lane, timeline.first_tick, timeline.span, width)
        lines.append(
            f"  p{lane.predicate} |{bar}| "
            f"{lane.sorted_accesses} sa, {lane.random_accesses} ra, "
            f"{lane.cache_hits} hits, {lane.faults} faults"
            + (
                f", {lane.breaker_transitions} breaker"
                if lane.breaker_transitions
                else ""
            )
            + (
                f", {lane.budget_rejections} budget"
                if lane.budget_rejections
                else ""
            )
        )
    lines.append(
        "  legend: s=sorted r=random c=cache-hit x=fault !=breaker "
        "$=budget .=idle"
    )
    return "\n".join(lines)
