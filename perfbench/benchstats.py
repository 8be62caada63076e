"""Span self time: the arithmetic behind the per-layer `self_s` metrics.
Standard library only, so the tests can check it without numpy.
"""

from __future__ import annotations


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Self time per span id: its duration minus the part of its interval
    that its child spans cover. Children that overlap (pool threads) are
    counted once.

    `spans` holds (span_id, parent_id, start, end) tuples.
    """
    children = {}
    for sid, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, start, end in spans:
        inside = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())
                  if min(e, end) > max(s, start)]
        out[sid] = (end - start) - covered(inside)
    return out
