"""Linear-scan window derivations: the oracle for the scraper's bisect reads.

These are the ``delta`` / ``window_values`` / ``_hist_window_delta`` loops
``repro.obs.timeseries.Scraper`` ran before its series became columns,
kept word for word over plain lists: ``points`` is a series'
``[(t, value), ...]``, ``snaps`` a histogram's
``[(t, count, sum, cumulative bucket counts), ...]``, both in time order.
Every call walks the series from its first point.
"""

import math


def delta(points, window_s=math.inf, at=None) -> float:
    if not points:
        return 0.0
    at = points[-1][0] if at is None else at
    end_v = start_v = None
    lo = at - window_s
    for t, v in points:
        if t > at:
            break
        end_v = v
        if t <= lo:
            start_v = v
    if end_v is None:
        return 0.0
    return end_v - (start_v if start_v is not None else 0.0)


def rate(points, interval_s, window_s=None, at=None) -> float:
    window = interval_s if window_s is None else window_s
    if window <= 0:
        return 0.0
    return delta(points, window, at) / window


def window_values(points, window_s=math.inf, at=None) -> list[float]:
    if not points:
        return []
    at = points[-1][0] if at is None else at
    lo = at - window_s
    return [v for t, v in points if lo < t <= at]


def hist_window_delta(snaps, window_s=math.inf, at=None):
    """``(observations, cumulative bucket counts)`` inside the window."""
    if not snaps:
        return None
    at = snaps[-1][0] if at is None else at
    lo = at - window_s
    end = start = None
    for snap in snaps:
        if snap[0] > at:
            break
        end = snap
        if snap[0] <= lo:
            start = snap
    if end is None:
        return None
    if start is None:
        return end[1], list(end[3])
    return end[1] - start[1], [e - s for e, s in zip(end[3], start[3])]


def window_quantile(snaps, bounds, q, window_s=math.inf, at=None):
    got = hist_window_delta(snaps, window_s, at)
    if got is None or got[0] <= 0:
        return None
    total, cumulative = got
    rank = max(1, math.ceil(q * total))
    for i, c in enumerate(cumulative):
        if c >= rank:
            return bounds[i] if i < len(bounds) else math.inf
    return math.inf


def window_fraction_above(snaps, bounds, threshold, window_s=math.inf, at=None):
    got = hist_window_delta(snaps, window_s, at)
    if got is None or got[0] <= 0:
        return None
    total, cumulative = got
    below = 0
    for bound, c in zip(bounds, cumulative):
        if bound <= threshold:
            below = c
        else:
            break
    return (total - below) / total
