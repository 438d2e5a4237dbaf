"""The benchmark's one statistics helper: median, quartiles, tail, count.

Every figure the benchmark reports from repeated samples goes through
summarize(); nothing else in the benchmark sorts samples by hand.
"""

import statistics


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them.

    A single sample is its own median and quartiles.
    """
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, worse="high"):
    """The most extreme percentile with at least ten samples beyond it.

    Returns (percentile, value), or None with ten samples or fewer. With
    worse="high" the tail is the high end (times); with worse="low" it is
    the low end (rates), and the percentile counts from the bottom.
    """
    n = len(values)
    if n <= 10:
        return None
    ordered = sorted(values)
    pct = 100.0 * (n - 10) / n
    if worse == "high":
        return pct, ordered[n - 11]
    return 100.0 - pct, ordered[10]


def summarize(values, worse="high"):
    """Median, quartiles, tail and sample count of @p values."""
    q1, median, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "tail": tail(values, worse),
    }


def describe(summary, unit=""):
    """One-line human-readable rendering of a summarize() result."""
    text = "median %.6g%s [q1 %.6g, q3 %.6g] n=%d" % (
        summary["median"], unit, summary["q1"], summary["q3"],
        summary["n"])
    if summary["tail"] is not None:
        pct, value = summary["tail"]
        text += ", p%.3g %.6g" % (pct, value)
    return text
