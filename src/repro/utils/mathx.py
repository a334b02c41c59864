"""Small numeric helpers used across the library."""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np


def log_binomial(n: int, k: int) -> float:
    """Return ``ln C(n, k)`` computed stably through ``lgamma``.

    Used by Theorem 5's θ formula, where ``C(n, k)`` itself would
    overflow for any realistic graph.

    Examples
    --------
    >>> round(log_binomial(5, 2), 6) == round(math.log(10), 6)
    True
    """
    if k < 0 or k > n:
        raise ValueError(f"require 0 <= k <= n, got n={n}, k={k}")
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def mean_std(values: Iterable[float]) -> tuple[float, float]:
    """Return ``(mean, population standard deviation)`` of ``values``.

    An empty iterable yields ``(0.0, 0.0)`` — convenient for summarizing
    possibly-empty probability collections in dataset reports.
    """
    data = list(values)
    if not data:
        return 0.0, 0.0
    mean = sum(data) / len(data)
    var = sum((x - mean) ** 2 for x in data) / len(data)
    return mean, math.sqrt(var)


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """Return the (Q1, median, Q3) of ``values`` by linear interpolation.

    Matches the dataset-characteristics columns of Table 4 in the paper.
    Raises ``ValueError`` on an empty input because quartiles of nothing
    are meaningless.
    """
    data = sorted(values)
    if not data:
        raise ValueError("quartiles of an empty sequence are undefined")

    def _at(q: float) -> float:
        pos = q * (len(data) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return data[lo]
        frac = pos - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    return _at(0.25), _at(0.5), _at(0.75)


def stable_argsort(values: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative ints ``<= bound``, radix when small.

    numpy's ``kind="stable"`` picks an O(n) radix sort only for dtypes
    up to 16 bits (wider ints fall back to timsort, ~10x slower); node
    ids and shard sizes on the evaluation graphs fit comfortably, and
    bounds below ``2**30`` (the sample ids of a whole sketch) take two
    15-bit radix passes, low digit first.

    Examples
    --------
    >>> stable_argsort(np.array([2, 0, 2, 1]), 2).tolist()
    [1, 3, 0, 2]
    """
    if 0 <= bound <= 32767:
        return np.argsort(values.astype(np.int16), kind="stable")
    if 0 <= bound < 1 << 30:
        low = np.argsort((values & 0x7FFF).astype(np.int16), kind="stable")
        high = np.argsort(
            (values[low] >> 15).astype(np.int16), kind="stable"
        )
        return low[high]
    return np.argsort(values, kind="stable")
