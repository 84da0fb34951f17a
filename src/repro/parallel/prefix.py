"""Prefix sums of the per-degree vertex counts.

Edge-skipping (Algorithm IV.2) needs prefix sums of the per-degree vertex
counts ``N`` to map class-local offsets to global vertex identifiers; the
paper budgets ``O(log n)`` parallel time for this.  The scan runs over
``|D|`` class counts, so one ``np.cumsum`` is all it takes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["prefix_sum"]


def prefix_sum(values: np.ndarray, *, exclusive: bool = True) -> np.ndarray:
    """Prefix sum of a 1-D array.

    With ``exclusive=True`` (default) returns ``out[i] = sum(values[:i])``
    and has length ``len(values) + 1`` so that ``out[-1]`` is the total —
    the layout Algorithm IV.2 indexes with ``I(i)``.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("prefix_sum expects a 1-D array")
    if exclusive:
        out = np.zeros(len(values) + 1, dtype=np.int64 if values.dtype.kind in "iu" else values.dtype)
        np.cumsum(values, out=out[1:])
        return out
    return np.cumsum(values)
