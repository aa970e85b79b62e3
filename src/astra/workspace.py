"""Named work arrays for the array kernels of one training batch.

Freshly allocated arrays of the sizes an epoch works on cost a page fault per
4 KiB once the allocator has handed their memory back to the system, and on
small shapes those faults cost as much as the arithmetic.  A training run
therefore passes the same Workspace to every epoch's kernels, which then
allocate nothing after the first epoch.  The public helpers pass a new
Workspace, so what they return is freshly allocated.
"""

from __future__ import annotations

import numpy as np


class Workspace:
    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def get(self, name: str, shape, dtype=float) -> np.ndarray:
        """The array called `name`, uninitialised when first made."""
        a = self._arrays.get(name)
        if a is None or a.shape != shape or a.dtype != dtype:
            a = self._arrays[name] = np.empty(shape, dtype)
        return a
