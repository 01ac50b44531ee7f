"""Panel partition of the columns (and identically the rows).

Each supernode wider than the block size B is split into panels of width as
close to B as possible; narrower supernodes become single panels ("column
subsets are always subsets of supernodes", §3.2). The row partition reuses
the same boundaries, so the diagonal blocks are square.
"""

from __future__ import annotations

import numpy as np

from repro.symbolic.structure import SymbolicFactor
from repro.util.arrays import INDEX_DTYPE


def even_widths(w: int, B: int) -> list[int]:
    """Split ``w`` columns into ``ceil(w / B)`` (at least one) panels as
    evenly as possible: widths differ by at most one."""
    npanels = max(1, -(-w // B))
    base, extra = divmod(w, npanels)
    return [base + (1 if k < extra else 0) for k in range(npanels)]


class BlockPartition:
    """Partition of columns 0..n-1 into N contiguous panels.

    Attributes
    ----------
    panel_ptr:
        Length N+1; panel K spans columns ``panel_ptr[K] .. panel_ptr[K+1]-1``.
    panel_snode:
        Supernode that contains each panel.
    panel_of_col:
        Inverse map, length n.
    block_size:
        The requested B.
    policy_name:
        Which blocking policy produced the partition ("uniform" here;
        subclasses override).
    """

    policy_name = "uniform"

    def __init__(self, sf: SymbolicFactor, block_size: int = 48):
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.block_size = block_size
        self._split(sf)

    def _panel_widths(self, s: int, w: int) -> list[int]:
        """Panel widths for supernode ``s`` of width ``w`` (sum == w).
        Subclasses override this and nothing else of the splitting."""
        return even_widths(w, self.block_size)

    def _split(self, sf: SymbolicFactor) -> None:
        """Cut every supernode into the panels :meth:`_panel_widths` names."""
        self.symbolic = sf
        boundaries: list[int] = [0]
        snode_ids: list[int] = []
        ptr = sf.snode_ptr
        for s in range(sf.nsupernodes):
            a, b = int(ptr[s]), int(ptr[s + 1])
            pos = a
            for width in self._panel_widths(s, b - a):
                pos += width
                boundaries.append(pos)
                snode_ids.append(s)
            assert pos == b
        self._set_panels(boundaries, snode_ids)

    def _set_panels(self, boundaries: list[int], snode_ids: list[int]) -> None:
        """Finalize panel arrays from boundary/supernode lists."""
        self.panel_ptr = np.asarray(boundaries, dtype=INDEX_DTYPE)
        self.panel_snode = np.asarray(snode_ids, dtype=INDEX_DTYPE)
        n = self.symbolic.n
        self.panel_of_col = np.zeros(n, dtype=INDEX_DTYPE)
        if self.npanels > 0:
            marks = np.zeros(n, dtype=INDEX_DTYPE)
            marks[self.panel_ptr[1:-1]] = 1
            self.panel_of_col = np.cumsum(marks)

    @property
    def npanels(self) -> int:
        return self.panel_ptr.shape[0] - 1

    def width(self, k: int) -> int:
        return int(self.panel_ptr[k + 1] - self.panel_ptr[k])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.panel_ptr)

    def panel_depths(self) -> np.ndarray:
        """Elimination-tree depth of each panel (depth of its last column, the
        shallowest, so a root panel has depth 0).

        This is the key used by the Increasing Depth (ID) mapping heuristic.
        """
        return self.symbolic.depth[self.panel_ptr[1:] - 1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockPartition(N={self.npanels}, B={self.block_size})"
