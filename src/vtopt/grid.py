"""Structured grid of square elements, density fields, load and edge nodes, neighborhoods."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# Neighborhoods narrower than 1.5 element sizes would collapse to the element
# itself, so the effective radius is floored there.
MIN_NEIGHBORHOOD_FACTOR = 1.5

STAGES = ("raw", "filtered", "dgi", "physical")


class ElementField:
    """One scalar per element, tagged with the pipeline stage it belongs to.

    Values have shape (..., n_elements): one field, or a stack of fields along
    leading axes that the regularization chain maps row by row. They are
    stored read-only, so a field is one value for its whole life and its
    identity tells it apart: a state solve is tied to the very object it
    solved for. Unpickling constructs anew, so a copy is read-only too.
    """

    __slots__ = ("values", "stage")

    def __init__(self, values, stage: str):
        values = np.array(values, dtype=float)
        if values.ndim == 0:
            raise ValueError("element field needs at least one axis, got a scalar")
        if stage not in STAGES:
            raise ValueError(f"unknown field stage {stage!r}, expected one of {STAGES}")
        # a NaN fails both comparisons
        if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
            raise ValueError("density values must lie in [0, 1]")
        values.setflags(write=False)
        self.values = values
        self.stage = stage

    def __reduce__(self):
        return ElementField, (self.values, self.stage)

    def __repr__(self):
        return f"ElementField(stage={self.stage!r}, shape={self.values.shape})"


def load_node(nx: int, ny: int, h: float, x: float | None = None, y: float | None = None
              ) -> tuple[int, int]:
    """Indices (i, j) of the node nearest (x, y); by default the right edge at mid height.

    A point halfway between two nodes goes to the higher index.
    """
    i = nx if x is None else x / h
    j = ny / 2.0 if y is None else y / h
    return min(max(math.floor(i + 0.5), 0), nx), min(max(math.floor(j + 0.5), 0), ny)


def edge_nodes(nx: int, ny: int, edge: str) -> list[tuple[int, int]]:
    """Indices (i, j) of the nodes on the left, right, bottom or top edge."""
    if edge in ("left", "right"):
        return [(0 if edge == "left" else nx, j) for j in range(ny + 1)]
    if edge in ("bottom", "top"):
        return [(i, 0 if edge == "bottom" else ny) for i in range(nx + 1)]
    raise ValueError(f"unknown clamp edge {edge!r}")


@dataclass(frozen=True)
class NeighborTable:
    """CSR-style adjacency: elements of neighborhood e are indices[indptr[e]:indptr[e+1]]."""

    indptr: np.ndarray
    indices: np.ndarray

    def row(self, e: int) -> np.ndarray:
        return self.indices[self.indptr[e]:self.indptr[e + 1]]


@dataclass
class StructuredGrid:
    """Fixed rectangular grid of nx-by-ny square elements of edge length h.

    The lower-left corner is the origin. Element e = j*nx + i sits at center
    ((i+0.5)h, (j+0.5)h); node n = j*(nx+1) + i. Immutable after construction.
    """

    nx: int
    ny: int
    h: float
    _neighbor_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if int(self.nx) != self.nx or int(self.ny) != self.ny:
            raise ConfigError("element counts must be integers")
        self.nx, self.ny = int(self.nx), int(self.ny)
        if self.nx < 1 or self.ny < 1:
            raise ConfigError(f"grid needs at least one element per direction, got {self.nx}x{self.ny}")
        if not self.h > 0:
            raise ConfigError(f"element size must be positive, got {self.h}")

    @property
    def n_elements(self) -> int:
        return self.nx * self.ny

    @property
    def width(self) -> float:
        return self.nx * self.h

    @property
    def height(self) -> float:
        return self.ny * self.h

    def element_index(self, i: int, j: int) -> int:
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise IndexError(f"element ({i}, {j}) outside {self.nx}x{self.ny} grid")
        return j * self.nx + i

    def node_index(self, i: int, j: int) -> int:
        if not (0 <= i <= self.nx and 0 <= j <= self.ny):
            raise IndexError(f"node ({i}, {j}) outside grid")
        return j * (self.nx + 1) + i

    def element_at(self, x: float, y: float) -> int:
        """Element containing point (x, y); points on the upper/right boundary clamp inward."""
        i = min(max(int(math.floor(x / self.h)), 0), self.nx - 1)
        j = min(max(int(math.floor(y / self.h)), 0), self.ny - 1)
        return self.element_index(i, j)

    def contains_point(self, x: float, y: float) -> bool:
        return 0 <= x <= self.width and 0 <= y <= self.height

    def neighbor_table(self, r: float) -> NeighborTable:
        """Cached table of center-to-center neighborhoods of radius max(r, 1.5h)."""
        if r < 0:
            raise ValueError(f"neighborhood radius must be nonnegative, got {r}")
        key = float(r)
        table = self._neighbor_cache.get(key)
        if table is None:
            table = self._build_neighbor_table(key)
            self._neighbor_cache[key] = table
        return table

    def neighbor_spans(self, r: float) -> tuple[int, ...]:
        """Row half-widths of the radius-max(r, 1.5h) stencil, for row offsets -m..m.

        Element (i + di, j + dj) is a neighbor of (i, j) exactly when
        |di| <= spans[dj + m]; the stencil is the disk of neighbor_table.
        """
        if r < 0:
            raise ValueError(f"neighborhood radius must be nonnegative, got {r}")
        # beyond the grid diagonal every neighborhood already is the whole grid
        r_eff = min(max(float(r), MIN_NEIGHBORHOOD_FACTOR * self.h),
                    self.h * math.hypot(self.nx, self.ny))
        ratio2 = (r_eff / self.h) ** 2 * (1.0 + 1e-12)  # tolerance keeps ties on the circle
        m = int(math.floor(math.sqrt(ratio2)))
        return tuple(max(di for di in range(m + 1) if di * di + dj * dj <= ratio2)
                     for dj in range(-m, m + 1))

    def _build_neighbor_table(self, r: float) -> NeighborTable:
        spans = self.neighbor_spans(r)
        m = len(spans) // 2
        offsets = [(di, dj)
                   for dj in range(-m, m + 1)
                   for di in range(-spans[dj + m], spans[dj + m] + 1)]

        ids = np.arange(self.n_elements, dtype=np.int64).reshape(self.ny, self.nx)
        src_parts, dst_parts = [], []
        for di, dj in offsets:
            i0, i1 = max(0, -di), self.nx - max(0, di)
            j0, j1 = max(0, -dj), self.ny - max(0, dj)
            if i0 >= i1 or j0 >= j1:
                continue
            src_parts.append(ids[j0:j1, i0:i1].ravel())
            dst_parts.append(ids[j0 + dj:j1 + dj, i0 + di:i1 + di].ravel())
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        counts = np.bincount(src, minlength=self.n_elements)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return NeighborTable(indptr=indptr, indices=dst)
