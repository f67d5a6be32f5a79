"""Uniform tensor grids with homogeneous Dirichlet convention.

A Grid covers an open box with N_k interior nodes per axis at spacing
h_k = (hi_k - lo_k) / (N_k + 1); values live on interior nodes only and
are implicitly zero on (and beyond) the boundary.  The quadrature weight
is the cell volume prod(h_k) per interior node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Grid", "GridFunction"]


@dataclass(frozen=True)
class Grid:
    lo: tuple
    hi: tuple
    shape: tuple  # interior node counts per axis

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.shape)):
            raise ValueError("lo, hi, shape must have equal length")
        for l, h, s in zip(self.lo, self.hi, self.shape):
            if not (math.isfinite(l) and math.isfinite(h) and l < h):
                raise ValueError("need finite lo < hi per axis")
            if s < 1:
                raise ValueError("need at least one interior node per axis")

    @classmethod
    def from_spec(cls, spec, shape=None):
        return cls(
            lo=tuple(d[0] for d in spec.domain),
            hi=tuple(d[1] for d in spec.domain),
            shape=tuple(shape) if shape is not None else tuple(spec.grid),
        )

    @property
    def n(self):
        return len(self.shape)

    @property
    def spacing(self):
        return tuple(
            (h - l) / (s + 1) for l, h, s in zip(self.lo, self.hi, self.shape)
        )

    @property
    def weight(self):
        w = 1.0
        for h in self.spacing:
            w *= h
        return w

    @property
    def size(self):
        m = 1
        for s in self.shape:
            m *= s
        return m

    def axis(self, k):
        """Interior node coordinates along axis k."""
        h = self.spacing[k]
        return self.lo[k] + h * np.arange(1, self.shape[k] + 1)

    def points(self):
        """All interior nodes, shape (size, n), lexicographic (axis 0 slowest)."""
        mesh = np.meshgrid(*(self.axis(k) for k in range(self.n)), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def meshes(self):
        """Coordinate arrays of the grid shape, one per axis."""
        return np.meshgrid(*(self.axis(k) for k in range(self.n)), indexing="ij")

    @cached_property
    def _stencils(self):
        """Per axis, the central difference stencil of ``gradient`` and its
        divisor 2 h_k: (interior, ahead, behind, first, second, last,
        second to last) index tuples, or None for an axis of one node."""
        stencils = []
        for k, h in enumerate(self.spacing):
            head = (slice(None),) * k
            cuts = None
            if self.shape[k] > 1:
                cuts = tuple(head + (cut,) for cut in (
                    slice(1, -1), slice(2, None), slice(None, -2),
                    slice(None, 1), slice(1, 2), slice(-1, None), slice(-2, -1)))
            stencils.append((cuts, 2.0 * h))
        return tuple(stencils)


@dataclass
class GridFunction:
    """Complex values at the interior nodes of a Grid (zero on the boundary)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != tuple(self.grid.shape):
            raise ValueError(
                f"values shape {vals.shape} does not match grid {self.grid.shape}"
            )
        self.values = vals

    def gradient(self, out=None):
        """Central differences per axis with the zero boundary extension.

        Returns an array of shape (n,) + grid.shape, complex, written
        into ``out`` when one of that shape and type is given.  The first
        and last nodes of an axis take x - 0 and 0 - x against the
        boundary, so signs of zero come out as with an explicitly zero
        padded array.
        """
        v = self.values
        if out is None:
            out = np.empty((self.grid.n,) + v.shape, dtype=complex)
        for dst, (cuts, two_h) in zip(out, self.grid._stencils):
            if cuts is None:
                dst.fill(0.0)
            else:
                interior, ahead, behind, first, second, last, second_last = cuts
                np.subtract(v[ahead], v[behind], out=dst[interior])
                np.subtract(v[second], 0.0, out=dst[first])
                np.subtract(0.0, v[second_last], out=dst[last])
            dst /= two_h
        return out
