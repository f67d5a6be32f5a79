"""Discrete evolution for operators in divergence form.

``discretize`` assembles the operator

    M u = div(A grad u) + b . grad u + div(c u) + a u

on a Grid with homogeneous Dirichlet boundary, as a sparse matrix over
the interior nodes in lexicographic order.  Second order terms use flux
differencing with coefficients sampled at cell midpoints x +- h/2 e_k
(for the pure 1D coefficient A = 1 this is exactly tridiag(1,-2,1)/h^2);
drift terms use central differences.  ``evolve`` runs implicit Euler
steps of u' = M u with the system matrix factored once (minimum degree
ordering on A^T + A in SuperLU's symmetric mode, threshold pivoting
kept), recording the L^p norm of the iterate at every step; a system
whose matrix and initial data have no nonzero imaginary entry is
factored and solved in real arithmetic.  ``estimate_omega`` turns a
norm trace into a growth bound estimate: the largest sliding-window
slope of log ||u||, clamped at zero.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix, identity
from scipy.sparse.linalg import splu

from .coeffspec import _eval_field
from .grids import Grid, GridFunction

STEP_CAP = 100_000

__all__ = [
    "DiscreteOperator",
    "discretize",
    "lp_norm",
    "NormTrace",
    "evolve",
    "estimate_omega",
    "STEP_CAP",
]


@dataclass(frozen=True)
class DiscreteOperator:
    """Sparse interior-node matrix for a coefficient spec on a grid."""

    grid: Grid
    matrix: object  # scipy CSC


def _field_on(field, meshes, where):
    return np.asarray(_eval_field(field, tuple(meshes), where)).astype(complex)


def _staggered_meshes(grid, k):
    """Coordinate meshes on the axis-k midpoint lattice (N_k + 1 along k)."""
    axes = []
    for l in range(grid.n):
        if l == k:
            h = grid.spacing[k]
            axes.append(grid.lo[k] + h * (np.arange(grid.shape[k] + 1) + 0.5))
        else:
            axes.append(grid.axis(l))
    return np.meshgrid(*axes, indexing="ij")


def discretize(spec, grid=None):
    """Assemble the operator matrix for ``spec`` on ``grid`` (default spec.grid)."""
    if grid is None:
        grid = Grid.from_spec(spec)
    n = grid.n
    shape = tuple(grid.shape)
    h = grid.spacing
    idx = np.arange(grid.size).reshape(shape)

    rows: list = []
    cols: list = []
    data: list = []

    def add(coef, offset):
        """Add entries (j, j+offset) with row-indexed coefficient array."""
        rsl = []
        csl = []
        for ax, off in enumerate(offset):
            m = shape[ax]
            if off >= 0:
                rsl.append(slice(0, m - off))
                csl.append(slice(off, m))
            else:
                rsl.append(slice(-off, m))
                csl.append(slice(0, m + off))
        r = idx[tuple(rsl)].ravel()
        if r.size == 0:
            return
        rows.append(r)
        cols.append(idx[tuple(csl)].ravel())
        data.append(np.broadcast_to(coef, shape)[tuple(rsl)].ravel().astype(complex))

    def unit(ax, sign=1):
        off = [0] * n
        off[ax] = sign
        return tuple(off)

    def combo(ax1, s1, ax2, s2):
        off = [0] * n
        off[ax1] += s1
        off[ax2] += s2
        return tuple(off)

    nodes = grid.meshes()

    for k in range(n):
        stag = _staggered_meshes(grid, k)
        take_up = tuple(slice(1, None) if l == k else slice(None) for l in range(n))
        take_dn = tuple(slice(None, -1) if l == k else slice(None) for l in range(n))
        for l in range(n):
            field = spec.A[k][l]
            if field.is_zero:
                continue
            G = _field_on(field, stag, f"A[{k}][{l}]")
            g_up = G[take_up]
            g_dn = G[take_dn]
            if l == k:
                hk2 = h[k] * h[k]
                add(g_up / hk2, unit(k, +1))
                add(g_dn / hk2, unit(k, -1))
                add(-(g_up + g_dn) / hk2, unit(k, 0) if n > 1 else (0,) * n)
            else:
                # flux G * (central d_l u averaged onto the k midpoint)
                q = 1.0 / (4.0 * h[k] * h[l])
                add((g_up - g_dn) * q, unit(l, +1))
                add(-(g_up - g_dn) * q, unit(l, -1))
                add(g_up * q, combo(k, +1, l, +1))
                add(-g_up * q, combo(k, +1, l, -1))
                add(-g_dn * q, combo(k, -1, l, +1))
                add(g_dn * q, combo(k, -1, l, -1))

    for k in range(n):
        if not spec.b[k].is_zero:
            bk = _field_on(spec.b[k], nodes, f"b[{k}]")
            add(bk / (2.0 * h[k]), unit(k, +1))
            add(-bk / (2.0 * h[k]), unit(k, -1))
        if not spec.c[k].is_zero:
            # conservative form: (c_k u) differenced, coefficient at the
            # neighbour node so the term stays the exact discrete adjoint
            # of the drift -c . grad
            ck = _field_on(spec.c[k], nodes, f"c[{k}]")
            pad = [(0, 0)] * n
            pad[k] = (1, 1)
            ckp = np.pad(ck, pad)
            up = tuple(slice(2, None) if l == k else slice(None) for l in range(n))
            dn = tuple(slice(None, -2) if l == k else slice(None) for l in range(n))
            add(ckp[up] / (2.0 * h[k]), unit(k, +1))
            add(-ckp[dn] / (2.0 * h[k]), unit(k, -1))

    if not spec.a.is_zero:
        av = _field_on(spec.a, nodes, "a")
        add(av, (0,) * n)

    if rows:
        mat = coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(grid.size, grid.size),
        ).tocsc()
    else:
        mat = coo_matrix((grid.size, grid.size), dtype=complex).tocsc()
    return DiscreteOperator(grid=grid, matrix=mat)


# ----------------------------------------------------------------------
# norms and traces


def lp_norm(u, p):
    """Quadrature L^p norm of a GridFunction: (sum |u|^p prod(h))^(1/p)."""
    if not (isinstance(p, numbers.Real) and math.isfinite(p)) or p < 1.0:
        raise ValueError(f"norm exponent must be finite and >= 1, got {p!r}")
    p = float(p)
    vals = np.abs(np.asarray(u.values)).ravel()
    return float(np.sum(vals ** p) * u.grid.weight) ** (1.0 / p)


@dataclass
class NormTrace:
    """L^p norms of an implicit Euler iterate, one sample per step."""

    p: float
    dt: float
    times: np.ndarray
    norms: np.ndarray

    @property
    def has_vanishing_norms(self):
        return bool(np.any(self.norms <= 1e-300))

    def fitted_rate(self):
        """Global least-squares slope of log ||u|| versus t (signed)."""
        if self.has_vanishing_norms or len(self.norms) < 2:
            return 0.0
        y = np.log(self.norms)
        t = self.times - self.times.mean()
        return float((t @ (y - y.mean())) / (t @ t))

    def nonincreasing(self, per_step_tol=0.0):
        return bool(np.all(np.diff(self.norms) <= per_step_tol))

    def write_csv(self, path):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("t,norm_p\n")
            for t, v in zip(self.times, self.norms):
                fh.write(f"{t:.17g},{v:.17g}\n")


def evolve(op, u0, dt, t_end, p):
    """Implicit Euler for u' = M u, recording ||u||_p each step.

    The system matrix I - dt M is factored once (sparse LU) and reused
    for every step.  The stencil matrices are structurally symmetric:
    the ordering is minimum degree on A^T + A, in SuperLU's symmetric
    mode, with threshold partial pivoting kept, so a small or zero
    diagonal entry still pivots off the diagonal.  When neither I - dt M
    nor the initial data has a nonzero imaginary entry, the
    factorization and the solves run in real arithmetic; the norms then
    agree with the complex route up to rounding.  ``round(t_end / dt)``
    steps are taken (at least one, at most STEP_CAP).
    """
    if not (0.0 < dt < math.inf and 0.0 < t_end < math.inf):
        raise ValueError(f"need finite dt > 0 and t_end > 0, got dt = {dt:g}, t_end = {t_end:g}")
    grid = op.grid
    if isinstance(u0, GridFunction):
        if u0.grid != grid:
            raise ValueError("initial data grid does not match the operator grid")
        vec = u0.values.reshape(-1)
    else:
        vec = np.asarray(u0).reshape(-1)
        if vec.size != grid.size:
            raise ValueError("initial data does not match the grid")
    ratio = t_end / dt  # may overflow to inf
    if ratio > STEP_CAP + 1 or round(ratio) > STEP_CAP:
        raise ValueError(f"t_end / dt = {ratio:.6g} asks for more than {STEP_CAP} steps")
    steps = max(1, int(round(ratio)))
    system = (identity(grid.size, format="csc", dtype=complex) - dt * op.matrix).tocsc()
    if not system.data.imag.any() and not np.imag(vec).any():
        # system.real would keep a strided view of the data, which
        # SuperLU rejects; copy into a contiguous float matrix instead
        system = csc_matrix(
            (np.ascontiguousarray(system.data.real), system.indices, system.indptr),
            shape=system.shape,
        )
        vec = vec.real.astype(float)
    else:
        vec = vec.astype(complex)
    norms = np.empty(steps + 1)
    norms[0] = lp_norm(GridFunction(grid, vec.reshape(grid.shape)), p)
    try:
        lu = splu(system, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError as err:
        raise RuntimeError(f"time step matrix I - dt M is singular: {err}") from err

    for k in range(1, steps + 1):
        vec = lu.solve(vec)
        norms[k] = lp_norm(GridFunction(grid, vec.reshape(grid.shape)), p)
        if not math.isfinite(norms[k]):
            raise OverflowError(
                f"L^p norm overflowed at step {k} (t = {k * dt:.6g})"
            )
    times = dt * np.arange(steps + 1)
    return NormTrace(p=float(p), dt=float(dt), times=times, norms=norms)


def estimate_omega(trace):
    """Largest sliding-window slope of log ||u||, clamped at zero.

    Windows hold 10 steps (11 samples); shorter traces use one window
    spanning the whole trace.  Traces that hit zero norm give 0 (nothing
    left to grow).
    """
    norms = np.asarray(trace.norms)
    if trace.has_vanishing_norms or norms.size < 2:
        return 0.0
    y = np.log(norms)
    m = min(11, norms.size)
    w = np.arange(m) - (m - 1) / 2.0
    denom = float(w @ w) * trace.dt
    # sliding inner products of y with the centered ramp w
    slopes = np.convolve(y, w[::-1], mode="valid") / denom
    return max(0.0, float(slopes.max()))
