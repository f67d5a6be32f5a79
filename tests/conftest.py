"""Shared builders for the test suite.

Kept import-light: everything here is plain helpers, no autouse
fixtures, so individual test modules stay runnable on their own.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from scipy.sparse import identity
from scipy.sparse.linalg import splu

from dissipate.cli import main as cli_main
from dissipate.coeffspec import bump, sample_operator
from dissipate.formcheck import MASK_EPS
from dissipate.grids import GridFunction
from dissipate.pointwise import TOL_PSD

REPO_ROOT = Path(__file__).resolve().parents[1]
PRESET_DIR = REPO_ROOT / "src" / "dissipate" / "presets"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def preset(name):
    """Path of a bundled operator document, usable as a CLI argument."""
    return str(PRESET_DIR / f"{name}.json")


def run_cli(*argv):
    """Run the CLI in process; returns (exit code, stdout, stderr)."""
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def boundary_flat_battery(grid, count, seed):
    """Seeded smooth probes with a double zero on the boundary.

    The interior-node quadrature never sees boundary cells, so probes
    whose gradient also vanishes there keep both functional routes
    second order in the spacing.  Each probe is a sin^2 envelope times
    a strictly positive trigonometric amplitude times a unimodular
    phase factor.
    """
    rng = np.random.default_rng(seed)
    meshes = grid.meshes()
    hatted = [(m - lo) / (hi - lo) for m, lo, hi in zip(meshes, grid.lo, grid.hi)]
    probes = []
    for _ in range(count):
        vals = np.ones(grid.shape)
        for t in hatted:
            vals = vals * np.sin(np.pi * t) ** 2
        amp = np.full(grid.shape, 1.6)
        phase = np.zeros(grid.shape)
        for t in hatted:
            amp = amp + rng.uniform(-0.35, 0.35) * np.sin(int(rng.integers(1, 4)) * np.pi * t)
            amp = amp + rng.uniform(-0.35, 0.35) * np.cos(int(rng.integers(1, 4)) * np.pi * t)
            phase = phase + rng.uniform(-1.0, 1.0) * np.sin(int(rng.integers(1, 4)) * np.pi * t)
        probes.append(GridFunction(grid, vals * amp * np.exp(1j * phase)))
    return probes


def seeded_matrices(count=200, seed=1234, dims=(1, 2, 3, 5), allow_zero_im=True):
    """Random complex matrices whose Re symmetric part is PSD.

    A few have a rank deficient Re part, and (unless disabled) a few
    have a vanishing Im symmetric part, to reach the edge branches.
    """
    rng = np.random.default_rng(seed)
    mats = []
    for i in range(count):
        n = dims[i % len(dims)]
        G = rng.normal(size=(n, n))
        if i % 13 == 5 and n > 1:
            G[:, 0] = 0.0
        S_r = G @ G.T
        H = rng.normal(size=(n, n))
        S_i = 0.5 * (H + H.T) * rng.uniform(0.1, 2.0)
        K_r = rng.normal(size=(n, n))
        K_r = 0.5 * (K_r - K_r.T)
        K_i = rng.normal(size=(n, n))
        K_i = 0.5 * (K_i - K_i.T)
        if allow_zero_im and i % 17 == 0:
            S_i = np.zeros((n, n))
        elif not np.any(S_i):
            S_i[0, 0] = 1.0
        mats.append((S_r + K_r) + 1j * (S_i + K_i))
    return mats


def pencil_oracle(S_r, S_i):
    """The PSD test of the pencils S_r +- t S_i from numpy eigenvalues,
    and its tolerance (numpy directly, not through ``pointwise``)."""
    tol = TOL_PSD * (1.0 + np.abs(np.linalg.eigvalsh(S_r)).sum())

    def feasible(t):
        return (
            np.linalg.eigvalsh(S_r + t * S_i).min() >= -tol
            and np.linalg.eigvalsh(S_r - t * S_i).min() >= -tol
        )

    return feasible, tol


def _bisect(feasible, lo, hi):
    """Halve [lo, hi] down to the relative width of ``lambda_nodes``."""
    while hi - lo > 1e-12 * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _doubled(feasible, lo, hi):
    """Double a bracket whose lower end is feasible until its top is not,
    then bisect it; (inf, inf) once the top passes 2^60."""
    while feasible(hi):
        lo = hi
        hi *= 2.0
        if hi > 2.0**60:
            return math.inf, math.inf
    return _bisect(feasible, lo, hi)


def lam_bracket_oracle(S_r, S_i):
    """The admissible pencil ratio of one matrix, as ``lambda_nodes``
    finds it, from numpy eigenvalues of that matrix alone.

    The first bracket is the window (1 -+ 1e-9) t0 around the closed-form
    ratio t0 = 1 / max |eig(W^T S_i W)|, W = V (w + tol)^(-1/2) from
    ``eigh(S_r)``; [0, lo0] when both ends fail and [hi0, 2 hi0], doubled,
    when the top passes.  Without a positive seed up to 2^59 the window
    is the single point t = 1.  Returns (lam, hi): the ratio and the
    upper end of its final bracket, both inf when the ratio is.
    """
    feasible, tol = pencil_oracle(S_r, S_i)
    if np.linalg.norm(S_i) == 0.0:
        return math.inf, math.inf
    w, V = np.linalg.eigh(S_r)
    t0, rel = 1.0, 0.0
    if (w + tol > 0.0).all():
        W = V / np.sqrt(w + tol)
        with np.errstate(divide="ignore"):
            seed = 1.0 / np.abs(np.linalg.eigvalsh(W.T @ S_i @ W)).max()
        if 0.0 < seed <= 2.0**59:
            t0, rel = seed, 1e-9
    lo0, hi0 = t0 * (1.0 - rel), t0 * (1.0 + rel)
    if feasible(hi0):
        return _doubled(feasible, hi0, 2.0 * hi0)
    if feasible(lo0):
        return _bisect(feasible, lo0, hi0)
    return _bisect(feasible, 0.0, lo0)


def lam_doubling_oracle(S_r, S_i):
    """The ratio by the earlier search from t = 1 (numpy): [1, 2] doubled
    while its top is feasible, else [0, 1], then bisection.  Returns
    (lam, hi) as ``lam_bracket_oracle`` does."""
    feasible, _ = pencil_oracle(S_r, S_i)
    if np.linalg.norm(S_i) == 0.0:
        return math.inf, math.inf
    if feasible(1.0):
        return _doubled(feasible, 1.0, 2.0)
    return _bisect(feasible, 0.0, 1.0)


def lam_oracle(S_r, S_i):
    """The ratio alone from ``lam_bracket_oracle``."""
    return lam_bracket_oracle(S_r, S_i)[0]


def pinch_oracle(S_r, S_i, t):
    """Lowest eigenvector (numpy) of the lower of the pencils S_r +- t S_i,
    signed so that its largest entry is positive."""
    wp, Vp = np.linalg.eigh(S_r + t * S_i)
    wm, Vm = np.linalg.eigh(S_r - t * S_i)
    xi = Vp[:, 0] if wp[0] <= wm[0] else Vm[:, 0]
    return -xi if xi[int(np.argmax(np.abs(xi)))] < 0 else xi


def p_condition_oracle(A, p):
    """The p-condition of one complex matrix from numpy eigenvalues."""
    S_r = 0.5 * (A.real + A.real.T)
    S_i = 0.5 * (A.imag + A.imag.T)
    tol = TOL_PSD * (1.0 + np.abs(np.linalg.eigvalsh(S_r)).sum())
    s = 2.0 * math.sqrt(p - 1.0)
    return all(
        np.linalg.eigvalsh(s * S_r + sign * (p - 2.0) * S_i).min() >= -tol
        for sign in (1.0, -1.0)
    )


def padded_gradient_oracle(values, spacing):
    """Central differences against an explicitly zero padded copy,
    shape (n,) + values.shape."""
    n = values.ndim
    padded = np.pad(values, 1)
    out = np.empty((n,) + values.shape, dtype=complex)
    core = tuple(slice(1, -1) for _ in range(n))
    for k in range(n):
        up = list(core)
        dn = list(core)
        up[k] = slice(2, None)
        dn[k] = slice(0, -2)
        out[k] = (padded[tuple(up)] - padded[tuple(dn)]) / (2.0 * spacing[k])
    return out


def mesh_profile_oracle(grid, terms):
    """Sum of amp * prod bump((x - ctr)/rad) taken on the full meshes."""
    meshes = grid.meshes()
    rho = np.zeros_like(meshes[0])
    for amp, ctrs, rads in terms:
        piece = np.full_like(meshes[0], amp)
        for k, mesh in enumerate(meshes):
            piece = piece * bump((mesh - ctrs[k]) / rads[k])
        rho = rho + piece
    return rho


def form_value_oracle(spec, grid, values, p):
    """The transformed functional by the node-first formula: padded
    gradient, the full modulus direction split at every exponent and
    einsums over (m, n, n) coefficients."""
    sam = sample_operator(spec, grid.points())
    vals = np.asarray(values, dtype=complex).reshape(grid.shape)
    g = padded_gradient_oracle(vals, grid.spacing).reshape(grid.n, -1)
    flat = vals.reshape(-1)
    absv = np.abs(flat)
    unmasked = absv > MASK_EPS * absv.max(initial=0.0)
    phase = np.zeros_like(flat)
    np.divide(flat.conj(), absv, out=phase, where=unmasked)
    w = phase[None, :] * g
    X = np.where(unmasked[None, :], w.real, 0.0)
    Y = np.where(unmasked[None, :], w.imag, 0.0)

    pc = p / (p - 1.0)
    gamma = 1.0 - 2.0 / p
    A = sam.A
    total = np.einsum("jhk,kj,hj->j", A, g, g.conj()).real
    if gamma != 0.0:
        A_minus_star = A - A.conj().transpose(0, 2, 1)
        total = total - gamma * np.einsum("jhk,kj,hj->j", A_minus_star, X + 0j, X - 1j * Y).real
        total = total - gamma * gamma * np.einsum("jhk,kj,hj->j", A, X + 0j, X + 0j).real
    im_bc = (sam.b + sam.c).imag.T
    if np.any(im_bc != 0.0):
        total = total + np.einsum("kj,kj->j", im_bc, (flat.conj()[None, :] * g).imag)
    zer = (sam.div_b / p - sam.div_c / pc - sam.a).real
    if np.any(zer != 0.0):
        total = total + zer * (flat.real ** 2 + flat.imag ** 2)
    return float(total.sum() * grid.weight)


def complex_evolve_oracle(op, u0, dt, t_end, p, colamd=False):
    """Implicit Euler norms with the factorization and the solves always
    in complex arithmetic, whatever the input.  The factorization uses
    the ordering of ``evolve``, so the complex route matches bit for bit,
    or SuperLU's default COLAMD ordering with ``colamd=True``."""
    grid = op.grid
    vec = np.asarray(getattr(u0, "values", u0), dtype=complex).reshape(-1)
    steps = max(1, int(round(t_end / dt)))
    system = (identity(grid.size, format="csc", dtype=complex) - dt * op.matrix).tocsc()
    if colamd:
        lu = splu(system)
    else:
        lu = splu(system, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})

    def norm(v):
        return float(np.sum(np.abs(v) ** p) * grid.weight) ** (1.0 / p)

    norms = np.empty(steps + 1)
    norms[0] = norm(vec)
    for k in range(1, steps + 1):
        vec = lu.solve(vec)
        norms[k] = norm(vec)
    return norms


# A one dimensional operator with every coefficient populated and
# nonconstant, used by the two functional-route batteries.
FULL_COEFF_1D = {
    "n": 1,
    "domain": [[0.0, 1.0]],
    "grid": [256],
    "A": [[{"re": "2 + sin(pi*x1)", "im": "0.5*cos(pi*x1)"}]],
    "b": [{"re": "0.3*x1", "im": "0.2"}],
    "c": [{"re": "0.1*cos(pi*x1)", "im": "-0.4*x1"}],
    "a": {"re": "-0.5", "im": "0.3*x1"},
}


# Deterministic CLI invocations backed by committed golden files.  The
# last case also exercises --format in the pre-subcommand position.
GOLDEN_CASES = [
    ("examples_id1.json", ("examples", "--id", "1", "--format", "json")),
    ("examples_id2.json", ("examples", "--id", "2", "--format", "json")),
    ("examples_id3.json", ("examples", "--id", "3", "--format", "json")),
    ("interval_one_plus_i.json", ("interval", preset("one_plus_i_laplacian"), "--format", "json")),
    ("constant_example3_p4.json", ("constant", preset("example3"), "--p", "4", "--format", "json")),
    ("falsify_example2.txt", ("--format", "text", "falsify", preset("example2"), "--p", "2", "--budget", "5000", "--seed", "7")),
    # p != 2 reaches the modulus direction split: a 1D witness and a 2D miss
    ("falsify_one_plus_i_p12.txt", ("falsify", preset("one_plus_i_laplacian"), "--p", "12", "--budget", "2000", "--seed", "0")),
    ("falsify_example1_p4.txt", ("falsify", preset("example1"), "--p", "4", "--budget", "1000", "--seed", "0")),
]
