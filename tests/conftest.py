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
from scipy.sparse import coo_matrix, identity
from scipy.sparse.linalg import splu

from dissipate.cli import main as cli_main
from dissipate.coeffspec import _BINARY, _CALLS, _eval_field, bump, sample_operator
from dissipate.formcheck import MASK_EPS
from dissipate.grids import Grid, GridFunction
from dissipate.pointwise import TOL_PENCIL
from dissipate.semigroup import _staggered_meshes

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


def unit_pair_oracle(S_r, S_i):
    """S_r and S_i of one node divided by the largest |S_r| entry, or by
    2^-500 times the largest |S_i| entry where that is larger, or by the
    largest |S_i| entry where S_r = 0 (a zero pair stays zero)."""
    big_r, big_i = float(np.abs(S_r).max()), float(np.abs(S_i).max())
    scale = max(big_r, 2.0**-500 * big_i) if big_r > 0.0 else big_i
    scale = scale if scale > 0.0 else 1.0
    return S_r / scale, S_i / scale


def pencil_oracle(S_r, S_i):
    """The PSD test of the pencils S_r +- t S_i of the node's unit pair
    from numpy eigenvalues (numpy directly, not through ``pointwise``)."""
    S_r, S_i = unit_pair_oracle(S_r, S_i)

    def feasible(t):
        return (
            np.linalg.eigvalsh(S_r + t * S_i).min() >= -TOL_PENCIL
            and np.linalg.eigvalsh(S_r - t * S_i).min() >= -TOL_PENCIL
        )

    return feasible


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


def window_ends_oracle(S_r, S_i):
    """The four ends ``lambda_nodes`` tests first, in ascending order,
    from numpy eigenvalues of one node's unit pair: the outer window
    (1 -+ 1e-9) t0 around the inner window (1 -+ 4e-13) t0 of the
    closed-form ratio t0 = 1 / max |eig(W^T S_i W)|, W = V (w + tol)^(-1/2)
    from ``eigh(S_r)`` and tol the pencil slack.  Without a positive seed
    up to 2^59 every end is 1."""
    S_r, S_i = unit_pair_oracle(S_r, S_i)
    tol = TOL_PENCIL
    w, V = np.linalg.eigh(S_r)
    if (w + tol > 0.0).all():
        W = V / np.sqrt(w + tol)
        with np.errstate(divide="ignore"):
            t0 = 1.0 / np.abs(np.linalg.eigvalsh(W.T @ S_i @ W)).max()
        if 0.0 < t0 <= 2.0**59:
            return [t0 * (1.0 - 1e-9), t0 * (1.0 - 0.4e-12), t0 * (1.0 + 0.4e-12), t0 * (1.0 + 1e-9)]
    return [1.0] * 4


def lam_bracket_oracle(S_r, S_i):
    """The admissible pencil ratio of one matrix, as ``lambda_nodes``
    finds it, from numpy eigenvalues of that matrix alone.

    The first bracket runs from the end of ``window_ends_oracle`` below
    the first one that fails (0 below the lowest) to that end, and from
    the highest end e3 to 2 e3, doubled, when all four pass.  Returns
    (lam, hi): the ratio and the upper end of its final bracket, both
    inf when the ratio is.
    """
    feasible = pencil_oracle(S_r, S_i)
    if not S_i.any():
        return math.inf, math.inf
    ends = window_ends_oracle(S_r, S_i)
    for below, end in zip([0.0] + ends, ends):
        if not feasible(end):
            return _bisect(feasible, below, end)
    return _doubled(feasible, ends[-1], 2.0 * ends[-1])


def lam_doubling_oracle(S_r, S_i):
    """The ratio by the earlier search from t = 1 (numpy): [1, 2] doubled
    while its top is feasible, else [0, 1], then bisection.  Returns
    (lam, hi) as ``lam_bracket_oracle`` does."""
    feasible = pencil_oracle(S_r, S_i)
    if not S_i.any():
        return math.inf, math.inf
    if feasible(1.0):
        return _doubled(feasible, 1.0, 2.0)
    return _bisect(feasible, 0.0, 1.0)


def lam_oracle(S_r, S_i):
    """The ratio alone from ``lam_bracket_oracle``."""
    return lam_bracket_oracle(S_r, S_i)[0]


def pinch_oracle(S_r, S_i, t):
    """Lowest eigenvector (numpy) of the lower of the pencils S_r +- t S_i
    of the node's unit pair, signed so that its largest entry is positive."""
    S_r, S_i = unit_pair_oracle(S_r, S_i)
    wp, Vp = np.linalg.eigh(S_r + t * S_i)
    wm, Vm = np.linalg.eigh(S_r - t * S_i)
    xi = Vp[:, 0] if wp[0] <= wm[0] else Vm[:, 0]
    return -xi if xi[int(np.argmax(np.abs(xi)))] < 0 else xi


def p_condition_oracle(A, p):
    """The p-condition of one complex matrix: the numpy pencil test of
    ``pencil_oracle`` at the signed t(p) = (p - 2) / (2 sqrt(p-1))."""
    feasible = pencil_oracle(0.5 * (A.real + A.real.T), 0.5 * (A.imag + A.imag.T))
    return bool(feasible((p - 2.0) / (2.0 * math.sqrt(p - 1.0))))


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


def random_terms_oracle(rng, box):
    """Seeded profile terms drawn value by value with ``Generator.uniform``:
    1 to 3 terms of an amplitude, a centre per axis inside the middle 70%
    of the box and a radius per axis of 15% to 60% of its width."""
    cnt = int(rng.integers(1, 4))
    terms = []
    for _ in range(cnt):
        amp = float(rng.uniform(0.2, 1.0))
        ctrs = tuple(float(rng.uniform(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo))) for lo, hi in box)
        rads = tuple(float(rng.uniform(0.15, 0.6) * (hi - lo)) for lo, hi in box)
        terms.append((amp, ctrs, rads))
    return tuple(terms)


def separable_profile_oracle(axes, terms):
    """Sum of amp * prod bump((x - ctr)/rad) with the bumps taken per
    axis on ``axes`` (``np.ix_`` of the grid axes) and multiplied out
    in axis order, every bump built afresh."""
    rho = np.zeros(tuple(ax.size for ax in axes))
    for amp, ctrs, rads in terms:
        piece = amp
        for k, ax in enumerate(axes):
            piece = piece * bump((ax - ctrs[k]) / rads[k])
        rho = rho + piece
    return rho


def probe_values_oracle(family, params, axes):
    """A falsifier probe built from scratch: the separable profile times
    the family's phase factor, with <k, x> summed over the axes in order."""

    def wave(t, kvec):
        phase = np.zeros(rho.shape)
        for comp, ax in zip(kvec, axes):
            if comp:
                phase = phase + comp * ax
        return np.exp(1j * t * phase)

    rho = separable_profile_oracle(axes, params["terms"])
    if family == 1:
        return rho * np.exp(0.5j * params["mu"] * np.log(rho * rho + params["eps"]))
    if family == 2:
        return rho * wave(params["t"], params["k"])
    parts = np.full(rho.shape, params["c0_re"] + 1j * params["c0_im"], dtype=complex)
    for c_re, c_im, t, kvec in params["waves"]:
        parts = parts + (c_re + 1j * c_im) * wave(t, kvec)
    return rho * parts


def real_middle_oracle(A, X, Y):
    """<(Im A + Im A^T) X, Y> at each node, A node first (m, n, n)."""
    return np.einsum("jhk,kj,hj->j", A.imag + A.imag.transpose(0, 2, 1), X, Y)


def complex_middle_oracle(A, X, Y):
    """Re <(A - A*) X, X + iY> at each node by a complex einsum, A node
    first (m, n, n): the middle term as written in the functional."""
    A_minus_star = A - A.conj().transpose(0, 2, 1)
    return np.einsum("jhk,kj,hj->j", A_minus_star, X + 0j, X - 1j * Y).real


def form_value_oracle(spec, grid, values, p, middle=real_middle_oracle):
    """The transformed functional by the node-first formula: padded
    gradient, the full modulus direction split at every exponent and
    einsums over (m, n, n) coefficients, with the term
    Re <(A - A*) X, X + iY> taken by ``middle``."""
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
        total = total - gamma * middle(A, X, Y)
        total = total - gamma * gamma * np.einsum("jhk,kj,hj->j", A, X + 0j, X + 0j).real
    im_bc = (sam.b + sam.c).imag.T
    if np.any(im_bc != 0.0):
        total = total + np.einsum("kj,kj->j", im_bc, (flat.conj()[None, :] * g).imag)
    zer = (sam.div_b / p - sam.div_c / pc - sam.a).real
    if np.any(zer != 0.0):
        total = total + zer * (flat.real ** 2 + flat.imag ** 2)
    return float(total.sum() * grid.weight)


def pack_oracle(family, params, box):
    """The falsifier's descent coordinates by a hand-written walk over
    each family: (vec, scales, lows, highs)."""
    vec = []
    scales = []
    lows = []
    highs = []

    def push(v, s, lo, hi):
        vec.append(v)
        scales.append(s)
        lows.append(lo)
        highs.append(hi)

    if family == 1:
        push(params["mu"], 2.0, -50.0, 50.0)
        push(math.log10(params["eps"]), 1.0, -9.0, 0.0)
    elif family == 2:
        push(params["t"], 2.0, -100.0, 100.0)
    else:
        push(params["c0_re"], 0.25, -2.0, 2.0)
        push(params["c0_im"], 0.25, -2.0, 2.0)
        for c_re, c_im, t, _ in params["waves"]:
            push(c_re, 0.25, -2.0, 2.0)
            push(c_im, 0.25, -2.0, 2.0)
            push(t, 2.0, -100.0, 100.0)
    for amp, ctrs, rads in params["terms"]:
        push(amp, 0.2, 0.05, 2.0)
        for k, (lo, hi) in enumerate(box):
            push(ctrs[k], 0.1 * (hi - lo), lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
        for k, (lo, hi) in enumerate(box):
            push(rads[k], 0.1 * (hi - lo), 0.02 * (hi - lo), 1.0 * (hi - lo))
    return np.array(vec), np.array(scales), np.array(lows), np.array(highs)


def unpack_oracle(family, params, vec, box):
    """The walk of ``pack_oracle`` run backwards: params with vec put back."""
    i = 0
    out = dict(params)
    if family == 1:
        out["mu"] = float(vec[0])
        out["eps"] = float(10.0 ** vec[1])
        i = 2
    elif family == 2:
        out["t"] = float(vec[0])
        i = 1
    else:
        out["c0_re"] = float(vec[0])
        out["c0_im"] = float(vec[1])
        i = 2
        waves = []
        for _, _, _, kvec in params["waves"]:
            waves.append((float(vec[i]), float(vec[i + 1]), float(vec[i + 2]), kvec))
            i += 3
        out["waves"] = tuple(waves)
    n = len(box)
    terms = []
    for _ in params["terms"]:
        amp = float(vec[i])
        i += 1
        ctrs = tuple(float(v) for v in vec[i : i + n])
        i += n
        rads = tuple(float(v) for v in vec[i : i + n])
        i += n
        terms.append((amp, ctrs, rads))
    out["terms"] = tuple(terms)
    return out


def complex_evolve_oracle(op, u0, dt, t_end, p, colamd=False):
    """Implicit Euler norms with the factorization and the solves always
    in complex arithmetic, whatever the input.  The factorization takes
    the arguments of ``evolve`` (its ordering and its one-column panels),
    so the complex route matches bit for bit, or SuperLU's defaults
    (COLAMD ordering, default panel) with ``colamd=True``."""
    grid = op.grid
    vec = np.asarray(getattr(u0, "values", u0), dtype=complex).reshape(-1)
    steps = max(1, int(round(t_end / dt)))
    system = (identity(grid.size, format="csc", dtype=complex) - dt * op.matrix).tocsc()
    if colamd:
        lu = splu(system)
    else:
        lu = splu(system, permc_spec="MMD_AT_PLUS_A", panel_size=1, options={"SymmetricMode": True})

    def norm(v):
        # the sum on |v| / 2^e, with 2^e the power of two at max |v|
        mags = np.abs(v)
        e = math.frexp(float(mags.max()))[1]
        root = float(np.sum((mags / 2.0**e) ** p) * grid.weight) ** (1.0 / p)
        return root * 2.0**e

    norms = np.empty(steps + 1)
    norms[0] = norm(vec)
    for k in range(1, steps + 1):
        vec = lu.solve(vec)
        norms[k] = norm(vec)
    return norms


def discretize_triplet_oracle(spec, grid=None):
    """The operator matrix of ``semigroup.discretize`` assembled from one
    COO triplet per term and stencil point, with the duplicates summed by
    scipy's ``tocsc`` in whatever order it takes them."""
    if grid is None:
        grid = Grid.from_spec(spec)
    n = grid.n
    shape = tuple(grid.shape)
    h = grid.spacing
    idx = np.arange(grid.size).reshape(shape)
    rows, cols, data = [], [], []

    def field_on(field, meshes, where):
        with np.errstate(all="ignore"):
            return np.asarray(_eval_field(field, tuple(meshes), where)).astype(complex)

    def add(coef, offset):
        rsl, csl = [], []
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
            G = field_on(field, stag, f"A[{k}][{l}]")
            g_up = G[take_up]
            g_dn = G[take_dn]
            if l == k:
                hk2 = h[k] * h[k]
                add(g_up / hk2, unit(k, +1))
                add(g_dn / hk2, unit(k, -1))
                add(-(g_up + g_dn) / hk2, unit(k, 0))
            else:
                q = 1.0 / (4.0 * h[k] * h[l])
                add((g_up - g_dn) * q, unit(l, +1))
                add(-(g_up - g_dn) * q, unit(l, -1))
                add(g_up * q, combo(k, +1, l, +1))
                add(-g_up * q, combo(k, +1, l, -1))
                add(-g_dn * q, combo(k, -1, l, +1))
                add(g_dn * q, combo(k, -1, l, -1))
    for k in range(n):
        if not spec.b[k].is_zero:
            bk = field_on(spec.b[k], nodes, f"b[{k}]")
            add(bk / (2.0 * h[k]), unit(k, +1))
            add(-bk / (2.0 * h[k]), unit(k, -1))
        if not spec.c[k].is_zero:
            ck = field_on(spec.c[k], nodes, f"c[{k}]")
            pad = [(0, 0)] * n
            pad[k] = (1, 1)
            ckp = np.pad(ck, pad)
            up = tuple(slice(2, None) if l == k else slice(None) for l in range(n))
            dn = tuple(slice(None, -2) if l == k else slice(None) for l in range(n))
            add(ckp[up] / (2.0 * h[k]), unit(k, +1))
            add(-ckp[dn] / (2.0 * h[k]), unit(k, -1))
    if not spec.a.is_zero:
        add(field_on(spec.a, nodes, "a"), (0,) * n)
    if not rows:
        return coo_matrix((grid.size, grid.size), dtype=complex).tocsc()
    return coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.size, grid.size),
    ).tocsc()


def tree_value_oracle(tree, xs):
    """The value of an expression tree at the points xs, by the recursive
    walk that ``coeffspec.evaluate`` replaced: ("num", value), ("var",
    index), ("neg", child), ("call", name, child) or (op, left, right),
    operands before operators through the same helpers."""
    kind = tree[0]
    if kind == "num":
        return np.full_like(xs[0], tree[1])
    if kind == "var":
        return xs[tree[1] - 1]
    if kind == "neg":
        return -tree_value_oracle(tree[1], xs)
    if kind == "call":
        return _CALLS[tree[1]](tree_value_oracle(tree[2], xs))
    return _BINARY[kind](tree_value_oracle(tree[1], xs), tree_value_oracle(tree[2], xs))


def program_tree_oracle(program):
    """The expression tree of a postfix program."""
    stack = []
    for op, arg in program:
        if op in ("num", "var"):
            stack.append((op, arg))
        elif op == "neg":
            stack.append((op, stack.pop()))
        elif op == "call":
            stack.append((op, arg, stack.pop()))
        else:
            right = stack.pop()
            stack.append((op, stack.pop(), right))
    (tree,) = stack
    return tree


def evaluate_oracle(program, xs):
    """``coeffspec.evaluate`` as the recursive tree walk."""
    return tree_value_oracle(program_tree_oracle(program), xs)


def random_expr_oracle(rng, n, depth=4, partial=True):
    """A seeded random expression in x1..xn as (text, tree): every
    operator, function and leaf kind of the grammar, or with
    ``partial=False`` only those defined everywhere, each compound
    subexpression in parentheses so that the text parses to the tree."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            k = int(rng.integers(1, n + 1))
            return f"x{k}", ("var", k)
        value = float(rng.choice([0.0, 0.5, 2.0, 3.0, math.pi, rng.uniform(0.0, 4.0)]))
        return ("pi" if value == math.pi else repr(value)), ("num", value)
    kind = rng.choice(["neg", "call", "+", "-", "*", "/", "^"] if partial else ["neg", "call", "+", "-", "*"])
    if kind == "neg":
        text, tree = random_expr_oracle(rng, n, depth - 1, partial)
        return f"(-({text}))", ("neg", tree)
    if kind == "call":
        names = ["sin", "cos", "exp", "tanh", "bump"] + (["log", "sqrt"] if partial else [])
        name = str(rng.choice(names))
        text, tree = random_expr_oracle(rng, n, depth - 1, partial)
        return f"{name}({text})", ("call", name, tree)
    left, ltree = random_expr_oracle(rng, n, depth - 1, partial)
    right, rtree = random_expr_oracle(rng, n, depth - 1, partial)
    return f"({left}{kind}{right})", (str(kind), ltree, rtree)


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
