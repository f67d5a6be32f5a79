"""Quadrature checks of the dissipativity form on a grid.

Two routes to the same number:

* ``form_direct``: the sesquilinear form of the operator evaluated on
  the pair (u, |u|^{p-2} u) for p >= 2, or (|u|^{p'-2} u, u) for
  1 < p < 2, everything nodewise with central difference gradients.

* ``form_transformed``: the equivalent quadratic functional of
  v = |u|^{(p-2)/2} u, which never divides by |u| except through the
  masked modulus direction split (GradientSplit).  Its integrand is

      Re <A grad v, grad v>
        - (1 - 2/p)   <(Im A + Im A^T) X, Y>
        - (1 - 2/p)^2 Re <A grad|v|, grad|v|>
        + <Im(b + c), Im(vbar grad v)>
        + Re(div(b)/p - div(c)/p' - a) |v|^2

  with X + iY = |v|^{-1} vbar grad v the modulus direction split (X
  stands for grad|v|; the first middle term is Re <(A - A*) X, X + iY>,
  in which the skew part of Re A cancels) and the singular middle terms
  dropped on nodes where |v| falls below the mask.  At p = 2 both middle
  terms vanish, so no split is built.

``FormEvaluator`` samples the coefficients once per grid and keeps A,
Re A and Im A + Im A^T node last, as (n, n, m) arrays, so that each
quadratic form is one einsum whose inner loop runs over the m nodes.
It writes each evaluation's gradient and products into work buffers of
its own, so one evaluator serves one caller at a time.

``equivalence_gap`` measures how far the two routes drift apart for a
given u (it vanishes like h^2 for smooth data).  ``operator_form``
pairs the assembled discrete operator with |u|^{p-2} u and should be
minus ``form_direct`` up to the same discretization error.
``falsify`` hunts for a test function making the functional negative:
three seeded families of structured probes plus a coordinate descent
polish, reproducible for a given seed.  A descent trial moves one
coordinate, so each run keeps the factors its probes are built from
(per-axis bumps, the last profile, plane waves, the log-spiral's
logarithm) and a trial rebuilds only the factor its step changed; a
kept factor is the array a fresh build computes, bit for bit.
"""

from __future__ import annotations

import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .coeffspec import bump, sample_operator
from .grids import Grid, GridFunction
from .pointwise import _validate_p
from .semigroup import discretize

MASK_EPS = 1e-12   # relative modulus threshold for the direction split
TOL_NEG = 1e-9     # relative negativity threshold for the falsifier
BUDGET_CAP = 100_000  # most evaluations one falsifier run may ask for
_BUMP_SLOTS = 64    # per-axis bumps one falsifier run keeps
_WAVE_SLOTS = 4     # plane-wave factors one falsifier run keeps (a probe has 2 at most)

__all__ = [
    "MASK_EPS",
    "TOL_NEG",
    "BUDGET_CAP",
    "GradientSplit",
    "gradient_split",
    "FormEvaluator",
    "form_transformed",
    "form_direct",
    "operator_form",
    "equivalence_gap",
    "FalsifyResult",
    "falsify",
]


# ----------------------------------------------------------------------
# modulus direction split


@dataclass(frozen=True)
class GradientSplit:
    """Split of grad v against the phase of v.

    At unmasked nodes (|v| above MASK_EPS times max |v|):
    X + i Y = |v|^{-1} conj(v) grad v, so X = grad|v| along smooth
    modulus and |X|^2 + |Y|^2 = |grad v|^2 exactly.  Masked nodes carry
    X = Y = 0.
    """

    X: np.ndarray       # (n, m) real
    Y: np.ndarray       # (n, m) real
    grad: np.ndarray    # (n, m) complex
    unmasked: np.ndarray  # (m,) bool


def gradient_split(v):
    """Build the GradientSplit of a GridFunction (flattened node order)."""
    return _split(v.values.reshape(-1), v.gradient().reshape(v.grid.n, -1))


def _split(flat, g, out=None):
    """GradientSplit of the flattened values given their gradient (n, m).

    ``out``, an (n, m) complex array, takes the product of the phase and
    the gradient, which the split does not keep.
    """
    absv = np.abs(flat)
    vmax = absv.max(initial=0.0)
    unmasked = absv > MASK_EPS * vmax
    phase = np.zeros(flat.shape, dtype=complex)
    np.divide(flat.conj(), absv, out=phase, where=unmasked)
    w = np.multiply(phase, g, out=out)
    X = np.where(unmasked, w.real, 0.0)
    Y = np.where(unmasked, w.imag, 0.0)
    return GradientSplit(X=X, Y=Y, grad=g, unmasked=unmasked)


# ----------------------------------------------------------------------
# the transformed functional


class FormEvaluator:
    """Coefficients of a spec sampled once on a grid, for one exponent p,
    reusable across many functional evaluations (the falsifier calls
    value() thousands of times).

    Kept node last, as C-contiguous (n, n, m) arrays, so that each
    quadratic form is one einsum whose inner loop runs over the nodes:
    ``A``; its real part ``re_A``, for the term in X alone; and the real
    ``im_sym`` = Im A + Im A^T for the term in X and Y, None where it
    vanishes (at Hermitian A).  ``gamma = 1 - 2/p``, the quadrature
    weight, ``im_bc`` = Im(b + c) and the zero order factor Re(div b/p -
    div c/p' - a), None where it vanishes, are computed once.

    ``value`` writes the gradient into ``_grad`` and conj(g), the split's
    phase times g and conj(v) g in turn into ``_prod``, buffers it owns,
    so it is not reentrant: an evaluator serves one caller at a time.
    """

    def __init__(self, spec, grid, p):
        self.grid = grid
        p = _validate_p(p)
        self.gamma = 1.0 - 2.0 / p
        self.weight = grid.weight
        sam = sample_operator(spec, grid.points())
        self.im_bc = (sam.b + sam.c).imag.T  # (n, m)
        self.has_im_bc = bool(np.any(self.im_bc != 0.0))
        pc = p / (p - 1.0)
        zer = (sam.div_b / p - sam.div_c / pc - sam.a).real
        self.zero_order = zer if np.any(zer != 0.0) else None
        self.A = np.ascontiguousarray(sam.A.transpose(1, 2, 0))
        del sam  # the node-first samples go before the arrays below are made
        self.re_A = np.ascontiguousarray(self.A.real)
        im_sym = self.A.imag + self.A.imag.transpose(1, 0, 2)
        self.im_sym = im_sym if np.any(im_sym != 0.0) else None
        self._grad = np.empty((grid.n,) + tuple(grid.shape), dtype=complex)
        self._prod = np.empty((grid.n, grid.size), dtype=complex)

    def value(self, values):
        """The transformed functional at grid values (any matching shape).

        At p = 2 the middle terms vanish and only the gradient is taken;
        otherwise the modulus direction split is built from that same
        gradient.  X and Y are real, so the middle terms are summed on
        real arrays: the real part of ((a + ib) X_k)(X_h - iY_h) is
        (a X_k) X_h + (b X_k) Y_h.  With A for a + ib and Y = 0 that is
        the term on Re A.  With A - A*, a = Re A - Re A^T is skew and sums
        to zero, so the term takes b = Im A + Im A^T alone: bit for bit
        where Re A is symmetric, up to rounding elsewhere.  (A non-finite
        gradient makes the value non-finite either way.)
        """
        gamma = self.gamma
        v = GridFunction(self.grid, np.asarray(values).reshape(self.grid.shape))
        g = v.gradient(out=self._grad).reshape(self.grid.n, -1)
        flat = v.values.reshape(-1)

        total = np.einsum("hkj,kj,hj->j", self.A, g, np.conjugate(g, out=self._prod)).real
        if gamma != 0.0:
            sp = _split(flat, g, out=self._prod)
            if self.im_sym is not None:
                total = total - gamma * np.einsum("hkj,kj,hj->j", self.im_sym, sp.X, sp.Y)
            total = total - gamma * gamma * np.einsum("hkj,kj,hj->j", self.re_A, sp.X, sp.X)
        if self.has_im_bc:
            imvg = np.multiply(flat.conj(), g, out=self._prod).imag
            total = total + np.einsum("kj,kj->j", self.im_bc, imvg)
        if self.zero_order is not None:
            total = total + self.zero_order * (flat.real ** 2 + flat.imag ** 2)
        return float(total.sum() * self.weight)

    def h1_scale(self, values):
        """Squared discrete H^1 size of the probe, for relative thresholds."""
        v = GridFunction(self.grid, np.asarray(values).reshape(self.grid.shape))
        g = v.gradient()
        s = np.sum(np.abs(v.values) ** 2) + np.sum(np.abs(g) ** 2)
        return float(s * self.weight)


def form_transformed(spec, v, p):
    """Transformed dissipativity functional of v at exponent p."""
    return FormEvaluator(spec, v.grid, p).value(v.values)


# ----------------------------------------------------------------------
# the direct form


def _sesquilinear(spec, grid, f, g):
    """The form (f, g) -> int <A grad f, grad g> - <b.grad f, g>
    + <f, cbar grad g> - a <f, g> by midpoint quadrature."""
    sam = sample_operator(spec, grid.points())
    ff = GridFunction(grid, f.reshape(grid.shape))
    gg = GridFunction(grid, g.reshape(grid.shape))
    df = ff.gradient().reshape(grid.n, -1)
    dg = gg.gradient().reshape(grid.n, -1)
    fv = ff.values.reshape(-1)
    gv = gg.values.reshape(-1)

    val = np.einsum("jhk,kj,hj->j", sam.A, df, dg.conj())
    val = val - np.einsum("jk,kj->j", sam.b, df) * gv.conj()
    val = val + fv * np.einsum("jk,kj->j", sam.c, dg.conj())
    val = val - sam.a * fv * gv.conj()
    return complex(val.sum() * grid.weight)


def _power_pair(values, expo):
    """|u|^expo * u nodewise, with 0 at zeros of u."""
    absu = np.abs(values)
    if expo == 0.0:
        return values.astype(complex)
    return np.where(absu > 0.0, absu, 1.0) ** expo * np.where(absu > 0.0, values, 0.0)


def form_direct(spec, u, p):
    """Re of the operator's sesquilinear form on the dissipativity pair.

    For p >= 2 the pair is (u, |u|^{p-2} u); for 1 < p < 2 it is
    (|u|^{p'-2} u, u) with p' the conjugate exponent.  Nonnegative for
    all u exactly when the operator dissipates the L^p norm.
    """
    p = _validate_p(p)
    vals = np.asarray(u.values, dtype=complex).reshape(-1)
    if p >= 2.0:
        w = _power_pair(vals, p - 2.0)
        return _sesquilinear(spec, u.grid, vals, w).real
    pc = p / (p - 1.0)
    w = _power_pair(vals, pc - 2.0)
    return _sesquilinear(spec, u.grid, w, vals).real


def operator_form(spec, u, p):
    """Re sum <(M u)_j, u_j> |u_j|^{p-2} w_j with the assembled matrix M.

    Up to O(h^2) this is minus form_direct(spec, u, p) for p >= 2.
    """
    p = _validate_p(p)
    op = discretize(spec, u.grid)
    vals = np.asarray(u.values, dtype=complex).reshape(-1)
    au = op.matrix @ vals
    val = np.sum(au * _power_pair(vals, p - 2.0).conj()) * u.grid.weight
    return float(val.real)


def equivalence_gap(spec, u, p):
    """Relative disagreement of the two functional routes at u.

    v = |u|^{(q-2)/2} u with q = max(p, p') feeds the transformed side;
    second order in the grid spacing for smooth u.
    """
    p = _validate_p(p)
    q = p if p >= 2.0 else p / (p - 1.0)
    vals = np.asarray(u.values, dtype=complex).reshape(-1)
    vvals = _power_pair(vals, (q - 2.0) / 2.0)
    direct = form_direct(spec, u, p)
    transformed = FormEvaluator(spec, u.grid, p).value(vvals)
    return abs(direct - transformed) / (1.0 + abs(direct))


# ----------------------------------------------------------------------
# falsifier


@dataclass(frozen=True)
class FalsifyResult:
    found: bool
    value: float
    threshold: float
    evaluations: int
    family: int | None
    start_index: int | None
    params: dict | None
    witness: GridFunction | None
    p: float
    seed: int


_FAMILY_NAMES = {1: "log_spiral", 2: "plane_wave", 3: "wave_mix"}


def _kept(table, slots, key, make):
    """``table[key]``, made by ``make()`` on a miss; the table keeps the
    ``slots`` most recently used entries."""
    made = table.get(key)
    if made is not None:
        table.move_to_end(key)
        return made
    made = table[key] = make()
    if len(table) > slots:
        table.popitem(last=False)
    return made


class _ProbeFactors:
    """The factors of the probes one falsifier run builds, on its grid.

    Each probe is a profile rho times a phase factor.  Kept, each in a
    table of its most recently used entries: per-axis bumps keyed by
    (axis, centre, radius), _BUMP_SLOTS of them; plane waves
    exp(i t <k, x>) keyed by (t, k), _WAVE_SLOTS of them; the profile of
    the last terms; and family 1's log(rho^2 + eps) of the last
    (terms, eps).  Keys compare with ==, which joins only 0.0 and -0.0:
    bumps are even, and neither a start nor a descent step gives
    t = -0.0, so a kept factor is a fresh build's array bit for bit.  A
    run therefore holds at most _WAVE_SLOTS + 2 grid-sized arrays.
    """

    def __init__(self, grid):
        # each axis's nodes shaped to broadcast along that axis
        self.axes = np.ix_(*(grid.axis(k) for k in range(grid.n)))
        self.shape = tuple(grid.shape)
        self.bumps, self.waves, self.profiles, self.logs = (OrderedDict() for _ in range(4))

    def profile(self, terms):
        """Sum of positive separable bump terms: amp * prod bump((x-ctr)/rad).

        The bumps are taken per axis and multiplied out in axis order,
        which gives the same numbers as taking them on the full
        coordinate meshes.
        """

        def make():
            rho = np.zeros(self.shape)
            for amp, ctrs, rads in terms:
                piece = amp
                for k, ax in enumerate(self.axes):
                    key = (k, ctrs[k], rads[k])
                    piece = piece * _kept(self.bumps, _BUMP_SLOTS, key, lambda: bump((ax - ctrs[k]) / rads[k]))
                rho = rho + piece
            return rho

        return _kept(self.profiles, 1, terms, make)

    def _wave(self, t, kvec):
        """exp(i t <k, x>) at every node, <k, x> summed over the axes in order."""

        def make():
            phase = np.zeros(self.shape)
            for comp, ax in zip(kvec, self.axes):
                if comp:
                    phase = phase + comp * ax
            return np.exp(1j * t * phase)

        return _kept(self.waves, _WAVE_SLOTS, (t, kvec), make)

    def build(self, family, params):
        """The probe of ``family`` with ``params`` at the grid's nodes."""
        terms = params["terms"]
        rho = self.profile(terms)
        if family == 1:
            eps = params["eps"]
            log = _kept(self.logs, 1, (terms, eps), lambda: np.log(rho * rho + eps))
            return rho * np.exp(0.5j * params["mu"] * log)
        if family == 2:
            return rho * self._wave(params["t"], params["k"])
        parts = np.full(self.shape, params["c0_re"] + 1j * params["c0_im"], dtype=complex)
        for c_re, c_im, t, kvec in params["waves"]:
            parts = parts + (c_re + 1j * c_im) * self._wave(t, kvec)
        return rho * parts


def _random_terms(rng, box):
    cnt = int(rng.integers(1, 4))
    terms = []
    for _ in range(cnt):
        amp = float(rng.uniform(0.2, 1.0))
        ctrs = tuple(float(rng.uniform(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo))) for lo, hi in box)
        rads = tuple(float(rng.uniform(0.15, 0.6) * (hi - lo)) for lo, hi in box)
        terms.append((amp, ctrs, rads))
    return tuple(terms)


def _random_kvec(rng, n):
    """A nonzero integer wave vector with components in -8..8."""
    kvec = tuple(int(v) for v in rng.integers(-8, 9, size=n))
    return kvec if any(kvec) else (1,) + (0,) * (n - 1)


_DET_T_GRID = (1.5, -1.5, 3.0, -3.0, 6.0, -6.0, 12.0, -12.0, 25.0, -25.0, 50.0, -50.0, 100.0, -100.0)
_DET_MU_GRID = (0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0)


def _make_starts(p, budget, rng, box, n):
    """Deterministic probe grid first, then seeded random starts."""
    canon = ((1.0, tuple(0.5 * (lo + hi) for lo, hi in box), tuple(0.5 * (hi - lo) for lo, hi in box)),)
    starts = []
    for k_ax in range(n):
        kvec = tuple(1 if j == k_ax else 0 for j in range(n))
        for t in _DET_T_GRID:
            starts.append((2, {"terms": canon, "k": kvec, "t": t}))
    gamma = 1.0 - 2.0 / p
    for mu in _DET_MU_GRID + ((gamma, -gamma) if gamma != 0.0 else ()):
        starts.append((1, {"terms": canon, "mu": mu, "eps": 1e-3}))

    n_random = max(0, int(0.55 * budget) - len(starts))
    for _ in range(n_random):
        fam = int(rng.integers(1, 4))
        terms = _random_terms(rng, box)
        if fam == 1:
            mu = float(rng.uniform(-50.0, 50.0))
            params = {"terms": terms, "mu": mu, "eps": float(10.0 ** rng.uniform(-6.0, 0.0))}
        elif fam == 2:
            params = {"terms": terms, "k": _random_kvec(rng, n), "t": float(rng.uniform(-100.0, 100.0))}
        else:
            waves = []
            for _ in range(int(rng.integers(1, 3))):
                kvec = _random_kvec(rng, n)
                c_re, c_im = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0))
                waves.append((c_re, c_im, float(rng.uniform(-20.0, 20.0)), kvec))
            c0_re, c0_im = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0))
            params = {"terms": terms, "c0_re": c0_re, "c0_im": c0_im, "waves": tuple(waves)}
        starts.append((fam, params))
    return starts[:budget]


# Coordinate descent rows, each (key, step scale, lower, upper), in the
# order of the descent vector: the family's head (eps walked in log10),
# then each wave of family 3, then each profile term.
_HEADS = {
    1: (("mu", 2.0, -50.0, 50.0), ("eps", 1.0, -9.0, 0.0)),
    2: (("t", 2.0, -100.0, 100.0),),
    3: (("c0_re", 0.25, -2.0, 2.0), ("c0_im", 0.25, -2.0, 2.0)),
}
_WAVE = (("c_re", 0.25, -2.0, 2.0), ("c_im", 0.25, -2.0, 2.0), ("t", 2.0, -100.0, 100.0))


def _term_rows(box):
    """A profile term's rows: its amplitude, then its centre and then
    its radius on each axis, bounded relative to the box."""
    ctrs = [("ctr", 0.1 * (hi - lo), lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)) for lo, hi in box]
    rads = [("rad", 0.1 * (hi - lo), 0.02 * (hi - lo), 1.0 * (hi - lo)) for lo, hi in box]
    return (("amp", 0.2, 0.05, 2.0), *ctrs, *rads)


def _pack(family, params, box):
    """Flatten the continuous parameters for coordinate descent: the
    vector, with the step scale and bounds of each coordinate."""
    heads = _HEADS[family]
    waves = params.get("waves", ())
    vec = [math.log10(params[key]) if key == "eps" else params[key] for key, *_ in heads]
    vec += [v for wave in waves for v in wave[: len(_WAVE)]]
    vec += [v for amp, ctrs, rads in params["terms"] for v in (amp, *ctrs, *rads)]
    rows = heads + _WAVE * len(waves) + _term_rows(box) * len(params["terms"])
    _, scales, lows, highs = zip(*rows)
    return np.array(vec), np.array(scales), np.array(lows), np.array(highs)


def _unpack(family, params, vec, box):
    """The parameters with the descent coordinates ``vec`` written back
    in ``_pack``'s order, as Python floats."""
    out = dict(params)
    heads = _HEADS[family]
    for (key, *_), v in zip(heads, vec):
        out[key] = float(10.0 ** v) if key == "eps" else float(v)
    rest = vec[len(heads) :].tolist()
    if "waves" in params:
        w = len(_WAVE)
        out["waves"] = tuple((*rest[j * w : (j + 1) * w], wave[-1]) for j, wave in enumerate(params["waves"]))
        rest = rest[w * len(params["waves"]) :]
    n, size = len(box), len(_term_rows(box))
    out["terms"] = tuple(
        (rest[i], tuple(rest[i + 1 : i + 1 + n]), tuple(rest[i + 1 + n : i + size])) for i in range(0, len(rest), size)
    )
    return out


def falsify(spec, p, budget=2000, seed=0):
    """Search for a grid function making the transformed functional negative.

    Probe families: (1) positive profile with logarithmic phase spirals,
    (2) profile times a plane wave exp(i t <k, x>), (3) profile times a
    small random wave mixture.  A deterministic probe grid runs first,
    then seeded random starts, then coordinate descent from the three
    best candidates; ties in value go to the lower family, then the
    earlier start.  Everything runs on the document's grid.  "Found"
    means the best value is below -TOL_NEG relative to the probe's H^1
    size.  ``budget`` must be an integer from 1 to BUDGET_CAP and ``seed``
    a non-negative integer (ValueError before anything is sampled).
    """
    p = _validate_p(p)
    if not isinstance(budget, numbers.Integral) or not 1 <= budget <= BUDGET_CAP:
        raise ValueError(f"evaluation budget must be an integer from 1 to {BUDGET_CAP}, got {budget!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"falsifier seed must be a non-negative integer, got {seed!r}")
    grid = Grid.from_spec(spec)
    box = list(zip(grid.lo, grid.hi))
    n = grid.n
    ev = FormEvaluator(spec, grid, p)
    probes = _ProbeFactors(grid)
    rng = np.random.default_rng(seed)

    starts = _make_starts(p, budget, rng, box, n)
    values = [ev.value(probes.build(fam, params)) for fam, params in starts]
    evaluations = len(starts)

    ranked = sorted(
        range(len(starts)), key=lambda i: (values[i], starts[i][0], i)
    )
    best_idx = ranked[0]
    best = (values[best_idx], starts[best_idx][0], best_idx, starts[best_idx][1])

    # coordinate descent from the best few starts
    descent_budget = budget - evaluations
    leaders = ranked[:3]
    share = descent_budget // len(leaders)
    for i in leaders:
        if share <= 0:
            break
        fam, params = starts[i]
        vec, scales, lows, highs = _pack(fam, params, box)
        cur_val = values[i]
        step = 0.5
        used = 0
        while used < share and step >= 1e-3:
            improved = False
            for j in range(len(vec)):
                if used >= share:
                    break
                for sgn in (1.0, -1.0):
                    if used >= share:
                        break
                    trial = vec.copy()
                    trial[j] = min(max(trial[j] + sgn * step * scales[j], lows[j]), highs[j])
                    if trial[j] == vec[j]:
                        continue
                    tparams = _unpack(fam, params, trial, box)
                    tval = ev.value(probes.build(fam, tparams))
                    used += 1
                    if tval < cur_val:
                        vec = trial
                        cur_val = tval
                        improved = True
                        break
            if not improved:
                step *= 0.5
        evaluations += used
        cand = (cur_val, fam, i, _unpack(fam, params, vec, box))
        if (cand[0], cand[1], cand[2]) < (best[0], best[1], best[2]):
            best = cand

    bval, bfam, bidx, bparams = best
    wit_vals = probes.build(bfam, bparams)
    threshold = TOL_NEG * (1.0 + ev.h1_scale(wit_vals))
    found = bval < -threshold
    return FalsifyResult(
        found=found,
        value=bval,
        threshold=threshold,
        evaluations=evaluations,
        family=bfam,
        start_index=bidx,
        params=bparams,
        witness=GridFunction(grid, wit_vals),
        p=p,
        seed=seed,
    )
