"""Pointwise algebra on sampled coefficient matrices.

The matrices are n-by-n with n small.  ``decompose``, ``jacobi_eigh``,
``min_eigenvalue``, ``psd_pinv_apply``, ``p_condition_nodes``,
``lambda_nodes`` and ``q_sufficiency`` accept a stack of them, shape
(..., n, n), one matrix per grid node: every LAPACK call covers the
whole stack, and each matrix sees exactly the arithmetic it would see
on its own.
``check_p_condition`` and ``lambda_of`` run the node kernels on a
single matrix; ``lambda_of`` also reduces a stack to its smallest ratio.

The central question is, for a given exponent p in (1, inf):

    |p - 2| |<Im A xi, xi>|  <=  2 sqrt(p-1) <Re A xi, xi>   for all real xi,

that is (divided by 2 sqrt(p-1)), the pencil S_r +- t(p) S_i is PSD, with
t(p) = (p - 2) / (2 sqrt(p-1)) signed and S_r, S_i the symmetric parts
of Re A and Im A.  The ratio

    lam = inf { <S_r xi, xi> / |<S_i xi, xi>| : <S_i xi, xi> != 0 }

is the largest t at which the pencil passes, so p is admissible iff
|t(p)| <= lam, and ``p_interval`` inverts t on that set:
[2 + 2 lam (lam - sqrt(lam^2+1)), 2 + 2 lam (lam + sqrt(lam^2+1))],
with Hoelder conjugate ends.  ``p_condition_nodes`` tests the pencil at
t(p); ``lambda_nodes`` tests it at two nested windows around the closed
form 1 / max |eig(S_i, S_r)| in one LAPACK call, and bisects only where
the edge falls outside the inner window.

The verdicts are homogeneous in A, as the condition is: the pencil tests
see each node divided once by its largest |S_r| entry (``SymDecomp.unit``),
against one constant slack TOL_PENCIL, so a large Im A cannot hide a
negative Re A.  The other tolerances are purely relative.

The eigenvalue workhorse is LAPACK's symmetric solver (numpy.linalg
eigh/eigvalsh), which also backs the pseudo-inverse for singular linear
systems; the pseudo-inverse's eigenvalues also decide PSD and rank, so
each matrix is decomposed once.  A matrix is checked (square, finite,
symmetric) once, where it enters: when a ``SymDecomp`` is built and in
``jacobi_eigh``.  The node kernels see only matrices built from a
checked SymDecomp.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TOL_PENCIL = 2e-10     # PSD slack of every pencil, on its node's pair divided by max |S_r|
UNIT_FLOOR = 2.0 ** -500  # least divisor of a unit pair, relative to max |S_i|
TOL_PSD = 1e-10        # PSD slack of sufficiency matrices, relative to their trace norm
TOL_ZERO = 1e-12       # zero tests (Im A against Re A, margins), relative
TOL_SYS = 1e-8         # linear system consistency, relative to |rhs|
RANK_TOL = 1e-12       # relative eigenvalue cutoff for pseudo-inverses
BISECT_RELWIDTH = 1e-12
SEED_RELWIDTH = 1e-9   # half width of the outer window around the closed-form ratio
BRACKET_MAX = 2.0 ** 60

__all__ = [
    "SymDecomp",
    "decompose",
    "jacobi_eigh",
    "min_eigenvalue",
    "psd_pinv_apply",
    "p_condition_nodes",
    "check_p_condition",
    "violating_direction",
    "NonnegativityError",
    "lambda_nodes",
    "lambda_of",
    "LambdaResult",
    "PInterval",
    "p_interval",
    "QSufficiency",
    "q_sufficiency",
    "ConstVerdict",
    "constant_coeff_verdict",
]


# ----------------------------------------------------------------------
# decomposition


def _check_symmetric(S):
    """S as a float array, checked as ``jacobi_eigh`` documents."""
    S = np.asarray(S, dtype=float)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2]:
        raise ValueError("expected a square matrix")
    scale = np.abs(S).max(axis=(-2, -1), initial=0.0)
    # a NaN or inf entry leaves its matrix's scale NaN or inf
    if (scale < math.inf).all():
        skew = np.abs(S - S.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
        if (skew <= 1e-12 * scale).all():
            return S
    raise ValueError("matrix is not finite and symmetric")


@dataclass(frozen=True)
class SymDecomp:
    """Symmetric parts of the real and imaginary parts of a matrix, or of
    every matrix of a stack (each part then has shape (..., n, n)).
    S_r and S_i are checked as ``jacobi_eigh`` checks its input."""

    S_r: np.ndarray
    S_i: np.ndarray

    def __post_init__(self):
        _check_symmetric(np.stack((self.S_r, self.S_i)))

    @property
    def n(self):
        return self.S_r.shape[-1]

    @cached_property
    def unit(self):
        """(S_r, S_i) stacked, shape (2, ..., n, n), each node's pair divided
        by its largest |S_r| entry, or by UNIT_FLOOR times its largest |S_i|
        entry if larger, or by that entry if S_r = 0: exact under a power of
        two s (short of over- or underflow), rounded under any other s > 0."""
        pair = np.stack((self.S_r, self.S_i))
        big_r, big_i = np.abs(pair).max(axis=(-2, -1), keepdims=True)
        scale = np.where(big_r > 0.0, np.maximum(big_r, UNIT_FLOOR * big_i), big_i)
        return pair / np.where(scale > 0.0, scale, 1.0)


def decompose(A):
    """The symmetric parts of Re A and Im A for complex A, one matrix or
    a stack of shape (..., n, n), matrix by matrix.  The skew parts are
    dropped: they do not enter <A xi, xi> for real xi."""
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("expected a square matrix")
    re = A.real
    im = A.imag
    # a sum past the float range is left inf for SymDecomp's finite check
    with np.errstate(over="ignore", invalid="ignore"):
        return SymDecomp(
            S_r=0.5 * (re + re.swapaxes(-1, -2)),
            S_i=0.5 * (im + im.swapaxes(-1, -2)),
        )


# ----------------------------------------------------------------------
# symmetric eigensolver


def jacobi_eigh(S, vectors=True):
    """Eigendecomposition of a real symmetric matrix, or of every matrix
    of a stack of shape (..., n, n) (LAPACK via numpy).

    Returns (w, V) with eigenvalues w ascending along the last axis and
    eigenvector columns V (V is None when ``vectors`` is false).  Every
    matrix must be square, finite and symmetric to 1e-12 times its own
    max |S|; a single one that is not fails the whole call.  Only the
    lower triangles are read.
    """
    S = _check_symmetric(S)
    if not vectors:
        return np.linalg.eigvalsh(S), None
    w, V = np.linalg.eigh(S)
    return w, V


def _per_matrix(x):
    """A Python scalar for a single matrix, the array for a stack."""
    return x.item() if x.ndim == 0 else x


def _matvec(M, v):
    """M @ v, matrix by matrix over a stack of vectors v of shape (..., n)."""
    return (M @ v[..., None])[..., 0]


def _dot(x, y):
    """<x, y> over the last axis, as the BLAS dot of ``x @ y`` on one pair."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def min_eigenvalue(S):
    """Smallest eigenvalue of a real symmetric matrix, or of each matrix
    of a stack."""
    w, _ = jacobi_eigh(S, vectors=False)
    return _per_matrix(w[..., 0])


def psd_pinv_apply(S, rhs):
    """Least-squares solve S x = rhs for symmetric S via the
    eigendecomposition pseudo-inverse, for one matrix or matrix by matrix
    over a stack: S of shape (..., n, n), rhs of shape (..., n).

    Returns (x, residual_norm, w, singular): x has the shape of rhs, w the
    eigenvalues of S (ascending), and |S x - rhs| and ``singular`` (some
    |w| <= RANK_TOL max |w| was cut) are a float and a bool for a single
    matrix, arrays of the stack's shape otherwise.
    """
    w, V = jacobi_eigh(S, vectors=True)
    cutoff = RANK_TOL * np.maximum(np.abs(w).max(axis=-1, initial=0.0), 1e-300)
    kept = np.abs(w) > cutoff[..., None]
    inv = np.where(kept, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    x = _matvec(V, inv * _matvec(V.swapaxes(-1, -2), rhs))
    r = _matvec(S, x) - rhs
    return x, _per_matrix(np.sqrt(_dot(r, r))), w, _per_matrix(~kept.all(axis=-1))


# ----------------------------------------------------------------------
# the algebraic p-condition


def _pencils_psd(S_r, S_i, t):
    """Per matrix of a stack: both S_r + t S_i and S_r - t S_i PSD to
    -TOL_PENCIL, for a scalar t or one t per matrix, in one LAPACK call."""
    step = np.asarray(t)[..., None, None] * S_i
    return (np.linalg.eigvalsh(np.stack((S_r + step, S_r - step)))[..., 0] >= -TOL_PENCIL).all(axis=0)


def _validate_p(p):
    if not (isinstance(p, numbers.Real) and math.isfinite(p)) or p <= 1.0:
        raise ValueError(f"exponent p must be finite and > 1, got {p!r}")
    return float(p)


def _pencil_t(p):
    """The signed t(p) = (p - 2) / (2 sqrt(p-1)) of the p-condition's pencil."""
    p = _validate_p(p)
    return (p - 2.0) / (2.0 * math.sqrt(p - 1.0))


def p_condition_nodes(d, p):
    """Per-node p-condition of a stacked SymDecomp: a bool array of the
    stack's shape, true where |p-2| |<Im A xi,xi>| <= 2 sqrt(p-1) <Re A xi,xi>
    for all xi, that is, where ``_pencils_psd`` passes the node's unit
    pair at t(p); every node goes to LAPACK in one call."""
    return _pencils_psd(*d.unit, _pencil_t(p))


def check_p_condition(d, p):
    """True iff |p-2| |<Im A xi,xi>| <= 2 sqrt(p-1) <Re A xi,xi> for all xi
    (``p_condition_nodes`` on a single matrix)."""
    return bool(p_condition_nodes(d, p))


def _pencil_direction(S_r, S_i, t):
    """Lowest eigenvector of whichever of S_r + t S_i and S_r - t S_i has
    the lower smallest eigenvalue (S_r + t S_i on a tie), signed so that
    its largest entry is positive."""
    w, V = np.linalg.eigh(np.stack((S_r + t * S_i, S_r - t * S_i)))
    xi = V[0, :, 0] if w[0, 0] <= w[1, 0] else V[1, :, 0]
    return -xi if xi[np.argmax(np.abs(xi))] < 0.0 else xi


def violating_direction(d, p):
    """A direction xi of the single matrix d on which the p-condition
    fails when it fails: the ``_pencil_direction`` of the pencil
    S_r +- t(p) S_i of its unit pair."""
    return _pencil_direction(*d.unit, _pencil_t(p))


class NonnegativityError(ValueError):
    """Re A is not positive semidefinite, so no exponent is admissible."""


def lambda_nodes(d):
    """Per-node ratio inf <S_r xi,xi>/|<S_i xi,xi>| of a stacked SymDecomp.

    Returns (lam, hi), float arrays of the stack's shape: the ratio and
    the upper end of its final bracket.  Each node's ratio is
    sup { t >= 0 : S_r + t S_i and S_r - t S_i both PSD to -TOL_PENCIL }
    on its unit pair, the test of ``p_condition_nodes``.  The first step
    tests four ends around the closed-form ratio t0 (t = 1 where that is unusable):
    the outer window t0 (1 -+ SEED_RELWIDTH) and, inside it, the window
    t0 (1 -+ 0.4 BISECT_RELWIDTH), which already passes the width test.
    The bracket runs from the end below the first one that fails (0 below
    the lowest) to that end; a node whose inner window straddles the
    edge is then settled.  A bracket whose top passes is doubled, and
    every bracket is bisected to relative width BISECT_RELWIDTH: lam
    passed the test and hi failed it.  The ratio is math.inf (and so is
    hi) when the node's symmetric part of Im A vanishes or no bracket is
    found below BRACKET_MAX.  Every step tests the pencils of all nodes
    still searching in one LAPACK call, and each node takes exactly the
    steps it would take on its own.  Requires every S_r PSD
    (NonnegativityError otherwise, since then not even p = 2 is
    admissible).
    """
    S_r, S_i = d.unit.reshape(2, -1, d.n, d.n)
    shape = d.S_r.shape[:-2]
    lam = np.full(len(S_r), math.inf)
    lam_hi = np.full(len(S_r), math.inf)
    # the nodes that see Im A, with their pencils and seeds, still searching
    seeing = np.linalg.norm(S_i, axis=(1, 2)) > TOL_ZERO * np.linalg.norm(S_r, axis=(1, 2))
    nodes = np.flatnonzero(seeing)
    # one decomposition of every S_r: the nonnegativity test and, where a node sees Im A, the seed
    w, V = np.linalg.eigh(S_r) if nodes.size else (np.linalg.eigvalsh(S_r), None)
    if (w[:, 0] < -TOL_PENCIL).any():
        raise NonnegativityError("Re A has a negative direction")
    if not nodes.size:
        return lam.reshape(shape), lam_hi.reshape(shape)
    S_r, S_i, w, V = S_r[nodes], S_i[nodes], w[nodes], V[nodes]
    # Seed: min eig(S_r +- t S_i) >= -TOL_PENCIL says (S_r + TOL_PENCIL I) +- t S_i
    # is PSD, which holds exactly for t <= t0 = 1 / max |eig(W^T S_i W)| with
    # W = V (w + TOL_PENCIL)^(-1/2) from S_r = V diag(w) V^T.
    shifted = w + TOL_PENCIL
    definite = (shifted > 0.0).all(axis=1)
    W = V / np.sqrt(np.where(definite[:, None], shifted, 1.0))[:, None, :]
    with np.errstate(divide="ignore"):
        t0 = 1.0 / np.abs(np.linalg.eigvalsh(W.swapaxes(1, 2) @ S_i @ W)).max(axis=1)
    # no usable seed: start at t = 1 with windows of zero width
    seeded = definite & (t0 > 0.0) & (t0 <= 0.5 * BRACKET_MAX)
    t0 = np.where(seeded, t0, 1.0)
    # the four ends, ascending, in one call; with 0 below them and 2 e3 above,
    # a node's bracket is edges[passed], edges[passed + 1]
    rel = np.multiply.outer(
        (-SEED_RELWIDTH, -0.4 * BISECT_RELWIDTH, 0.4 * BISECT_RELWIDTH, SEED_RELWIDTH), seeded
    )
    ends = t0 * (1.0 + rel)
    ok = _pencils_psd(S_r, S_i, ends)
    passed = np.logical_and.accumulate(ok).sum(axis=0)
    edges = np.concatenate((np.zeros_like(ends[:1]), ends, 2.0 * ends[-1:]))
    lo, hi = np.take_along_axis(edges, np.stack((passed, passed + 1)), axis=0)
    grow = np.flatnonzero(passed == len(ends))
    while grow.size:
        grow = grow[_pencils_psd(S_r[grow], S_i[grow], hi[grow])]
        lo[grow] = hi[grow]
        hi[grow] *= 2.0
        # no bracket below 2^60: lo = inf stops the node at the first width test
        escaped = hi[grow] > BRACKET_MAX
        lo[grow[escaped]] = math.inf
        grow = grow[~escaped]
    while True:
        # a node stops once its bracket is narrow enough
        going = hi - lo > BISECT_RELWIDTH * (1.0 + hi)
        if not going.all():
            lam[nodes[~going]] = lo[~going]
            lam_hi[nodes[~going]] = hi[~going]
            nodes, S_r, S_i, lo, hi = (x[going] for x in (nodes, S_r, S_i, lo, hi))
        if not nodes.size:
            break
        mid = 0.5 * (lo + hi)
        ok = _pencils_psd(S_r, S_i, mid)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    lam_hi[np.isinf(lam)] = math.inf
    return lam.reshape(shape), lam_hi.reshape(shape)


@dataclass(frozen=True)
class LambdaResult:
    lam: float  # may be math.inf
    witness_xi: np.ndarray | None  # direction (nearly) attaining the ratio
    node: int | None = None  # flat index of the attaining node of a stack


def lambda_of(d):
    """Ratio inf <S_r xi,xi>/|<S_i xi,xi>| over directions seeing S_i.

    For one matrix, ``lambda_nodes`` on a stack of one; for a stack, the
    smallest ratio over its nodes, attained first at flat index ``node``.
    The witness is the ``_pencil_direction`` of S_r +- hi S_i on the
    attaining node's unit pair, hi the top of its bracket, None when the
    ratio is math.inf.  Raises NonnegativityError as ``lambda_nodes`` does.
    """
    lam, hi = lambda_nodes(d)
    lam, hi = lam.reshape(-1), hi.reshape(-1)
    j = int(np.argmin(lam))
    if math.isinf(lam[j]):
        return LambdaResult(math.inf, None)
    S_r, S_i = d.unit.reshape(2, -1, d.n, d.n)[:, j]
    xi = _pencil_direction(S_r, S_i, float(hi[j]))
    return LambdaResult(float(lam[j]), xi, j if d.S_r.ndim > 2 else None)


@dataclass(frozen=True)
class PInterval:
    """Closed admissible exponent interval; open (1, inf) when lam = inf."""

    lam: float
    p_min: float
    p_max: float

    @property
    def is_full(self):
        return math.isinf(self.lam)


def p_interval(lam):
    """Admissible exponent interval from the ratio lam (``LambdaResult.lam``)."""
    lam = float(lam)
    if lam < 0.0:
        raise ValueError("ratio must be nonnegative")
    if math.isinf(lam):
        return PInterval(lam=math.inf, p_min=1.0, p_max=math.inf)
    root = math.sqrt(lam * lam + 1.0)
    # 2 lam (lam - root) written without cancellation
    p_min = 2.0 - 2.0 * lam / (lam + root)
    p_max = 2.0 + 2.0 * lam * (lam + root)
    return PInterval(lam=lam, p_min=p_min, p_max=p_max)


# ----------------------------------------------------------------------
# sufficiency polynomial in (xi, eta)


@dataclass(frozen=True)
class QSufficiency:
    """Outcome of minimizing the 2n-variable sufficiency polynomial.

    ok is true when the polynomial is nonnegative on all of R^{2n}:
    coefficient matrix PSD, linear part in its range, and the completed
    square leaves a nonnegative constant.  For one matrix the fields are
    a Python bool and floats; for a stack of nodes, ok, min_eig,
    linear_residual and min_value are arrays of the stack's shape, one
    value per node.  linear_residual is NaN and min_value -inf where the
    matrix is not PSD; min_value is -inf where the linear part escapes
    the range.
    """

    ok: bool | np.ndarray
    min_eig: float | np.ndarray
    linear_residual: float | np.ndarray
    min_value: float | np.ndarray
    p: float
    alpha: float
    beta: float


def q_sufficiency(A, b, c, a, div_b, div_c, p, alpha=0.0, beta=0.0):
    """Nonnegativity of the pointwise sufficiency polynomial

        (4/(p p')) <Re A xi, xi> + <Re A eta, eta>
          + 2 <(Im A / p + Im A* / p') xi, eta>
          + <Im(b + c), eta> - 2 <Re(alpha b / p - beta c / p'), xi>
          + Re(div(b) (1-alpha)/p - div(c) (1-beta)/p' - a)       >= 0

    over all real (xi, eta), at one node or at every node of a stack:
    A of shape (..., n, n), b and c of shape (..., n), and a, div_b and
    div_c of shape (...).  A nonnegative quadratic-plus-linear form is
    certified by eigenvalue checks and a pseudo-inverse completed square.
    The splitting weights alpha and beta must be finite.
    """
    p = _validate_p(p)
    for name, weight in (("alpha", alpha), ("beta", beta)):
        if not math.isfinite(weight):
            raise ValueError(f"splitting weight {name} must be finite, got {weight!r}")
    A = np.asarray(A, dtype=complex)
    n = A.shape[-1]
    b = np.asarray(b, dtype=complex).reshape(A.shape[:-1])
    c = np.asarray(c, dtype=complex).reshape(A.shape[:-1])
    pp = p / (p - 1.0)  # conjugate exponent
    d = decompose(A)

    # quadratic coefficient matrix M on (xi, eta): value form z^T M z
    im = A.imag
    G = im / p - im.swapaxes(-1, -2) / pp
    M = np.zeros(A.shape[:-2] + (2 * n, 2 * n))
    M[..., :n, :n] = (4.0 / (p * pp)) * d.S_r
    M[..., n:, n:] = d.S_r
    M[..., :n, n:] = G.swapaxes(-1, -2)
    M[..., n:, :n] = G

    ell = np.concatenate((-2.0 * (alpha * b.real / p - beta * c.real / pp), (b + c).imag), axis=-1)
    const = np.real(div_b) * (1.0 - alpha) / p - np.real(div_c) * (1.0 - beta) / pp - np.real(a)

    z, residual, w, _ = psd_pinv_apply(M, -0.5 * ell)
    w_min = w[..., 0]
    psd = w_min >= -TOL_PSD * np.abs(w).sum(axis=-1)
    ell_norm = np.sqrt(_dot(ell, ell))
    # a linear part escaping the range of M leaves the form unbounded below
    bounded = psd & ~(residual > TOL_SYS * ell_norm)
    # const + (1/2) <ell, z> = const - (1/4) <M^+ ell, ell>
    half = 0.5 * _dot(ell, z)
    min_value = np.where(bounded, const + half, -math.inf)
    ok = min_value >= -TOL_PSD * (np.abs(const) + np.abs(half))
    per_node = (ok, w_min, np.where(psd, residual, math.nan), min_value)
    return QSufficiency(*map(_per_matrix, per_node), p, alpha, beta)


# ----------------------------------------------------------------------
# constant coefficient decision


@dataclass(frozen=True)
class ConstVerdict:
    """Decision for a constant coefficient operator at exponent p.

    The operator is dissipative iff the p-condition holds, a real drift
    compensation vector V with 2 S_r V = -Im b exists, and
    Re a + <S_r V, V> <= 0.  ``reason`` names the first failing clause.
    """

    ok: bool
    reason: str | None
    V: np.ndarray | None
    residual: float
    margin: float  # Re a + <S_r V, V>; needs <= 0
    corollary_margin: float | None  # 4 Re a + <S_r^{-1} Im b, Im b> when invertible


def constant_coeff_verdict(A, b, a, p):
    """Dissipativity of a constant coefficient operator (no second drift).

    Only the symmetric parts of A enter (``decompose``): for constant
    coefficients the skew part contributes nothing to the operator.
    """
    p = _validate_p(p)
    d = decompose(A)
    b = np.asarray(b, dtype=complex).reshape(d.n)
    a = complex(a)

    imb = b.imag.astype(float)
    if not check_p_condition(d, p):
        return ConstVerdict(False, "p_condition_failed", None, math.nan, math.nan, None)

    # drift compensation: 2 S_r V = -Im b, solved as S_r V = -Im b / 2
    V, residual, _, singular = psd_pinv_apply(d.S_r, -0.5 * imb)
    if residual > TOL_SYS * float(np.linalg.norm(imb)):
        return ConstVerdict(False, "system_inconsistent", None, residual, math.nan, None)

    quad = float(V @ (d.S_r @ V))
    margin = a.real + quad
    # nonsingular: the closed form 4 Re a <= -<S_r^{-1} Im b, Im b>.
    # psd_pinv_apply is linear and scaling by -0.5 is exact, so
    # S_r^{-1} Im b is -2 V bit for bit and needs no second solve.
    corollary = None if singular else 4.0 * a.real - 2.0 * float(imb @ V)
    if margin > TOL_ZERO * (abs(a.real) + abs(quad)):
        return ConstVerdict(False, "zero_order_positive", V, residual, margin, corollary)
    return ConstVerdict(True, None, V, residual, margin, corollary)
