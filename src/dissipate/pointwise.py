"""Pointwise algebra on a sampled coefficient matrix.

Everything here works on one n-by-n complex matrix at a time (n small).
The central question is, for a given exponent p in (1, inf):

    |p - 2| |<Im A xi, xi>|  <=  2 sqrt(p-1) <Re A xi, xi>   for all real xi,

which is equivalent to both symmetric matrices

    2 sqrt(p-1) S_r + (p-2) S_i   and   2 sqrt(p-1) S_r - (p-2) S_i

being positive semidefinite, where S_r, S_i are the symmetric parts of
Re A and Im A.  The supremum ratio

    lam = inf { <S_r xi, xi> / |<S_i xi, xi>| : <S_i xi, xi> != 0 }

controls the full admissible interval of exponents
[2 + 2 lam (lam - sqrt(lam^2+1)), 2 + 2 lam (lam + sqrt(lam^2+1))],
whose endpoints are Hoelder conjugate.

The eigenvalue workhorse is LAPACK's symmetric solver (numpy.linalg
eigh/eigvalsh); the same eigendecomposition backs the pseudo-inverse
used for singular linear systems (drift compensation, sufficiency
polynomial minimization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL_PSD = 1e-10        # PSD slack, scaled by 1 + trace norm
TOL_ZERO = 1e-12       # zero tests (norms, margins)
TOL_SYS = 1e-8         # linear system consistency, scaled by 1 + |rhs|
RANK_TOL = 1e-12       # relative eigenvalue cutoff for pseudo-inverses
BISECT_RELWIDTH = 1e-12
BRACKET_MAX = 2.0 ** 60

__all__ = [
    "SymDecomp",
    "decompose",
    "jacobi_eigh",
    "min_eigenvalue",
    "trace_norm",
    "psd_pinv_apply",
    "check_p_condition",
    "NonnegativityError",
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


@dataclass(frozen=True)
class SymDecomp:
    """Symmetric/skew split of the real and imaginary parts of a matrix."""

    S_r: np.ndarray
    K_r: np.ndarray
    S_i: np.ndarray
    K_i: np.ndarray

    @property
    def n(self):
        return self.S_r.shape[0]


def decompose(A):
    """Split complex A into symmetric/skew parts of Re A and Im A."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    re = A.real.copy()
    im = A.imag.copy()
    return SymDecomp(
        S_r=0.5 * (re + re.T),
        K_r=0.5 * (re - re.T),
        S_i=0.5 * (im + im.T),
        K_i=0.5 * (im - im.T),
    )


# ----------------------------------------------------------------------
# symmetric eigensolver


def jacobi_eigh(S, vectors=True):
    """Eigendecomposition of a real symmetric matrix (LAPACK via numpy).

    Returns (w, V) with eigenvalues w ascending and eigenvector columns
    V (V is None when ``vectors`` is false).  Input must be square and
    symmetric to 1e-12 (1 + max |S|); only its lower triangle is read.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("expected a square matrix")
    # written as "not <=" so that NaN entries are rejected too
    if not np.abs(S - S.T).max(initial=0.0) <= 1e-12 * (1.0 + np.abs(S).max(initial=0.0)):
        raise ValueError("matrix is not symmetric")
    if not vectors:
        return np.linalg.eigvalsh(S), None
    w, V = np.linalg.eigh(S)
    return w, V


def min_eigenvalue(S):
    """Smallest eigenvalue of a real symmetric matrix."""
    w, _ = jacobi_eigh(S, vectors=False)
    return float(w[0])


def trace_norm(S):
    """Sum of absolute eigenvalues (nuclear norm) of a real symmetric matrix."""
    w, _ = jacobi_eigh(S, vectors=False)
    return float(np.abs(w).sum())


def psd_pinv_apply(S, rhs):
    """Least-squares solve S x = rhs for symmetric S via the
    eigendecomposition pseudo-inverse.  Returns (x, residual_norm)."""
    w, V = jacobi_eigh(S, vectors=True)
    cutoff = RANK_TOL * max(np.abs(w).max(initial=0.0), 1e-300)
    inv = np.where(np.abs(w) > cutoff, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    x = V @ (inv * (V.T @ rhs))
    residual = float(np.linalg.norm(S @ x - rhs))
    return x, residual


# ----------------------------------------------------------------------
# the algebraic p-condition


def _validate_p(p):
    if not (isinstance(p, (int, float)) and math.isfinite(p)) or p <= 1.0:
        raise ValueError(f"exponent p must be finite and > 1, got {p!r}")
    return float(p)


def check_p_condition(d, p):
    """True iff |p-2| |<Im A xi,xi>| <= 2 sqrt(p-1) <Re A xi,xi> for all xi.

    Decided through the two matrices 2 sqrt(p-1) S_r +- (p-2) S_i, each
    required to have smallest eigenvalue >= -TOL_PSD (1 + trace norm of S_r).
    """
    p = _validate_p(p)
    tol = TOL_PSD * (1.0 + trace_norm(d.S_r))
    s = 2.0 * math.sqrt(p - 1.0)
    plus = s * d.S_r + (p - 2.0) * d.S_i
    minus = s * d.S_r - (p - 2.0) * d.S_i
    return min_eigenvalue(plus) >= -tol and min_eigenvalue(minus) >= -tol


class NonnegativityError(ValueError):
    """Re A is not positive semidefinite, so no exponent is admissible."""


@dataclass(frozen=True)
class LambdaResult:
    lam: float  # may be math.inf
    witness_xi: np.ndarray | None  # direction (nearly) attaining the ratio


def lambda_of(d):
    """Ratio inf <S_r xi,xi>/|<S_i xi,xi>| over directions seeing S_i.

    Returned as sup { t >= 0 : S_r + t S_i and S_r - t S_i both PSD },
    located by bracket doubling from t = 1 and bisection to relative
    width 1e-12.  math.inf when the symmetric part of Im A vanishes or
    no bracket is found below 2^60.  Requires S_r PSD (NonnegativityError
    otherwise, since then not even p = 2 is admissible).
    """
    S_r = d.S_r
    S_i = d.S_i
    tol = TOL_PSD * (1.0 + trace_norm(S_r))
    if min_eigenvalue(S_r) < -tol:
        raise NonnegativityError("Re A has a negative direction")
    ni = float(np.linalg.norm(S_i))
    if ni <= TOL_ZERO * (1.0 + float(np.linalg.norm(S_r))):
        return LambdaResult(math.inf, None)

    def feasible(t):
        return (
            min_eigenvalue(S_r + t * S_i) >= -tol
            and min_eigenvalue(S_r - t * S_i) >= -tol
        )

    if feasible(1.0):
        lo, hi = 1.0, 2.0
        while feasible(hi):
            lo = hi
            hi *= 2.0
            if hi > BRACKET_MAX:
                return LambdaResult(math.inf, None)
    else:
        lo, hi = 0.0, 1.0

    while hi - lo > BISECT_RELWIDTH * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid

    # witness: the pinching direction of whichever pencil goes indefinite
    wp, Vp = jacobi_eigh(S_r + hi * S_i)
    wm, Vm = jacobi_eigh(S_r - hi * S_i)
    if wp[0] <= wm[0]:
        xi = Vp[:, 0]
    else:
        xi = Vm[:, 0]
    k = int(np.argmax(np.abs(xi)))
    if xi[k] < 0:
        xi = -xi
    return LambdaResult(float(lo), xi)


@dataclass(frozen=True)
class PInterval:
    """Closed admissible exponent interval; open (1, inf) when lam = inf."""

    lam: float
    p_min: float
    p_max: float
    witness_xi: np.ndarray | None = None

    @property
    def is_full(self):
        return math.isinf(self.lam)

    def contains(self, p):
        if self.is_full:
            return 1.0 < p < math.inf
        return self.p_min <= p <= self.p_max


def p_interval(lam_result):
    """Admissible exponent interval from the ratio lam (or a LambdaResult)."""
    if isinstance(lam_result, LambdaResult):
        lam, xi = lam_result.lam, lam_result.witness_xi
    else:
        lam, xi = float(lam_result), None
    if lam < 0.0:
        raise ValueError("ratio must be nonnegative")
    if math.isinf(lam):
        return PInterval(lam=math.inf, p_min=1.0, p_max=math.inf, witness_xi=None)
    root = math.sqrt(lam * lam + 1.0)
    # 2 lam (lam - root) written without cancellation
    p_min = 2.0 - 2.0 * lam / (lam + root)
    p_max = 2.0 + 2.0 * lam * (lam + root)
    return PInterval(lam=lam, p_min=p_min, p_max=p_max, witness_xi=xi)


# ----------------------------------------------------------------------
# sufficiency polynomial in (xi, eta)


@dataclass(frozen=True)
class QSufficiency:
    """Outcome of minimizing the 2n-variable sufficiency polynomial.

    ok is true when the polynomial is nonnegative on all of R^{2n}:
    coefficient matrix PSD, linear part in its range, and the completed
    square leaves a nonnegative constant.
    """

    ok: bool
    min_eig: float
    linear_residual: float
    min_value: float
    p: float
    alpha: float
    beta: float


def q_sufficiency(A, b, c, a, div_b, div_c, p, alpha=0.0, beta=0.0):
    """Nonnegativity of the pointwise sufficiency polynomial

        (4/(p p')) <Re A xi, xi> + <Re A eta, eta>
          + 2 <(Im A / p + Im A* / p') xi, eta>
          + <Im(b + c), eta> - 2 <Re(alpha b / p - beta c / p'), xi>
          + Re(div(b) (1-alpha)/p - div(c) (1-beta)/p' - a)       >= 0

    over all real (xi, eta).  A nonnegative quadratic-plus-linear form is
    certified by eigenvalue checks and a pseudo-inverse completed square.
    """
    p = _validate_p(p)
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    b = np.asarray(b, dtype=complex).reshape(n)
    c = np.asarray(c, dtype=complex).reshape(n)
    pp = p / (p - 1.0)  # conjugate exponent
    d = decompose(A)

    # quadratic coefficient matrix M on (xi, eta): value form z^T M z
    G = A.imag / p - A.imag.T / pp
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = (4.0 / (p * pp)) * d.S_r
    M[n:, n:] = d.S_r
    M[:n, n:] = G.T
    M[n:, :n] = G

    ell = np.zeros(2 * n)
    ell[:n] = -2.0 * (alpha * b.real / p - beta * c.real / pp)
    ell[n:] = (b + c).imag

    const = float(
        (complex(div_b) * (1.0 - alpha) / p
         - complex(div_c) * (1.0 - beta) / pp
         - complex(a)).real
    )

    scale = 1.0 + trace_norm(M)
    tol = TOL_PSD * scale
    w_min = min_eigenvalue(M)
    if w_min < -tol:
        return QSufficiency(False, w_min, math.nan, -math.inf, p, alpha, beta)

    z, residual = psd_pinv_apply(M, -0.5 * ell)
    lin_tol = TOL_SYS * (1.0 + float(np.linalg.norm(ell)))
    if residual > lin_tol:
        # linear part escapes the range of M: unbounded below
        return QSufficiency(False, w_min, residual, -math.inf, p, alpha, beta)

    min_value = const + 0.5 * float(ell @ z)  # = const - (1/4) <M^+ ell, ell>
    val_tol = TOL_PSD * (1.0 + abs(const) + float(np.linalg.norm(ell)) ** 2)
    ok = min_value >= -val_tol
    return QSufficiency(ok, w_min, residual, min_value, p, alpha, beta)


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

    The skew part of A is symmetrized away first: for constant
    coefficients it contributes nothing to the operator.
    """
    p = _validate_p(p)
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    b = np.asarray(b, dtype=complex).reshape(n)
    a = complex(a)
    A = 0.5 * (A + A.T)
    d = decompose(A)

    imb = b.imag.astype(float)
    if not check_p_condition(d, p):
        return ConstVerdict(False, "p_condition_failed", None, math.nan, math.nan, None)

    # drift compensation: 2 S_r V = -Im b, solved as S_r V = -Im b / 2
    V, residual = psd_pinv_apply(d.S_r, -0.5 * imb)
    if residual > TOL_SYS * (1.0 + float(np.linalg.norm(imb))):
        return ConstVerdict(False, "system_inconsistent", None, residual, math.nan, None)

    quad = float(V @ (d.S_r @ V))
    margin = a.real + quad
    corollary = None
    w, _ = jacobi_eigh(d.S_r, vectors=False)
    w = np.abs(np.asarray(w))
    if w.min() > RANK_TOL * max(w.max(), 1e-300):
        # nonsingular: the closed form 4 Re a <= -<S_r^{-1} Im b, Im b>
        y, _ = psd_pinv_apply(d.S_r, imb)
        corollary = 4.0 * a.real + float(imb @ y)
    if margin > TOL_ZERO * (1.0 + abs(a.real) + abs(quad)):
        return ConstVerdict(False, "zero_order_positive", V, residual, margin, corollary)
    return ConstVerdict(True, None, V, residual, margin, corollary)
