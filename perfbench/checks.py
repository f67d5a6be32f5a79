"""Independent checks of the program's outputs.

Nothing here calls ``dissipate``.  Coefficients are evaluated from the
operator documents by this module's own reading of the expression
strings (``^`` becomes ``**``; the grammar's precedence matches
Python's), grid nodes are laid out from the document, and the answers
are recomputed with numpy and scipy by other routes than the program's:

* the exponent ratio as ``1 / max |eig(S_i, S_r)|`` from the generalized
  symmetric eigenproblem (``scipy.linalg.eigh``), where the program
  bisects on Jacobi eigenvalues;
* the constant coefficient verdict from the closed form
  ``4 Re a + <S_r^{-1} Im b, Im b> <= 0``;
* the dissipativity form by direct quadrature on the witness, where the
  falsifier evaluates the transformed functional;
* the implicit Euler norm trace against the closed-form discrete
  eigenvalue, and contraction against the inertia of the assembled
  matrix's Hermitian part.

Each ``check_*`` function returns None when the output passes and a
one-line reason when it does not.
"""

import math

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import splu

LAMBDA_RTOL = 1e-6
CONJUGATE_TOL = 1e-9
TRACE_RTOL = 1e-10
CONTRACTION_RTOL = 1e-12


def bump(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


_FUNCS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "tanh": np.tanh, "bump": bump, "pi": math.pi,
}


def _part(value, xs):
    if value is None:
        return 0.0
    if isinstance(value, (int, float)):
        return float(value)
    names = dict(_FUNCS)
    names.update({f"x{k + 1}": x for k, x in enumerate(xs)})
    code = compile(value.replace("^", "**"), "<coefficient>", "eval")
    return eval(code, {"__builtins__": {}}, names)


def entry_values(entry, xs):
    """Complex values of one coefficient entry ({"re", "im"}) at the nodes xs."""
    shape = np.shape(xs[0])
    re = np.broadcast_to(_part(entry.get("re"), xs), shape)
    im = np.broadcast_to(_part(entry.get("im"), xs), shape)
    return re + 1j * im


def spacing(doc):
    """Grid step per axis: N interior nodes split [lo, hi] into N + 1 cells."""
    return [(hi - lo) / (cnt + 1) for (lo, hi), cnt in zip(doc["domain"], doc["grid"])]


def node_meshes(doc):
    """Coordinates of the document's interior grid nodes, one mesh per axis."""
    axes = [lo + h * np.arange(1, cnt + 1)
            for (lo, _), cnt, h in zip(doc["domain"], doc["grid"], spacing(doc))]
    return np.meshgrid(*axes, indexing="ij")


def coefficients(doc, xs):
    """A (m,n,n), b, c (m,n) and a (m,) at the flattened nodes xs."""
    n = doc["n"]
    flat = tuple(np.asarray(x, dtype=float).reshape(-1) for x in xs)
    m = flat[0].size
    A = np.empty((m, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            A[:, i, j] = entry_values(doc["A"][i][j], flat)
    zero = [{}] * n
    b = np.stack([entry_values(e, flat) for e in doc.get("b", zero)], axis=1)
    c = np.stack([entry_values(e, flat) for e in doc.get("c", zero)], axis=1)
    a = entry_values(doc.get("a", {}), flat)
    return A, b, c, a


def verdict_nodes(doc, constant):
    """Nodes the verdict commands decide on: the box centre for constant
    coefficients, every interior grid node otherwise."""
    if constant:
        return tuple(np.array([0.5 * (lo + hi)]) for lo, hi in doc["domain"])
    return tuple(m.reshape(-1) for m in node_meshes(doc))


# ----------------------------------------------------------------------
# exponent ratio and interval


def ratio(A_nodes):
    """min over nodes of 1 / max |eig(S_i, S_r)|; inf when S_i vanishes."""
    lam = math.inf
    for A in A_nodes:
        S_r = 0.5 * (A.real + A.real.T)
        S_i = 0.5 * (A.imag + A.imag.T)
        if np.linalg.norm(S_i) <= 1e-12 * (1.0 + np.linalg.norm(S_r)):
            continue
        w = scipy.linalg.eigh(S_i, S_r, eigvals_only=True)
        lam = min(lam, 1.0 / float(np.abs(w).max()))
    return lam


def interval(lam):
    if math.isinf(lam):
        return 1.0, math.inf
    root = math.sqrt(lam * lam + 1.0)
    return 2.0 - 2.0 * lam / (lam + root), 2.0 + 2.0 * lam * (lam + root)


def _reported(v):
    """A number from a JSON report, where infinity is the string "inf"."""
    return math.inf if v == "inf" else float(v)


def check_interval(report, lam):
    got = _reported(report["numbers"]["lambda"])
    if math.isinf(lam) or math.isinf(got):
        if got != lam:
            return f"lambda {got!r}, expected {lam!r}"
        return None
    if abs(got - lam) > LAMBDA_RTOL * lam:
        return f"lambda {got!r} differs from {lam!r} by more than {LAMBDA_RTOL:g} relative"
    p_min = _reported(report["numbers"]["p_min"])
    p_max = _reported(report["numbers"]["p_max"])
    if abs(1.0 / p_min + 1.0 / p_max - 1.0) > CONJUGATE_TOL:
        return f"1/p_min + 1/p_max = {1.0 / p_min + 1.0 / p_max!r}, not 1"
    return None


def check_condition(report, lam, p):
    p_min, p_max = interval(lam)
    expected = p_min <= p <= p_max
    if report["verdict"]["decision"] is not expected:
        return f"check at p = {p!r} says {report['verdict']['decision']}, interval [{p_min!r}, {p_max!r}]"
    return None


def constant_margin(A, b, a):
    """4 Re a + <S_r^{-1} Im b, Im b> for one constant coefficient set."""
    S_r = 0.5 * (A.real + A.real.T)
    imb = np.asarray(b).imag
    return 4.0 * float(np.real(a)) + float(imb @ scipy.linalg.solve(S_r, imb, assume_a="pos"))


def check_constant(report, lam, margin, p):
    p_min, p_max = interval(lam)
    expected = (p_min <= p <= p_max) and margin <= 0.0
    if report["verdict"]["decision"] is not expected:
        return f"constant at p = {p!r} says {report['verdict']['decision']}, closed form margin {margin!r}"
    return None


def check_sufficiency(report, lam, p):
    p_min, p_max = interval(lam)
    if report["verdict"]["decision"] and not p_min <= p <= p_max:
        return f"sufficiency holds at p = {p!r} outside [{p_min!r}, {p_max!r}]"
    return None


# ----------------------------------------------------------------------
# the dissipativity form by direct quadrature


def _gradient(values, steps):
    padded = np.pad(values, 1)
    n = values.ndim
    core = [slice(1, -1)] * n
    out = []
    for k in range(n):
        up = list(core)
        dn = list(core)
        up[k] = slice(2, None)
        dn[k] = slice(0, -2)
        out.append((padded[tuple(up)] - padded[tuple(dn)]) / (2.0 * steps[k]))
    return np.stack([g.reshape(-1) for g in out])


def _power(values, expo):
    absu = np.abs(values)
    safe = np.where(absu > 0.0, absu, 1.0)
    return np.where(absu > 0.0, safe ** expo * values, 0.0)


def direct_form(doc, u, p):
    """Re of the operator's form on the L^p dissipativity pair of u:

        int <A grad f, grad g> - (b . grad f) g* + f c . grad g* - a f g*

    with (f, g) = (u, |u|^{p-2} u) for p >= 2 and (|u|^{p'-2} u, u)
    otherwise, by midpoint quadrature with central differences."""
    u = np.asarray(u, dtype=complex)
    if p >= 2.0:
        f, g = u, _power(u, p - 2.0)
    else:
        f, g = _power(u, p / (p - 1.0) - 2.0), u
    steps = spacing(doc)
    A, b, c, a = coefficients(doc, node_meshes(doc))
    df = _gradient(f, steps)
    dgc = _gradient(g, steps).conj()
    fv = f.reshape(-1)
    gc = g.reshape(-1).conj()
    val = np.einsum("mhk,km,hm->m", A, df, dgc)
    val = val - np.einsum("mk,km->m", b, df) * gc
    val = val + fv * np.einsum("mk,km->m", c, dgc)
    val = val - a * fv * gc
    return float((val.sum() * math.prod(steps)).real)


def probe_values(family, params, meshes):
    """A falsifier probe from its reported parameters, by the families'
    definitions: a positive profile of separable bumps, times a
    logarithmic phase spiral (1), a plane wave (2) or a wave mixture (3)."""
    rho = np.zeros_like(meshes[0])
    for amp, ctrs, rads in params["terms"]:
        piece = np.full_like(meshes[0], amp)
        for k, mesh in enumerate(meshes):
            piece = piece * bump((mesh - ctrs[k]) / rads[k])
        rho = rho + piece

    def wave(t, kvec):
        return np.exp(1j * t * sum(comp * mesh for comp, mesh in zip(kvec, meshes)))

    if family == 1:
        return rho * np.exp(0.5j * params["mu"] * np.log(rho * rho + params["eps"]))
    if family == 2:
        return rho * wave(params["t"], params["k"])
    mix = params["c0_re"] + 1j * params["c0_im"]
    for c_re, c_im, t, kvec in params["waves"]:
        mix = mix + (c_re + 1j * c_im) * wave(t, kvec)
    return rho * mix


WITNESS_REFINEMENTS = (1, 4, 16)


def check_falsify(result, doc, expected_found):
    """The found flag must be the known answer, and a witness v must make
    the direct form negative on u = |v|^{2/p-1} v.  The falsifier judges
    probes on the document's grid; a narrow probe can be resolved well
    enough there for the transformed functional and not for the direct
    form of u, whose modulus |v|^{2/p} is steeper.  So the probe is
    rebuilt from its parameters on grids 4 and 16 times finer, and one
    negative reading suffices."""
    if result.found is not expected_found:
        return f"falsify found={result.found} (value {result.value!r}), expected {expected_found}"
    if not result.found:
        return None
    v = np.asarray(result.witness.values)
    rebuilt = probe_values(result.family, result.params, node_meshes(doc))
    if not np.allclose(rebuilt, v, rtol=1e-12, atol=1e-12 * np.abs(v).max()):
        return "witness values do not match the reported probe parameters"
    readings = []
    for factor in WITNESS_REFINEMENTS:
        fine = dict(doc, grid=[factor * cnt for cnt in doc["grid"]])
        vals = v if factor == 1 else probe_values(result.family, result.params, node_meshes(fine))
        form = direct_form(fine, _power(vals, 2.0 / result.p - 1.0), result.p)
        if form < 0.0:
            return None
        readings.append(form)
    return f"witness gives direct form {readings} >= 0 at refinements {WITNESS_REFINEMENTS}"


def same_falsify(one, two):
    """None when two falsifier results are identical field by field."""
    for name in ("found", "value", "threshold", "evaluations", "family", "start_index", "params"):
        if getattr(one, name) != getattr(two, name):
            return f"{name} differs: {getattr(one, name)!r} vs {getattr(two, name)!r}"
    if not np.array_equal(one.witness.values, two.witness.values):
        return "witness values differ"
    return None


# ----------------------------------------------------------------------
# implicit Euler


def lp_norm(values, p, weight):
    return float(np.sum(np.abs(values) ** p) * weight) ** (1.0 / p)


def first_eigen(doc):
    """Discrete first Dirichlet eigenpair of div(kappa grad) on the document's
    grid with A = kappa I: the node values of prod sin(pi (x_k - lo_k) / L_k)
    and mu > 0 with M phi = -mu phi."""
    kappa = float(doc["A"][0][0]["re"])
    mu = 0.0
    for (lo, hi), h in zip(doc["domain"], spacing(doc)):
        mu += kappa * 4.0 / (h * h) * math.sin(math.pi * h / (2.0 * (hi - lo))) ** 2
    phi = np.ones(tuple(doc["grid"]))
    for k, mesh in enumerate(node_meshes(doc)):
        lo, hi = doc["domain"][k]
        phi = phi * np.sin(math.pi * (mesh - lo) / (hi - lo))
    return phi, mu


def cell_weight(doc):
    return math.prod(spacing(doc))


def check_eigen_trace(trace, doc, u0, dt, steps, p):
    """The L^p norm of (I - dt M)^{-k} phi is (1 + dt mu)^{-k} ||phi||_p."""
    _, mu = first_eigen(doc)
    norms = np.asarray(trace.norms)
    if norms.size != steps + 1:
        return f"{norms.size - 1} steps, expected {steps}"
    expected = lp_norm(u0, p, cell_weight(doc)) * (1.0 + dt * mu) ** -np.arange(steps + 1.0)
    err = float(np.max(np.abs(norms - expected) / expected))
    if err > TRACE_RTOL:
        return f"norm trace off the closed form by {err:.3e} relative"
    return None


def hermitian_negative_definite(matrix):
    """Whether (M + M^H) / 2 is negative definite, from the inertia of a
    symmetric-pivoted sparse LDL^H: with the same row and column order
    and no off-diagonal pivoting, U = D L^H and the signs of D are the
    signs of the eigenvalues (Sylvester's law of inertia).  None when
    the factorization pivoted off the diagonal and decides nothing."""
    H = (0.5 * (matrix + matrix.conj().T)).tocsc()
    lu = splu(-H, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return bool(np.all(lu.U.diagonal().real > 0.0))


def check_contraction(trace, matrix, u0, weight):
    """The trace starts at the norm of the initial data and stays finite;
    at p = 2 the implicit Euler iterate cannot grow in L^2 when the
    Hermitian part of the matrix is negative definite (no claim when it
    is not)."""
    norms = np.asarray(trace.norms)
    if abs(norms[0] - lp_norm(u0, 2.0, weight)) > TRACE_RTOL * norms[0]:
        return f"initial norm {norms[0]!r} is not the norm of the initial data"
    if not np.all(np.isfinite(norms)):
        return "non-finite norm in the trace"
    if not hermitian_negative_definite(matrix):
        return None
    rise = float(np.max(np.diff(norms)))
    if rise > CONTRACTION_RTOL * norms[0]:
        return f"L^2 norm rose by {rise:.3e} with a negative definite Hermitian part"
    return None
