"""Each independent check accepts the right answer and rejects a wrong one.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  Only numpy, scipy and the benchmark's own ``checks`` module are
used; the program is not imported.
"""

import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402

CONST2 = {
    "n": 2, "domain": [[0.0, 1.0], [0.0, 1.0]], "grid": [8, 8],
    "A": [[{"re": "2", "im": "0.5"}, {"re": "0.3", "im": "0.4"}],
          [{"re": "-0.3", "im": "0.4"}, {"re": "1", "im": "-0.2"}]],
    "b": [{"im": "0.6"}, {"re": "1", "im": "-0.4"}],
    "a": {"re": "-0.2"},
}


def _report(**numbers):
    decision = numbers.pop("decision", None)
    return {"verdict": {"decision": decision}, "numbers": numbers}


def _lam():
    A, _, _, _ = checks.coefficients(CONST2, checks.verdict_nodes(CONST2, True))
    return checks.ratio(A)


def test_ratio_matches_bisection_on_pencils():
    lam = _lam()
    S_r = np.array([[2.0, 0.0], [0.0, 1.0]])
    S_i = np.array([[0.5, 0.4], [0.4, -0.2]])
    for t, feasible in ((lam * (1 - 1e-9), True), (lam * (1 + 1e-9), False)):
        ok = min(np.linalg.eigvalsh(S_r + t * S_i).min(), np.linalg.eigvalsh(S_r - t * S_i).min()) >= -1e-12
        assert bool(ok) is feasible


def test_interval_check_rejects_lambda_off_by_1e_4():
    lam = _lam()
    p_min, p_max = checks.interval(lam)
    assert checks.check_interval(_report(**{"lambda": lam, "p_min": p_min, "p_max": p_max}), lam) is None
    off = lam * (1.0 + 1e-4)
    p_min, p_max = checks.interval(off)
    assert checks.check_interval(_report(**{"lambda": off, "p_min": p_min, "p_max": p_max}), lam)


def test_interval_check_rejects_non_conjugate_endpoints():
    lam = _lam()
    p_min, p_max = checks.interval(lam)
    report = _report(**{"lambda": lam, "p_min": p_min * 1.01, "p_max": p_max})
    assert checks.check_interval(report, lam)


@pytest.mark.parametrize("inside", [True, False])
def test_condition_check_rejects_flipped_verdict(inside):
    lam = _lam()
    p_min, p_max = checks.interval(lam)
    p = math.sqrt(p_min * p_max) if inside else p_max * 1.5
    assert checks.check_condition(_report(decision=inside), lam, p) is None
    assert checks.check_condition(_report(decision=not inside), lam, p)


@pytest.mark.parametrize("re_a", [-2.0, 2.0])
def test_constant_check_rejects_flipped_verdict(re_a):
    A = np.array([[2 + 0.5j, 0.4j], [0.4j, 1 - 0.2j]])
    b = np.array([0.6j, 1 - 0.4j])
    margin = checks.constant_margin(A, b, re_a)
    assert margin == pytest.approx(4 * re_a + 0.6 ** 2 / 2 + 0.4 ** 2)
    lam = checks.ratio(A[None])
    p = math.sqrt(np.prod(checks.interval(lam)))
    right = margin <= 0.0
    assert checks.check_constant(_report(decision=right), lam, margin, p) is None
    assert checks.check_constant(_report(decision=not right), lam, margin, p)


def test_sufficiency_check_rejects_pass_outside_interval():
    lam = _lam()
    p_out = checks.interval(lam)[1] * 2.0
    assert checks.check_sufficiency(_report(decision=False), lam, p_out) is None
    assert checks.check_sufficiency(_report(decision=True), lam, p_out)


LAPLACE1 = {"n": 1, "domain": [[0.0, 1.0]], "grid": [64], "A": [[{"re": "1"}]]}
PLANE_WAVE = {"terms": ((1.0, (0.5,), (0.5,)),), "k": (1,), "t": 3.0}


def _falsified(doc, params, p, found=True):
    values = checks.probe_values(2, params, checks.node_meshes(doc))
    return SimpleNamespace(found=found, value=-1.0, family=2, params=params, p=p,
                           witness=SimpleNamespace(values=values))


def test_falsify_check_rejects_witness_with_positive_form():
    # the Laplacian dissipates every L^p norm: any "witness" is wrong
    assert checks.direct_form(LAPLACE1, _falsified(LAPLACE1, PLANE_WAVE, 2.0).witness.values, 2.0) > 0
    for p in (2.0, 4.0):
        assert checks.check_falsify(_falsified(LAPLACE1, PLANE_WAVE, p), LAPLACE1, True)


def test_falsify_check_accepts_a_real_witness():
    # (1 + i) Laplacian at p = 12 lies outside the interval (lambda = 1)
    doc = dict(LAPLACE1, A=[[{"re": "1", "im": "1"}]])
    spiral = {"terms": ((1.6, (0.65,), (0.25,)),), "mu": 1.0, "eps": 10 ** -2.5}
    values = checks.probe_values(1, spiral, checks.node_meshes(doc))
    res = SimpleNamespace(found=True, value=-1.0, family=1, params=spiral, p=12.0,
                          witness=SimpleNamespace(values=values))
    assert checks.check_falsify(res, doc, True) is None


def test_falsify_check_rejects_wrong_found_flag_and_mismatched_values():
    assert checks.check_falsify(_falsified(LAPLACE1, PLANE_WAVE, 2.0, found=False), LAPLACE1, True)
    res = _falsified(LAPLACE1, PLANE_WAVE, 2.0)
    res.witness.values = res.witness.values * 1.001
    assert "parameters" in checks.check_falsify(res, LAPLACE1, True)


def _eigen_doc():
    return {"n": 2, "domain": [[0.0, 1.0], [0.0, 0.9]], "grid": [12, 10],
            "A": [[{"re": "1.5"}, {}], [{}, {"re": "1.5"}]]}


def _exact_trace(doc, dt, steps, p):
    phi, mu = checks.first_eigen(doc)
    norm0 = checks.lp_norm(phi, p, checks.cell_weight(doc))
    return phi, SimpleNamespace(norms=norm0 * (1.0 + dt * mu) ** -np.arange(steps + 1.0))


def test_first_eigen_is_an_eigenpair_of_the_five_point_operator():
    doc = _eigen_doc()
    phi, mu = checks.first_eigen(doc)
    (lo0, hi0), (lo1, hi1) = doc["domain"]
    h = [(hi0 - lo0) / 13, (hi1 - lo1) / 11]
    lap = [scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / hk ** 2
           for n, hk in zip(doc["grid"], h)]
    M = 1.5 * (scipy.sparse.kron(lap[0], scipy.sparse.identity(10))
               + scipy.sparse.kron(scipy.sparse.identity(12), lap[1]))
    np.testing.assert_allclose(M @ phi.ravel(), -mu * phi.ravel(), rtol=1e-10, atol=1e-9)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_eigen_trace_check_rejects_norm_off_by_1e_6(p):
    doc = _eigen_doc()
    dt, steps = 1e-3, 10
    phi, trace = _exact_trace(doc, dt, steps, p)
    assert checks.check_eigen_trace(trace, doc, phi, dt, steps, p) is None
    trace.norms = trace.norms.copy()
    trace.norms[5] *= 1.0 + 1e-6
    assert checks.check_eigen_trace(trace, doc, phi, dt, steps, p)


def test_negative_definiteness_from_inertia_matches_eigenvalues():
    rng = np.random.default_rng(0)
    lap = scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(30, 30), dtype=complex)
    seen = set()
    for shift in (-0.5, -0.2, 0.3, 3.0):
        x = rng.uniform(-0.3, 0.3, 29)
        drift = scipy.sparse.diags([-1j * x, 1j * x], [-1, 1], shape=(30, 30))  # Hermitian
        M = (lap + drift + shift * scipy.sparse.identity(30)).tocsc()
        H = 0.5 * (M + M.conj().T).toarray()
        expected = bool(np.linalg.eigvalsh(H).max() < 0.0)
        got = checks.hermitian_negative_definite(M)
        # None (pivoted off the diagonal) decides nothing and is never a yes
        assert got is expected or (got is None and not expected)
        seen.add(got)
    assert {True, False} <= seen


def test_contraction_check_rejects_a_rising_norm():
    M = (scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(8, 8)) * 10.0).tocsc()
    u0 = np.linspace(1.0, 2.0, 8)
    norm0 = checks.lp_norm(u0, 2.0, 0.1)
    assert checks.hermitian_negative_definite(M)
    falling = SimpleNamespace(norms=norm0 * np.array([1.0, 0.9, 0.8]))
    assert checks.check_contraction(falling, M, u0, 0.1) is None
    rising = SimpleNamespace(norms=norm0 * np.array([1.0, 0.9, 0.9 + 1e-6]))
    assert checks.check_contraction(rising, M, u0, 0.1)
    wrong_start = SimpleNamespace(norms=norm0 * np.array([1.001, 0.9, 0.8]))
    assert checks.check_contraction(wrong_start, M, u0, 0.1)


def test_same_falsify_rejects_any_difference():
    one = _falsified(LAPLACE1, PLANE_WAVE, 2.0)
    for name in ("found", "value", "threshold", "evaluations", "family", "start_index"):
        setattr(one, name, getattr(one, name, 0))
    two = SimpleNamespace(**vars(one))
    assert checks.same_falsify(one, two) is None
    two.value = -1.0 + 1e-15
    assert checks.same_falsify(one, two)
