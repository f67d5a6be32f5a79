"""Acceptance battery.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (visible even under output capture) before asserting, so a full
run always yields ten verdict lines.
"""

import math
import time

import numpy as np
import pytest

from dissipate import (
    Grid,
    GridFunction,
    check_p_condition,
    constant_coeff_verdict,
    decompose,
    discretize,
    equivalence_gap,
    estimate_omega,
    evolve,
    falsify,
    form_direct,
    form_transformed,
    lambda_of,
    min_eigenvalue,
    operator_form,
    p_interval,
    q_sufficiency,
    sample_operator,
    spec_from_dict,
)
from dissipate.cli import load_preset

from conftest import (
    FULL_COEFF_1D,
    GOLDEN_CASES,
    GOLDEN_DIR,
    boundary_flat_battery,
    run_cli,
    seeded_matrices,
)

SQ2 = math.sqrt(2.0)


@pytest.fixture
def announce(capsys):
    def _announce(num, ok, label):
        with capsys.disabled():
            print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label}")
        return ok

    return _announce


def _matrices():
    return seeded_matrices(count=200, seed=20260816, allow_zero_im=False)


def test_criterion_01_conjugate_endpoints_and_membership(announce):
    mats = _matrices()
    ps = np.linspace(1.05, 40.0, 20)
    t0 = time.perf_counter()
    worst_identity = 0.0
    mismatches = 0
    for A in mats:
        d = decompose(A)
        itv = p_interval(lambda_of(d))
        if math.isfinite(itv.p_max):
            worst_identity = max(
                worst_identity, abs(1.0 / itv.p_min + 1.0 / itv.p_max - 1.0)
            )
        for p in ps:
            p = float(p)
            if abs(p - itv.p_min) <= 1e-6 or abs(p - itv.p_max) <= 1e-6:
                continue
            if check_p_condition(d, p) != itv.contains(p):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = worst_identity <= 1e-9 and mismatches == 0 and elapsed < 2.0
    announce(
        1,
        ok,
        f"conjugate endpoints (worst {worst_identity:.2e}) and interval membership "
        f"on 200 matrices in {elapsed:.2f}s",
    )
    assert worst_identity <= 1e-9
    assert mismatches == 0
    assert elapsed < 2.0, f"criterion 1 took {elapsed:.2f}s, budget is 2s"


def test_criterion_02_exponent_self_duality(announce):
    mismatches = 0
    for A in _matrices():
        d = decompose(A)
        for p in (1.2, 1.5, 3.0, 7.0):
            if check_p_condition(d, p) != check_p_condition(d, p / (p - 1.0)):
                mismatches += 1
    ok = mismatches == 0
    announce(2, ok, f"self-duality over 200 matrices x 4 exponents, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_03_ratio_oracles(announce):
    lam_unit = lambda_of(decompose((1.0 + 1.0j) * np.eye(2))).lam
    itv = p_interval(lam_unit)
    err_unit = abs(lam_unit - 1.0)
    err_lo = abs(itv.p_min - (4.0 - 2.0 * SQ2))
    err_hi = abs(itv.p_max - (4.0 + 2.0 * SQ2))
    lam_aniso = lambda_of(decompose(np.eye(2) + 1j * np.diag([2.0, 0.0]))).lam
    err_aniso = abs(lam_aniso - 0.5)
    ok = err_unit <= 1e-8 and err_lo <= 1e-6 and err_hi <= 1e-6 and err_aniso <= 1e-8
    announce(
        3,
        ok,
        f"ratio oracles: |lam-1| = {err_unit:.1e}, endpoints off by "
        f"{max(err_lo, err_hi):.1e}, |lam-0.5| = {err_aniso:.1e}",
    )
    assert err_unit <= 1e-8
    assert err_lo <= 1e-6 and err_hi <= 1e-6
    assert err_aniso <= 1e-8


def _route_battery():
    spec = spec_from_dict(FULL_COEFF_1D)
    g256 = Grid.from_spec(spec, shape=(256,))
    g128 = Grid.from_spec(spec, shape=(128,))
    return (
        spec,
        boundary_flat_battery(g256, 20, seed=42),
        boundary_flat_battery(g128, 20, seed=42),
    )


def test_criterion_04_route_equivalence_and_convergence(announce):
    spec, b256, b128 = _route_battery()
    t0 = time.perf_counter()
    worst_gap = 0.0
    ratios = []
    for u256, u128 in zip(b256, b128):
        for p in (2.5, 4.0):
            gap256 = equivalence_gap(spec, u256, p)
            gap128 = equivalence_gap(spec, u128, p)
            worst_gap = max(worst_gap, gap256)
            ratios.append(gap128 / gap256)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 5e-3 and all(2.8 <= r <= 5.5 for r in ratios) and elapsed < 10.0
    announce(
        4,
        ok,
        f"route gap <= {worst_gap:.2e} at N=256, halving ratios in "
        f"[{min(ratios):.2f}, {max(ratios):.2f}], {elapsed:.1f}s",
    )
    assert worst_gap <= 5e-3
    assert all(2.8 <= r <= 5.5 for r in ratios), (min(ratios), max(ratios))
    assert elapsed < 10.0, f"criterion 4 took {elapsed:.2f}s, budget is 10s"


def test_criterion_05_integration_by_parts(announce):
    spec, b256, _ = _route_battery()
    worst = 0.0
    for u in b256:
        for p in (2.5, 4.0):
            fd = form_direct(spec, u, p)
            of = operator_form(spec, u, p)
            worst = max(worst, abs(of + fd) / (1.0 + abs(fd)))
    ok = worst <= 1e-3
    announce(5, ok, f"matrix route vs direct form: worst relative mismatch {worst:.2e}")
    assert worst <= 1e-3


def test_criterion_06_skew_field_preset(announce):
    spec = spec_from_dict(load_preset("example1"))
    grid = Grid.from_spec(spec)
    sam = sample_operator(spec, grid.points())
    cond_ok = all(
        check_p_condition(decompose(sam.A[j]), p)
        for p in (1.5, 2.0, 4.0)
        for j in range(sam.A.shape[0])
    )
    suff = q_sufficiency(
        sam.A[0], sam.b[0], sam.c[0], sam.a[0], sam.div_b[0], sam.div_c[0], 2.0
    )
    fr = falsify(spec, 2.0, budget=2000, seed=0)
    op = discretize(spec)
    x1, x2 = op.grid.meshes()
    u0 = GridFunction(op.grid, np.sin(np.pi * x1) * np.sin(np.pi * x2) + 0j)
    trace = evolve(op, u0, dt=1e-5, t_end=5e-3, p=2.0)
    noninc = trace.nonincreasing(per_step_tol=1e-10)
    ok = cond_ok and not suff.ok and not fr.found and noninc and len(trace.norms) == 501
    announce(
        6,
        ok,
        f"skew preset: condition holds, sufficiency refuses, falsifier quiet "
        f"({fr.evaluations} evals), 500-step norm trace nonincreasing",
    )
    assert cond_ok
    assert not suff.ok
    assert not fr.found
    assert len(trace.norms) == 501
    assert noninc


def test_criterion_07_quasi_contractive_preset(announce):
    spec = spec_from_dict(load_preset("example2"))
    grid = Grid.from_spec(spec)
    sam = sample_operator(spec, grid.points())
    cond_ok = all(
        check_p_condition(decompose(sam.A[j]), 2.0) for j in range(sam.A.shape[0])
    )
    one = falsify(spec, 2.0, budget=5000, seed=7)
    two = falsify(spec, 2.0, budget=5000, seed=7)
    reproducible = (
        one.value == two.value
        and one.evaluations == two.evaluations
        and one.params == two.params
    )
    omega = math.nan
    if one.found:
        trace = evolve(discretize(spec), one.witness, dt=1e-4, t_end=0.02, p=2.0)
        omega = estimate_omega(trace)
    ok = (
        cond_ok
        and one.found
        and one.evaluations <= 5000
        and one.value < -one.threshold
        and reproducible
        and math.isfinite(omega)
        and omega > 0.0
    )
    announce(
        7,
        ok,
        f"quasi preset: condition true everywhere, counterexample at "
        f"{one.evaluations} evals (value {one.value:.3f}), omega {omega:.1f}",
    )
    assert cond_ok
    assert one.found and one.evaluations <= 5000
    assert one.value < -one.threshold
    assert reproducible
    assert math.isfinite(omega) and omega > 0.0


def test_criterion_08_constant_endpoint(announce):
    A = np.array([[1.0 + 1j * math.sqrt(3.0)]])
    v = constant_coeff_verdict(A, [2.0j], -1.0, 4.0)
    # equality of both clauses: the pencil touches zero and the zero
    # order margin closes exactly
    d = decompose(0.5 * (A + A.T))
    pencil_edge = min(
        abs(min_eigenvalue(2.0 * math.sqrt(3.0) * d.S_r + 2.0 * d.S_i)),
        abs(min_eigenvalue(2.0 * math.sqrt(3.0) * d.S_r - 2.0 * d.S_i)),
    )
    flipped = constant_coeff_verdict(A, [2.0j], -1.0 + 0.01, 4.0)
    ok = (
        v.ok
        and abs(v.margin) <= 1e-9
        and pencil_edge <= 1e-9
        and not flipped.ok
        and flipped.reason == "zero_order_positive"
    )
    announce(
        8,
        ok,
        f"constant endpoint: margin {v.margin:.1e}, pencil edge {pencil_edge:.1e}, "
        f"perturbed verdict flips to {flipped.reason}",
    )
    assert v.ok
    assert abs(v.margin) <= 1e-9
    assert pencil_edge <= 1e-9
    assert not flipped.ok and flipped.reason == "zero_order_positive"


def test_criterion_09_heat_decay(announce):
    doc = {
        "n": 1,
        "domain": [[0.0, 1.0]],
        "grid": [128],
        "A": [[{"re": "1"}]],
    }
    op = discretize(spec_from_dict(doc))
    x = op.grid.meshes()[0]
    u0 = GridFunction(op.grid, np.sin(np.pi * x) + 0j)
    trace = evolve(op, u0, dt=1e-5, t_end=5e-3, p=2.0)
    rate = trace.fitted_rate()
    omega = estimate_omega(trace)
    rel = abs(rate + math.pi**2) / math.pi**2
    ok = rel <= 0.02 and omega == 0.0
    announce(
        9,
        ok,
        f"heat decay: fitted rate {rate:.4f} vs -pi^2 ({100 * rel:.2f}% off), omega {omega}",
    )
    assert rel <= 0.02
    assert omega == 0.0


def test_criterion_10_byte_identical_reports(announce):
    failures = []
    for name, argv in GOLDEN_CASES:
        expected = (GOLDEN_DIR / name).read_bytes()
        code, out, err = run_cli(*argv)
        if code != 0 or out.encode("utf-8") != expected:
            failures.append((name, code))
    ok = not failures
    announce(10, ok, f"{len(GOLDEN_CASES)} golden reports byte-identical")
    assert not failures, failures
