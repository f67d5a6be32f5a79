"""Discretization, norm traces, implicit Euler evolution, growth rates."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.sparse import identity

from dissipate import semigroup
from dissipate.coeffspec import NODE_CAP, spec_from_dict
from dissipate.grids import Grid, GridFunction
from dissipate.semigroup import (
    STEP_CAP,
    STEP_TOL,
    DiscreteOperator,
    NormTrace,
    discretize,
    estimate_omega,
    evolve,
    lp_norm,
)

from conftest import PRESET_DIR, complex_evolve_oracle, discretize_triplet_oracle, preset, run_cli


def doc_1d(**over):
    doc = {
        "n": 1,
        "domain": [[0.0, 1.0]],
        "grid": [8],
        "A": [[{"re": "1"}]],
    }
    doc.update(over)
    return doc


def dense(doc):
    return discretize(spec_from_dict(doc)).matrix.toarray()


class TestAssembly:
    def test_1d_laplacian_is_the_classic_tridiagonal(self):
        spec = spec_from_dict(doc_1d())
        op = discretize(spec)
        h = op.grid.spacing[0]
        ref = (np.diag(-2.0 * np.ones(8)) + np.diag(np.ones(7), 1) + np.diag(np.ones(7), -1)) / h**2
        np.testing.assert_array_equal(op.matrix.toarray(), ref.astype(complex))

    def test_constant_skew_imaginary_block_cancels_exactly(self):
        # off diagonal entries i*gamma and -i*gamma feed the same mixed
        # stencil with opposite signs, so the assembled matrix is the
        # plain Laplacian, entry for entry
        base = {
            "n": 2,
            "domain": [[0.0, 1.0], [0.0, 1.0]],
            "grid": [12, 12],
            "A": [
                [{"re": "1"}, {"im": "3"}],
                [{"im": "-3"}, {"re": "1"}],
            ],
        }
        plain = {
            "n": 2,
            "domain": [[0.0, 1.0], [0.0, 1.0]],
            "grid": [12, 12],
            "A": [
                [{"re": "1"}, {}],
                [{}, {"re": "1"}],
            ],
        }
        np.testing.assert_array_equal(dense(base), dense(plain))

    def test_interior_row_sums_vanish_for_the_laplacian(self):
        M = dense(doc_1d(grid=[9]))
        sums = M.sum(axis=1)
        h2 = (1.0 / 10.0) ** 2
        assert abs(sums[4]) <= 1e-9 / h2

    def test_first_order_term_is_antisymmetric(self):
        drift = dense(doc_1d(b=[{"re": "1"}])) - dense(doc_1d())
        np.testing.assert_array_equal(drift, -drift.T)

    def test_conservative_term_is_minus_the_drift_transpose(self):
        field = {"re": "1 + 0.5*sin(pi*x1)"}
        drift = dense(doc_1d(b=[field])) - dense(doc_1d())
        conserv = dense(doc_1d(c=[field])) - dense(doc_1d())
        np.testing.assert_array_equal(conserv, -drift.T)

    def test_zero_order_term_lands_on_the_diagonal(self):
        shifted = dense(doc_1d(a={"re": "-2", "im": "0.5"}))
        base = dense(doc_1d())
        np.testing.assert_array_equal(shifted - base, (-2.0 + 0.5j) * np.eye(8))

    def test_node_cap_is_enforced(self):
        doc = {
            "n": 2,
            "domain": [[0.0, 1.0], [0.0, 1.0]],
            "grid": [130, 130],
            "A": [[{"re": "1"}, {}], [{}, {"re": "1"}]],
        }
        with pytest.raises(ValueError, match=str(NODE_CAP)):
            discretize(spec_from_dict(doc))

    def test_variable_diagonal_coefficient_keeps_symmetry(self):
        # flux form with midpoint sampling: real diagonal A gives a
        # symmetric matrix even when the coefficient varies
        M = dense(doc_1d(A=[[{"re": "2 + sin(pi*x1)"}]], grid=[16]))
        np.testing.assert_allclose(M, M.T, atol=0.0)


def _seeded_expr(rng, n):
    """A smooth real field in x1..xn with seeded coefficients."""
    c = rng.uniform(-1.0, 1.0, n + 2)
    phase = "+".join(f"{c[j + 2]:.4f}*x{j + 1}" for j in range(n))
    return f"{c[0]:.4f}*sin({phase}) + {c[1]:.4f}*cos({2.0 * c[1]:.4f}*x1)"


def _every_term_doc(rng, n, grid):
    """A variable field with every term: A with cross terms, b, c and a."""
    def entry():
        return {"re": _seeded_expr(rng, n), "im": _seeded_expr(rng, n)}

    A = [[entry() for _ in range(n)] for _ in range(n)]
    for k in range(n):
        A[k][k]["re"] = "2 + " + A[k][k]["re"]
    return {
        "n": n,
        "domain": [[0.0, 1.0 + 0.25 * k] for k in range(n)],
        "grid": grid,
        "A": A,
        "b": [entry() for _ in range(n)],
        "c": [entry() for _ in range(n)],
        "a": entry(),
    }


def _same_bytes(got, ref):
    return (
        got.indptr.tobytes() == ref.indptr.tobytes()
        and got.indices.tobytes() == ref.indices.tobytes()
        and got.data.tobytes() == ref.data.tobytes()
    )


class TestStencilTable:
    """``discretize`` sums each entry once in term order; the triplet
    oracle leaves the duplicates to scipy."""

    @pytest.mark.parametrize("path", sorted(PRESET_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_every_preset_matches_the_triplet_oracle_bit_for_bit(self, path):
        spec = spec_from_dict(json.loads(path.read_text(encoding="ascii")))
        assert _same_bytes(discretize(spec).matrix, discretize_triplet_oracle(spec))

    @pytest.mark.parametrize(
        "A",
        [
            [[{"re": "1.5"}, {}, {}], [{}, {"re": "0.75"}, {}], [{}, {}, {"re": "2"}]],
            [[{"re": "1"}, {"im": "3"}, {}], [{"im": "-3"}, {"re": "1"}, {}], [{}, {}, {"re": "2"}]],
            [[{"re": "0"}, {}, {}], [{}, {}, {}], [{}, {}, {}]],
            # the corner stencils of A[0][1] alone hold -0.0 real parts,
            # which an entry that starts from +0.0 would lose
            [[{"re": "1"}, {"re": "-0*x1"}, {}], [{}, {"re": "1"}, {}], [{}, {}, {"re": "2"}]],
        ],
        ids=["diagonal", "skew", "zero", "negative-zero"],
    )
    def test_a_3d_document_matches_the_triplet_oracle_bit_for_bit(self, A):
        doc = {"n": 3, "domain": [[0.0, 1.0], [0.0, 0.8], [0.0, 1.3]], "grid": [8, 9, 10], "A": A}
        spec = spec_from_dict(doc)
        assert _same_bytes(discretize(spec).matrix, discretize_triplet_oracle(spec))

    @pytest.mark.parametrize("grid", [[40], [12, 9], [8, 9, 8]], ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_term_matches_the_triplet_oracle_within_4_ulp(self, grid, seed):
        # scipy sums three or more duplicates in an order of its own, so
        # only the structure is exact; each entry agrees to 4 ulp of itself
        spec = spec_from_dict(_every_term_doc(np.random.default_rng([seed, len(grid)]), len(grid), grid))
        got = discretize(spec).matrix
        ref = discretize_triplet_oracle(spec)
        assert got.indptr.tobytes() == ref.indptr.tobytes()
        assert got.indices.tobytes() == ref.indices.tobytes()
        assert np.all(np.abs(got.data - ref.data) <= 4.0 * np.finfo(float).eps * np.abs(ref.data))

    @pytest.mark.parametrize(
        "over, node",
        [
            ({"A": [[{"re": "1e307"}]]}, "0.111111"),
            ({"b": [{"re": "1e308*x1"}]}, "0.444444"),
        ],
        ids=["A", "b"],
    )
    def test_an_entry_too_large_for_the_spacing_is_one_value_error(self, over, node):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^operator matrix: non-finite entry in the row of node \({node}\)"):
                discretize(spec_from_dict(doc_1d(**over)))


class TestNorms:
    def test_quadrature_norm_of_the_constant(self):
        grid = Grid((0.0,), (1.0,), (255,))
        u = GridFunction(grid, np.ones(255, dtype=complex))
        assert lp_norm(u.values, 1.0, grid.weight) == pytest.approx((255.0 / 256.0), rel=1e-14)
        assert lp_norm(u.values, 2.0, grid.weight) == pytest.approx(math.sqrt(255.0 / 256.0), rel=1e-14)

    def test_positive_homogeneity(self):
        grid = Grid((0.0,), (1.0,), (32,))
        rng = np.random.default_rng(2)
        u = rng.normal(size=32) + 1j * rng.normal(size=32)
        for p in (1.0, 2.0, 3.5):
            assert lp_norm(2.0 * u, p, grid.weight) == pytest.approx(2.0 * lp_norm(u, p, grid.weight), rel=1e-12)

    @pytest.mark.parametrize("p", [np.int64(3), np.float32(3.0)])
    def test_numpy_exponents_are_accepted(self, p):
        u = np.linspace(0.1, 0.8, 8) + 0j
        assert lp_norm(u, p, 0.125) == lp_norm(u, 3.0, 0.125)

    @pytest.mark.parametrize("p", ["3", None, 3j])
    def test_non_real_exponents_are_rejected(self, p):
        with pytest.raises(ValueError, match="finite and >= 1"):
            lp_norm(np.ones(8, dtype=complex), p, 0.125)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 800.0])
    def test_powers_of_two_scale_the_norm_exactly(self, p):
        # the sum is taken on |u| / 2^e, so neither |u|^800 nor the
        # squares of entries past 1e154 leave the float range
        grid = Grid((0.0,), (1.0,), (32,))
        rng = np.random.default_rng(5)
        u = rng.normal(size=32) + 1j * rng.normal(size=32)
        norm = lp_norm(u, p, grid.weight)
        top = np.abs(u).max()
        ref = top * float(np.sum((np.abs(u) / top) ** p) * grid.weight) ** (1.0 / p)
        assert norm == pytest.approx(ref, rel=1e-13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (-900, -500, -1, 1, 500, 900):
                assert lp_norm(u * 2.0**k, p, grid.weight) == norm * 2.0**k

    def test_exponent_validation(self):
        u = np.ones(8, dtype=complex)
        for p in (0.5, math.inf, math.nan, 1022.5, 2000.0):
            with pytest.raises(ValueError, match="at most 1022"):
                lp_norm(u, p, 0.125)
        # the largest term of the sum is 2^-1022, still a normal float
        assert lp_norm(u, 1022.0, 0.125) == pytest.approx(1.0, rel=1e-12)

    def test_a_real_array_has_the_norm_of_its_complex_cast(self):
        rng = np.random.default_rng(6)
        u = rng.normal(size=(4, 8))
        for p in (1.0, 2.0, 3.5, 800.0):
            assert lp_norm(u, p, 0.01) == lp_norm(u.astype(complex), p, 0.01)


class TestNormTrace:
    def trace_from(self, norms, dt=0.01):
        norms = np.asarray(norms, dtype=float)
        return NormTrace(p=2.0, dt=dt, times=dt * np.arange(norms.size), norms=norms)

    def test_nonincreasing_with_a_per_step_allowance(self):
        assert STEP_TOL == 1e-10
        tr = self.trace_from([1.0, 1.0 + 5e-11, 1.0 + 4e-11, 1.0])
        assert tr.nonincreasing()
        tr = self.trace_from([1.0, 1.0 + 2e-10, 1.0])
        assert not tr.nonincreasing()

    def test_fitted_rate_recovers_an_exact_exponential(self):
        dt = 0.01
        t = dt * np.arange(101)
        tr = self.trace_from(np.exp(-3.0 * t), dt=dt)
        assert tr.fitted_rate() == pytest.approx(-3.0, abs=1e-9)

    def test_omega_picks_the_steepest_window(self):
        dt = 0.01
        t = dt * np.arange(101)
        growing = self.trace_from(np.exp(2.0 * t), dt=dt)
        assert estimate_omega(growing) == pytest.approx(2.0, abs=1e-6)
        decaying = self.trace_from(np.exp(-2.0 * t), dt=dt)
        assert estimate_omega(decaying) == 0.0

    def test_omega_on_a_mixed_trace(self):
        # decay first, then a burst of growth at rate 5
        dt = 0.01
        t1 = np.exp(-1.0 * dt * np.arange(51))
        t2 = t1[-1] * np.exp(5.0 * dt * np.arange(1, 31))
        tr = self.trace_from(np.concatenate([t1, t2]), dt=dt)
        assert estimate_omega(tr) == pytest.approx(5.0, rel=1e-6)

    def test_vanishing_norms_disable_the_estimates(self):
        tr = self.trace_from([1.0, 1e-305, 1e-310])
        assert tr.has_vanishing_norms
        assert tr.fitted_rate() == 0.0
        assert estimate_omega(tr) == 0.0

    def test_csv_format(self, tmp_path):
        tr = self.trace_from([1.0, 0.5], dt=0.25)
        out = tmp_path / "trace.csv"
        tr.write_csv(out)
        lines = out.read_text(encoding="ascii").splitlines()
        assert lines[0] == "t,norm_p"
        assert lines[1] == "0,1"
        assert lines[2] == "0.25,0.5"


class TestEvolve:
    def test_heat_equation_decay_rate(self):
        spec = spec_from_dict(doc_1d(grid=[128]))
        op = discretize(spec)
        x = op.grid.meshes()[0]
        u0 = GridFunction(op.grid, np.sin(np.pi * x) + 0j)
        trace = evolve(op, u0, dt=1e-5, t_end=5e-3, p=2.0)
        assert (np.diff(trace.norms) <= 0.0).all()
        assert trace.fitted_rate() == pytest.approx(-math.pi**2, rel=0.02)
        assert estimate_omega(trace) == 0.0

    def test_two_runs_are_bit_identical(self):
        spec = spec_from_dict(doc_1d(grid=[64]))
        op = discretize(spec)
        x = op.grid.meshes()[0]
        u0 = GridFunction(op.grid, np.sin(2 * np.pi * x) * np.exp(1j * x))
        a = evolve(op, u0, dt=1e-4, t_end=0.01, p=3.0)
        b = evolve(op, u0, dt=1e-4, t_end=0.01, p=3.0)
        assert np.array_equal(a.norms, b.norms)

    def test_step_count_rounds_to_the_horizon(self):
        spec = spec_from_dict(doc_1d())
        op = discretize(spec)
        u0 = GridFunction(op.grid, np.ones(8, dtype=complex))
        trace = evolve(op, u0, dt=0.3, t_end=1.0, p=2.0)
        assert len(trace.norms) == 4  # 3 steps plus the initial sample

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_norm_overflow_is_reported(self):
        # (I - dt M)^{-1} has gain about -100 per step for a = 101 and
        # dt = 0.01, so the iterate overflows well before t_end
        doc = doc_1d(A=[[{"re": "1e-8"}]], a={"re": "101"})
        op = discretize(spec_from_dict(doc))
        u0 = GridFunction(op.grid, np.ones(8, dtype=complex))
        with pytest.raises(OverflowError, match="overflowed at step"):
            evolve(op, u0, dt=0.01, t_end=3.0, p=2.0)

    def test_only_a_non_finite_iterate_overflows(self):
        # I - dt M = 2^-50 I: each step multiplies the iterate by 2^50, so
        # step 20 holds 2^1000 and step 21 overflows to inf
        grid = Grid((0.0,), (1.0,), (8,))
        op = DiscreteOperator(grid, (1.0 - 2.0**-50) * identity(8, format="csc", dtype=complex))
        unit = lp_norm(np.ones(8), 2.0, grid.weight)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = evolve(op, np.ones(8), dt=1.0, t_end=20.0, p=2.0)
        assert trace.norms.tolist() == [unit * 2.0 ** (50 * k) for k in range(21)]
        with pytest.raises(OverflowError, match=r"^L\^p norm overflowed at step 21 "):
            evolve(op, np.ones(8), dt=1.0, t_end=21.0, p=2.0)

    def test_a_large_exponent_reports_a_nonzero_norm(self):
        code, out, err = run_cli(
            "simulate", preset("laplacian1d"), "--p", "800", "--dt", "1e-3", "--t-end", "1e-2", "--format", "json"
        )
        assert code == 0, err
        numbers = json.loads(out)["numbers"]
        # the canonical bump peaks at 1/e in the middle of the unit interval
        assert numbers["norm_initial"] == pytest.approx(math.exp(-1.0), rel=0.01)
        assert 0.0 < numbers["norm_final"] < numbers["norm_initial"]
        assert numbers["fitted_rate"] < 0.0

    def test_input_validation(self):
        spec = spec_from_dict(doc_1d())
        op = discretize(spec)
        u0 = GridFunction(op.grid, np.ones(8, dtype=complex))
        with pytest.raises(ValueError):
            evolve(op, u0, dt=0.0, t_end=1.0, p=2.0)
        with pytest.raises(ValueError):
            evolve(op, np.ones(5), dt=0.1, t_end=1.0, p=2.0)

    @pytest.mark.parametrize("dt,t_end", [
        (math.nan, 1.0), (math.inf, 1.0), (-0.1, 1.0),
        (0.1, math.nan), (0.1, math.inf), (0.1, -1.0), (0.1, 0.0),
    ])
    def test_non_finite_or_non_positive_times_are_rejected(self, dt, t_end):
        op = discretize(spec_from_dict(doc_1d()))
        with pytest.raises(ValueError, match="need finite dt > 0 and t_end > 0"):
            evolve(op, np.ones(8), dt=dt, t_end=t_end, p=2.0)

    def test_gridfunction_on_another_grid_is_rejected(self):
        op = discretize(spec_from_dict(doc_1d()))
        same_shape = Grid((0.0,), (2.0,), (8,))
        with pytest.raises(ValueError, match="grid does not match"):
            evolve(op, GridFunction(same_shape, np.ones(8)), dt=0.1, t_end=1.0, p=2.0)
        other_shape = Grid((0.0,), (1.0,), (9,))
        with pytest.raises(ValueError, match="grid does not match"):
            evolve(op, GridFunction(other_shape, np.ones(9)), dt=0.1, t_end=1.0, p=2.0)


class _Factored(Exception):
    pass


def _refuse_splu(system, **kwargs):
    raise _Factored


class TestStepCap:
    """The step count is checked before the trace is allocated and the
    system factored; splu is replaced so no long run can start."""

    def test_cap_is_accepted(self, monkeypatch):
        monkeypatch.setattr(semigroup, "splu", _refuse_splu)
        op = discretize(spec_from_dict(doc_1d()))
        with pytest.raises(_Factored):
            evolve(op, np.ones(8), dt=1e-3, t_end=STEP_CAP * 1e-3, p=2.0)

    # cap + 1 steps, and a t_end / dt that overflows to inf
    @pytest.mark.parametrize("dt,t_end", [(1e-3, (STEP_CAP + 1) * 1e-3), (1e-300, 1e300)])
    def test_more_steps_are_rejected(self, monkeypatch, dt, t_end):
        monkeypatch.setattr(semigroup, "splu", _refuse_splu)
        op = discretize(spec_from_dict(doc_1d()))
        with pytest.raises(ValueError, match=f"more than {STEP_CAP} steps"):
            evolve(op, np.ones(8), dt=dt, t_end=t_end, p=2.0)

    @pytest.mark.parametrize("dt,t_end", [
        ("nan", "0.05"), ("inf", "0.05"), ("-1e-3", "0.05"), ("1e-3", "inf"),
        ("1e-9", "0.05"), (repr(1e-3), repr((STEP_CAP + 1) * 1e-3)),
    ])
    def test_cli_reports_bad_times_with_exit_2(self, monkeypatch, dt, t_end):
        monkeypatch.setattr(semigroup, "splu", _refuse_splu)
        code, out, err = run_cli(
            "simulate", preset("laplacian1d"), "--p", "2", f"--dt={dt}", f"--t-end={t_end}",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def _recording_splu(monkeypatch):
    dtypes = []
    real_splu = semigroup.splu

    def record(system, **kwargs):
        dtypes.append(system.dtype)
        return real_splu(system, **kwargs)

    monkeypatch.setattr(semigroup, "splu", record)
    return dtypes


# real 2D operator with variable coefficients, a drift and a zero order term
REAL_2D = {
    "n": 2,
    "domain": [[0.0, 1.0], [0.0, 1.5]],
    "grid": [12, 9],
    "A": [
        [{"re": "2 + sin(pi*x1)"}, {"re": "0.3*x2"}],
        [{"re": "0.3*x2"}, {"re": "1 + x1*x2"}],
    ],
    "b": [{"re": "0.5"}, {"re": "-x1"}],
    "a": {"re": "-1"},
}
# the same with an imaginary drift, so I - dt M is complex
COMPLEX_2D = dict(REAL_2D, b=[{"re": "0.5", "im": "1"}, {"re": "-x1"}])


class TestArithmetic:
    """Real systems are factored in real arithmetic, within rounding of
    the complex route; everything else stays on the complex route, bit
    for bit."""

    def real_op_and_data(self):
        op = discretize(spec_from_dict(REAL_2D))
        x, y = op.grid.meshes()
        return op, np.sin(np.pi * x) * np.sin(2.0 * np.pi * y / 1.5) + 0.25 * x

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("kind", ["array", "plus_0j", "gridfunction"])
    def test_real_system_is_factored_in_float64(self, monkeypatch, kind, p):
        op, vals = self.real_op_and_data()
        u0 = {
            "array": vals,
            "plus_0j": vals + 0j,
            "gridfunction": GridFunction(op.grid, vals),
        }[kind]
        dtypes = _recording_splu(monkeypatch)
        trace = evolve(op, u0, dt=2e-3, t_end=0.06, p=p)
        assert dtypes == [np.dtype(np.float64)]
        ref = complex_evolve_oracle(op, vals, 2e-3, 0.06, p)
        np.testing.assert_allclose(trace.norms, ref, rtol=1e-12, atol=0.0)

    def test_complex_operator_stays_complex(self, monkeypatch):
        op = discretize(spec_from_dict(COMPLEX_2D))
        _, vals = self.real_op_and_data()
        dtypes = _recording_splu(monkeypatch)
        trace = evolve(op, vals, dt=2e-3, t_end=0.06, p=3.0)
        assert dtypes == [np.dtype(np.complex128)]
        assert np.array_equal(trace.norms, complex_evolve_oracle(op, vals, 2e-3, 0.06, 3.0))

    def test_complex_data_on_a_real_operator_stays_complex(self, monkeypatch):
        op, vals = self.real_op_and_data()
        u0 = GridFunction(op.grid, vals * np.exp(1j * op.grid.meshes()[1]))
        dtypes = _recording_splu(monkeypatch)
        trace = evolve(op, u0, dt=2e-3, t_end=0.06, p=2.0)
        assert dtypes == [np.dtype(np.complex128)]
        assert np.array_equal(trace.norms, complex_evolve_oracle(op, u0, 2e-3, 0.06, 2.0))


LAPLACIAN_3D = {
    "n": 3,
    "domain": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
    "grid": [8, 8, 8],
    "A": [
        [{"re": "1"}, {}, {}],
        [{}, {"re": "1"}, {}],
        [{}, {}, {"re": "1"}],
    ],
}


class TestFactorization:
    """The minimum-degree ordering in symmetric mode changes the LU
    fill, not the solution: the norms agree with a COLAMD-ordered
    factorization up to rounding, and threshold pivoting is kept."""

    @pytest.mark.parametrize("case", ["real_2d", "complex_2d", "laplacian_3d"])
    def test_norms_match_a_colamd_factorization(self, case):
        doc = {
            "real_2d": REAL_2D,
            "complex_2d": COMPLEX_2D,
            "laplacian_3d": LAPLACIAN_3D,
        }[case]
        op = discretize(spec_from_dict(doc))
        meshes = op.grid.meshes()
        u0 = np.prod([np.sin(np.pi * x) for x in meshes], axis=0) + 0.25 * meshes[0]
        for p in (2.0, 3.0):
            trace = evolve(op, u0, dt=2e-3, t_end=0.04, p=p)
            ref = complex_evolve_oracle(op, u0, 2e-3, 0.04, p, colamd=True)
            np.testing.assert_allclose(trace.norms, ref, rtol=1e-12, atol=0.0)

    # 2 dt / h^2 = 5.78 and dt a = 6.78, so every diagonal entry of
    # I - dt M is exactly zero; a slightly smaller a leaves diagonal
    # entries of about 1e-12, which only threshold pivoting passes over
    @pytest.mark.parametrize("a,diagonal", [("678", 0.0), ("677.9999999999", 1e-12)])
    def test_small_or_zero_diagonal_still_pivots(self, a, diagonal):
        op = discretize(spec_from_dict(doc_1d(grid=[16], a={"re": a})))
        dt = 1e-2
        system = np.eye(16) - dt * op.matrix.toarray().real
        np.testing.assert_allclose(np.diag(system), diagonal, rtol=1e-3, atol=0.0)
        u0 = np.sin(np.pi * op.grid.meshes()[0]) + 0.1
        trace = evolve(op, u0, dt=dt, t_end=0.1, p=2.0)
        vec = u0.copy()
        ref = [lp_norm(vec, 2.0, op.grid.weight)]
        for _ in range(10):
            vec = np.linalg.solve(system, vec)
            ref.append(lp_norm(vec, 2.0, op.grid.weight))
        np.testing.assert_allclose(trace.norms, ref, rtol=1e-12, atol=0.0)

    def test_singular_system_is_reported(self):
        grid = Grid((0.0,), (1.0,), (8,))
        op = DiscreteOperator(grid, 2 * identity(8, format="csc", dtype=complex))
        with pytest.raises(RuntimeError, match="I - dt M is singular"):
            evolve(op, np.ones(8), dt=0.5, t_end=1.0, p=2.0)


class TestDissipationSweep:
    def test_observed_band_for_the_complex_laplacian(self, capsys):
        # exponent sweep for A = (1 + i); the algebraic band is
        # [4 - 2 sqrt(2), 4 + 2 sqrt(2)].  Observational: the implicit
        # Euler trace is graded against the band but only the p = 2
        # column is load bearing as an assertion.
        doc = doc_1d(A=[[{"re": "1", "im": "1"}]], grid=[32])
        op = discretize(spec_from_dict(doc))
        x = op.grid.meshes()[0]
        u0 = GridFunction(op.grid, np.sin(np.pi * x) * np.exp(2j * np.pi * x))
        lo, hi = 4.0 - 2.0 * math.sqrt(2.0), 4.0 + 2.0 * math.sqrt(2.0)
        observed = []
        for p in np.arange(1.2, 7.01, 0.2):
            trace = evolve(op, u0, dt=1e-4, t_end=0.01, p=float(p))
            if trace.nonincreasing():
                observed.append(round(float(p), 1))
        mismatches = [
            p for p in observed if not (lo - 0.1 <= p <= hi + 0.1)
        ]
        print(f"observed nonincreasing exponents: {observed}")
        print(f"algebraic band: [{lo:.3f}, {hi:.3f}], out-of-band: {mismatches}")
        assert 2.0 in observed
