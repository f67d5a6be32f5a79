"""Functional layer: the two form routes, their cross checks, the falsifier."""

import math

import numpy as np
import pytest

from dissipate import formcheck
from dissipate.cli import load_preset
from dissipate.coeffspec import bump, sample_operator, spec_from_dict
from dissipate.formcheck import (
    _BUMP_SLOTS,
    _WAVE_SLOTS,
    BUDGET_CAP,
    TOL_NEG,
    FormEvaluator,
    _make_starts,
    _pack,
    _ProbeFactors,
    _random_terms,
    _unpack,
    equivalence_gap,
    falsify,
    form_direct,
    form_transformed,
    gradient_split,
    operator_form,
)
from dissipate.grids import Grid, GridFunction

from conftest import (
    FULL_COEFF_1D,
    boundary_flat_battery,
    complex_middle_oracle,
    form_value_oracle,
    mesh_profile_oracle,
    pack_oracle,
    padded_gradient_oracle,
    probe_values_oracle,
    separable_profile_oracle,
    unpack_oracle,
)


def laplace_doc(shape=(256,)):
    return {
        "n": 1,
        "domain": [[0.0, 1.0]],
        "grid": list(shape),
        "A": [[{"re": "1"}]],
    }


def smooth_probe(grid, phase_scale=1.0):
    x = grid.meshes()[0]
    amp = 1.5 + 0.5 * np.sin(np.pi * x)
    phase = phase_scale * np.cos(np.pi * x)
    return GridFunction(grid, amp * np.exp(1j * phase))


class TestGradientSplit:
    def test_split_magnitudes_reassemble_the_gradient(self):
        grid = Grid((0.0,), (1.0,), (128,))
        v = smooth_probe(grid)
        sp = gradient_split(v)
        lhs = sp.X**2 + sp.Y**2
        rhs = np.abs(sp.grad) ** 2
        np.testing.assert_allclose(lhs[:, sp.unmasked], rhs[:, sp.unmasked], rtol=1e-12)

    def test_masked_nodes_are_zeroed(self):
        grid = Grid((0.0,), (1.0,), (16,))
        vals = np.ones(16, dtype=complex)
        vals[5] = 0.0
        sp = gradient_split(GridFunction(grid, vals))
        assert not sp.unmasked[5]
        assert sp.X[0, 5] == 0.0 and sp.Y[0, 5] == 0.0

    def test_x_tracks_the_modulus_derivative(self):
        grid = Grid((0.0,), (1.0,), (256,))
        v = smooth_probe(grid)
        sp = gradient_split(v)
        modulus = GridFunction(grid, np.abs(v.values))
        ref = modulus.gradient().reshape(1, -1).real
        np.testing.assert_allclose(sp.X, ref, atol=2e-3)

    def test_y_tracks_modulus_times_phase_derivative(self):
        grid = Grid((0.0,), (1.0,), (256,))
        x = grid.meshes()[0]
        amp = 1.5 + 0.5 * np.sin(np.pi * x)
        v = GridFunction(grid, amp * np.exp(1j * np.cos(np.pi * x)))
        sp = gradient_split(v)
        ref = amp * (-np.pi * np.sin(np.pi * x))
        # skip the two nodes whose stencil touches the zero padded
        # boundary; the probe does not vanish there
        np.testing.assert_allclose(sp.Y[0][1:-1], ref[1:-1], atol=5e-3)


# A 2D operator with an imaginary drift, a zero order term and a
# nonsymmetric complex A, and a 3D one with drifts on two axes.
DRIFT_2D = {
    "n": 2,
    "domain": [[0.0, 1.0], [-1.0, 1.0]],
    "grid": [12, 10],
    "A": [
        [{"re": "1 + 0.5*x1", "im": "0.3*x2"}, {"re": "0.1", "im": "0.8*x1*x2"}],
        [{"re": "-0.1", "im": "-0.2 + x1"}, {"re": "2 - x2/4"}],
    ],
    "b": [{"im": "0.5 + x2"}, {"re": "0.2*x1", "im": "-0.3"}],
    "a": {"re": "0.4*x1*x2", "im": "1"},
}
DRIFT_3D = {
    "n": 3,
    "domain": [[0.0, 1.0], [0.0, 1.0], [0.0, 2.0]],
    "grid": [8, 8, 8],
    "A": [
        [{"re": "1", "im": "0.5*x3"}, {"im": "x1"}, {"re": "0.2"}],
        [{"im": "-x1"}, {"re": "1 + x2"}, {"re": "0.1", "im": "0.3"}],
        [{"re": "0.2"}, {"re": "0.1", "im": "-0.3"}, {"re": "2", "im": "sin(pi*x1)"}],
    ],
    "b": [{"im": "x3"}, {"re": "0"}, {"re": "x1", "im": "0.2"}],
    "c": [{"re": "0"}, {"im": "x2"}, {"re": "0"}],
    "a": {"re": "-0.3"},
}


EVALUATOR_CASES = [
    (FULL_COEFF_1D, (48,)),
    (FULL_COEFF_1D, (1,)),
    (DRIFT_2D, (12, 10)),
    (DRIFT_2D, (7, 1)),
    (DRIFT_3D, (6, 5, 4)),
    (DRIFT_3D, (4, 1, 3)),
    (load_preset("example2"), (16, 16)),
]
EVALUATOR_IDS = ["full1d", "full1d-one-node", "drift2d", "drift2d-one-node-axis",
                 "drift3d", "drift3d-one-node-axis", "example2"]


def falsifier_probes(grid, count, seed):
    """Seeded probes from every falsifier family on the grid."""
    rng = np.random.default_rng(seed)
    box = list(zip(grid.lo, grid.hi))
    starts = _make_starts(3.0, 400, rng, box, grid.n)
    picked = starts[:3] + starts[-count:]
    axes = np.ix_(*(grid.axis(k) for k in range(grid.n)))
    assert {fam for fam, _ in picked} == {1, 2, 3}
    return [probe_values_oracle(fam, params, axes) for fam, params in picked]


class TestBitExactKernels:
    """The falsifier's kernels reproduce their reference formulas bit
    for bit, since its ranking breaks exact ties."""

    @pytest.mark.parametrize("shape", [(1,), (5,), (1, 4), (3, 1, 2), (6, 7)])
    def test_gradient_matches_the_padded_differences(self, shape):
        rng = np.random.default_rng(len(shape) * 10 + shape[0])
        grid = Grid((0.0,) * len(shape), (1.3,) * len(shape), shape)
        for trial in range(6):
            vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            zero = rng.random(shape) < 0.4
            signed = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
            vals = np.where(zero, signed + 1j * np.where(rng.random(shape) < 0.5, -0.0, 0.0), vals)
            if trial == 0:
                vals = np.full(shape, complex(-0.0, -0.0))
            ref = padded_gradient_oracle(vals, grid.spacing)
            got = GridFunction(grid, vals).gradient()
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(40,), (9, 12), (6, 5, 7)])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_separable_profile_matches_the_mesh_product(self, shape, count):
        grid = Grid((0.0,) * len(shape), tuple(1.0 + k for k in range(len(shape))), shape)
        rng = np.random.default_rng(100 * count + len(shape))
        box = list(zip(grid.lo, grid.hi))
        axes = np.ix_(*(grid.axis(k) for k in range(grid.n)))
        probes = _ProbeFactors(grid)
        for _ in range(4):
            terms = _random_terms(rng, box)[:count]
            while len(terms) < count:
                terms = terms + _random_terms(rng, box)[: count - len(terms)]
            ref = mesh_profile_oracle(grid, terms)
            assert separable_profile_oracle(axes, terms).tobytes() == ref.tobytes()
            got = probes.profile(terms)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("doc,shape", EVALUATOR_CASES, ids=EVALUATOR_IDS)
    def test_evaluator_matches_the_node_first_formula(self, doc, shape):
        spec = spec_from_dict(doc)
        grid = Grid.from_spec(spec, shape=shape)
        probes = falsifier_probes(grid, 6, seed=sum(shape))
        masked = probes[-1].copy()
        masked.reshape(-1)[::3] = 0.0
        probes.append(masked)
        for p in (1.5, 2.0, 3.0, 12.0):
            ev = FormEvaluator(spec, grid, p)
            for vals in probes:
                assert ev.value(vals) == form_value_oracle(spec, grid, vals, p)

    @pytest.mark.parametrize("doc,shape", EVALUATOR_CASES, ids=EVALUATOR_IDS)
    def test_reused_work_buffers_leak_no_state(self, doc, shape):
        # one probe list forwards and then backwards through one
        # evaluator, each call followed by a call of a second evaluator
        # on the same grid: every value is the oracle's
        spec = spec_from_dict(doc)
        grid = Grid.from_spec(spec, shape=shape)
        probes = falsifier_probes(grid, 6, seed=sum(shape))
        masked = probes[-1].copy()
        masked.reshape(-1)[1::2] = 0.0
        signed = probes[0].copy()
        signed.reshape(-1)[::2] = complex(-0.0, -0.0)
        probes += [masked, signed, np.full(grid.shape, complex(-0.0, 0.0))]
        order = list(range(len(probes))) + list(range(len(probes)))[::-1]
        for p, q in ((3.0, 1.5), (2.0, 12.0)):
            ev, other = FormEvaluator(spec, grid, p), FormEvaluator(spec, grid, q)
            want = [form_value_oracle(spec, grid, vals, p) for vals in probes]
            want_other = [form_value_oracle(spec, grid, vals, q) for vals in probes]
            for i in order:
                assert ev.value(probes[i]) == want[i]
                assert other.value(probes[-1 - i]) == want_other[-1 - i]

    @pytest.mark.parametrize("family", [1, 2, 3])
    @pytest.mark.parametrize(
        "box",
        [[(-0.3, 1.7)], [(0.25, 2.0), (-1.0, -0.2)], [(-0.5, 0.5), (1.0, 4.0), (-2.0, 3.0)]],
        ids=["1d", "2d", "3d"],
    )
    def test_descent_coordinates_match_the_per_family_walks(self, family, box):
        def same(got, ref):
            # == on every field, and the same Python types
            assert got == ref
            assert repr(got) == repr(ref)

        starts = _make_starts(3.0, 400, np.random.default_rng(len(box)), box, len(box))
        picked = {}
        for fam, params in starts:
            if fam == family:
                picked.setdefault((len(params["terms"]), len(params.get("waves", ()))), params)
        assert {terms for terms, _ in picked} == {1, 2, 3}
        assert {waves for _, waves in picked} == ({1, 2} if family == 3 else {0})
        for params in picked.values():
            got = _pack(family, params, box)
            ref = pack_oracle(family, params, box)
            for g, r in zip(got, ref, strict=True):
                assert g.shape == r.shape
                assert (g == r).all()
            vec, scales, lows, highs = ref
            same(_unpack(family, params, vec, box), unpack_oracle(family, params, vec, box))
            for j in range(len(vec)):
                moved = vec.copy()
                moved[j] = min(max(moved[j] + 0.37 * scales[j], lows[j]), highs[j])
                same(_unpack(family, params, moved, box), unpack_oracle(family, params, moved, box))


PRESETS = ["example1", "example2", "example3", "laplacian1d", "one_plus_i_laplacian"]


def seeded_field_doc(seed, n, nodes):
    """A variable field of the benchmark's shape: Re A diagonal, positive
    and variable; Im A symmetric and variable on and next to the diagonal."""
    rng = np.random.default_rng(seed)

    def num():
        return repr(round(float(rng.uniform(0.2, 1.5)), 6))

    A = [[{} for _ in range(n)] for _ in range(n)]
    for k in range(n):
        A[k][k]["re"] = f"{num()}+{num()}*x{k + 1}^2"
        for l in range(k, min(k + 2, n)):
            var = int(rng.integers(1, n + 1))
            A[k][l]["im"] = A[l][k]["im"] = f"{num()}*(1+0.1*sin({num()}*x{var}+{num()}))"
    return {"n": n, "domain": [[0.0, 1.0]] * n, "grid": [nodes] * n, "A": A}


class TestRealMiddleTerm:
    """The middle term <(Im A + Im A^T) X, Y> on real arrays against the
    complex form Re <(A - A*) X, X + iY> it replaces."""

    @staticmethod
    def pairs(doc, shape=None, count=6):
        spec = spec_from_dict(doc)
        grid = Grid.from_spec(spec, shape=shape)
        probes = falsifier_probes(grid, count, seed=sum(grid.shape))
        masked = probes[-1].copy()
        masked.reshape(-1)[::3] = 0.0
        for p in (1.5, 3.0, 12.0):
            ev = FormEvaluator(spec, grid, p)
            for vals in probes + [masked]:
                yield ev.value(vals), form_value_oracle(spec, grid, vals, p, middle=complex_middle_oracle)

    @pytest.mark.parametrize(
        "doc",
        [load_preset(name) for name in PRESETS]
        + [seeded_field_doc(seed, 2, 24) for seed in (1, 2)]
        + [seeded_field_doc(seed, 3, 10) for seed in (3, 4)],
        ids=PRESETS + ["field2d-1", "field2d-2", "field3d-3", "field3d-4"],
    )
    def test_symmetric_re_a_gives_the_complex_bits(self, doc):
        for got, want in self.pairs(doc):
            assert got == want

    @pytest.mark.parametrize("doc,shape", [(DRIFT_2D, (12, 10)), (DRIFT_3D, (6, 5, 4))], ids=["drift2d", "drift3d"])
    def test_skew_re_a_moves_the_value_by_rounding_only(self, doc, shape):
        for got, want in self.pairs(doc, shape, count=40):
            assert abs(got - want) <= 4.0 * math.ulp(want)

    @pytest.mark.parametrize("name", PRESETS)
    def test_im_sym_is_kept_where_it_is_nonzero(self, name):
        spec = spec_from_dict(load_preset(name))
        grid = Grid.from_spec(spec)
        ev = FormEvaluator(spec, grid, 3.0)
        A = sample_operator(spec, grid.points()).A
        im_sym = (A.imag + A.imag.transpose(0, 2, 1)).transpose(1, 2, 0)
        if name in ("example1", "example2", "laplacian1d"):
            assert ev.im_sym is None and not im_sym.any()
        else:
            assert ev.im_sym.flags.c_contiguous and ev.im_sym.dtype == np.float64
            assert (ev.im_sym == im_sym).all()


class TestTransformedFunctional:
    def test_p2_reduces_to_the_gradient_quadratic(self):
        spec = spec_from_dict(laplace_doc())
        grid = Grid.from_spec(spec)
        v = smooth_probe(grid)
        value = form_transformed(spec, v, 2.0)
        ref = float(np.sum(np.abs(v.gradient()) ** 2) * grid.weight)
        assert value == pytest.approx(ref, rel=1e-12)

    def test_real_probe_scales_by_the_exponent_factor(self):
        spec = spec_from_dict(laplace_doc())
        grid = Grid.from_spec(spec)
        v = GridFunction(grid, np.abs(smooth_probe(grid).values))
        grad2 = float(np.sum(np.abs(v.gradient()) ** 2) * grid.weight)
        for p in (2.5, 4.0, 8.0):
            gamma = 1.0 - 2.0 / p
            value = form_transformed(spec, v, p)
            assert value == pytest.approx((1.0 - gamma**2) * grad2, rel=1e-12)

    def test_against_a_continuum_oracle(self):
        # v = sin^2(pi x): the integral of v'^2 over (0, 1) is pi^2 / 2,
        # so at p = 4 the functional converges to 0.75 * pi^2 / 2
        spec = spec_from_dict(laplace_doc((512,)))
        grid = Grid.from_spec(spec)
        x = grid.meshes()[0]
        v = GridFunction(grid, np.sin(np.pi * x) ** 2 + 0j)
        value = form_transformed(spec, v, 4.0)
        assert value == pytest.approx(0.75 * math.pi**2 / 2.0, rel=1e-3)

    def test_quadratic_homogeneity(self):
        spec = spec_from_dict({**FULL_COEFF_1D, "grid": [64]})
        grid = Grid.from_spec(spec)
        v = smooth_probe(grid)
        base = form_transformed(spec, v, 3.0)
        scaled = form_transformed(spec, GridFunction(grid, 3.7 * v.values), 3.0)
        assert scaled == pytest.approx(3.7**2 * base, rel=1e-12)

    def test_global_phase_invariance(self):
        spec = spec_from_dict({**FULL_COEFF_1D, "grid": [64]})
        grid = Grid.from_spec(spec)
        v = smooth_probe(grid)
        base = form_transformed(spec, v, 3.0)
        rotated = form_transformed(spec, GridFunction(grid, v.values * np.exp(0.7j)), 3.0)
        assert rotated == pytest.approx(base, rel=1e-12)

    def test_stays_finite_with_interior_zeros(self):
        spec = spec_from_dict({**FULL_COEFF_1D, "grid": [64]})
        grid = Grid.from_spec(spec)
        vals = smooth_probe(grid).values.copy()
        vals[20:30] = 0.0
        value = form_transformed(spec, GridFunction(grid, vals), 4.0)
        assert math.isfinite(value)

    def test_adjoint_exponent_symmetry(self):
        # swapping the operator for its formal adjoint swaps p for its
        # conjugate exponent without changing the functional
        doc = {
            "n": 2,
            "domain": [[0.0, 1.0], [0.0, 1.0]],
            "grid": [16, 16],
            "A": [
                [{"re": "2", "im": "0.3*x1"}, {"re": "0.2", "im": "0.1*x2"}],
                [{"re": "-0.1", "im": "0.4*x1"}, {"re": "1.5", "im": "-0.2*x2"}],
            ],
            "b": [{"re": "0.3", "im": "0.1*x1"}, {"re": "-0.2", "im": "0.2"}],
            "c": [{"re": "0.1*x2", "im": "-0.3"}, {"re": "0.4", "im": "0.1*x1"}],
            "a": {"re": "-0.3", "im": "0.2*x1"},
        }
        adj = {
            "n": 2,
            "domain": [[0.0, 1.0], [0.0, 1.0]],
            "grid": [16, 16],
            "A": [
                [{"re": "2", "im": "-(0.3*x1)"}, {"re": "-0.1", "im": "-(0.4*x1)"}],
                [{"re": "0.2", "im": "-(0.1*x2)"}, {"re": "1.5", "im": "0.2*x2"}],
            ],
            "b": [{"re": "-(0.1*x2)", "im": "-0.3"}, {"re": "-0.4", "im": "0.1*x1"}],
            "c": [{"re": "-0.3", "im": "0.1*x1"}, {"re": "0.2", "im": "0.2"}],
            "a": {"re": "-0.3", "im": "-(0.2*x1)"},
        }
        spec = spec_from_dict(doc)
        spec_adj = spec_from_dict(adj)
        grid = Grid.from_spec(spec)
        rng = np.random.default_rng(4)
        x1, x2 = grid.meshes()
        vals = (
            (1.0 + 0.4 * np.sin(np.pi * x1) * np.cos(np.pi * x2))
            * np.exp(1j * rng.uniform(-1, 1) * np.sin(np.pi * x1 * x2))
        )
        v = GridFunction(grid, vals)
        for p in (1.5, 2.0, 3.0, 6.0):
            pc = p / (p - 1.0)
            lhs = form_transformed(spec, v, p)
            rhs = form_transformed(spec_adj, v, pc)
            assert rhs == pytest.approx(lhs, rel=1e-10, abs=1e-12)


class TestRouteAgreement:
    def test_direct_and_transformed_routes_converge_together(self):
        spec = spec_from_dict(FULL_COEFF_1D)
        grid = Grid.from_spec(spec)
        for u in boundary_flat_battery(grid, 4, seed=9):
            for p in (2.5, 4.0):
                assert equivalence_gap(spec, u, p) <= 5e-3

    def test_matrix_route_is_minus_the_direct_route(self):
        spec = spec_from_dict(FULL_COEFF_1D)
        grid = Grid.from_spec(spec)
        for u in boundary_flat_battery(grid, 4, seed=10):
            for p in (2.0, 2.5, 4.0):
                fd = form_direct(spec, u, p)
                of = operator_form(spec, u, p)
                assert abs(of + fd) / (1.0 + abs(fd)) <= 1e-3

    def test_direct_route_duality_below_two(self):
        # the small-exponent branch evaluates the adjoint pairing, so it
        # must agree with the formal adjoint operator at the conjugate p
        doc = {
            "n": 1,
            "domain": [[0.0, 1.0]],
            "grid": [96],
            "A": [[{"re": "1.5", "im": "0.4*x1"}]],
            "b": [{"re": "0.2", "im": "0.3"}],
            "a": {"re": "-0.1"},
        }
        adj = {
            "n": 1,
            "domain": [[0.0, 1.0]],
            "grid": [96],
            "A": [[{"re": "1.5", "im": "-(0.4*x1)"}]],
            "c": [{"re": "-0.2", "im": "0.3"}],
            "a": {"re": "-0.1"},
        }
        spec = spec_from_dict(doc)
        spec_adj = spec_from_dict(adj)
        grid = Grid.from_spec(spec)
        u = boundary_flat_battery(grid, 1, seed=12)[0]
        for p in (1.2, 1.5, 1.8):
            pc = p / (p - 1.0)
            assert form_direct(spec, u, p) == pytest.approx(
                form_direct(spec_adj, u, pc), rel=1e-10
            )

    def test_2d_cross_derivative_terms_against_dense_quadrature(self):
        # constant A with off diagonal coupling; the direct route must
        # approach the continuum integral of <A grad u, grad u>
        doc = {
            "n": 2,
            "domain": [[0.0, 1.0], [0.0, 1.0]],
            "grid": [96, 96],
            "A": [
                [{"re": "1"}, {"re": "0.3"}],
                [{"re": "0.3"}, {"re": "1"}],
            ],
        }
        spec = spec_from_dict(doc)
        grid = Grid.from_spec(spec)
        x1, x2 = grid.meshes()
        u = GridFunction(grid, np.sin(np.pi * x1) ** 2 * np.sin(np.pi * x2) ** 2 + 0j)
        # dense quadrature of the analytic integrand on a finer grid
        fine = Grid((0.0, 0.0), (1.0, 1.0), (400, 400))
        f1, f2 = fine.meshes()
        g1 = np.pi * np.sin(2 * np.pi * f1) * np.sin(np.pi * f2) ** 2
        g2 = np.pi * np.sin(np.pi * f1) ** 2 * np.sin(2 * np.pi * f2)
        ref = float(np.sum(g1**2 + g2**2 + 0.6 * g1 * g2) * fine.weight)
        assert form_direct(spec, u, 2.0) == pytest.approx(ref, rel=3e-3)

    def test_small_exponent_routes_survive_interior_zeros(self):
        spec = spec_from_dict({**FULL_COEFF_1D, "grid": [64]})
        grid = Grid.from_spec(spec)
        vals = smooth_probe(grid).values.copy()
        vals[31] = 0.0
        u = GridFunction(grid, vals)
        assert math.isfinite(form_direct(spec, u, 1.5))
        assert math.isfinite(operator_form(spec, u, 1.5))


class _Reached(Exception):
    """Raised by a stub where the falsifier starts its work."""


def _reached(*args, **kwargs):
    raise _Reached


def _unreachable(*args, **kwargs):
    raise AssertionError("the falsifier started on an invalid input")


class TestFalsifier:
    def test_finds_the_negative_window(self):
        spec = spec_from_dict(load_preset("example2"))
        res = falsify(spec, 2.0, budget=1500, seed=0)
        assert res.found
        assert res.value < -res.threshold
        assert res.witness is not None
        assert res.witness.values.shape == tuple(spec.grid)
        assert form_transformed(spec, res.witness, 2.0) == pytest.approx(res.value, rel=1e-12)

    def test_stays_quiet_on_a_dissipative_operator(self):
        spec = spec_from_dict(load_preset("example1"))
        res = falsify(spec, 2.0, budget=800, seed=0)
        assert not res.found
        assert res.value >= -res.threshold

    def test_seed_reproducibility(self):
        # another document's run in between: nothing of a run outlives it
        spec = spec_from_dict(load_preset("example2"))
        one = falsify(spec, 2.0, budget=900, seed=3)
        falsify(spec_from_dict(load_preset("one_plus_i_laplacian")), 12.0, budget=300, seed=3)
        two = falsify(spec, 2.0, budget=900, seed=3)
        for name in ("found", "value", "threshold", "evaluations", "family", "start_index", "params", "p", "seed"):
            assert getattr(one, name) == getattr(two, name)
        assert one.witness.values.tobytes() == two.witness.values.tobytes()

    @pytest.mark.parametrize(
        "doc,p,seed,descended",
        [
            (load_preset("one_plus_i_laplacian"), 12.0, 3, {1}),
            (DRIFT_2D, 3.0, 1, {2, 3}),
            (DRIFT_3D, 4.0, 6, {1, 3}),
        ],
        ids=["1d", "2d", "3d"],
    )
    def test_every_probe_is_a_fresh_build(self, monkeypatch, doc, p, seed, descended):
        # each start, descent trial and the witness, built from the kept
        # factors, has the bytes of a build from scratch; the seeds make
        # the descents walk every family, and profiles of several terms
        spec = spec_from_dict(doc)
        grid = Grid.from_spec(spec)
        axes = np.ix_(*(grid.axis(k) for k in range(grid.n)))
        built = []
        bumps = 0
        build = _ProbeFactors.build

        def counted(r):
            nonlocal bumps
            bumps += 1
            return bump(r)

        def checked(self, family, params):
            vals = build(self, family, params)
            assert vals.tobytes() == probe_values_oracle(family, params, axes).tobytes()
            built.append((family, len(params["terms"])))
            return vals

        monkeypatch.setattr(_ProbeFactors, "build", checked)
        monkeypatch.setattr(formcheck, "bump", counted)
        budget = 300
        res = falsify(spec, p, budget=budget, seed=seed)
        assert len(built) == res.evaluations + 1
        starts, trials = built[: int(0.55 * budget)], built[int(0.55 * budget) : -1]
        assert {family for family, _ in starts} == {1, 2, 3}
        assert {family for family, _ in trials} == descended
        assert max(terms for _, terms in trials) > 1
        # the kept factors were used: fewer bumps than fresh builds take
        assert bumps < grid.n * sum(terms for _, terms in built)

    def test_kept_factors_stay_bounded(self, monkeypatch):
        # sizes, not times: the tables fill up and stay at their slots,
        # and what a run keeps is at most _WAVE_SLOTS + 2 grid-sized
        # arrays and _BUMP_SLOTS axis-sized ones, whatever the budget
        spec = spec_from_dict(load_preset("one_plus_i_laplacian"))
        grid = Grid.from_spec(spec)
        bound = (_WAVE_SLOTS + 2) * 16 * grid.size + _BUMP_SLOTS * 8 * max(grid.shape)
        tables = ("bumps", "waves", "profiles", "logs")
        most = dict.fromkeys(tables + ("bytes",), 0)
        build = _ProbeFactors.build

        def measured(self, family, params):
            vals = build(self, family, params)
            kept = [getattr(self, table) for table in tables]
            now = {table: len(entries) for table, entries in zip(tables, kept)}
            now["bytes"] = sum(a.nbytes for entries in kept for a in entries.values())
            for key in most:
                most[key] = max(most[key], now[key])
            return vals

        monkeypatch.setattr(_ProbeFactors, "build", measured)
        res = falsify(spec, 12.0, budget=20_000, seed=0)
        assert res.evaluations > 11_000  # descent trials ran after the starts
        assert [most[table] for table in tables] == [_BUMP_SLOTS, _WAVE_SLOTS, 1, 1]
        assert most["bytes"] <= bound

    def test_budget_caps_the_evaluation_count(self):
        spec = spec_from_dict(load_preset("example2"))
        res = falsify(spec, 2.0, budget=40, seed=0)
        assert res.evaluations <= 40

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_rejected(self, budget):
        spec = spec_from_dict(load_preset("example2"))
        with pytest.raises(ValueError, match="budget"):
            falsify(spec, 2.0, budget=budget, seed=0)

    @pytest.mark.parametrize("budget", [BUDGET_CAP + 1, 10**10, 300.0, "300", None])
    def test_budget_above_the_cap_or_not_an_integer_is_rejected(self, monkeypatch, budget):
        monkeypatch.setattr(formcheck, "FormEvaluator", _unreachable)
        spec = spec_from_dict(load_preset("example2"))
        with pytest.raises(ValueError, match="budget"):
            falsify(spec, 2.0, budget=budget, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
    def test_seed_must_be_a_non_negative_integer(self, monkeypatch, seed):
        monkeypatch.setattr(formcheck, "FormEvaluator", _unreachable)
        spec = spec_from_dict(load_preset("example2"))
        with pytest.raises(ValueError, match="seed"):
            falsify(spec, 2.0, budget=40, seed=seed)

    @pytest.mark.parametrize("budget,seed", [(BUDGET_CAP, 0), (1, np.int64(3)), (np.int64(BUDGET_CAP), 2**70)])
    def test_the_cap_and_integer_seeds_are_accepted(self, monkeypatch, budget, seed):
        # the search stops where it would build its starts
        monkeypatch.setattr(formcheck, "_make_starts", _reached)
        spec = spec_from_dict(load_preset("example2"))
        with pytest.raises(_Reached):
            falsify(spec, 2.0, budget=budget, seed=seed)

    def test_threshold_is_relative_to_the_probe_size(self):
        spec = spec_from_dict(load_preset("example1"))
        res = falsify(spec, 2.0, budget=60, seed=0)
        grid = Grid.from_spec(spec)
        ev = FormEvaluator(spec, grid, 2.0)
        assert res.threshold == TOL_NEG * (1.0 + ev.h1_scale(res.witness.values))
        assert res.threshold >= TOL_NEG
        assert res.threshold <= TOL_NEG * (1.0 + 1e6)
