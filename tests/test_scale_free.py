"""Scale-free verdicts.

The condition |p-2| |<Im A xi,xi>| <= 2 sqrt(p-1) <Re A xi,xi> is
homogeneous in A: a positive multiple sA generates T(st), so it is
dissipative exactly when A is.  Scaling by s = 2^k is exact in floating
point, so at every such scale the verdicts, the ratio and the interval
are those of s = 1 bit for bit, and the margins are s times theirs.
The fields are the bundled presets and seeded random fields.
"""

import math

import numpy as np
import pytest

from dissipate.cli import _field_samples, load_preset
from dissipate.coeffspec import SampledOperator, spec_from_dict
from dissipate.pointwise import (
    NonnegativityError,
    constant_coeff_verdict,
    decompose,
    lambda_nodes,
    lambda_of,
    p_condition_nodes,
    p_interval,
    q_sufficiency,
)

from conftest import seeded_matrices

KS = np.arange(-60, 61)
SCALES = 2.0 ** KS
EXPONENTS = (1.05, 1.3, 4.0 - 2.0 * math.sqrt(2.0), 2.0, 3.0, 4.0, 4.0 + 2.0 * math.sqrt(2.0), 9.0, 20.0)
PRESETS = ("example1", "example2", "example3", "laplacian1d", "one_plus_i_laplacian")


def preset_field(name):
    return _field_samples(spec_from_dict(load_preset(name)))[0]


def seeded_field(n):
    """Seeded n-by-n nodes with a wide spread of ratios (some with a
    vanishing or a rank deficient part) and seeded lower order terms."""
    rng = np.random.default_rng(600 + n)
    A = np.stack(seeded_matrices(count=40, seed=60 + n, dims=(n,)))
    A = A.real + 1j * A.imag * np.geomspace(0.05, 20.0, len(A))[:, None, None]
    m = len(A)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return SampledOperator(np.zeros((m, n)), A, cplx(m, n), cplx(m, n), cplx(m) - 1.0, cplx(m), cplx(m))


FIELDS = [pytest.param(lambda name=name: preset_field(name), id=name) for name in PRESETS] + [
    pytest.param(lambda n=n: seeded_field(n), id=f"seeded{n}") for n in (1, 2, 3, 5)
]


def scaled(x):
    """x at every scale of SCALES, stacked on a new leading axis."""
    return x[None] * SCALES.reshape((-1,) + (1,) * x.ndim)


def same(x, y):
    """Equal, with NaN equal to NaN and None only to None."""
    if x is None or y is None:
        return x is y
    return np.array_equal(x, y, equal_nan=True)


@pytest.mark.parametrize("make", FIELDS)
class TestPresetsAndSeededFields:
    def test_check_verdicts_are_those_of_unit_scale(self, make):
        A = make().A
        stack = decompose(scaled(A))
        for p in EXPONENTS:
            ref = p_condition_nodes(decompose(A), p)
            assert p_condition_nodes(stack, p).tolist() == [ref.tolist()] * len(KS)

    def test_ratio_bracket_and_interval_are_those_of_unit_scale(self, make):
        A = make().A
        lam, hi = lambda_nodes(decompose(A))
        lam_s, hi_s = lambda_nodes(decompose(scaled(A)))
        assert lam_s.tolist() == [lam.tolist()] * len(KS)
        assert hi_s.tolist() == [hi.tolist()] * len(KS)
        ref = lambda_of(decompose(A))
        itv = p_interval(ref.lam)
        for s in SCALES:
            res = lambda_of(decompose(s * A))
            assert res.lam == ref.lam and res.node == ref.node
            assert same(res.witness_xi, ref.witness_xi)
            assert p_interval(res.lam) == itv

    @pytest.mark.parametrize("s", [10.0, 3.0, 1e-7, 1e9])
    def test_plain_multiples_move_the_ratio_by_rounding_only(self, make, s):
        # the slack is relative to the exact largest |S_r| entry, so a scale
        # that is not a power of two only rounds the unit pairs
        A = make().A
        lam, _ = lambda_nodes(decompose(A))
        lam_s, _ = lambda_nodes(decompose(s * A))
        assert np.array_equal(np.isinf(lam_s), np.isinf(lam))
        finite = np.isfinite(lam)
        np.testing.assert_allclose(lam_s[finite], lam[finite], rtol=1e-9, atol=1e-11)

    def test_sufficiency_margins_scale_with_the_operator(self, make):
        f = make()
        terms = (f.A, f.b, f.c, f.a, f.div_b, f.div_c)
        for p, alpha, beta in ((1.5, 0.0, 0.0), (2.0, 0.5, 0.25), (4.0, 1.5, 2.0)):
            ref = q_sufficiency(*terms, p, alpha, beta)
            q = q_sufficiency(*(scaled(x) for x in terms), p, alpha, beta)
            assert q.ok.tolist() == [ref.ok.tolist()] * len(KS)
            for name in ("min_eig", "linear_residual", "min_value"):
                assert same(getattr(q, name), SCALES[:, None] * getattr(ref, name)[None])

    def test_conjugate_coefficients_get_the_same_verdicts(self, make):
        A = make().A
        d, dbar = decompose(A), decompose(A.conj())
        for p in EXPONENTS:
            assert p_condition_nodes(dbar, p).tolist() == p_condition_nodes(d, p).tolist()
        assert [x.tolist() for x in lambda_nodes(dbar)] == [x.tolist() for x in lambda_nodes(d)]

    def test_conjugate_exponents_get_the_same_verdict(self, make):
        d = decompose(make().A)
        for p in EXPONENTS:
            assert p_condition_nodes(d, p / (p - 1.0)).tolist() == p_condition_nodes(d, p).tolist()


def constant_cases():
    """(A, b, a) of every constant preset's single node (b with the folded
    c), then seeded matrices with seeded drifts and zero order terms."""
    cases = []
    for name in PRESETS:
        spec = spec_from_dict(load_preset(name))
        if spec.is_constant:
            f = _field_samples(spec)[0]
            cases.append((f.A[0], f.b[0] + f.c[0], f.a[0]))
    rng = np.random.default_rng(61)
    for A in seeded_matrices(count=20, seed=62):
        n = len(A)
        cases.append((A, rng.normal(size=n) + 1j * rng.normal(size=n), complex(rng.normal(), rng.normal())))
    return cases


def test_constant_verdicts_and_margins_scale_with_the_operator():
    reasons = set()
    for A, b, a in constant_cases():
        for p in (1.05, 2.0, 4.0, 20.0):
            ref = constant_coeff_verdict(A, b, a, p)
            reasons.add(ref.reason)
            for s in SCALES:
                v = constant_coeff_verdict(s * A, s * b, s * a, p)
                assert (v.ok, v.reason) == (ref.ok, ref.reason)
                assert same(v.V, ref.V)
                assert same(v.margin, s * ref.margin) and same(v.residual, s * ref.residual)
                if ref.corollary_margin is None:
                    assert v.corollary_margin is None
                else:
                    assert v.corollary_margin == s * ref.corollary_margin
    assert reasons == {None, "p_condition_failed", "system_inconsistent", "zero_order_positive"}


class TestSmallCoefficients:
    @pytest.mark.parametrize("entry", [-1e-12, -1e-6 + 1e6j])
    def test_a_backward_heat_operator_is_refused_at_every_scale(self, entry):
        # A = -1e-12: the tolerance once held an absolute 1 that read it
        # as dissipative for every p; at p = 2 the condition is Re A >= 0,
        # so a large Im A must not hide a negative Re A either
        A = np.full((8, 1, 1), complex(entry))
        zero = np.zeros((8, 1))
        for s in (1.0, 2.0**-60, 2.0**60):
            d = decompose(s * A)
            for p in EXPONENTS:
                assert not p_condition_nodes(d, p).any()
            with pytest.raises(NonnegativityError):
                lambda_of(d)
            q = q_sufficiency(s * A, zero, zero, np.zeros(8), np.zeros(8), np.zeros(8), 2.0)
            assert not q.ok.any()
            assert constant_coeff_verdict(s * A[0], zero[0], 0.0, 2.0).reason == "p_condition_failed"

    @pytest.mark.parametrize("tiny", [1e-310, 5e-324, 2.0**-1060])
    def test_subnormal_entries_get_a_finite_interval(self, tiny):
        d = decompose(np.array([[tiny * (1 + 1j)]]))
        assert d.unit.tolist() == [[[1.0]], [[1.0]]]
        res = lambda_of(d)
        assert res.lam == pytest.approx(1.0, rel=1e-9)
        assert not p_interval(res.lam).is_full
        # the band of 1 + i is [4 - 2 sqrt(2), 4 + 2 sqrt(2)] = [1.17, 6.83]
        assert [bool(p_condition_nodes(d, p)) for p in (1.1, 2.0, 6.8, 6.9)] == [False, True, True, False]

    def test_a_zero_matrix_holds_with_equality(self):
        d = decompose(np.zeros((2, 2), dtype=complex))
        assert (d.unit == 0.0).all()
        for p in EXPONENTS:
            assert p_condition_nodes(d, p)
        assert math.isinf(lambda_of(d).lam)

