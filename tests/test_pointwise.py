"""Algebraic layer: eigenvalues, exponent intervals, pointwise verdicts."""

import math
import warnings

import numpy as np
import pytest

from dissipate import pointwise
from dissipate.pointwise import (
    BISECT_RELWIDTH,
    NonnegativityError,
    SymDecomp,
    _validate_p,
    check_p_condition,
    constant_coeff_verdict,
    decompose,
    jacobi_eigh,
    lambda_nodes,
    lambda_of,
    min_eigenvalue,
    p_condition_nodes,
    p_interval,
    psd_pinv_apply,
    q_sufficiency,
    violating_direction,
)

from conftest import (
    lam_bracket_oracle,
    lam_doubling_oracle,
    lam_oracle,
    pencil_oracle,
    p_condition_oracle,
    pinch_oracle,
    seeded_matrices,
    window_ends_oracle,
)

SQ2 = math.sqrt(2.0)


class TestDecompose:
    def test_splits_into_the_symmetric_parts(self):
        A = np.array([[1.0, 2.0 + 3.0j], [0.0, 1.0j]])
        d = decompose(A)
        np.testing.assert_allclose(d.S_r, [[1.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(d.S_i, [[0.0, 1.5], [1.5, 1.0]])

    def test_parts_reassemble(self):
        # the symmetric part of A, and so <A xi, xi> for every real xi
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        d = decompose(A)
        np.testing.assert_allclose(d.S_r + 1j * d.S_i, 0.5 * (A + A.T), atol=1e-15)
        for xi in rng.normal(size=(4, 3)):
            assert xi @ (d.S_r + 1j * d.S_i) @ xi == pytest.approx(xi @ A @ xi, abs=1e-12)

    def test_a_stack_splits_matrix_by_matrix(self):
        mats = seeded_matrices(count=12, seed=4, dims=(3,))
        d = decompose(np.stack(mats))
        assert d.n == 3
        assert d.S_r.shape == (12, 3, 3)
        for j, A in enumerate(mats):
            one = decompose(A)
            for part in ("S_r", "S_i"):
                assert np.array_equal(getattr(d, part)[j], getattr(one, part))

    @pytest.mark.parametrize("part", ["S_r", "S_i"])
    @pytest.mark.parametrize("lower", [1.0 + 1e-6, math.nan, math.inf])
    def test_direct_construction_checks_both_symmetric_parts(self, part, lower):
        good = np.array([[2.0, 1.0], [1.0, 2.0]])
        bad = np.array([[2.0, 1.0], [lower, 2.0]])
        parts = {"S_r": good, "S_i": good, part: bad}
        with pytest.raises(ValueError, match="symmetric"):
            SymDecomp(**parts)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_a_non_finite_matrix_fails_before_any_lapack_call(self, monkeypatch, entry):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK reached")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
        monkeypatch.setattr(np.linalg, "eigh", no_lapack)
        A = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
        A[1, 0, 1] = entry
        with pytest.raises(ValueError, match="symmetric"):
            lambda_of(decompose(A))


class TestJacobi:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    def test_agrees_with_numpy(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            H = rng.normal(size=(n, n))
            S = 0.5 * (H + H.T)
            w, V = jacobi_eigh(S)
            w = np.asarray(w)
            V = np.asarray(V)
            np.testing.assert_allclose(w, np.linalg.eigvalsh(S), atol=1e-10 * (1 + abs(S).max()))
            assert np.all(np.diff(w) >= -1e-12)
            scale = max(1.0, float(np.abs(S).max()))
            np.testing.assert_allclose(S @ V, V @ np.diag(w), atol=1e-9 * scale)
            np.testing.assert_allclose(V.T @ V, np.eye(n), atol=1e-10)

    def test_accepts_nested_lists(self):
        w, _ = jacobi_eigh([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(np.asarray(w), [1.0, 3.0], atol=1e-12)

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            jacobi_eigh(np.zeros((2, 3)))

    @pytest.mark.parametrize("lower", [1.0 + 1e-6, math.nan])
    def test_rejects_an_asymmetric_matrix(self, lower):
        S = np.array([[2.0, 1.0], [lower, 2.0]])
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigh(S)

    def test_values_only_returns_no_vectors(self):
        w, V = jacobi_eigh([[2.0, 1.0], [1.0, 2.0]], vectors=False)
        assert V is None
        np.testing.assert_allclose(np.asarray(w), [1.0, 3.0], atol=1e-12)

    @pytest.mark.parametrize("lower", [1.0 + 1e-6, math.nan])
    def test_one_bad_matrix_fails_the_whole_stack(self, lower):
        stack = np.tile(np.array([[2.0, 1.0], [1.0, 2.0]]), (5, 1, 1))
        stack[3, 1, 0] = lower
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigh(stack)
        with pytest.raises(ValueError, match="symmetric"):
            min_eigenvalue(stack)

    def test_symmetry_tolerance_is_per_matrix(self):
        # an asymmetry within tolerance of a large matrix is not within
        # tolerance of a small one stacked next to it
        big = np.array([[1e6, 1.0], [1.0 + 1e-7, 1e6]])
        small = np.array([[1.0, 1.0], [1.0 + 1e-7, 1.0]])
        jacobi_eigh(big)
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigh(np.stack((big, small)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_a_stack_equals_the_matrices_one_by_one(self, n):
        rng = np.random.default_rng(40 + n)
        H = rng.normal(size=(4, 6, n, n))
        stack = 0.5 * (H + np.swapaxes(H, -1, -2))
        w, V = jacobi_eigh(stack)
        wv, none = jacobi_eigh(stack, vectors=False)
        assert none is None
        assert w.shape == (4, 6, n) and V.shape == (4, 6, n, n)
        low = min_eigenvalue(stack)
        for i in range(4):
            for j in range(6):
                wj, Vj = jacobi_eigh(stack[i, j])
                assert np.array_equal(w[i, j], wj)
                assert np.array_equal(V[i, j], Vj)
                assert np.array_equal(wv[i, j], jacobi_eigh(stack[i, j], vectors=False)[0])
                assert low[i, j] == min_eigenvalue(stack[i, j])

    def test_single_matrix_helpers_return_floats(self):
        S = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert type(min_eigenvalue(S)) is float

    def test_pseudo_inverse_of_a_stack_equals_the_matrices_one_by_one(self):
        rng = np.random.default_rng(48)
        G = rng.normal(size=(5, 3, 3))
        G[::2, :, 0] = 0.0  # rank deficient, with rhs outside the range
        S = G @ G.swapaxes(-1, -2)
        rhs = rng.normal(size=(5, 3))
        x, res = psd_pinv_apply(S, rhs)
        assert x.shape == (5, 3) and res.shape == (5,)
        for j in range(5):
            xj, rj = psd_pinv_apply(S[j], rhs[j])
            assert type(rj) is float
            assert np.array_equal(x[j], xj)
            assert res[j] == rj
        assert (res[::2] > 1e-8).all() and (res[1::2] < 1e-8).all()

    def test_min_eigenvalue_closed_form(self):
        S = 2.0 * SQ2 * np.eye(2) - np.array([[0.0, 1.0], [1.0, 0.0]])
        assert min_eigenvalue(S) == pytest.approx(2.0 * SQ2 - 1.0, abs=1e-12)


class TestPCondition:
    def test_holds_inside_the_admissible_band(self):
        d = decompose((1.0 + 1.0j) * np.eye(2))
        for p in (4.0 - 2.0 * SQ2, 2.0, 3.0, 4.0 + 2.0 * SQ2):
            assert check_p_condition(d, p)

    def test_fails_outside_the_band(self):
        d = decompose((1.0 + 1.0j) * np.eye(2))
        assert not check_p_condition(d, 1.1)
        assert not check_p_condition(d, 12.0)

    def test_always_holds_at_two_for_psd_real_part(self):
        for A in seeded_matrices(count=40, seed=5):
            assert check_p_condition(decompose(A), 2.0)

    def test_indefinite_real_part_fails_even_at_two(self):
        d = decompose(np.diag([1.0, -1.0]).astype(complex))
        assert not check_p_condition(d, 2.0)

    def test_exponent_validation(self):
        d = decompose(np.eye(2).astype(complex))
        with pytest.raises(ValueError):
            check_p_condition(d, 1.0)
        with pytest.raises(ValueError):
            check_p_condition(d, math.inf)

    @pytest.mark.parametrize("p", [np.int64(3), np.float32(3.0), np.float64(3.0), 3, 3.0])
    def test_numpy_exponents_are_accepted(self, p):
        assert _validate_p(p) == 3.0 and type(_validate_p(p)) is float
        assert check_p_condition(decompose(np.eye(2).astype(complex)), p)

    @pytest.mark.parametrize("p", ["3", None, 3j, np.int64(1), np.float32(math.nan)])
    def test_non_real_or_out_of_range_exponents_are_rejected(self, p):
        with pytest.raises(ValueError, match="finite and > 1"):
            _validate_p(p)

    def test_violating_direction_is_a_failing_direction(self):
        for A in seeded_matrices(count=60, seed=9, allow_zero_im=False):
            d = decompose(A)
            for p in (1.05, 1.3, 4.0, 20.0):
                if check_p_condition(d, p):
                    continue
                xi = violating_direction(d, p)
                assert xi[np.argmax(np.abs(xi))] > 0.0
                re = xi @ d.S_r @ xi
                im = xi @ d.S_i @ xi
                assert abs(p - 2.0) * abs(im) > 2.0 * math.sqrt(p - 1.0) * re

    def test_self_dual_in_the_exponent(self):
        # same verdict for (A, p) and (A conjugate transposed, p/(p-1))
        for A in seeded_matrices(count=60, seed=8):
            d = decompose(A)
            dstar = decompose(A.conj().T)
            for p in (1.2, 1.5, 3.0, 7.0):
                assert check_p_condition(d, p) == check_p_condition(dstar, p / (p - 1.0))


class TestLambda:
    def test_unit_complex_diagonal(self):
        res = lambda_of(decompose((1.0 + 1.0j) * np.eye(2)))
        assert res.lam == pytest.approx(1.0, abs=1e-8)

    def test_anisotropic_imaginary_part(self):
        A = np.eye(2) + 1j * np.diag([2.0, 0.0])
        res = lambda_of(decompose(A))
        assert res.lam == pytest.approx(0.5, abs=1e-8)

    def test_real_matrix_gives_infinity(self):
        res = lambda_of(decompose(np.array([[2.0, 0.5], [-0.5, 1.0]], dtype=complex)))
        assert math.isinf(res.lam)
        assert res.witness_xi is None

    def test_zero_ratio_when_imaginary_escapes_the_kernel(self):
        # the pencil [[1, t], [t, 0]] dips below zero only like -t^2, so
        # the PSD slack inflates the located ratio to about sqrt(slack)
        A = np.diag([1.0, 0.0]) + 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
        res = lambda_of(decompose(A))
        assert 0.0 <= res.lam <= 2e-5

    def test_negative_real_part_is_rejected(self):
        with pytest.raises(NonnegativityError):
            lambda_of(decompose(np.diag([1.0, -0.5]).astype(complex)))

    def test_witness_attains_the_ratio(self):
        A = np.eye(2) + 1j * np.diag([2.0, 0.0])
        res = lambda_of(decompose(A))
        xi = np.asarray(res.witness_xi)
        num = float(xi @ (np.eye(2) @ xi))
        den = abs(float(xi @ (np.diag([2.0, 0.0]) @ xi)))
        assert num == pytest.approx(res.lam * den, rel=1e-6)

    def test_matches_the_numpy_bisection_oracle(self):
        for A in seeded_matrices(count=60, seed=21):
            d = decompose(A)
            res = lambda_of(d)
            ref, hi = lam_bracket_oracle(d.S_r, d.S_i)
            assert res.lam == ref
            assert res.node is None
            if math.isinf(ref):
                assert res.witness_xi is None
            else:
                assert np.array_equal(res.witness_xi, pinch_oracle(d.S_r, d.S_i, hi))


def node_stack(n, seed, count=60):
    """Seeded n-by-n coefficient matrices stacked as grid nodes."""
    return np.stack(seeded_matrices(count=count, seed=seed, dims=(n,)))


def wide_stack(n):
    """``node_stack`` with a wide spread of ratios: some nodes with a small
    Im part (ratio above one), some with a large one."""
    A = node_stack(n, seed=100 + n)
    return A.real + 1j * A.imag * np.geomspace(0.05, 20.0, len(A))[:, None, None]


def passed_ends(S_r, S_i):
    """How many of the four first ends of ``lambda_nodes`` pass the pencil
    test before one fails: 2 where the inner window straddles the edge,
    1 or 3 where only the outer window does, 0 below it and 4 above it."""
    feasible = pencil_oracle(S_r, S_i)
    ends = window_ends_oracle(S_r, S_i)
    return next((k for k, t in enumerate(ends) if not feasible(t)), len(ends))


class TestNodeKernels:
    """The node-batched bisection and p-condition against per-node oracles."""

    @staticmethod
    def ratio_equal_to_the_oracle(A):
        """lambda_nodes of the stack A, checked == the per-node oracle."""
        d = decompose(A)
        lam, hi = lambda_nodes(d)
        assert lam.shape == hi.shape == (len(A),)
        refs = [lam_bracket_oracle(d.S_r[j], d.S_i[j]) for j in range(len(A))]
        assert lam.tolist() == [r[0] for r in refs]
        assert hi.tolist() == [r[1] for r in refs]
        return lam

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_ratio_and_bracket_equal_the_oracle_at_every_node(self, n):
        lam = self.ratio_equal_to_the_oracle(wide_stack(n))
        assert np.isinf(lam).any()  # S_i = 0 nodes
        assert (lam[np.isfinite(lam)] > 1.0).any()
        assert (lam < 1.0).any()

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_the_ratio_of_large_coefficients_equals_the_oracle(self, n, scale):
        # the ratio is homogeneous in A; squared entries past about 1e154
        # overflow, and an inf norm would read every node as blind to Im A
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = self.ratio_equal_to_the_oracle(wide_stack(n) * scale)
        ref, _ = lambda_nodes(decompose(wide_stack(n) * 1e100))
        assert np.array_equal(np.isinf(lam), np.isinf(ref))
        finite = np.isfinite(ref)
        # the bisection stops at width 1e-12 (1 + hi), absolute near t = 0
        np.testing.assert_allclose(lam[finite], ref[finite], rtol=1e-9, atol=1e-11)
        # a power of two scales the unit pairs exactly: the same bits
        exact, _ = lambda_nodes(decompose(wide_stack(n) * (scale * 2.0**-400)))
        assert lam.tolist() == exact.tolist()

    def test_stack_shape_is_kept(self):
        A = node_stack(2, seed=7, count=12).reshape(3, 4, 2, 2)
        lam, hi = lambda_nodes(decompose(A))
        assert lam.shape == hi.shape == (3, 4)
        flat, _ = lambda_nodes(decompose(A.reshape(12, 2, 2)))
        assert lam.reshape(-1).tolist() == flat.tolist()

    def test_field_ratio_is_the_first_smallest_node(self):
        A = node_stack(3, seed=31)
        d = decompose(A)
        refs = [lam_bracket_oracle(d.S_r[j], d.S_i[j]) for j in range(len(A))]
        j = min(range(len(A)), key=lambda k: refs[k][0])
        # the smallest node repeated at the end: the tie goes to the first
        A = np.concatenate((A, A[j:j + 1]))
        d = decompose(A)
        res = lambda_of(d)
        assert res.node == j
        assert res.lam == refs[j][0]
        assert np.array_equal(res.witness_xi, pinch_oracle(d.S_r[j], d.S_i[j], refs[j][1]))
        alone = lambda_of(decompose(A[j]))
        assert alone.lam == res.lam
        assert np.array_equal(alone.witness_xi, res.witness_xi)

    def test_a_field_without_symmetric_im_part_has_no_witness(self):
        A = np.tile(np.eye(2) + 1j * np.array([[0.0, 1.0], [-1.0, 0.0]]), (9, 1, 1))
        res = lambda_of(decompose(A))
        assert math.isinf(res.lam)
        assert res.witness_xi is None and res.node is None

    def test_one_indefinite_real_part_fails_the_stack(self):
        A = node_stack(2, seed=9, count=10)
        A[6] = np.diag([1.0, -0.5]) + 1j * A[6].imag
        with pytest.raises(NonnegativityError):
            lambda_nodes(decompose(A))
        with pytest.raises(NonnegativityError):
            lambda_of(decompose(A))

    def test_a_node_escaping_the_last_bracket_reads_inf(self, monkeypatch):
        monkeypatch.setattr("dissipate.pointwise.BRACKET_MAX", 4.0)
        A = np.stack([np.eye(2) + 1j * np.diag([g, 0.0]) for g in (2.0, 0.1, 0.5)])
        lam, hi = lambda_nodes(decompose(A))
        assert lam[0] == pytest.approx(0.5, abs=1e-8)
        assert math.isinf(lam[1]) and math.isinf(hi[1])
        assert lam[2] == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_seeded_ratio_stays_within_a_bracket_of_the_doubling_search(self, n):
        d = decompose(wide_stack(n))
        lam, _ = lambda_nodes(d)
        old = np.array([lam_doubling_oracle(d.S_r[j], d.S_i[j])[0] for j in range(len(lam))])
        assert np.array_equal(np.isinf(lam), np.isinf(old))
        finite = np.isfinite(old)
        drift = np.abs(lam[finite] - old[finite])
        assert (drift <= 2.0 * BISECT_RELWIDTH * (1.0 + old[finite])).all()

    @pytest.mark.parametrize("bracket_max", [None, 4.0])
    def test_ratio_passes_and_bracket_top_fails_the_pencil_test(self, monkeypatch, bracket_max):
        # seeded nodes whose inner window straddles the edge, whose outer
        # window alone catches it, that start from [0, e0] and that double;
        # then a zero-ratio pencil on a singular S_r, S_i = 0, and ratios
        # of 3 and 10, unseeded and escaping under BRACKET_MAX = 4
        if bracket_max is not None:
            monkeypatch.setattr("dissipate.pointwise.BRACKET_MAX", bracket_max)
        zero_ratio = np.diag([1.0, 0.0, 0.0]) + 1j * np.diag([1.0, 0.0], 1) + 1j * np.diag([1.0, 0.0], -1)
        special = np.stack([
            zero_ratio,
            np.diag([1.0, 2.0, 3.0]).astype(complex),
            np.eye(3) * (1.0 + 1j / 3.0),
            np.eye(3) * (1.0 + 0.1j),
        ])
        A = np.concatenate([node_stack(3, seed=0, count=200), special])
        d = decompose(A)
        seeing = [j for j in range(len(A)) if d.S_i[j].any()]
        assert {passed_ends(d.S_r[j], d.S_i[j]) for j in seeing} == {0, 1, 2, 3, 4}
        lam, hi = lambda_nodes(d)
        assert 0.0 <= lam[-4] <= 2e-5
        assert np.isinf(lam[-3]) and np.isinf(hi[-3])
        assert lam[-2] == pytest.approx(3.0, rel=1e-9)
        assert np.isinf(lam[-1]) == (bracket_max is not None)
        for j in np.flatnonzero(np.isfinite(lam)):
            feasible = pencil_oracle(d.S_r[j], d.S_i[j])
            assert feasible(lam[j]) and not feasible(hi[j])
        assert np.isinf(hi[np.isinf(lam)]).all()
        if bracket_max is None:
            refs = [lam_bracket_oracle(d.S_r[j], d.S_i[j]) for j in range(len(A))]
            assert list(zip(lam.tolist(), hi.tolist())) == refs

    @pytest.mark.parametrize("A,ratio", [
        ((1.0 + 1.0j) * np.eye(2), 1.0),
        (np.eye(2) + 0.3j * np.diag([1.0, -0.5]), 1.0 / 0.3),
        # singular S_r: the zero-ratio pencil of TestLambda
        (np.diag([1.0, 0.0]) + 1j * np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0),
    ])
    def test_a_single_matrix_takes_few_pencil_calls(self, monkeypatch, A, ratio):
        # the inner window straddles the edge: one call, no bisection step
        d = decompose(A)
        assert passed_ends(d.S_r, d.S_i) == 2
        calls = []
        pencils_psd = pointwise._pencils_psd

        def counted(*args):
            calls.append(args)
            return pencils_psd(*args)

        monkeypatch.setattr(pointwise, "_pencils_psd", counted)
        res = lambda_of(d)
        assert res.lam == pytest.approx(ratio, abs=2e-5)
        assert len(calls) == 1

    def test_a_node_only_the_outer_window_catches_equals_the_oracle(self):
        pool = [decompose(A) for A in seeded_matrices(count=200, seed=0, dims=(3,))]
        # the edge lies between the outer and the inner window, below
        # (1 end passes) or above (3 pass): the node bisects that half
        caught = [d for d in pool if passed_ends(d.S_r, d.S_i) in (1, 3)]
        assert {passed_ends(d.S_r, d.S_i) for d in caught} == {1, 3}
        for d in caught:
            lam, hi = lambda_nodes(d)
            assert (lam.item(), hi.item()) == lam_bracket_oracle(d.S_r, d.S_i)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_p_condition_equals_the_oracle_at_every_node(self, n):
        A = node_stack(n, seed=200 + n)
        d = decompose(A)
        for p in (1.05, 1.5, 2.0, 2.7, 4.0 + 2.0 * SQ2, 9.0):
            got = p_condition_nodes(d, p)
            assert got.dtype == bool and got.shape == (len(A),)
            assert got.tolist() == [p_condition_oracle(M, p) for M in A]
            assert [check_p_condition(decompose(M), p) for M in A] == got.tolist()

    def test_p_condition_of_an_indefinite_node(self):
        A = node_stack(2, seed=11, count=8)
        A[5] = np.diag([1.0, -1.0]).astype(complex)
        got = p_condition_nodes(decompose(A), 2.0)
        assert got.tolist() == [True] * 5 + [False] + [True] * 2


class TestPInterval:
    def test_unit_ratio_endpoints(self):
        itv = p_interval(1.0)
        assert itv.p_min == pytest.approx(4.0 - 2.0 * SQ2, abs=1e-9)
        assert itv.p_max == pytest.approx(4.0 + 2.0 * SQ2, abs=1e-9)

    def test_zero_ratio_pins_the_interval_to_two(self):
        itv = p_interval(0.0)
        assert itv.p_min == 2.0
        assert itv.p_max == 2.0
        assert itv.p_min <= 2.0 <= itv.p_max
        assert not itv.p_min <= 2.0000001 <= itv.p_max

    def test_infinite_ratio_is_the_open_full_range(self):
        itv = p_interval(math.inf)
        assert itv.is_full
        assert (itv.p_min, itv.p_max) == (1.0, math.inf)
        assert itv.p_min <= 1.0000001 <= itv.p_max
        assert itv.p_min <= 1e12 <= itv.p_max

    def test_endpoints_are_conjugate(self):
        for lam in (0.1, 0.5, 1.0, 3.0, 17.0, 1e4):
            itv = p_interval(lam)
            assert abs(1.0 / itv.p_min + 1.0 / itv.p_max - 1.0) <= 1e-12

    def test_endpoints_are_monotone_in_the_ratio(self):
        maxes = [p_interval(lam).p_max for lam in (0.0, 0.5, 1.0, 2.0, 8.0)]
        assert maxes == sorted(maxes)
        mins = [p_interval(lam).p_min for lam in (0.0, 0.5, 1.0, 2.0, 8.0)]
        assert mins == sorted(mins, reverse=True)

    def test_closed_endpoints_are_inside(self):
        itv = p_interval(1.0)
        for p in (itv.p_min, itv.p_max):
            assert itv.p_min <= p <= itv.p_max
            assert _validate_p(p) == p


def skew2(gamma):
    return np.eye(2) + 1j * gamma * np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestQSufficiency:
    def test_skew_family_threshold(self):
        # with A = I + i gamma J the polynomial is nonnegative exactly
        # when gamma^2 <= 4 / (p p')
        zero = np.zeros(2)
        for p in (2.0, 4.0):
            pc = p / (p - 1.0)
            crit = 2.0 / math.sqrt(p * pc)
            below = q_sufficiency(skew2(0.98 * crit), zero, zero, 0.0, 0.0, 0.0, p)
            above = q_sufficiency(skew2(1.02 * crit), zero, zero, 0.0, 0.0, 0.0, p)
            assert below.ok
            assert not above.ok
            assert above.min_eig < 0.0
            assert above.min_value == -math.inf

    def test_boundary_case_is_accepted(self):
        zero = np.zeros(2)
        res = q_sufficiency(skew2(1.0), zero, zero, 0.0, 0.0, 0.0, 2.0)
        assert res.ok
        assert res.min_value == pytest.approx(0.0, abs=1e-12)

    def test_linear_part_escaping_the_range_is_unbounded(self):
        # one dimensional operator with imaginary drift at p = 4: the
        # eta block is degenerate in the direction the drift pushes
        A = np.array([[1.0 + 1j * math.sqrt(3.0)]])
        res = q_sufficiency(A, [2.0j], [0.0], -1.0, 0.0, 0.0, 4.0)
        assert not res.ok
        assert res.min_value == -math.inf
        assert res.linear_residual > 1e-8

    def test_real_drift_shifts_the_minimum(self):
        A = np.eye(1).astype(complex)
        res = q_sufficiency(A, [2.0], [0.0], 0.0, 0.0, 0.0, 2.0, alpha=1.0)
        assert not res.ok
        assert res.min_value == pytest.approx(-1.0, abs=1e-10)

    def test_divergence_weighting(self):
        A = np.eye(1).astype(complex)
        base = dict(b=[0.0], c=[0.0], a=0.0, div_c=0.0, p=2.0)
        lo = q_sufficiency(A, base["b"], base["c"], base["a"], 5.0, base["div_c"], base["p"], alpha=0.0)
        mid = q_sufficiency(A, base["b"], base["c"], base["a"], 5.0, base["div_c"], base["p"], alpha=1.0)
        hi = q_sufficiency(A, base["b"], base["c"], base["a"], 5.0, base["div_c"], base["p"], alpha=3.0)
        assert lo.ok and lo.min_value == pytest.approx(2.5)
        assert mid.ok and mid.min_value == pytest.approx(0.0, abs=1e-12)
        assert not hi.ok and hi.min_value == pytest.approx(-5.0)

    def test_negative_zero_order_term_helps(self):
        A = np.eye(2).astype(complex)
        good = q_sufficiency(A, np.zeros(2), np.zeros(2), -2.0, 0.0, 0.0, 3.0)
        bad = q_sufficiency(A, np.zeros(2), np.zeros(2), 2.0, 0.0, 0.0, 3.0)
        assert good.ok and good.min_value == pytest.approx(2.0)
        assert not bad.ok and bad.min_value == pytest.approx(-2.0)

    @staticmethod
    def clause_nodes(rng):
        """A shuffled stack of 2x2 nodes: some pass, and some fail each
        clause (M not PSD, linear part outside the range of M, negative
        completed square), among seeded random nodes."""
        m = 24
        G = rng.normal(size=(m, 2, 2))
        A = G @ G.swapaxes(-1, -2) + 0.1 * np.eye(2) + 1j * rng.normal(size=(m, 2, 2)) * rng.uniform(0.0, 1.5, (m, 1, 1))
        b = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
        c = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
        a = rng.normal(size=m) + 1j * rng.normal(size=m) - 2.0
        div_b = rng.normal(size=m) + 1j * rng.normal(size=m)
        div_c = rng.normal(size=m) + 1j * rng.normal(size=m)
        zero = np.zeros(2)
        # passing, not PSD, linear part escaping the range, negative value
        A[:4] = [np.eye(2), skew2(3.0), np.diag([1.0, 0.0]), np.eye(2)]
        b[:4] = [zero, zero, [0.0, 2.0j], zero]
        c[:4] = zero
        a[:4] = [-2.0, 0.0, 0.0, 2.0]
        div_b[:4] = div_c[:4] = 0.0
        order = rng.permutation(m)
        return tuple(x[order] for x in (A, b, c, a, div_b, div_c))

    @pytest.mark.parametrize("p,alpha,beta", [(1.5, 0.0, 0.0), (2.0, 0.5, 0.25), (4.0, 1.5, 2.0)])
    def test_a_stack_equals_the_nodes_one_by_one(self, p, alpha, beta):
        nodes = self.clause_nodes(np.random.default_rng(int(10 * p)))
        q = q_sufficiency(*nodes, p, alpha, beta)
        singles = [q_sufficiency(*(x[j] for x in nodes), p, alpha, beta) for j in range(len(nodes[0]))]
        assert q.ok.tolist() == [s.ok for s in singles]
        assert q.min_eig.tolist() == [s.min_eig for s in singles]
        assert q.min_value.tolist() == [s.min_value for s in singles]
        # NaN where M is not PSD, equal to each other there too
        np.testing.assert_array_equal(q.linear_residual, [s.linear_residual for s in singles])
        not_psd = np.isnan(q.linear_residual)
        escaped = ~not_psd & (q.min_value == -math.inf)
        negative = ~q.ok & np.isfinite(q.min_value)
        assert q.ok.any() and not_psd.any() and escaped.any() and negative.any()
        assert (q.min_eig[not_psd] < 0.0).all() and (q.linear_residual[escaped] > 1e-8).all()

    def test_stack_shape_is_kept(self):
        A, b, c, a, div_b, div_c = self.clause_nodes(np.random.default_rng(3))
        flat = q_sufficiency(A, b, c, a, div_b, div_c, 3.0)
        q = q_sufficiency(
            A.reshape(4, 6, 2, 2), b.reshape(4, 6, 2), c.reshape(4, 6, 2),
            a.reshape(4, 6), div_b.reshape(4, 6), div_c.reshape(4, 6), 3.0,
        )
        for name in ("ok", "min_eig", "linear_residual", "min_value"):
            assert getattr(q, name).shape == (4, 6)
            np.testing.assert_array_equal(getattr(q, name).reshape(-1), getattr(flat, name))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_a_non_finite_weight_fails_before_any_lapack_call(self, monkeypatch, name, value):
        def unreachable(*args, **kwargs):
            raise AssertionError("work started on a non-finite weight")

        monkeypatch.setattr(pointwise, "decompose", unreachable)
        monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
        monkeypatch.setattr(np.linalg, "eigh", unreachable)
        zero = np.zeros(2)
        with pytest.raises(ValueError, match=f"splitting weight {name} must be finite"):
            q_sufficiency(np.eye(2), zero, zero, 0.0, 0.0, 0.0, 2.0, **{name: value})

    def test_a_single_matrix_returns_python_scalars(self):
        zero = np.zeros(2)
        for A in (np.eye(2), skew2(3.0)):
            res = q_sufficiency(A, zero, zero, -1.0, 0.0, 0.0, 3.0)
            assert type(res.ok) is bool
            assert all(type(v) is float for v in (res.min_eig, res.linear_residual, res.min_value))


class TestConstantVerdict:
    def test_endpoint_case_sits_at_equality(self):
        A = np.array([[1.0 + 1j * math.sqrt(3.0)]])
        v = constant_coeff_verdict(A, [2.0j], -1.0, 4.0)
        assert v.ok
        assert v.reason is None
        assert abs(v.margin) <= 1e-9
        assert abs(v.corollary_margin) <= 1e-9
        np.testing.assert_allclose(np.asarray(v.V), [-1.0], atol=1e-9)

    def test_small_zero_order_perturbation_flips_it(self):
        A = np.array([[1.0 + 1j * math.sqrt(3.0)]])
        v = constant_coeff_verdict(A, [2.0j], -1.0 + 0.01, 4.0)
        assert not v.ok
        assert v.reason == "zero_order_positive"
        assert v.margin == pytest.approx(0.01, abs=1e-9)

    def test_exponent_outside_the_band(self):
        A = np.array([[1.0 + 1j * math.sqrt(3.0)]])
        v = constant_coeff_verdict(A, [2.0j], -1.0, 12.0)
        assert not v.ok
        assert v.reason == "p_condition_failed"
        assert math.isnan(v.margin)
        assert v.V is None

    def test_inconsistent_drift_system(self):
        A = np.diag([1.0, 0.0]).astype(complex)
        v = constant_coeff_verdict(A, [0.0, 2.0j], -1.0, 2.0)
        assert not v.ok
        assert v.reason == "system_inconsistent"
        assert v.residual == pytest.approx(1.0, abs=1e-12)
        assert v.corollary_margin is None

    def test_corollary_margin_is_four_times_the_margin(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            G = rng.normal(size=(n, n))
            A = G @ G.T + 0.5 * np.eye(n) + 1j * np.zeros((n, n))
            b = rng.normal(size=n) * 1j + rng.normal(size=n)
            a = complex(rng.normal(), rng.normal())
            v = constant_coeff_verdict(A, b, a, 2.0)
            assert v.corollary_margin is not None
            assert v.corollary_margin == pytest.approx(4.0 * v.margin, abs=1e-9 * (1.0 + abs(v.margin)))
            # the closed form through its own solve of S_r y = Im b
            S_r = decompose(0.5 * (A + A.T)).S_r
            y, _ = psd_pinv_apply(S_r, b.imag)
            assert v.corollary_margin == 4.0 * a.real + float(b.imag @ y)

    def test_decompose_needs_no_symmetrized_input(self):
        # the verdict decomposes A as it is: its parts equal those of
        # 0.5 (A + A^T) bit for bit, over entries from 1e-200 to 1e200
        rng = np.random.default_rng(90)
        for _ in range(400):
            n = int(rng.integers(1, 5))
            mag = 10.0 ** rng.uniform(-200.0, 200.0, size=(2, n, n))
            A = rng.normal(size=(n, n)) * mag[0] + 1j * rng.normal(size=(n, n)) * mag[1]
            d, sym = decompose(A), decompose(0.5 * (A + A.T))
            assert np.array_equal(d.S_r, sym.S_r) and np.array_equal(d.S_i, sym.S_i)

    def test_skew_real_part_is_immaterial(self):
        A = np.array([[2.0, 0.3], [0.3, 1.0]]) + 0j
        K = np.array([[0.0, 0.7], [-0.7, 0.0]])
        b = [1.0j, -0.5j]
        va = constant_coeff_verdict(A, b, -1.0, 3.0)
        vb = constant_coeff_verdict(A + K, b, -1.0, 3.0)
        assert va.ok == vb.ok
        assert va.margin == pytest.approx(vb.margin, abs=1e-12)

    def test_solution_satisfies_the_halved_system(self):
        A = np.array([[2.0, 0.3], [0.3, 1.0]]) + 0j
        b = np.array([1.0j, -0.5j])
        v = constant_coeff_verdict(A, b, -10.0, 2.0)
        S_r = A.real
        np.testing.assert_allclose(S_r @ np.asarray(v.V), -0.5 * b.imag, atol=1e-10)
