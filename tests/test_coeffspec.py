"""Expression grammar, operator documents, and coefficient sampling."""

import json
import math

import numpy as np
import pytest

from dissipate.coeffspec import (
    EvalDomainError,
    ExprError,
    SpecError,
    bump,
    expr_is_constant,
    expr_is_zero,
    load_doc,
    parse_expr,
    sample_operator,
    spec_from_dict,
)


def ev(text, *coords):
    """Evaluate an expression at scalar coordinates (x1, x2, ...)."""
    xs = tuple(np.float64(c) for c in coords)
    return float(parse_expr(text).ev(xs))


def minimal_doc(**over):
    doc = {
        "n": 1,
        "domain": [[0.0, 1.0]],
        "grid": [16],
        "A": [[{"re": "1"}]],
    }
    doc.update(over)
    return doc


class TestGrammar:
    def test_power_binds_tighter_than_unary_minus(self):
        assert ev("-x1^2", 3.0) == -9.0

    def test_power_accepts_negated_exponent(self):
        assert ev("2^-3", 0.0) == 0.125

    def test_power_is_right_associative(self):
        assert ev("2^3^2", 0.0) == 512.0

    def test_unary_minus_inside_a_product(self):
        assert ev("2*-3", 0.0) == -6.0

    def test_add_and_divide_are_left_associative(self):
        assert ev("8/4/2", 0.0) == 1.0
        assert ev("8 - 4 - 2", 0.0) == 2.0

    def test_pi_is_a_bare_constant(self):
        assert ev("cos(pi)", 0.0) == -1.0
        assert parse_expr("pi") == parse_expr(repr(math.pi))
        assert expr_is_constant(parse_expr("pi"))
        xs = (np.linspace(0.0, 1.0, 5),)
        assert np.array_equal(parse_expr("pi").ev(xs), np.full(5, math.pi))

    def test_scientific_notation_literals(self):
        assert ev("1.5e-3 + 2E2", 0.0) == pytest.approx(200.0015)
        assert ev(".25 + 1.", 0.0) == 1.25

    def test_variables_are_one_based(self):
        assert ev("x2 - x1", 1.0, 7.0) == 6.0
        with pytest.raises(ExprError):
            parse_expr("x0")

    def test_every_function_evaluates(self):
        assert ev("sin(pi/2)", 0.0) == pytest.approx(1.0)
        assert ev("cos(0)", 0.0) == 1.0
        assert ev("exp(1)", 0.0) == pytest.approx(math.e)
        assert ev("log(exp(2))", 0.0) == pytest.approx(2.0)
        assert ev("sqrt(9)", 0.0) == 3.0
        assert ev("tanh(0)", 0.0) == 0.0
        assert ev("bump(0)", 0.0) == pytest.approx(math.exp(-1.0))

    def test_structural_predicates(self):
        assert expr_is_zero(parse_expr("0"))
        assert expr_is_zero(parse_expr("-0.0"))
        assert not expr_is_zero(parse_expr("0 + 0"))
        assert expr_is_constant(parse_expr("2^(1 + sin(3))"))
        assert not expr_is_constant(parse_expr("2 + bump(x1)"))


class TestGrammarErrors:
    def test_offset_points_at_the_bad_character(self):
        with pytest.raises(ExprError) as exc:
            parse_expr("1 + @")
        assert exc.value.offset == 4

    def test_offset_at_a_missing_closing_paren(self):
        with pytest.raises(ExprError) as exc:
            parse_expr("sin(x1")
        assert exc.value.offset == 6

    def test_unknown_identifier(self):
        with pytest.raises(ExprError, match="unknown identifier"):
            parse_expr("foo + 1")

    def test_function_requires_an_argument_list(self):
        with pytest.raises(ExprError, match="argument list"):
            parse_expr("sin + 1")

    def test_variable_is_not_callable(self):
        with pytest.raises(ExprError, match="variable, not a function"):
            parse_expr("x1(2)")

    def test_non_ascii_input_is_rejected(self):
        with pytest.raises(ExprError, match="non-ascii"):
            parse_expr("x1 × 2")

    def test_trailing_input(self):
        with pytest.raises(ExprError, match="trailing") as exc:
            parse_expr("1 2")
        assert exc.value.offset == 2

    def test_empty_input(self):
        with pytest.raises(ExprError):
            parse_expr("")

    def test_non_string_input(self):
        with pytest.raises(ExprError):
            parse_expr(3.0)


class TestPartialFunctions:
    def test_division_by_zero(self):
        node = parse_expr("1/x1")
        with pytest.raises(EvalDomainError, match="division by zero"):
            node.ev((np.array([0.5, 0.0, 1.0]),))

    def test_error_carries_the_offending_index(self):
        node = parse_expr("log(x1)")
        with pytest.raises(EvalDomainError) as exc:
            node.ev((np.array([1.0, 2.0, -3.0]),))
        assert exc.value.index == 2

    def test_sqrt_of_negative_value(self):
        with pytest.raises(EvalDomainError, match="sqrt"):
            parse_expr("sqrt(x1)").ev((np.array([-0.1]),))

    def test_negative_base_with_fractional_exponent(self):
        with pytest.raises(EvalDomainError, match="non-integer exponent"):
            parse_expr("x1^0.5").ev((np.array([-1.0]),))

    def test_zero_base_with_negative_exponent(self):
        with pytest.raises(EvalDomainError, match="negative exponent"):
            parse_expr("x1^-1").ev((np.array([0.0]),))

    def test_integer_powers_of_negative_bases_are_fine(self):
        assert ev("x1^3", -2.0) == -8.0
        assert ev("x1^2", -3.0) == 9.0


class TestBump:
    def test_peak_value(self):
        assert bump(0.0) == pytest.approx(math.exp(-1.0))

    def test_vanishes_on_and_outside_the_unit_interval(self):
        assert bump(1.0) == 0.0
        assert bump(-1.0) == 0.0
        assert bump(2.5) == 0.0
        assert np.all(bump(np.array([-3.0, 1.0, 1.5])) == 0.0)

    def test_joins_flatly_at_the_edge(self):
        h = 1e-3
        second = (bump(1.0 - h) - 2.0 * bump(1.0) + bump(1.0 + h)) / h**2
        assert abs(second) < 1e-6

    def test_matches_the_closed_form_derivative(self):
        for r in (0.0, 0.3, -0.6, 0.9):
            h = 1e-6
            numeric = (bump(r + h) - bump(r - h)) / (2.0 * h)
            exact = -2.0 * r / (1.0 - r * r) ** 2 * bump(r)
            assert numeric == pytest.approx(exact, rel=1e-4, abs=1e-12)

    def test_even_symmetry(self):
        r = np.linspace(-0.95, 0.95, 21)
        np.testing.assert_allclose(bump(r), bump(-r), rtol=0, atol=0)


class TestDocumentValidation:
    def test_load_doc_reads_a_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(minimal_doc()), encoding="ascii")
        assert load_doc(path) == minimal_doc()
        assert spec_from_dict(load_doc(path)) == spec_from_dict(minimal_doc())

    def test_load_doc_reports_an_unreadable_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec") as exc:
            load_doc(tmp_path / "missing.json")
        assert exc.value.path == "$"
        with pytest.raises(SpecError, match="cannot read spec"):
            load_doc(tmp_path)  # a directory

    def test_load_doc_reports_invalid_json_as_a_spec_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="ascii")
        with pytest.raises(SpecError, match="not valid JSON"):
            load_doc(path)

    def test_minimal_document_loads(self):
        spec = spec_from_dict(minimal_doc())
        assert spec.n == 1
        assert spec.grid == (16,)
        assert spec.is_constant
        assert not spec.has_lower_order_terms

    def test_lower_order_detection(self):
        spec = spec_from_dict(minimal_doc(b=[{"im": "2"}]))
        assert spec.has_lower_order_terms
        spec = spec_from_dict(minimal_doc(a={"re": "0", "im": "0"}))
        assert not spec.has_lower_order_terms

    def test_nonconstant_detection(self):
        spec = spec_from_dict(minimal_doc(A=[[{"re": "1 + x1"}]]))
        assert not spec.is_constant

    def test_dimension_out_of_range(self):
        with pytest.raises(SpecError) as exc:
            spec_from_dict(minimal_doc(n=4))
        assert exc.value.path == "$.n"

    def test_boolean_dimension_is_rejected(self):
        with pytest.raises(SpecError) as exc:
            spec_from_dict(minimal_doc(n=True))
        assert exc.value.path == "$.n"

    def test_domain_length_must_match_n(self):
        with pytest.raises(SpecError) as exc:
            spec_from_dict(minimal_doc(domain=[[0.0, 1.0], [0.0, 1.0]]))
        assert exc.value.path == "$.domain"

    def test_degenerate_interval(self):
        with pytest.raises(SpecError) as exc:
            spec_from_dict(minimal_doc(domain=[[1.0, 1.0]]))
        assert exc.value.path == "$.domain[0]"

    def test_grid_too_coarse(self):
        with pytest.raises(SpecError) as exc:
            spec_from_dict(minimal_doc(grid=[7]))
        assert exc.value.path == "$.grid[0]"

    def test_boolean_entry_is_rejected(self):
        with pytest.raises(SpecError) as exc:
            spec_from_dict(minimal_doc(A=[[{"re": True}]]))
        assert exc.value.path == "$.A[0][0].re"

    def test_numeric_entries_are_accepted(self):
        spec = spec_from_dict(minimal_doc(A=[[{"re": 2, "im": -0.5}]]))
        val = spec.A[0][0].ev((np.float64(0.3),))
        assert complex(val) == 2.0 - 0.5j

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="unknown keys"):
            spec_from_dict(minimal_doc(extra=1))

    def test_unknown_entry_key(self):
        with pytest.raises(SpecError) as exc:
            spec_from_dict(minimal_doc(A=[[{"re": "1", "imag": "0"}]]))
        assert exc.value.path == "$.A[0][0]"

    def test_missing_required_key(self):
        doc = minimal_doc()
        del doc["A"]
        with pytest.raises(SpecError) as exc:
            spec_from_dict(doc)
        assert exc.value.path == "$.A"

    def test_variable_index_beyond_dimension(self):
        with pytest.raises(SpecError) as exc:
            spec_from_dict(minimal_doc(a={"re": "x2"}))
        assert exc.value.path == "$.a.re"
        assert "x2" in str(exc.value)

    def test_out_of_range_variable_in_an_imaginary_part(self):
        with pytest.raises(SpecError) as exc:
            spec_from_dict(minimal_doc(a={"re": "1", "im": "x2"}))
        assert exc.value.path == "$.a.im"
        assert str(exc.value) == "$.a.im: references x2 but n = 1"

    def test_the_first_bad_entry_in_document_order_is_named(self):
        # an out-of-range variable is caught where its entry is parsed,
        # so it is named ahead of a syntax error in a later entry
        doc = minimal_doc(
            n=2,
            domain=[[0.0, 1.0], [0.0, 1.0]],
            grid=[8, 8],
            A=[[{"re": "x3"}, {}], [{}, {"re": "1 +"}]],
        )
        with pytest.raises(SpecError) as exc:
            spec_from_dict(doc)
        assert exc.value.path == "$.A[0][0].re"
        assert "references x3 but n = 2" in str(exc.value)

    def test_a_missing_part_is_zero(self):
        spec = spec_from_dict(minimal_doc(A=[[{"re": "1"}]]))
        assert spec.A[0][0].im == parse_expr("0")
        assert spec.A[0][0].im.ev((np.float64(0.3),)) == 0.0

    def test_expression_error_is_located(self):
        with pytest.raises(SpecError) as exc:
            spec_from_dict(minimal_doc(b=[{"im": "1 +"}]))
        assert exc.value.path == "$.b[0].im"

    def test_box_diameter(self):
        doc = minimal_doc(
            n=2,
            domain=[[0.0, 3.0], [0.0, 4.0]],
            grid=[8, 8],
            A=[[{"re": "1"}, {}], [{}, {"re": "1"}]],
        )
        assert spec_from_dict(doc).box_diameter() == pytest.approx(5.0)


class TestSampling:
    def test_divergence_matches_the_analytic_value(self):
        doc = minimal_doc(
            n=2,
            domain=[[0.0, 1.0], [0.0, 1.0]],
            grid=[8, 8],
            A=[[{"re": "1"}, {}], [{}, {"re": "1"}]],
            b=[
                {"re": "sin(pi*x1)*cos(pi*x2)"},
                {"re": "x1*x2^2", "im": "x2"},
            ],
        )
        spec = spec_from_dict(doc)
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.05, 0.95, size=(40, 2))
        sam = sample_operator(spec, pts)
        x1, x2 = pts[:, 0], pts[:, 1]
        exact = np.pi * np.cos(np.pi * x1) * np.cos(np.pi * x2) + 2.0 * x1 * x2 + 1j
        np.testing.assert_allclose(sam.div_b, exact, rtol=0, atol=1e-8)
        np.testing.assert_allclose(sam.div_c, 0.0, rtol=0, atol=0)

    def test_divergence_of_constant_fields_is_exactly_zero(self):
        spec = spec_from_dict(minimal_doc(b=[{"re": "3", "im": "-1"}]))
        sam = sample_operator(spec, np.array([[0.25], [0.75]]))
        assert np.all(sam.div_b == 0.0)

    def test_stencil_is_clipped_at_the_box_edge(self):
        spec = spec_from_dict(minimal_doc(b=[{"re": "x1^2"}]))
        sam = sample_operator(spec, np.array([[1.0]]))
        assert sam.div_b[0].real == pytest.approx(2.0, rel=1e-4)

    def test_evaluation_failure_names_coefficient_and_node(self):
        spec = spec_from_dict(minimal_doc(A=[[{"re": "log(x1 - 0.5)"}]]))
        with pytest.raises(EvalDomainError) as exc:
            sample_operator(spec, np.array([[0.75], [0.25]]))
        msg = str(exc.value)
        assert "A[0][0]" in msg
        assert "0.25" in msg

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_values_are_reported(self):
        spec = spec_from_dict(minimal_doc(a={"re": "exp(10000*x1)"}))
        with pytest.raises(EvalDomainError, match="non-finite"):
            sample_operator(spec, np.array([[0.5]]))

    def test_shapes(self):
        doc = minimal_doc(
            n=2,
            domain=[[0.0, 1.0], [-1.0, 1.0]],
            grid=[8, 8],
            A=[[{"re": "1"}, {"im": "x2"}], [{"im": "-x2"}, {"re": "1"}]],
            a={"re": "-1"},
        )
        spec = spec_from_dict(doc)
        pts = np.array([[0.5, 0.0], [0.25, 0.5], [0.75, -0.5]])
        sam = sample_operator(spec, pts)
        assert sam.A.shape == (3, 2, 2)
        assert sam.b.shape == (3, 2)
        assert sam.c.shape == (3, 2)
        assert sam.a.shape == (3,)
        assert sam.div_b.shape == (3,)
        assert sam.A[1, 0, 1] == 0.5j
        assert sam.a[2] == -1.0 + 0.0j
