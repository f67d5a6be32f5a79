"""Expression grammar, operator documents, and coefficient sampling."""

import json
import math
import warnings

import numpy as np
import pytest

from dissipate import coeffspec
from dissipate.coeffspec import (
    EvalDomainError,
    ExprError,
    SpecError,
    bump,
    evaluate,
    load_doc,
    parse_expr,
    sample_operator,
    spec_from_dict,
)
from dissipate.grids import Grid
from dissipate.semigroup import discretize

from conftest import PRESET_DIR, evaluate_oracle, random_expr_oracle, run_cli, tree_value_oracle


def ev(text, *coords):
    """Evaluate an expression at scalar coordinates (x1, x2, ...)."""
    xs = tuple(np.float64(c) for c in coords)
    return float(evaluate(parse_expr(text), xs))


def minimal_doc(**over):
    doc = {
        "n": 1,
        "domain": [[0.0, 1.0]],
        "grid": [16],
        "A": [[{"re": "1"}]],
    }
    doc.update(over)
    return doc


def parsed(entry):
    """The field of one {"re": ..., "im": ...} entry, parsed as a document's a."""
    return spec_from_dict(minimal_doc(a=entry)).a


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
        assert parsed({"re": "pi"}).is_constant
        xs = (np.linspace(0.0, 1.0, 5),)
        assert np.array_equal(evaluate(parse_expr("pi"), xs), np.full(5, math.pi))

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

    def test_the_parser_decides_zero_and_constant(self):
        assert parsed({"re": "0"}).is_zero
        assert parsed({"re": "-0.0", "im": -0.0}).is_zero
        # the zero test is structural: a sum of zeros is not a zero literal
        assert not parsed({"re": "0 + 0"}).is_zero
        assert parsed({"re": "0 + 0"}).is_constant
        assert not parsed({"re": "1"}).is_zero
        assert parsed({"im": "2^(1 + sin(3))"}).is_constant
        assert not parsed({"re": "2 + bump(x1)"}).is_constant
        assert not parsed({"re": "1", "im": "x1"}).is_constant

    def test_missing_parts_and_absent_entries_are_zero_and_constant(self):
        assert parsed({}).is_zero and parsed({}).is_constant
        spec = spec_from_dict(minimal_doc(n=2, domain=[[0.0, 1.0]] * 2, grid=[8, 8],
                                          A=[[{"re": "1"}, {}], [{}, {"re": "1"}]]))
        for field in (*spec.b, *spec.c, spec.a):
            assert field.is_zero and field.is_constant
        assert spec.A[0][1].is_zero


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

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            (3.0, "expression must be a string", 0),
            (None, "expression must be a string", 0),
            ("x1 \u00d7 2", "non-ascii character in expression", 0),
            ("1\ud800", "non-ascii character in expression", 0),
            ("1 + @", "unexpected character '@'", 4),
            ("x1 . 2", "unexpected character '.'", 3),
            ("1 +\f2", "unexpected character '\f'", 3),
            ("sin(x1", "expected ')'", 6),
            ("(1 2)", "expected ')'", 3),
            ("1 2", "unexpected trailing input '2.0'", 2),
            ("x1)", "unexpected trailing input ')'", 2),
            ("pi pi", "unexpected trailing input 'pi'", 3),
            ("sin + 1", "function 'sin' needs an argument list", 4),
            ("2*bump", "function 'bump' needs an argument list", 6),
            ("x0", "variable indices start at x1", 0),
            ("2*x00", "variable indices start at x1", 2),
            # int() refuses more than sys.get_int_max_str_digits() digits
            pytest.param("1+x" + "0" * 4999 + "1", "variable index has too many digits", 2,
                         id="x-with-5000-digits"),
            ("x1(2)", "'x1' is a variable, not a function", 2),
            ("foo + 1", "unknown identifier 'foo'", 0),
            ("1 - x", "unknown identifier 'x'", 4),
            ("2e", "unexpected trailing input 'e'", 1),
            ("2*e", "unknown identifier 'e'", 2),
            ("", "expected a value", 0),
            ("1 +", "expected a value", 3),
            ("*2", "expected a value", 0),
            ("()", "expected a value", 1),
            ("2^^3", "expected a value", 2),
        ],
    )
    def test_every_error_branch_names_its_message_and_offset(self, text, message, offset):
        with pytest.raises(ExprError) as exc:
            parse_expr(text)
        assert str(exc.value) == f"{message} (byte {offset})"
        assert exc.value.offset == offset


class TestPartialFunctions:
    @pytest.mark.parametrize(
        "text, x1, message, index",
        [
            ("1/x1", [0.5, 0.0, 1.0], "division by zero", 1),
            ("log(x1)", [1.0, 2.0, -3.0], "log of non-positive value", 2),
            ("log(x1)", [0.0, 1.0], "log of non-positive value", 0),
            ("sqrt(x1)", [1.0, 4.0, -0.1], "sqrt of negative value", 2),
            ("x1^0.5", [1.0, -1.0], "negative base with non-integer exponent", 1),
            ("x1^-1", [2.0, 0.0], "zero base with negative exponent", 1),
            ("1/x1", 0.0, "division by zero", 0),
            ("(-2)^x1", 0.5, "negative base with non-integer exponent", 0),
        ],
    )
    def test_every_domain_error_names_its_message_and_index(self, text, x1, message, index):
        program = parse_expr(text)
        with pytest.raises(EvalDomainError) as exc:
            evaluate(program, (np.asarray(x1, dtype=float),))
        assert str(exc.value) == message
        assert exc.value.index == index

    def test_division_by_zero(self):
        program = parse_expr("1/x1")
        with pytest.raises(EvalDomainError, match="division by zero"):
            evaluate(program, (np.array([0.5, 0.0, 1.0]),))

    def test_error_carries_the_offending_index(self):
        program = parse_expr("log(x1)")
        with pytest.raises(EvalDomainError) as exc:
            evaluate(program, (np.array([1.0, 2.0, -3.0]),))
        assert exc.value.index == 2

    def test_sqrt_of_negative_value(self):
        with pytest.raises(EvalDomainError, match="sqrt"):
            evaluate(parse_expr("sqrt(x1)"), (np.array([-0.1]),))

    def test_negative_base_with_fractional_exponent(self):
        with pytest.raises(EvalDomainError, match="non-integer exponent"):
            evaluate(parse_expr("x1^0.5"), (np.array([-1.0]),))

    def test_zero_base_with_negative_exponent(self):
        with pytest.raises(EvalDomainError, match="negative exponent"):
            evaluate(parse_expr("x1^-1"), (np.array([0.0]),))

    def test_integer_powers_of_negative_bases_are_fine(self):
        assert ev("x1^3", -2.0) == -8.0
        assert ev("x1^2", -3.0) == 9.0


def outcome(run, *args):
    """The bytes of a value, or the message and index of a domain error."""
    with np.errstate(all="ignore"):
        try:
            return np.asarray(run(*args)).tobytes()
        except EvalDomainError as err:
            return str(err), err.index


def random_doc(seed, partial):
    """A 2D document whose entries are seeded random expressions, with or
    without the partial functions."""
    rng = np.random.default_rng(seed)

    def entry():
        return {"re": random_expr_oracle(rng, 2, 3, partial)[0], "im": random_expr_oracle(rng, 2, 3, partial)[0]}

    return {
        "n": 2,
        "domain": [[0.0, 1.0], [-1.0, 1.0]],
        "grid": [8, 9],
        "A": [[entry(), entry()], [entry(), entry()]],
        "b": [entry(), entry()],
        "c": [entry(), entry()],
        "a": entry(),
    }


ORACLE_DOCS = [
    *(pytest.param(load_doc(PRESET_DIR / f"{name}.json"), id=name)
      for name in ("example1", "example2", "example3", "laplacian1d", "one_plus_i_laplacian")),
    *(pytest.param(random_doc(seed, seed >= 10), id=f"random-{seed}") for seed in range(12)),
]


class TestPrograms:
    """``evaluate`` runs the steps a recursive walk of the expression's
    tree would run, so values and errors are those of the walk."""

    def test_steps_are_in_tree_walk_order(self):
        assert parse_expr("-x1^2 + sin(2*x2)") == (
            ("var", 1), ("num", 2.0), ("^", None), ("neg", None),
            ("num", 2.0), ("var", 2), ("*", None), ("call", "sin"), ("+", None),
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_evaluate_matches_the_tree_walk(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            text, tree = random_expr_oracle(rng, n)
            program = parse_expr(text)
            for xs in (tuple(rng.uniform(-2.0, 2.0, 17) for _ in range(n)),
                       tuple(np.float64(rng.uniform(-2.0, 2.0)) for _ in range(n))):
                assert outcome(evaluate, program, xs) == outcome(tree_value_oracle, tree, xs), text

    @pytest.mark.parametrize("doc", ORACLE_DOCS)
    def test_sampling_and_discretize_match_the_tree_walk(self, monkeypatch, doc):
        spec = spec_from_dict(doc)
        pts = Grid.from_spec(spec).points()

        def run():
            try:
                sam = sample_operator(spec, pts)
            except EvalDomainError as err:
                sampled = str(err)
            else:
                sampled = [getattr(sam, k).tobytes() for k in ("A", "b", "c", "a", "div_b", "div_c")]
            try:
                mat = discretize(spec).matrix
            except (EvalDomainError, ValueError) as err:
                return sampled, str(err)
            return sampled, (mat.data.tobytes(), mat.indices.tobytes(), mat.indptr.tobytes())

        expected = run()
        monkeypatch.setattr(coeffspec, "evaluate", evaluate_oracle)
        assert run() == expected


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

    def test_an_expression_calls_the_module_level_name(self, monkeypatch):
        # the benchmark tracer counts bump calls by rebinding coeffspec.bump
        calls = []
        monkeypatch.setattr(coeffspec, "bump", lambda r: calls.append(r) or bump(r))
        assert ev("bump(x1)", 0.0) == bump(0.0)
        assert len(calls) == 1

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

    def test_load_doc_reports_a_too_deeply_nested_document(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="ascii")
        with pytest.raises(SpecError, match=r"^\$: document is nested too deeply$") as exc:
            load_doc(path)
        assert exc.value.path == "$"

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
        assert evaluate(spec.A[0][0].im, (np.float64(0.3),)) == 0.0

    def test_expression_error_is_located(self):
        with pytest.raises(SpecError) as exc:
            spec_from_dict(minimal_doc(b=[{"im": "1 +"}]))
        assert exc.value.path == "$.b[0].im"

    def test_a_part_may_hold_the_step_cap(self):
        # -x1 + x1 + ... over 2048 terms: 2048 variables, 2047 sums, one negation
        text = "-" + "+".join(["x1"] * 2048)
        assert len(parse_expr(text)) == coeffspec.EXPR_STEP_CAP == 4096
        assert not spec_from_dict(minimal_doc(a={"im": text})).a.is_constant

    def test_a_part_beyond_the_step_cap_is_refused(self):
        with pytest.raises(SpecError) as exc:
            spec_from_dict(minimal_doc(a={"re": "1", "im": "+".join(["x1"] * 2049)}))
        assert str(exc.value) == "$.a.im: expression has 4097 steps, cap is 4096"

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

    @pytest.mark.parametrize(
        "doc, message",
        [
            (minimal_doc(b=[{"re": "1.7e308*sin(1e6*x1)"}]), r"^b\[0\]: non-finite divergence near node \(0\.25\)$"),
            (minimal_doc(c=[{"im": "1.7e308*sin(1e6*x1)"}]), r"^c\[0\]: non-finite divergence near node \(0\.25\)$"),
            # each component's difference is finite, their sum is not
            (
                minimal_doc(
                    n=2,
                    domain=[[0.0, 1.0], [0.0, 1.0]],
                    grid=[8, 8],
                    A=[[{"re": "1"}, {}], [{}, {"re": "1"}]],
                    b=[{"re": "1.7e308*x1"}, {"re": "1.7e308*x2"}],
                ),
                r"^b\[1\]: non-finite divergence near node \(0\.25, 0\.25\)$",
            ),
        ],
        ids=["b", "c", "sum"],
    )
    def test_a_divergence_that_overflows_names_its_component(self, doc, message):
        spec = spec_from_dict(doc)
        pts = np.full((2, spec.n), 0.25)
        pts[1] = 0.75
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvalDomainError, match=message):
                sample_operator(spec, pts)

    def test_acceptance_does_not_depend_on_the_callers_stack(self):
        doc = minimal_doc(A=[[{"re": "+".join(["x1"] * 950)}]])
        pts = np.linspace(0.0, 1.0, 9)[:, None]

        def sampled():
            return sample_operator(spec_from_dict(doc), pts).A.tobytes()

        def under(frames):
            return under(frames - 1) if frames else sampled()

        assert under(200) == sampled()

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


VARIABLE_2D = {
    "n": 2,
    "domain": [[0.0, 1.0], [-1.0, 1.0]],
    "grid": [8, 10],
    "A": [[{"re": "2 + x1", "im": "0.1*x2"}, {"im": "0.2"}], [{"im": "0.2"}, {"re": "1 + x2^2"}]],
    "b": [{"re": "sin(x1)"}, {"re": "0", "im": "-0.0"}],
    "c": [{}, {"im": "0.5*x2"}],
    "a": {"re": "-1", "im": "x1*x2"},
}


def part_count(doc):
    """The number of re/im parts of a document's entries."""
    entries = [e for row in doc["A"] for e in row] + doc.get("b", []) + doc.get("c", [])
    return sum(map(len, entries + ([doc["a"]] if "a" in doc else [])))


class TestEachPartIsWalkedOnce:
    """The parser compiles each re/im part once and reads whether the
    field is zero and constant off its steps; after that, only
    ``evaluate`` reads a program's steps."""

    # (document, is_constant, has_lower_order_terms)
    DOCS = [
        pytest.param(VARIABLE_2D, False, True, id="variable"),
        pytest.param(load_doc(PRESET_DIR / "example2.json"), False, False, id="example2"),
        pytest.param(load_doc(PRESET_DIR / "example3.json"), True, True, id="example3"),
    ]

    @staticmethod
    def watch(monkeypatch):
        """Log each parsed program, and each read of its steps with the
        function that made it: "parse" (``_parse_entry``), "evaluate" or
        None (any other)."""
        log = {"parsed": [], "reads": [], "in": None}

        class Watched(tuple):
            def __iter__(self):
                log["reads"].append((self, log["in"]))
                return super().__iter__()

            def __getitem__(self, key):
                log["reads"].append((self, log["in"]))
                return super().__getitem__(key)

        def inside(name, func):
            def run(*args):
                log["in"] = name
                try:
                    return func(*args)
                finally:
                    log["in"] = None
            return run

        parse = coeffspec.parse_expr

        def parse_watched(text):
            log["parsed"].append(Watched(parse(text)))
            return log["parsed"][-1]

        monkeypatch.setattr(coeffspec, "parse_expr", parse_watched)
        monkeypatch.setattr(coeffspec, "_parse_entry", inside("parse", coeffspec._parse_entry))
        monkeypatch.setattr(coeffspec, "evaluate", inside("evaluate", coeffspec.evaluate))
        return log

    @staticmethod
    def assert_read_once_then_evaluated(log, doc):
        """Each part is parsed once, and the parser reads its steps; any
        other read is made by ``evaluate``."""
        assert len(log["parsed"]) == part_count(doc)
        parsing = {id(program) for program, where in log["reads"] if where == "parse"}
        assert parsing == set(map(id, log["parsed"]))
        assert all(where in ("parse", "evaluate") for _, where in log["reads"])

    @pytest.mark.parametrize("doc, constant, lower", DOCS)
    def test_parsing_walks_once_and_readers_never(self, monkeypatch, doc, constant, lower):
        log = self.watch(monkeypatch)
        spec = spec_from_dict(doc)
        self.assert_read_once_then_evaluated(log, doc)
        log["reads"].clear()
        assert spec.is_constant == constant
        assert spec.has_lower_order_terms == lower
        assert log["reads"] == []
        sample_operator(spec, Grid.from_spec(spec).points())
        discretize(spec)
        assert log["reads"] and all(where == "evaluate" for _, where in log["reads"])

    @pytest.mark.parametrize("doc, constant, lower", DOCS)
    @pytest.mark.parametrize("argv", [("check", "--p", "3"), ("interval",), ("constant", "--p", "4"),
                                      ("sufficiency", "--p", "2")], ids=lambda argv: argv[0])
    def test_a_command_walks_each_part_once(self, monkeypatch, tmp_path, doc, constant, lower, argv):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="ascii")
        log = self.watch(monkeypatch)
        command, *rest = argv
        code, _, err = run_cli(command, path, *rest)
        if command == "constant" and not constant:
            assert (code, err) == (2, "error: $: constant verdict needs constant coefficients\n")
        else:
            assert (code, err) == (0, "")
        self.assert_read_once_then_evaluated(log, doc)
