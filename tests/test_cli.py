"""CLI surface: subcommands, exit codes, rendering, golden reports."""

import json
import math
import os
import warnings

import numpy as np
import pytest

from dissipate import cli, formcheck
from dissipate.cli import _build_parser
from dissipate.coeffspec import NODE_CAP, load_doc, sample_operator, spec_from_dict
from dissipate.grids import Grid
from dissipate.pointwise import decompose, p_interval, q_sufficiency
from dissipate.report import spec_digest

from conftest import (
    GOLDEN_CASES,
    GOLDEN_DIR,
    lam_bracket_oracle,
    p_condition_oracle,
    pinch_oracle,
    preset,
    run_cli,
)

NEAR_MAX_OFF_DIAGONALS = {
    "n": 2,
    "domain": [[0, 1], [0, 1]],
    "grid": [8, 8],
    "A": [[{"re": "1"}, {"re": "1e308"}], [{"re": "1e308"}, {"re": "1"}]],
}
PAYLOAD_KEYS = ["command", "spec", "inputs", "verdict", "numbers", "witness", "notes", "timing"]


def json_out(*argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    return json.loads(out)


class TestExitCodes:
    def test_missing_file(self):
        code, out, err = run_cli("check", "no_such_file.json", "--p", "2")
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_invalid_json_document(self, tmp_path):
        # int() refuses an integer literal of more than 4300 digits, and its
        # message would advise changing an interpreter setting
        big = '{"n": 1, "domain": [[0, 1]], "grid": [8], "A": [[{"re": 1' + "0" * 5000 + "}]]}"
        for text, start in [
            ("{not json", "error: $: not valid JSON: "),
            (big, "error: $: integer literal of 5001 digits is too long\n"),
        ]:
            bad = tmp_path / "bad.json"
            bad.write_text(text, encoding="ascii")
            code, out, err = run_cli("interval", str(bad))
            assert code == 2
            assert out == ""
            assert err.startswith(start)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("1\ud800", "non-ascii character in expression (byte 0)"),
            ("x" + "1" * 5000, "variable index has too many digits (byte 0)"),
        ],
        ids=["lone-surrogate", "x-with-5000-digits"],
    )
    def test_an_unparsable_entry_names_its_path(self, tmp_path, entry, message):
        bad = tmp_path / "entry.json"
        doc = {"n": 1, "domain": [[0, 1]], "grid": [8], "A": [[{"re": entry}]]}
        bad.write_text(json.dumps(doc), encoding="ascii")
        code, out, err = run_cli("check", str(bad), "--p", "2")
        assert code == 2
        assert out == ""
        assert err == f"error: $.A[0][0].re: {message}\n"

    def test_a_document_that_is_not_utf8_is_not_valid_json(self, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"n": 1, "domain": [[0, 1]], "grid": [8], "A": [[{"re": "1\xff"}]]}')
        code, out, err = run_cli("interval", str(bad))
        assert code == 2
        assert out == ""
        assert err == (
            "error: $: not valid JSON: 'utf-8' codec can't decode byte 0xff"
            " in position 58: invalid start byte\n"
        )

    # Parsing recurses once per parenthesis and evaluation once per
    # operator, so the first entry is refused by the parser and the second,
    # which parses in a loop, by the evaluator.
    @pytest.mark.parametrize(
        "entry, where",
        [("(" * 200 + "1" + ")" * 200, "$.A[0][0].re"), ("+".join(["x1"] * 1000), "A[0][0]")],
        ids=["200-parentheses", "1000-term-sum"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("interval",),
            ("check", "--p", "2"),
            ("falsify", "--p", "2", "--budget", "3"),
            ("simulate", "--p", "2", "--dt", "1e-3", "--t-end", "1e-2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_too_deep_expression_names_its_entry(self, tmp_path, entry, where, argv):
        bad = tmp_path / "deep.json"
        doc = {"n": 1, "domain": [[0, 1]], "grid": [8], "A": [[{"re": entry}]]}
        bad.write_text(json.dumps(doc), encoding="ascii")
        code, out, err = run_cli(argv[0], str(bad), *argv[1:])
        assert code == 2
        assert out == ""
        assert err == f"error: {where}: expression is nested too deeply\n"

    @pytest.mark.parametrize(
        "argv, node",
        [
            (("interval",), "0.777778"),
            (("check", "--p", "2"), "0.777778"),
            (("falsify", "--p", "2", "--budget", "3"), "0.777778"),
            # discretize samples A on the cell midpoints
            (("simulate", "--p", "2", "--dt", "1e-3", "--t-end", "1e-2"), "0.722222"),
        ],
        ids=lambda v: v[0] if isinstance(v, tuple) else None,
    )
    def test_an_overflowing_coefficient_is_one_error_line(self, tmp_path, argv, node):
        bad = tmp_path / "overflow.json"
        doc = {"n": 1, "domain": [[0, 1]], "grid": [8], "A": [[{"re": "exp(1e3*x1)"}]]}
        bad.write_text(json.dumps(doc), encoding="ascii")
        with warnings.catch_warnings():
            # numpy's overflow warning would escape main as an exception
            warnings.simplefilter("error")
            code, out, err = run_cli(argv[0], str(bad), *argv[1:])
        assert code == 2
        assert out == ""
        assert err == f"error: A[0][0]: non-finite value at node ({node})\n"

    @pytest.mark.parametrize(
        "entries, argv, message",
        [
            (
                {"A": [[{"re": "1e307"}]]},
                ("simulate", "--p", "2", "--dt", "1e-3", "--t-end", "1e-2"),
                "operator matrix: non-finite entry in the row of node (0.111111); "
                "a coefficient is too large for the grid spacing",
            ),
            (
                {"A": [[{"re": "1"}]], "b": [{"re": "1.7e308*sin(1e6*x1)"}]},
                ("sufficiency", "--p", "2"),
                "b[0]: non-finite divergence near node (0.111111)",
            ),
            (
                {"A": [[{"re": "1"}]], "b": [{"re": "1.7e308*sin(1e6*x1)"}]},
                ("falsify", "--p", "2", "--budget", "3"),
                "b[0]: non-finite divergence near node (0.111111)",
            ),
        ]
        # off-diagonals whose sum overflows when A is symmetrized
        + [
            (NEAR_MAX_OFF_DIAGONALS, argv, "matrix is not finite and symmetric")
            for argv in (("check", "--p", "2"), ("interval",), ("sufficiency", "--p", "2"), ("constant", "--p", "2"))
        ],
        ids=[
            "stiff-simulate", "divergence-sufficiency", "divergence-falsify",
            "near-max-check", "near-max-interval", "near-max-sufficiency", "near-max-constant",
        ],
    )
    def test_an_overflow_past_sampling_is_one_error_line(self, tmp_path, entries, argv, message):
        bad = tmp_path / "overflow.json"
        bad.write_text(json.dumps({"n": 1, "domain": [[0, 1]], "grid": [8], **entries}), encoding="ascii")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv[0], str(bad), *argv[1:])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_a_too_deeply_nested_document_is_one_error_line(self, tmp_path):
        bad = tmp_path / "nested.json"
        bad.write_text('{"n": 1, "A": ' + "[" * 100000 + "]" * 100000 + "}", encoding="ascii")
        code, out, err = run_cli("interval", str(bad))
        assert code == 2
        assert out == ""
        assert err == "error: $: document is nested too deeply\n"

    def test_schema_violation(self, tmp_path):
        bad = tmp_path / "coarse.json"
        bad.write_text(
            json.dumps({"n": 1, "domain": [[0.0, 1.0]], "grid": [4], "A": [[{"re": "1"}]]}),
            encoding="ascii",
        )
        code, _, err = run_cli("interval", str(bad))
        assert code == 2
        assert "$.grid[0]" in err

    @pytest.mark.parametrize(
        "number", ["1e400", "NaN", "-Infinity", "1" + "0" * 400], ids=["1e400", "nan", "-inf", "10^400"]
    )
    @pytest.mark.parametrize(
        "where, template",
        [
            ("$.A[0][0].re", '"domain": [[0, 1]], "A": [[{"re": NUM}]]'),
            ("$.a.im", '"domain": [[0, 1]], "A": [[{"re": 1}]], "a": {"im": NUM}'),
            ("$.domain[0][1]", '"domain": [[0, NUM]], "A": [[{"re": 1}]]'),
        ],
        ids=["A", "a.im", "domain"],
    )
    def test_a_non_finite_number_names_its_path(self, monkeypatch, tmp_path, number, where, template):
        # JSON reads 1e400 as inf, and 10^400 has no float
        def unreachable(*args, **kwargs):
            raise AssertionError("a non-finite document was sampled")

        monkeypatch.setattr(cli, "sample_operator", unreachable)
        bad = tmp_path / "inf.json"
        bad.write_text('{"n": 1, "grid": [8], ' + template.replace("NUM", number) + "}", encoding="ascii")
        code, out, err = run_cli("interval", str(bad))
        assert code == 2
        assert out == ""
        assert err == f"error: {where}: number is not finite\n"

    def test_constant_verdict_refuses_a_field(self):
        code, _, err = run_cli("constant", preset("example2"), "--p", "2")
        assert code == 2
        assert "constant" in err

    @pytest.mark.parametrize("p", ["1", "0.5", "nan", "inf"])
    @pytest.mark.parametrize("cmd", ["check", "constant", "sufficiency", "falsify", "simulate"])
    def test_exponent_must_exceed_one(self, monkeypatch, cmd, p):
        def unreachable(*args, **kwargs):
            raise AssertionError("work started on an invalid exponent")

        for name in ("sample_operator", "falsify", "discretize"):
            monkeypatch.setattr(cli, name, unreachable)
        extra = ("--dt", "1e-3", "--t-end", "1e-2") if cmd == "simulate" else ()
        code, out, err = run_cli(cmd, preset("example3"), "--p", p, *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: exponent p must be finite and > 1")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_falsifier_budget_below_one(self, budget):
        code, out, err = run_cli("falsify", preset("example2"), "--p", "2", "--budget", budget)
        assert code == 2
        assert err.startswith("error:")
        assert "budget" in err
        assert out == ""

    @pytest.mark.parametrize("option,value,named", [
        ("--budget", str(formcheck.BUDGET_CAP + 1), "budget"),
        ("--budget", "10000000000", "budget"),
        ("--seed", "-1", "seed"),
    ])
    def test_falsifier_budget_above_the_cap_or_negative_seed(self, monkeypatch, option, value, named):
        def unreachable(*args, **kwargs):
            raise AssertionError("the falsifier started on an invalid input")

        for name in ("sample_operator", "_make_starts"):
            monkeypatch.setattr(formcheck, name, unreachable)
        code, out, err = run_cli("falsify", preset("example2"), "--p", "2", option, value)
        assert code == 2
        assert err.startswith("error:")
        assert named in err
        assert out == ""

    def test_falsifier_budget_at_the_cap_is_accepted(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(formcheck, "_make_starts", reached)
        with pytest.raises(Reached):
            run_cli("falsify", preset("example2"), "--p", "2", "--budget", str(formcheck.BUDGET_CAP))

    @pytest.mark.parametrize("err,shown", [
        (MemoryError("Unable to allocate 8.00 GiB"), "error: Unable to allocate 8.00 GiB\n"),
        (MemoryError(), "error: MemoryError\n"),
    ])
    def test_memory_error_exits_two(self, monkeypatch, err, shown):
        def exhausted(*args):
            raise err

        monkeypatch.setitem(cli._DISPATCH, "simulate", exhausted)
        code, out, stderr = run_cli(
            "simulate", preset("laplacian1d"), "--p", "2", "--dt", "1e-3", "--t-end", "1e-2",
        )
        assert code == 2
        assert out == ""
        assert stderr == shown

    def test_failing_check_still_completes(self):
        code, out, _ = run_cli("check", preset("one_plus_i_laplacian"), "--p", "12")
        assert code == 0
        assert "false" in out

    def test_strict_turns_the_failure_into_exit_one(self):
        code, _, _ = run_cli("check", preset("one_plus_i_laplacian"), "--p", "12", "--strict")
        assert code == 1

    def test_strict_passing_check_exits_zero(self):
        code, _, _ = run_cli("check", preset("one_plus_i_laplacian"), "--p", "3", "--strict")
        assert code == 0

    def test_no_subcommand_prints_help(self):
        code, out, err = run_cli()
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0


# one cheap run of each subcommand, with the document it reads
EVERY_COMMAND = [
    (("check", preset("one_plus_i_laplacian"), "--p", "3"), "one_plus_i_laplacian"),
    (("interval", preset("one_plus_i_laplacian")), "one_plus_i_laplacian"),
    (("constant", preset("example3"), "--p", "2"), "example3"),
    (("sufficiency", preset("example1"), "--p", "2"), "example1"),
    (("falsify", preset("example2"), "--p", "2", "--budget", "3"), "example2"),
    (("simulate", preset("laplacian1d"), "--p", "2", "--dt", "1e-3", "--t-end", "1e-2"), "laplacian1d"),
    (("examples", "--id", "3"), "example3"),
]


class TestRendering:
    @pytest.mark.parametrize("argv, doc", EVERY_COMMAND, ids=[argv[0] for argv, _ in EVERY_COMMAND])
    def test_json_payload_key_order(self, argv, doc):
        payload = json_out(*argv, "--format", "json")
        assert list(payload) == PAYLOAD_KEYS
        assert payload["command"] == argv[0]
        assert payload["spec"] == spec_digest(load_doc(preset(doc)))
        assert payload["timing"] is None
        code, out, _ = run_cli(*argv)
        assert code == 0
        assert out.startswith(f"dissipate {argv[0]}\nspec {payload['spec']}\n\ninputs\n")

    def test_format_flag_is_accepted_before_the_subcommand(self):
        payload = json_out("--format", "json", "interval", preset("one_plus_i_laplacian"))
        assert payload["command"] == "interval"

    def test_default_rendering_is_text(self):
        code, out, _ = run_cli("interval", preset("one_plus_i_laplacian"))
        assert code == 0
        assert out.startswith("dissipate interval")
        assert "spec " in out
        assert out.endswith("\n") and not out.endswith("\n\n")

    def test_infinities_render_as_strings_in_json(self):
        payload = json_out("interval", preset("laplacian1d"), "--format", "json")
        assert payload["numbers"]["lambda"] == "inf"
        assert payload["numbers"]["p_max"] == "inf"
        payload = json_out("sufficiency", preset("example1"), "--p", "2", "--format", "json")
        assert payload["numbers"]["min_value"] == "-inf"

    def test_infinities_render_in_text_too(self):
        code, out, _ = run_cli("interval", preset("laplacian1d"))
        assert code == 0
        assert "inf" in out

    def test_reports_never_leak_the_file_path(self):
        path = preset("example3")
        code, out, _ = run_cli("check", path, "--p", "2", "--format", "json")
        assert code == 0
        assert path not in out
        assert "example3" not in out


class TestParserReuse:
    """One parser serves every call of the process; no call leaks into the next."""

    def test_the_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_format_does_not_stick(self):
        path = preset("one_plus_i_laplacian")
        payload = json_out("interval", path, "--format", "json")
        assert payload["command"] == "interval"
        code, out, _ = run_cli("interval", path)
        assert code == 0 and out.startswith("dissipate interval")
        payload = json_out("--format", "json", "interval", path)
        assert payload["command"] == "interval"
        code, out, _ = run_cli("interval", path)
        assert code == 0 and out.startswith("dissipate interval")

    def test_strict_does_not_stick(self):
        path = preset("one_plus_i_laplacian")
        code, _, _ = run_cli("check", path, "--p", "12", "--strict")
        assert code == 1
        code, out, _ = run_cli("check", path, "--p", "12", "--format", "json")
        assert code == 0
        assert json.loads(out)["inputs"]["strict"] is False

    def test_options_of_one_subcommand_do_not_reach_another(self):
        payload = json_out(
            "sufficiency", preset("laplacian1d"), "--p", "2", "--alpha", "0.5", "--format", "json",
        )
        assert payload["inputs"]["alpha"] == 0.5
        payload = json_out("sufficiency", preset("laplacian1d"), "--p", "2", "--format", "json")
        assert payload["inputs"]["alpha"] == 0.0


# An 8^3 field shaped like the benchmark's: Re A diagonal and variable,
# Im A symmetric and variable next to the diagonal only.
FIELD_3D = {
    "n": 3,
    "domain": [[0.0, 1.0]] * 3,
    "grid": [8, 8, 8],
    "A": [
        [{"re": "1.3-0.2*x1^2"}, {"im": "0.4*(1+0.1*sin(2.3*x2+0.7))"}, {}],
        [{"im": "0.4*(1+0.1*sin(2.3*x2+0.7))"}, {"re": "1.0-0.1*x2^2"}, {"im": "0.3*(1+0.1*sin(3.1*x3+1.9))"}],
        [{}, {"im": "0.3*(1+0.1*sin(3.1*x3+1.9))"}, {"re": "1.5-0.25*x3^2"}],
    ],
}


class TestField3D:
    """Every node of a 512-node field against per-node numpy oracles."""

    @pytest.fixture(scope="class")
    def field(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("field3d") / "field.json"
        path.write_text(json.dumps(FIELD_3D), encoding="ascii")
        spec = spec_from_dict(FIELD_3D)
        pts = Grid.from_spec(spec).points()
        A = sample_operator(spec, pts).A
        d = decompose(A)
        brackets = [lam_bracket_oracle(d.S_r[j], d.S_i[j]) for j in range(len(A))]
        return str(path), pts, A, d, brackets

    def test_interval_matches_the_per_node_oracle(self, field):
        path, pts, _, d, brackets = field
        payload = json_out("interval", path, "--format", "json")
        lams = [lam for lam, _ in brackets]
        j = lams.index(min(lams))
        lam, hi = brackets[j]
        assert payload["numbers"]["nodes"] == 512
        assert payload["numbers"]["lambda"] == lam
        assert payload["numbers"]["p_max"] == p_interval(lam).p_max
        assert payload["witness"]["node"] == pts[j].tolist()
        assert payload["witness"]["xi"] == pinch_oracle(d.S_r[j], d.S_i[j], hi).tolist()

    def test_check_outside_names_the_first_failing_node(self, field):
        path, pts, A, _, brackets = field
        lams = sorted(lam for lam, _ in brackets)
        # fails at the nodes of the smallest ratios only
        p = 0.5 * (p_interval(lams[0]).p_max + p_interval(lams[len(lams) // 4]).p_max)
        holds = [p_condition_oracle(M, p) for M in A]
        first = holds.index(False)
        assert first > 0 and sum(holds) > len(holds) // 2
        payload = json_out("check", path, "--p", repr(p), "--format", "json")
        assert payload["verdict"]["decision"] is False
        assert payload["witness"]["node"] == pts[first].tolist()

    def test_check_inside_holds_everywhere(self, field):
        path, _, A, _, brackets = field
        p = 0.5 * (2.0 + p_interval(min(lam for lam, _ in brackets)).p_max)
        assert all(p_condition_oracle(M, p) for M in A)
        payload = json_out("check", path, "--p", repr(p), "--format", "json")
        assert payload["verdict"]["decision"] is True
        assert payload["witness"] is None


class TestGridCap:
    """A document grid beyond NODE_CAP nodes is an input error, raised
    before anything is sampled; the cap itself runs."""

    ARGS = {
        "check": ("--p", "3"),
        "interval": (),
        "sufficiency": ("--p", "2"),
        "falsify": ("--p", "2", "--budget", "1"),
        "simulate": ("--p", "2", "--dt", "1e-3", "--t-end", "1e-3"),
    }

    @staticmethod
    def field(tmp_path, shape):
        doc = {
            "n": 2,
            "domain": [[0.0, 1.0], [0.0, 1.0]],
            "grid": list(shape),
            "A": [[{"re": "2 + x1"}, {}], [{}, {"re": "1", "im": "0.5 * x2"}]],
        }
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc), encoding="ascii")
        return str(path)

    @pytest.mark.parametrize("cmd", sorted(ARGS))
    def test_one_node_over_the_cap_exits_two_unsampled(self, monkeypatch, tmp_path, cmd):
        def unreachable(*args, **kwargs):
            raise AssertionError("an oversized grid was sampled")

        monkeypatch.setattr(cli, "sample_operator", unreachable)
        monkeypatch.setattr(formcheck, "sample_operator", unreachable)
        code, out, err = run_cli(cmd, self.field(tmp_path, (128, 129)), *self.ARGS[cmd])
        assert code == 2
        assert out == ""
        assert err == f"error: $.grid: grid has {128 * 129} nodes, cap is {NODE_CAP}\n"

    @pytest.mark.parametrize("cmd", ["check", "interval", "sufficiency"])
    def test_a_grid_at_the_cap_runs(self, tmp_path, cmd):
        assert 128 * 128 == NODE_CAP
        payload = json_out(cmd, self.field(tmp_path, (128, 128)), *self.ARGS[cmd], "--format", "json")
        assert payload["numbers"]["nodes"] == NODE_CAP


BACKWARD_HEAT = {"n": 1, "domain": [[0, 1]], "grid": [8], "A": [[{"re": "-1e-12"}]]}
# the same with a large Im A, which must not hide the negative Re A
BACKWARD_HEAT_WITH_IM = {"n": 1, "domain": [[0, 1]], "grid": [8], "A": [[{"re": "-1e-6", "im": "1e6"}]]}


def unit_diagonal_doc(entry):
    """A 2D document with entry (1 + i) on the diagonal."""
    A = [[{"re": entry, "im": entry}, {}], [{}, {"re": entry, "im": entry}]]
    return {"n": 2, "domain": [[0, 1], [0, 1]], "grid": [8, 8], "A": A}


def write_doc(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    return str(path)


class TestCheck:
    def test_two_sided_verdict_without_lower_order_terms(self):
        payload = json_out("check", preset("one_plus_i_laplacian"), "--p", "3", "--format", "json")
        v = payload["verdict"]
        assert v["decision"] is True
        assert v["criterion"] == "eq24_pointwise"
        assert v["qualifier"] == "necessary-and-sufficient"
        assert v["dissipative"] is True

    def test_lower_order_terms_downgrade_the_qualifier(self):
        payload = json_out("check", preset("example3"), "--p", "3", "--format", "json")
        v = payload["verdict"]
        assert v["decision"] is True
        assert v["qualifier"] == "necessary-only"
        assert v["dissipative"] is None

    @pytest.mark.parametrize("doc", [BACKWARD_HEAT, BACKWARD_HEAT_WITH_IM], ids=["real", "with_im"])
    def test_a_small_backward_heat_operator_is_not_dissipative(self, tmp_path, doc):
        # a tolerance with an absolute floor once read A = -1e-12 as
        # dissipative; the condition is homogeneous in A, and at p = 2 it
        # is Re A >= 0 whatever Im A is
        path = write_doc(tmp_path, "backward", doc)
        v = json_out("check", path, "--p", "2", "--format", "json")["verdict"]
        assert v["decision"] is False and v["dissipative"] is False
        assert run_cli("interval", path) == (2, "", "error: Re A has a negative direction\n")
        suff = json_out("sufficiency", path, "--p", "2", "--format", "json")
        assert suff["verdict"]["decision"] is False

    def test_failing_check_names_a_direction(self):
        payload = json_out("check", preset("one_plus_i_laplacian"), "--p", "12", "--format", "json")
        assert payload["verdict"]["decision"] is False
        assert payload["verdict"]["dissipative"] is False
        witness = payload["witness"]
        assert len(witness["node"]) == 1
        assert len(witness["xi"]) == 1


class TestInterval:
    def test_skew_imaginary_field_is_invisible_to_the_pencils(self):
        # Im A is antisymmetric at every node of this preset, so the
        # algebraic ratio is infinite and no pinch direction exists;
        # dissipativity must be probed by other commands
        payload = json_out("interval", preset("example2"), "--format", "json")
        assert payload["numbers"]["nodes"] == 1024
        assert payload["numbers"]["lambda"] == "inf"
        assert payload["numbers"]["full"] is True
        assert payload["witness"] is None
        assert payload["verdict"]["qualifier"] == "necessary-only"

    def test_varying_field_reports_the_pinch_node(self, tmp_path):
        doc = {
            "n": 1,
            "domain": [[0.0, 1.0]],
            "grid": [16],
            "A": [[{"re": "1", "im": "x1"}]],
        }
        path = tmp_path / "ramp.json"
        path.write_text(json.dumps(doc), encoding="ascii")
        payload = json_out("interval", str(path), "--format", "json")
        # the ratio 1/x1 is smallest at the last interior node
        assert payload["numbers"]["lambda"] == pytest.approx(17.0 / 16.0, abs=1e-6)
        assert payload["witness"]["node"] == [pytest.approx(16.0 / 17.0)]
        assert payload["witness"]["xi"] == [1.0]
        pmin, pmax = payload["numbers"]["p_min"], payload["numbers"]["p_max"]
        assert abs(1.0 / pmin + 1.0 / pmax - 1.0) <= 1e-9

    @pytest.mark.parametrize("scale", ["1e155", "1e200", "1e300"])
    def test_the_interval_is_scale_free(self, tmp_path, scale):
        # the condition is homogeneous in A; squared entries past about 1e154
        # overflow, and an inf norm would read the interval as full
        docs = {}
        for name, s in (("unit", "1"), ("large", scale)):
            entries = [[{"re": s, "im": s}, {}], [{}, {"re": s}]]
            doc = {"n": 2, "domain": [[0, 1], [0, 1]], "grid": [8, 8], "A": entries}
            docs[name] = tmp_path / f"{name}.json"
            docs[name].write_text(json.dumps(doc), encoding="ascii")
        unit = json_out("interval", str(docs["unit"]), "--format", "json")["numbers"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            large = json_out("interval", str(docs["large"]), "--format", "json")["numbers"]
            check = json_out("check", str(docs["large"]), "--p", "10", "--format", "json")
        assert large["full"] is False
        assert large["p_min"] == pytest.approx(unit["p_min"], rel=1e-9)
        assert large["p_max"] == pytest.approx(unit["p_max"], rel=1e-9)
        assert check["verdict"]["decision"] is False
        assert check["verdict"]["qualifier"] == "necessary-and-sufficient"

    @pytest.mark.parametrize("entry", ["2^-40", "2^40"])
    def test_a_power_of_two_multiple_has_the_same_report_numbers(self, tmp_path, entry):
        unit = json_out("interval", write_doc(tmp_path, "unit", unit_diagonal_doc("1")), "--format", "json")
        other = json_out("interval", write_doc(tmp_path, "other", unit_diagonal_doc(entry)), "--format", "json")
        assert unit["numbers"]["full"] is False
        for section in ("verdict", "numbers", "witness"):
            assert other[section] == unit[section]

    def test_subnormal_entries_get_a_finite_interval(self, tmp_path):
        doc = {"n": 1, "domain": [[0, 1]], "grid": [8], "A": [[{"re": "1e-310", "im": "1e-310"}]]}
        numbers = json_out("interval", write_doc(tmp_path, "subnormal", doc), "--format", "json")["numbers"]
        assert numbers["full"] is False
        assert numbers["lambda"] == pytest.approx(1.0, rel=1e-9)

    def test_constant_interval_has_a_single_node(self):
        payload = json_out("interval", preset("example3"), "--format", "json")
        assert payload["numbers"]["nodes"] == 1
        assert payload["numbers"]["p_max"] == pytest.approx(4.0, abs=1e-6)
        # example 3 sits on p = 4, where check holds: the interval keeps it
        assert payload["numbers"]["p_max"] >= 4.0
        assert json_out("check", preset("example3"), "--p", "4", "--format", "json")["verdict"]["decision"] is True


class TestConstant:
    def test_endpoint_equality_case(self):
        payload = json_out("constant", preset("example3"), "--p", "4", "--format", "json")
        assert payload["verdict"]["decision"] is True
        assert payload["verdict"]["reason"] is None
        assert abs(payload["numbers"]["margin"]) <= 1e-9
        assert abs(payload["numbers"]["corollary_margin"]) <= 1e-9
        assert payload["witness"]["V"] == [-1.0]
        assert payload["notes"] == []

    def test_constant_c_is_folded_into_the_drift(self, tmp_path):
        doc = {
            "n": 1,
            "domain": [[0.0, 1.0]],
            "grid": [16],
            "A": [[{"re": "1"}]],
            "c": [{"im": "1"}],
            "a": {"re": "-1"},
        }
        path = tmp_path / "folded.json"
        path.write_text(json.dumps(doc), encoding="ascii")
        payload = json_out("constant", str(path), "--p", "2", "--format", "json")
        assert any("folded" in note for note in payload["notes"])
        assert payload["witness"]["V"] == [-0.5]


class TestSufficiency:
    def test_negative_certificate_on_the_skew_preset(self):
        payload = json_out("sufficiency", preset("example1"), "--p", "2", "--format", "json")
        assert payload["verdict"]["decision"] is False
        assert payload["verdict"]["criterion"] == "q_sufficient"
        assert payload["numbers"]["min_eigenvalue"] < 0.0
        assert payload["witness"] is not None

    def test_splitting_weights_are_threaded_through(self):
        payload = json_out(
            "sufficiency", preset("laplacian1d"), "--p", "2",
            "--alpha", "0.5", "--beta", "0.25", "--format", "json",
        )
        assert payload["inputs"]["alpha"] == 0.5
        assert payload["inputs"]["beta"] == 0.25
        assert payload["verdict"]["decision"] is True

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option", ["--alpha", "--beta"])
    def test_a_non_finite_weight_exits_two(self, option, value):
        # "--alpha=-inf": a separate "-inf" would read as an option
        code, out, err = run_cli("sufficiency", preset("example2"), "--p", "2", f"{option}={value}")
        assert code == 2
        assert out == ""
        assert err == f"error: splitting weight {option[2:]} must be finite, got {float(value)!r}\n"

    @pytest.mark.parametrize("im12", ["3*x1^2", "0.5*x1^2"])
    def test_field_with_lower_order_terms_matches_a_per_node_loop(self, tmp_path, im12):
        # with the larger Im A entry some matrices are not PSD; with the
        # smaller one every node has a finite minimum, some negative
        doc = {
            "n": 2,
            "domain": [[0.0, 1.0], [0.0, 1.0]],
            "grid": [10, 10],
            "A": [[{"re": "1+x2"}, {"im": im12}], [{"im": "0.2"}, {"re": "1"}]],
            "b": [{"re": "x1", "im": "0.5*x2"}, {"im": "-0.3"}],
            "c": [{"re": "0.2"}, {"im": "x1*x2"}],
            "a": {"re": "2*x2 - 1.5", "im": "1"},
        }
        path = tmp_path / "lower_order.json"
        path.write_text(json.dumps(doc), encoding="ascii")
        spec = spec_from_dict(doc)
        pts = Grid.from_spec(spec).points()
        sam = sample_operator(spec, pts)
        qs = [
            q_sufficiency(sam.A[j], sam.b[j], sam.c[j], sam.a[j], sam.div_b[j], sam.div_c[j], 3.0, 0.5, 0.25)
            for j in range(len(pts))
        ]
        ok = [q.ok for q in qs]
        first = ok.index(False)
        assert first > 0 and sum(ok) > len(ok) // 2
        assert any(not q.ok and q.min_value > -math.inf for q in qs)
        min_value = min(q.min_value for q in qs)
        assert (min_value == -math.inf) == (im12 == "3*x1^2")
        payload = json_out(
            "sufficiency", str(path), "--p", "3", "--alpha", "0.5", "--beta", "0.25", "--format", "json",
        )
        assert payload["verdict"]["decision"] is False
        assert payload["witness"]["node"] == pts[first].tolist()
        numbers = payload["numbers"]
        assert numbers["nodes"] == len(pts)
        assert numbers["min_eigenvalue"] == min(q.min_eig for q in qs)
        assert numbers["max_linear_residual"] == max(
            [0.0] + [q.linear_residual for q in qs if not math.isnan(q.linear_residual)]
        )
        assert numbers["min_value"] == ("-inf" if min_value == -math.inf else min_value)


class TestFalsify:
    def test_counterexample_report(self):
        payload = json_out(
            "falsify", preset("example2"), "--p", "2",
            "--budget", "1500", "--seed", "0", "--format", "json",
        )
        assert payload["verdict"]["decision"] is False
        assert payload["verdict"]["criterion"] == "falsified"
        assert payload["numbers"]["value"] < 0.0
        assert payload["numbers"]["evaluations"] <= 1500
        assert payload["witness"]["family_name"] == "plane_wave"

    def test_no_finding_is_an_open_verdict(self):
        payload = json_out(
            "falsify", preset("example1"), "--p", "2",
            "--budget", "500", "--seed", "0", "--format", "json",
        )
        assert payload["verdict"]["decision"] is None
        assert payload["verdict"]["qualifier"] == "no-counterexample-found"
        assert payload["witness"] is None


class TestSimulate:
    def test_heat_flow_report(self):
        payload = json_out(
            "simulate", preset("laplacian1d"), "--p", "2",
            "--dt", "1e-4", "--t-end", "5e-3", "--format", "json",
        )
        assert payload["verdict"]["decision"] is True
        assert payload["verdict"]["criterion"] == "simulated"
        assert payload["numbers"]["steps"] == 50
        assert payload["numbers"]["omega_estimate"] == 0.0
        assert payload["numbers"]["norm_final"] < payload["numbers"]["norm_initial"]

    def test_an_exponent_past_the_norm_range_exits_two(self):
        # |u|^p of the largest entry would underflow past p = 1022, and the
        # norm would read 0
        code, out, err = run_cli(
            "simulate", preset("laplacian1d"), "--p", "2000", "--dt", "1e-3", "--t-end", "1e-2",
        )
        assert (code, out) == (2, "")
        assert err == "error: norm exponent must be finite and >= 1, at most 1022, got 2000.0\n"

    def test_trace_csv_is_written(self, tmp_path):
        out_csv = tmp_path / "trace.csv"
        payload = json_out(
            "simulate", preset("laplacian1d"), "--p", "2",
            "--dt", "1e-3", "--t-end", "1e-2",
            "--trace-csv", str(out_csv), "--format", "json",
        )
        assert payload["inputs"]["trace_csv"] is True
        lines = out_csv.read_text(encoding="ascii").splitlines()
        assert lines[0] == "t,norm_p"
        assert len(lines) == 12  # header + 11 samples


class TestExamples:
    def test_skew_field_walkthrough(self):
        payload = json_out("examples", "--id", "1", "--format", "json")
        assert payload["verdict"]["decision"] is True
        assert payload["verdict"]["criterion"] == "eq24_pointwise"
        numbers = payload["numbers"]
        assert numbers["condition_p1.5"] and numbers["condition_p2"] and numbers["condition_p4"]
        assert numbers["sufficiency_p2"] is False
        assert numbers["falsify_found"] is False

    def test_quasi_contraction_walkthrough(self):
        payload = json_out("examples", "--id", "2", "--format", "json")
        assert payload["verdict"]["decision"] is False
        assert payload["verdict"]["criterion"] == "falsified"
        assert payload["verdict"]["growth_criterion"] == "w0_quasi"
        numbers = payload["numbers"]
        assert numbers["condition_p2"] is True
        assert numbers["falsify_found"] is True
        assert numbers["omega_estimate"] > 0.0
        assert numbers["nonincreasing"] is False

    def test_constant_endpoint_walkthrough(self):
        payload = json_out("examples", "--id", "3", "--format", "json")
        assert payload["verdict"]["decision"] is True
        assert payload["verdict"]["criterion"] == "const_coeff"
        assert abs(payload["numbers"]["margin"]) <= 1e-9
        assert payload["numbers"]["p_max"] == pytest.approx(4.0, abs=1e-6)


class TestGoldens:
    """Byte comparisons against committed reports.

    Regenerate with GOLDEN_BLESS=1 after an intentional output change
    and review the diff.
    """

    @pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_report_bytes_are_stable(self, name, argv):
        code, out, err = run_cli(*argv)
        assert code == 0, err
        path = GOLDEN_DIR / name
        if os.environ.get("GOLDEN_BLESS") == "1":
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(out.encode("utf-8"))
        assert out.encode("utf-8") == path.read_bytes()
