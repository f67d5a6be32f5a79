"""Command line front end.

Subcommands::

    dissipate check <spec.json> --p 3 [--strict]   pointwise algebraic condition
    dissipate interval <spec.json>                 admissible exponent interval
    dissipate constant <spec.json> --p 4           constant coefficient verdict
    dissipate sufficiency <spec.json> --p 2        quadratic form sufficiency
    dissipate falsify <spec.json> --p 2 --budget 5000 --seed 7
    dissipate simulate <spec.json> --p 2 --dt 1e-4 --t-end 0.05 [--trace-csv out.csv]
    dissipate examples --id 1|2|3                  bundled worked operators

``--format json|text`` is accepted both before and after the subcommand.
Exit codes: 0 analysis completed (whatever the verdict), 1 verdict "not
dissipative" under ``check --strict``, 2 input error.  Reports echo the
normalized inputs and a content digest of the operator document, never
file paths, so output is byte-stable across checkouts.

Every subcommand takes one path through ``main``: load the document (the
``spec`` file, or the bundled preset of ``examples --id``), build the
spec, validate ``--p`` where the subcommand has it, run the handler, and
render the report under the document's digest.  Input errors surface in
that order: a bad document before a bad exponent, and both before any
sampling.  A handler maps ``(spec, p, args)`` to
``(sections, exit_code)``, where ``sections`` holds the report's
``inputs``, ``verdict`` and ``numbers`` and, when it has them, its
``witness`` and ``notes``; ``p`` is None for subcommands without ``--p``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from importlib import resources

import numpy as np

from .coeffspec import (
    EvalDomainError,
    ExprError,
    SpecError,
    bump,
    load_doc,
    sample_operator,
    spec_from_dict,
)
from .formcheck import _FAMILY_NAMES, falsify
from .grids import Grid, GridFunction
from .pointwise import (
    NonnegativityError,
    _validate_p,
    constant_coeff_verdict,
    decompose,
    lambda_of,
    p_condition_nodes,
    p_interval,
    q_sufficiency,
    violating_direction,
)
from .report import render_report, spec_digest
from .semigroup import discretize, estimate_omega, evolve
from .version import __version__

__all__ = ["main"]


def load_preset(name):
    """Parsed document of a bundled operator JSON (presets/<name>.json)."""
    ref = resources.files("dissipate") / "presets" / f"{name}.json"
    return json.loads(ref.read_text(encoding="ascii"))


def _field_samples(spec):
    """Coefficient samples for field verdicts: every interior grid node,
    or the box center when all coefficients are constant."""
    if spec.is_constant:
        pts = np.array([[0.5 * (lo + hi) for lo, hi in spec.domain]])
    else:
        pts = Grid.from_spec(spec).points()
    return sample_operator(spec, pts), pts


def _condition_everywhere(sam, p):
    """All-nodes pointwise condition; returns (holds, first_bad_index)."""
    holds = p_condition_nodes(decompose(sam.A), p)
    bad = int(np.argmin(holds))
    if holds[bad]:
        return True, None
    return False, bad


def _im_symmetric(sam):
    im = sam.A.imag
    skew = np.abs(im - im.transpose(0, 2, 1)).max(initial=0.0)
    return skew <= 1e-14 * (1.0 + np.abs(im).max(initial=0.0))


def _qualifier(spec, sam):
    if _im_symmetric(sam) and not spec.has_lower_order_terms:
        return "necessary-and-sufficient"
    return "necessary-only"


def _canonical_bump(grid):
    vals = np.ones(grid.shape)
    for lo, hi, mesh in zip(grid.lo, grid.hi, grid.meshes()):
        vals = vals * bump((2.0 * mesh - lo - hi) / (hi - lo))
    return GridFunction(grid, vals)


# ----------------------------------------------------------------------
# subcommand handlers (each returns (sections, exit_code))


def _cmd_check(spec, p, args):
    sam, pts = _field_samples(spec)
    holds, bad = _condition_everywhere(sam, p)
    qualifier = _qualifier(spec, sam)
    if not holds:
        dissipative = False
    elif qualifier == "necessary-and-sufficient":
        dissipative = True
    else:
        dissipative = None
    witness = None
    if bad is not None:
        witness = {
            "node": [float(v) for v in pts[bad]],
            "xi": violating_direction(decompose(sam.A[bad]), p).tolist(),
        }
    return dict(
        inputs={"p": p, "strict": bool(args.strict)},
        verdict={
            "decision": holds,
            "criterion": "eq24_pointwise",
            "qualifier": qualifier,
            "dissipative": dissipative,
        },
        numbers={"nodes": int(sam.A.shape[0])},
        witness=witness,
    ), (1 if args.strict and not holds else 0)


def _cmd_interval(spec, p, args):
    sam, pts = _field_samples(spec)
    res = lambda_of(decompose(sam.A))
    lam = res.lam
    itv = p_interval(lam)
    witness = None
    if res.witness_xi is not None:
        witness = {"xi": list(res.witness_xi)}
        if sam.A.shape[0] > 1:
            witness["node"] = [float(v) for v in pts[res.node]]
    return dict(
        inputs={},
        verdict={
            "decision": lam > 0.0,
            "criterion": "eq24_pointwise",
            "qualifier": _qualifier(spec, sam),
        },
        numbers={
            "lambda": lam,
            "p_min": itv.p_min,
            "p_max": itv.p_max,
            "full": itv.is_full,
            "nodes": int(sam.A.shape[0]),
        },
        witness=witness,
    ), 0


def _constant_sections(sam, p):
    """Verdict, numbers and witness sections of the constant coefficient
    decision on the single-node samples of a constant operator."""
    b_eff = sam.b[0] + sam.c[0]  # constant c acts as a drift: div(c u) = c . grad u
    v = constant_coeff_verdict(sam.A[0], b_eff, sam.a[0], p)
    return dict(
        verdict={"decision": v.ok, "criterion": "const_coeff", "reason": v.reason},
        numbers={"margin": v.margin, "corollary_margin": v.corollary_margin, "residual": v.residual},
        witness={"V": list(v.V)} if v.V is not None else None,
    )


def _cmd_constant(spec, p, args):
    if not spec.is_constant:
        raise SpecError("$", "constant verdict needs constant coefficients")
    sam, _ = _field_samples(spec)
    notes = ()
    if np.any(sam.c[0] != 0.0):
        notes = ("constant c folded into the drift term",)
    return dict(inputs={"p": p}, **_constant_sections(sam, p), notes=notes), 0


def _cmd_sufficiency(spec, p, args):
    sam, pts = _field_samples(spec)
    q = q_sufficiency(sam.A, sam.b, sam.c, sam.a, sam.div_b, sam.div_c, p, args.alpha, args.beta)
    bad = int(np.argmin(q.ok))
    witness = None if q.ok[bad] else {"node": [float(v) for v in pts[bad]]}
    return dict(
        inputs={"p": p, "alpha": float(args.alpha), "beta": float(args.beta)},
        verdict={"decision": witness is None, "criterion": "q_sufficient"},
        numbers={
            "nodes": int(sam.A.shape[0]),
            # the first of equal minima, so that -0.0 and 0.0 keep node order
            "min_eigenvalue": float(q.min_eig[np.argmin(q.min_eig)]),
            "max_linear_residual": float(np.fmax.reduce(q.linear_residual, initial=0.0)),
            "min_value": float(q.min_value[np.argmin(q.min_value)]),
        },
        witness=witness,
    ), 0


def _falsify_witness(res):
    """Witness section of a falsifier result: the probe that went negative."""
    return {
        "family": res.family,
        "family_name": _FAMILY_NAMES[res.family],
        "start_index": res.start_index,
        "params": res.params,
    }


def _cmd_falsify(spec, p, args):
    res = falsify(spec, p, budget=args.budget, seed=args.seed)
    verdict = {
        "decision": False if res.found else None,
        "criterion": "falsified",
    }
    if not res.found:
        verdict["qualifier"] = "no-counterexample-found"
    return dict(
        inputs={"p": p, "budget": int(args.budget), "seed": int(args.seed)},
        verdict=verdict,
        numbers={
            "value": res.value,
            "threshold": res.threshold,
            "evaluations": int(res.evaluations),
        },
        witness=_falsify_witness(res) if res.found else None,
    ), 0


def _cmd_simulate(spec, p, args):
    op = discretize(spec)
    u0 = _canonical_bump(op.grid)
    trace = evolve(op, u0, dt=args.dt, t_end=args.t_end, p=p)
    if args.trace_csv:
        trace.write_csv(args.trace_csv)
    noninc = trace.nonincreasing(per_step_tol=1e-10)
    return dict(
        inputs={
            "p": p,
            "dt": float(args.dt),
            "t_end": float(args.t_end),
            "trace_csv": bool(args.trace_csv),
        },
        verdict={"decision": noninc, "criterion": "simulated"},
        numbers={
            "steps": int(len(trace.norms) - 1),
            "norm_initial": float(trace.norms[0]),
            "norm_final": float(trace.norms[-1]),
            "fitted_rate": trace.fitted_rate(),
            "omega_estimate": estimate_omega(trace),
        },
    ), 0


def _example_skew_field(spec):
    """Dissipative for every p, yet the quadratic sufficiency route and
    the falsifier both (correctly) stay quiet about the other side."""
    sam, _ = _field_samples(spec)
    numbers = {}
    all_hold = True
    for p in (1.5, 2.0, 4.0):
        holds, _ = _condition_everywhere(sam, p)
        numbers[f"condition_p{p:g}"] = holds
        all_hold = all_hold and holds
    q = q_sufficiency(sam.A, sam.b, sam.c, sam.a, sam.div_b, sam.div_c, 2.0)
    fr = falsify(spec, 2.0, budget=600, seed=0)
    numbers.update(
        {
            "sufficiency_p2": bool(q.ok.all()),
            "falsify_found": fr.found,
            "falsify_value": fr.value,
            "falsify_evaluations": int(fr.evaluations),
        }
    )
    return dict(
        inputs={"id": 1, "p": [1.5, 2.0, 4.0]},
        verdict={
            "decision": all_hold,
            "criterion": "eq24_pointwise",
            "qualifier": _qualifier(spec, sam),
        },
        numbers=numbers,
        notes=(
            "pointwise condition holds at every node for each tested p",
            "quadratic sufficiency fails at p = 2 although the operator dissipates",
        ),
    )


def _example_quasi_only(spec):
    """Pointwise condition satisfied, yet a wave probe drives the form
    negative: dissipative only up to a finite positive growth bound."""
    sam, _ = _field_samples(spec)
    holds, _ = _condition_everywhere(sam, 2.0)
    fr = falsify(spec, 2.0, budget=1500, seed=0)
    numbers = {
        "condition_p2": holds,
        "falsify_found": fr.found,
        "falsify_value": fr.value,
        "falsify_evaluations": int(fr.evaluations),
    }
    witness = None
    if fr.found:
        trace = evolve(discretize(spec), fr.witness, dt=1e-4, t_end=0.02, p=2.0)
        numbers.update(
            {
                "omega_estimate": estimate_omega(trace),
                "nonincreasing": trace.nonincreasing(per_step_tol=1e-10),
                "norm_initial": float(trace.norms[0]),
                "norm_final": float(trace.norms[-1]),
            }
        )
        witness = _falsify_witness(fr)
    return dict(
        inputs={"id": 2, "p": 2.0},
        verdict={
            "decision": False if fr.found else None,
            "criterion": "falsified",
            "growth_criterion": "w0_quasi",
            "qualifier": _qualifier(spec, sam),
        },
        numbers=numbers,
        witness=witness,
        notes=(
            "pointwise condition is necessary only: it holds although the form goes negative",
            "the evolved counterexample grows at a finite positive rate",
        ),
    )


def _example_constant_endpoint(spec):
    """Constant coefficients sitting exactly on the admissibility edge at p = 4."""
    p = 4.0
    sam, _ = _field_samples(spec)
    sections = _constant_sections(sam, p)
    res = lambda_of(decompose(sam.A[0]))
    itv = p_interval(res.lam)
    sections["numbers"].update({"lambda": res.lam, "p_min": itv.p_min, "p_max": itv.p_max})
    return dict(
        inputs={"id": 3, "p": p},
        **sections,
        notes=("both verdict clauses sit at exact equality for p = 4",),
    )


def _cmd_examples(spec, p, args):
    build = (_example_skew_field, _example_quasi_only, _example_constant_endpoint)[args.id - 1]
    return build(spec), 0


# ----------------------------------------------------------------------
# parser


@cache
def _build_parser():
    """The argument parser, built on first use and kept for the process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default=None, dest="format_opt",
        help="report rendering (default text)",
    )

    parser = argparse.ArgumentParser(
        prog="dissipate",
        description="Dissipativity analysis of second order operators with complex coefficients.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--format", choices=("json", "text"), default=None, dest="format_root",
        help="report rendering (default text)",
    )
    subs = parser.add_subparsers(dest="cmd")

    spec_arg = argparse.ArgumentParser(add_help=False)
    spec_arg.add_argument("spec", help="operator JSON document")
    p_arg = argparse.ArgumentParser(add_help=False)
    p_arg.add_argument("--p", type=float, required=True, help="Lebesgue exponent")
    with_p = [common, spec_arg, p_arg]

    sub = subs.add_parser("check", parents=with_p, help="pointwise algebraic condition at one exponent")
    sub.add_argument("--strict", action="store_true", help="exit 1 when the condition fails")

    subs.add_parser("interval", parents=[common, spec_arg], help="admissible exponent interval")

    subs.add_parser("constant", parents=with_p, help="constant coefficient verdict with drift and zero order terms")

    sub = subs.add_parser("sufficiency", parents=with_p, help="quadratic form sufficiency with splitting weights")
    sub.add_argument("--alpha", type=float, default=0.0)
    sub.add_argument("--beta", type=float, default=0.0)

    sub = subs.add_parser("falsify", parents=with_p, help="search for a test function violating the form")
    sub.add_argument("--budget", type=int, default=2000, help="evaluation budget")
    sub.add_argument("--seed", type=int, default=0)

    sub = subs.add_parser("simulate", parents=with_p, help="implicit Euler evolution of a bump, tracking the L^p norm")
    sub.add_argument("--dt", type=float, required=True)
    sub.add_argument("--t-end", type=float, required=True)
    sub.add_argument("--trace-csv", default=None, help="write the norm trace as CSV")

    sub = subs.add_parser("examples", parents=[common], help="bundled worked operators")
    sub.add_argument("--id", type=int, choices=(1, 2, 3), required=True)

    return parser


_DISPATCH = {
    "check": _cmd_check,
    "interval": _cmd_interval,
    "constant": _cmd_constant,
    "sufficiency": _cmd_sufficiency,
    "falsify": _cmd_falsify,
    "simulate": _cmd_simulate,
    "examples": _cmd_examples,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.cmd is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        doc = load_preset(f"example{args.id}") if args.cmd == "examples" else load_doc(args.spec)
        spec = spec_from_dict(doc)
        p = _validate_p(args.p) if "p" in args else None
        sections, code = _DISPATCH[args.cmd](spec, p, args)
    except (
        SpecError,
        ExprError,
        EvalDomainError,
        NonnegativityError,
        OverflowError,
        RuntimeError,
        ValueError,
        OSError,
        MemoryError,
    ) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 2
    fmt = getattr(args, "format_opt", None) or args.format_root or "text"
    sys.stdout.write(render_report(args.cmd, spec_digest(doc), sections, fmt))
    return code

if __name__ == "__main__":
    sys.exit(main())
