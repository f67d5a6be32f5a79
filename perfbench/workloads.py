"""The three workloads: seeded operator documents and the requests on them.

``build(name, seed, docdir)`` returns one round: a fixed list of
requests whose make-up (kinds, sizes, exponents' positions relative to
the admissible interval) is the same for every seed, while the seed
picks the coefficient values, exponents and falsifier seeds.  A run
repeats whole rounds, so every run attempts the same mix.

A request is run by ``run()``, which calls the program, and checked by
``check(output)``, which returns ``(work, reason)``: the request's work
count (coefficient nodes decided, functional evaluations or implicit
Euler steps) and None or the reason the output is wrong.  One unit of
work covers ``unit_nodes`` nodes: 1 for a coefficient node, the grid
size for an evaluation or a step.  Checks use ``checks`` and never the
program.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

from dissipate import cli, coeffspec, formcheck, semigroup

import checks

# Operators with known falsifier answers, copied from the package's
# bundled presets so the benchmark owns its inputs.
EXAMPLE1 = {
    "n": 2, "domain": [[0.0, 1.0], [0.0, 1.0]], "grid": [32, 32],
    "A": [[{"re": "1"}, {"im": "3"}], [{"im": "-3"}, {"re": "1"}]],
}
EXAMPLE2 = {
    "n": 2, "domain": [[0.0, 1.0], [0.0, 1.0]], "grid": [32, 32],
    "A": [
        [{"re": "1"},
         {"im": "-944*(2*x1 - 1)/(1 - (2*x1 - 1)^2)^2*bump(2*x1 - 1)^2*bump(2*x2 - 1)^2"}],
        [{"im": "944*(2*x1 - 1)/(1 - (2*x1 - 1)^2)^2*bump(2*x1 - 1)^2*bump(2*x2 - 1)^2"},
         {"re": "1"}],
    ],
}
ONE_PLUS_I_LAPLACIAN = {
    "n": 1, "domain": [[0.0, 1.0]], "grid": [64],
    "A": [[{"re": "1", "im": "1"}]],
}

FALSIFY_BUDGET_KNOWN = 300
FALSIFY_BUDGET_FIELD = 100
EVOLVE_STEPS = 25


class Request:
    __slots__ = ("name", "run", "check", "unit_nodes")

    def __init__(self, name, run, check, unit_nodes):
        self.name = name
        self.run = run
        self.check = check
        self.unit_nodes = unit_nodes  # nodes one unit of the request's work covers


def _num(v):
    return f"{v:.6f}"


def _entry(re=0.0, im=0.0):
    out = {}
    if re != 0.0:
        out["re"] = _num(re)
    if im != 0.0:
        out["im"] = _num(im)
    return out


def _rounded(x):
    return np.vectorize(lambda v: float(_num(v)))(x) if np.ndim(x) else float(_num(x))


def _node_ratios(A_nodes):
    """Exponent ratio at each node (numpy, batched), for choosing inputs."""
    S_r = 0.5 * (A_nodes.real + A_nodes.real.transpose(0, 2, 1))
    S_i = 0.5 * (A_nodes.imag + A_nodes.imag.transpose(0, 2, 1))
    Li = np.linalg.inv(np.linalg.cholesky(S_r))
    w = np.linalg.eigvalsh(Li @ S_i @ Li.transpose(0, 2, 1))
    return 1.0 / np.abs(w).max(axis=1)


def _exponents(rng, lam_min, lam_max):
    """Two exponents inside every node's interval and one outside all of
    them, so that ``check`` decides every node or fails at the first."""
    p_min, p_max = checks.interval(lam_min)
    p_in = [math.exp((1.0 - t) * math.log(p_min) + t * math.log(p_max))
            for t in rng.uniform(0.2, 0.8, 2)]
    p_min, p_max = checks.interval(lam_max)
    if p_min > 1.05 and rng.uniform() < 0.5:
        p_out = 1.0 + (p_min - 1.0) * rng.uniform(0.3, 0.8)
    else:
        p_out = p_max * rng.uniform(1.2, 2.0)
    return [round(float(p), 6) for p in p_in], round(float(p_out), 6)


# ----------------------------------------------------------------------
# verdicts: CLI requests on constant and variable fields


def _constant_doc(rng, n, dissipative):
    """Constant coefficients with drift and zero order terms.  Im A is
    symmetric, so at an exponent inside the interval the sufficiency
    matrix is semidefinite and every request takes the same path through
    the program whatever the seed; Re a sets the sign of the closed-form
    margin, with room to spare either way."""
    r = rng.uniform(0.5, 2.0, n)
    re = np.diag(r)
    im = np.zeros((n, n))
    for i in range(n):
        im[i, i] = rng.uniform(-1.0, 1.0)
        for j in range(i + 1, n):
            re[i, j] = re[j, i] = rng.uniform(-0.3, 0.3) * math.sqrt(r[i] * r[j])
            im[i, j] = im[j, i] = rng.uniform(-1.0, 1.0)
            skew = rng.uniform(-0.5, 0.5)
            re[i, j] += skew
            re[j, i] -= skew
    im *= rng.uniform(0.2, 1.5)
    re, im = _rounded(re), _rounded(im)
    imb, reb = _rounded(rng.uniform(-1.0, 1.0, n)), _rounded(rng.uniform(-1.0, 1.0, n))
    S_r = 0.5 * (re + re.T)
    q = float(imb @ np.linalg.solve(S_r, imb))
    margin = rng.uniform(0.2, 1.0) * (1.0 + q)
    re_a = _rounded((-q - margin) / 4.0 if dissipative else (-q + margin) / 4.0)
    im_a = _rounded(rng.uniform(-1.0, 1.0))
    return {
        "n": n,
        "domain": [[0.0, 1.0]] * n,
        "grid": [8] * n,
        "A": [[_entry(re[i, j], im[i, j]) for j in range(n)] for i in range(n)],
        "b": [_entry(reb[k], imb[k]) for k in range(n)],
        "a": _entry(re_a, im_a),
    }


def _variable_doc(rng, n, grid, lam_min=1.1):
    """Re A diagonal, positive and variable; Im A symmetric and variable,
    nonzero only next to the diagonal.

    That pattern gives the pencil (Im A, Re A) a spectrum symmetric about
    zero, so both pencils the program bisects on go indefinite at once,
    and Im A is scaled so that the exponent ratio runs from ``lam_min`` to
    below twice that over the grid.  Both keep the program's work per
    node the same for every seed."""
    re = []
    for k in range(n):
        alpha, beta = rng.uniform(0.8, 1.5), rng.uniform(0.0, 0.25)
        re.append(f"{_num(alpha)}+{_num(beta)}*x{k + 1}^2")
    shapes = []
    for k in range(n - 1):
        weight, w, phi = rng.uniform(0.5, 1.0), rng.uniform(1.0, 4.0), rng.uniform(0.0, 2.0 * math.pi)
        var = int(rng.integers(1, n + 1))
        shapes.append((weight, f"(1+0.1*sin({_num(w)}*x{var}+{_num(phi)}))"))

    def doc_with(scale):
        A = [[{} for _ in range(n)] for _ in range(n)]
        for k in range(n):
            A[k][k]["re"] = re[k]
        for k, (weight, shape) in enumerate(shapes):
            A[k][k + 1]["im"] = A[k + 1][k]["im"] = f"{_num(scale * weight)}*{shape}"
        return {"n": n, "domain": [[0.0, 1.0]] * n, "grid": [grid] * n, "A": A}

    nodes = tuple(m.reshape(-1) for m in checks.node_meshes(doc_with(1.0)))
    unit = _node_ratios(checks.coefficients(doc_with(1.0), nodes)[0]).min()
    return doc_with(unit / lam_min)


def _cli_request(name, argv, check, nodes):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv + ["--format", "json"])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return code, buf.getvalue()

    def checked(out):
        code, text = out
        if code != 0:
            return 0, f"exit code {code}"
        report = json.loads(text)
        decided = int(report["numbers"].get("nodes", 1))
        if decided != nodes:
            return decided, f"{decided} nodes decided, expected {nodes}"
        return decided, check(report)

    return Request(name, run, checked, 1)


def _verdict_requests(rng, doc, path, constant, with_interval=True):
    """interval, check inside and outside the interval, and constant and
    sufficiency on constant coefficients or a second check inside on
    variable ones."""
    nodes_xs = checks.verdict_nodes(doc, constant)
    nodes = nodes_xs[0].size
    lams = _node_ratios(checks.coefficients(doc, nodes_xs)[0])
    (p_in, p_in2), p_out = _exponents(rng, lams.min(), lams.max())
    cache = {}

    def indep():
        # the independent answers, computed once per document on first use
        if not cache:
            A, b, c, a = checks.coefficients(doc, nodes_xs)
            cache["lam"] = checks.ratio(A)
            if constant:
                cache["margin"] = checks.constant_margin(0.5 * (A[0] + A[0].T), b[0] + c[0], a[0])
        return cache

    tag = f"{doc['n']}d-{'const' if constant else 'var'}"
    reqs = []
    if with_interval:
        reqs.append(_cli_request(f"interval/{tag}", ["interval", path],
                                 lambda r: checks.check_interval(r, indep()["lam"]), nodes))
    reqs += [
        _cli_request(f"check-in/{tag}", ["check", path, "--p", repr(p_in)],
                     lambda r: checks.check_condition(r, indep()["lam"], p_in), nodes),
        _cli_request(f"check-out/{tag}", ["check", path, "--p", repr(p_out)],
                     lambda r: checks.check_condition(r, indep()["lam"], p_out), nodes),
    ]
    if not constant:
        # a second exponent inside: the tail of the latency distribution
        # then falls among these requests, whose work is the same every run
        reqs.append(_cli_request(f"check-in/{tag}", ["check", path, "--p", repr(p_in2)],
                                 lambda r: checks.check_condition(r, indep()["lam"], p_in2), nodes))
    if constant:
        reqs.append(_cli_request(
            f"constant/{tag}", ["constant", path, "--p", repr(p_in)],
            lambda r: checks.check_constant(r, indep()["lam"], indep()["margin"], p_in), 1))
        reqs.append(_cli_request(
            f"sufficiency/{tag}", ["sufficiency", path, "--p", repr(p_in)],
            lambda r: checks.check_sufficiency(r, indep()["lam"], p_in), nodes))
    return reqs


def build_verdicts(seed, docdir):
    """15 constant documents (n = 1, 2, 3) with 5 requests each, four
    variable 2D fields with interval and three checks, and one variable
    3D field with three checks.  The 3D field's interval request is left out:
    it bisects 512 nodes for about 4 s, a single request too long to
    correct for the host's drift within it, and it would make a round
    three times longer.  The round runs in a fixed shuffled order, so
    that small and large requests alternate and share calibrations.

    Of the 94 requests, the 10% slowest are the 2D intervals, the 3D
    checks inside and some of the 2D checks inside: the 90th percentile
    falls inside that last group, away from its edges."""
    rng = np.random.default_rng([seed, 1])
    docs = []
    for n in (1, 2, 3):
        for k in range(5):
            docs.append((_constant_doc(rng, n, dissipative=k % 2 == 0), True))
    for _ in range(4):
        docs.append((_variable_doc(rng, 2, 8), False))
    docs.append((_variable_doc(rng, 3, 8), False))
    reqs = []
    for i, (doc, constant) in enumerate(docs):
        path = os.path.join(docdir, f"verdicts-{i:02d}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)
        reqs.extend(_verdict_requests(rng, doc, path, constant, with_interval=doc["n"] < 3 or constant))
    order = np.random.default_rng(0).permutation(len(reqs))
    return [reqs[i] for i in order]


# ----------------------------------------------------------------------
# falsify: the counterexample search through the library


def _falsify_request(name, doc, p, budget, fseed, expected_found):
    def run():
        spec = coeffspec.spec_from_dict(doc)
        return formcheck.falsify(spec, p, budget=budget, seed=fseed)

    def check(res):
        return res.evaluations, checks.check_falsify(res, doc, expected_found)

    return Request(name, run, check, math.prod(doc["grid"]))


def build_falsify(seed, docdir):
    """Known answers with a fixed falsifier seed, so that their cost is
    the same in every run, and seeded variable fields."""
    rng = np.random.default_rng([seed, 2])
    known = [
        ("example1/p2", EXAMPLE1, 2.0, False),
        ("example1/p4", EXAMPLE1, 4.0, False),
        ("example2/p2", EXAMPLE2, 2.0, True),
        ("one_plus_i/p12", ONE_PLUS_I_LAPLACIAN, 12.0, True),
        ("one_plus_i/p4", ONE_PLUS_I_LAPLACIAN, 4.0, False),
    ]
    reqs = [_falsify_request(name, doc, p, FALSIFY_BUDGET_KNOWN, 0, found)
            for name, doc, p, found in known]
    # The ratio is at least 1.1 at every node, so exponents in [1.5, 4]
    # lie well inside the admissible interval [1.15, 7.69]; with Im A
    # symmetric and no lower order terms the discrete functional is then
    # positive at every node: there is nothing to find.
    for n, grid in ((2, 64), (3, 16)):
        doc = _variable_doc(rng, n, grid)
        p = round(float(rng.uniform(1.5, 4.0)), 6)
        reqs.append(_falsify_request(f"field{n}d", doc, p, FALSIFY_BUDGET_FIELD, 0, False))
    return reqs


WORKER_CHECK_REQUEST = 2  # example2 at p = 2, which finds a witness


def falsify_worker_check(requests, first_outputs):
    """Rerun one falsifier request with two workers, outside the timed
    part; its result must be identical to the one-worker run's."""
    one = first_outputs[WORKER_CHECK_REQUEST]
    if isinstance(one, Exception):
        return None  # the one-worker run failed and is counted already
    os.environ["DISSIPATE_WORKERS"] = "2"
    try:
        two = requests[WORKER_CHECK_REQUEST].run()
    finally:
        os.environ["DISSIPATE_WORKERS"] = "1"
    reason = checks.same_falsify(one, two)
    if reason is not None:
        return f"{requests[WORKER_CHECK_REQUEST].name} with 2 workers: {reason}"
    return None


# ----------------------------------------------------------------------
# evolve: assembly, LU and implicit Euler steps


def _evolve_request(name, doc, u0, dt, p, check):
    t_end = EVOLVE_STEPS * dt

    def run():
        spec = coeffspec.spec_from_dict(doc)
        op = semigroup.discretize(spec)
        return op, semigroup.evolve(op, u0, dt, t_end, p)

    def checked(out):
        op, trace = out
        return len(trace.norms) - 1, check(op, trace)

    return Request(name, run, checked, math.prod(doc["grid"]))


def _eigen_request(rng, shape, p):
    n = len(shape)
    kappa = _rounded(rng.uniform(0.5, 2.0))
    lengths = [_rounded(rng.uniform(0.8, 1.25)) for _ in range(n)]
    doc = {
        "n": n,
        "domain": [[0.0, L] for L in lengths],
        "grid": list(shape),
        "A": [[{"re": _num(kappa)} if i == j else {} for j in range(n)] for i in range(n)],
    }
    u0, mu = checks.first_eigen(doc)
    dt = rng.uniform(0.02, 0.1) / mu

    def check(op, trace):
        return checks.check_eigen_trace(trace, doc, u0, dt, EVOLVE_STEPS, p)

    name = f"eigen{'x'.join(map(str, shape))}/p{p:g}"
    return _evolve_request(name, doc, u0, dt, p, check)


def _field_request(rng, shape):
    """Variable Re A and Im A with an imaginary drift, damped by a zero
    order term large enough that the Hermitian part stays negative."""
    doc = _variable_doc(rng, len(shape), shape[0])
    imb = _rounded(rng.uniform(-2.0, 2.0, len(shape)))
    reb = _rounded(rng.uniform(-1.0, 1.0, len(shape)))
    doc["b"] = [_entry(reb[k], imb[k]) for k in range(len(shape))]
    doc["a"] = _entry(_rounded(-(float(imb @ imb) / 3.2 + rng.uniform(0.5, 2.0))))
    u0 = np.ones(tuple(shape))
    for mesh in checks.node_meshes(doc):
        u0 = u0 * checks.bump(2.0 * mesh - 1.0)
    dt = rng.uniform(0.5e-3, 2e-3)
    weight = checks.cell_weight(doc)

    def check(op, trace):
        return checks.check_contraction(trace, op.matrix, u0, weight)

    return _evolve_request(f"field{'x'.join(map(str, shape))}/p2", doc, u0, dt, 2.0, check)


def build_evolve(seed, docdir):
    rng = np.random.default_rng([seed, 3])
    return [
        _eigen_request(rng, (32, 32), 2.0),
        _field_request(rng, (32, 32)),
        _eigen_request(rng, (64, 64), 4.0),
        _field_request(rng, (64, 64)),
        _field_request(rng, (64, 64)),
        _eigen_request(rng, (128, 128), 2.0),
        _eigen_request(rng, (16, 16, 16), 2.0),
        _eigen_request(rng, (16, 16, 16), 4.0),
    ]


ROUNDS = {"verdicts": build_verdicts, "falsify": build_falsify, "evolve": build_evolve}


def build(name, seed, docdir):
    return ROUNDS[name](seed, docdir)
