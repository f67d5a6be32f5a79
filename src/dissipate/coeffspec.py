"""Coefficient fields for scalar second order operators in divergence form.

An operator is described by a JSON document holding, for each coefficient
(matrix A, drift vectors b and c, zero order term a), a pair of real
expression strings ("re"/"im") in the variables x1..xn.  This module owns

  * the small expression language: ``parse_expr`` compiles an expression
    into a postfix program, and ``evaluate`` runs a program at points,
  * loading and validating the JSON document into an OperatorSpec, which
    decides, once per parsed part, whether each field is zero and whether
    it is constant,
  * sampling all coefficient fields (and the divergences of b and c,
    by clipped central differences) at arbitrary points of the box.

Expression grammar::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          right associative
    atom    := NUMBER | 'pi' | VAR | FUNC '(' expr ')' | '(' expr ')'

Precedence is ^ over unary minus over * / over + -, so "-x1^2" means
-(x1^2) and "2^-3" is accepted.  Functions: sin, cos, exp, log, sqrt,
tanh and bump, where bump(r) = exp(-1/(1-r^2)) for |r| < 1 and 0
otherwise (a C^2 compactly supported profile).  The only named constant
is pi.  Variables are x1..xn with n the declared dimension.

A program is a tuple of (op, arg) steps in the order a walk of the
expression's tree would evaluate them, operands before their operator:
("num", value) and ("var", index) push a value, ("neg", None) and
("call", name) replace the top value, and a binary operator ("+", None),
..., ("^", None) replaces the top two.  A part of a document holds at
most EXPR_STEP_CAP steps.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

NODE_CAP = 16384  # interior nodes of a document's grid
EXPR_STEP_CAP = 4096  # steps of one re/im part of a document's entry

__all__ = [
    "ExprError",
    "EvalDomainError",
    "SpecError",
    "parse_expr",
    "evaluate",
    "bump",
    "ComplexField",
    "OperatorSpec",
    "load_doc",
    "spec_from_dict",
    "SampledOperator",
    "sample_operator",
]


class ExprError(ValueError):
    """Syntax or name error in an expression string.

    ``offset`` is the byte offset into the original string at which the
    problem was detected.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """Evaluation left the domain of a partial function (log, sqrt, /, ^).

    ``index`` is the flat index of an offending evaluation point when one
    is known, so callers can report the node coordinates.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


def _first_bad(mask):
    mask = np.asarray(mask)
    return int(np.argmax(mask.reshape(-1))) if mask.ndim else 0


class SpecError(ValueError):
    """Operator document failed validation; ``path`` locates the offender."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


# ----------------------------------------------------------------------
# expression programs


def _divide(a, b):
    zero = np.asarray(b == 0.0)
    if np.any(zero):
        raise EvalDomainError("division by zero", _first_bad(zero))
    return a / b


def _power(a, b):
    # numpy would emit nan for negative base ** fractional, so guard
    # explicitly instead of letting nan through
    aa, bb = np.asarray(a), np.asarray(b)
    frac = (aa < 0.0) & (bb != np.floor(bb))
    if np.any(frac):
        raise EvalDomainError("negative base with non-integer exponent", _first_bad(frac))
    inv0 = (aa == 0.0) & (bb < 0.0)
    if np.any(inv0):
        raise EvalDomainError("zero base with negative exponent", _first_bad(inv0))
    return np.power(a, b)


def _log(t):
    bad = np.asarray(t <= 0.0)
    if np.any(bad):
        raise EvalDomainError("log of non-positive value", _first_bad(bad))
    return np.log(t)


def _sqrt(t):
    bad = np.asarray(t < 0.0)
    if np.any(bad):
        raise EvalDomainError("sqrt of negative value", _first_bad(bad))
    return np.sqrt(t)


def bump(r):
    """C^2 compactly supported profile exp(-1/(1-r^2)) on |r| < 1, else 0."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    inside = np.abs(r) < 1.0
    if inside.any():
        ri = r[inside]
        out[inside] = np.exp(-1.0 / (1.0 - ri * ri))
    if out.ndim == 0:
        return np.float64(out)
    return out


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "^": _power}
# bump is looked up when called, so that a rebound coeffspec.bump is the one run
_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": _log, "sqrt": _sqrt,
          "tanh": np.tanh, "bump": lambda t: bump(t)}


def evaluate(program, xs):
    """The value of a program at the points xs, a nonempty tuple of
    coordinate arrays (or scalars) x1, x2, ...; a partial function outside its
    domain raises EvalDomainError.  The loop keeps its own stack, so the
    caller's stack depth does not matter."""
    stack = []
    for op, arg in program:
        if op == "num":
            stack.append(np.full_like(xs[0], arg))
        elif op == "var":
            stack.append(xs[arg - 1])
        elif op == "neg":
            stack[-1] = -stack[-1]
        elif op == "call":
            stack[-1] = _CALLS[arg](stack[-1])
        else:
            right = stack.pop()
            stack[-1] = _BINARY[op](stack[-1], right)
    return stack.pop()


# ----------------------------------------------------------------------
# tokenizer / parser

_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?").match
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*").match
_LEVELS = (("+", "-"), ("*", "/"))  # left-associative binary levels, loosest first


def _tokenize(text):
    """Split into (value, byte_offset) pairs, the value a float for a
    number and otherwise the name or operator, ending in ("", len(text));
    raise ExprError on junk."""
    if not text.isascii():
        raise ExprError("non-ascii character in expression", 0)
    toks, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch in "+-*/^()":
            toks.append((ch, i))
            i += 1
        elif m := _NUMBER(text, i):
            toks.append((float(m[0]), i))
            i = m.end()
        elif m := _NAME(text, i):
            toks.append((m[0], i))
            i = m.end()
        else:
            raise ExprError(f"unexpected character '{ch}'", i)
    toks.append(("", n))
    return toks


# The parser functions take the tokens reversed: toks[-1] is the next one
# and toks.pop() consumes it.  Each appends its steps to the program out.
def _chain(toks, out, level=0):
    """operand (op operand)* with the operators of _LEVELS[level], the
    operand being the next level, or a unary below the last one."""
    if level == len(_LEVELS):
        return _unary(toks, out)
    _chain(toks, out, level + 1)
    while toks[-1][0] in _LEVELS[level]:
        op, _ = toks.pop()
        _chain(toks, out, level + 1)
        out.append((op, None))


def _unary(toks, out):
    if toks[-1][0] == "-":
        toks.pop()
        _unary(toks, out)
        out.append(("neg", None))
        return
    _atom(toks, out)
    if toks[-1][0] == "^":
        toks.pop()
        # exponent at unary level: 2^-3 parses, and ^ stays right
        # associative because _unary comes back here
        _unary(toks, out)
        out.append(("^", None))


def _atom(toks, out):
    """A number, pi or a variable; or a function call or a parenthesized
    expression, which share the closing-parenthesis check."""
    val, off = toks.pop()
    if isinstance(val, float) or val == "pi":
        out.append(("num", math.pi if val == "pi" else val))
        return
    if val != "(" and not val.isidentifier():  # the end, or another operator
        raise ExprError("expected a value", off)
    nxt, at = toks[-1]
    if val in _CALLS:
        if nxt != "(":
            raise ExprError(f"function '{val}' needs an argument list", at)
        toks.pop()
    elif val[0] == "x" and val[1:].isdigit():
        try:
            idx = int(val[1:])
        except ValueError:  # more digits than int() converts
            raise ExprError("variable index has too many digits", off) from None
        if idx < 1:
            raise ExprError("variable indices start at x1", off)
        if nxt == "(":
            raise ExprError(f"'{val}' is a variable, not a function", at)
        out.append(("var", idx))
        return
    elif val != "(":
        raise ExprError(f"unknown identifier '{val}'", off)
    _chain(toks, out)
    close, at = toks.pop()
    if close != ")":
        raise ExprError("expected ')'", at)
    if val != "(":
        out.append(("call", val))


def parse_expr(text):
    """Compile an expression string into a program, a tuple of (op, arg)
    steps.  Raises ExprError."""
    if not isinstance(text, str):
        raise ExprError("expression must be a string", 0)
    toks = _tokenize(text)[::-1]
    out = []
    _chain(toks, out)
    val, off = toks.pop()
    if val != "":
        raise ExprError(f"unexpected trailing input '{val}'", off)
    return tuple(out)


# ----------------------------------------------------------------------
# operator documents


@dataclass(frozen=True)
class ComplexField:
    """A complex scalar field given by a pair of real expression programs.

    ``is_zero`` (both parts a literal 0, possibly negated) and
    ``is_constant`` (no variable in either part) are decided where the
    parts are parsed, by ``_parse_entry``; after that, only ``evaluate``
    reads a program's steps.  A zero field is constant."""

    re: object
    im: object
    is_zero: bool
    is_constant: bool

    def ev(self, xs):
        re = evaluate(self.re, xs)
        im = evaluate(self.im, xs)
        return np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)


_ZERO = (("num", 0.0),)
_ZERO_FIELD = ComplexField(_ZERO, _ZERO, is_zero=True, is_constant=True)  # an absent entry


def _finite(val, path):
    """A JSON number as a float, rejected at path unless it is finite:
    JSON reads 1e400 as inf, and an integer beyond the float range has
    no float at all."""
    try:
        x = float(val)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise SpecError(path, "number is not finite")
    return x


def _parse_entry(raw, path, n):
    """Build a ComplexField from a JSON {"re": ..., "im": ...} object; a
    missing part is zero, and each part may only reference x1..xn and
    hold at most EXPR_STEP_CAP steps.  Whether the field is zero and
    whether it is constant are read off the steps here, once."""
    if not isinstance(raw, dict):
        raise SpecError(path, "expected an object with 're'/'im' keys")
    extra = set(raw) - {"re", "im"}
    if extra:
        raise SpecError(path, f"unknown keys {sorted(extra)}")
    parts, top, zero = [], 0, True
    for key in ("re", "im"):
        if key not in raw:
            parts.append(_ZERO)
            continue
        where = f"{path}.{key}"
        val = raw[key]
        if isinstance(val, bool) or not isinstance(val, (int, float, str)):
            raise SpecError(where, "expected a string or number")
        if not isinstance(val, str):
            val = repr(_finite(val, where))
        try:
            steps = parse_expr(val)
        except ExprError as err:
            raise SpecError(where, str(err)) from err
        except RecursionError:
            raise SpecError(where, "expression is nested too deeply") from None
        if len(steps) > EXPR_STEP_CAP:
            raise SpecError(where, f"expression has {len(steps)} steps, cap is {EXPR_STEP_CAP}")
        idx = max((arg for op, arg in steps if op == "var"), default=0)
        if idx > n:
            raise SpecError(where, f"references x{idx} but n = {n}")
        parts.append(steps)
        top = max(top, idx)
        # a structural zero: the literal 0, possibly negated
        zero = zero and steps[0] == _ZERO[0] and all(op == "neg" for op, _ in steps[1:])
    re, im = parts
    return ComplexField(re, im, is_zero=zero, is_constant=top == 0)


@dataclass(frozen=True)
class OperatorSpec:
    """Validated operator document.

    Fields mirror the JSON schema: dimension ``n`` (1..3), box ``domain``
    (n closed intervals), default ``grid`` (interior node counts per axis,
    each at least 8, NODE_CAP nodes at most), the n-by-n matrix ``A``,
    drift fields ``b`` and ``c`` (length n) and the zero order field ``a``.
    """

    n: int
    domain: tuple
    grid: tuple
    A: tuple
    b: tuple
    c: tuple
    a: ComplexField

    @property
    def has_lower_order_terms(self):
        return not all(f.is_zero for f in (*self.b, *self.c, self.a))

    @property
    def is_constant(self):
        return all(f.is_constant for row in (*self.A, (*self.b, *self.c, self.a)) for f in row)

    def box_diameter(self):
        return math.sqrt(sum((hi - lo) ** 2 for lo, hi in self.domain))


def spec_from_dict(doc):
    """Validate a parsed JSON document into an OperatorSpec."""
    if not isinstance(doc, dict):
        raise SpecError("$", "top level must be an object")
    known = {"n", "domain", "grid", "A", "b", "c", "a"}
    extra = set(doc) - known
    if extra:
        raise SpecError("$", f"unknown keys {sorted(extra)}")
    for key in ("n", "domain", "grid", "A"):
        if key not in doc:
            raise SpecError(f"$.{key}", "missing required key")

    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= 3:
        raise SpecError("$.n", "dimension must be an integer in 1..3")

    dom = doc["domain"]
    if not isinstance(dom, list) or len(dom) != n:
        raise SpecError("$.domain", f"expected {n} intervals")
    domain = []
    for k, pair in enumerate(dom):
        p = f"$.domain[{k}]"
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise SpecError(p, "expected [lo, hi]")
        lo, hi = (_finite(v, f"{p}[{j}]") for j, v in enumerate(pair))
        if not lo < hi:
            raise SpecError(p, "need finite lo < hi")
        domain.append((lo, hi))

    grd = doc["grid"]
    if not isinstance(grd, list) or len(grd) != n:
        raise SpecError("$.grid", f"expected {n} node counts")
    grid = []
    for k, cnt in enumerate(grd):
        if not isinstance(cnt, int) or isinstance(cnt, bool) or cnt < 8:
            raise SpecError(f"$.grid[{k}]", "node count must be an integer >= 8")
        grid.append(cnt)
    if math.prod(grid) > NODE_CAP:
        raise SpecError("$.grid", f"grid has {math.prod(grid)} nodes, cap is {NODE_CAP}")

    amat = doc["A"]
    if not isinstance(amat, list) or len(amat) != n:
        raise SpecError("$.A", f"expected {n} rows")
    rows = []
    for i, row in enumerate(amat):
        if not isinstance(row, list) or len(row) != n:
            raise SpecError(f"$.A[{i}]", f"expected {n} entries")
        rows.append(
            tuple(_parse_entry(entry, f"$.A[{i}][{j}]", n) for j, entry in enumerate(row))
        )

    def _vector(key):
        if key not in doc:
            return (_ZERO_FIELD,) * n
        vec = doc[key]
        if not isinstance(vec, list) or len(vec) != n:
            raise SpecError(f"$.{key}", f"expected {n} entries")
        return tuple(
            _parse_entry(entry, f"$.{key}[{k}]", n) for k, entry in enumerate(vec)
        )

    b = _vector("b")
    c = _vector("c")
    a = _parse_entry(doc["a"], "$.a", n) if "a" in doc else _ZERO_FIELD

    return OperatorSpec(
        n=n,
        domain=tuple(domain),
        grid=tuple(grid),
        A=tuple(rows),
        b=b,
        c=c,
        a=a,
    )


def load_doc(path):
    """The decoded JSON document of a file; SpecError when the file cannot
    be read or is not valid JSON."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise SpecError("$", f"cannot read spec: {err}") from err
    try:
        return json.loads(raw, parse_int=_json_int)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise SpecError("$", f"not valid JSON: {err}") from err
    except RecursionError:
        raise SpecError("$", "document is nested too deeply") from None


def _json_int(text):
    """A JSON integer literal as an int; a SpecError beyond int()'s digit
    limit, sys.get_int_max_str_digits()."""
    try:
        return int(text)
    except ValueError:
        raise SpecError("$", f"integer literal of {len(text.lstrip('-'))} digits is too long") from None


# ----------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class SampledOperator:
    """All coefficient fields evaluated at m points.

    Shapes: A (m,n,n) complex, b and c (m,n) complex, a (m,) complex,
    div_b and div_c (m,) complex.  Divergences use clipped central
    differences (exact for constant fields).
    """

    points: np.ndarray
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    a: np.ndarray
    div_b: np.ndarray
    div_c: np.ndarray


def _point_label(xs, index):
    if not xs:
        return "?"
    coords = []
    for ax in xs:
        arr = np.asarray(ax).reshape(-1)
        # the index may come from a smaller broadcast shape; clip it
        coords.append(float(arr[min(index, arr.size - 1)]))
    return "(" + ", ".join(f"{c:.6g}" for c in coords) + ")"


def _eval_field(field, xs, where):
    """The field's values at the points xs, checked finite.  Callers run
    it under np.errstate(all="ignore"): every value a floating point
    warning would flag fails the finite check here."""
    try:
        vals = field.ev(xs)
    except EvalDomainError as err:
        at = f" near node {_point_label(xs, err.index)}" if err.index is not None else ""
        raise EvalDomainError(f"{where}: {err}{at}") from err
    bad = ~np.isfinite(np.asarray(vals))
    if np.any(bad):
        at = _point_label(xs, int(np.argmax(bad.reshape(-1))))
        raise EvalDomainError(f"{where}: non-finite value at node {at}")
    return vals


def sample_operator(spec, points):
    """Evaluate A, b, c, a and the divergences of b and c at the points.

    ``points`` is an (m, n) array inside the closed box.  The divergence
    stencil is clipped to the box, so one-sided differences are used next
    to the boundary; the step is 1e-5 times the box diameter.  A value or
    a divergence that is not finite is an EvalDomainError naming the
    coefficient and a node.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    m, n = pts.shape
    if n != spec.n:
        raise ValueError(f"points have dimension {n}, spec has n = {spec.n}")
    h_fd = 1e-5 * spec.box_diameter()
    xs = tuple(pts[:, k] for k in range(n))
    lo = np.array([d[0] for d in spec.domain])
    hi = np.array([d[1] for d in spec.domain])

    def _divergence(fields, tag):
        div = np.zeros(m, dtype=complex)
        for k in range(n):
            if fields[k].is_constant:
                continue
            up = pts.copy()
            dn = pts.copy()
            up[:, k] = np.minimum(pts[:, k] + h_fd, hi[k])
            dn[:, k] = np.maximum(pts[:, k] - h_fd, lo[k])
            sep = up[:, k] - dn[:, k]
            fu = _eval_field(fields[k], tuple(up[:, j] for j in range(n)), f"{tag}[{k}]")
            fd = _eval_field(fields[k], tuple(dn[:, j] for j in range(n)), f"{tag}[{k}]")
            div = div + (fu - fd) / sep
            bad = ~np.isfinite(div)
            if bad.any():
                at = _point_label(xs, int(np.argmax(bad)))
                raise EvalDomainError(f"{tag}[{k}]: non-finite divergence near node {at}")
        return div

    with np.errstate(all="ignore"):
        A = np.empty((m, n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                A[:, i, j] = _eval_field(spec.A[i][j], xs, f"A[{i}][{j}]")
        bvals = np.empty((m, n), dtype=complex)
        cvals = np.empty((m, n), dtype=complex)
        for k in range(n):
            bvals[:, k] = _eval_field(spec.b[k], xs, f"b[{k}]")
            cvals[:, k] = _eval_field(spec.c[k], xs, f"c[{k}]")
        avals = _eval_field(spec.a, xs, "a")
        div_b = _divergence(spec.b, "b")
        div_c = _divergence(spec.c, "c")
    return SampledOperator(points=pts, A=A, b=bvals, c=cvals, a=avals, div_b=div_b, div_c=div_c)
