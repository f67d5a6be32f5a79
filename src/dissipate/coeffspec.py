"""Coefficient fields for scalar second order operators in divergence form.

An operator is described by a JSON document holding, for each coefficient
(matrix A, drift vectors b and c, zero order term a), a pair of real
expression strings ("re"/"im") in the variables x1..xn.  This module owns

  * the small expression language (parser and evaluator),
  * loading and validating the JSON document into an OperatorSpec,
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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh", "bump")
NODE_CAP = 16384  # interior nodes of a document's grid

__all__ = [
    "ExprError",
    "EvalDomainError",
    "SpecError",
    "parse_expr",
    "expr_is_zero",
    "expr_is_constant",
    "bump",
    "ComplexField",
    "OperatorSpec",
    "load_doc",
    "load_spec",
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
# expression trees


@dataclass(frozen=True)
class Num:
    value: float

    def ev(self, xs):
        return np.full_like(xs[0], self.value) if xs else np.float64(self.value)


@dataclass(frozen=True)
class Var:
    index: int  # 1-based

    def ev(self, xs):
        return xs[self.index - 1]


@dataclass(frozen=True)
class Neg:
    child: object

    def ev(self, xs):
        return -self.child.ev(xs)


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object

    def ev(self, xs):
        a = self.left.ev(xs)
        b = self.right.ev(xs)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            zero = np.asarray(b == 0.0)
            if np.any(zero):
                raise EvalDomainError("division by zero", _first_bad(zero))
            return a / b
        # power; numpy would emit nan for negative base ** fractional, so
        # guard explicitly instead of letting nan through
        aa, bb = np.asarray(a), np.asarray(b)
        frac = (aa < 0.0) & (bb != np.floor(bb))
        if np.any(frac):
            raise EvalDomainError(
                "negative base with non-integer exponent", _first_bad(frac)
            )
        inv0 = (aa == 0.0) & (bb < 0.0)
        if np.any(inv0):
            raise EvalDomainError("zero base with negative exponent", _first_bad(inv0))
        return np.power(a, b)


@dataclass(frozen=True)
class Call:
    func: str
    arg: object

    def ev(self, xs):
        t = self.arg.ev(xs)
        if self.func == "sin":
            return np.sin(t)
        if self.func == "cos":
            return np.cos(t)
        if self.func == "exp":
            return np.exp(t)
        if self.func == "tanh":
            return np.tanh(t)
        if self.func == "log":
            bad = np.asarray(t <= 0.0)
            if np.any(bad):
                raise EvalDomainError("log of non-positive value", _first_bad(bad))
            return np.log(t)
        if self.func == "sqrt":
            bad = np.asarray(t < 0.0)
            if np.any(bad):
                raise EvalDomainError("sqrt of negative value", _first_bad(bad))
            return np.sqrt(t)
        return bump(t)


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


# ----------------------------------------------------------------------
# tokenizer / parser

_T_NUM = "num"
_T_IDENT = "ident"
_T_OP = "op"
_T_END = "end"

_OPS = set("+-*/^()")


def _tokenize(text):
    """Split into (kind, value, byte_offset) triples; raise ExprError on junk."""
    toks = []
    i = 0
    nbytes = len(text.encode("utf-8"))
    if nbytes != len(text):
        # keep offsets honest for non-ascii input by scanning bytewise
        raise ExprError("non-ascii character in expression", 0)
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _OPS:
            toks.append((_T_OP, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                raise ExprError(f"bad number literal '{lit}'", i) from None
            toks.append((_T_NUM, val, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append((_T_IDENT, text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character '{ch}'", i)
    toks.append((_T_END, "", n))
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != _T_OP or val != op:
            raise ExprError(f"expected '{op}'", off)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != _T_END:
            raise ExprError(f"unexpected trailing input '{val}'", off)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == _T_OP and val in "+-":
                self.advance()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == _T_OP and val in "*/":
                self.advance()
                node = Bin(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == _T_OP and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == _T_OP and val == "^":
            self.advance()
            # exponent at unary level: 2^-3 parses, and ^ stays right
            # associative because unary falls through to power again
            return Bin("^", base, self.unary())
        return base

    def atom(self):
        kind, val, off = self.advance()
        if kind == _T_NUM:
            return Num(val)
        if kind == _T_OP and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == _T_IDENT:
            if val == "pi":
                return Num(math.pi)
            if val in FUNCTIONS:
                k2, v2, o2 = self.peek()
                if not (k2 == _T_OP and v2 == "("):
                    raise ExprError(f"function '{val}' needs an argument list", o2)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val[0] == "x" and val[1:].isdigit():
                idx = int(val[1:])
                if idx < 1:
                    raise ExprError("variable indices start at x1", off)
                k2, v2, o2 = self.peek()
                if k2 == _T_OP and v2 == "(":
                    raise ExprError(f"'{val}' is a variable, not a function", o2)
                return Var(idx)
            raise ExprError(f"unknown identifier '{val}'", off)
        raise ExprError("expected a value", off)


def parse_expr(text):
    """Parse an expression string into a tree.  Raises ExprError."""
    if not isinstance(text, str):
        raise ExprError("expression must be a string", 0)
    return _Parser(text).parse()


def expr_is_zero(node):
    """Structural zero test (literal 0, possibly negated)."""
    while isinstance(node, Neg):
        node = node.child
    return isinstance(node, Num) and node.value == 0.0


def _max_var_index(node):
    """Largest variable index in the tree, 0 when it has no variable."""
    if isinstance(node, Var):
        return node.index
    if isinstance(node, Neg):
        return _max_var_index(node.child)
    if isinstance(node, Bin):
        return max(_max_var_index(node.left), _max_var_index(node.right))
    if isinstance(node, Call):
        return _max_var_index(node.arg)
    return 0


def expr_is_constant(node):
    """True when the tree references no variable."""
    return _max_var_index(node) == 0


# ----------------------------------------------------------------------
# operator documents


@dataclass(frozen=True)
class ComplexField:
    """A complex scalar field given by a pair of real expression trees."""

    re: object
    im: object

    def ev(self, xs):
        re = self.re.ev(xs)
        im = self.im.ev(xs)
        return np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)

    @property
    def is_zero(self):
        return expr_is_zero(self.re) and expr_is_zero(self.im)

    @property
    def is_constant(self):
        return expr_is_constant(self.re) and expr_is_constant(self.im)


_ZERO = Num(0.0)


def _parse_entry(raw, path, n):
    """Build a ComplexField from a JSON {"re": ..., "im": ...} object; a
    missing part is zero, and each part may only reference x1..xn."""
    if not isinstance(raw, dict):
        raise SpecError(path, "expected an object with 're'/'im' keys")
    extra = set(raw) - {"re", "im"}
    if extra:
        raise SpecError(path, f"unknown keys {sorted(extra)}")
    parts = {}
    for key in ("re", "im"):
        if key not in raw:
            parts[key] = _ZERO
            continue
        where = f"{path}.{key}"
        val = raw[key]
        if isinstance(val, bool) or not isinstance(val, (int, float, str)):
            raise SpecError(where, "expected a string or number")
        if not isinstance(val, str):
            val = repr(float(val))
        try:
            node = parse_expr(val)
        except ExprError as err:
            raise SpecError(where, str(err)) from err
        idx = _max_var_index(node)
        if idx > n:
            raise SpecError(where, f"references x{idx} but n = {n}")
        parts[key] = node
    return ComplexField(parts["re"], parts["im"])


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
        lower = list(self.b) + list(self.c) + [self.a]
        return not all(f.is_zero for f in lower)

    @property
    def is_constant(self):
        fields = [f for row in self.A for f in row] + list(self.b) + list(self.c)
        fields.append(self.a)
        return all(f.is_constant for f in fields)

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
        lo, hi = float(pair[0]), float(pair[1])
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
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
            return tuple(ComplexField(_ZERO, _ZERO) for _ in range(n))
        vec = doc[key]
        if not isinstance(vec, list) or len(vec) != n:
            raise SpecError(f"$.{key}", f"expected {n} entries")
        return tuple(
            _parse_entry(entry, f"$.{key}[{k}]", n) for k, entry in enumerate(vec)
        )

    b = _vector("b")
    c = _vector("c")
    if "a" in doc:
        a = _parse_entry(doc["a"], "$.a", n)
    else:
        a = ComplexField(_ZERO, _ZERO)

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
        return json.loads(raw)
    except json.JSONDecodeError as err:
        raise SpecError("$", f"not valid JSON: {err}") from err


def load_spec(path):
    """Read and validate an operator document from a JSON file."""
    return spec_from_dict(load_doc(path))


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
    to the boundary; the step is 1e-5 times the box diameter.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    m, n = pts.shape
    if n != spec.n:
        raise ValueError(f"points have dimension {n}, spec has n = {spec.n}")
    h_fd = 1e-5 * spec.box_diameter()

    xs = tuple(pts[:, k] for k in range(n))
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

    lo = np.array([d[0] for d in spec.domain])
    hi = np.array([d[1] for d in spec.domain])

    def _divergence(fields, tag):
        if all(f.is_zero for f in fields):
            return np.zeros(m, dtype=complex)
        div = np.zeros(m, dtype=complex)
        for k in range(n):
            if fields[k].is_zero or fields[k].is_constant:
                continue
            up = pts.copy()
            dn = pts.copy()
            up[:, k] = np.minimum(pts[:, k] + h_fd, hi[k])
            dn[:, k] = np.maximum(pts[:, k] - h_fd, lo[k])
            sep = up[:, k] - dn[:, k]
            fu = _eval_field(fields[k], tuple(up[:, j] for j in range(n)), f"{tag}[{k}]")
            fd = _eval_field(fields[k], tuple(dn[:, j] for j in range(n)), f"{tag}[{k}]")
            div = div + (fu - fd) / sep
        return div

    return SampledOperator(
        points=pts,
        A=A,
        b=bvals,
        c=cvals,
        a=avals,
        div_b=_divergence(spec.b, "b"),
        div_c=_divergence(spec.c, "c"),
    )
