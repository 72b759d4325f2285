"""Expression parser, canonical printer and JSON serialization.

Surface syntax: rational literals, scalar symbols q, i, r, m, k, the
generators x0 xm xp x3 x30 xsq xip xim (with xi+/xi-/x+/x- accepted as
written by the canonical printer, and a few Unicode aliases), operators
+ - * ^ and parentheses.  * is noncommutative and left associative;
precedence ^ > * > +/-.  Division appears only inside scalar
subexpressions; generator exponents must be non-negative integers.
Fractional exponents (halves) are allowed on q only.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from . import scalars as sc
from .scalars import Scalar
from . import algebra as al
from .algebra import Element

__all__ = [
    "ParseError", "MAX_INPUT_DEGREE", "MAX_NESTING", "parse", "parse_element",
    "parse_scalar", "scalar_to_str", "element_to_str", "element_to_json",
    "element_from_json", "gradient_to_json",
    "Lit", "Sym", "Gen", "Add", "Mul", "Pow", "Neg", "Div",
]


# Largest power of a generator or a sum, L-matrix power or series truncation
# accepted as input.  Far above every use (the series default to degree 10
# and 12), it keeps a typo such as xp^100000 from running for hours.
# Powers of a monomial such as q^240 cost nothing and are not bounded: the
# printed 1/[[n]]! carries q^(n(n-1)).
MAX_INPUT_DEGREE = 64

# Deepest nesting of parentheses and unary minus signs accepted as input.
# The parser takes four stack frames per parenthesis and evaluation one per
# level; 100 levels stay well inside Python's default recursion limit of
# 1000 frames, with room for callers such as pytest or a tracer.
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, msg, pos=None):
        super().__init__(msg if pos is None else f"{msg} (at position {pos})")
        self.pos = pos


# -- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Sym:
    name: str          # q, i, r, m, k


@dataclass(frozen=True)
class Gen:
    name: str          # internal generator tag


@dataclass(frozen=True)
class Add:
    terms: tuple       # of (sign, node)


@dataclass(frozen=True)
class Mul:
    factors: tuple


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: Fraction


@dataclass(frozen=True)
class Neg:
    node: object


@dataclass(frozen=True)
class Div:
    num: object
    den: object


# -- lexer ---------------------------------------------------------------------

_GEN_ALIASES = {
    "x0": "x0", "xm": "xm", "xp": "xp", "x3": "x3", "x30": "x30",
    "xsq": "xsq", "xip": "xip", "xim": "xim",
    "x+": "xp", "x-": "xm", "xi+": "xip", "xi-": "xim",
    "ξ+": "xip", "ξ-": "xim",            # xi+ / xi-
    "ξ₊": "xip", "ξ₋": "xim",  # subscript plus/minus
    "x²": "xsq",                              # x squared
}
_SYMS = ("q", "i", "r", "m", "k")

_TOKEN_RE = re.compile(
    "|".join([
        r"(?P<num>\d+)",
        "(?P<name>" + "|".join(
            sorted(map(re.escape, _GEN_ALIASES), key=len, reverse=True))
        + ")",
        r"(?P<sym>[qirmk])(?![A-Za-z0-9_])",
        r"(?P<op>[-+*^()/])",
        r"(?P<ws>\s+)",
    ]))


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        mobj = _TOKEN_RE.match(text, pos)
        if not mobj:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = mobj.lastgroup
        val = mobj.group()
        if kind != "ws":
            tokens.append((kind, val, pos))
        pos = mobj.end()
    tokens.append(("end", "", len(text)))
    return tokens


# -- parser ----------------------------------------------------------------------

class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise _unexpected(tok, f"expected {op!r}, found {tok[1]!r}")

    def parse_expr(self):
        terms = []
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        terms.append((sign, self.parse_term()))
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                terms.append((-1 if val == "-" else 1, self.parse_term()))
            else:
                break
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Add(tuple(terms))

    def parse_term(self):
        factors = [self.parse_factor()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                factors.append(self.parse_factor())
            elif kind == "op" and val == "/":
                self.next()
                den = self.parse_factor()
                factors = [Div(factors[0] if len(factors) == 1
                               else Mul(tuple(factors)), den)]
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Mul(tuple(factors))

    def parse_factor(self):
        node = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            node = Pow(node, self.parse_exponent())
        return node

    def parse_exponent(self):
        kind, val, pos = self.peek()
        paren = kind == "op" and val == "("
        if paren:
            self.next()
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
        tok = self.next()
        if tok[0] != "num":
            raise _unexpected(tok, "expected integer exponent")
        num = int(tok[1])
        den = 1
        kind, val, _ = self.peek()
        if kind == "op" and val == "/":
            self.next()
            tok = self.next()
            if tok[0] != "num":
                raise _unexpected(tok, "expected exponent denominator")
            den = int(tok[1])
            if not den:
                raise ParseError("zero exponent denominator", tok[2])
        if paren:
            self.expect_op(")")
        return Fraction(sign * num, den)

    def parse_atom(self):
        tok = self.next()
        kind, val, pos = tok
        if kind == "num":
            return Lit(Fraction(int(val)))
        if kind == "sym":
            return Sym(val)
        if kind == "name":
            return Gen(_GEN_ALIASES[val])
        if kind == "op" and val in ("(", "-"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} "
                                 f"parentheses and unary minus signs", pos)
            if val == "(":
                node = self.parse_expr()
                self.expect_op(")")
            else:
                node = Neg(self.parse_atom())
            self.depth -= 1
            return node
        raise _unexpected(tok, f"unexpected token {val!r}")


def _unexpected(tok, msg):
    """ParseError for token tok, which breaks the grammar as msg says."""
    kind, _, pos = tok
    if kind == "end":
        msg = "unexpected end of input"
    return ParseError(msg, pos)


def parse(text):
    """Parse surface text to an AST."""
    p = _Parser(text)
    node = p.parse_expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return node


# -- evaluation ---------------------------------------------------------------

def _eval(node):
    """Evaluate to either a Scalar or an Element."""
    if isinstance(node, Lit):
        return sc.rational(node.value.numerator, node.value.denominator)
    if isinstance(node, Sym):
        return {"q": sc.q_power(1), "i": sc.I, "r": sc.R,
                "m": sc.M, "k": sc.K}[node.name]
    if isinstance(node, Gen):
        return al.gen_element(node.name)
    if isinstance(node, Neg):
        return -_eval(node.node)
    if isinstance(node, Add):
        acc = None
        for sign, sub in node.terms:
            v = _eval(sub)
            if sign < 0:
                v = -v
            acc = v if acc is None else _promote_add(acc, v)
        return acc
    if isinstance(node, Mul):
        acc = None
        for sub in node.factors:
            v = _eval(sub)
            acc = v if acc is None else _promote_mul(acc, v)
        return acc
    if isinstance(node, Div):
        num, den = _eval(node.num), _eval(node.den)
        if isinstance(den, Element) or isinstance(num, Element):
            raise ParseError("division is only defined between scalars")
        if den.is_zero():
            raise ParseError("division by zero")
        return num / den
    if isinstance(node, Pow):
        base = _eval(node.base)
        exp = node.exponent
        if abs(exp) > MAX_INPUT_DEGREE and not _is_monomial(base):
            raise ParseError(f"exponent {exp} exceeds the limit "
                             f"{MAX_INPUT_DEGREE} on a base other than a "
                             f"monomial in q, m, k and i")
        if isinstance(base, Element):
            if exp.denominator != 1 or exp < 0:
                raise ParseError(
                    "generator exponents must be non-negative integers")
            return base ** int(exp)
        if exp < 0 and base.is_zero():
            raise ParseError("division by zero")
        if exp.denominator == 1:
            return base ** int(exp)
        if exp.denominator == 2:
            if base == sc.q_power(1):
                return sc.s_power(int(exp * 2))
            if base == sc.two_q():
                if exp == Fraction(1, 2):
                    return sc.R
                if exp == Fraction(-1, 2):
                    return sc.R * sc.two_q().inverse()
            raise ParseError("half-integer exponents are allowed on q only")
        raise ParseError(f"unsupported exponent {exp}")
    raise TypeError(f"not an AST node: {node!r}")


def _is_monomial(v):
    """True for a Scalar +-s^a m^b k^c i^d (s = q^(1/2), integer a, b, c),
    whose powers stay single terms."""
    if not isinstance(v, Scalar) or len(v.num) != 1 or len(v.den) != 1:
        return False
    (key, c), = v.num.items()
    return abs(c) == 1 and key[4] == 0 and abs(next(iter(v.den.values()))) == 1


def _promote_add(a, b):
    if isinstance(a, Scalar) and isinstance(b, Scalar):
        return a + b
    if isinstance(a, Scalar):
        a = al.one().scale(a)
    if isinstance(b, Scalar):
        b = al.one().scale(b)
    return a + b


def _promote_mul(a, b):
    if isinstance(a, Scalar) and isinstance(b, Scalar):
        return a * b
    if isinstance(a, Scalar):
        return b.scale(a)       # scalars are central
    if isinstance(b, Scalar):
        return a.scale(b)
    return a * b


def parse_element(text):
    v = _eval(parse(text))
    if isinstance(v, Scalar):
        return al.one().scale(v)
    return v


def parse_scalar(text):
    v = _eval(parse(text))
    if isinstance(v, Element):
        raise ParseError("expected a scalar expression")
    return v


# -- printing -------------------------------------------------------------------

def _mono_str(key, coeff_abs):
    es, em, ek, ei, er = key
    parts = []
    if coeff_abs != 1 or (es == 0 and em == 0 and ek == 0 and not ei and not er):
        parts.append(str(coeff_abs))
    if es:
        if es % 2 == 0:
            e = es // 2
            parts.append(f"q^{e}" if e != 1 else "q")
        else:
            parts.append(f"q^({es}/2)")
    if ei:
        parts.append("i")
    if er:
        parts.append("r")
    if em:
        parts.append(f"m^{em}" if em > 1 else "m")
    if ek:
        parts.append(f"k^{ek}" if ek > 1 else "k")
    return "*".join(parts)


def _poly_str(terms):
    # terms: iterable of (key5, int); render sorted for determinism
    items = sorted(terms, reverse=True)
    out = ""
    for key, c in items:
        mono = _mono_str(key, abs(c))
        if not out:
            out = mono if c > 0 else "-" + mono
        else:
            out += (" + " if c > 0 else " - ") + mono
    return out or "0"


def scalar_to_str(x):
    """Fully parenthesized canonical rendering, q = s^2."""
    red = x.canonical()
    if not red.num:
        return "(0)"
    nstr = _poly_str(red.num.items())
    if len(red.den) == 1 and (0, 0, 0) in red.den and red.den[(0, 0, 0)] == 1:
        return f"({nstr})"
    dstr = _poly_str(((es, em, ek, 0, 0), v)
                     for (es, em, ek), v in red.den.items())
    return f"(({nstr})/({dstr}))"


_FACTOR_NAMES = ("xi+", "xi-", "x+", "x30", "x-")


def element_to_str(el):
    """Canonical text: sum of `coeff * xi+^a xi-^b x+^c x30^d x-^e` terms."""
    if el.is_zero():
        return "0"
    parts = []
    for key in sorted(el.terms, key=lambda k: (sum(k), k), reverse=True):
        coeff = el.terms[key]
        factors = []
        for name, exp in zip(_FACTOR_NAMES, key):
            if exp == 1:
                factors.append(name)
            elif exp > 1:
                factors.append(f"{name}^{exp}")
        term = scalar_to_str(coeff)
        if factors:
            term += " * " + " * ".join(factors)
        parts.append(term)
    return " + ".join(parts)


def element_to_json(el):
    items = []
    for key in sorted(el.terms, key=lambda k: (sum(k), k), reverse=True):
        items.append({"exponents": list(key),
                      "coefficient": scalar_to_str(el.terms[key])})
    return json.dumps({"terms": items})


def element_from_json(text):
    def term(item):
        a, b, c, d, e = item["exponents"]
        return al.monomial(a, b, c, d, e,
                           coeff=parse_scalar(item["coefficient"]))
    return al.add_all(term(item) for item in json.loads(text)["terms"])


def gradient_to_json(components):
    """JSON for a 4-component gradient dict {mu: Localized}."""
    out = {}
    for mu, loc in components.items():
        out[mu] = {"numerator": json.loads(element_to_json(loc.num)),
                   "delta_power": loc.dpow}
    return json.dumps(out)

