"""The quantum Minkowski algebra with normal ordering into separated variables.

Elements are stored in the internal basis of ordered monomials

    xi+^a xi-^b x+^c x30^d x-^e        with c*e = 0,

where xi+- are the central separating coordinates, x30 = x3 - x0 is the
light-cone coordinate, and x0 = xi+ + xi-, x^2 = [2]^2 xi+ xi- recover the
center.  Since xi+- are central, a basis monomial is a central prefix
xi+^a xi-^b times a tail x+^c x30^d x-^e, and a product of two monomials
only has to normal order the product of their tails.  That product is
cached per pair of tail shapes (`_tail_mul`), computed once with the
rewriting rules derived from the defining commutation relations:

    x-  x30 -> q^2  x30 x-
    x30 x+  -> q^2  x+  x30
    [2] x- x+ -> x^2 + q^2    x30^2 + q    [2] x0 x30
    [2] x+ x- -> x^2 + q^(-2) x30^2 + q^(-1)[2] x0 x30

(The x-+ mixing coefficients are re-derived from the defining relations;
see tests/test_algebra.py for the verification against all six relations.)

A second engine normal orders in the Poincare-Birkhoff-Witt basis
x0^n0 x-^n1 x+^n2 x3^n3, extended by the central square root alpha with
alpha^2 = (x0)^2 - (4/[2]^2) x^2; it backs the conversion `to_pbw_x` and
serves as an independent multiplication oracle.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from . import scalars as sc
from .scalars import Scalar, ONE

__all__ = [
    "Element", "Localized", "NotInAlgebraError", "DeltaDivisionError",
    "zero", "one", "monomial", "gen_element", "from_surface_word",
    "add_all", "delta_element", "x0_element", "xsq_element",
    "scale_kappa", "div_central", "to_pbw_x", "pbw_to_element", "pbw_mul",
    "mul_into", "SURFACE_GENS",
]

SURFACE_GENS = ("x0", "xm", "xp", "x3")
_Q2 = sc.q_power(2)
_QM2 = sc.q_power(-2)


class NotInAlgebraError(ValueError):
    """Element of the square-root extension with no polynomial image."""

    def __init__(self, msg, residue=None):
        super().__init__(msg)
        self.residue = residue


class DeltaDivisionError(ArithmeticError):
    """Central division left a nonzero remainder."""

    def __init__(self, msg, remainder=None):
        super().__init__(msg)
        self.remainder = remainder


class Element:
    """Normal-ordered noncommutative polynomial (immutable)."""

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms=None, _copy=True):
        if terms is None:
            terms = {}
        if _copy:
            terms = {key: c for key, c in terms.items() if not c.is_zero()}
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("Element is immutable")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(c == other.terms[key] for key, c in self.terms.items())

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        acc = dict(self.terms)
        for key, c in other.terms.items():
            _acc(acc, key, c)
        return Element(acc, _copy=False)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Element({key: -c for key, c in self.terms.items()}, _copy=False)

    def __mul__(self, other):
        if isinstance(other, Element):
            return _mul(self, other)
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)   # scalars are central
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of an algebra element")
        if n == 0:
            return one()
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def scale(self, c):
        if c.is_zero() or not self.terms:
            return zero()
        return Element({key: v * c for key, v in self.terms.items()},
                       _copy=False)

    def __repr__(self):
        from .surface import element_to_str
        return element_to_str(self)


def zero():
    return _ZERO_EL


def one():
    return _ONE_EL


def monomial(a=0, b=0, c=0, d=0, e=0, coeff=ONE):
    if c and e:
        raise ValueError("internal monomial cannot carry both x+ and x-")
    if coeff.is_zero():
        return zero()
    return Element({(a, b, c, d, e): coeff}, _copy=False)


_ZERO_EL = Element({}, _copy=False)
_ONE_EL = Element({(0, 0, 0, 0, 0): ONE}, _copy=False)


# -- normal ordering --------------------------------------------------------
#
# The product of two tails x+^c x30^d x-^e is assembled once per pair of
# shapes, with coefficient 1, by appending single generators on the right;
# each append is a closed-form expansion that keeps monomials in basis
# form.  `_mul` then only scales the cached table and shifts the central
# prefix.

def _append_xp(terms):
    """Right-multiply by x+."""
    two = sc.two_q()
    q2_over_two = _Q2 * two.inverse()
    out = {}
    for (a, b, c, d, e), coeff in terms.items():
        if e == 0:
            key = (a, b, c + 1, d, 0)
            _acc(out, key, coeff * sc.q_power(2 * d))
        else:
            # x30^d x-^e x+ = x30^d x-^(e-1) (x- x+), then reorder
            _acc(out, (a + 1, b + 1, 0, d, e - 1), coeff * two)
            ph = coeff * sc.q_power(2 * (e - 1) + 1)
            _acc(out, (a + 1, b, 0, d + 1, e - 1), ph)
            _acc(out, (a, b + 1, 0, d + 1, e - 1), ph)
            _acc(out, (a, b, 0, d + 2, e - 1),
                 coeff * sc.q_power(4 * (e - 1)) * q2_over_two)
    return out


def _append_x30(terms):
    out = {}
    for (a, b, c, d, e), coeff in terms.items():
        if e == 0:
            _acc(out, (a, b, c, d + 1, 0), coeff)
        else:
            _acc(out, (a, b, c, d + 1, e), coeff * sc.q_power(2 * e))
    return out


def _append_xm(terms):
    two = sc.two_q()
    qm2_over_two = _QM2 * two.inverse()
    qm1 = sc.q_power(-1)
    out = {}
    for (a, b, c, d, e), coeff in terms.items():
        if c == 0:
            _acc(out, (a, b, 0, d, e + 1), coeff)
        else:
            # x+^c x30^d x- = q^(-2d) x+^(c-1) (x+ x-) x30^d
            base = coeff * sc.q_power(-2 * d)
            _acc(out, (a + 1, b + 1, c - 1, d, 0), base * two)
            _acc(out, (a + 1, b, c - 1, d + 1, 0), base * qm1)
            _acc(out, (a, b + 1, c - 1, d + 1, 0), base * qm1)
            _acc(out, (a, b, c - 1, d + 2, 0), base * qm2_over_two)
    return out


def _acc(out, key, val):
    """Add val to out[key], keeping no zero coefficient in out."""
    if key in out:
        v = out[key] + val
        if v.is_zero():
            del out[key]
        else:
            out[key] = v
    elif not val.is_zero():
        out[key] = val


def add_all(elements):
    """The sum of any number of Elements, accumulated into one term dict."""
    acc = {}
    for el in elements:
        for key, c in el.terms.items():
            _acc(acc, key, c)
    return Element(acc, _copy=False)


@lru_cache(maxsize=None)
def _tail_mul(c, d, e, c2, d2, e2):
    """Normal order x+^c x30^d x-^e * x+^c2 x30^d2 x-^e2.

    Returns a tuple of ((da, db, c3, d3, e3), Scalar) pairs: the product is
    the sum of coeff * xi+^da xi-^db x+^c3 x30^d3 x-^e3.  A coefficient
    equal to 1 is ONE itself, so callers can skip multiplying by it.
    """
    cur = {(0, 0, c, d, e): ONE}
    for _ in range(c2):
        cur = _append_xp(cur)
    for _ in range(d2):
        cur = _append_x30(cur)
    for _ in range(e2):
        cur = _append_xm(cur)
    return tuple((key, ONE if t.is_one() else t) for key, t in cur.items())


def _mul(f, g):
    if not f.terms or not g.terms:
        return zero()
    acc = {}
    for (a2, b2, c2, d2, e2), coeff in g.terms.items():
        for (a, b, c, d, e), v in f.terms.items():
            vc = v * coeff
            for (da, db, c3, d3, e3), t in _tail_mul(c, d, e, c2, d2, e2):
                _acc(acc, (a + a2 + da, b + b2 + db, c3, d3, e3),
                     vc if t is ONE else vc * t)
    return Element(acc, _copy=False)


def mul_into(acc, f, g):
    """Add the terms of f * g to acc, a `scalars.SumOfProducts` keyed by
    basis monomial, reducing no coefficient.  A tail product that is one
    monomial with coefficient 1 defers v * coeff to the accumulator too."""
    for (a2, b2, c2, d2, e2), coeff in g.terms.items():
        for (a, b, c, d, e), v in f.terms.items():
            table = _tail_mul(c, d, e, c2, d2, e2)
            if len(table) == 1 and table[0][1] is ONE:
                (da, db, c3, d3, e3), _ = table[0]
                acc.add((a + a2 + da, b + b2 + db, c3, d3, e3), v, coeff)
                continue
            vc = v * coeff
            for (da, db, c3, d3, e3), t in table:
                acc.add((a + a2 + da, b + b2 + db, c3, d3, e3), vc, t)


# -- standard elements -------------------------------------------------------

def delta_element():
    """delta = xi+ - xi-, the central square root of (x0)^2 - 4 x^2/[2]^2."""
    return Element({(1, 0, 0, 0, 0): ONE, (0, 1, 0, 0, 0): -ONE}, _copy=False)


def x0_element():
    return Element({(1, 0, 0, 0, 0): ONE, (0, 1, 0, 0, 0): ONE}, _copy=False)


def xsq_element():
    return monomial(a=1, b=1, coeff=sc.two_q() ** 2)


_GEN_ELEMENTS = {}


def gen_element(name):
    """Surface generator as an internal Element."""
    el = _GEN_ELEMENTS.get(name)
    if el is None:
        if name == "x0":
            el = x0_element()
        elif name == "xm":
            el = monomial(e=1)
        elif name == "xp":
            el = monomial(c=1)
        elif name == "x30":
            el = monomial(d=1)
        elif name == "x3":
            el = monomial(d=1) + x0_element()
        elif name == "xsq":
            el = xsq_element()
        elif name == "xip":
            el = monomial(a=1)
        elif name == "xim":
            el = monomial(b=1)
        else:
            raise KeyError(f"unknown generator {name!r}")
        _GEN_ELEMENTS[name] = el
    return el


def from_surface_word(word):
    """Product of surface generators, e.g. ("x0", "xm", "x3")."""
    el = one()
    for g in word:
        el = el * gen_element(g)
    return el


def scale_kappa(f):
    """Action of the group-like scaling operator: degree-n part times q^n."""
    return Element({key: c * sc.q_power(sum(key))
                    for key, c in f.terms.items()}, _copy=False)


# -- central division ---------------------------------------------------------

def div_central(f, g):
    """Exact division by a central polynomial g (keys (a, b) only).

    Returns the quotient; raises DeltaDivisionError with the remainder
    attached when g does not divide f.
    """
    gterms = {}
    for (a, b, c, d, e), coeff in g.terms.items():
        if c or d or e:
            raise ValueError("divisor must be central (xi+- only)")
        gterms[(a, b)] = coeff
    if not gterms:
        raise ZeroDivisionError("division by the zero Element")
    glead = max(gterms)
    gcoef = gterms[glead]
    ginv = gcoef.inverse()

    groups = {}
    for (a, b, c, d, e), coeff in f.terms.items():
        groups.setdefault((c, d, e), {})[(a, b)] = coeff

    quot = {}
    rem = {}
    for tail, poly in groups.items():
        work = dict(poly)
        while work:
            lead = max(work)
            qa, qb = lead[0] - glead[0], lead[1] - glead[1]
            if qa < 0 or qb < 0:
                # leading term not reducible: move it to the remainder
                rem[lead + tail] = work.pop(lead)
                continue
            qc = work[lead] * ginv
            quot[(qa, qb) + tail] = qc
            for (ga, gb), gv in gterms.items():
                _acc(work, (qa + ga, qb + gb), -(qc * gv))
    if rem:
        raise DeltaDivisionError("central division is inexact",
                                 remainder=Element(rem))
    return Element(quot, _copy=False)


# -- localization --------------------------------------------------------------

class Localized:
    """An Element divided by a power of the central delta = xi+ - xi-."""

    __slots__ = ("num", "dpow")
    __hash__ = None

    def __init__(self, num, dpow=0, _normalize=True):
        if _normalize:
            while dpow > 0 and num:
                try:
                    num = div_central(num, delta_element())
                except DeltaDivisionError:
                    break
                dpow -= 1
            if not num:
                dpow = 0
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "dpow", dpow)

    def __setattr__(self, *a):
        raise AttributeError("Localized is immutable")

    @staticmethod
    def of(el):
        return Localized(el, 0, _normalize=False)

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, Element):
            other = Localized.of(other)
        if not isinstance(other, Localized):
            return NotImplemented
        return self.dpow == other.dpow and self.num == other.num

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    def __add__(self, other):
        if isinstance(other, Element):
            other = Localized.of(other)
        if not isinstance(other, Localized):
            return NotImplemented
        # both operands are already reduced, and zero has dpow = 0
        if not other.num:
            return self
        if not self.num:
            return other
        n = max(self.dpow, other.dpow)
        a, b = self.num, other.num
        if self.dpow < n:
            a = a * delta_element() ** (n - self.dpow)
        if other.dpow < n:
            b = b * delta_element() ** (n - other.dpow)
        return Localized(a + b, n)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Localized) else -Localized.of(other))

    def __neg__(self):
        return Localized(-self.num, self.dpow, _normalize=False)

    def __mul__(self, other):
        if isinstance(other, Element):
            other = Localized.of(other)
        if isinstance(other, Localized):
            return Localized(self.num * other.num, self.dpow + other.dpow)
        if isinstance(other, Scalar):
            num = self.num.scale(other)
            # zero has the single form num = 0, dpow = 0
            return Localized(num, self.dpow if num else 0, _normalize=False)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.__mul__(other)
        if isinstance(other, Element):
            return Localized.of(other).__mul__(self)
        return NotImplemented

    def try_clear(self):
        """The underlying Element; raises DeltaDivisionError if delta remains."""
        if self.dpow == 0:
            return self.num
        raise DeltaDivisionError(
            f"residual delta^{self.dpow} denominator", remainder=self.num)

    def divide_by_delta(self, n=1):
        return Localized(self.num, self.dpow + n)

    def __repr__(self):
        if self.dpow == 0:
            return repr(self.num)
        return f"({self.num!r}) / delta^{self.dpow}"


def localize_div(f, n):
    """Divide a Localized (or Element) by delta^n."""
    if isinstance(f, Element):
        f = Localized.of(f)
    return f.divide_by_delta(n)


# -- PBW engine ----------------------------------------------------------------
#
# Keys are (n0, na, nm, np, n3) for x0^n0 alpha^na x-^nm x+^np x3^n3 with
# na in {0, 1}; alpha is central with alpha^2 = (x0)^2 - (4/[2]^2) x^2.

@lru_cache(maxsize=None)
def _pbw_tail_gen(nm, np, n3, gen):
    """Normal order x-^nm x+^np x3^n3 * gen; returns tuple of (key, Scalar).

    Keys are (n0, nm, np, n3); x0 powers produced by the relations are
    central and recorded in slot 0.
    """
    lam = sc.lambda_()
    if gen == "x3":
        return (((0, nm, np, n3 + 1), ONE),)
    if gen == "xp":
        if n3 == 0:
            return (((0, nm, np + 1, 0), ONE),)
        out = {}
        for (u, m2, p2, v), c in _pbw_tail_gen(nm, np, n3 - 1, "xp"):
            # ... x3^(n3-1) (x3 x+) = q^2 (.. x+) x3 - q lam (.. x+) x0
            _acc(out, (u, m2, p2, v + 1), c * _Q2)
            _acc(out, (u + 1, m2, p2, v), -c * sc.q_power(1) * lam)
        return tuple(out.items())
    if gen == "xm":
        if n3 == 0 and np == 0:
            return (((0, nm + 1, 0, 0), ONE),)
        if n3 > 0:
            out = {}
            for (u, m2, p2, v), c in _pbw_tail_gen(nm, np, n3 - 1, "xm"):
                # x3 x- = q^-2 x- x3 + q^-1 lam x- x0
                _acc(out, (u, m2, p2, v + 1), c * _QM2)
                _acc(out, (u + 1, m2, p2, v), c * sc.q_power(-1) * lam)
            return tuple(out.items())
        # np > 0, n3 == 0: x+^np x- = x+^(np-1)(x- x+ - lam x3 x3 + lam x0 x3)
        out = {}
        for (u, m2, p2, v), c in _pbw_tail_gen(nm, np - 1, 0, "xm"):
            for (u2, m3, p3, v2), c2 in _pbw_tail_gen(m2, p2, v, "xp"):
                _acc(out, (u + u2, m3, p3, v2), c * c2)
        _acc(out, (0, nm, np - 1, 2), -lam)
        _acc(out, (1, nm, np - 1, 1), lam)
        return tuple(out.items())
    raise KeyError(gen)


def _alpha_sq_pbw():
    """alpha^2 = (x0)^2 - (4/[2]^2) x^2 in the PBW basis."""
    two = sc.two_q()
    f = (sc.integer(4) * (two ** 2).inverse())
    # x^2 = x0^2 + [2] x- x+ - q^2 x3^2 + q lam x0 x3
    terms = {
        (2, 0, 0, 0, 0): ONE - f,
        (0, 0, 1, 1, 0): -f * two,
        (0, 0, 0, 0, 2): f * _Q2,
        (1, 0, 0, 0, 1): -f * sc.q_power(1) * sc.lambda_(),
    }
    return {key: c for key, c in terms.items() if not c.is_zero()}


_ALPHA_SQ = None


def _pbw_mul_mono(terms, mono, coeff):
    """Right-multiply PBW dict by a PBW monomial (n0, na, nm, np, n3)."""
    global _ALPHA_SQ
    n0, na, nm, np_, n3 = mono
    cur = {}
    for (a0, aa, am, ap, a3), c in terms.items():
        cur[(a0 + n0, aa, am, ap, a3)] = c * coeff
    for _ in range(na):
        nxt = {}
        for (a0, aa, am, ap, a3), c in cur.items():
            if aa == 0:
                _acc(nxt, (a0, 1, am, ap, a3), c)
            else:
                if _ALPHA_SQ is None:
                    _ALPHA_SQ = _alpha_sq_pbw()
                for mono2, c2 in _ALPHA_SQ.items():
                    for key3, c3 in _pbw_mul_mono({(a0, 0, am, ap, a3): c * c2},
                                                  mono2, ONE).items():
                        _acc(nxt, key3, c3)
        cur = nxt
    for gen, count in (("xm", nm), ("xp", np_), ("x3", n3)):
        for _ in range(count):
            nxt = {}
            for (a0, aa, am, ap, a3), c in cur.items():
                for (u, m2, p2, v), c2 in _pbw_tail_gen(am, ap, a3, gen):
                    _acc(nxt, (a0 + u, aa, m2, p2, v), c * c2)
            cur = nxt
    return cur


def _pbw5(d):
    """Normalize PBW keys to 5-tuples (insert alpha slot when missing)."""
    return {(k[0], 0) + k[1:] if len(k) == 4 else k: v for k, v in d.items()}


def pbw_mul(f, g):
    """Product of two PBW dicts (independent of the internal engine).

    Accepts keys with or without the alpha slot; returns 4-tuple keys when
    no alpha survives, else 5-tuples.
    """
    f, g = _pbw5(f), _pbw5(g)
    acc = {}
    for mono, coeff in g.items():
        for key, c in _pbw_mul_mono(f, mono, coeff).items():
            _acc(acc, key, c)
    if any(key[1] for key in acc):
        return acc
    return {(n0, nm, np_, n3): v for (n0, _, nm, np_, n3), v in acc.items()}


@lru_cache(maxsize=None)
def _alpha_even_pow(t):
    """(alpha^2)^t as a PBW dict (5-tuple keys, alpha-free)."""
    if t == 0:
        return ((( 0, 0, 0, 0, 0), ONE),)
    global _ALPHA_SQ
    if _ALPHA_SQ is None:
        _ALPHA_SQ = _alpha_sq_pbw()
    prev = dict(_alpha_even_pow(t - 1))
    return tuple(pbw_mul5(prev, _ALPHA_SQ).items())


def pbw_mul5(f, g):
    """pbw_mul that always returns 5-tuple keys."""
    return _pbw5(pbw_mul(f, g))


@lru_cache(maxsize=None)
def _xi_power_pbw(sign, v):
    """xi+-^v in PBW form: 2^-v sum_j C(v,j) x0^(v-j) (sign alpha)^j."""
    half = sc.rational(1, 2)
    acc = {}
    for j in range(v + 1):
        coef = half ** v * sc.integer(comb(v, j) * (sign ** j))
        even = dict(_alpha_even_pow(j // 2))
        term = {(n0 + v - j, na + (j % 2), nm, np_, n3): c * coef
                for (n0, na, nm, np_, n3), c in even.items()}
        for key, c in term.items():
            _acc(acc, key, c)
    return tuple(acc.items())


@lru_cache(maxsize=None)
def _central_pbw(a, b):
    """xi+^a xi-^b in PBW form: (x^2/[2]^2)^min * xi_sign^|a-b|."""
    m = min(a, b)
    base = dict(_alpha_even_pow(0))
    if m:
        two2i = (sc.two_q() ** 2).inverse()
        # x^2/[2]^2 = xi+ xi- in the PBW basis
        xsq_norm = {
            (2, 0, 0, 0, 0): two2i,
            (0, 0, 1, 1, 0): two2i * sc.two_q(),
            (0, 0, 0, 0, 2): -two2i * _Q2,
            (1, 0, 0, 0, 1): two2i * sc.q_power(1) * sc.lambda_(),
        }
        for _ in range(m):
            base = pbw_mul5(base, xsq_norm)
    v = abs(a - b)
    if v:
        base = pbw_mul5(base, dict(_xi_power_pbw(1 if a >= b else -1, v)))
    return tuple(base.items())


def _pbw_tail(c, d, e):
    """The tail x+^c x30^d x-^e in PBW form (5-tuple keys), with
    x30 = x3 - x0 expanded binomially (x0 is central)."""
    tail = {}
    if e == 0:
        for j in range(d + 1):
            coef = sc.integer((-1) ** (d - j) * comb(d, j))
            _acc(tail, (d - j, 0, 0, c, j), coef)
    else:
        ph = sc.q_power(-2 * d * e)
        for j in range(d + 1):
            coef = ph * sc.integer((-1) ** (d - j) * comb(d, j))
            _acc(tail, (d - j, 0, e, 0, j), coef)
    return tail


def to_pbw_x(f):
    """Expand a delta-free Element in the PBW basis (n0, n-, n+, n3).

    The central prefixes xi+^a xi-^b of all terms sharing a tail
    x+^c x30^d x-^e are summed in PBW form first, so `pbw_mul` runs once
    per distinct tail (exact by bilinearity).

    Raises NotInAlgebraError when f is not a polynomial in the coordinates
    (a residual odd power of alpha survives).
    """
    if isinstance(f, Localized):
        f = f.try_clear()
    centrals = {}
    for (a, b, c, d, e), coeff in f.terms.items():
        central = centrals.setdefault((c, d, e), {})
        for key, v in _central_pbw(a, b):
            _acc(central, key, v * coeff)
    acc = {}
    for (c, d, e), central in centrals.items():
        for key, v in _pbw5(pbw_mul(central, _pbw_tail(c, d, e))).items():
            _acc(acc, key, v)
    bad = {key: v for key, v in acc.items() if key[1]}
    if bad:
        raise NotInAlgebraError(
            "element lies in the square-root extension, not in the algebra",
            residue=bad)
    return {(n0, nm, np_, n3): v for (n0, _, nm, np_, n3), v in acc.items()}


def pbw_to_element(pbw):
    """Inverse of to_pbw_x on its image."""
    return add_all(
        from_surface_word(("x0",) * n0 + ("xm",) * nm + ("xp",) * np_
                          + ("x3",) * n3).scale(coeff)
        for (n0, nm, np_, n3), coeff in pbw.items())
