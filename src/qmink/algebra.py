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
x0^n0 x-^n1 x+^n2 x3^n3; it backs the conversion `to_pbw_x` and serves as
an independent multiplication oracle.  An Element lies in the algebra iff
it is symmetric under xi+ <-> xi-; its central prefixes are then
polynomials in x0 and xi+ xi- = x^2/[2]^2 (Newton's identities).

Normal ordering and `to_pbw_x` sum, then reduce: each output coefficient
is a sum of several coefficient products, and a `scalars.SumOfProducts`
reduces it once instead of once per product.  A term pair whose tail
table has several entries, or one that is not 1, contributes v * coeff *
t for each entry t; `mul_into` has the accumulator multiply the
numerators of v and coeff once and leave that product unreduced, so it
is never formed as a reduced Scalar of its own.  When a factor has a
single term, no two products share a key, so there is nothing to save:
`_mul` keeps one reduced product per term pair, summed with `_acc`.
"""

from __future__ import annotations

from collections import defaultdict
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
_MINUS_ONE = sc.integer(-1)


class NotInAlgebraError(ValueError):
    """Element not symmetric under xi+ <-> xi-, so not in the algebra."""

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
            if not self.terms or not other.terms:
                return zero()
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
        return sc.power(self, n) if n else one()

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

@lru_cache(maxsize=None)
def _q_over_two(n):
    """q^n / [2], computed on first use and kept."""
    return sc.q_power(n) * sc.two_q().inverse()


def _append_xp(terms):
    """Right-multiply by x+."""
    two = sc.two_q()
    q2_over_two = _q_over_two(2)
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
    qm2_over_two = _q_over_two(-2)
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
    """f * g for nonzero f and g."""
    if len(f.terms) > 1 and len(g.terms) > 1:
        acc = sc.SumOfProducts()
        mul_into(acc, f, g)
        return Element(acc.result(), _copy=False)
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
    monomial with coefficient 1 adds v * coeff; any other tail table adds
    the unreduced product of the numerators of v and coeff, formed once,
    times each of its coefficients."""
    for (a2, b2, c2, d2, e2), coeff in g.terms.items():
        for (a, b, c, d, e), v in f.terms.items():
            table = _tail_mul(c, d, e, c2, d2, e2)
            if len(table) == 1 and table[0][1] is ONE:
                (da, db, c3, d3, e3), _ = table[0]
                acc.add((a + a2 + da, b + b2 + db, c3, d3, e3), v, coeff)
                continue
            acc._add_each([((a + a2 + da, b + b2 + db, c3, d3, e3), t)
                           for (da, db, c3, d3, e3), t in table], v, coeff)


# -- standard elements -------------------------------------------------------

def delta_element():
    """delta = xi+ - xi-, the central square root of (x0)^2 - 4 x^2/[2]^2."""
    return Element({(1, 0, 0, 0, 0): ONE, (0, 1, 0, 0, 0): -ONE}, _copy=False)


def x0_element():
    return Element({(1, 0, 0, 0, 0): ONE, (0, 1, 0, 0, 0): ONE}, _copy=False)


def xsq_element():
    return monomial(a=1, b=1, coeff=sc.two_q() ** 2)


@lru_cache(maxsize=None)
def gen_element(name):
    """Surface generator as an internal Element."""
    if name == "x0":
        return x0_element()
    if name == "xm":
        return monomial(e=1)
    if name == "xp":
        return monomial(c=1)
    if name == "x30":
        return monomial(d=1)
    if name == "x3":
        return monomial(d=1) + x0_element()
    if name == "xsq":
        return xsq_element()
    if name == "xip":
        return monomial(a=1)
    if name == "xim":
        return monomial(b=1)
    raise KeyError(f"unknown generator {name!r}")


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

    Long division of each tail's central polynomial, greatest (a, b)
    first: the lead term of the work comes off as a quotient term, and
    the rest of g times it is subtracted.  A lead coefficient of +-1 is
    not inverted, and each +-1 coefficient of g is applied by its sign, so
    dividing by delta = xi+ - xi- costs one Scalar addition per quotient
    term: along each total degree n, q_(n-1-j, j) = sum_(i<=j) p_(n-i, i).

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
    gcoef = gterms.pop(glead)
    sign = _unit_sign(gcoef)
    ginv = None if sign else gcoef.inverse()
    grest = [(ga, gb, _unit_sign(gv), gv) for (ga, gb), gv in gterms.items()]

    groups = {}
    for (a, b, c, d, e), coeff in f.terms.items():
        groups.setdefault((c, d, e), {})[(a, b)] = coeff

    quot = {}
    rem = {}
    for tail, work in groups.items():
        while work:
            lead = max(work)
            qa, qb = lead[0] - glead[0], lead[1] - glead[1]
            if qa < 0 or qb < 0:
                # leading term not reducible: move it to the remainder
                rem[lead + tail] = work.pop(lead)
                continue
            qc = work.pop(lead)        # the lead cancels exactly: drop it
            if sign < 0:
                qc = -qc
            elif not sign:
                qc = qc * ginv
            quot[(qa, qb) + tail] = qc
            for ga, gb, gs, gv in grest:
                _acc(work, (qa + ga, qb + gb),
                     qc if gs < 0 else -qc if gs else -(qc * gv))
    if rem:
        raise DeltaDivisionError("central division is inexact",
                                 remainder=Element(rem))
    return Element(quot, _copy=False)


def _unit_sign(x):
    """1 or -1 for the Scalar +-1, else 0."""
    return 1 if x == ONE else -1 if x == _MINUS_ONE else 0


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

    def __add__(self, other):
        if isinstance(other, Scalar):
            other = monomial(coeff=other)
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

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

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
            f"residual delta^{self.dpow} denominator", remainder=self)

    def __repr__(self):
        if self.dpow == 0:
            return repr(self.num)
        return f"({self.num!r}) / delta^{self.dpow}"


# -- PBW engine ----------------------------------------------------------------
#
# Keys are (n0, nm, np, n3) for x0^n0 x-^nm x+^np x3^n3.

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


def _pbw_mul_mono(terms, mono, coeff):
    """Right-multiply PBW dict by a PBW monomial (n0, nm, np, n3)."""
    n0, nm, np_, n3 = mono
    cur = {(a0 + n0, am, ap, a3): c * coeff
           for (a0, am, ap, a3), c in terms.items()}
    for gen, count in (("xm", nm), ("xp", np_), ("x3", n3)):
        for _ in range(count):
            nxt = {}
            for (a0, am, ap, a3), c in cur.items():
                for (u, m2, p2, v), c2 in _pbw_tail_gen(am, ap, a3, gen):
                    _acc(nxt, (a0 + u, m2, p2, v), c * c2)
            cur = nxt
    return cur


def pbw_mul(f, g):
    """Product of two PBW dicts (independent of the internal engine)."""
    acc = {}
    for mono, coeff in g.items():
        for key, c in _pbw_mul_mono(f, mono, coeff).items():
            _acc(acc, key, c)
    return acc


@lru_cache(maxsize=None)
def _xixi_pbw(j):
    """(xi+ xi-)^j = (x^2/[2]^2)^j in PBW form, with
    x^2 = x0^2 + [2] x- x+ - q^2 x3^2 + q lam x0 x3."""
    if j == 0:
        return (((0, 0, 0, 0), ONE),)
    if j == 1:
        two = sc.two_q()
        two2i = (two ** 2).inverse()
        xsq = {(2, 0, 0, 0): ONE, (0, 1, 1, 0): two, (0, 0, 0, 2): -_Q2,
               (1, 0, 0, 1): sc.q_power(1) * sc.lambda_()}
        return tuple((key, c * two2i) for key, c in xsq.items())
    return tuple(pbw_mul(dict(_xixi_pbw(j - 1)), dict(_xixi_pbw(1))).items())


def _power_sum(k):
    """p_k = xi+^k + xi-^k as {(i, j): n}, n the coefficient of
    x0^i (xi+ xi-)^j, by Newton's identities: p_0 = 2, p_1 = x0 and
    p_k = x0 p_(k-1) - (xi+ xi-) p_(k-2)."""
    p = [{(0, 0): 2}, {(1, 0): 1}]
    for _ in range(2, k + 1):
        nxt = {(i + 1, j): n for (i, j), n in p[-1].items()}
        for (i, j), n in p[-2].items():
            nxt[(i, j + 1)] = nxt.get((i, j + 1), 0) - n
        p.append(nxt)
    return p[k]


@lru_cache(maxsize=None)
def _prefix_pbw(a, b):
    """The central prefix of a term xi+^a xi-^b (a >= b) and its mirror
    in PBW form: (xi+ xi-)^b p_(a-b) when a > b, (xi+ xi-)^a when a = b."""
    acc = {}
    for (i, j), n in (_power_sum(a - b) if a > b else {(0, 0): 1}).items():
        coef = sc.integer(n)
        for (n0, nm, np_, n3), v in _xixi_pbw(b + j):
            _acc(acc, (n0 + i, nm, np_, n3), v * coef)
    return tuple(acc.items())


def _pbw_tail(c, d, e):
    """The tail x+^c x30^d x-^e (c e = 0) in PBW form:
    q^(-2de) x-^e x+^c (x3 - x0)^d, with x0 central."""
    ph = sc.q_power(-2 * d * e)
    return {(d - j, e, c, j): ph * sc.integer((-1) ** (d - j) * comb(d, j))
            for j in range(d + 1)}


def to_pbw_x(f):
    """Expand an Element of the algebra in the PBW basis (n0, n-, n+, n3).

    Since x0 = xi+ + xi- and x^2 = [2]^2 xi+ xi-, f lies in the algebra
    iff it equals its mirror sigma(f), which swaps xi+ and xi- (a and b in
    every key); otherwise NotInAlgebraError carries the residue
    f - sigma(f).  A term with a > b then stands for itself and its
    mirror, whose prefixes sum to (xi+ xi-)^b p_(a-b) (`_power_sum`).  The
    prefixes of all terms sharing a tail x+^c x30^d x-^e are summed in PBW
    form first, in one `SumOfProducts` per tail, so `pbw_mul` runs once per
    distinct tail (exact by bilinearity).
    """
    if isinstance(f, Localized):
        f = f.try_clear()
    mirror = Element({(b, a, c, d, e): v
                      for (a, b, c, d, e), v in f.terms.items()}, _copy=False)
    if mirror != f:
        raise NotInAlgebraError(
            "element lies in the square-root extension, not in the algebra",
            residue=f - mirror)
    centrals = defaultdict(sc.SumOfProducts)
    for (a, b, c, d, e), coeff in f.terms.items():
        if a >= b:
            central = centrals[(c, d, e)]
            for key, v in _prefix_pbw(a, b):
                central.add(key, v, coeff)
    acc = {}
    for (c, d, e), central in centrals.items():
        for key, v in pbw_mul(central.result(), _pbw_tail(c, d, e)).items():
            _acc(acc, key, v)
    return acc


def pbw_to_element(pbw):
    """Inverse of to_pbw_x on its image."""
    return add_all(
        from_surface_word(("x0",) * n0 + ("xm",) * nm + ("xp",) * np_
                          + ("x3",) * n3).scale(coeff)
        for (n0, nm, np_, n3), coeff in pbw.items())
