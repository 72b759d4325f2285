"""Exact coefficient field for the q-Minkowski engine.

A Scalar is a fraction of sparse Laurent polynomials in s = q^(1/2) with two
extra commuting parameters m, k, a Gaussian unit i (i^2 = -1) and a formal
square root r with r^2 = s^2 + s^(-2) (so r = [2]^(1/2)).  The unit i and the
quadratic element r are folded into the monomial keys and reduced on the fly,
which keeps coefficients as plain Python ints.

Numerator keys are (e_s, e_m, e_k, e_i, e_r) with e_s any integer (Laurent),
e_i and e_r in {0, 1}.  Denominators are real: keys (e_s, e_m, e_k) with
e_s >= 0 and the minimal s-degree shifted out into the numerator.  Zero is
the empty numerator.

Equality is exact via cross multiplication; `canonical()` produces the fully
gcd-reduced representative (denominator's lowest monomial normalized
positive, coprime integer content), so equal values have identical canonical
forms.

Denominators in s alone are reduced on construction.  The engine builds
them from [2] = s^-2 Phi_8(s), lambda = s^-2 Phi_1 Phi_2 Phi_4 and
[[n]] = prod_{d | 4n, d not dividing 4} Phi_d(s), so each is c times a
product of cyclotomic polynomials Phi_d(s).  Its *split* {d: e_d} is cached
by primitive part; a product's split is the sum of its factors' splits, and
the q-factorials register theirs.  The gcd with the numerator is then found
by exact trial division by each Phi_d, with no general polynomial gcd.  A
denominator that does not split falls back to a primitive-PRS gcd, and
denominators involving m or k to sympy's.

A product with a unit +-c s^a i^b (one numerator term, no m, k or r, over
the trivial denominator) keeps the other factor's denominator and divides
out only the integer content: s and i are units, so the product shares no
factor with an already reduced denominator that the other did not.

A sum of products sum_t a_t b_t is built by `SumOfProducts`, which
reduces once instead of once per product and per partial sum: numerators
are multiplied into one group per product denominator, and each group is
reduced when the sum is built.  A group whose numerator passes
`_GROUP_MAX_TERMS` terms is reduced at once and started again empty.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, log

__all__ = [
    "Scalar", "PoleError", "NotRationalError",
    "ZERO", "ONE", "I", "R", "M", "K",
    "integer", "rational", "q_power", "s_power", "qnum_sym", "qnum_std",
    "qfactorial_std", "lambda_", "two_q", "subst_classical", "SumOfProducts",
]

_NKEY0 = (0, 0, 0, 0, 0)
_DKEY0 = (0, 0, 0)
_DEN_ONE = {_DKEY0: 1}


class PoleError(ArithmeticError):
    """Denominator vanishes at the requested substitution point."""


class NotRationalError(ArithmeticError):
    """Value is not rational at the substitution point (residual r)."""


def _nmul_into(acc, k1, c1, k2, c2):
    """Accumulate the product of two numerator monomials into dict acc."""
    c = c1 * c2
    ei = k1[3] + k2[3]
    if ei >= 2:
        ei -= 2
        c = -c
    es = k1[0] + k2[0]
    em = k1[1] + k2[1]
    ek = k1[2] + k2[2]
    er = k1[4] + k2[4]
    if er >= 2:
        # r^2 = s^2 + s^-2
        for key in ((es + 2, em, ek, ei, 0), (es - 2, em, ek, ei, 0)):
            v = acc.get(key, 0) + c
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]
        return
    key = (es, em, ek, ei, er)
    v = acc.get(key, 0) + c
    if v:
        acc[key] = v
    elif key in acc:
        del acc[key]


def _nmul(n1, n2):
    if not n1 or not n2:
        return {}
    acc = {}
    for k1, c1 in n1.items():
        for k2, c2 in n2.items():
            _nmul_into(acc, k1, c1, k2, c2)
    return acc


def _dmul(d1, d2):
    acc = {}
    for (a1, b1, c1), v1 in d1.items():
        for (a2, b2, c2), v2 in d2.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            v = acc.get(key, 0) + v1 * v2
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]
    return acc


def _is_unit(n):
    """Whether the numerator n is a unit +-c s^a i^b: one key, no m, k, r."""
    if len(n) != 1:
        return False
    (_es, em, ek, _ei, er), = n
    return not (em or ek or er)


def _product_factors(d1, d2):
    """The factors to pass with the denominator d1 d2.  When one of them is
    a monomial the product shares the other's cached split, so none are."""
    return (d1, d2) if len(d1) > 1 and len(d2) > 1 else ()


def _nadd(n1, n2):
    acc = dict(n1)
    for key, c in n2.items():
        v = acc.get(key, 0) + c
        if v:
            acc[key] = v
        elif key in acc:
            del acc[key]
    return acc


def _nscale(n, c):
    if c == 0:
        return {}
    return {key: v * c for key, v in n.items()}


def _den_as_num(d):
    return {(es, em, ek, 0, 0): v for (es, em, ek), v in d.items()}


def _num_real_part(n):
    """Numerator restricted to e_i = e_r = 0, as a denominator-style dict."""
    return {(es, em, ek): v for (es, em, ek, ei, er), v in n.items()
            if ei == 0 and er == 0}


def _content(*dicts):
    g = 0
    for d in dicts:
        for v in d.values():
            g = gcd(g, v)
            if g == 1:
                return 1
    return g


class Scalar:
    """Immutable element of the exact coefficient field."""

    __slots__ = ("num", "den")
    __hash__ = None

    def __init__(self, num, den=None, _normalize=True, _factors=()):
        # _factors: denominators whose product is den, when den was built
        # as one (their cached splits give den's split)
        if den is None:
            den = {_DKEY0: 1}
        if _normalize:
            num, den = _light_normalize(num, den, _factors)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        if self.den == {_DKEY0: 1}:
            return self.num == {_NKEY0: 1}
        return self == ONE

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.den == other.den:
            return Scalar(_nadd(self.num, other.num), dict(self.den))
        n = _nadd(_nmul(self.num, _den_as_num(other.den)),
                  _nmul(other.num, _den_as_num(self.den)))
        if not n:
            return ZERO
        return Scalar(n, _dmul(self.den, other.den),
                      _factors=_product_factors(self.den, other.den))

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Scalar(_nscale(self.num, -1), dict(self.den), _normalize=False)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        d1, d2 = self.den, other.den
        one1, one2 = d1 == _DEN_ONE, d2 == _DEN_ONE
        if one1 and one2:
            return Scalar(_nmul(self.num, other.num), {_DKEY0: 1},
                          _normalize=False)
        if (one1 and _is_unit(self.num)) or (one2 and _is_unit(other.num)):
            # a unit shares no factor with the other, reduced, denominator
            num = _nmul(self.num, other.num)
            den = d2 if one1 else d1
            c = _content(den, num)
            if c > 1:
                num = {key: v // c for key, v in num.items()}
                den = {key: v // c for key, v in den.items()}
            return Scalar(num, den, _normalize=False)
        return Scalar(_nmul(self.num, other.num), _dmul(d1, d2),
                      _factors=_product_factors(d1, d2))

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return ONE
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero Scalar")
        # value = num/den; inverse = den/num.  Clear r then i from the new
        # denominator by conjugation.
        a = {key: v for key, v in self.num.items() if key[4] == 0}
        b = {key[:4] + (0,): v for key, v in self.num.items() if key[4] == 1}
        if b:
            # (a + b r)^-1 = (a - b r) / (a^2 - b^2 (s^2 + s^-2))
            rr = {(2, 0, 0, 0, 0): 1, (-2, 0, 0, 0, 0): 1}
            denom_c = _nadd(_nmul(a, a), _nscale(_nmul(_nmul(b, b), rr), -1))
            conj_r = _nadd(a, _nscale({k[:4] + (1,): v for k, v in b.items()}, -1))
        else:
            denom_c = dict(a)
            conj_r = {_NKEY0: 1}
        # denom_c is r-free; clear i
        cre = {key: v for key, v in denom_c.items() if key[3] == 0}
        cim = {key[:3] + (0, 0): v for key, v in denom_c.items() if key[3] == 1}
        if cim:
            new_den_num = _nadd(_nmul(cre, cre), _nmul(cim, cim))
            conj_i = _nadd(cre, _nscale({k[:3] + (1, 0): v for k, v in cim.items()}, -1))
        else:
            new_den_num = denom_c
            conj_i = {_NKEY0: 1}
        new_num = _nmul(_nmul(_den_as_num(self.den), conj_r), conj_i)
        new_den = {key[:3]: v for key, v in new_den_num.items()}
        return Scalar(new_num, new_den)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return _nmul(self.num, _den_as_num(other.den)) == \
            _nmul(other.num, _den_as_num(self.den))

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    def __bool__(self):
        return bool(self.num)

    # -- normal forms and substitution -------------------------------------

    def canonical(self):
        """Fully reduced representative (unique per field value)."""
        num, den = _full_reduce(self.num, self.den)
        return Scalar(num, den, _normalize=False)

    def subst_classical(self):
        """Exact value at s = 1 (q = 1); keeps m, k, i symbolic.

        Raises PoleError if the reduced denominator vanishes at s = 1 and
        NotRationalError if a residual factor r survives (r -> sqrt(2) has
        no rational value).
        """
        red = self.canonical()
        dval = {}
        for (_es, em, ek), v in red.den.items():
            key = (0, em, ek)
            w = dval.get(key, 0) + v
            if w:
                dval[key] = w
            elif key in dval:
                del dval[key]
        if not dval:
            raise PoleError("denominator vanishes at q = 1")
        nval = {}
        for (_es, em, ek, ei, er), v in red.num.items():
            if er:
                raise NotRationalError("residual r = [2]^(1/2) at q = 1")
            key = (0, em, ek, ei, 0)
            w = nval.get(key, 0) + v
            if w:
                nval[key] = w
            elif key in nval:
                del nval[key]
        return Scalar(nval, dval)

    def as_fraction(self):
        """The value as a Fraction; requires a pure rational constant."""
        red = self.canonical()
        if any(key != _DKEY0 for key in red.den):
            raise NotRationalError("denominator is not constant")
        d = red.den[_DKEY0]
        n = 0
        for key, v in red.num.items():
            if key != _NKEY0:
                raise NotRationalError("value is not a rational constant")
            n = v
        return Fraction(n, d)

    def __repr__(self):
        from .surface import scalar_to_str
        return scalar_to_str(self)


# -- deferred sums of products ------------------------------------------------

# A group whose numerator passes this many terms is reduced at once, and
# the group starts again empty.  Under one denominator a group gains terms
# only as the exponents of its products spread, so the engine's groups stay
# far smaller: at most 22 terms over both gradients of the criterion-4 and
# benchmark inputs, the benchmark's wave and matrix batches and
# `verify all --max-degree 4`.  A bound more than ten times that never
# costs on those inputs, and it keeps an adversarial sum from deferring all
# of its work to one reduction of an unbounded numerator.
_GROUP_MAX_TERMS = 256


class SumOfProducts:
    """Sums of products a * b of Scalars, one sum per key, reduced once.

    `add(key, a, b)` multiplies the numerators of a and b into the group of
    the key with the product's denominator, without reducing anything.  The
    product denominator is formed once per pair of denominators and passes
    its factors on, so that the cyclotomic splits stay cached.  `result()`
    reduces each group once and sums the groups of each key.  A key that
    receives a single product costs no denominator work: `result()` forms
    it with `Scalar.__mul__`, whose unit fast path needs no reduction.
    """

    __slots__ = ("_lone", "_groups", "_pairs", "_dens", "_sums")

    def __init__(self):
        self._lone = {}       # key -> (a, b) while its only product, else None
        self._groups = {}     # (key, den index) -> [num, den, factors]
        self._pairs = {}      # items of (den a, den b) -> _pair(den a, den b)
        self._dens = {}       # product den as a frozenset -> den index
        self._sums = {}       # key -> sum of the groups reduced so far

    def add(self, key, a, b):
        """Add a * b to the sum of key."""
        if not a.num or not b.num:
            return
        if key not in self._lone:
            self._lone[key] = (a, b)
            return
        lone = self._lone[key]
        if lone:
            self._lone[key] = None
            self._group_add(key, *lone)
        self._group_add(key, a, b)

    def _group_add(self, key, a, b):
        da, db = a.den, b.den
        pkey = (tuple(da.items()), tuple(db.items()))
        pair = self._pairs.get(pkey)
        if pair is None:
            pair = self._pairs[pkey] = self._pair(da, db)
        gkey = (key, pair[0])
        group = self._groups.get(gkey)
        if group is None:
            group = self._groups[gkey] = [{}, pair[1], pair[2]]
        num = group[0]
        for k1, c1 in a.num.items():
            for k2, c2 in b.num.items():
                _nmul_into(num, k1, c1, k2, c2)
        if len(num) > _GROUP_MAX_TERMS:
            self._reduce(key, Scalar(num, group[1], _factors=group[2]))
            group[0] = {}

    def _pair(self, da, db):
        """(index, den, factors) of the product denominator da db."""
        if da == _DEN_ONE:
            den, factors = db, ()
        elif db == _DEN_ONE:
            den, factors = da, ()
        else:
            den, factors = _dmul(da, db), _product_factors(da, db)
        index = self._dens.setdefault(frozenset(den.items()), len(self._dens))
        return index, den, factors

    def _reduce(self, key, x):
        prev = self._sums.get(key)
        self._sums[key] = x if prev is None else prev + x

    def result(self):
        """{key: sum} for the keys whose sum is not zero.  The reduced sums
        own the numerators, so the accumulator is emptied."""
        for key, lone in self._lone.items():
            if lone:
                self._sums[key] = lone[0] * lone[1]
        for (key, _), (num, den, factors) in self._groups.items():
            if num:
                self._reduce(key, Scalar(num, den, _factors=factors))
        out = {key: x for key, x in self._sums.items() if x.num}
        self._lone, self._groups, self._sums = {}, {}, {}
        return out


# -- normalization ----------------------------------------------------------

def _light_normalize(num, den, factors=()):
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, {_DKEY0: 1}
    # shift minimal s-degree of den into num (Laurent units)
    shift = min(key[0] for key in den)
    if shift:
        den = {(es - shift, em, ek): v for (es, em, ek), v in den.items()}
        num = {(es - shift, em, ek, ei, er): v
               for (es, em, ek, ei, er), v in num.items()}
    if len(den) > 1 and all(k[1] == 0 and k[2] == 0 for k in den):
        num, den = _reduce_s_only(num, den, factors)
    c = _content(num, den)
    if c > 1:
        num = {key: v // c for key, v in num.items()}
        den = {key: v // c for key, v in den.items()}
    if den[min(den)] < 0:
        num = _nscale(num, -1)
        den = {key: -v for key, v in den.items()}
    return num, den


def _dense(den):
    """An s-only polynomial dict (s-degree first in each key, all >= 0)
    as a little-endian coefficient list."""
    out = [0] * (max(k[0] for k in den) + 1)
    for key, v in den.items():
        out[key[0]] = v
    return out


def _slices(num):
    """Numerator slices by (e_m, e_k, e_i, e_r), each as {e_s: coeff}."""
    slices = {}
    for (es, em, ek, ei, er), v in num.items():
        slices.setdefault((em, ek, ei, er), {})[es] = v
    return slices


def _join(slices):
    return {(es, em, ek, ei, er): v
            for (em, ek, ei, er), sl in slices.items() for es, v in sl.items()}


def _shifted(sl):
    """A slice as (s-shift, little-endian coefficient list)."""
    lo = min(sl)
    arr = [0] * (max(sl) - lo + 1)
    for es, v in sl.items():
        arr[es - lo] = v
    return lo, arr


def _unshifted(lo, arr):
    return {j + lo: v for j, v in enumerate(arr) if v}


def _div_slice(sl, g):
    lo, arr = _shifted(sl)
    return _unshifted(lo, _div_monic(arr, g))


def _reduce_s_only(num, den, factors=()):
    """Cancel the gcd when the denominator is a polynomial in s alone.

    Keeps fractions small along summation chains.  The gcd is read off the
    denominator's cyclotomic split (see `_den_split`): each Phi_d is divided
    out of every numerator slice as long as all of them divide.  A
    denominator that is not a product of Phi_d's falls back to `_reduce_prs`.
    `factors` are denominators whose product is `den`, when known.
    """
    slices = _slices(num)
    probe = sorted(slices.values(), key=len)
    if len(probe[0]) == 1:
        # an s-monomial slice shares no factor with the denominator
        return num, den
    split = _den_split(den, factors)
    if split is None:
        return _reduce_prs(num, den)
    cancelled = {}
    for d, e in split.items():
        for _ in range(e):
            if not all(_phi_divides(sl.items(), d) for sl in probe):
                break
            phi = _cyclotomic(d)
            slices = {key: _div_slice(sl, phi) for key, sl in slices.items()}
            probe = sorted(slices.values(), key=len)
            cancelled[d] = cancelled.get(d, 0) + 1
    if not cancelled:
        return num, den
    prod = [1]
    for d, c in cancelled.items():
        for _ in range(c):
            prod = _mul_zs(prod, _cyclotomic(d))
    new_den = {(es, 0, 0): v
               for es, v in enumerate(_div_monic(_dense(den), prod)) if v}
    _SPLITS.setdefault(_prim_key(new_den), {
        d: e - cancelled.get(d, 0) for d, e in split.items()
        if e > cancelled.get(d, 0)})
    return _join(slices), new_den


def _reduce_prs(num, den):
    """Reference reduction for s-only denominators: a primitive PRS gcd.

    Works over Z[s] (s-power units are free to move, so slices are shifted
    to degree 0 before taking gcds).  Used for denominators that are not
    products of cyclotomic polynomials, and by the tests as the reference
    for the split path.
    """
    g = _dense(den)
    arrays = {key: _shifted(sl) for key, sl in _slices(num).items()}
    for _, arr in arrays.values():
        g = _gcd_zs(g, arr)
        if len(g) == 1:
            return num, den
    new_den = {}
    for es, v in enumerate(_div_zs(_dense(den), g)):
        if v:
            new_den[(es, 0, 0)] = v
    return _join({key: _unshifted(lo, _div_zs(arr, g))
                  for key, (lo, arr) in arrays.items()}), new_den


def _strip_zs(a):
    """Strip trailing zero coefficients (list little-endian in s)."""
    n = len(a)
    while n > 1 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _prim_zs(a):
    """Shift out s^k factors and integer content; primitive part."""
    a = _strip_zs(a)
    lead = 0
    while lead < len(a) - 1 and a[lead] == 0:
        lead += 1
    a = a[lead:]
    c = reduce(gcd, (abs(v) for v in a if v), 0)
    if c > 1:
        a = [v // c for v in a]
    return a


def _gcd_zs(a, b):
    """Primitive gcd of integer polynomials in s (lists, little-endian),
    with a positive leading coefficient."""
    a, b = _prim_zs(a), _prim_zs(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1 or b[0] != 0:
        if len(b) == 1:
            return [1]
        # primitive pseudo-remainder a mod b
        r = list(a)
        lb = b[-1]
        while len(r) >= len(b) and any(r):
            r = _strip_zs(r)
            if len(r) < len(b):
                break
            shift = len(r) - len(b)
            lr = r[-1]
            g0 = gcd(lr, lb)
            mul_r, mul_b = lb // g0, lr // g0
            r = [v * mul_r for v in r]
            for j, bv in enumerate(b):
                r[j + shift] -= mul_b * bv
            r = _strip_zs(r)
        r = _prim_zs(r)
        a, b = b, r
    if len(a) == 1 and a[0] == 0:
        return [1]
    a = _prim_zs(a)
    return a if a[-1] > 0 else [-v for v in a]


def _div_zs(a, g):
    """Exact division of an integer s-polynomial by g (primitive)."""
    if g == [1]:
        return list(a)
    a = list(a)
    out = [0] * (len(a) - len(g) + 1)
    glead = g[-1]
    for pos in range(len(a) - 1, len(g) - 2, -1):
        c = a[pos]
        if c == 0:
            continue
        qc, rr = divmod(c, glead)
        if rr:
            raise ArithmeticError("inexact s-polynomial division")
        j = pos - (len(g) - 1)
        out[j] = qc
        for t, gv in enumerate(g):
            a[j + t] -= qc * gv
    if any(a):
        raise ArithmeticError("inexact s-polynomial division")
    return out


# -- cyclotomic splits ------------------------------------------------------
#
# The split of an s-only denominator is {d: e_d} with
# den = c * prod_d Phi_d(s)^e_d.  Splits are cached by the primitive part of
# the denominator (content and sign divided out), so c * den shares the
# entry of den.  A product's split is the sum of its factors' splits, so
# only fresh denominators (inverses, say) are ever split from scratch; the
# q-factorials, whose inverses the q-exponentials take, are registered as
# they are built.  The entry is None for a denominator that is not all
# cyclotomic, or whose split from scratch would need an order d above
# _SCRATCH_MAX_ORDER; the PRS reduces those.

_SPLITS = {}
# Largest order d tried by a split from scratch: Phi_4n is the largest
# factor of [[n]], and 4 * 64 covers every truncation degree the command
# line accepts.  Trying every order up to L costs about L * (L + terms);
# for a sparse polynomial such as 1 + s^1000, whose largest factor is
# Phi_2000, that is far more than the PRS.
_SCRATCH_MAX_ORDER = 256
_PHI = {}
_COFACTORS = {}


def _mul_zs(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] += av * bv
    return out


def _div_monic(a, g):
    """Quotient of the s-polynomial a by the monic g, which must divide it."""
    deg = len(g) - 1
    low = [(t, v) for t, v in enumerate(g[:-1]) if v]
    a = list(a)
    out = [0] * (len(a) - deg)
    for j in range(len(out) - 1, -1, -1):
        c = a[j + deg]
        if c:
            out[j] = c
            for t, v in low:
                a[j + t] -= c * v
    if any(a[:deg]):
        raise ArithmeticError("inexact s-polynomial division")
    return out


def _totient(d):
    out, m, p = d, d, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _cyclotomic(d):
    """Phi_d(s) as a little-endian coefficient list."""
    phi = _PHI.get(d)
    if phi is None:
        phi = [-1] + [0] * (d - 1) + [1]
        for k in range(1, d):
            if d % k == 0:
                phi = _div_monic(phi, _cyclotomic(k))
        _PHI[d] = phi
    return phi


def _phi_divides(terms, d):
    """Exact test of Phi_d | p for p given by its (e_s, coeff) terms, e_s
    of any sign (s is a unit mod Phi_d).  Phi_d divides s^d - 1, so p is
    folded mod s^d - 1 first.  The fold f is divisible by Phi_d iff it
    vanishes at every primitive d-th root of unity, that is iff f times
    prod_{p | d prime} (s^(d/p) - 1), which vanishes at every other d-th
    root, is 0 mod s^d - 1.  The last factor s^k - 1 kills f iff f is
    periodic with period k."""
    f = [0] * d
    for es, v in terms:
        f[es % d] += v
    ks = _prime_cofactors(d)
    if not ks:
        return not f[0]                 # d = 1: p(1) = 0
    for k in ks[1:]:
        f = [a - b for a, b in zip(f[-k:] + f[:-k], f)]
    k = ks[0]
    return f[k:] + f[:k] == f


def _prime_cofactors(d):
    """The d/p for the primes p dividing d."""
    out = _COFACTORS.get(d)
    if out is None:
        out, m, p = [], d, 2
        while m > 1:
            if p * p > m:
                p = m
            if m % p == 0:
                out.append(d // p)
                while m % p == 0:
                    m //= p
            p += 1
        _COFACTORS[d] = out
    return out


def _prim_key(den):
    """Cache key of an s-only denominator dict (lowest term s^0): its
    primitive part with a positive constant term, as a frozenset."""
    c = gcd(*den.values())
    if den[_DKEY0] < 0:
        c = -c
    if c == 1:
        return frozenset(den.items())
    return frozenset((key, v // c) for key, v in den.items())


def _den_split(den, factors=()):
    """The cached split of an s-only denominator dict, or None.

    On a miss the split is the sum of the splits of `factors` when given,
    else it is computed from scratch; either way it is cached.
    """
    key = _prim_key(den)
    if key not in _SPLITS:
        if factors:
            parts = [_den_split(f) for f in factors]
            split = None if None in parts else _sum_splits(parts)
        else:
            split = _split_from_scratch(_dense(dict(key)))
        _SPLITS[key] = split
    return _SPLITS[key]


def _sum_splits(parts):
    out = {}
    for part in parts:
        for d, e in part.items():
            out[d] = out.get(d, 0) + e
    return out


def _order_bound(n):
    """An L with phi(d) > n for every d > L, from Rosser and Schoenfeld
    (1962): phi(d) > d / (e^gamma ln ln d + 3 / ln ln d) for d >= 3."""
    d = 30
    while d / (1.7811 * log(log(d)) + 3 / log(log(d))) <= n:
        d += 1
    return d


def _split_from_scratch(p):
    """Split of a primitive s-polynomial by trial division, or None.

    Orders d above _SCRATCH_MAX_ORDER are not tried, so a polynomial with
    such a factor gets None and is left to the PRS."""
    if p[-1] < 0:
        p = [-v for v in p]
    if p[-1] != 1 or p[0] not in (1, -1):
        return None
    rev = p[::-1]
    if rev != p and rev != [-v for v in p]:
        return None          # a product of Phi_d's is (anti)palindromic
    split = {}
    terms = [(j, v) for j, v in enumerate(p) if v]
    for d in range(1, min(_order_bound(len(p) - 1), _SCRATCH_MAX_ORDER) + 1):
        if len(p) == 1:
            break
        if _totient(d) >= len(p):
            continue
        while _phi_divides(terms, d):
            p = _div_monic(p, _cyclotomic(d))
            terms = [(j, v) for j, v in enumerate(p) if v]
            split[d] = split.get(d, 0) + 1
    return split if len(p) == 1 else None


def _full_reduce(num, den):
    num, den = _light_normalize(num, den)
    if not num or (len(den) == 1 and _DKEY0 in den):
        return num, den
    if all(k[1] == 0 and k[2] == 0 for k in den):
        # s-only denominators are fully reduced by _light_normalize
        return num, den
    # Cancel the common real polynomial factor.  Components of num by
    # (e_i, e_r) are real polynomials; a real factor divides num iff it
    # divides every component.
    comps = {}
    for (es, em, ek, ei, er), v in num.items():
        comps.setdefault((ei, er), {})[(es, em, ek)] = v
    shift = min(min(key[0] for key in comp) for comp in comps.values())
    shift = min(shift, 0)
    polys = [den] + [
        {(es - shift, em, ek): v for (es, em, ek), v in comp.items()}
        for comp in comps.values()
    ]
    g = _real_gcd(polys)
    if g is not None and g != {_DKEY0: 1}:
        den = _exact_div_real(den, g)
        new_num = {}
        for (ei, er), comp in comps.items():
            compq = _exact_div_real(
                {(es - shift, em, ek): v for (es, em, ek), v in comp.items()}, g)
            for (es, em, ek), v in compq.items():
                new_num[(es + shift, em, ek, ei, er)] = v
        num = new_num
    return _light_normalize(num, den)


_SYMPY_RING = None


def _real_gcd(polys):
    """Gcd of real sparse polynomials over Q, via sympy's ring gcd."""
    global _SYMPY_RING
    if _SYMPY_RING is None:
        from sympy.polys.rings import ring
        from sympy.polys.domains import QQ
        _SYMPY_RING = (ring("s,m,k", QQ), )
    R = _SYMPY_RING[0][0]
    from sympy.polys.domains import QQ
    elems = [R.from_dict({key: QQ(v) for key, v in p.items()}) for p in polys]
    g = elems[0]
    for e in elems[1:]:
        g = g.gcd(e)
        if g == R.one:
            return None
    # gcd is defined up to a unit: rescale to primitive integer form with
    # positive leading coefficient
    fracs = {tuple(int(e) for e in mono):
             Fraction(int(c.numerator), int(c.denominator))
             for mono, c in g.to_dict().items()}
    lcm = 1
    for f in fracs.values():
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = {key: int(f * lcm) for key, f in fracs.items()}
    c = reduce(gcd, (abs(v) for v in ints.values()))
    if ints[max(ints)] < 0:
        c = -c
    return {key: v // c for key, v in ints.items()}


def _exact_div_real(p, g):
    """Exact division of real sparse polys (keys (e_s, e_m, e_k))."""
    rem = dict(p)
    glead = max(g)
    gc = g[glead]
    quot = {}
    while rem:
        lead = max(rem)
        c = rem[lead]
        key = (lead[0] - glead[0], lead[1] - glead[1], lead[2] - glead[2])
        qc, res = divmod(c, gc)
        if key[1] < 0 or key[2] < 0 or res:
            raise ArithmeticError("inexact division")
        quot[key] = qc
        for gkey, gv in g.items():
            kk = (key[0] + gkey[0], key[1] + gkey[1], key[2] + gkey[2])
            v = rem.get(kk, 0) - qc * gv
            if v:
                rem[kk] = v
            elif kk in rem:
                del rem[kk]
    return quot


# -- constructors -----------------------------------------------------------

def integer(n):
    if n == 0:
        return ZERO
    return Scalar({_NKEY0: int(n)}, None, _normalize=False)


def rational(p, qd=1):
    f = Fraction(p, qd)
    if f == 0:
        return ZERO
    return Scalar({_NKEY0: f.numerator}, {_DKEY0: f.denominator},
                  _normalize=False)


def s_power(n):
    """s^n (s = q^(1/2))."""
    return Scalar({(n, 0, 0, 0, 0): 1}, None, _normalize=False)


def q_power(n):
    """q^n as a Laurent monomial (integer n)."""
    return s_power(2 * n)


ZERO = Scalar({}, None, _normalize=False)
ONE = integer(1)
I = Scalar({(0, 0, 0, 1, 0): 1}, None, _normalize=False)
R = Scalar({(0, 0, 0, 0, 1): 1}, None, _normalize=False)
M = Scalar({(0, 1, 0, 0, 0): 1}, None, _normalize=False)
K = Scalar({(0, 0, 1, 0, 0): 1}, None, _normalize=False)

_QNUM_SYM = {}
_QNUM_STD = {}
_QFACT = {}


def lambda_():
    """lambda = q - q^(-1)."""
    return Scalar({(2, 0, 0, 0, 0): 1, (-2, 0, 0, 0, 0): -1}, None,
                  _normalize=False)


def two_q():
    """The quantum two [2] = q + q^(-1)."""
    return qnum_sym(2)


def qnum_sym(n):
    """Symmetric quantum number [n] = (q^n - q^(-n)) / (q - q^(-1))."""
    if n < 0:
        raise ValueError("quantum number of negative integer")
    out = _QNUM_SYM.get(n)
    if out is None:
        # Laurent polynomial q^(n-1) + q^(n-3) + ... + q^(1-n)
        out = Scalar({(2 * j, 0, 0, 0, 0): 1 for j in range(n - 1, -n - 1, -2)},
                     None, _normalize=False) if n else ZERO
        _QNUM_SYM[n] = out
    return out


def qnum_std(n):
    """Standard bracket number [[n]] = 1 + q^2 + ... + q^(2(n-1))."""
    if n < 0:
        raise ValueError("quantum number of negative integer")
    out = _QNUM_STD.get(n)
    if out is None:
        out = Scalar({(4 * j, 0, 0, 0, 0): 1 for j in range(n)}, None,
                     _normalize=False) if n else ZERO
        _QNUM_STD[n] = out
    return out


def qfactorial_std(n):
    """[[n]]! = [[n]] [[n-1]] ... [[1]]."""
    if n < 0:
        raise ValueError("factorial of negative integer")
    out = _QFACT.get(n)
    if out is None:
        out = ONE if n == 0 else qfactorial_std(n - 1) * qnum_std(n)
        _QFACT[n] = out
        if n:
            # register the split of [[n]]! = [[n-1]]! [[n]], which its
            # inverse will need, from those of its factors
            _den_split(_num_real_part(out.num),
                       (_num_real_part(qfactorial_std(n - 1).num),
                        _num_real_part(qnum_std(n).num)))
    return out


def subst_classical(x):
    """Module-level convenience wrapper for Scalar.subst_classical."""
    return x.subst_classical()
