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

Equality is exact: two Scalars over split denominators (below) are reduced
on construction, so they are equal iff their stored forms are; any other
pair is compared by cross multiplication.  `canonical()` produces the fully
gcd-reduced representative (denominator's lowest monomial normalized
positive, coprime integer content), so equal values have identical canonical
forms.

Denominators in s alone are reduced on construction.  The engine builds
them from [2] = s^-2 Phi_8(s), lambda = s^-2 Phi_1 Phi_2 Phi_4 and
[[n]] = prod_{d | 4n, d not dividing 4} Phi_d(s), so each is c times a
product of cyclotomic polynomials Phi_d(s).  A Scalar carries the
exponents e_d, its denominator's *split*: a product's split is the sum of
its factors', and a reduction finds the gcd by exact trial division by each
Phi_d and subtracts what it cancels.  A denominator that does not split
falls back to a primitive-PRS gcd, and those involving m or k to sympy's.

A split denominator is its constant term c times the product of its
Phi_d^e_d, that product taken with constant term 1: den = c *
_split_den(1, split).  Such a Scalar stores (num, c, split) and builds its
dense `den` only when it is read.  Its reduction cancels the Phi_d by
trial division of the numerator slices; a product of Phi_d's is
primitive, so the content left is gcd(c, content(num)).  Two fractions
over split denominators c1 P1 and c2 P2 are added over their lcm,
lcm(c1, c2) times the product of the elementwise maximum of the splits.
Each numerator is multiplied by its cofactor, read from the splits, and
the reduction that follows divides the lcm, not the product of both
denominators.  A product is c1 c2 over the summed split.  Only a sum or a
product with an unsplit operand multiplies dense denominators.

A product with a unit +-c s^a i^b (one numerator term, no m, k or r, over
the trivial denominator) keeps the other factor's denominator and divides
out only the integer content: s and i are units, so the product shares no
factor with an already reduced denominator that the other did not.

A sum of products sum_t a_t b_t is built by `SumOfProducts`, which
reduces each output coefficient once instead of once per product and per
partial sum: numerators are multiplied into one group per product
denominator, and when the sum is built the groups of a key are summed
over the lcm of their denominators and reduced once.  A product of three
factors, a b t for each entry t of a normal-ordering table, multiplies
the numerators of a and b once and leaves them unreduced.  A group whose
numerator passes `_GROUP_MAX_TERMS` terms is reduced at once and started
again empty.  It builds both gradients, every `Matrix` product, the
product of two multi-term Elements, the central stage of the PBW
conversion and the alpha expansion of a central Element.
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


def _nmul_into(acc, n1, n2):
    """Add the product of the numerators n1 and n2 into the dict acc.

    The one place that folds i^2 = -1 and r^2 = s^2 + s^-2."""
    for (s1, m1, k1, i1, r1), c1 in n1.items():
        for (s2, m2, k2, i2, r2), c2 in n2.items():
            c = c1 * c2
            ei = i1 + i2
            if ei >= 2:
                ei -= 2
                c = -c
            es, em, ek = s1 + s2, m1 + m2, k1 + k2
            if r1 + r2 >= 2:
                # r^2 = s^2 + s^-2
                key = (es + 2, em, ek, ei, 0)
                v = acc.get(key, 0) + c
                if v:
                    acc[key] = v
                elif key in acc:
                    del acc[key]
                es -= 2
                er = 0
            else:
                er = r1 + r2
            key = (es, em, ek, ei, er)
            v = acc.get(key, 0) + c
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]


def _nmul(n1, n2):
    acc = {}
    _nmul_into(acc, n1, n2)
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


def _content(d, g=0):
    """The gcd of g and the coefficients of the dict d."""
    for v in d.values():
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


class Scalar:
    """Immutable element of the exact coefficient field.

    Over a split denominator it stores (num, c, split), and `den` = c *
    _split_den(1, split) is built on its first read and kept; over any
    other denominator (split None, c None) it stores `den`."""

    __slots__ = ("num", "_den", "_c", "split")
    __hash__ = None

    def __init__(self, num, den=None, _normalize=True, split=False):
        # split: den's cyclotomic split when known; False looks it up
        if den is None:
            c, split = 1, ()
        else:
            if _normalize:
                num, den, split = _light_normalize(num, den, split)
            elif split is False:
                split = _den_split(den)
            c = None if split is None else den[_DKEY0]
        _init(self, num, den, c, split)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    @property
    def den(self):
        den = self._den
        if den is None:
            den = _split_den(self._c, self.split)
            _SET_SLOTS[1](self, den)         # fill the _den slot only
        return den

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self == ONE

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        s1, s2 = self.split, other.split
        if s1 is None or s2 is None:
            d1, d2 = self.den, other.den
            if d1 == d2:
                return Scalar(_nadd(self.num, other.num), d1, split=None)
            n = _nadd(_nmul(self.num, _den_as_num(d2)),
                      _nmul(other.num, _den_as_num(d1)))
            return Scalar(n, _dmul(d1, d2), split=None)
        c1, c2 = self._c, other._c
        if c1 == c2 and s1 == s2:
            return _split_scalar(_nadd(self.num, other.num), c1, s1)
        # over the lcm: constant terms c1, c2, split the elementwise max
        g = gcd(c1, c2)
        split = _max_splits(s1, s2)
        n = _nadd(_nmul(self.num, _den_as_num(
                      _split_den(c2 // g, _div_splits(split, s1)))),
                  _nmul(other.num, _den_as_num(
                      _split_den(c1 // g, _div_splits(split, s2)))))
        return _split_scalar(n, c1 // g * c2, split)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _init(object.__new__(Scalar), _nscale(self.num, -1),
                     self._den, self._c, self.split)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        s1, s2 = self.split, other.split
        one1 = s1 == () and self._c == 1
        one2 = s2 == () and other._c == 1
        if one1 and one2:
            return _split_scalar(_nmul(self.num, other.num), 1, (),
                                 normalize=False)
        if (one1 and _is_unit(self.num)) or (one2 and _is_unit(other.num)):
            # a unit shares no factor with the other, reduced, denominator
            num = _nmul(self.num, other.num)
            x = other if one1 else self
            c = _content(num, _content(x._den) if x._c is None else x._c)
            if c > 1:
                num = {key: v // c for key, v in num.items()}
            if x._c is not None:
                return _split_scalar(num, x._c // c, x.split,
                                     normalize=False)
            den = {key: v // c for key, v in x._den.items()}
            return Scalar(num, den, _normalize=False, split=None)
        split = _add_splits(s1, s2)
        if split is None:
            return Scalar(_nmul(self.num, other.num),
                          _dmul(self.den, other.den), split=None)
        return _split_scalar(_nmul(self.num, other.num),
                             self._c * other._c, split)

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
        if self.split is not None and other.split is not None:
            # split Scalars are reduced on construction: one form per value
            return self._c == other._c and self.split == other.split \
                and self.num == other.num
        if self.den == other.den:
            return self.num == other.num
        return _nmul(self.num, _den_as_num(other.den)) == \
            _nmul(other.num, _den_as_num(self.den))

    def __bool__(self):
        return bool(self.num)

    # -- normal forms and substitution -------------------------------------

    def canonical(self):
        """Fully reduced representative (unique per field value).  A
        denominator in s alone was fully reduced on construction."""
        if self.split is not None or not any(k[1] or k[2] for k in self._den):
            return self
        num, den, split = _full_reduce(self.num, self.den)
        return Scalar(num, den, _normalize=False, split=split)

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
    the key and the product denominator, known by its constant term and its
    split, without reducing anything; a product whose split is None is
    formed and summed at once.  `result()` sums the groups of each key over
    the lcm of their denominators, the elementwise maximum of the splits
    over the lcm of the constant terms, each numerator times its cofactor,
    and reduces that sum once.  A key that receives a single product costs
    no denominator work: `result()` forms it with `Scalar.__mul__`, whose
    unit fast path needs no reduction.

    `_add_each(entries, a, b)` adds a * b * t to the sum of each key for
    the (key, t) of entries, as `algebra.mul_into` does for a tail table
    of several terms.  The numerators of a and b are multiplied once and
    stay unreduced, so their product always goes into a group: as a lone
    factor, the unit fast path would keep its unreduced denominator.
    """

    __slots__ = ("_lone", "_groups", "_sums")

    def __init__(self):
        self._lone = {}       # key -> (a, b) while its only product, else None
        self._groups = {}     # (key, constant term, split) -> numerator
        self._sums = {}       # key -> sum of the reduced products so far

    def add(self, key, a, b):
        """Add a * b to the sum of key."""
        if not a.num or not b.num:
            return
        if key not in self._lone:
            self._lone[key] = (a, b)
            return
        self._unlone(key)
        self._add_product(key, a, b)

    def _add_each(self, entries, a, b):
        """Add a * b * t to the sum of key for each (key, t) of entries."""
        if not a.num or not b.num:
            return
        split = _add_splits(a.split, b.split)
        if split is None or any(t.split is None for _, t in entries):
            ab = a * b
            for key, t in entries:
                self.add(key, ab, t)
            return
        n, c = _nmul(a.num, b.num), a._c * b._c
        for key, t in entries:
            self._unlone(key)
            self._group_add(key, n, t.num, c * t._c,
                            _add_splits(split, t.split))

    def _unlone(self, key):
        """Mark key as summed in groups, moving its lone product there."""
        lone = self._lone.get(key)
        self._lone[key] = None
        if lone:
            self._add_product(key, *lone)

    def _add_product(self, key, a, b):
        split = _add_splits(a.split, b.split)
        if split is None:
            self._reduce(key, a * b)
        else:
            self._group_add(key, a.num, b.num, a._c * b._c, split)

    def _group_add(self, key, n1, n2, c, split):
        gkey = (key, c, split)
        num = self._groups.get(gkey)
        if num is None:
            num = self._groups[gkey] = {}
        _nmul_into(num, n1, n2)
        if len(num) > _GROUP_MAX_TERMS:
            self._reduce(key, _split_scalar(num, c, split))
            self._groups[gkey] = {}

    def _reduce(self, key, x):
        prev = self._sums.get(key)
        self._sums[key] = x if prev is None else prev + x

    def result(self):
        """{key: sum} for the keys whose sum is not zero.  The reduced sums
        own the numerators, so the accumulator is emptied."""
        for key, lone in self._lone.items():
            if lone:
                self._sums[key] = lone[0] * lone[1]
        groups = {}
        for (key, c, split), num in self._groups.items():
            if num:
                groups.setdefault(key, []).append((c, split, num))
        for key, group in groups.items():
            c, split, num = group[0]
            if len(group) > 1:
                # over the lcm: constant terms' lcm, splits' elementwise max
                for c2, split2, _ in group[1:]:
                    c = c // gcd(c, c2) * c2
                    split = _max_splits(split, split2)
                num = {}
                for c2, split2, num2 in group:
                    _nmul_into(num, num2, _den_as_num(_split_den(
                        c // c2, _div_splits(split, split2))))
            self._reduce(key, _split_scalar(num, c, split))
        out = {key: x for key, x in self._sums.items() if x.num}
        self._lone, self._groups, self._sums = {}, {}, {}
        return out


# -- normalization ----------------------------------------------------------

_SET_SLOTS = tuple(getattr(Scalar, name).__set__ for name in Scalar.__slots__)


def _init(x, num, den, c, split):
    """Fill the slots of the new Scalar x; returns x."""
    set_num, set_den, set_c, set_split = _SET_SLOTS
    set_num(x, num)
    set_den(x, den)
    set_c(x, c)
    set_split(x, split)
    return x


def _split_scalar(num, c, split, normalize=True):
    """The Scalar num / (c prod Phi_d^e_d), its den built when read."""
    if normalize:
        num, c, split = _normalize_split(num, c, split)
    return _init(object.__new__(Scalar), num, None, c, split)


def _normalize_split(num, c, split):
    """(num, c, split) of num / (c prod Phi_d^e_d) reduced.  A product of
    Phi_d's is primitive, so once the Phi_d that divide num are cancelled,
    the content left is gcd(c, content(num)); the sign of c goes to num."""
    if not num:
        return {}, 1, ()
    if split:
        num, c, split = _reduce_s_only(num, c, split)
    if c < 0:
        num, c = _nscale(num, -1), -c
    if c > 1:
        g = _content(num, c)
        if g > 1:
            num, c = {key: v // g for key, v in num.items()}, c // g
    return num, c, split


def _light_normalize(num, den, split=False):
    """(num, den, split) normalized, den's split looked up if False."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, _DEN_ONE, ()
    # shift minimal s-degree of den into num (Laurent units)
    shift = min(key[0] for key in den)
    if shift:
        den = {(es - shift, em, ek): v for (es, em, ek), v in den.items()}
        num = {(es - shift, em, ek, ei, er): v
               for (es, em, ek, ei, er), v in num.items()}
    if split is False:
        split = _den_split(den)
    if split is None and not any(k[1] or k[2] for k in den):
        # not a product of Phi_d's: the PRS reference reduction
        num, den = _reduce_prs(num, den)
        split = _den_split(den)
    if split is not None:
        num, c, split = _normalize_split(num, den[_DKEY0], split)
        return num, _split_den(c, split), split
    c = _content(num, _content(den))
    if c > 1:
        num = {key: v // c for key, v in num.items()}
        den = {key: v // c for key, v in den.items()}
    if den[min(den)] < 0:
        num = _nscale(num, -1)
        den = {key: -v for key, v in den.items()}
    return num, den, split


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


def _reduce_s_only(num, c, split):
    """Cancel the gcd of num and the denominator c prod Phi_d^e_d;
    returns (num, c, split).

    Keeps fractions small along summation chains.  Each Phi_d of the split
    is divided out of every numerator slice as long as all of them divide.
    """
    slices = _slices(num)
    probe = sorted(slices.values(), key=len)
    if len(probe[0]) == 1:
        # an s-monomial slice shares no factor with the denominator
        return num, c, split
    cancelled = {}
    for d, e in split:
        for _ in range(e):
            if not all(_phi_divides(sl.items(), d) for sl in probe):
                break
            phi = _cyclotomic(d)
            slices = {key: _div_slice(sl, phi) for key, sl in slices.items()}
            probe = sorted(slices.values(), key=len)
            cancelled[d] = cancelled.get(d, 0) + 1
    if not cancelled:
        return num, c, split
    # den / prod Phi_d^c_d, where that product's constant term is (-1)^c_1
    if cancelled.get(1, 0) % 2:
        c = -c
    split = tuple((d, e - cancelled.get(d, 0)) for d, e in split
                  if e > cancelled.get(d, 0))
    return _join(slices), c, split


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
# The split of a denominator in s alone is the sorted tuple of (d, e_d) with
# den = c * prod_d Phi_d(s)^e_d; it is () for a constant.  It is None for a
# denominator in m or k, and for one that is not all cyclotomic or whose
# split from scratch would need an order d above _SCRATCH_MAX_ORDER; the
# PRS reduces the latter.  Only a fresh denominator (an inverse, read text)
# is looked up in _SPLITS, by its primitive part (content and sign divided
# out).  The q-factorials, whose inverses the q-exponentials take, and the
# products of _split_den register theirs there.

_SPLITS = {}
_PRODUCTS = {(): _DEN_ONE}  # split -> its product of Phi_d's, constant term 1
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


def _binomials(d):
    """The (k, mu(d/k)) with d/k squarefree: Phi_d(s) is the product of
    (s^k - 1)^mu(d/k), and phi(d) the sum of k mu(d/k) (Moebius)."""
    out = [(d, 1)]
    for k in _prime_cofactors(d):
        out += [(j * k // d, -mu) for j, mu in out]
    return out


def _phi_product(split):
    """prod Phi_d(s)^e_d as a little-endian coefficient list, built from
    binomials s^k - 1, each multiplied or divided in one pass."""
    powers = {}
    for d, e in split:
        for k, mu in _binomials(d):
            powers[k] = powers.get(k, 0) + mu * e
    out = [1]
    for k, f in sorted(powers.items(), key=lambda kf: -kf[1]):  # divide last
        binom = [-1] + [0] * (k - 1) + [1]
        for _ in range(abs(f)):
            out = _mul_zs(binom, out) if f > 0 else _div_monic(out, binom)
    return out


def _cyclotomic(d):
    """Phi_d(s) as a little-endian coefficient list."""
    if d not in _PHI:
        _PHI[d] = _phi_product(((d, 1),))
    return _PHI[d]


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


def _den_split(den):
    """The split of a denominator dict with lowest s-power 0, cached."""
    if len(den) == 1 and _DKEY0 in den:
        return ()
    if any(k[1] or k[2] for k in den):
        return None
    key = _prim_key(den)
    if key not in _SPLITS:
        _SPLITS[key] = _split_from_scratch(_dense(dict(key)))
    return _SPLITS[key]


def _add_splits(a, b):
    """The split of a product of denominators with splits a and b."""
    if a is None or b is None:
        return None
    if not a or not b:
        return a or b
    out = dict(a)
    for d, e in b:
        out[d] = out.get(d, 0) + e
    return tuple(sorted(out.items()))


def _max_splits(a, b):
    """The split of the lcm of denominators with splits a and b."""
    out = dict(a)
    for d, e in b:
        if e > out.get(d, 0):
            out[d] = e
    return tuple(sorted(out.items()))


def _div_splits(a, b):
    """The split a / b, for b dividing a."""
    sub = dict(b)
    return tuple((d, e - sub.get(d, 0)) for d, e in a if e > sub.get(d, 0))


def _split_den(c, split):
    """The denominator with constant term c and the given split.  For c = 1
    it is the cached product itself: no code mutates a denominator."""
    p = _PRODUCTS.get(split)
    if p is None:
        dense = _phi_product(split)
        p = {(es, 0, 0): v * dense[0] for es, v in enumerate(dense) if v}
        _PRODUCTS[split] = p
        _SPLITS[frozenset(p.items())] = split
    return p if c == 1 else {key: c * v for key, v in p.items()}


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
        if sum(k * mu for k, mu in _binomials(d)) >= len(p):   # phi(d)
            continue
        while _phi_divides(terms, d):
            p = _div_monic(p, _cyclotomic(d))
            terms = [(j, v) for j, v in enumerate(p) if v]
            split[d] = split.get(d, 0) + 1
    return tuple(split.items()) if len(p) == 1 else None


def _full_reduce(num, den):
    """Cancel the gcd of num and a denominator in m or k, via sympy;
    returns (num, den, split)."""
    # Cancel the common real polynomial factor.  Components of num by
    # (e_i, e_r) are real polynomials; a real factor divides num iff it
    # divides every component.
    shift = min(0, min(key[0] for key in num))
    comps = {}
    for (es, em, ek, ei, er), v in num.items():
        comps.setdefault((ei, er), {})[(es - shift, em, ek)] = v
    g = _real_gcd([den, *comps.values()])
    if g is not None and g != {_DKEY0: 1}:
        den = _exact_div_real(den, g)
        num = {(es + shift, em, ek, ei, er): v
               for (ei, er), comp in comps.items()
               for (es, em, ek), v in _exact_div_real(comp, g).items()}
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
    return _split_scalar({_NKEY0: f.numerator}, f.denominator, (),
                         normalize=False)


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
            # inverse will need; [[n]] is prod Phi_d over d | 4n, d not | 4
            _SPLITS[_prim_key(_num_real_part(out.num))] = _add_splits(
                _den_split(_num_real_part(qfactorial_std(n - 1).num)),
                tuple((d, 1) for d in range(3, 4 * n + 1)
                      if 4 * n % d == 0 and d != 4))
    return out


def subst_classical(x):
    """Module-level convenience wrapper for Scalar.subst_classical."""
    return x.subst_classical()
