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

Every Scalar is reduced when it is built and stores (num, c, split): its
denominator is c * prod F^e, c a positive integer and each F an
irreducible factor of Z[s, m, k], primitive with a positive coefficient
on its lowest monomial (lexicographic in (e_s, e_m, e_k)).  The *split*
is the sorted tuple of the (id, e), the ids from one registry: Phi_d(s)
has id d, and any other factor a negative id given when it is first
seen.  Two Scalars are equal iff their stored forms are, and the dense
`den` is built only when it is read.

The engine builds its denominators from [2] = s^-2 Phi_8(s), lambda =
s^-2 Phi_1 Phi_2 Phi_4 and [[n]] = prod_{d | 4n, d not dividing 4}
Phi_d(s).  A product is c1 c2 over the summed split.  Two fractions are
added over their lcm, lcm(c1, c2) times the elementwise maximum of the
splits: each numerator is multiplied by its cofactor, read from the
splits, and the reduction that follows divides the lcm, not the product
of both denominators.  A reduction trial-divides the numerator by each
factor of the split and subtracts what it cancels; a product of
primitive factors is primitive, so the content left is gcd(c,
content(num)).

Only a fresh denominator, of an inverse, of read text or of
`Scalar(num, den)`, is factored: the Phi_d and the factors already
registered, m and k among them, by trial division, and what is left, if
anything, as one factor when it is linear in a variable, else by sympy's
`factor_list`, imported only then.  The splits are cached by primitive
part.

A product with [[n]], the coefficient of every Jackson derivative, is
formed by `mul_qnum_std` from the known factors of [[n]]: each Phi_d that
the split holds comes off it, one power each, and the numerator is
multiplied by the product of the other Phi_d of [[n]].  The result is
reduced without trial division: the Phi_d multiplied in are irreducible
and absent from the new split, and, monic with constant term 1, they
change neither sign nor content.  A dense product of Phi_d's is built
from the binomials s^k - 1 of the Moebius formula (`_phi_product`).

The split of [[n]]! is that of [[1]] .. [[n]] added: 1/[[n]]! is 1 over
it, nothing inverted, and [[n]]! its dense product.  Each memo of this
module is a `functools.lru_cache`, whose `cache_info()` reads its size.

A product with a unit +-c s^a i^b (one numerator term, no m, k or r, over
the trivial denominator) keeps the other factor's denominator and divides
out only the integer content: s and i are units, so the product shares no
factor with an already reduced denominator that the other did not.

A sum of products sum_t a_t b_t is built by `SumOfProducts`, which
reduces each output coefficient once instead of once per product and per
partial sum: numerators are multiplied into one group per key and product
denominator, and the groups of a key are summed over the lcm of their
denominators and reduced once.  It builds both gradients, every `Matrix`
product, the product of two multi-term Elements, the central stage of the
PBW conversion and the alpha expansion of a central Element.

Nearly all of them are products of numerators in s alone over Phi_d's
alone, multiplied packed: such a Scalar has a packed view (lo, P, norm),
P = sum c 2^(64 (e_s - lo)) over its terms c s^e_s and norm = sum |c|, so
a product is one integer product and a sum a shift and an add.  A packed
group takes a product only while its norm stays below 2^63, checked
before the add: each coefficient c_j of P = sum c_j 2^(64 j) is then one
balanced digit |c_j| < 2^63, read back exactly, once per coefficient, when
the key is summed.  A product with m, k, i or r, another factor or past
the bound sends its key to dict groups, summed as before.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from math import gcd, log

__all__ = [
    "Scalar", "PoleError", "NotRationalError",
    "ZERO", "ONE", "I", "R", "M", "K",
    "integer", "rational", "q_power", "s_power", "qnum_sym", "qnum_std",
    "mul_qnum_std", "qfactorial_std", "qfactorial_inverse", "lambda_", "two_q",
    "subst_classical", "power",
    "SumOfProducts",
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


def _content(d, g=0):
    """The gcd of g and the coefficients of the dict d."""
    for v in d.values():
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


class Scalar:
    """Immutable element of the exact coefficient field.

    It stores (num, c, split), reduced, and `den` = c * _split_den(1,
    split) is built on its first read and kept."""

    __slots__ = ("num", "_den", "_c", "split", "_pk")
    __hash__ = None

    def __init__(self, num, den=None):
        if den is None:
            c, split = 1, ()
        else:
            num, c, split = _light_normalize(num, den)
        _init(self, num, None, c, split)

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
        c1, c2 = self._c, other._c
        if c1 == c2 and s1 == s2:
            return _split_scalar(_nadd(self.num, other.num), c1, s1)
        return _over_lcm(((self.num, c1, s1), (other.num, c2, s2)))

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
            c = _content(num, x._c)
            if c > 1:
                num = {key: v // c for key, v in num.items()}
            return _split_scalar(num, x._c // c, x.split, normalize=False)
        return _split_scalar(_nmul(self.num, other.num),
                             self._c * other._c, _add_splits(s1, s2))

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n) if n else ONE

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
        # reduced on construction: one stored form per value
        return self._c == other._c and self.split == other.split \
            and self.num == other.num

    def __bool__(self):
        return bool(self.num)

    # -- normal forms and substitution -------------------------------------

    def canonical(self):
        """The unique representative of the value: the Scalar itself,
        which was reduced when it was built."""
        return self

    def subst_classical(self):
        """Exact value at s = 1 (q = 1); keeps m, k, i symbolic.

        Raises PoleError if the reduced denominator vanishes at s = 1 and
        NotRationalError if a residual factor r survives (r -> sqrt(2) has
        no rational value).
        """
        dval = {}
        for (_es, em, ek), v in self.den.items():
            key = (0, em, ek)
            w = dval.get(key, 0) + v
            if w:
                dval[key] = w
            elif key in dval:
                del dval[key]
        if not dval:
            raise PoleError("denominator vanishes at q = 1")
        nval = {}
        for (_es, em, ek, ei, er), v in self.num.items():
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
        if self.split:
            raise NotRationalError("denominator is not constant")
        if any(key != _NKEY0 for key in self.num):
            raise NotRationalError("value is not a rational constant")
        return Fraction(self.num.get(_NKEY0, 0), self._c)

    def __repr__(self):
        from .surface import scalar_to_str
        return scalar_to_str(self)


# -- deferred sums of products ------------------------------------------------

# A group whose numerator passes this many terms, or a packed group whose
# span in s does, is reduced at once and starts again empty.  The engine's
# groups stay far smaller: at most 22 terms over both gradients of the
# criterion-4 and benchmark inputs, the benchmark's wave and matrix batches
# and `verify all --max-degree 4`.  The bound keeps an adversarial sum from
# deferring all of its work to one reduction of an unbounded numerator.
_GROUP_MAX_TERMS = 256
_DIGIT_BOUND = 1 << 63      # the norm of a packed group stays below it


def _pack(x):
    """x's packed view (lo, P, norm), filled on first read: P = sum c 2^(64
    (e_s - lo)) and norm = sum |c| over its terms c s^e_s; False if x has
    m, k, i or r, or a factor other than a Phi_d."""
    num, p, norm = x.num, 0, 0
    lo = min(num, default=(0,))[0]
    for (es, em, ek, ei, er), v in num.items():
        if em or ek or ei or er:
            p = None
            break
        p += v << ((es - lo) << 6)
        norm += abs(v)
    view = p is not None and not (x.split and x.split[0][0] < 0) \
        and (lo, p, norm)
    _SET_SLOTS[4](x, view)
    return view


def _unpack(p):
    """The c_j of p = sum c_j 2^(64 j), all |c_j| < 2^63, the last nonzero
    unless p is: (p + h) ^ h, h = 2^63 in each digit, has them as int64."""
    n = p.bit_length() // 64 + 1    # 2^(64 n - 65) < |p| < 2^(64 n - 1)
    if n == 1:
        return [p]
    h = int.from_bytes(_DIGIT_BOUND.to_bytes(8, "little") * n, "little")
    return list(struct.unpack("<%dq" % n,
                              ((p + h) ^ h).to_bytes(8 * n, "little")))


def _unpacked_num(view):
    return {(view[0] + j, 0, 0, 0, 0): v
            for j, v in enumerate(_unpack(view[1])) if v}


@lru_cache(maxsize=None)
def _packed_cofactor(k, split, part):
    """(P, norm) of k times the product of the split over the part."""
    p = _split_den(1, _div_splits(split, part))
    return (k * sum(v << (es << 6) for (es, _, _), v in p.items()),
            k * sum(map(abs, p.values())))


def _packed_sum(parts):
    """The reduced sum of the packed fractions, given as ((lo, P, norm), c,
    split), over their lcm: as dicts if its norm could reach the bound,
    else read back once into the coefficient list that `_reduce` takes."""
    if len(parts) == 1:
        (lo, total, _), c, split = parts[0]
    else:
        c, split = _lcm(parts)
        lo = min(view[0] for view, _, _ in parts)
        total = norm = 0
        for (lo2, p, norm2), c2, split2 in parts:
            cof, cof_norm = _packed_cofactor(c // c2, split, split2)
            total += p * cof << ((lo2 - lo) << 6)
            norm += norm2 * cof_norm
        if norm >= _DIGIT_BOUND:
            return _over_lcm([(_unpacked_num(view), c2, split2)
                              for view, c2, split2 in parts])
    arr = _unpack(total)
    if not arr[-1]:
        return ZERO
    if not arr[0]:
        start = next(j for j, v in enumerate(arr) if v)
        arr, lo = arr[start:], lo + start
    if split:
        arr, c, split = _reduce(arr, c, split)
    g = gcd(c, *arr) if c > 0 else -gcd(c, *arr)
    return _init(object.__new__(Scalar), {(lo + j, 0, 0, 0, 0): v // g
                                          for j, v in enumerate(arr) if v},
                 None, c // g, split)


class SumOfProducts:
    """Sums of products a * b of Scalars, one sum per key, reduced once.

    A key with a single product is formed by `Scalar.__mul__`, whose unit
    fast path needs no reduction.  `_add_each(entries, a, b)` adds a * b *
    t for each (key, t) of a tail table of `algebra.mul_into`: a and b are
    multiplied once, and their product, unreduced, always goes in a group.
    """

    __slots__ = ("_keys", "_groups", "_packed", "_sums")

    def __init__(self):
        self._keys = {}       # key: lone (a, b), else None; False: dicts
        self._groups = {}     # (key, c, split) -> numerator dict
        self._packed = {}     # (key, c, split) -> [lo, P, norm]
        self._sums = {}       # key -> sum of the reduced products so far

    def add(self, key, a, b):
        """Add a * b to the sum of key."""
        if not a.num or not b.num:
            return
        if key not in self._keys:
            self._keys[key] = (a, b)
            return
        self._unlone(key)
        self._add_product(key, a, b)

    def _add_each(self, entries, a, b):
        """Add a * b * t to the sum of key for each (key, t) of entries."""
        if not a.num or not b.num:
            return
        split, c = _add_splits(a.split, b.split), a._c * b._c
        va = a._pk if a._pk is not None else _pack(a)
        vb = va and (b._pk if b._pk is not None else _pack(b))
        ab = vb and (va[0] + vb[0], va[1] * vb[1], va[2] * vb[2])
        n = None
        for key, t in entries:
            self._unlone(key)
            tc, tsplit = c * t._c, _add_splits(split, t.split)
            if not (ab and self._keys[key] is not False
                    and self._packed_add(key, tc, tsplit, ab, t)):
                n = n or _nmul(a.num, b.num)
                self._dict_add(key, n, t.num, tc, tsplit)

    def _unlone(self, key):
        """Mark key as summed in groups, moving its lone product there."""
        lone = self._keys.get(key)
        if lone is not False:
            self._keys[key] = None
            if lone:
                self._add_product(key, *lone)

    def _add_product(self, key, a, b):
        c, split = a._c * b._c, _add_splits(a.split, b.split)
        if a._pk is not False and self._keys[key] is not False:
            va = a._pk if a._pk is not None else _pack(a)
            if va and self._packed_add(key, c, split, va, b):
                return
        self._dict_add(key, a.num, b.num, c, split)

    def _packed_add(self, key, c, split, va, b):
        """Whether the product of the view va and b's went to the packed
        group of (key, c, split)."""
        vb = b._pk if b._pk is not None else _pack(b)
        if not vb:
            return False
        gkey, lo, norm = (key, c, split), va[0] + vb[0], va[2] * vb[2]
        group = self._packed.get(gkey) or [lo, 0, 0]
        if group[2] + norm >= _DIGIT_BOUND:
            return False
        self._packed[gkey] = group
        if lo < group[0]:       # align the lowest powers of s
            group[:2] = lo, group[1] << ((group[0] - lo) << 6)
        group[1] += va[1] * vb[1] << ((lo - group[0]) << 6)
        group[2] += norm
        if group[1].bit_length() >= _GROUP_MAX_TERMS << 6:    # span > bound
            del self._packed[gkey]
            self._reduce(key, _packed_sum([(group, c, split)]))
        return True

    def _dict_add(self, key, n1, n2, c, split):
        gkey = (key, c, split)
        num = self._groups.get(gkey)
        if num is None:
            num = self._groups[gkey] = {}
            self._keys[key] = False
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
        keys, groups, packed = self._keys, {}, {}
        for key, lone in keys.items():
            if lone:
                self._sums[key] = lone[0] * lone[1]
        for (key, c, split), view in self._packed.items():
            if keys[key] is False:
                groups.setdefault(key, []).append(
                    (_unpacked_num(view), c, split))
            else:
                packed.setdefault(key, []).append((view, c, split))
        for (key, c, split), num in self._groups.items():
            if num:
                groups.setdefault(key, []).append((num, c, split))
        for key, group in packed.items():
            self._reduce(key, _packed_sum(group))
        for key, group in groups.items():
            self._reduce(key, _over_lcm(group) if len(group) > 1
                         else _split_scalar(*group[0]))
        out = {key: x for key, x in self._sums.items() if x.num}
        self._keys, self._groups, self._packed, self._sums = {}, {}, {}, {}
        return out


def power(x, n):
    """x ** n for n >= 1 by repeated squaring: n.bit_length() - 1 squarings
    and one product per further set bit of n."""
    out = None
    while True:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if not n:
            return out
        x = x * x


# -- normalization ----------------------------------------------------------

_SET_SLOTS = tuple(getattr(Scalar, name).__set__ for name in Scalar.__slots__)


def _init(x, num, den, c, split):
    """Fill the slots of the new Scalar x, its packed view left to fill on
    first read; returns x."""
    set_num, set_den, set_c, set_split, set_pk = _SET_SLOTS
    set_num(x, num)
    set_den(x, den)
    set_c(x, c)
    set_split(x, split)
    set_pk(x, None)
    return x


def _split_scalar(num, c, split, normalize=True):
    """The Scalar num / (c prod F^e), its den built when read."""
    if normalize:
        num, c, split = _normalize_split(num, c, split)
    return _init(object.__new__(Scalar), num, None, c, split)


def _lcm(parts):
    """The lcm (c, split) of the denominators of the parts (num, c, split)."""
    _, c, split = parts[0]
    for _, c2, split2 in parts[1:]:
        c = c // gcd(c, c2) * c2
        split = _max_splits(split, split2)
    return c, split


def _over_lcm(parts):
    """The reduced sum of the fractions num / (c prod F^e), given as (num,
    c, split), over their lcm, each numerator times its cofactor."""
    c, split = _lcm(parts)
    num = {}
    for num2, c2, split2 in parts:
        _nmul_into(num, num2, _den_as_num(
            _split_den(c // c2, _div_splits(split, split2))))
    return _split_scalar(num, c, split)


def _normalize_split(num, c, split):
    """(num, c, split) of num / (c prod F^e) reduced.  A product of
    primitive factors is primitive, so once the factors that divide num are
    cancelled, the content left is gcd(c, content(num)); the sign of c goes
    to num."""
    if not num:
        return {}, 1, ()
    if split:
        num, c, split = _reduce(num, c, split)
    if c < 0:
        num, c = _nscale(num, -1), -c
    if c > 1:
        g = _content(num, c)
        if g > 1:
            num, c = {key: v // g for key, v in num.items()}, c // g
    return num, c, split


def _light_normalize(num, den):
    """(num, c, split) of num / den reduced, den's split looked up."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, 1, ()
    # shift minimal s-degree of den into num (Laurent units)
    shift = min(key[0] for key in den)
    if shift:
        den = {(es - shift, em, ek): v for (es, em, ek), v in den.items()}
        num = {(es - shift, em, ek, ei, er): v
               for (es, em, ek, ei, er), v in num.items()}
    return _normalize_split(num, *_den_split(den))


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


def _reduce(num, c, split):
    """Cancel the gcd of num and the denominator c prod F^e; returns (num,
    c, split).  Each factor of the split is divided out of num as long as
    it divides: a Phi_d out of every slice of num in s, any other factor
    out of every (e_i, e_r) component.  A numerator in s alone over Phi_d's
    alone may come as its coefficient list, nonzero at both ends and from
    any power of s (a unit); it comes back as a list."""
    cancelled = {}
    if type(num) is list:
        terms = list(compress(enumerate(num), num))
        for d, e in split if len(terms) > 1 else ():    # s^j has no Phi_d
            for _ in range(e):
                if not _phi_divides(terms, d):
                    break
                num = _div_monic(num, _cyclotomic(d))
                terms = list(compress(enumerate(num), num))
                cancelled[d] = cancelled.get(d, 0) + 1
    else:
        if split[-1][0] > 0:
            num = _cancel_phis(num, split, cancelled)
        if split[0][0] < 0:
            num = _cancel_factors(num, split, cancelled)
    if not cancelled:
        return num, c, split
    if cancelled.get(1, 0) % 2:
        c = -c          # the split's Phi_1 is 1 - s, divided out as s - 1
    split = tuple((f, e - cancelled.get(f, 0)) for f, e in split
                  if e > cancelled.get(f, 0))
    return num, c, split


def _cancel_phis(num, split, cancelled):
    """num with the Phi_d of the split that divide every slice of num
    divided out, counted in cancelled."""
    slices = _slices(num)
    probe = sorted(slices.values(), key=len)
    if len(probe[0]) == 1:
        # an s-monomial slice shares no Phi_d with the denominator
        return num
    for d, e in split:
        if d < 0:
            continue
        for _ in range(e):
            if not all(_phi_divides(sl.items(), d) for sl in probe):
                break
            phi = _cyclotomic(d)
            slices = {key: _div_slice(sl, phi) for key, sl in slices.items()}
            probe = sorted(slices.values(), key=len)
            cancelled[d] = cancelled.get(d, 0) + 1
    return _join(slices) if cancelled else num


def _cancel_factors(num, split, cancelled):
    """num with the registered factors of the split (ids < 0) that divide
    every (e_i, e_r) component of num divided out, counted in cancelled.
    A factor is not s, so it divides a component iff it divides the
    component times a power of s."""
    lo = min(key[0] for key in num)
    comps = {}
    for (es, em, ek, ei, er), v in num.items():
        comps.setdefault((ei, er), {})[(es - lo, em, ek)] = v
    for f, e in split:
        if f > 0:
            break
        for _ in range(e):
            quots = {}
            for key, comp in comps.items():
                quot = _exact_div_real(comp, _FACTORS[f])
                if quot is None:
                    break
                quots[key] = quot
            if len(quots) < len(comps):
                break
            comps = quots
            cancelled[f] = cancelled.get(f, 0) + 1
    if not any(f < 0 for f in cancelled):
        return num
    return {(es + lo, em, ek) + key: v
            for key, comp in comps.items() for (es, em, ek), v in comp.items()}


def _exact_div_real(p, g):
    """p / g for real polynomials (keys (e_s, e_m, e_k), exponents >= 0),
    or None when g does not divide p.  If g divides p, g(2, 3, 5) divides
    p(2, 3, 5), which rejects most other g at once."""
    at = _at_235(g)
    if at and _at_235(p) % at:
        return None
    rem = dict(p)
    glead = max(g)
    gc = g[glead]
    quot = {}
    while rem:
        lead = max(rem)
        key = (lead[0] - glead[0], lead[1] - glead[1], lead[2] - glead[2])
        qc, res = divmod(rem[lead], gc)
        if res or min(key) < 0:
            return None
        quot[key] = qc
        for gkey, gv in g.items():
            kk = (key[0] + gkey[0], key[1] + gkey[1], key[2] + gkey[2])
            v = rem.get(kk, 0) - qc * gv
            if v:
                rem[kk] = v
            elif kk in rem:
                del rem[kk]
    return quot


def _at_235(p):
    """The real polynomial p at (s, m, k) = (2, 3, 5)."""
    return sum((v << a) * 3 ** b * 5 ** c for (a, b, c), v in p.items())


# -- the registry of denominator factors ------------------------------------
#
# A split is the sorted tuple of (id, e) with den = c * prod F_id^e; it is
# () for a constant.  Phi_d(s) has id d; any other irreducible factor of
# Z[s, m, k], normalized primitive with a positive coefficient on its
# lowest monomial, is kept in _FACTORS: m is -1, k is -2, and any other
# factor gets the next negative id when first seen.  Only a fresh
# denominator (an inverse, read text) is looked up in _SPLITS, by its
# primitive part (content and sign divided out).  The q-factorials and the
# products of _split_den register theirs there.

_SPLITS = {}
_PRODUCTS = {(): _DEN_ONE}  # split -> its product of factors, c = 1
_FACTORS = {-1: {(0, 1, 0): 1}, -2: {(0, 0, 1): 1}}   # id < 0 -> factor
_FACTOR_IDS = {frozenset(f.items()): fid for fid, f in _FACTORS.items()}
# Largest order d that a split from scratch always tries: Phi_4n is the
# largest factor of [[n]], and 4 * 64 covers every truncation degree the
# command line accepts.  Trying every order up to L costs about
# L * (L + terms), so a larger order is tried only while what is left could
# be a product of Phi_d's.
_SCRATCH_MAX_ORDER = 256


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


def _mul_binom(p, k):
    """p (s^k - 1) for the little-endian coefficient list p: one shifted
    difference."""
    return [a - b for a, b in zip([0] * k + p, p + [0] * k)]


def _div_binom(p, k):
    """p / (s^k - 1), top-down: q_j = p_(j+k) + q_(j+k), a suffix sum over
    each residue class of j mod k.  Raises ArithmeticError unless the k low
    remainder terms p_j + q_j vanish (q_j = 0 past the quotient)."""
    q = p[k:]
    for r in range(min(k, len(q))):
        q[r::k] = list(accumulate(q[r::k][::-1]))[::-1]
    if any(a + b for a, b in zip(p, q[:k])) or any(p[len(q):k]):
        raise ArithmeticError("inexact division by s^k - 1")
    return q


def _phi_product(split):
    """prod Phi_d(s)^e_d as a little-endian coefficient list, built from
    binomials s^k - 1, each multiplied or divided in one shifted pass."""
    powers = {}
    for d, e in split:
        for k, mu in _binomials(d):
            powers[k] = powers.get(k, 0) + mu * e
    out = [1]
    for k, f in sorted(powers.items(), key=lambda kf: -kf[1]):  # divide last
        for _ in range(abs(f)):
            out = _mul_binom(out, k) if f > 0 else _div_binom(out, k)
    return out


@lru_cache(maxsize=None)
def _cyclotomic(d):
    """Phi_d(s) as a little-endian coefficient list."""
    return _phi_product(((d, 1),))


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


@lru_cache(maxsize=None)
def _prime_cofactors(d):
    """The d/p for the primes p dividing d."""
    out, m, p = [], d, 2
    while m > 1:
        if p * p > m:
            p = m
        if m % p == 0:
            out.append(d // p)
            while m % p == 0:
                m //= p
        p += 1
    return out


def _primitive(den):
    """(c, key) with den = c * P, P primitive with a positive coefficient on
    its lowest monomial, and key the frozenset of P's items."""
    c = _content(den)
    if den[min(den)] < 0:
        c = -c
    if c == 1:
        return c, frozenset(den.items())
    return c, frozenset((key, v // c) for key, v in den.items())


def _den_split(den):
    """(c, split) of a denominator dict with lowest s-power 0, cached."""
    if len(den) == 1 and _DKEY0 in den:
        return den[_DKEY0], ()
    c, key = _primitive(den)
    if key not in _SPLITS:
        _SPLITS[key] = _factor(dict(key))
    return c, _SPLITS[key]


def _factor(p):
    """The split of a primitive real polynomial p with lowest s-power 0:
    the Phi_d, then the registered factors (m and k among them) that trial
    division finds, and what is left, if it is not 1: as one factor when it
    is linear in a variable, else by sympy, each factor registered."""
    split, p = _split_from_scratch(p)
    split = dict(split)
    for fid, f in _FACTORS.items():
        quot = _exact_div_real(p, f)
        while quot is not None:
            p = quot
            split[fid] = split.get(fid, 0) + 1
            quot = _exact_div_real(p, f)
    if _is_linear(p):
        fid = _factor_id(p)
        split[fid] = split.get(fid, 0) + 1
    elif len(p) > 1:
        from sympy.polys.domains import ZZ
        from sympy.polys.rings import ring
        _, factors = ring("s,m,k", ZZ)[0].from_dict(p).factor_list()
        for f, e in factors:
            fid = _factor_id({tuple(map(int, key)): int(v)
                              for key, v in f.to_dict().items()})
            split[fid] = split.get(fid, 0) + e
    return tuple(sorted(split.items()))


def _is_linear(p):
    """Whether p = a v + b for a variable v, an integer a and b free of v:
    then p, primitive, is irreducible."""
    return any([key for key in p if key[j]] == [unit]
               for j, unit in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))))


def _factor_id(f):
    """The registry id of the irreducible real polynomial f: d for Phi_d,
    else the negative id of f normalized, registered when first seen."""
    if not any(key[1] or key[2] for key in f):
        cyclotomic, _ = _split_from_scratch(f)
        if cyclotomic:
            return cyclotomic[0][0]
    _, key = _primitive(f)
    fid = _FACTOR_IDS.get(key)
    if fid is None:
        fid = _FACTOR_IDS[key] = -1 - len(_FACTORS)
        _FACTORS[fid] = dict(key)
    return fid


def _add_splits(a, b):
    """The split of a product of denominators with splits a and b."""
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
    """c times the product of the split's factors.  For c = 1 it is the
    cached product itself: no code mutates a denominator."""
    p = _PRODUCTS.get(split)
    if p is None:
        dense = _phi_product(tuple(fe for fe in split if fe[0] > 0))
        p = {(es, 0, 0): v * dense[0] for es, v in enumerate(dense) if v}
        for f, e in split:
            if f > 0:
                break
            for _ in range(e):
                p = _dmul(p, _FACTORS[f])
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
    """(split, rest) of a real polynomial p by trial division: the Phi_d
    dividing every slice of p in s, with multiplicity, and p divided by
    them.  An order d above _SCRATCH_MAX_ORDER is tried only while the rest
    is in s alone and could be a product of Phi_d's: (anti)palindromic,
    with ends +-1."""
    slices = {}
    for (es, em, ek), v in p.items():
        slices.setdefault((em, ek), {})[es] = v
    split = {}
    deg = min(max(sl) - min(sl) for sl in slices.values())
    extend = _may_be_cyclotomic(slices)
    for d in range(1, _order_bound(deg) + 1):
        if not deg or (d > _SCRATCH_MAX_ORDER and not extend):
            break
        if sum(k * mu for k, mu in _binomials(d)) > deg:      # phi(d)
            continue
        while all(_phi_divides(sl.items(), d) for sl in slices.values()):
            slices = {key: _div_slice(sl, _cyclotomic(d))
                      for key, sl in slices.items()}
            deg = min(max(sl) - min(sl) for sl in slices.values())
            extend = _may_be_cyclotomic(slices)
            split[d] = split.get(d, 0) + 1
    rest = {(es, em, ek): v
            for (em, ek), sl in slices.items() for es, v in sl.items()}
    return tuple(split.items()), rest


def _may_be_cyclotomic(slices):
    """Whether the polynomial of these slices is in s alone, nonconstant,
    (anti)palindromic and has ends +-1, as a product of Phi_d's is."""
    if len(slices) != 1 or (0, 0) not in slices:
        return False
    _, p = _shifted(slices[(0, 0)])
    rev = p[::-1]
    return len(p) > 1 and p[0] in (1, -1) and p[-1] in (1, -1) \
        and (rev == p or rev == [-v for v in p])


# -- constructors -----------------------------------------------------------

def integer(n):
    if n == 0:
        return ZERO
    return Scalar({_NKEY0: int(n)})


def rational(p, qd=1):
    f = Fraction(p, qd)
    if f == 0:
        return ZERO
    return _split_scalar({_NKEY0: f.numerator}, f.denominator, (),
                         normalize=False)


def s_power(n):
    """s^n (s = q^(1/2))."""
    return Scalar({(n, 0, 0, 0, 0): 1})


def q_power(n):
    """q^n as a Laurent monomial (integer n)."""
    return s_power(2 * n)


ZERO = Scalar({})
ONE = integer(1)
I = Scalar({(0, 0, 0, 1, 0): 1})
R = Scalar({(0, 0, 0, 0, 1): 1})
M = Scalar({(0, 1, 0, 0, 0): 1})
K = Scalar({(0, 0, 1, 0, 0): 1})


def lambda_():
    """lambda = q - q^(-1)."""
    return Scalar({(2, 0, 0, 0, 0): 1, (-2, 0, 0, 0, 0): -1})


def two_q():
    """The quantum two [2] = q + q^(-1)."""
    return qnum_sym(2)


@lru_cache(maxsize=None)
def qnum_sym(n):
    """Symmetric quantum number [n] = (q^n - q^(-n)) / (q - q^(-1))."""
    if n < 0:
        raise ValueError("quantum number of negative integer")
    # Laurent polynomial q^(n-1) + q^(n-3) + ... + q^(1-n)
    return Scalar({(2 * j, 0, 0, 0, 0): 1
                   for j in range(n - 1, -n - 1, -2)}) if n else ZERO


@lru_cache(maxsize=None)
def qnum_std(n):
    """Standard bracket number [[n]] = 1 + q^2 + ... + q^(2(n-1))."""
    if n < 0:
        raise ValueError("quantum number of negative integer")
    return Scalar({(4 * j, 0, 0, 0, 0): 1 for j in range(n)}) if n else ZERO


@lru_cache(maxsize=None)
def _qnum_split(n):
    """The split of [[n]] = prod Phi_d(s) over d | 4n, d not dividing 4."""
    return tuple((d, 1) for d in range(3, 4 * n + 1)
                 if 4 * n % d == 0 and d != 4)


def mul_qnum_std(x, n):
    """x * [[n]], from the known factors of [[n]] and no trial division.

    Each Phi_d of [[n]] that the split of x holds comes off the split, one
    power each, and the numerator is multiplied by the product of the
    others.  The result is reduced as it stands: x was, the Phi_d
    multiplied in are irreducible and absent from the new split, and,
    monic with constant term 1, they change neither the sign nor (Gauss's
    lemma) the content of the numerator."""
    if not n or not x.num:
        return ZERO
    held = dict(x.split)
    rest = []
    for d, _ in _qnum_split(n):
        if d in held:
            held[d] -= 1
        else:
            rest.append((d, 1))
    num = x.num
    if rest:
        num = _nmul(num, _den_as_num(_split_den(1, tuple(rest))))
    return _split_scalar(num, x._c, tuple(fe for fe in held.items() if fe[1]),
                         normalize=False)


@lru_cache(maxsize=None)
def _qfactorial_split(n):
    """The split of [[n]]! = [[n-1]]! [[n]]: every [[j]], j <= n, is a
    product of Phi_d's."""
    return _add_splits(_qfactorial_split(n - 1), _qnum_split(n)) if n else ()


@lru_cache(maxsize=None)
def qfactorial_std(n):
    """[[n]]! = [[n]] [[n-1]] ... [[1]], the dense product of the Phi_d of
    its split, which `_split_den` registers for its inverse."""
    if n < 0:
        raise ValueError("factorial of negative integer")
    return Scalar(_den_as_num(_split_den(1, _qfactorial_split(n))))


@lru_cache(maxsize=None)
def qfactorial_inverse(n):
    """1 / [[n]]!, read from the split of [[n]]!: no dense [[n]]! is built
    and nothing is inverted."""
    if n < 0:
        raise ValueError("factorial of negative integer")
    return _split_scalar({_NKEY0: 1}, 1, _qfactorial_split(n),
                         normalize=False)


def subst_classical(x):
    """Module-level convenience wrapper for Scalar.subst_classical."""
    return x.subst_classical()
