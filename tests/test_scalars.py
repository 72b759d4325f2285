import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qmink import scalars as sc


def scalars_strategy():
    base = st.builds(
        lambda n, d, es, em, ek, ei, er: sc.rational(n, d) * sc.s_power(es)
        * sc.M ** em * sc.K ** ek * sc.I ** ei * sc.R ** er,
        st.integers(-6, 6), st.integers(1, 4), st.integers(-4, 4),
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
        st.integers(0, 1))
    return st.lists(base, min_size=1, max_size=3).map(
        lambda xs: sum(xs[1:], xs[0]))


@given(scalars_strategy(), scalars_strategy(), scalars_strategy())
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


@given(scalars_strategy())
@settings(max_examples=40, deadline=None)
def test_canonical_form_is_unique(a):
    two = sc.two_q()
    b = (a * two) / two            # same value, different history
    ca, cb = a.canonical(), b.canonical()
    assert ca.num == cb.num and ca.den == cb.den


def test_r_squared_reduces():
    assert sc.R * sc.R == sc.two_q()
    assert (sc.R * sc.s_power(2)) * sc.R == sc.two_q() * sc.q_power(1)


def test_gaussian_unit():
    assert sc.I * sc.I == sc.integer(-1)
    assert (sc.I * sc.I * sc.I * sc.I).is_one()


def test_qnum_examples():
    assert sc.qnum_sym(0).is_zero()
    assert sc.qnum_sym(1).is_one()
    assert sc.qnum_sym(2) == sc.q_power(1) + sc.q_power(-1)
    assert sc.qnum_std(0).is_zero()
    assert sc.qnum_std(1).is_one()
    assert sc.qnum_std(3) == sc.integer(1) + sc.q_power(2) + sc.q_power(4)


def test_qfactorial():
    assert sc.qfactorial_std(3) == \
        sc.qnum_std(1) * sc.qnum_std(2) * sc.qnum_std(3)
    assert sc.qfactorial_std(0).is_one()


@pytest.mark.parametrize("n", range(21))
def test_qnum_relation_and_classical(n):
    # [n] = q^(1-n) [[n]]
    assert sc.qnum_sym(n) == sc.s_power(2 * (1 - n)) * sc.qnum_std(n)
    if n:
        assert sc.subst_classical(sc.qnum_sym(n)).as_fraction() == n
        assert sc.subst_classical(sc.qnum_std(n)).as_fraction() == n


def test_lambda_vanishes_classically():
    assert sc.lambda_().subst_classical().is_zero()


def test_pole_at_classical_limit():
    with pytest.raises(sc.PoleError):
        sc.lambda_().inverse().subst_classical()


def test_removable_singularity_is_fine():
    val = (sc.q_power(2) - sc.integer(1)) / sc.lambda_()
    assert val.subst_classical().as_fraction() == 1


def test_residual_r_is_not_rational():
    with pytest.raises(sc.NotRationalError):
        sc.R.subst_classical()


def test_division_and_powers():
    lam, two = sc.lambda_(), sc.two_q()
    x = lam / two
    assert x * two == lam
    assert x ** 3 == (lam ** 3) / (two ** 3)
    assert x ** 0 == sc.ONE
    assert (x ** -2) * (x ** 2) == sc.ONE


def test_subst_keeps_parameters():
    v = (sc.M ** 2 * sc.q_power(3) + sc.K).subst_classical()
    assert v == sc.M ** 2 + sc.K


# -- differential fuzz against exact point evaluation ---------------------------
#
# Numbers of the form w + x i + y r + z i r over Q, with r^2 = R0 the value
# of s^2 + s^-2 at a fixed rational point, form an exact mirror arithmetic.

_SPT, _MPT, _KPT = Fraction(5, 3), Fraction(2, 7), Fraction(-3, 4)
_R0 = _SPT ** 2 + _SPT ** -2


def _quad_mul(u, v):
    w1, x1, y1, z1 = u
    w2, x2, y2, z2 = v
    return (w1 * w2 - x1 * x2 + _R0 * (y1 * y2 - z1 * z2),
            w1 * x2 + x1 * w2 + _R0 * (y1 * z2 + z1 * y2),
            w1 * y2 + y1 * w2 - (x1 * z2 + z1 * x2),
            w1 * z2 + x1 * y2 + y1 * x2 + z1 * w2)


def _quad_inv(u):
    w, x, y, z = u
    # conjugate in r, then in i
    a = (w, x, -y, -z)
    n1 = _quad_mul(u, a)            # i-only: (p, q, 0, 0)
    p, q = n1[0], n1[1]
    norm = p * p + q * q
    conj = _quad_mul(a, (p, -q, Fraction(0), Fraction(0)))
    return tuple(c / norm for c in conj)


def _eval_scalar(x):
    acc = [Fraction(0)] * 4
    for (es, em, ek, ei, er), c in x.num.items():
        v = Fraction(c) * _SPT ** es * _MPT ** em * _KPT ** ek
        acc[ei + 2 * er] += v
    # the denominator, a polynomial, by Horner's rule in s over integers
    slices = {}
    for (es, em, ek), c in x.den.items():
        slices.setdefault((em, ek), {})[es] = c
    den = Fraction(0)
    for (em, ek), sl in slices.items():
        val, scale = 0, 1
        for es in range(max(sl), -1, -1):
            val = val * _SPT.numerator + sl.get(es, 0) * scale
            scale *= _SPT.denominator
        den += Fraction(val, scale // _SPT.denominator) * _MPT ** em \
            * _KPT ** ek
    assert den != 0
    return tuple(a / den for a in acc)


@given(st.lists(st.sampled_from("+-*i"), min_size=1, max_size=12),
       st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_scalar_arithmetic_matches_point_evaluation(ops, seed):
    import random as _random
    rng = _random.Random(seed)
    # inverse chains over m/k-bearing values build multivariate denominators,
    # which are exact but outside the optimized profile; keep m, k out of
    # atoms when the op sequence inverts (the engine never inverts them)
    with_mk = "i" not in ops

    def atom():
        x = sc.rational(rng.randint(-5, 5), rng.randint(1, 4)) * \
            sc.s_power(rng.randint(-3, 3)) * sc.I ** rng.randint(0, 1) * \
            sc.R ** rng.randint(0, 1)
        if with_mk:
            x = x * sc.M ** rng.randint(0, 1) * sc.K ** rng.randint(0, 1)
        return x if not x.is_zero() else sc.ONE

    cur = atom()
    mirror = _eval_scalar(cur)
    for op in ops:
        if op == "i":
            if all(v == 0 for v in mirror):
                continue
            cur = cur.inverse()
            mirror = _quad_inv(mirror)
            _assert_split(cur)
            continue
        other = atom()
        om = _eval_scalar(other)
        _assert_split(other)
        if op == "+":
            cur, mirror = cur + other, tuple(a + b
                                             for a, b in zip(mirror, om))
        elif op == "-":
            cur, mirror = cur - other, tuple(a - b
                                             for a, b in zip(mirror, om))
        else:
            cur, mirror = cur * other, _quad_mul(mirror, om)
        assert _eval_scalar(cur) == mirror
        _assert_split(cur)
    # canonical form preserves the value and is idempotent
    can = cur.canonical()
    assert _eval_scalar(can) == mirror
    can2 = can.canonical()
    assert can2.num == can.num and can2.den == can.den
    _assert_split(can)


# -- the primitive-PRS reference ------------------------------------------------
#
# A reduction over a denominator in s alone is checked against a gcd that
# shares no code with the registry: a primitive polynomial remainder
# sequence over Z[s].

def _dense(den):
    """An s-only polynomial dict (s-degree first in each key, all >= 0)
    as a little-endian coefficient list."""
    out = [0] * (max(k[0] for k in den) + 1)
    for key, v in den.items():
        out[key[0]] = v
    return out


def _reduce_prs(num, den):
    """Reference reduction for s-only denominators: a primitive PRS gcd.

    Works over Z[s] (s-power units are free to move, so slices are shifted
    to degree 0 before taking gcds)."""
    g = _dense(den)
    arrays = {key: sc._shifted(sl) for key, sl in sc._slices(num).items()}
    for _, arr in arrays.values():
        g = _gcd_zs(g, arr)
        if len(g) == 1:
            return num, den
    new_den = {}
    for es, v in enumerate(_div_zs(_dense(den), g)):
        if v:
            new_den[(es, 0, 0)] = v
    return sc._join({key: sc._unshifted(lo, _div_zs(arr, g))
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


def _mul_zs(a, b):
    """Product of integer s-polynomials (lists, little-endian)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] += av * bv
    return out


# -- cyclotomic splits against the primitive-PRS reference ---------------------

def _den_of(x):
    """A polynomial Scalar in s alone as a shifted denominator dict."""
    assert x.den == {(0, 0, 0): 1}
    lo = min(key[0] for key in x.num)
    return {(key[0] - lo, 0, 0): v for key, v in x.num.items()}


def _assert_matches_prs(num, den):
    """Reduces num over den as the engine does, by the factors of its
    split, and checks it against the PRS.  Returns (num, den, split)."""
    c, split = sc._den_split(den)
    got_num, c, got_split = sc._reduce(num, c, split)
    got_den = sc._split_den(c, got_split)
    assert (got_num, got_den) == _reduce_prs(num, den)
    if all(d > 0 for d, _ in got_split):
        assert got_split == _split_from_scratch(got_den)
    return got_num, got_den, got_split


_LAM, _TWO, _Q = sc.lambda_(), sc.two_q(), sc.q_power(1)


@pytest.mark.parametrize("content,n,a,b", [
    (1, 4, 2, 3), (3, 5, 1, 0), (-6, 3, 0, 2), (9, 7, 2, 2), (4, 1, 3, 1)])
def test_split_reduction_matches_prs_on_engine_denominators(content, n, a, b):
    facs = [sc.integer(content), sc.qfactorial_std(n), _TWO ** a, _LAM ** b]
    den = _den_of(facs[0] * facs[1] * facs[2] * facs[3])
    shared = _LAM ** min(b, 2) * _TWO ** min(a, 1) * sc.qnum_std(min(n, 3))
    x = ((sc.integer(2) + _Q * sc.integer(5)) * shared
         + sc.M * (_Q - sc.integer(3)) * _LAM * shared
         + sc.I * sc.R * (_Q ** 2 + sc.integer(7)) * shared)
    assert sc._den_split(den)[1]       # all cyclotomic: the split path runs
    got = _assert_matches_prs(x.num, den)
    assert max(got[1]) < max(den)      # something cancelled


def test_split_reduction_shares_factor_with_multiplicity():
    # [2] = s^-2 Phi_8(s): every slice carries Phi_8^2, the denominator ^3
    den = _den_of(_TWO ** 3 * sc.qnum_std(6) * sc.integer(5))
    x = (_TWO ** 2 * (sc.integer(2) + _Q)
         + sc.K * _TWO ** 2 * sc.qnum_std(6) * (_Q - sc.integer(1)))
    num, new_den, _ = _assert_matches_prs(x.num, den)
    assert sc.Scalar(num, new_den) == sc.Scalar(x.num, den)
    assert max(new_den)[0] == max(den)[0] - 8     # Phi_8^2 cancelled


def test_split_reduction_returns_at_once_on_a_monomial_slice():
    den = _den_of(_LAM * _TWO * sc.qfactorial_std(3))
    x = _LAM * sc.M + sc.s_power(3) * sc.integer(4)    # slice m^0 = 4 s^3
    c, split = sc._den_split(den)
    got = sc._reduce(x.num, c, split)
    assert got[0] is x.num and got[1:] == (c, split)
    _assert_matches_prs(x.num, den)     # and the PRS cancels nothing either


def test_non_cyclotomic_denominator_gets_a_registered_factor():
    odd = sc.integer(1) + sc.s_power(1) * sc.integer(3) + sc.s_power(2)
    den = _den_of(odd * sc.qnum_std(3))
    # trial division finds the Phi_d of [[3]]; the rest is a new factor
    cyclotomic, rest = sc._split_from_scratch(den)
    assert cyclotomic == _split_from_scratch(_den_of(sc.qnum_std(3)))
    assert rest == _den_of(odd)
    (fid, e), = sc.Scalar(sc.ONE.num, _den_of(odd)).split
    assert fid < 0 and e == 1 and sc._FACTORS[fid] == _den_of(odd)
    assert sc._den_split(den)[1] == tuple(sorted(cyclotomic + ((fid, 1),)))
    x = odd * (sc.integer(2) + sc.M * _Q)
    num, new_den, split = _assert_matches_prs(x.num, den)
    assert new_den == _den_of(sc.qnum_std(3)) and split == cyclotomic
    # the engine reduces it the same way on construction
    assert sc.Scalar(x.num, den).den == new_den


def _split_from_scratch(den):
    """The split of a denominator of Phi_d's found again by trial division."""
    split, rest = sc._split_from_scratch(dict(sc._primitive(den)[1]))
    assert rest in ({(0, 0, 0): 1}, {(0, 0, 0): -1})
    return split


def _assert_split(x):
    """x is stored reduced in the registry form: c > 0 is coprime to the
    content of num, the split is sorted, each of its factors is normalized
    (Phi_d as d; any other primitive with a positive lowest coefficient,
    and no Phi_d) and divides num less often than den (a Phi_d not every
    slice of num in s, any other not every (e_i, e_r) component).  A split
    of Phi_d's alone is the one trial division finds again in den."""
    assert x._c > 0 and sc._content(x.num, x._c) == 1
    assert list(x.split) == sorted(x.split)
    if not x.num:
        return
    comps = {}
    lo = min(key[0] for key in x.num)
    for (es, em, ek, ei, er), v in x.num.items():
        comps.setdefault((ei, er), {})[(es - lo, em, ek)] = v
    slices = sc._slices(x.num).values()
    for f, e in x.split:
        assert e > 0
        if f > 0:
            assert not all(sc._phi_divides(sl.items(), f) for sl in slices)
            continue
        poly = sc._FACTORS[f]
        assert sc._primitive(poly) == (1, frozenset(poly.items()))
        if not any(key[1] or key[2] for key in poly):
            assert sc._split_from_scratch(poly)[0] == ()
        assert any(sc._exact_div_real(comp, poly) is None
                   for comp in comps.values())
    if all(f > 0 for f, _ in x.split):
        assert x.split == _split_from_scratch(x.den)
        assert x.den == sc._split_den(x.den[(0, 0, 0)], x.split)


def test_seeded_split_equals_split_from_scratch():
    a = (sc.integer(3) * sc.qfactorial_std(5) * _TWO ** 2).inverse()
    b = (sc.integer(2) * _LAM ** 3 * sc.qnum_std(6)).inverse()
    for x in (a * b, a + b, (a * b) * (a + b)):
        seeded = sc._den_split(x.den)[1]
        assert seeded
        assert seeded == _split_from_scratch(x.den) == x.split
    for n in range(1, 10):
        fact = _den_of(sc.qfactorial_std(n))
        assert sc._den_split(fact)[1] == _split_from_scratch(fact)


def test_qfactorial_inverse_reads_the_split(monkeypatch):
    dense = [sc.qfactorial_std(n).inverse() for n in range(65)]
    cached = [sc.qfactorial_inverse(n) for n in range(65)]

    def fail(*args):
        raise AssertionError("1/[[n]]! built [[n]]! or inverted")

    monkeypatch.setattr(sc.Scalar, "inverse", fail)
    monkeypatch.setattr(sc, "qfactorial_std", fail)
    fresh = [sc.qfactorial_inverse.__wrapped__(n) for n in range(65)]
    monkeypatch.undo()
    # the mirror's [[n]]! is a real number: its product is one Fraction
    factorial = Fraction(1)
    for n, x in enumerate(fresh):
        for want in (cached[n], dense[n]):
            assert (x.num, x._c, x.split) == (want.num, want._c, want.split)
        factorial *= _qn_at(n)[0] if n else 1
        assert _quad_mul(_eval_scalar(x), (factorial,) + (0,) * 3) \
            == (1, 0, 0, 0)


def test_registered_factors_cancel_on_construction():
    mk, q2 = sc.M + sc.K, _Q + sc.integer(2)
    six_mk = sc.integer(6) * sc.M + sc.K
    # a fresh denominator gets one id per factor, Phi_8 of [2] included
    d = mk ** 2 * q2 * six_mk * _TWO
    x = d.inverse()
    ids = {f for f, _ in x.split}
    assert (8, 1) in x.split and len(ids) == 4
    assert sorted(e for f, e in x.split if f < 0) == [1, 1, 2]
    assert {frozenset(sc._FACTORS[f].items()) for f in ids if f < 0} == {
        frozenset((key[:3], v) for key, v in y.num.items())
        for y in (mk, q2, six_mk)}
    assert _eval_scalar(x) == _quad_inv(_eval_scalar(d))
    # a product cancels the registered factors its numerator shares, in
    # every (e_i, e_r) component, and keeps the rest
    y = mk ** 2 * q2 * (sc.I + sc.R * sc.M) / (sc.integer(6) * mk ** 3
                                                * q2 ** 2)
    want = (sc.I + sc.R * sc.M) / (sc.integer(6) * mk * q2)
    assert (y.num, y._c, y.split) == (want.num, want._c, want.split)
    assert _eval_scalar(y) == _eval_scalar(want)
    assert (sc.M * sc.M - sc.K * sc.K) / mk == sc.M - sc.K
    assert ((sc.M * sc.M - sc.K * sc.K) / mk).split == ()
    for z in (x, y, want):
        _assert_split(z)


def test_phi_divides_matches_exact_division():
    rng = random.Random(5)
    for d in range(1, 61):
        phi = sc._cyclotomic(d)
        for _ in range(3):
            r = [rng.randint(-4, 4) for _ in range(rng.randint(1, 12))]
            r[-1] = r[-1] or 1
            for p in (r, _mul_zs(r, phi)):
                shift = rng.randint(-30, 30)
                terms = [(j + shift, v) for j, v in enumerate(p) if v]
                g = _gcd_zs(p, phi)
                assert sc._phi_divides(terms, d) == (g == phi), (d, p)


def test_cyclotomic_products_from_binomials():
    rng = random.Random(11)
    for n in range(1, 130):
        # s^n - 1 is the product of the Phi_d over d | n, which fixes each
        # Phi_n given the smaller ones
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _mul_zs(prod, sc._cyclotomic(d))
        assert prod == [-1] + [0] * (n - 1) + [1]
        # phi(n), the degree of Phi_n
        assert sum(k * mu for k, mu in sc._binomials(n)) == \
            len(sc._cyclotomic(n)) - 1
    for _ in range(20):
        split = sorted(rng.sample(range(1, 60), 4))
        split = tuple((d, rng.randint(1, 3)) for d in split)
        want = [1]
        for d, e in split:
            for _ in range(e):
                want = _mul_zs(want, sc._cyclotomic(d))
        assert sc._phi_product(split) == want


def _phi_product_reference(split):
    """prod Phi_d^e_d from the binomials s^k - 1, each multiplied by a
    dense product or divided by `_div_monic`."""
    powers = {}
    for d, e in split:
        for k, mu in sc._binomials(d):
            powers[k] = powers.get(k, 0) + mu * e
    out = [1]
    for k, f in sorted(powers.items(), key=lambda kf: -kf[1]):
        binom = [-1] + [0] * (k - 1) + [1]
        for _ in range(abs(f)):
            out = _mul_zs(binom, out) if f > 0 else sc._div_monic(out, binom)
    return out


def test_phi_product_matches_the_dense_reference():
    rng = random.Random(23)
    splits = [((2000, 1),), ((1, 1), (2, 2), (4, 1)), ((16, 1), (80, 1),
                                                      (400, 1), (2000, 1))]
    for _ in range(40):
        ds = sorted(rng.sample(range(1, 2001), rng.randint(1, 4)))
        splits.append(tuple((d, rng.randint(1, 2)) for d in ds))
    for split in splits:
        assert sc._phi_product(split) == _phi_product_reference(split), split


def test_binomial_division_rejects_an_inexact_quotient():
    rng = random.Random(29)
    for k in (1, 2, 3, 7, 40):
        for _ in range(10):
            p = [rng.randint(-5, 5) for _ in range(rng.randint(1, 60))]
            p[-1] = p[-1] or 1
            multiple = sc._mul_binom(p, k)
            assert multiple == _mul_zs([-1] + [0] * (k - 1) + [1], p)
            assert sc._div_binom(multiple, k) == p
            # one low term off: the remainder is that term
            bad = list(multiple)
            bad[rng.randrange(k)] += 1
            with pytest.raises(ArithmeticError):
                sc._div_binom(bad, k)
    # quotients shorter than k, or empty
    for p, k in (([1, 1], 1), ([1, 0, 1], 5), ([1, 0, 0, 1], 2),
                 ([2, 0, 0, 0, 0, 0, 1], 5)):
        with pytest.raises(ArithmeticError):
            sc._div_binom(p, k)
    assert sc._div_binom([-1, 0, 0, 0, 0, 1], 5) == [1]
    assert sc._div_binom([-1, -1, 0, 0, 0, 1, 1], 5) == [1, 1]
    with pytest.raises(ArithmeticError):
        sc._phi_product(((3, -1),))


def test_split_from_scratch_stops_at_its_largest_order():
    top = sc._SCRATCH_MAX_ORDER
    # [[top/4]] has Phi_top as its largest factor
    qn = _den_of(sc.qnum_std(top // 4))
    split, rest = sc._split_from_scratch(qn)
    assert max(split)[0] == top and rest == {(0, 0, 0): 1}
    # 1 + s^1000 = Phi_16 Phi_80 Phi_400 Phi_2000: what is left stays
    # palindromic with ends 1, so orders past the bound are tried
    den = {(0, 0, 0): 1, (1000, 0, 0): 1}
    assert sc._split_from_scratch(den) == \
        (((16, 1), (80, 1), (400, 1), (2000, 1)), {(0, 0, 0): 1})
    # Phi_16 = 1 + s^8 divides every slice and 1 + s^1000
    num = {(0, 0, 0, 0, 0): 1, (8, 0, 0, 0, 0): 1,
           (4, 1, 0, 0, 0): 3, (12, 1, 0, 0, 0): 3}
    got = _assert_matches_prs(num, den)
    assert max(got[1])[0] == 992
    # (s + 2) Phi_300 is not: the search stops at the bound, and the factor
    # of the rest that is Phi_300 gets the id 300
    odd = _mul_zs([2, 1], sc._cyclotomic(300))
    den = {(j, 0, 0): v for j, v in enumerate(odd) if v}
    assert sc._split_from_scratch(den) == ((), den)
    split = sc.Scalar(sc.ONE.num, den).split
    assert split[1] == (300, 1) and sc._FACTORS[split[0][0]] == \
        {(0, 0, 0): 2, (1, 0, 0): 1}


def test_products_and_sums_carry_the_split(monkeypatch):
    xs = [(sc.integer(3) + _Q) / sc.qfactorial_std(4), _LAM / _TWO,
          sc.I / (sc.integer(-3) * _LAM ** 3),
          (sc.R + sc.M) / (_TWO ** 2 * sc.qnum_std(3) * sc.integer(4))]
    calls = []

    def counting(name):
        def call(*args):
            calls.append(name)
        return call

    # a sum or product of split Scalars never forms a dense product of
    # denominators nor splits one: it works on the splits
    for name in ("_dmul", "_den_split", "_split_from_scratch"):
        monkeypatch.setattr(sc, name, counting(name))
    acc = sc.SumOfProducts()
    for j, x in enumerate(xs):
        for y in xs:
            x * y
            x + y
            x - y
            acc.add(j, x, y)
    acc.result()
    assert calls == []


# -- the unit fast path of Scalar.__mul__ --------------------------------------

def _unit_corpus():
    units = [sc.ONE, -sc.ONE, sc.integer(6), sc.integer(-4), sc.I,
             sc.s_power(-3) * sc.integer(2), sc.q_power(5) * sc.I * sc.integer(-9)]
    reduced = [_LAM / _TWO, (sc.integer(3) + _Q) / sc.qfactorial_std(4),
               sc.integer(6) / (_TWO ** 2 * sc.qnum_std(3)),
               (sc.I * _Q + sc.R) / (_LAM * sc.integer(10)),
               (sc.integer(1) + sc.s_power(1) * sc.integer(3)
                + sc.s_power(2)).inverse() * sc.integer(4),
               sc.rational(3, 4), sc.rational(-5, 6) * sc.I * sc.R]
    canon = [(x * _TWO / _LAM).canonical() for x in reduced]
    mk = [sc.M / (sc.K + _Q * sc.integer(2)),
          (sc.integer(4) + sc.I * sc.R) / (sc.M * sc.integer(6) + sc.K),
          (sc.M * sc.K * sc.integer(2)).inverse()]
    return units, reduced + canon + mk + units + [_LAM, _TWO * sc.R]


def test_unit_products_match_light_normalize():
    units, others = _unit_corpus()
    for u in units:
        assert sc._is_unit(u.num) and u.den == {(0, 0, 0): 1}
        for x in others:
            want = sc._light_normalize(sc._nmul(u.num, x.num),
                                       sc._dmul(u.den, x.den))
            for got in (u * x, x * u):
                assert (got.num, got._c, got.split) == want


def test_unit_products_skip_the_denominator_product(monkeypatch):
    units, others = _unit_corpus()
    calls = []
    dmul = sc._dmul

    def counting_dmul(d1, d2):
        calls.append(1)
        return dmul(d1, d2)

    monkeypatch.setattr(sc, "_dmul", counting_dmul)
    for u in units:
        for x in others:
            u * x
            x * u
    assert calls == []


@given(st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_unit_products_match_point_evaluation(seed):
    import random as _random
    rng = _random.Random(seed)
    units, others = _unit_corpus()
    x = rng.choice(others)
    for _ in range(4):
        x = x * rng.choice(others) + rng.choice(others)
    mirror = _eval_scalar(x)
    for _ in range(6):
        u = sc.integer(rng.choice([-3, -1, 1, 2, 5])) * \
            sc.s_power(rng.randint(-4, 4)) * sc.I ** rng.randint(0, 1)
        x, mirror = (u * x, _quad_mul(_eval_scalar(u), mirror)) \
            if rng.randint(0, 1) else (x * u, _quad_mul(mirror, _eval_scalar(u)))
        assert _eval_scalar(x) == mirror


@pytest.mark.parametrize("n", range(0, 10))
def test_scalar_power_makes_no_wasted_product(monkeypatch, n):
    x = _LAM / _TWO + sc.I
    want = sc.ONE
    for _ in range(n):
        want = want * x
    calls = []
    mul = sc.Scalar.__mul__

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(sc.Scalar, "__mul__", counting_mul)
    got = x ** n
    monkeypatch.undo()
    assert got == want
    expected = (n.bit_length() - 1) + (bin(n).count("1") - 1) if n else 0
    assert len(calls) == expected


# -- the deferred sum of products ---------------------------------------------
#
# Both gradients and the matrix products sum through SumOfProducts, so it is
# checked here against the point-evaluation mirror, which shares no code
# with it, and against the naive sum of normalized products.

_S_DENS = [sc.ONE, sc.integer(6), _TWO, _LAM, _TWO * _LAM, sc.qnum_std(3),
           sc.qfactorial_std(4), _TWO ** 2 * sc.qnum_std(2),
           sc.integer(-3) * _LAM ** 3,
           sc.integer(4) * sc.qfactorial_std(5) * _LAM]
_MK_DENS = [sc.M * sc.integer(6) + sc.K, sc.K + _Q * sc.integer(2)]


def _contributions(dens, s_alone=False):
    """Lists of (key, a, b); with s_alone, every atom is c s^e / den."""
    top = 0 if s_alone else 1
    atom = st.builds(
        lambda n, d, es, em, ek, ei, er, den: sc.rational(n, d)
        * sc.s_power(es) * sc.M ** em * sc.K ** ek * sc.I ** ei * sc.R ** er
        / den,
        st.integers(-6, 6), st.integers(1, 4), st.integers(-4, 4),
        st.integers(0, 2 * top), st.integers(0, 2 * top),
        st.integers(0, top), st.integers(0, top), st.sampled_from(dens))
    value = st.lists(atom, min_size=1, max_size=3).map(
        lambda xs: sum(xs[1:], xs[0]))
    return st.lists(st.tuples(st.integers(0, 2), value, value),
                    min_size=1, max_size=12)


def _check_sum_of_products(contribs, s_only):
    """Checks the built sums; returns whether a group passed the bound."""
    acc = sc.SumOfProducts()
    mirror, naive = {}, {}
    for key, a, b in contribs:
        acc.add(key, a, b)
        prod = _quad_mul(_eval_scalar(a), _eval_scalar(b))
        mirror[key] = tuple(u + v for u, v in
                            zip(mirror.get(key, (Fraction(0),) * 4), prod))
        naive[key] = naive[key] + a * b if key in naive else a * b
        for x in (a, b, naive[key]):
            _assert_split(x)
    spilled = bool(acc._sums)
    got = acc.result()
    assert set(got) <= set(mirror)
    for key, want in mirror.items():
        if key not in got:
            assert not any(want) and naive[key].is_zero()
            continue
        assert _eval_scalar(got[key]) == want
        _assert_split(got[key])
        if s_only:
            assert (got[key].num, got[key].den) == \
                (naive[key].num, naive[key].den)
    return spilled


@given(_contributions(_S_DENS))
@settings(max_examples=40, deadline=None)
def test_sum_of_products_matches_mirror_and_naive_sum(contribs):
    _check_sum_of_products(contribs, s_only=True)


@given(_contributions(_S_DENS, s_alone=True))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_packed_sum_of_products_matches_mirror_and_naive_sum(contribs):
    # numerators in s alone over Phi_d's alone: the packed groups
    _check_sum_of_products(contribs, s_only=True)


@given(_contributions(_S_DENS + _MK_DENS))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_sum_of_products_matches_mirror_with_mk_denominators(contribs):
    _check_sum_of_products(contribs, s_only=False)


def _past_the_bound(unit):
    """Products over lambda [2] that add 8 new numerator terms each, so the
    group of key 0 passes the bound; the last contribution cancels the
    first, which was reduced with the group before it."""
    def chunk(j):
        return sum((sc.s_power(8 * j + t) * sc.integer(t + 1)
                    * unit ** (t % 2) for t in range(8)), sc.ZERO) / _LAM

    n = sc._GROUP_MAX_TERMS // 8 + 2
    contribs = [(0, chunk(j), _TWO.inverse()) for j in range(n)]
    return contribs + [(1, chunk(0), _Q), (0, -chunk(0), _TWO.inverse())]


def test_sum_of_products_reduces_a_group_past_the_bound():
    assert _check_sum_of_products(_past_the_bound(sc.I), s_only=True)


def _assert_sums_naively(contribs):
    """The built sums, field by field, against the naive sums."""
    acc, naive = sc.SumOfProducts(), {}
    for key, a, b in contribs:
        acc.add(key, a, b)
        naive[key] = naive[key] + a * b if key in naive else a * b
    got = acc.result()
    for key, want in naive.items():
        x = got.get(key, sc.ZERO)
        assert (x.num, x._c, x.split) == (want.num, want._c, want.split)
    return got


def test_packed_sum_of_products_spills_past_the_norm_bound():
    # 3^41 > 2^63: every product is too large for one packed digit
    big, half = sc.integer(3 ** 41), _TWO.inverse()
    contribs = [(0, big, half), (0, big * _Q, half), (0, -big, half),
                (1, big, half * _Q), (1, sc.ONE, half), (1, big, half)]
    got = _assert_sums_naively(contribs)
    assert got[0] == big * _Q * half


def test_packed_group_checks_the_norm_before_the_add():
    # two products of norm 2^62 reach 2^63 together: read back as one
    # digit, their sum would wrap to -2^63
    x = sc.integer(2 ** 62) / _TWO
    got = _assert_sums_naively([(0, x, sc.ONE), (0, x, sc.ONE),
                                (0, sc.ONE, sc.ONE)])
    assert got[0] == (sc.integer(2 ** 63) + _TWO) / _TWO


def test_unpack_reads_balanced_digits():
    for coeffs in ([0], [5], [-(2 ** 63 - 1)], [2 ** 63 - 1, -1],
                   [-1, 0, 0, 2 ** 63 - 1], [1, -(2 ** 63 - 1), 7, -1]):
        p = sum(v << (64 * j) for j, v in enumerate(coeffs))
        assert sc._unpack(p) == coeffs


def test_packed_lcm_sum_checks_its_norm():
    # each group has norm 2^62, but over the lcm [2] the cofactor s^4 + 1
    # doubles the second: 2^62 s^4 + 2^62 (s^4 + 1) has a digit 2^63
    x = sc.integer(2 ** 62)
    got = _assert_sums_naively([(0, x * sc.s_power(2), _TWO.inverse()),
                                (0, x, sc.ONE)])
    assert got[0].num == {(4, 0, 0, 0, 0): 2 ** 63, (0, 0, 0, 0, 0): 2 ** 62}


@pytest.mark.parametrize("other", [sc.I, sc.R, sc.M, sc.K + _Q])
def test_sum_of_products_mixes_packed_and_dict_products(other,
                                                        count_reductions):
    # key 0 takes products in s alone, then one with i, r, m or k, then
    # more in s alone; key 1 stays packed.  Each key is reduced once.
    lam, three = _LAM.inverse(), sc.qnum_std(3).inverse()
    contribs = [(0, _Q, lam), (0, sc.integer(3), _TWO.inverse()),
                (1, _Q, three), (1, sc.integer(2), lam),
                (0, other, lam), (0, _Q ** 2, three),
                (0, -_Q, lam), (1, _TWO, lam)]
    acc = sc.SumOfProducts()
    for key, a, b in contribs:
        acc.add(key, a, b)
    got = {}
    assert count_reductions(lambda: got.update(acc.result())) == 2
    assert got == _assert_sums_naively(contribs)
    _check_sum_of_products(contribs, s_only=False)


def test_packed_sum_of_products_reduces_a_group_past_the_bound():
    # in s alone, the packed group of key 0 passes the bound by its span
    contribs = _past_the_bound(sc.ONE)
    assert _check_sum_of_products(contribs, s_only=True)
    _assert_sums_naively(contribs)


def test_packed_key_is_reduced_once(count_reductions):
    two, two2 = _TWO.inverse(), (_TWO ** 2).inverse()
    contribs = [(0, _Q, two), (0, sc.integer(2), two2),
                (0, _Q ** 2, two2), (0, sc.integer(-3), two)]
    acc = sc.SumOfProducts()
    for key, a, b in contribs:
        acc.add(key, a, b)
    assert acc._packed and not acc._groups
    got = {}
    assert count_reductions(lambda: got.update(acc.result())) == 1
    assert got == _assert_sums_naively(contribs)


# -- cancelling Phi_d by one big-integer divmod ----------------------------------

def _list_reduce(arr, c, split):
    """The list loop that `_reduce` ran on a coefficient list before the
    packed divmod: `_phi_divides`, then `_div_monic`, per factor."""
    cancelled = {}
    terms = [(j, v) for j, v in enumerate(arr) if v]
    for d, e in split if len(terms) > 1 else ():
        for _ in range(e):
            if not sc._phi_divides(terms, d):
                break
            arr = sc._div_monic(arr, sc._cyclotomic(d))
            terms = [(j, v) for j, v in enumerate(arr) if v]
            cancelled[d] = cancelled.get(d, 0) + 1
    if cancelled.get(1, 0) % 2:
        c = -c
    split = tuple((d, e - cancelled.get(d, 0)) for d, e in split
                  if e > cancelled.get(d, 0))
    return arr, c, split


def _slices_reduce(slices, split):
    """The list loop on each slice {e_s: c}: a Phi_d is cancelled only if
    it divides every slice.  Returns (slices, split)."""
    lists = {key: sc._shifted(sl) for key, sl in slices.items()}
    for d, e in split:
        for _ in range(e):
            if not all(sc._phi_divides(enumerate(arr), d)
                       for _, arr in lists.values()):
                break
            lists = {key: (lo, sc._div_monic(arr, sc._cyclotomic(d)))
                     for key, (lo, arr) in lists.items()}
            split = sc._div_splits(split, ((d, 1),))
    return {key: sc._unshifted(lo, arr) for key, (lo, arr) in lists.items()}, \
        split


def _packed(arr):
    return sum(v << (64 * j) for j, v in enumerate(arr))


def test_packed_divmod_cancels_what_the_list_loop_does():
    rng = random.Random(27)
    for d in range(1, 257):
        for k in range(3):
            arr = [rng.randint(-40, 40) for _ in range(rng.randint(1, 6))]
            arr[0], arr[-1] = arr[0] or 1, arr[-1] or -1
            others = rng.sample(range(1, 65), rng.randint(0, 2))
            for f in [d] * k + others:
                arr = _mul_zs(arr, sc._cyclotomic(f))
            ids = [d, 1, rng.randint(1, 256)] + others + rng.sample(
                range(1, 65), 2)
            split = tuple(sorted((f, rng.randint(1, 3)) for f in set(ids)))
            c = rng.choice([1, 3, 10])
            want = _list_reduce(arr, c, split)
            assert sc._reduce(_packed(arr), c, split) == want, (d, k, arr)
            # the dict path, from a negative power of s, and with an m slice
            if k < 2:
                continue
            lo = rng.randint(-40, 0)
            num = {(lo + j, 0, 0, 0, 0): v for j, v in enumerate(arr) if v}
            got, got_c, got_split = sc._reduce(num, c, split)
            assert (got_c, got_split) == want[1:]
            assert got == {(lo + j, 0, 0, 0, 0): v
                           for j, v in enumerate(want[0]) if v}
            num.update({(es, 1, 0, 0, 0): 2 * v for es, v in
                        sc._unshifted(lo, _mul_zs(arr, [1, 1, 1])).items()})
            want, want_split = _slices_reduce(sc._slices(num), split)
            assert sc._reduce(num, c, split)[::2] == (sc._join(want),
                                                       want_split)


def _count_exact_paths(monkeypatch):
    calls = []
    exact = sc._divide_exactly

    def counting(*args):
        calls.append(1)
        return exact(*args)

    monkeypatch.setattr(sc, "_divide_exactly", counting)
    return calls


def test_packed_divmod_falls_back_past_the_digit_bound(monkeypatch):
    # a (s^3 + 1) / Phi_6 sums two groups of norm a below 2^63, but the
    # quotient a (s + 1) times ||Phi_6||_1 = 3 is past it: not certified
    a = 2 ** 62 - 1
    phi6 = {(0, 0, 0): 1, (1, 0, 0): -1, (2, 0, 0): 1}
    over6 = sc.Scalar(sc.ONE.num, phi6)
    assert over6.split == ((6, 1),)
    calls = _count_exact_paths(monkeypatch)
    got = _assert_sums_naively([(0, sc.integer(a) * sc.s_power(3), over6),
                                (0, sc.integer(a), over6)])
    assert calls and got[0] == sc.integer(a) * (sc.ONE + sc.s_power(1))
    assert _list_reduce([a, 0, 0, a], 1, ((6, 1),)) == ([a, a], 1, ())
    calls.clear()
    assert sc._reduce(_packed([a, 0, 0, a]), 1, ((6, 1),)) == \
        ([a, a], 1, ())
    assert calls
    # c (s + 1)^2 at s = 2^64 carries into digits below 2^63 whose
    # polynomial s + 1 does not divide: the divmod alone would cancel it
    c = 2 ** 62 + 1
    arr = [c, 2 - 2 ** 63, c + 1]
    assert _packed(arr) == _packed([c, c]) * _packed([1, 1])
    assert sc._reduce(_packed(arr), 1, ((2, 1),)) == (arr, 1, ((2, 1),)) \
        == _list_reduce(arr, 1, ((2, 1),))
    num = {(j - 3, 0, 0, 0, 0): v for j, v in enumerate(arr)}
    assert sc._reduce(num, 1, ((2, 1),)) == (num, 1, ((2, 1),))


def test_dict_divmod_falls_back_past_the_digit_bound(monkeypatch):
    # coefficients of 2^70 pack to digits that do not read back
    big = sc.integer(2 ** 70) * (sc.M + _Q * sc.integer(3))
    x = big * sc.qnum_std(3) * _LAM
    calls = _count_exact_paths(monkeypatch)
    got = x / (sc.qnum_std(3) * _LAM)
    assert calls and got == big and not got.split
    split = ((1, 1), (2, 1), (3, 1), (4, 1), (6, 1))
    assert sc._reduce(x.num, 1, split)[2] == \
        _slices_reduce(sc._slices(x.num), split)[1] == ()


def test_divmod_cancels_only_what_divides_every_slice():
    # Phi_3 divides the s, m and r slices but not the i slice, which is
    # not the smallest; Phi_8 divides all four, twice
    phi3, phi8 = sc._cyclotomic(3), sc._cyclotomic(8)
    two8 = _mul_zs(phi8, phi8)
    parts = {(0, 0, 0, 0): _mul_zs(two8, phi3),
             (1, 0, 0, 0): _mul_zs(two8, _mul_zs(phi3, [2, -1, 5])),
             (0, 0, 1, 0): _mul_zs(two8, [1, 1, 1, 1, 1]),
             (0, 0, 0, 1): _mul_zs(two8, _mul_zs(phi3, [3, 0, 0, 7]))}
    num = {(es - 5,) + key: v for key, arr in parts.items()
           for es, v in enumerate(arr) if v}
    split = ((3, 2), (8, 3))
    assert sorted(map(len, sc._slices(num).values()))[0] < \
        len(sc._slices(num)[(0, 0, 1, 0)])
    got, c, got_split = sc._reduce(num, 7, split)
    assert (c, got_split) == (7, ((3, 2), (8, 1)))
    want, want_split = _slices_reduce(sc._slices(num), split)
    assert want_split == got_split and got == sc._join(want)
    # without the i slice, Phi_3 comes off too
    num = {key: v for key, v in num.items() if key[3] == 0}
    assert sc._reduce(num, 7, split)[1:] == (7, ((3, 1), (8, 1)))


# -- sums over the lcm of two splits --------------------------------------------
#
# Two Scalars over split denominators are summed over the lcm of their
# denominators.  Each sum is checked against the point-evaluation mirror and
# against the cross-multiplied sum, which reduces to the same representative.

def _over(den):
    return st.builds(
        lambda n, d, es, em, ei, er: sc.rational(n, d) * sc.s_power(es)
        * sc.M ** em * sc.I ** ei * sc.R ** er / den,
        st.integers(-6, 6).filter(bool), st.integers(1, 4),
        st.integers(-4, 4), st.integers(0, 1), st.integers(0, 1),
        st.integers(0, 1))


def _splits_of(den):
    return {d for d, _ in den.inverse().split}


def _cross_sum(a, b):
    n = sc._nadd(sc._nmul(a.num, sc._den_as_num(b.den)),
                 sc._nmul(b.num, sc._den_as_num(a.den)))
    if not n:
        return sc.ZERO
    return sc.Scalar(n, sc._dmul(a.den, b.den))


@st.composite
def _lcm_terms(draw):
    """Terms whose denominators are disjoint, nested or equal (up to
    content), or terms and their negatives, whose sum is zero."""
    kind = draw(st.sampled_from(["disjoint", "nested", "equal", "zero"]))
    da = draw(st.sampled_from(_S_DENS))
    if kind == "disjoint":
        db = draw(st.sampled_from(
            [d for d in _S_DENS if not _splits_of(d) & _splits_of(da)]))
    elif kind == "nested":
        db = da * draw(st.sampled_from(_S_DENS))
    else:
        db = da * sc.integer(draw(st.sampled_from([1, 2, 3, -4, 12])))
    terms = [draw(_over(da)), draw(_over(db))]
    if kind == "zero":
        terms += [draw(_over(draw(st.sampled_from(_S_DENS))))]
        terms += [-t for t in terms]
        terms = draw(st.permutations(terms))
    return kind, terms


@given(_lcm_terms())
@settings(max_examples=80, deadline=None)
def test_lcm_sums_match_point_evaluation(case):
    kind, terms = case
    acc, mirror = terms[0], _eval_scalar(terms[0])
    for t in terms[1:]:
        want = _cross_sum(acc, t)
        acc = acc + t
        mirror = tuple(u + v for u, v in zip(mirror, _eval_scalar(t)))
        assert _eval_scalar(acc) == mirror
        assert (acc.num, acc.den, acc.split) == \
            (want.num, want.den, want.split)
        _assert_split(acc)
    if kind == "zero":
        assert acc.is_zero()


# -- lazy denominators --------------------------------------------------------
#
# A split Scalar stores its numerator, constant term and split; its dense
# denominator is built when `den` is first read.  Chains of products, sums,
# differences and sums of products are checked against the Scalar rebuilt
# from (num, den), against the point-evaluation mirror, and, for printing,
# against the same chain whose denominators were never read.

_LAZY_DENS = _S_DENS + [sc.qfactorial_std(n) for n in range(1, 9)]


def _lazy_atoms():
    return st.sampled_from(_LAZY_DENS).flatmap(_over)


@st.composite
def _lazy_chains(draw):
    start = draw(_lazy_atoms())
    steps = draw(st.lists(st.tuples(st.sampled_from("*+-S"), _lazy_atoms(),
                                    _lazy_atoms()), min_size=1, max_size=5))
    return start, steps


def _run_chain(start, steps):
    """The values of the chain and of its mirror after each step."""
    cur, mirror = start, _eval_scalar(start)
    for op, a, b in steps:
        ma, mb = _eval_scalar(a), _eval_scalar(b)
        if op == "*":
            cur, mirror = cur * a, _quad_mul(mirror, ma)
        elif op == "+":
            cur, mirror = cur + a, tuple(u + v for u, v in zip(mirror, ma))
        elif op == "-":
            cur, mirror = cur - a, tuple(u - v for u, v in zip(mirror, ma))
        else:
            acc = sc.SumOfProducts()
            for x, y in ((cur, a), (a, b), (b, cur)):
                acc.add(0, x, y)
            parts = (_quad_mul(mirror, ma), _quad_mul(ma, mb),
                     _quad_mul(mb, mirror))
            cur = acc.result().get(0, sc.ZERO)
            mirror = tuple(sum(p) for p in zip(*parts))
        yield cur, mirror


@given(_lazy_chains())
@settings(max_examples=40, deadline=None)
def test_lazy_scalars_match_their_rebuilt_dense_form(chain):
    start, steps = chain
    unread = [x for x, _ in _run_chain(start, steps)]
    assert all(x._den is None for x in unread if x)     # ZERO is shared
    for x, (y, mirror) in zip(unread, _run_chain(start, steps)):
        text = repr(x)                  # builds den while printing
        _assert_split(y)                # reads den
        rebuilt = sc.Scalar(y.num, dict(y.den))
        assert (y.num, y.den, y.split) == \
            (rebuilt.num, rebuilt.den, rebuilt.split)
        # reduced, checked apart from the split path: the PRS finds no
        # common factor, the content is 1 and c is positive
        assert _reduce_prs(y.num, y.den) == (y.num, y.den)
        assert y._c > 0 and sc._content(y.num, y._c) == 1
        assert _eval_scalar(y) == mirror
        assert repr(y) == text


def test_equal_values_from_different_sums_are_identical():
    a = (sc.integer(3) + _Q) / sc.qfactorial_std(5)
    b = (sc.M - sc.I * sc.R) / (_TWO ** 2 * sc.qnum_std(3) * sc.integer(4))
    c = sc.integer(-2) * sc.s_power(3) / (_LAM * sc.qfactorial_std(4))
    for x, y in ((a, b), (a + b, c), (c, a * b)):
        lcm, cross = x + y, _cross_sum(x, y)
        assert lcm == cross and not lcm != cross
        assert (lcm.num, lcm.den, lcm.split) == \
            (cross.num, cross.den, cross.split)


def test_unequal_split_scalars_compare_without_dense_denominators(
        monkeypatch):
    xs = [(sc.integer(3) + _Q) / sc.qfactorial_std(5), _LAM / _TWO,
          sc.integer(6) / (_TWO ** 2 * sc.qnum_std(3)),
          sc.I / (sc.integer(-3) * _LAM ** 3), sc.rational(3, 4), sc.ONE]
    pairs = [(x, y) for x in xs for y in xs if x is not y]
    pairs += [(x, x + sc.ONE) for x in xs] + [(x, x * _Q) for x in xs]
    pairs += [(x, x / sc.integer(5)) for x in xs]     # only c differs
    calls = []
    split_den = sc._split_den

    def counting(*args):
        calls.append(1)
        return split_den(*args)

    monkeypatch.setattr(sc, "_split_den", counting)
    for x, y in pairs:
        assert x.split is not None and y.split is not None
        assert x != y and not x == y
    assert calls == []


# -- multiplication by [[n]] through the split --------------------------------
#
# Each input is [[j]]!^-1 times an atom, and its mirror value is built from
# the point values alone, so the check does not go through Scalar.

def _qn_at(n):
    """[[n]] at the point, as a mirror value."""
    return (sum(_SPT ** (4 * j) for j in range(n)),) + (Fraction(0),) * 3


def _qnum_inputs():
    zero = Fraction(0)
    atoms = [(sc.M, (_MPT, zero, zero, zero)),
             (sc.I, (zero, Fraction(1), zero, zero)),
             (sc.R, (zero, zero, Fraction(1), zero)),
             ((sc.M + sc.K).inverse(), (1 / (_MPT + _KPT), zero, zero, zero))]
    out = [(_LAM.inverse(), (1 / (_SPT ** 2 - _SPT ** -2),) + (zero,) * 3)]
    fact = (Fraction(1), zero, zero, zero)
    for j in range(12):
        fact = _quad_mul(fact, _qn_at(j)) if j else fact
        inv = _quad_inv(fact)
        out += [(sc.qfactorial_std(j).inverse() * x, _quad_mul(inv, mx))
                for x, mx in atoms]
    return out


def test_mul_qnum_std_equals_the_product():
    for x, _ in _qnum_inputs():
        for n in range(18):
            want = x * sc.qnum_std(n)
            got = sc.mul_qnum_std(x, n)
            assert (got.num, got._c, got.split) == \
                (want.num, want._c, want.split), (x, n)
            _assert_split(got)


def test_qfactorial_inverse_is_the_inverse():
    for n in range(20):
        got, want = sc.qfactorial_inverse(n), sc.qfactorial_std(n).inverse()
        assert (got.num, got._c, got.split) == (want.num, want._c, want.split)
        assert sc.qfactorial_inverse(n) is got


def test_mul_qnum_std_matches_point_evaluation():
    for x, mirror in _qnum_inputs():
        for n in range(18):
            assert _eval_scalar(sc.mul_qnum_std(x, n)) == \
                _quad_mul(mirror, _qn_at(n)), (x, n)


def test_mul_qnum_std_never_trial_divides(monkeypatch):
    calls = []
    cancel = sc._cancel_phis

    def counting(*args):
        calls.append(1)
        return cancel(*args)

    inputs = [x for x, _ in _qnum_inputs()]
    monkeypatch.setattr(sc, "_cancel_phis", counting)
    for x in inputs:
        for n in range(18):
            sc.mul_qnum_std(x, n)
    assert calls == []
    # the generic product trial-divides the same inputs
    for x in inputs:
        x * sc.qnum_std(5)
    assert calls
