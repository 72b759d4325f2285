import random
from fractions import Fraction

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
    den = Fraction(0)
    for (es, em, ek), c in x.den.items():
        den += Fraction(c) * _SPT ** es * _MPT ** em * _KPT ** ek
    assert den != 0
    return tuple(a / den for a in acc)


@given(st.lists(st.sampled_from("+-*i"), min_size=1, max_size=12),
       st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
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
            continue
        other = atom()
        om = _eval_scalar(other)
        if op == "+":
            cur, mirror = cur + other, tuple(a + b
                                             for a, b in zip(mirror, om))
        elif op == "-":
            cur, mirror = cur - other, tuple(a - b
                                             for a, b in zip(mirror, om))
        else:
            cur, mirror = cur * other, _quad_mul(mirror, om)
        assert _eval_scalar(cur) == mirror
    # canonical form preserves the value and is idempotent
    can = cur.canonical()
    assert _eval_scalar(can) == mirror
    can2 = can.canonical()
    assert can2.num == can.num and can2.den == can.den


# -- cyclotomic splits against the primitive-PRS reference ---------------------

def _den_of(x):
    """A polynomial Scalar in s alone as a shifted denominator dict."""
    assert x.den == {(0, 0, 0): 1}
    lo = min(key[0] for key in x.num)
    return {(key[0] - lo, 0, 0): v for key, v in x.num.items()}


def _assert_matches_prs(num, den, factors=()):
    got = sc._reduce_s_only(num, den, factors)
    assert got == sc._reduce_prs(num, den)
    return got


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
    assert sc._den_split(den)          # all cyclotomic: the split path runs
    got = _assert_matches_prs(x.num, den)
    assert max(got[1]) < max(den)      # something cancelled
    # the same with the denominator's factors passed along
    factor_dens = tuple(_den_of(f) for f in facs)
    assert sc._reduce_s_only(x.num, den, factor_dens) == got


def test_split_reduction_shares_factor_with_multiplicity():
    # [2] = s^-2 Phi_8(s): every slice carries Phi_8^2, the denominator ^3
    den = _den_of(_TWO ** 3 * sc.qnum_std(6) * sc.integer(5))
    x = (_TWO ** 2 * (sc.integer(2) + _Q)
         + sc.K * _TWO ** 2 * sc.qnum_std(6) * (_Q - sc.integer(1)))
    num, new_den = _assert_matches_prs(x.num, den)
    assert sc.Scalar(num, new_den) == sc.Scalar(x.num, den)
    assert max(new_den)[0] == max(den)[0] - 8     # Phi_8^2 cancelled


def test_split_reduction_returns_at_once_on_a_monomial_slice():
    den = _den_of(_LAM * _TWO * sc.qfactorial_std(3))
    x = _LAM * sc.M + sc.s_power(3) * sc.integer(4)    # slice m^0 = 4 s^3
    num, new_den = _assert_matches_prs(x.num, den)
    assert num is x.num and new_den is den


def test_non_cyclotomic_denominator_falls_back_to_prs():
    odd = sc.integer(1) + sc.s_power(1) * sc.integer(3) + sc.s_power(2)
    den = _den_of(odd * sc.qnum_std(3))
    assert sc._split_from_scratch(sc._dense(den)) is None
    x = odd * (sc.integer(2) + sc.M * _Q)
    num, new_den = _assert_matches_prs(x.num, den)
    assert new_den == _den_of(sc.qnum_std(3))
    assert sc._den_split(den) is None


def _split_from_scratch(den):
    return sc._split_from_scratch(sc._dense(dict(sc._prim_key(den))))


def test_seeded_split_equals_split_from_scratch():
    a = (sc.integer(3) * sc.qfactorial_std(5) * _TWO ** 2).inverse()
    b = (sc.integer(2) * _LAM ** 3 * sc.qnum_std(6)).inverse()
    for x in (a * b, a + b, (a * b) * (a + b)):
        seeded = sc._den_split(x.den)
        assert seeded
        assert seeded == _split_from_scratch(x.den)
    for n in range(1, 10):
        fact = sc._num_real_part(sc.qfactorial_std(n).num)
        assert sc._den_split(fact) == _split_from_scratch(fact)


def test_phi_divides_matches_exact_division():
    rng = random.Random(5)
    for d in range(1, 61):
        phi = sc._cyclotomic(d)
        for _ in range(3):
            r = [rng.randint(-4, 4) for _ in range(rng.randint(1, 12))]
            r[-1] = r[-1] or 1
            for p in (r, sc._mul_zs(r, phi)):
                shift = rng.randint(-30, 30)
                terms = [(j + shift, v) for j, v in enumerate(p) if v]
                g = sc._gcd_zs(p, phi)
                assert sc._phi_divides(terms, d) == (g == phi), (d, p)


def test_split_from_scratch_stops_at_its_largest_order():
    top = sc._SCRATCH_MAX_ORDER
    # [[top/4]] has Phi_top as its largest factor
    qn = sc._dense(sc._num_real_part(sc.qnum_std(top // 4).num))
    assert max(sc._split_from_scratch(qn)) == top
    # 1 + s^1000 needs Phi_2000: no split, and the PRS reduces it
    big = [1] + [0] * 999 + [1]
    assert sc._split_from_scratch(big) is None
    den = {(j, 0, 0): v for j, v in enumerate(big) if v}
    # Phi_16 = 1 + s^8 divides every slice and 1 + s^1000
    num = {(0, 0, 0, 0, 0): 1, (8, 0, 0, 0, 0): 1,
           (4, 1, 0, 0, 0): 3, (12, 1, 0, 0, 0): 3}
    got = sc._reduce_s_only(num, den)
    assert got == sc._reduce_prs(num, den)
    assert max(got[1])[0] == 992


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
                assert (got.num, got.den) == want


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
           sc.qfactorial_std(4), _TWO ** 2 * sc.qnum_std(2)]
_MK_DENS = [sc.M * sc.integer(6) + sc.K, sc.K + _Q * sc.integer(2)]


def _contributions(dens):
    atom = st.builds(
        lambda n, d, es, em, ek, ei, er, den: sc.rational(n, d)
        * sc.s_power(es) * sc.M ** em * sc.K ** ek * sc.I ** ei * sc.R ** er
        / den,
        st.integers(-6, 6), st.integers(1, 4), st.integers(-4, 4),
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
        st.integers(0, 1), st.sampled_from(dens))
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
    spilled = bool(acc._sums)
    got = acc.result()
    assert set(got) <= set(mirror)
    for key, want in mirror.items():
        if key not in got:
            assert not any(want) and naive[key].is_zero()
            continue
        assert _eval_scalar(got[key]) == want
        if s_only:
            assert (got[key].num, got[key].den) == \
                (naive[key].num, naive[key].den)
    return spilled


@given(_contributions(_S_DENS))
@settings(max_examples=40, deadline=None)
def test_sum_of_products_matches_mirror_and_naive_sum(contribs):
    _check_sum_of_products(contribs, s_only=True)


@given(_contributions(_S_DENS + _MK_DENS))
@settings(max_examples=25, deadline=None)
def test_sum_of_products_matches_mirror_with_mk_denominators(contribs):
    _check_sum_of_products(contribs, s_only=False)


def test_sum_of_products_reduces_a_group_past_the_bound():
    # every product has the denominator lambda [2] and adds 8 new numerator
    # terms, so the group of key 0 passes the bound; the last contribution
    # cancels the first, which was reduced with the group before it
    def chunk(j):
        return sum((sc.s_power(8 * j + t) * sc.integer(t + 1)
                    * sc.I ** (t % 2) for t in range(8)), sc.ZERO) / _LAM

    n = sc._GROUP_MAX_TERMS // 8 + 2
    contribs = [(0, chunk(j), _TWO.inverse()) for j in range(n)]
    contribs += [(1, chunk(0), _Q), (0, -chunk(0), _TWO.inverse())]
    assert _check_sum_of_products(contribs, s_only=True)
