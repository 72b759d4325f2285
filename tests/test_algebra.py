import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmink import algebra as al
from qmink import scalars as sc

x0 = al.gen_element("x0")
xm = al.gen_element("xm")
xp = al.gen_element("xp")
x3 = al.gen_element("x3")
x30 = al.gen_element("x30")
lam = sc.lambda_()
two = sc.two_q()


def defining_relations():
    q, qi = sc.q_power(1), sc.q_power(-1)
    return [
        xm * x0 - x0 * xm,
        xp * x0 - x0 * xp,
        x3 * x0 - x0 * x3,
        (xm * x3).scale(qi) - (x3 * xm).scale(q) + (xm * x0).scale(lam),
        (x3 * xp).scale(qi) - (xp * x3).scale(q) + (xp * x0).scale(lam),
        xm * xp - xp * xm - (x3 * x3).scale(lam) + (x3 * x0).scale(lam),
    ]


def test_defining_relations_normalize_to_zero():
    for rel in defining_relations():
        assert rel.is_zero()


def test_four_square():
    got = x0 * x0 + (xm * xp).scale(sc.q_power(-1)) + \
        (xp * xm).scale(sc.q_power(1)) - x3 * x3
    assert got == al.xsq_element()


def test_metric_contraction_and_asymmetry():
    from qmink import matrices as mx
    coords = [x0, xm, xp, x3]
    # x_mu x_nu eta^{mu nu} = x^2 fixes eta^{-+} = q^-1, eta^{+-} = q
    acc = al.zero()
    for (mu, nu), coeff in mx.eta_upper().items():
        acc = acc + (coords[mu] * coords[nu]).scale(coeff)
    assert acc == al.xsq_element()
    # x_mu x^mu = x^2 but x^mu x_mu differs (eta is not symmetric)
    lower_then_upper = al.zero()
    for mu in range(4):
        lower_then_upper = lower_then_upper + coords[mu] * mx.x_upper(mu)
    assert lower_then_upper == al.xsq_element()
    upper_then_lower = al.zero()
    for mu in range(4):
        upper_then_lower = upper_then_lower + mx.x_upper(mu) * coords[mu]
    assert upper_then_lower != al.xsq_element()


def test_x_minus_plus_reduction():
    # [2] x- x+ = x^2 + q^2 x30^2 + q [2] x0 x30  (re-derived coefficients)
    lhs = (xm * xp).scale(two)
    rhs = al.xsq_element() + (x30 * x30).scale(sc.q_power(2)) + \
        (x0 * x30).scale(sc.q_power(1) * two)
    assert lhs == rhs
    lhs = (xp * xm).scale(two)
    rhs = al.xsq_element() + (x30 * x30).scale(sc.q_power(-2)) + \
        (x0 * x30).scale(sc.q_power(-1) * two)
    assert lhs == rhs


def test_x30_phase_rules():
    assert x30 * xp == (xp * x30).scale(sc.q_power(2))
    assert xm * x30 == (x30 * xm).scale(sc.q_power(2))


def test_identity_and_zero():
    f = al.from_surface_word(("xm", "x3", "xp"))
    assert al.one() * f == f
    assert f * al.one() == f
    assert al.zero() * f == al.zero()
    assert f + al.zero() == f


def monomials(max_degree=5):
    def build(t):
        a, b, c, d, e = t
        return al.monomial(a, b, c, d, e)
    return st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                     st.integers(0, 2), st.integers(0, 2)).filter(
        lambda t: (t[2] == 0 or t[4] == 0) and sum(t) <= max_degree).map(build)


@given(monomials(), monomials(), monomials())
@settings(max_examples=120, deadline=None)
def test_associativity(f, g, h):
    assert (f * g) * h == f * (g * h)


def rand_algebra_element(rng, deg=4, nterms=3):
    acc = al.zero()
    for _ in range(nterms):
        d = rng.randint(0, deg)
        word = tuple(rng.choice(al.SURFACE_GENS) for _ in range(d))
        acc = acc + al.from_surface_word(word).scale(
            sc.integer(rng.randint(-3, 3)))
    return acc


def test_centrality_of_x0_and_xsq():
    rng = random.Random(3)
    xsq = al.xsq_element()
    for _ in range(6):
        f = rand_algebra_element(rng)
        assert x0 * f == f * x0
        assert xsq * f == f * xsq


def test_delta_squared_identity():
    # (xi+ - xi-)^2 = (x0)^2 - (4/[2]^2) x^2
    lhs = al.delta_element() ** 2
    rhs = x0 * x0 - al.xsq_element().scale(
        sc.integer(4) * (two ** 2).inverse())
    assert lhs == rhs


def test_scale_kappa():
    f = al.monomial(d=3)
    assert al.scale_kappa(f) == f.scale(sc.q_power(3))
    assert al.scale_kappa(al.one()) == al.one()
    assert al.scale_kappa(al.monomial(a=1, b=1)) == \
        al.monomial(a=1, b=1).scale(sc.q_power(2))
    g = rand_algebra_element(random.Random(5))
    h = rand_algebra_element(random.Random(6))
    # kappa is an algebra map
    assert al.scale_kappa(g * h) == al.scale_kappa(g) * al.scale_kappa(h)


def test_delta_division():
    delta = al.delta_element()
    f = al.monomial(a=2) - al.monomial(b=2)
    assert al.div_central(f, delta) == al.x0_element()
    with pytest.raises(al.DeltaDivisionError) as err:
        al.div_central(al.monomial(a=1), delta)
    assert err.value.remainder is not None


def test_localized_normalization():
    f = (al.monomial(a=2) - al.monomial(b=2)) * al.monomial(d=1)
    loc = al.Localized(f, 1)
    assert loc.dpow == 0
    assert loc.num == al.x0_element() * al.monomial(d=1)
    bad = al.Localized(al.monomial(a=1), 1)
    assert bad.dpow == 1
    with pytest.raises(al.DeltaDivisionError):
        bad.try_clear()


def test_localize_div():
    one = al.Localized.of(al.one())
    v = al.localize_div(one, 0)
    assert v.dpow == 0 and v.num == al.one()
    w = al.localize_div(one, 2)
    assert w.dpow == 2
    # multiplying back by delta^2 clears
    cleared = w * (al.delta_element() ** 2)
    assert cleared.dpow == 0 and cleared.num == al.one()


def test_localized_arithmetic():
    delta = al.delta_element()
    a = al.Localized(al.one(), 1)                 # 1/delta
    b = al.Localized(x0, 1)                        # x0/delta
    s = a * delta + b * delta                      # 1 + x0
    assert s.dpow == 0 and s.num == al.one() + x0
    assert (a - a).is_zero()


def test_localized_add_zero_keeps_operand():
    x = al.Localized(al.monomial(a=1), 1)
    zero = al.Localized.of(al.zero())
    for total in (zero + x, x + zero):
        assert total.dpow == 1 and total.num == x.num


def test_localized_add_same_dpow_makes_no_product(monkeypatch):
    calls = []
    mul = al._mul

    def counting_mul(f, g):
        calls.append((f, g))
        return mul(f, g)

    x = al.Localized(al.monomial(a=1), 1)
    y = al.Localized(al.monomial(b=1, c=1), 1)
    monkeypatch.setattr(al, "_mul", counting_mul)
    total = x + y
    assert calls == []
    assert total.dpow == 1
    assert total.num == al.monomial(a=1) + al.monomial(b=1, c=1)


def test_localized_add_mixed_dpow():
    delta = al.delta_element()
    u = al.Localized(al.monomial(a=1), 2)             # xi+ / delta^2
    v = al.Localized(al.monomial(b=1, c=1), 1)        # xi- x+ / delta
    w = al.Localized.of(al.monomial(d=1))             # x30
    assert u.dpow == 2 and v.dpow == 1
    want = al.Localized(u.num + v.num * delta + w.num * delta ** 2, 2)
    assert u + v + w == want
    assert w + v + u == want
    assert v + w == al.Localized(v.num + w.num * delta, 1)


def test_pbw_round_trip():
    import itertools
    for n0, nm, np_, n3 in itertools.product(range(3), repeat=4):
        if n0 + nm + np_ + n3 > 5:
            continue
        mono = {(n0, nm, np_, n3): sc.ONE}
        assert al.to_pbw_x(al.pbw_to_element(mono)) == mono


def test_to_pbw_example():
    # (x0)^2 x3 -> the single PBW monomial (2, 0, 0, 1)
    el = x0 * x0 * x3
    assert al.to_pbw_x(el) == {(2, 0, 0, 1): sc.ONE}


def test_from_surface_examples():
    assert x0 == al.monomial(a=1) + al.monomial(b=1)
    assert al.xsq_element() == al.monomial(a=1, b=1, coeff=two ** 2)
    assert x3 == x30 + x0


def test_not_in_algebra_detection():
    with pytest.raises(al.NotInAlgebraError):
        al.to_pbw_x(al.monomial(a=1))
    with pytest.raises(al.NotInAlgebraError):
        al.to_pbw_x(al.monomial(a=2, b=1))


def test_internal_vs_pbw_multiplication():
    rng = random.Random(11)
    for _ in range(8):
        f = rand_algebra_element(rng, 3, 2)
        g = rand_algebra_element(rng, 3, 2)
        lhs = al.to_pbw_x(f * g)
        rhs = al.pbw_mul(al.to_pbw_x(f), al.to_pbw_x(g))
        rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
        assert lhs.keys() == rhs.keys()
        assert all(lhs[k] == rhs[k] for k in lhs)


def test_mul_into_sums_the_products():
    # coefficients over several denominators, so the sum has several groups
    rng = random.Random(13)
    coeffs = [sc.ONE, sc.lambda_() / sc.two_q(), sc.qnum_std(3).inverse(),
              sc.I * sc.R / sc.lambda_()]
    for _ in range(6):
        acc, want = sc.SumOfProducts(), al.zero()
        for _ in range(3):
            f = rand_algebra_element(rng, 3, 2).scale(rng.choice(coeffs))
            g = rand_algebra_element(rng, 3, 2).scale(rng.choice(coeffs))
            al.mul_into(acc, f, g)
            want = want + f * g
        got = al.Element(acc.result(), _copy=False)
        assert got == want and got.terms.keys() == want.terms.keys()


def classical_pbw(el):
    out = {}
    for key, v in al.to_pbw_x(el).items():
        c = v.subst_classical().as_fraction()
        if c:
            out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def test_classical_limit_of_multiplication():
    rng = random.Random(13)

    def comm_mul(p1, p2):
        out = {}
        for k1, v1 in p1.items():
            for k2, v2 in p2.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return {k: v for k, v in out.items() if v}

    for _ in range(6):
        f = rand_algebra_element(rng, 3, 2)
        g = rand_algebra_element(rng, 3, 2)
        assert classical_pbw(f * g) == comm_mul(classical_pbw(f),
                                                classical_pbw(g))


# -- the tail table, per-tail PBW products and powers --------------------------

def _tails(max_deg):
    """Tail shapes (c, d, e) with c * e = 0 and degree <= max_deg."""
    return [(c, d, e) for c in range(max_deg + 1) for d in range(max_deg + 1)
            for e in range(max_deg + 1)
            if c * e == 0 and c + d + e <= max_deg]


def test_tail_mul_matches_append_chain():
    for c, d, e in _tails(3):
        for c2, d2, e2 in _tails(3):
            cur = {(0, 0, c, d, e): sc.ONE}
            for _ in range(c2):
                cur = al._append_xp(cur)
            for _ in range(d2):
                cur = al._append_x30(cur)
            for _ in range(e2):
                cur = al._append_xm(cur)
            table = dict(al._tail_mul(c, d, e, c2, d2, e2))
            assert table.keys() == cur.keys()
            for key, t in table.items():
                assert t == cur[key]
                assert (t is sc.ONE) == t.is_one()


def test_tail_mul_product_matches_pbw_engine():
    for c, d, e in _tails(2):
        for c2, d2, e2 in _tails(2):
            f, g = al.monomial(c=c, d=d, e=e), al.monomial(c=c2, d=d2, e=e2)
            prod = al.Element({key: t for key, t in
                               al._tail_mul(c, d, e, c2, d2, e2)})
            assert prod == f * g
            rhs = al.pbw_mul(al.to_pbw_x(f), al.to_pbw_x(g))
            assert al.to_pbw_x(prod) == \
                {k: v for k, v in rhs.items() if not v.is_zero()}


def _per_term_pbw(f):
    """to_pbw_x term by term: one pbw_mul per term, 5-tuple keys."""
    acc = {}
    for (a, b, c, d, e), coeff in f.terms.items():
        central = {key: v * coeff for key, v in al._central_pbw(a, b)}
        for key, v in al._pbw5(al.pbw_mul(central,
                                          al._pbw_tail(c, d, e))).items():
            al._acc(acc, key, v)
    return acc


def test_to_pbw_x_equals_sum_of_term_images(monkeypatch):
    rng = random.Random(19)
    central = (x0 + al.xsq_element().scale(sc.q_power(1))) ** 3
    for _ in range(4):
        f = rand_algebra_element(rng, 3, 3) * central \
            + (x0 + x3).scale(lam) ** 4
        tails = {key[2:] for key in f.terms}
        assert len(f.terms) > 2 * len(tails)       # tails are shared
        want = _per_term_pbw(f)
        assert not any(key[1] for key in want)
        want = {(n0, nm, np_, n3): v for (n0, _, nm, np_, n3), v in want.items()}
        assert al.to_pbw_x(f) == want
        # warm caches, then one pbw_mul per distinct tail
        calls = []
        pbw_mul = al.pbw_mul

        def counting(p, g):
            calls.append(1)
            return pbw_mul(p, g)

        monkeypatch.setattr(al, "pbw_mul", counting)
        al.to_pbw_x(f)
        monkeypatch.setattr(al, "pbw_mul", pbw_mul)
        assert len(calls) == len(tails)


def test_not_in_algebra_detection_with_shared_tails():
    with pytest.raises(al.NotInAlgebraError) as err:
        al.to_pbw_x(al.monomial(a=1, c=1) + al.monomial(a=2, b=1, c=1))
    assert all(key[1] for key in err.value.residue)
    # xi+ x+ + xi- x+ = x0 x+: the alpha parts cancel within one tail
    assert al.to_pbw_x(al.monomial(a=1, c=1) + al.monomial(b=1, c=1)) == \
        {(1, 0, 1, 0): sc.ONE}


@pytest.mark.parametrize("n", range(1, 10))
def test_power_makes_no_wasted_product(monkeypatch, n):
    calls = []
    mul = al._mul

    def counting_mul(f, g):
        calls.append(1)
        return mul(f, g)

    x = x0 + xm
    want = x
    for _ in range(n - 1):
        want = want * x
    monkeypatch.setattr(al, "_mul", counting_mul)
    got = x ** n
    assert len(calls) == (n.bit_length() - 1) + (bin(n).count("1") - 1)
    assert got == want
    assert x ** 0 == al.one()


def _random_terms(rng):
    """An Element with up to four random basis terms, built from its dict."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        c = rng.randint(0, 2)
        e = 0 if c else rng.randint(0, 2)
        key = (rng.randint(0, 2), rng.randint(0, 1), c, rng.randint(0, 2), e)
        terms[key] = sc.integer(rng.randint(-3, 3)) * \
            sc.q_power(rng.randint(-2, 2))
    return al.Element(terms)


def test_add_all_is_the_left_fold_of_plus():
    assert al.add_all([]) == al.zero()
    rng = random.Random(808)
    for _ in range(60):
        els = [_random_terms(rng) for _ in range(rng.randint(1, 5))]
        els += [-x for x in els if rng.random() < 0.5]   # pairs that cancel
        rng.shuffle(els)
        want = al.zero()
        for x in els:
            want = want + x
        got = al.add_all(iter(els))
        assert got == want
        assert not any(c.is_zero() for c in got.terms.values())
    x = _random_terms(random.Random(5)) + x0 * xm
    assert al.add_all([x, -x]).terms == {}
