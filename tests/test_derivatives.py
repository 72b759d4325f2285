import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from qmink import algebra as al
from qmink import cli
from qmink import derivatives as dv
from qmink import matrices as mx
from qmink import scalars as sc

GENS = ("x0", "xm", "xp", "x3")
lam = sc.lambda_()
two = sc.two_q()


def grad_eq(g1, g2):
    return all(a == b for a, b in zip(g1.components, g2.components))


def test_generator_derivatives():
    for nu, g in enumerate(GENS):
        got = dv.grad_oracle(al.gen_element(g)).cleared()
        for mu in range(4):
            assert got[mu] == (al.one() if mu == nu else al.zero())


def test_gradient_of_constant_is_zero():
    assert dv.grad_oracle(al.one().scale(sc.two_q())).is_zero()
    assert dv.grad_closed(al.one()).components[1].is_zero()
    assert dv.grad_closed(al.zero()).is_zero()


def test_zero_localized_equals_zero():
    # delta does not divide xi+, so this keeps a delta^1 denominator
    loc = al.Localized(al.monomial(a=1), 1)
    assert loc.dpow == 1
    zero = al.Localized.of(al.zero())
    assert loc * sc.ZERO == zero
    assert sc.ZERO * loc == zero
    assert (loc * sc.ZERO).dpow == 0
    grad = dv.Gradient((loc,) * 4)
    assert grad.scale(sc.ZERO) == dv.Gradient.zero()


@pytest.mark.parametrize("gen,slot", [("xm", 1), ("xp", 2)])
def test_power_rule_spatial(gen, slot):
    for n in range(1, 6):
        got = dv.grad_oracle(al.gen_element(gen) ** n).cleared()
        want = (al.gen_element(gen) ** (n - 1)).scale(sc.qnum_std(n))
        for mu in range(4):
            assert got[mu] == (want if mu == slot else al.zero())


def test_power_rule_lightcone():
    for n in range(1, 6):
        got = dv.grad_oracle(al.monomial(d=n)).cleared()
        want = al.monomial(d=n - 1, coeff=sc.qnum_std(n))
        assert got[3] == want and got[0] == -want
        assert got[1].is_zero() and got[2].is_zero()


def test_mixed_basis_words():
    # nabla(x30^k x-^n) = [[k]] x30^(k-1) x-^n nabla x30
    #                   + [[n]] x30^k x-^(n-1) nabla x-
    for k, n in itertools.product(range(3), range(3)):
        el = al.monomial(d=k, e=n)
        got = dv.grad_oracle(el).cleared()
        d30 = al.monomial(d=k - 1, e=n, coeff=sc.qnum_std(k)) if k \
            else al.zero()
        dm = al.monomial(d=k, e=n - 1, coeff=sc.qnum_std(n)) if n \
            else al.zero()
        assert got[3] == d30 and got[0] == -d30 and got[1] == dm
        assert got[2].is_zero()


def test_four_length_derivative():
    got = dv.grad_oracle(al.xsq_element()).cleared()
    coeff = sc.q_power(-1) * two
    for mu in range(4):
        assert got[mu] == mx.x_upper(mu).scale(coeff)
    # and the closed form agrees
    got2 = dv.grad_closed(al.xsq_element()).cleared()
    assert got == got2


def test_xsq_power_rule():
    xsq = al.xsq_element()
    for n in (1, 2, 3):
        got = dv.grad_oracle(xsq ** n)
        # nabla (x^2)^n = [[n]] (x^2)^(n-1) nabla x^2
        coeff = sc.qnum_std(n)
        base = dv.grad_oracle(xsq).cleared()
        expect = tuple((xsq ** (n - 1) * b).scale(coeff) for b in base)
        assert got.cleared() == expect


def test_oracle_well_defined_on_relations():
    def gw(word):
        comps, _ = dv._oracle_word(word)
        return comps

    def lincomb(*terms):
        out = [al.zero()] * 4
        for coeff, w in terms:
            g = gw(w)
            for mu in range(4):
                out[mu] = out[mu] + g[mu].scale(coeff)
        return out

    for a in ("xm", "xp", "x3"):
        g1, g2 = gw((a, "x0")), gw(("x0", a))
        assert all(x == y for x, y in zip(g1, g2))
    q1, qm1 = sc.q_power(1), sc.q_power(-1)
    checks = [
        lincomb((qm1, ("xm", "x3")), (-q1, ("x3", "xm")), (lam, ("xm", "x0"))),
        lincomb((qm1, ("x3", "xp")), (-q1, ("xp", "x3")), (lam, ("xp", "x0"))),
        lincomb((sc.ONE, ("xm", "xp")), (-sc.ONE, ("xp", "xm")),
                (-lam, ("x3", "x3")), (lam, ("x3", "x0"))),
    ]
    for vec in checks:
        assert all(x.is_zero() for x in vec)


def test_mon_deriv_expansion():
    # nabla x_alpha^n = sum_k q^k L^k (nabla x_alpha) x_alpha^(n-k-1)
    for nu, g in enumerate(GENS):
        L = mx.l_matrix(g)
        el = al.gen_element(g)
        for n in range(1, 6):
            want = [al.zero()] * 4
            power = mx.identity(4)
            for k in range(n):
                col = [power.entries[mu][nu].try_clear() for mu in range(4)]
                tail = el ** (n - k - 1)
                for mu in range(4):
                    want[mu] = want[mu] + \
                        (col[mu] * tail).scale(sc.q_power(k))
                power = power * L
            got = dv.grad_oracle(el ** n).cleared()
            assert tuple(want) == got, (g, n)


def test_q_heisenberg_form():
    # d^mu (x_nu f) = d^mu_nu f + q (L_{x_nu} nabla f)^mu
    rng = random.Random(31)
    for _ in range(6):
        f = _random_algebra_element(rng, 3)
        gf = dv.grad_oracle(f).cleared()
        for nu, g in enumerate(GENS):
            got = dv.grad_oracle(al.gen_element(g) * f).cleared()
            L = mx.l_matrix(g)
            for mu in range(4):
                acc = f if mu == nu else al.zero()
                for sig in range(4):
                    entry = L.entries[mu][sig].try_clear()
                    if entry.is_zero() or gf[sig].is_zero():
                        continue
                    acc = acc + (entry * gf[sig]).scale(sc.q_power(1))
                assert got[mu] == acc


def test_leibniz_coproduct_law():
    # nabla(fg) = (nabla f) g + (kappa L |> f) nabla g
    rng = random.Random(33)
    for _ in range(4):
        f = _random_algebra_element(rng, 2)
        g = _random_algebra_element(rng, 2)
        lhs = dv.grad_oracle(f * g).cleared()
        gf = dv.grad_oracle(f).cleared()
        gg = dv.grad_oracle(g).cleared()
        lmat = mx.l_action(f)
        for mu in range(4):
            acc = gf[mu] * g
            for sig in range(4):
                entry = al.scale_kappa(lmat.entries[mu][sig].try_clear())
                if entry.is_zero() or gg[sig].is_zero():
                    continue
                acc = acc + entry * gg[sig]
            assert lhs[mu] == acc


def test_kappa_l_on_central_functions():
    # kappa L |> g(xi+, xi-) = Pi+ g(q^2 xi+, .) + Pi- g(., q^2 xi-)
    pp, pm = mx.projectors()
    rng = random.Random(35)
    for _ in range(4):
        g = al.zero()
        for _ in range(3):
            g = g + al.xsq_element() ** rng.randint(0, 1) * \
                al.x0_element() ** rng.randint(0, 2)
        lhs_mat = mx.l_action(g)
        lhs = mx.Matrix(
            [[mx._as_localized(al.scale_kappa(
                lhs_mat.entries[i][j].try_clear()))
              for j in range(4)] for i in range(4)])
        rhs = pp * dv.subst_xi_scale(g, plus=1) + \
            pm * dv.subst_xi_scale(g, minus=1)
        assert lhs == rhs


# -- closed form vs oracle -------------------------------------------------------

def _basis_monomials(max_degree):
    out = []
    for i in range(max_degree // 2 + 1):
        for j in range(max_degree + 1):
            for k in range(max_degree + 1):
                for l in range(max_degree + 1):
                    if 2 * i + j + k + l > max_degree:
                        continue
                    head = al.xsq_element() ** i * al.x0_element() ** j
                    out.append(head * al.monomial(d=k, e=l))
                    if l:
                        out.append(head * al.monomial(c=l) * al.monomial(d=k))
    return out


def _random_algebra_element(rng, deg=3, nterms=3):
    acc = al.zero()
    for _ in range(nterms):
        i, j = rng.randint(0, 1), rng.randint(0, 2)
        k, l = rng.randint(0, 2), rng.randint(0, 2)
        if 2 * i + j + k + l > deg:
            continue
        head = al.xsq_element() ** i * al.x0_element() ** j
        tail = al.monomial(d=k, e=l) if rng.random() < 0.5 \
            else al.monomial(c=l) * al.monomial(d=k)
        acc = acc + (head * tail).scale(sc.integer(rng.randint(-3, 3)))
    return acc


def test_closed_equals_oracle_basis_degree4():
    for el in _basis_monomials(4):
        assert grad_eq(dv.grad_closed(el), dv.grad_oracle(el))


def test_closed_equals_oracle_random():
    rng = random.Random(37)
    for _ in range(30):
        el = _random_algebra_element(rng)
        assert grad_eq(dv.grad_closed(el), dv.grad_oracle(el))


# Both gradients sum their terms through scalars.SumOfProducts, so criterion
# 4 compares two paths that share it.  These references sum with Element
# `*`, `+` and `.scale` only, where every product and partial sum is reduced.

@lru_cache(maxsize=None)
def _ref_oracle_word(word):
    if not word:
        return (al.zero(),) * 4, al.one()
    gen, rest = word[0], word[1:]
    comps_rest, el_rest = _ref_oracle_word(rest)
    L = dv._l_entries(gen)
    comps = []
    for mu in range(4):
        acc = el_rest if GENS[mu] == gen else al.zero()
        for nu in range(4):
            acc = acc + (L[mu][nu] * comps_rest[nu]).scale(sc.q_power(1))
        comps.append(acc)
    return tuple(comps), al.gen_element(gen) * el_rest


def _ref_grad_closed(f):
    nums = [al.zero()] * 4
    for (a, b, c, d, e), coeff in f.terms.items():
        tail = al.monomial(0, 0, c, d, e)
        if a:
            pref = al.monomial(a - 1, b, coeff=coeff * sc.qnum_std(a))
            nums = [n + pref * pi * tail
                    for n, pi in zip(nums, dv._pi_nabla(+1))]
        if b:
            pref = al.monomial(a, b - 1, coeff=coeff * sc.qnum_std(b))
            nums = [n + pref * pi * tail
                    for n, pi in zip(nums, dv._pi_nabla(-1))]
        spatial = dv._spatial_gradient_mono((a, b, c, d, e), coeff)
        for mu, row in enumerate(dv._pi_weighted(a, b)):
            for w, x in zip(row, spatial):
                nums[mu] = nums[mu] + w * x
    return dv.Gradient(tuple(al.Localized(n, 1) for n in nums))


def test_oracle_words_equal_the_reference_recursion():
    words = [()]
    for n in range(1, 5):
        words += itertools.combinations_with_replacement(GENS, n)
    assert len(words) == 70          # every PBW word of length <= 4
    for word in words:
        comps, el = dv._oracle_word(word)
        ref_comps, ref_el = _ref_oracle_word(word)
        assert el == ref_el
        assert all(x == y for x, y in zip(comps, ref_comps)), word


def test_closed_gradient_equals_the_per_product_reference():
    monos = [al.monomial(a, b, c, d, e)
             for a, b, c, d, e in itertools.product(range(5), repeat=5)
             if a + b + c + d + e <= 4 and not (c and e)]
    for el in monos + _basis_monomials(4):
        assert grad_eq(dv.grad_closed(el), _ref_grad_closed(el)), el


def _delta_kept(grad):
    """Number of components with a delta^1 left; checks none can cancel."""
    kept = 0
    for comp in grad.components:
        assert comp.dpow in (0, 1)
        if comp.dpow == 1:
            kept += 1
            with pytest.raises(al.DeltaDivisionError):
                al.div_central(comp.num, al.delta_element())
    return kept


def test_closed_gradient_components_are_reduced():
    # equality of Localized values compares (num, dpow), so every component
    # must come back with no delta left to cancel
    for el in cli._basis_monomials(5):
        grad = dv.grad_closed(el)
        _delta_kept(grad)
        grad.cleared()
    # odd powers of xi+- lie outside the algebra and keep a delta^1
    for el in (al.monomial(a=1), al.monomial(b=1, c=1),
               al.monomial(a=2, b=1, d=1, e=1)):
        assert _delta_kept(dv.grad_closed(el))


def test_closed_gradient_caches_match_projectors():
    pp, pm = mx.projectors()
    for a in range(4):
        for b in range(4):
            ref = pp.scale(sc.q_power(2 * a)) + pm.scale(sc.q_power(2 * b))
            got = dv._pi_weighted(a, b)
            for i in range(4):
                for j in range(4):
                    assert al.Localized(got[i][j], 1) == ref.entries[i][j]
    for sign in (+1, -1):
        for num, ref in zip(dv._pi_nabla(sign), mx.pi_nabla_x0(sign)):
            assert al.Localized(num, 1) == ref


def test_time_derivative_formula():
    # x^2 (nabla x0^n)^mu = ([2]/(q lambda)) A x^mu + q^(n-1) S_n x^2 d^mu_0
    # with A = q^(n-1) S_{n+1} - q^n x0 S_n - q^(-1) x0^n; the form
    # follows from the characteristic identity and reduces to the unit
    # vector at n = 1.
    xsq = al.xsq_element()
    for n in range(1, 6):
        got = dv.grad_closed(al.x0_element() ** n).cleared()
        s_n = mx.chebyshev_s(n)
        bracket = mx.chebyshev_s(n + 1).scale(sc.q_power(n - 1)) - \
            (s_n * al.x0_element()).scale(sc.q_power(n)) - \
            (al.x0_element() ** n).scale(sc.q_power(-1))
        bracket = bracket.scale(two * (sc.q_power(1) * lam).inverse())
        for mu in range(4):
            lhs = xsq * got[mu]
            rhs = bracket * mx.x_upper(mu)
            if mu == 0:
                rhs = rhs + (s_n * xsq).scale(sc.q_power(n - 1))
            assert lhs == rhs, (n, mu)
        # A itself is divisible by x^2, so the formula is polynomial
        al.div_central(bracket, xsq)


def test_lquotient5_identity():
    # nabla f = sum_pm (f(q^2 x^2, q tau_pm) - f)/(q tau_pm - x0) Pi_pm nabla x0
    # where the quotients are exact central divisions by (q^2-1) xi_pm.
    rng = random.Random(41)
    qsq_m1 = sc.q_power(2) - sc.ONE
    for _ in range(5):
        f = al.zero()
        for _ in range(3):
            f = f + (al.xsq_element() ** rng.randint(0, 2) *
                     al.x0_element() ** rng.randint(0, 2)).scale(
                sc.integer(rng.randint(-2, 2)))
        got = dv.grad_closed(f)
        want = [mx._as_localized(al.zero())] * 4
        for sign, shift in ((+1, dict(plus=1)), ((-1), dict(minus=1))):
            diff = dv.subst_xi_scale(f, **shift) - f
            div = al.monomial(a=1) if sign > 0 else al.monomial(b=1)
            quot = al.div_central(diff, div).scale(qsq_m1.inverse())
            vec = mx.pi_nabla_x0(sign)
            for mu in range(4):
                want[mu] = want[mu] + quot * vec[mu]
        assert all(a == b for a, b in zip(got.components, want))


def test_lquotient6_is_jackson():
    # the substitution quotient equals the Jackson derivative in xi+-
    rng = random.Random(43)
    qsq_m1 = sc.q_power(2) - sc.ONE
    for _ in range(5):
        f = al.xsq_element() ** rng.randint(0, 2) * \
            al.x0_element() ** rng.randint(0, 3)
        diff = dv.subst_xi_scale(f, plus=1) - f
        quot = al.div_central(diff, al.monomial(a=1)).scale(qsq_m1.inverse())
        assert quot == dv.jackson_element(f, "xip")


def test_tie_break_for_pure_lightcone_words():
    # words with no x+- factor belong to both ordered families; the two
    # chain-rule instantiations coincide
    for j, k in itertools.product(range(3), range(3)):
        el = al.x0_element() ** j * al.monomial(d=k)
        minus_family = dv.grad_closed(el)
        # force the B+ reading by writing the word as x+^0 x30^k
        plus_el = al.x0_element() ** j * al.monomial(c=0, d=k)
        plus_family = dv.grad_closed(plus_el)
        assert grad_eq(minus_family, plus_family)


def test_delta_correction_vanishes_classically():
    rng = random.Random(47)
    for _ in range(4):
        f = _random_algebra_element(rng, 3)
        corr = dv.delta_correction(f)
        for row in corr.entries:
            for entry in row:
                for coeff in entry.num.terms.values():
                    assert coeff.subst_classical().is_zero()


def test_delta_correction_of_central_is_offdiag_free_of_spatial():
    # on purely central input the correction is built from central shifts
    f = al.xsq_element() + al.x0_element() ** 2
    corr = dv.delta_correction(f)
    pp, pm = mx.projectors()
    want = pp * (dv.subst_xi_scale(f, plus=1) - f) + \
        pm * (dv.subst_xi_scale(f, minus=1) - f)
    assert corr == want


# -- ordered polynomials -----------------------------------------------------------

def test_jackson_ordered_poly():
    f = dv.OrderedPoly(("x30",), {(3,): sc.ONE})
    df = f.jackson("x30")
    assert df.terms == {(2,): sc.qnum_std(3)}
    const = dv.OrderedPoly(("x30",), {(0,): sc.two_q()})
    assert const.jackson("x30").terms == {}


def test_jackson_depends_on_ordering():
    # the commutation relation x30 x+ = q^2 x+ x30 holds in the algebra,
    # but the partial Jackson derivative of the difference is not zero
    f = dv.OrderedPoly(("x30", "xp"), {(1, 1): sc.ONE})
    g = dv.OrderedPoly(("xp", "x30"), {(1, 1): sc.q_power(2)})
    assert (f.to_element() - g.to_element()).is_zero()
    df = f.jackson("xp")
    dg = g.jackson("xp")
    residual = df.to_element() - dg.to_element()
    assert residual == al.monomial(d=1, coeff=sc.ONE - sc.q_power(2))
    assert not residual.is_zero()


def test_jackson_unknown_variable():
    f = dv.OrderedPoly(("x30",), {(1,): sc.ONE})
    with pytest.raises(KeyError):
        f.jackson("xp")


def test_jackson_element_single_step():
    f = al.monomial(c=1, d=1)    # x+ x30
    assert dv.jackson_element(f, "xp") == al.monomial(d=1)


# -- metric ops -------------------------------------------------------------------

def test_raise_lower_round_trip():
    rng = random.Random(51)
    for _ in range(5):
        f = _random_algebra_element(rng, 3)
        grad = dv.grad_oracle(f)
        assert grad_eq(dv.raise_index(dv.lower_index(grad)), grad)
        assert grad_eq(dv.lower_index(dv.raise_index(grad)), grad)


def test_dalembert_of_one_and_xsq():
    assert dv.contract_d_alembert(al.one()).is_zero()
    # box x^2 is the scalar q^-1 [2]^3 (the q-trace of the metric times
    # the four-length coefficient); frozen from the oracle computation
    got = dv.contract_d_alembert(al.xsq_element(), grad_fn=dv.grad_oracle)
    want = al.one().scale(sc.q_power(-1) * two ** 3)
    assert got == want
    # closed-form route agrees
    assert dv.contract_d_alembert(al.xsq_element()) == want


def test_classical_limit_of_gradient():
    # q = 1 turns grad_closed into the commutative partial derivative
    for n0, nm, np_, n3 in itertools.product(range(3), repeat=4):
        if n0 + nm + np_ + n3 > 3:
            continue
        el = al.pbw_to_element({(n0, nm, np_, n3): sc.ONE})
        got = dv.grad_closed(el).cleared()
        exps = (n0, nm, np_, n3)
        for mu in range(4):
            classical = {}
            if exps[mu]:
                key = list(exps)
                key[mu] -= 1
                classical = {tuple(key): Fraction(exps[mu])}
            pbw = {}
            for kk, v in al.to_pbw_x(got[mu]).items():
                c = v.subst_classical().as_fraction()
                if c:
                    pbw[kk] = pbw.get(kk, Fraction(0)) + c
            pbw = {k: v for k, v in pbw.items() if v}
            assert pbw == classical, (exps, mu)
