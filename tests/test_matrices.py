import random

import pytest

from qmink import algebra as al
from qmink import matrices as mx
from qmink import scalars as sc

lam = sc.lambda_()
two = sc.two_q()


def loc(el):
    return mx._as_localized(el)


def test_boost_matrix_x30_is_diagonal():
    m = mx.b_matrix("x30")
    assert m.entries[0][0] == loc(al.monomial(d=1, coeff=sc.q_power(-1)))
    assert m.entries[1][1] == loc(al.monomial(d=1, coeff=sc.q_power(1)))
    assert m.entries[0][1].is_zero() and m.entries[1][0].is_zero()


def test_boost_matrix_xp_lower_triangular():
    m = mx.b_matrix("xp")
    assert m.entries[0][1].is_zero()
    assert m.entries[0][0] == loc(al.gen_element("xp"))


def test_l_x0_key_entries():
    L = mx.l_matrix("x0")
    exp00 = al.x0_element().scale(sc.qnum_sym(4) * (two ** 2).inverse())
    assert L.entries[0][0] == loc(exp00)
    coeff = sc.q_power(1) * lam * two.inverse()
    assert L.entries[0][1] == loc(al.gen_element("xm").scale(coeff))
    assert L.entries[0][2] == loc(al.gen_element("xp").scale(coeff))
    assert L.entries[0][3] == loc(al.gen_element("x3").scale(coeff))


def test_l_x0_column_zero_formula():
    # (L_{x0} nabla x0)^mu = q x0 d^mu_0 - lambda/(q [2]) x^mu
    L = mx.l_matrix("x0")
    coeff = lam * (sc.q_power(1) * two).inverse()
    for mu in range(4):
        want = -mx.x_upper(mu).scale(coeff)
        if mu == 0:
            want = want + al.x0_element().scale(sc.q_power(1))
        assert L.entries[mu][0] == loc(want), mu


def test_l_x0_explicit_golden():
    """Block-form construction reproduces the explicit matrix entrywise."""
    assert mx.l_matrix("x0") == mx.l_x0_explicit()
    assert mx.char_residual(mx.l_x0_explicit()).is_zero()


def test_char_residual_detects_sign_flips():
    """Flipping the sign of a single linear entry breaks the
    characteristic identity (the construction is rigid)."""
    base = mx.l_x0_explicit()
    rows = [list(r) for r in base.entries]
    rows[2][0] = -rows[2][0]
    flipped = mx.Matrix(rows)
    assert not mx.char_residual(flipped).is_zero()


def test_block_form_consistency():
    # four-vector L equals the basis-changed block form, per construction;
    # check against an independently assembled spinor matrix for x0
    spin = mx.l_matrix_spinor("x0")
    b = mx.b_matrix("x0")
    for bi in range(2):
        for i in range(2):
            for bj in range(2):
                for j in range(2):
                    want = b.entries[i][j] if bi == bj else loc(al.zero())
                    assert spin.entries[2 * bi + i][2 * bj + j] == want


def test_scalar_factor_scales_entrywise():
    L = mx.l_matrix("x0")
    c = sc.lambda_() * two.inverse() + sc.q_power(3)
    assert L * c == L.scale(c) == c * L
    assert L * c == L * loc(al.one().scale(c))
    assert (L * c)[0, 0] == L[0, 0] * c


def test_char_checks():
    assert mx.char_check_l0() is True
    assert mx.char_check_b0() is True


def test_char_check_negative_control():
    perturbed = mx.l_matrix("x0") + AlgCorner()
    res = mx.char_residual(perturbed)
    assert not res.is_zero()


def AlgCorner():
    rows = [[al.one() if i == j == 0 else al.zero() for j in range(4)]
            for i in range(4)]
    return mx.Matrix(rows)


@pytest.mark.parametrize("alpha", ["x0", "xm", "xp", "x30"])
@pytest.mark.parametrize("n", range(6))
def test_closed_b_powers(alpha, n):
    assert mx.b_pow_closed(alpha, n) == mx.mat_pow_naive(mx.b_matrix(alpha), n)


@pytest.mark.parametrize("alpha", ["x0", "xm", "xp", "x30"])
@pytest.mark.parametrize("n", range(6))
def test_closed_l_powers(alpha, n):
    assert mx.l_pow_closed(alpha, n) == mx.mat_pow_naive(mx.l_matrix(alpha), n)


def test_b_pow_x30_explicit():
    n = 4
    m = mx.b_pow_closed("x30", n)
    assert m.entries[0][0] == loc(al.monomial(d=n, coeff=sc.q_power(-n)))
    assert m.entries[1][1] == loc(al.monomial(d=n, coeff=sc.q_power(n)))


def test_projector_identities():
    pp, pm = mx.projectors()
    eye = mx.identity(4)
    assert pp + pm == eye
    assert (pp * pm).is_zero() and (pm * pp).is_zero()
    assert pp * pp == pp and pm * pm == pm


def test_tau():
    assert mx.tau(+1) == al.monomial(a=1, coeff=sc.q_power(1)) + \
        al.monomial(b=1, coeff=sc.q_power(-1))
    assert mx.tau(+1) + mx.tau(-1) == al.x0_element().scale(two)
    # c = tau+ tau-
    assert mx.tau(+1) * mx.tau(-1) == mx.c_center()


def test_b_squared_minus_c():
    lhs = mx.b_center() ** 2 - mx.c_center()
    rhs = (al.delta_element() ** 2).scale(lam * lam * sc.rational(1, 4))
    assert lhs == rhs


def test_f_of_l0_base_cases():
    assert mx.f_of_l0([sc.ONE]) == mx.identity(4)
    assert mx.f_of_l0([sc.ZERO, sc.ONE]) == mx.l_matrix("x0")
    for n in range(2, 9):
        coeffs = [sc.ZERO] * n + [sc.ONE]
        assert mx.f_of_l0(coeffs) == mx.l_pow_closed("x0", n)


def test_f_of_l0_multiplicative():
    rng = random.Random(21)
    for _ in range(4):
        f = [sc.integer(rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
        g = [sc.integer(rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
        prod = [sc.ZERO] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                prod[i + j] = prod[i + j] + a * b
        assert mx.f_of_l0(prod) == mx.f_of_l0(f) * mx.f_of_l0(g)


def test_f_of_l0_entries_clear_delta():
    m = mx.f_of_l0([sc.ONE, sc.two_q(), sc.lambda_()])
    for row in m.entries:
        for x in row:
            assert x.dpow == 0


def test_l_action_is_multiplicative_on_relation_pairs():
    pairs = [("xm", "xp"), ("xp", "xm"), ("xm", "x3"), ("x3", "xm"),
             ("x3", "xp"), ("xp", "x3"), ("x0", "xm"), ("x3", "x0")]
    for g1, g2 in pairs:
        el = al.gen_element(g1) * al.gen_element(g2)
        assert mx.l_action(el) == mx.l_matrix(g1) * mx.l_matrix(g2), (g1, g2)


def test_l_action_on_lorentz_scalar_is_counit():
    # L acts on the invariant length through the counit: identity * x^2
    got = mx.l_action(al.xsq_element())
    want = mx.identity(4) * mx._as_localized(al.xsq_element())
    assert got == want


def test_eigen_relations():
    def unit(mu):
        return [loc(al.one() if m == mu else al.zero()) for m in range(4)]

    e0, em, ep, e3 = (unit(i) for i in range(4))
    e30 = [a - b for a, b in zip(e3, e0)]

    def scaled(vec, el):
        return [loc(el) * x for x in vec]

    q1, qm1 = sc.q_power(1), sc.q_power(-1)
    cases = [
        ("xm", em, al.gen_element("xm").scale(q1)),
        ("xp", ep, al.gen_element("xp").scale(q1)),
        ("x30", e30, al.gen_element("x30").scale(q1)),
        ("x30", em, al.gen_element("x30").scale(qm1)),
        ("xp", e30, al.gen_element("xp").scale(qm1)),
    ]
    for alpha, vec, val in cases:
        got = mx.l_matrix(alpha).apply(vec)
        want = scaled(vec, val)
        assert all(a == b for a, b in zip(got, want)), alpha


def test_pi_nabla_x0_matches_projector_column():
    pp, pm = mx.projectors()
    e0 = [loc(al.one() if m == 0 else al.zero()) for m in range(4)]
    for sign, P in ((+1, pp), (-1, pm)):
        got = P.apply(e0)
        want = mx.pi_nabla_x0(sign)
        assert all(a == b for a, b in zip(got, want))


def test_chebyshev_s():
    assert mx.chebyshev_s(0).is_zero()
    assert mx.chebyshev_s(1) == al.one()
    assert mx.chebyshev_s(2) == mx.b_center().scale(sc.integer(2))
    # recurrence S_{n+1} = 2b S_n - c S_{n-1}
    for n in range(2, 8):
        lhs = mx.chebyshev_s(n + 1)
        rhs = mx.b_center().scale(sc.integer(2)) * mx.chebyshev_s(n) - \
            mx.c_center() * mx.chebyshev_s(n - 1)
        assert lhs == rhs


@pytest.mark.parametrize("n", range(1, 7))
def test_eval_poly_makes_no_wasted_product(monkeypatch, n):
    calls = []
    mul = al._mul

    def counting_mul(f, g):
        calls.append(1)
        return mul(f, g)

    x = mx.tau(1)
    coeffs = [sc.integer(k - 2) * sc.q_power(k) for k in range(n)]
    want, power = al.zero(), al.one()
    for c in coeffs:
        want = want + power.scale(c)
        power = power * x
    monkeypatch.setattr(al, "_mul", counting_mul)
    got = mx._eval_poly(coeffs, x)
    assert len(calls) <= n - 1
    assert got == want
    assert mx._eval_poly([], x) == al.zero()
