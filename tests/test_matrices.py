import hashlib
import operator
import random
from functools import reduce

import pytest

from qmink import algebra as al
from qmink import derivatives as dv
from qmink import lorentz as lz
from qmink import matrices as mx
from qmink import scalars as sc

lam = sc.lambda_()
two = sc.two_q()


def test_boost_matrix_x30_is_diagonal():
    m = mx.b_matrix("x30")
    assert m.entries[0][0] == al.monomial(d=1, coeff=sc.q_power(-1))
    assert m.entries[1][1] == al.monomial(d=1, coeff=sc.q_power(1))
    assert m.entries[0][1].is_zero() and m.entries[1][0].is_zero()


def test_boost_matrix_xp_lower_triangular():
    m = mx.b_matrix("xp")
    assert m.entries[0][1].is_zero()
    assert m.entries[0][0] == al.gen_element("xp")


def test_l_x0_key_entries():
    L = mx.l_matrix("x0")
    exp00 = al.x0_element().scale(sc.qnum_sym(4) * (two ** 2).inverse())
    assert L.entries[0][0] == exp00
    coeff = sc.q_power(1) * lam * two.inverse()
    assert L.entries[0][1] == al.gen_element("xm").scale(coeff)
    assert L.entries[0][2] == al.gen_element("xp").scale(coeff)
    assert L.entries[0][3] == al.gen_element("x3").scale(coeff)


def test_l_x0_column_zero_formula():
    # (L_{x0} nabla x0)^mu = q x0 d^mu_0 - lambda/(q [2]) x^mu
    L = mx.l_matrix("x0")
    coeff = lam * (sc.q_power(1) * two).inverse()
    for mu in range(4):
        want = -mx.x_upper(mu).scale(coeff)
        if mu == 0:
            want = want + al.x0_element().scale(sc.q_power(1))
        assert L.entries[mu][0] == want, mu


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
                    want = b.entries[i][j] if bi == bj else al.zero()
                    assert spin.entries[2 * bi + i][2 * bj + j] == want


def test_scalar_factor_scales_entrywise():
    L = mx.l_matrix("x0")
    c = sc.lambda_() * two.inverse() + sc.q_power(3)
    assert L * c == L.scale(c) == c * L
    assert L * c == L * al.one().scale(c)
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
    assert m.entries[0][0] == al.monomial(d=n, coeff=sc.q_power(-n))
    assert m.entries[1][1] == al.monomial(d=n, coeff=sc.q_power(n))


def test_projector_identities():
    pp, pm = mx.projectors()
    eye = mx.identity(4)
    assert pp + pm == eye
    assert (pp * pm).is_zero() and (pm * pp).is_zero()
    assert pp * pp == pp and pm * pm == pm


def _localized_entries(wp, wm):
    """The entries of Pi+ wp + Pi- wm, each divided by delta on its own."""
    return [[al.Localized(x, 1) for x in row]
            for row in mx.pi_weighted(wp, wm).entries]


def test_pi_minus_is_one_minus_pi_plus(monkeypatch):
    calls = []
    div = al.div_central

    def counting(*args):
        calls.append(1)
        return div(*args)

    def count(build):
        del calls[:]
        out = build()
        return out, len(calls)

    monkeypatch.setattr(al, "div_central", counting)
    (pp, pm), fast = count(mx.projectors)
    want, slow = count(lambda: [_localized_entries(sc.ONE, sc.ZERO),
                                _localized_entries(sc.ZERO, sc.ONE)])
    assert fast < slow
    for i in range(4):
        for j in range(4):
            for got, entry in ((pp, want[0][i][j]), (pm, want[1][i][j])):
                assert got[i, j].dpow == entry.dpow
                assert got[i, j].num == entry.num


# sha256 of the repr of the functions of L_x0 read from l0_minus_b, pinned
# from their earlier entry-by-entry construction.  The closed-gradient
# weights and the projectors share that matrix, so comparing them with each
# other no longer checks two independent constructions.
@pytest.mark.parametrize("build, digest", [
    (lambda: mx.projectors()[0],
     "59dd79440ebe11edf43e0297d0339ad897e8f9deb44efc559337db669ada16d9"),
    (lambda: mx.projectors()[1],
     "93736242e0e4927e28f9ecf7232f102db7def2de72ad3c3e13ad12433b298b68"),
    (lambda: mx.f_of_l0([sc.integer(c) for c in (2, -1, 3, 1)]),
     "dd86845b309e58d247e9ddcf365e23d04c56ccdc1284f77594ad47dd6fd019de"),
    (lambda: [dv._pi_weighted(a, b) for a in range(4) for b in range(4)],
     "8e408b8d6bdc39b5170d6c85e898e7e9b6a1999bc8a2eb3097d2397fefc74a95"),
], ids=["pi-plus", "pi-minus", "f-of-l0", "pi-weighted"])
def test_functions_of_l0_are_unchanged(build, digest):
    assert hashlib.sha256(repr(build()).encode()).hexdigest() == digest


# sha256 of the repr of what Matrix products build, computed with a dense
# product over every pair of entries: the four-vector R-matrices (14
# products of 16x16 Scalar matrices) and the L matrices (T M T^-1 of
# Element matrices).
@pytest.mark.parametrize("build, digest", [
    (lz.rmatrices_fourvector,
     "10bc953d7d58603c12ec434d3866936313e0881306533f243182da6050dd740c"),
    (lambda: [mx.l_matrix(g) for g in ("x0", "xm", "xp", "x30", "x3")],
     "580e8072a6614e3b7c91a746a96b347d4be70fdd1c7fceb78a55f7078bb72f55"),
], ids=["r-matrices-fourvector", "l-matrices"])
def test_matrix_products_are_unchanged(build, digest):
    assert hashlib.sha256(repr(build()).encode()).hexdigest() == digest


def _dense_dot(row, col):
    """The product rule of an entry, written densely: the sum of the
    products of the pairs where both entries are nonzero, else row[0]
    col[0]."""
    terms = [a * b for a, b in zip(row, col)
             if not a.is_zero() and not b.is_zero()]
    return reduce(operator.add, terms) if terms else row[0] * col[0]


def _random_scalar(rng):
    return rng.choice([sc.ZERO, sc.ZERO, sc.integer(rng.randint(-3, 3)),
                       sc.q_power(rng.randint(-2, 2)), sc.I, sc.R,
                       lam * sc.integer(rng.randint(1, 3))])


def _random_element(rng):
    if rng.random() < 0.3:
        return al.zero()
    gens = rng.sample(("x0", "xm", "xp", "x3"), rng.randint(1, 2))
    return reduce(operator.mul, map(al.gen_element, gens)).scale(
        sc.q_power(rng.randint(-2, 2)))


def _random_localized(rng):
    return al.Localized(_random_element(rng), rng.randint(0, 2))


_ENTRY_RINGS = {
    "scalar": (_random_scalar, _random_scalar, sc.ZERO),
    "element": (_random_element, _random_element, al.zero()),
    "localized": (_random_localized, _random_localized,
                  al.Localized.of(al.zero())),
    "scalar-element": (_random_scalar, _random_element, sc.ZERO),
}


@pytest.mark.parametrize("ring", list(_ENTRY_RINGS))
def test_matrix_product_matches_the_dense_rule(ring):
    left_entry, right_entry, zero = _ENTRY_RINGS[ring]
    rng = random.Random(f"product-{ring}")
    right_zero = right_entry(rng) * sc.ZERO
    for _ in range(4):
        left = [[left_entry(rng) for _ in range(4)] for _ in range(4)]
        right = [[right_entry(rng) for _ in range(4)] for _ in range(4)]
        left[1] = [zero] * 4                      # a zero row
        for row in right:                         # a zero column
            row[2] = right_zero
        cases = [(left, right), ([[zero] * 4] * 4, right),
                 (left, [[right_zero] * 4] * 4)]
        for a, b in cases:
            got = mx.Matrix(a) * mx.Matrix(b)
            for i, row in enumerate(a):
                for j, col in enumerate(zip(*b)):
                    want = _dense_dot(row, col)
                    assert type(got[i, j]) is type(want), (ring, i, j)
                    assert got[i, j] == want, (ring, i, j)
            col = [row[0] for row in b]
            got = mx.Matrix(a).apply(col)
            for entry, row in zip(got, a):
                want = _dense_dot(row, col)
                assert type(entry) is type(want) and entry == want, ring


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
            assert isinstance(x, al.Element)


def test_l_action_is_multiplicative_on_relation_pairs():
    pairs = [("xm", "xp"), ("xp", "xm"), ("xm", "x3"), ("x3", "xm"),
             ("x3", "xp"), ("xp", "x3"), ("x0", "xm"), ("x3", "x0")]
    for g1, g2 in pairs:
        el = al.gen_element(g1) * al.gen_element(g2)
        assert mx.l_action(el) == mx.l_matrix(g1) * mx.l_matrix(g2), (g1, g2)


def test_l_action_on_lorentz_scalar_is_counit():
    # L acts on the invariant length through the counit: identity * x^2
    got = mx.l_action(al.xsq_element())
    want = mx.identity(4) * al.xsq_element()
    assert got == want


def test_eigen_relations():
    def unit(mu):
        return [al.one() if m == mu else al.zero() for m in range(4)]

    e0, em, ep, e3 = (unit(i) for i in range(4))
    e30 = [a - b for a, b in zip(e3, e0)]

    def scaled(vec, el):
        return [el * x for x in vec]

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
    e0 = [al.one() if m == 0 else al.zero() for m in range(4)]
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


def test_function_products_reduce_each_coefficient_once(monkeypatch):
    a = mx.f_of_l0([sc.integer(n) for n in (-1, -3, 2, -2)])
    b = mx.f_of_l0([sc.integer(n) for n in (-3, 1, 3, 2)])
    want = a * b   # warm the tail tables
    calls = []
    reduce_split = sc._reduce

    def counting(*args):
        calls.append(1)
        return reduce_split(*args)

    monkeypatch.setattr(sc, "_reduce", counting)
    got = a * b
    monkeypatch.setattr(sc, "_reduce", reduce_split)
    coefficients = sum(len(x.terms) for row in got.entries for x in row)
    # with one reduction per group and per partial sum: 1,725 calls
    assert coefficients == 439
    assert len(calls) <= coefficients
    assert got == want


@pytest.mark.parametrize("side", ["left", "right"])
def test_matrix_times_element_skips_zero_entries(monkeypatch, side):
    calls = []
    mul = al._mul

    def counting_mul(f, g):
        calls.append(1)
        return mul(f, g)

    x0 = al.x0_element()
    monkeypatch.setattr(al, "_mul", counting_mul)
    got = mx.identity(4) * x0 if side == "right" else x0 * mx.identity(4)
    assert len(calls) == 4
    assert got == mx.identity(4, x0)


def test_matrix_entries_keep_their_ring():
    def ring(mat):
        return {type(x) for row in mat.entries for x in row}

    for mat in (mx.l_matrix("x0"), mx.l_matrix("xm"),
                mx.l_pow_closed("x0", 3),
                mx.f_of_l0([sc.ONE, sc.two_q(), sc.lambda_()])):
        assert ring(mat) == {al.Element}
    for mat in lz.rmatrices_fourvector():
        assert ring(mat) == {sc.Scalar}
    for mat in mx.projectors():
        assert ring(mat) == {al.Localized}
    # row 1 of E meets only zeros of column 0 of F: the (1, 0) entry of
    # E F has no nonzero pair and is the zero of its ring
    e = mx.Matrix([[al.one(), al.zero()], [al.one(), al.zero()]])
    f = mx.Matrix([[al.zero(), al.one()], [al.gen_element("xp"), al.zero()]])
    assert (e * f)[1, 0] is al.zero()
    s = mx.Matrix([[sc.ZERO, sc.ONE], [sc.ZERO, sc.ZERO]])
    assert (s * s)[0, 1] is sc.ZERO
    pp, _ = mx.projectors()
    zero = (pp * mx.identity(4, sc.ZERO))[0, 0]
    assert isinstance(zero, al.Localized) and zero.is_zero()
