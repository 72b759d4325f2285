"""Acceptance criteria, one test per criterion, all exact.

Each test prints a single pass/fail line (run with -s to see them inline).
Degree bounds and counts are fixed here; nothing is left to calibration.
"""

import itertools
import random
from fractions import Fraction

from qmink import algebra as al
from qmink import derivatives as dv
from qmink import lorentz as lz
from qmink import matrices as mx
from qmink import scalars as sc
from qmink import waves as wv
from qmink.verify import basis_monomials


def _report(num, desc, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_generator_derivatives():
    ok = True
    for nu, gen in enumerate(("x0", "xm", "xp", "x3")):
        got = dv.grad_oracle(al.gen_element(gen)).cleared()
        for mu in range(4):
            want = al.one() if mu == nu else al.zero()
            ok = ok and got[mu] == want
    _report(1, "d^mu x_nu = delta^mu_nu for all 16 index pairs", ok)


def test_criterion_02_characteristic_identities():
    ok = mx.char_check_l0() is True and mx.char_check_b0() is True
    _report(2, "characteristic identities of L_x0 (4x4) and B_x0 (2x2)", ok)


def test_criterion_03_closed_form_powers():
    ok = True
    for alpha in ("x0", "xm", "xp", "x30"):
        mat = mx.l_matrix(alpha)
        power = mx.identity(4)
        for n in range(9):
            if mx.l_pow_closed(alpha, n) != power:
                ok = False
                break
            power = power * mat
    _report(3, "closed-form L powers equal repeated products, n <= 8", ok)


def _random_combination(rng, max_degree, nterms=3):
    acc = al.zero()
    for _ in range(nterms):
        while True:
            i, j = rng.randint(0, 2), rng.randint(0, 3)
            k, l = rng.randint(0, 3), rng.randint(0, 3)
            if 2 * i + j + k + l <= max_degree:
                break
        head = al.xsq_element() ** i * al.x0_element() ** j
        tail = al.monomial(d=k, e=l) if rng.random() < 0.5 \
            else al.monomial(c=l) * al.monomial(d=k)
        coeff = sc.integer(rng.randint(-4, 4)) * \
            sc.q_power(rng.randint(-2, 2))
        acc = acc + (head * tail).scale(coeff)
    return acc


def test_criterion_04_oracle_equivalence():
    ok = True
    for el in basis_monomials(6):
        if dv.grad_closed(el) != dv.grad_oracle(el):
            ok = False
            break
    rng = random.Random(20240604)
    if ok:
        for _ in range(500):
            el = _random_combination(rng, 5)
            if dv.grad_closed(el) != dv.grad_oracle(el):
                ok = False
                break
    _report(4, "closed gradient = recursion oracle "
            "(all basis monomials deg <= 6, 500 random deg <= 5)", ok)


def test_criterion_05_four_length_derivative():
    coeff = sc.q_power(-1) * sc.two_q()
    got = dv.grad_closed(al.xsq_element()).cleared()
    ok = all(got[mu] == mx.x_upper(mu).scale(coeff) for mu in range(4))
    _report(5, "nabla x^2 = q^-1 [2] x^mu", ok)


def test_criterion_06_projector_algebra():
    pp, pm = mx.projectors()
    eye = mx.identity(4)
    ok = (pp + pm == eye and (pp * pm).is_zero() and (pm * pp).is_zero()
          and pp * pp == pp and pm * pm == pm)
    rng = random.Random(20240606)
    for _ in range(8):
        f = [sc.integer(rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
        g = [sc.integer(rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
        prod = [sc.ZERO] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                prod[i + j] = prod[i + j] + a * b
        ok = ok and mx.f_of_l0(prod) == mx.f_of_l0(f) * mx.f_of_l0(g)
    _report(6, "projector idempotents and f(L_x0) multiplicativity", ok)


def test_criterion_07_rmatrix_identities():
    ok = lz.yang_baxter_holds()
    ok = ok and lz.rr_relation_residual().is_zero()
    ok = ok and all(res.is_zero() for _, res in lz.xx_rel2_residuals())
    _report(7, "Yang-Baxter, (1+q Rhat_II)(1-Rhat_I) = 0, and the "
            "R_I-form of the relations", ok)


def test_criterion_08_pbw_confluence():
    rng = random.Random(20240608)

    def mono():
        while True:
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            c, d, e = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
            if c and e:
                continue
            if a + b + c + d + e <= 5:
                return al.monomial(a, b, c, d, e)

    ok = True
    for _ in range(1000):
        f, g, h = mono(), mono(), mono()
        if (f * g) * h != f * (g * h):
            ok = False
            break
    _report(8, "associativity of normal ordering on 1000 random triples", ok)


def test_criterion_09_massless_solution():
    psi = wv.massless_state(n_max=12)
    report = wv.verify_massless(psi)
    ok = report.ok and report.degrees_checked == 11
    _report(9, "massless light-cone state solves all four eigenvalue "
            "equations (N = 12)", ok)


def test_criterion_10_massive_rest_state():
    phi = wv.massive_rest_state(n_max=10)
    r1 = wv.verify_massive(phi)
    r2 = wv.verify_klein_gordon(phi)
    ok = r1.ok and r1.degrees_checked == 9 and r2.ok and \
        r2.degrees_checked == 8
    _report(10, "massive rest state: eigenvalue equations (deg <= 9) and "
            "Klein-Gordon (deg <= 8)", ok)


def test_criterion_11_classical_limit():
    ok = True
    for exps in itertools.product(range(5), repeat=4):
        if sum(exps) > 4:
            continue
        el = al.pbw_to_element({exps: sc.ONE})
        got = dv.grad_closed(el).cleared()
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
            if {k: v for k, v in pbw.items() if v} != classical:
                ok = False
    _report(11, "q = 1 limit of the closed gradient is the commutative "
            "derivative (all PBW monomials deg <= 4)", ok)


def test_criterion_12_square_root_cancellation():
    phi = wv.massive_rest_state(n_max=10)
    ok = True
    for d in range(11):
        expansion = wv.central_alpha_expansion(phi.slice(d))
        if any(alpha_exp % 2 for _, alpha_exp in expansion):
            ok = False
    _report(12, "square root drops out of the degree <= 10 rest state", ok)
