"""The verification suites of `qmink verify` and `qmink char-check`.

Each suite returns a list of `waves.VerifyReport`.  A failing check keeps
in `residual` the first input on which its identity is false (a monomial,
a `(gen, n)` pair or a triple), or else its residual.  Random inputs are
seeded, so every run checks the same ones.
"""

from __future__ import annotations

import random
import time
from itertools import product

from . import scalars as sc
from . import algebra as al
from . import matrices as mx
from . import derivatives as dv
from . import lorentz as lz
from . import waves as wv
from .waves import VerifyReport

__all__ = ["run", "structure", "calculus", "solutions", "characteristic",
           "basis_monomials"]

DEFAULT_MAX_DEGREE = 4


def run(suite, max_degree=DEFAULT_MAX_DEGREE):
    """Run a suite of `qmink verify`, or all three; returns the reports
    and {suite: seconds}."""
    suites = {"structure": structure,
              "calculus": lambda: calculus(max_degree),
              "waves": solutions}
    reports, seconds = [], {}
    for name in suites if suite == "all" else (suite,):
        t0 = time.perf_counter()
        reports += suites[name]()
        seconds[name] = time.perf_counter() - t0
    return reports, seconds


def structure():
    return [VerifyReport(name, ok) for name, ok in lz.verify_structure()]


def characteristic():
    """The characteristic identities; a failure keeps the residual matrix."""
    reports = []
    for name, result in (("L_x0", mx.char_check_l0()),
                         ("B_x0", mx.char_check_b0())):
        ok = result is True
        reports.append(VerifyReport(f"characteristic identity of {name}", ok,
                                    residual=None if ok else result))
    return reports


def calculus(max_degree=DEFAULT_MAX_DEGREE):
    """Calculus identities up to a degree bound."""
    rng = random.Random(20240601)
    gens = [al.gen_element(g) for g in ("x0", "xm", "xp", "x3")]
    reports = [_first(
        "generator derivatives d^mu x_nu = delta^mu_nu", gens,
        lambda x: dv.grad_oracle(x).cleared() ==
        tuple(al.one() if y == x else al.zero() for y in gens))]
    reports += characteristic()

    reports.append(_first(
        "closed-form L powers match repeated products",
        [(alpha, n) for alpha in ("x0", "xm", "xp", "x30")
         for n in range(min(max_degree, 4) + 1)],
        lambda an: mx.l_pow_closed(*an) ==
        mx.mat_pow_naive(mx.l_matrix(an[0]), an[1])))

    pp, pm = mx.projectors()
    reports.append(VerifyReport(
        "projector algebra",
        (pp + pm) == mx.identity(4) and (pp * pm).is_zero()
        and (pm * pp).is_zero() and pp * pp == pp and pm * pm == pm))

    coeff = sc.q_power(-1) * sc.two_q()
    got = dv.grad_closed(al.xsq_element()).cleared()
    reports.append(VerifyReport(
        "four-length derivative",
        all(got[mu] == mx.x_upper(mu).scale(coeff) for mu in range(4))))

    def closed_is_oracle(el):
        return dv.grad_closed(el) == dv.grad_oracle(el)

    reports.append(_first(
        f"closed gradient = oracle (degree <= {max_degree})",
        basis_monomials(max_degree), closed_is_oracle))
    reports.append(_first(
        "closed gradient = oracle (50 random)",
        (_random_element(rng, max_degree) for _ in range(50)),
        closed_is_oracle))
    reports.append(_first(
        "associativity of normal ordering",
        (tuple(_random_monomial(rng, max_degree) for _ in range(3))
         for _ in range(25)),
        lambda fgh: (fgh[0] * fgh[1]) * fgh[2] == fgh[0] * (fgh[1] * fgh[2])))
    return reports


def solutions():
    """The light cone and rest states against their wave equations."""
    psi = wv.massless_state(n_max=12)
    reports = [wv.verify_massless(psi)._replace(
        name=f"massless state (N={psi.truncation})")]
    phi = wv.massive_rest_state(n_max=10)
    reports.append(wv.verify_massive(phi)._replace(
        name=f"massive rest state (N={phi.truncation})"))
    reports.append(wv.verify_klein_gordon(phi))
    reports.append(_first(
        "square root drops out of the rest state", phi.slices,
        lambda el: not any(k[1] % 2 for k in wv.central_alpha_expansion(el))))
    return reports


def basis_monomials(max_degree):
    """Basis monomials of both ordered families up to a degree bound."""
    out = []
    degrees = range(max_degree + 1)
    for i, j, kk, l in product(degrees[:max_degree // 2 + 1], degrees,
                               degrees, degrees):
        if 2 * i + j + kk + l <= max_degree:
            head = al.xsq_element() ** i * al.x0_element() ** j
            out.append(head * al.monomial(d=kk, e=l))
            if l:
                out.append(head * al.monomial(c=l) * al.monomial(d=kk))
    return out


def _first(name, inputs, holds):
    """Report on `holds` over the inputs; a failure keeps the first input
    on which it is false."""
    for x in inputs:
        if not holds(x):
            return VerifyReport(name, False, residual=x)
    return VerifyReport(name, True)


def _random_monomial(rng, max_degree):
    while True:
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        c, d, e = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        if not (c and e) and a + b + c + d + e <= max_degree:
            return al.monomial(a, b, c, d, e)


def _random_element(rng, max_degree):
    """Sum of three random multiples of ordered basis monomials."""
    terms = []
    for _ in range(3):
        coeff = sc.integer(rng.randint(-4, 4)) * sc.q_power(rng.randint(-2, 2))
        while True:
            i, j = rng.randint(0, 2), rng.randint(0, 2)
            kk, l = rng.randint(0, 2), rng.randint(0, 2)
            if 2 * i + j + kk + l <= max_degree:
                break
        head = al.xsq_element() ** i * al.x0_element() ** j
        tail = al.monomial(d=kk, e=l) if rng.random() < 0.5 \
            else al.monomial(c=l) * al.monomial(d=kk)
        terms.append((head * tail).scale(coeff))
    return al.add_all(terms)
