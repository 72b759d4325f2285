"""q-exponential series and momentum eigenstate solutions of the quantum
wave equations, verified degree by degree.

States are truncated series graded by total degree.  The massless light
cone state is e_q(-i k x30); the massive rest state is the product
e_q(i m xi+) e_q(i m xi-) of central series, whose degree-d slice

    (i m)^d  sum_{a+b=d}  xi+^a xi-^b / ([[a]]! [[b]]!)

is symmetric under xi+ <-> xi-, hence a polynomial in x0 and x^2: the
square root drops out of the expansion.

Verification compares degree slices, so the eigenvalue equations are graded
identities; the algebra carries no topology in which the full series could
be summed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import scalars as sc
from . import algebra as al
from . import derivatives as dv

__all__ = [
    "TruncatedSeries", "VerifyReport", "qexp",
    "massless_state", "massive_rest_state",
    "verify_massless", "verify_massive", "verify_klein_gordon",
    "central_alpha_expansion",
]


@dataclass(frozen=True)
class TruncatedSeries:
    """Degree-graded truncation: slices[d] holds the total-degree-d part."""

    slices: tuple
    truncation: int

    def __post_init__(self):
        if len(self.slices) != self.truncation + 1:
            raise ValueError("need one slice per degree 0..N")

    def slice(self, d):
        return self.slices[d] if 0 <= d <= self.truncation else al.zero()

    def __mul__(self, other):
        n = min(self.truncation, other.truncation)
        return TruncatedSeries(
            tuple(al.add_all(self.slice(a) * other.slice(d - a)
                             for a in range(d + 1))
                  for d in range(n + 1)), n)

    def scale(self, c):
        return TruncatedSeries(tuple(s.scale(c) for s in self.slices),
                               self.truncation)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a graded verification."""

    name: str
    ok: bool
    degrees_checked: int
    first_failure: int | None = None
    residual: object = None

    def __str__(self):
        if self.ok:
            return f"{self.name}: pass through degree {self.degrees_checked}"
        return (f"{self.name}: FAIL at degree {self.first_failure} "
                f"(residual {self.residual!r})")


def qexp(z, n_max):
    """Truncated q-exponential sum_{n=0..N} z^n / [[n]]!.

    z must be homogeneous of degree one (a Scalar multiple of a single
    generator); the zero Element gives the constant series 1.  The sum
    starts at n = 0 so that e_q(0) = 1 and the classical limit is exp.
    """
    if n_max < 0:
        raise ValueError("truncation degree must be >= 0")
    if not z.is_zero():
        degs = {sum(key) for key in z.terms}
        if degs != {1} or len(z.terms) != 1:
            raise ValueError("q-exponential argument must be a scalar "
                             "multiple of a single degree-one generator")
    slices = [al.one()]
    power = al.one()
    for n in range(1, n_max + 1):
        power = power * z
        slices.append(power.scale(sc.qfactorial_std(n).inverse()))
    return TruncatedSeries(tuple(slices), n_max)


def massless_state(k=None, n_max=12):
    """The light cone state e_q(-i k x30), truncated at n_max."""
    if k is None:
        k = sc.K
    z = al.monomial(d=1, coeff=-sc.I * k)
    return qexp(z, n_max)


def massive_rest_state(m=None, n_max=10):
    """The rest state e_q(i m xi+) e_q(i m xi-), truncated at n_max.

    Both factors are central, so the product order is immaterial."""
    if m is None:
        m = sc.M
    plus = qexp(al.monomial(a=1, coeff=sc.I * m), n_max)
    minus = qexp(al.monomial(b=1, coeff=sc.I * m), n_max)
    return plus * minus


def _graded_gradient_check(name, series, expected, n_max=None,
                           grad_fn=dv.grad_closed):
    """Check grad(slice_d)^mu == expected(mu, slice_{d-1}) for all d."""
    n = series.truncation if n_max is None else min(n_max, series.truncation)
    for d in range(n + 1):
        got = grad_fn(series.slice(d)).cleared()
        prev = series.slice(d - 1) if d else al.zero()
        for mu in range(4):
            want = expected(mu, prev)
            if got[mu] != want:
                return VerifyReport(name, False, n, first_failure=d,
                                    residual=got[mu] - want)
    return VerifyReport(name, True, n - 1 if n else 0)


def verify_massless(series, k=None, n_max=None):
    """All four eigenvalue equations of the light cone state:
    d^0 psi = i k psi, d^3 psi = -i k psi, d^+- psi = 0."""
    ik = sc.I * (sc.K if k is None else k)

    def expected(mu, prev):
        if mu == 0:
            return prev.scale(ik)
        if mu == 3:
            return prev.scale(-ik)
        return al.zero()

    return _graded_gradient_check("massless eigenvalue equations",
                                  series, expected, n_max)


def verify_massive(series, m=None, n_max=None):
    """Rest state equations: d^0 psi = i m psi, spatial derivatives zero."""
    im = sc.I * (sc.M if m is None else m)

    def expected(mu, prev):
        return prev.scale(im) if mu == 0 else al.zero()

    return _graded_gradient_check("massive eigenvalue equations",
                                  series, expected, n_max)


def verify_klein_gordon(series, m=None, n_max=None):
    """d_mu d^mu psi = -m^2 psi, checked on degree slices."""
    if m is None:
        m = sc.M
    msq = -(m * m)
    n = series.truncation if n_max is None else min(n_max, series.truncation)
    name = "quantum Klein-Gordon equation"
    for d in range(n + 1):
        box = dv.contract_d_alembert(series.slice(d))
        want = series.slice(d - 2).scale(msq) if d >= 2 else al.zero()
        if box != want:
            return VerifyReport(name, False, n, first_failure=d,
                                residual=box - want)
    return VerifyReport(name, True, max(n - 2, 0))


def central_alpha_expansion(el):
    """Expand a central Element through xi+- = (x0 +- alpha)/2.

    Returns a dict {(x0 exponent, alpha exponent): Scalar} without reducing
    alpha^2, so parity of the square root is visible."""
    from math import comb
    half = sc.rational(1, 2)
    out = {}
    for (a, b, c, d, e), coeff in el.terms.items():
        if c or d or e:
            raise ValueError("alpha expansion applies to central elements")
        base = coeff * half ** (a + b)
        for u in range(a + 1):
            for v in range(b + 1):
                sign = (-1) ** (b - v)
                al._acc(out, (u + v, (a - u) + (b - v)),
                        base * sc.integer(comb(a, u) * comb(b, v) * sign))
    return out
