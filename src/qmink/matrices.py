"""The one matrix type of qmink and the algebra-valued matrices built
from it: boost and L matrices, closed-form powers, the characteristic
identity of L_{x0}, spectral projectors and functions of L_{x0}.

`Matrix` is a square matrix over a ring, in the sense of Faddeev,
Reshetikhin and Takhtajan, and each entry stays in its own ring: the
coefficient field (`Scalar` entries; the R-matrices of `qmink.lorentz`,
the basis change), the algebra (`Element` entries; B, L, their powers and
f(L_{x0})) or, only where delta is divided, the delta-localized algebra
(`Localized` entries; the projectors).

Four-vector indices are ordered (0, -, +, 3).  The spinor-pair basis is
ordered (--, -+, +-, ++); the basis change is the coordinate relation

    x_{--} = [2]^(1/2) x-,           x_{-+} = q^(1/2) (x3 - x0),
    x_{+-} = q^(-1/2) x3 + q^(3/2) x0,  x_{++} = [2]^(1/2) x+,

and matrices transform by conjugation with the transpose of that
coefficient matrix.  The explicit four-vector L_{x0} produced this way
is pinned entrywise in the tests and validated against the derivative
calculus (characteristic identity, eigen relations, recursion).

L_{x0} satisfies L^2 - [2] x0 L + c = 0 with central roots tau+-, and
tau+ - tau- = lambda delta.  By Sylvester's formula for two eigenvalues,
f(L_{x0}) = D_f (L_{x0} - b) + A_f (`l0_minus_b`) with the central divided
difference D_f = (f(tau+) - f(tau-))/(tau+ - tau-) and the mean A_f =
(f(tau+) + f(tau-))/2; so Pi+- = 1/2 +- (L_{x0} - b)/(lambda delta), and
delta (Pi+ w+ + Pi- w-) = ((w+ - w-)/lambda)(L_{x0} - b) + ((w+ + w-)/2) delta
is delta-free (`pi_weighted`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul

from . import scalars as sc
from .scalars import Scalar, ONE, ZERO
from . import algebra as al
from .algebra import Element, Localized

__all__ = [
    "Matrix", "identity", "FOURVEC_INDEX",
    "b_matrix", "l_matrix", "l_matrix_spinor", "basis_change_matrix",
    "mat_pow_naive", "b_pow_closed", "l_pow_closed",
    "char_check_l0", "char_check_b0", "char_residual",
    "b_center", "c_center", "tau", "l0_minus_b", "pi_weighted",
    "projectors", "f_of_l0",
    "chebyshev_s", "pi_nabla_x0", "x_upper", "eta_upper", "eta_lower",
]

FOURVEC_INDEX = ("0", "-", "+", "3")


class Matrix:
    """Square matrix over Scalar, Element or Localized entries (immutable).

    Entries are kept as given; arithmetic is that of the entries, so the
    product of a Scalar and an Element matrix is an Element matrix, and a
    Localized entry makes a product entry Localized.
    """

    __slots__ = ("entries",)
    __hash__ = None

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @property
    def dim(self):
        return len(self.entries)

    def __getitem__(self, ij):
        """M[i, j] is an entry, M[i] a row."""
        if isinstance(ij, tuple):
            return self.entries[ij[0]][ij[1]]
        return self.entries[ij]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.dim == other.dim and all(
            a == b for ra, rb in zip(self.entries, other.entries)
            for a, b in zip(ra, rb))

    def __add__(self, other):
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix([[-x for x in row] for row in self.entries])

    def __mul__(self, other):
        """M * N; M * x multiplies every entry by x on the right."""
        if isinstance(other, Matrix):
            cols = [_support(col) for col in zip(*other.entries)]
            return Matrix([[_dot(row, col) for col in cols]
                           for row in map(_support, self.entries)])
        return self.scale(other)

    def __rmul__(self, other):
        return Matrix([[other * x for x in row] for row in self.entries])

    def scale(self, c):
        return Matrix([[x * c for x in row] for row in self.entries])

    def apply(self, vec):
        """Matrix-vector product."""
        vec = _support(vec)
        return [_dot(_support(row), vec) for row in self.entries]

    def kron(self, other):
        """Kronecker product: entry (i m + k, j m + l) is M[i, j] N[k, l]."""
        return Matrix([[a * b for a in ra for b in rb]
                       for ra in self.entries for rb in other.entries])

    def inverse(self):
        """Gauss-Jordan inverse of a Scalar matrix; ZeroDivisionError if
        it is singular."""
        n = self.dim
        work = [list(row) + [ONE if i == j else ZERO for j in range(n)]
                for i, row in enumerate(self.entries)]
        for col in range(n):
            piv = next((r for r in range(col, n)
                        if not work[r][col].is_zero()), None)
            if piv is None:
                raise ZeroDivisionError("singular matrix")
            work[col], work[piv] = work[piv], work[col]
            inv = work[col][col].inverse()
            work[col] = [x * inv for x in work[col]]
            for r in range(n):
                if r != col and not work[r][col].is_zero():
                    f = work[r][col]
                    work[r] = [x - f * y for x, y in zip(work[r], work[col])]
        return Matrix([row[n:] for row in work])

    def commutator(self, other):
        return self * other - other * self

    def is_zero(self):
        return all(x.is_zero() for row in self.entries for x in row)

    def __repr__(self):
        rows = []
        for row in self.entries:
            rows.append("[" + ", ".join(repr(x) for x in row) + "]")
        return "Matrix([\n  " + ",\n  ".join(rows) + "\n])"


def _support(vec):
    """(vec[0], {t: vec[t] nonzero}): a row or column as `_dot` reads it."""
    return vec[0], {t: x for t, x in enumerate(vec) if not x.is_zero()}


def _dot(row, col):
    """Sum of the products row[t] col[t] over the t where both are nonzero,
    row and col as `_support` gives them; row[0] col[0], the zero of their
    ring, when there is none.

    A sum of two or more products is reduced once.  Over Localized, the
    numerators are summed over the largest delta power of the products and
    divided by delta once."""
    (row0, row), (col0, col) = row, col
    pairs = [(a, col[t]) for t, a in row.items() if t in col]
    if len(pairs) < 2:
        return pairs[0][0] * pairs[0][1] if pairs else row0 * col0
    acc = sc.SumOfProducts()
    if all(isinstance(x, Scalar) for pair in pairs for x in pair):
        for a, b in pairs:
            acc.add(0, a, b)
        return acc.result().get(0, ZERO)
    localized = any(isinstance(x, Localized) for pair in pairs for x in pair)
    pairs = [(_num_dpow(a), _num_dpow(b)) for a, b in pairs]
    n = max(da + db for (_, da), (_, db) in pairs)
    for (a, da), (b, db) in pairs:
        k = n - da - db
        al.mul_into(acc, a * al.delta_element() ** k if k else a, b)
    num = Element(acc.result(), _copy=False)
    return Localized(num, n) if localized else num


def _num_dpow(x):
    """x as (Element numerator, power of delta below it)."""
    if isinstance(x, Localized):
        return x.num, x.dpow
    return (x, 0) if isinstance(x, Element) else (al.one().scale(x), 0)


def identity(dim, one=al.one()):
    """The unit matrix over the ring of `one`: Element by default, Scalar
    for identity(dim, ONE); identity(dim, x) is x times it."""
    zero = one * ZERO
    return Matrix([[one if i == j else zero for j in range(dim)]
                   for i in range(dim)])


def mat_pow_naive(mat, n):
    """Repeated normal-ordered multiplication (the power oracle)."""
    out = identity(mat.dim)
    for _ in range(n):
        out = out * mat
    return out


def _block_upper(a, b, d):
    """The 4x4 matrix [[a, b], [0, d]] of 2x2 blocks; b None is zero."""
    z = (al.zero(), al.zero())
    top = (z, z) if b is None else b.entries
    return Matrix([a.entries[0] + top[0], a.entries[1] + top[1],
                   z + d.entries[0], z + d.entries[1]])


# -- boost matrices (verbatim, converted to the internal basis) ---------------

@lru_cache(maxsize=None)
def b_matrix(alpha):
    """2x2 boost-action matrix B_{x_alpha}, alpha in x0, xm, xp, x30, x3."""
    lam = sc.lambda_()
    two = sc.two_q()
    rinv = sc.R * two.inverse()           # [2]^(-1/2)
    sq = sc.s_power(1)                     # q^(1/2)
    sqi = sc.s_power(-1)
    if alpha == "x0":
        four = sc.qnum_sym(4)
        a00 = al.gen_element("x0").scale(four * (two ** 2).inverse()) + \
            al.gen_element("x3").scale(lam * (sc.q_power(1) * two).inverse())
        a01 = al.gen_element("xp").scale(sqi * lam * rinv)
        a10 = al.gen_element("xm").scale(-sq * lam * rinv)
        a11 = al.gen_element("x0").scale(four * (two ** 2).inverse()) - \
            al.gen_element("x3").scale(sc.q_power(1) * lam * two.inverse())
        rows = [[a00, a01], [a10, a11]]
    elif alpha == "xm":
        rows = [[al.gen_element("xm"),
                 al.gen_element("x30").scale(sqi * lam * rinv)],
                [al.zero(), al.gen_element("xm")]]
    elif alpha == "xp":
        rows = [[al.gen_element("xp"), al.zero()],
                [al.gen_element("x30").scale(-sq * lam * rinv),
                 al.gen_element("xp")]]
    elif alpha == "x30":
        rows = [[al.gen_element("x30").scale(sc.q_power(-1)), al.zero()],
                [al.zero(), al.gen_element("x30").scale(sc.q_power(1))]]
    elif alpha == "x3":
        m30, m0 = b_matrix("x30"), b_matrix("x0")
        return m30 + m0
    else:
        raise KeyError(f"no boost matrix for {alpha!r}")
    return Matrix(rows)


@lru_cache(maxsize=None)
def l_matrix_spinor(alpha):
    """4x4 L_{x_alpha} in the spinor-pair basis (block form)."""
    lam = sc.lambda_()
    rtwo = sc.R                           # [2]^(1/2)
    sqi = sc.s_power(-1)
    if alpha == "x0":
        return _block_upper(b_matrix("x0"), None, b_matrix("x0"))
    if alpha == "xm":
        return _block_upper(b_matrix("xm").scale(sc.q_power(1)),
                            b_matrix("x3").scale(sqi * lam * rtwo),
                            b_matrix("xm").scale(sc.q_power(-1)))
    if alpha == "xp":
        return _block_upper(b_matrix("xp").scale(sc.q_power(-1)), None,
                            b_matrix("xp").scale(sc.q_power(1)))
    if alpha == "x30":
        return _block_upper(b_matrix("x30"),
                            b_matrix("xp").scale(sqi * lam * rtwo),
                            b_matrix("x30"))
    if alpha == "x3":
        return l_matrix_spinor("x30") + l_matrix_spinor("x0")
    raise KeyError(f"no L matrix for {alpha!r}")


def basis_change_matrix():
    """Scalar matrix C with x'_I = C_{I mu} x_mu (spinor pair from 4-vector)."""
    r = sc.R
    s1, s3, sm1 = sc.s_power(1), sc.s_power(3), sc.s_power(-1)
    z = ZERO
    return Matrix([(z, r, z, z),
                   (-s1, z, z, s1),
                   (s3, z, z, sm1),
                   (z, z, r, z)])


@lru_cache(maxsize=None)
def _basis_change_pair():
    """(T, T^-1) with T = C^T; rows/cols indexed fourvec x spinor."""
    T = Matrix(zip(*basis_change_matrix().entries))
    return T, T.inverse()


def _conjugate_to_fourvec(mat):
    """T M T^-1 with T = C^T: a spinor-pair matrix in the four-vector basis."""
    T, Tinv = _basis_change_pair()
    return T * mat * Tinv


@lru_cache(maxsize=None)
def l_matrix(alpha):
    """4x4 L_{x_alpha} in the four-vector basis (0, -, +, 3)."""
    if alpha == "x3":
        return l_matrix("x30") + l_matrix("x0")
    return _conjugate_to_fourvec(l_matrix_spinor(alpha))


# -- center, projectors, functions of L_{x0} ----------------------------------

def b_center():
    """b = ([2]/2) x0, central."""
    return al.x0_element().scale(sc.two_q() * sc.rational(1, 2))


def c_center():
    """c = (x0)^2 + (lambda^2/[2]^2) x^2 = tau+ tau-, central."""
    lam2 = sc.lambda_() ** 2
    two2 = sc.two_q() ** 2
    return al.x0_element() ** 2 + al.xsq_element().scale(lam2 * two2.inverse())


def tau(sign):
    """tau+- = b +- (lambda/2) delta = q^{+-1} xi+ + q^{-+1} xi-."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    qp = sc.q_power(sign)
    qm = sc.q_power(-sign)
    return al.monomial(a=1, coeff=qp) + al.monomial(b=1, coeff=qm)


@lru_cache(maxsize=None)
def chebyshev_s(n):
    """S_n = (tau+^n - tau-^n)/(tau+ - tau-), a central Element.

    Equals U_{n-1}(b/sqrt(c)) c^((n-1)/2) with only integer powers of c.
    """
    if n == 0:
        return al.zero()
    diff = tau(+1) ** n - tau(-1) ** n
    quot = al.div_central(diff, al.delta_element())
    return quot.scale(sc.lambda_().inverse())


@lru_cache(maxsize=None)
def l0_minus_b():
    """L_{x0} - b 1, with f(L_{x0}) = D_f (L_{x0} - b) + A_f for every f."""
    return l_matrix("x0") - identity(4, b_center())


@lru_cache(maxsize=None)
def _l0_minus_b_over_lambda():
    """(L_{x0} - b)/lambda, the part of `pi_weighted` shared by all weights."""
    return l0_minus_b().scale(sc.lambda_().inverse())


def pi_weighted(wp, wm):
    """delta (Pi+ wp + Pi- wm) for Scalars wp, wm, a delta-free Element
    matrix: ((wp - wm)/lambda) (L_{x0} - b) + ((wp + wm)/2) delta."""
    mean = al.delta_element().scale((wp + wm) * sc.rational(1, 2))
    return _l0_minus_b_over_lambda().scale(wp - wm) + identity(4, mean)


def projectors():
    """(Pi+, Pi-) = 1/2 +- (L_{x0} - b)/(lambda delta), delta-localized.

    Pi- = 1 - Pi+: its off-diagonal entries are those of Pi+ negated, and
    only its diagonal is divided by delta anew."""
    plus = [[Localized(x, 1) for x in row]
            for row in pi_weighted(ONE, ZERO).entries]
    minus = [[ONE - x if i == j else -x for j, x in enumerate(row)]
             for i, row in enumerate(plus)]
    return Matrix(plus), Matrix(minus)


def f_of_l0(coeffs):
    """f(L_{x0}) for f(t) = sum coeffs[n] t^n, as D_f (L_{x0} - b) + A_f.

    f(tau+) - f(tau-) is divided by delta exactly before it is used, so
    the entries are polynomial (no residual delta denominators).
    """
    fp = _eval_poly(coeffs, tau(+1))
    fm = _eval_poly(coeffs, tau(-1))
    diff = al.div_central(fp - fm, al.delta_element()).scale(
        sc.lambda_().inverse())
    return l0_minus_b() * diff + \
        identity(4, (fp + fm).scale(sc.rational(1, 2)))


def _eval_poly(coeffs, x):
    """sum_n coeffs[n] x^n, with one product per power above x^0."""
    powers = accumulate(repeat(x, len(coeffs) - 1), mul,
                        initial=al.one())
    return al.add_all(p.scale(c) for p, c in zip(powers, coeffs))


# -- closed-form powers --------------------------------------------------------

def b_pow_closed(alpha, n):
    """Closed form for B_{x_alpha}^n."""
    if n < 0:
        raise ValueError("negative power")
    if n == 0:
        return identity(2)
    lam = sc.lambda_()
    two = sc.two_q()
    rinv = sc.R * two.inverse()
    if alpha == "x30":
        x30n = al.monomial(d=n)
        return Matrix([[x30n.scale(sc.q_power(-n)), al.zero()],
                       [al.zero(), x30n.scale(sc.q_power(n))]])
    if alpha == "xm":
        xmn = al.monomial(e=n)
        off = al.monomial(d=1) * al.monomial(e=n - 1)
        coeff = sc.s_power(-1) * lam * rinv * sc.q_power(n - 1) * sc.qnum_sym(n)
        return Matrix([[xmn, off.scale(coeff)], [al.zero(), xmn]])
    if alpha == "xp":
        xpn = al.monomial(c=n)
        off = al.monomial(d=1) * al.monomial(c=n - 1)
        coeff = -sc.s_power(1) * lam * rinv * sc.q_power(1 - n) * sc.qnum_sym(n)
        return Matrix([[xpn, al.zero()], [off.scale(coeff), xpn]])
    if alpha == "x0":
        return _cayley_pow(b_matrix("x0"), n)
    raise KeyError(f"no closed power for {alpha!r}")


def _cayley_pow(mat, n):
    """M^n = S_n M - c S_{n-1} from the characteristic equation of B/L_{x0},
    for n >= 1."""
    if n == 1:
        return mat
    sn = chebyshev_s(n)
    snm1 = chebyshev_s(n - 1)
    c = c_center()
    return mat * sn - identity(mat.dim, c * snm1)


def l_pow_closed(alpha, n):
    """Closed form for L_{x_alpha}^n in the four-vector basis."""
    if n < 0:
        raise ValueError("negative power")
    if n == 0:
        return identity(4)
    lam = sc.lambda_()
    two = sc.two_q()
    rtwo = sc.R
    sqi = sc.s_power(-1)
    if alpha == "x0":
        return _cayley_pow(l_matrix("x0"), n)
    if alpha == "xp":
        bp = b_pow_closed("xp", n)
        spin = _block_upper(bp.scale(sc.q_power(-n)), None,
                            bp.scale(sc.q_power(n)))
    elif alpha == "xm":
        bm = b_pow_closed("xm", n)
        bmm1 = b_pow_closed("xm", n - 1)
        mid = b_matrix("x30").scale(
            sc.q_power(n - 1) * sc.qnum_sym(2 * n) * two.inverse()) + \
            b_matrix("x0").scale(sc.qnum_sym(n))
        off = (mid * bmm1).scale(sqi * lam * rtwo)
        spin = _block_upper(bm.scale(sc.q_power(n)), off,
                            bm.scale(sc.q_power(-n)))
    elif alpha == "x30":
        b30 = b_pow_closed("x30", n)
        off = (b_matrix("xp") * b_pow_closed("x30", n - 1)).scale(
            sqi * lam * rtwo * sc.q_power(n - 1) * sc.qnum_sym(n))
        spin = _block_upper(b30, off, b30)
    else:
        raise KeyError(f"no closed power for {alpha!r}")
    return _conjugate_to_fourvec(spin)


# -- characteristic identity ----------------------------------------------------

def char_residual(mat):
    """M^2 - [2] x0 M + ((x0)^2 + lambda^2/[2]^2 x^2) 1."""
    two = sc.two_q()
    return (mat * mat) - (mat * al.x0_element().scale(two)) + \
        identity(mat.dim, c_center())


def char_check_l0():
    """True when L_{x0} satisfies its characteristic equation, else the
    residual matrix."""
    res = char_residual(l_matrix("x0"))
    return True if res.is_zero() else res


def char_check_b0():
    res = char_residual(b_matrix("x0"))
    return True if res.is_zero() else res


def l_action(f):
    """L acting on an arbitrary algebra element, as a 4x4 matrix.

    The coordinate-to-matrix map is multiplicative (L is a comultiplicative
    quantum matrix), so the action extends over PBW words; well-definedness
    holds because the L_{x_alpha} satisfy the defining relations.
    """
    acc = Matrix([[al.zero()] * 4 for _ in range(4)])
    for (n0, nm, np_, n3), coeff in al.to_pbw_x(f).items():
        term = identity(4)
        for gen, count in (("x0", n0), ("xm", nm), ("xp", np_), ("x3", n3)):
            for _ in range(count):
                term = term * l_matrix(gen)
        acc = acc + term.scale(coeff)
    return acc


def l_x0_explicit():
    """The explicit four-vector L_{x0}, written out entry by entry.

    Kept as an independent golden copy of the matrix the block-form
    construction must reproduce; every entry is cross-validated by the
    characteristic identity and the derivative recursion.
    """
    lam = sc.lambda_()
    two = sc.two_q()
    four_over_two = sc.qnum_sym(4) * two.inverse()
    x0el, xmel = al.x0_element(), al.gen_element("xm")
    xpel, x3el = al.gen_element("xp"), al.gen_element("x3")
    q = sc.q_power(1)
    qi = sc.q_power(-1)
    rows = [
        [x0el.scale(four_over_two), xmel.scale(q * lam),
         xpel.scale(q * lam), x3el.scale(q * lam)],
        [xpel.scale(-lam * sc.q_power(-2)),
         x0el.scale(four_over_two) + x3el.scale(lam * qi),
         al.zero(), xpel.scale(lam)],
        [xmel.scale(-lam), al.zero(),
         x0el.scale(four_over_two) - x3el.scale(q * lam),
         xmel.scale(-lam)],
        [x3el.scale(lam * qi), xmel.scale(-q * lam),
         xpel.scale(lam * qi),
         x0el.scale(four_over_two) - x3el.scale(lam * lam)],
    ]
    inv2 = two.inverse()
    return Matrix([[x.scale(inv2) for x in row] for row in rows])


# -- metric and derived vectors --------------------------------------------------

def eta_upper():
    """The metric as a dict {(mu, nu): Scalar}, indices in (0,-,+,3).

    The metric is its own inverse, so the upper and the lower metric are
    the same dict; `eta_lower` is an alias of this function.
    """
    return {(0, 0): ONE, (1, 2): sc.q_power(-1), (2, 1): sc.q_power(1),
            (3, 3): -ONE}


eta_lower = eta_upper


@lru_cache(maxsize=None)
def x_upper(mu):
    """x^mu = eta^{mu nu} x_nu as an Element; mu in 0..3 ~ (0,-,+,3)."""
    if mu == 0:
        return al.x0_element()
    if mu == 1:
        return al.gen_element("xp").scale(sc.q_power(-1))
    if mu == 2:
        return al.gen_element("xm").scale(sc.q_power(1))
    if mu == 3:
        return -al.gen_element("x3")
    raise IndexError(mu)


def pi_nabla_x0(sign):
    """The explicit vector (Pi+- nabla x0)^mu = (xi+- d^mu_0 -+ x^mu/(q[2]))/delta,
    the paper's form of column 0 of `pi_weighted`, which tests check."""
    coeff = (sc.q_power(1) * sc.two_q()).inverse()
    out = []
    for mu in range(4):
        num = al.zero()
        if mu == 0:
            num = al.monomial(a=1) if sign > 0 else al.monomial(b=1).scale(-ONE)
        num = num - x_upper(mu).scale(coeff if sign > 0 else -coeff)
        out.append(Localized(num, 1))
    return out
