"""Algebra-valued matrices: boost and L matrices, closed-form powers,
the characteristic identity of L_{x0}, spectral projectors and functions
of L_{x0}.

Four-vector indices are ordered (0, -, +, 3).  The spinor-pair basis is
ordered (--, -+, +-, ++); the basis change is the coordinate relation

    x_{--} = [2]^(1/2) x-,           x_{-+} = q^(1/2) (x3 - x0),
    x_{+-} = q^(-1/2) x3 + q^(3/2) x0,  x_{++} = [2]^(1/2) x+,

and matrices transform by conjugation with the transpose of that
coefficient matrix.  The explicit four-vector L_{x0} produced this way
is pinned entrywise in the tests and validated against the derivative
calculus (characteristic identity, eigen relations, recursion).
"""

from __future__ import annotations

from functools import lru_cache

from . import scalars as sc
from .scalars import Scalar, ONE, ZERO
from . import algebra as al
from .algebra import Element, Localized

__all__ = [
    "AlgMatrix", "FOURVEC_INDEX", "SPINOR_PAIR_INDEX",
    "b_matrix", "l_matrix", "l_matrix_spinor", "basis_change_matrix",
    "mat_pow_naive", "b_pow_closed", "l_pow_closed",
    "char_check_l0", "char_check_b0", "char_residual",
    "b_center", "c_center", "tau", "projectors", "f_of_l0",
    "chebyshev_s", "pi_nabla_x0", "x_upper", "eta_upper", "eta_lower",
]

FOURVEC_INDEX = ("0", "-", "+", "3")
SPINOR_PAIR_INDEX = ("--", "-+", "+-", "++")

_GEN_OF_INDEX = ("x0", "xm", "xp", "x3")


class AlgMatrix:
    """Square matrix with Localized entries (immutable)."""

    __slots__ = ("entries", "basis")
    __hash__ = None

    def __init__(self, entries, basis="fourvec"):
        entries = tuple(tuple(_as_localized(x) for x in row) for row in entries)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *a):
        raise AttributeError("AlgMatrix is immutable")

    @property
    def dim(self):
        return len(self.entries)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        return self.dim == other.dim and all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(self.dim) for j in range(self.dim))

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    def __add__(self, other):
        return AlgMatrix([[self.entries[i][j] + other.entries[i][j]
                           for j in range(self.dim)]
                          for i in range(self.dim)], self.basis)

    def __sub__(self, other):
        return AlgMatrix([[self.entries[i][j] - other.entries[i][j]
                           for j in range(self.dim)]
                          for i in range(self.dim)], self.basis)

    def __neg__(self):
        return AlgMatrix([[-x for x in row] for row in self.entries],
                         self.basis)

    def __mul__(self, other):
        if isinstance(other, AlgMatrix):
            n = self.dim
            out = []
            for i in range(n):
                row = []
                for j in range(n):
                    acc = _LOC_ZERO
                    for t in range(n):
                        a = self.entries[i][t]
                        b = other.entries[t][j]
                        if a.is_zero() or b.is_zero():
                            continue
                        acc = acc + a * b
                    row.append(acc)
                out.append(row)
            return AlgMatrix(out, self.basis)
        if isinstance(other, (Scalar, Element, Localized)):
            return AlgMatrix([[x * _as_localized(other) for x in row]
                              for row in self.entries], self.basis)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, Element, Localized)):
            o = _as_localized(other)
            return AlgMatrix([[o * x for x in row] for row in self.entries],
                             self.basis)
        return NotImplemented

    def scale(self, c):
        return AlgMatrix([[x * c for x in row] for row in self.entries],
                         self.basis)

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of Localized."""
        vec = [_as_localized(v) for v in vec]
        out = []
        for i in range(self.dim):
            acc = _LOC_ZERO
            for t in range(self.dim):
                a = self.entries[i][t]
                if a.is_zero() or vec[t].is_zero():
                    continue
                acc = acc + a * vec[t]
            out.append(acc)
        return out

    def is_zero(self):
        return all(x.is_zero() for row in self.entries for x in row)

    def try_clear(self):
        """Entrywise delta clearing; raises DeltaDivisionError on failure."""
        return AlgMatrix([[Localized.of(x.try_clear()) for x in row]
                          for row in self.entries], self.basis)

    def __repr__(self):
        rows = []
        for row in self.entries:
            rows.append("[" + ", ".join(repr(x) for x in row) + "]")
        return "AlgMatrix([\n  " + ",\n  ".join(rows) + "\n])"


def _as_localized(x):
    if isinstance(x, Localized):
        return x
    if isinstance(x, Element):
        return Localized.of(x)
    if isinstance(x, Scalar):
        return Localized.of(al.one().scale(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Localized")


_LOC_ZERO = Localized.of(al.zero())


def identity(dim, basis="fourvec"):
    one = Localized.of(al.one())
    return AlgMatrix([[one if i == j else _LOC_ZERO for j in range(dim)]
                      for i in range(dim)], basis)


def mat_pow_naive(mat, n):
    """Repeated normal-ordered multiplication (the power oracle)."""
    out = identity(mat.dim, mat.basis)
    for _ in range(n):
        out = out * mat
    return out


# -- boost matrices (verbatim, converted to the internal basis) ---------------

def _elem(text):
    from .surface import parse_element
    return parse_element(text)


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
    return AlgMatrix(rows, basis="spinor")


@lru_cache(maxsize=None)
def l_matrix_spinor(alpha):
    """4x4 L_{x_alpha} in the spinor-pair basis (block form)."""
    lam = sc.lambda_()
    rtwo = sc.R                           # [2]^(1/2)
    sqi = sc.s_power(-1)
    z2 = AlgMatrix([[al.zero(), al.zero()], [al.zero(), al.zero()]],
                   basis="spinor")
    if alpha == "x0":
        blocks = [[b_matrix("x0"), z2], [z2, b_matrix("x0")]]
    elif alpha == "xm":
        blocks = [[b_matrix("xm").scale(sc.q_power(1)),
                   b_matrix("x3").scale(sqi * lam * rtwo)],
                  [z2, b_matrix("xm").scale(sc.q_power(-1))]]
    elif alpha == "xp":
        blocks = [[b_matrix("xp").scale(sc.q_power(-1)), z2],
                  [z2, b_matrix("xp").scale(sc.q_power(1))]]
    elif alpha == "x30":
        blocks = [[b_matrix("x30"), b_matrix("xp").scale(sqi * lam * rtwo)],
                  [z2, b_matrix("x30")]]
    elif alpha == "x3":
        return l_matrix_spinor("x30") + l_matrix_spinor("x0")
    else:
        raise KeyError(f"no L matrix for {alpha!r}")
    rows = []
    for bi in range(2):
        for i in range(2):
            row = []
            for bj in range(2):
                blk = blocks[bi][bj]
                for j in range(2):
                    row.append(blk.entries[i][j])
            rows.append(row)
    return AlgMatrix(rows, basis="spinor")


def basis_change_matrix():
    """Scalar matrix C with x'_I = C_{I mu} x_mu (spinor pair from 4-vector)."""
    r = sc.R
    s1, s3, sm1 = sc.s_power(1), sc.s_power(3), sc.s_power(-1)
    z = ZERO
    return ((z, r, z, z),
            (-s1, z, z, s1),
            (s3, z, z, sm1),
            (z, z, r, z))


def _basis_change_pair():
    """(T, T^-1) with T = C^T; rows/cols indexed fourvec x spinor."""
    two_inv = sc.two_q().inverse()
    r_over_two = sc.R * two_inv
    sm1, sm3 = sc.s_power(-1), sc.s_power(-3)
    z = ZERO
    C = basis_change_matrix()
    T = tuple(tuple(C[i][j] for i in range(4)) for j in range(4))
    # C^-1 assembled from the inverted coordinate relations
    Cinv = ((z, -sm3 * two_inv, sm1 * two_inv, z),
            (r_over_two, z, z, z),
            (z, z, z, r_over_two),
            (z, sm1 * two_inv * sc.q_power(1), sm1 * two_inv, z))
    Tinv = tuple(tuple(Cinv[j][i] for j in range(4)) for i in range(4))
    return T, Tinv


def _conjugate_to_fourvec(mat):
    """T M T^-1 with T = C^T; entries stay Localized."""
    T, Tinv = _basis_change_pair()
    n = 4
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = _LOC_ZERO
            for u in range(n):
                tiu = T[i][u]
                if tiu.is_zero():
                    continue
                for v in range(n):
                    tvj = Tinv[v][j]
                    if tvj.is_zero():
                        continue
                    entry = mat.entries[u][v]
                    if entry.is_zero():
                        continue
                    acc = acc + entry * (tiu * tvj)
            row.append(acc)
        out.append(row)
    return AlgMatrix(out, basis="fourvec")


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


def projectors():
    """(Pi+, Pi-) as delta-localized 4x4 matrices."""
    L = l_matrix("x0")
    delta = al.delta_element()
    b = b_center()
    half = sc.rational(1, 2)
    two_over_lambda = sc.integer(2) * sc.lambda_().inverse()
    out = []
    for sign in (+1, -1):
        rows = []
        for i in range(4):
            row = []
            for j in range(4):
                # (1/2) (delta 1 +- (2/lambda)(L - b)) / delta
                core = L.entries[i][j] - Localized.of(b if i == j else al.zero())
                num = Localized.of((delta if i == j else al.zero()) * al.one())
                term = num + core * (two_over_lambda if sign > 0
                                     else -two_over_lambda)
                row.append((term * half).divide_by_delta(1))
            rows.append(row)
        out.append(AlgMatrix(rows, basis="fourvec"))
    return out[0], out[1]


def f_of_l0(coeffs):
    """f(L_{x0}) for f(t) = sum coeffs[n] t^n, via f(tau+)Pi+ + f(tau-)Pi-.

    Evaluated in the delta-exact form
        f(L) = ((f(tau+) - f(tau-))/(tau+ - tau-)) (L - b)
             + (f(tau+) + f(tau-))/2,
    so entries are polynomial (no residual delta denominators).
    """
    tp, tm = tau(+1), tau(-1)
    fp = _eval_poly(coeffs, tp)
    fm = _eval_poly(coeffs, tm)
    diff = al.div_central(fp - fm, al.delta_element()).scale(
        sc.lambda_().inverse())
    avg = (fp + fm).scale(sc.rational(1, 2))
    L = l_matrix("x0")
    b = b_center()
    out = []
    for i in range(4):
        row = []
        for j in range(4):
            entry = (L.entries[i][j] -
                     Localized.of(b if i == j else al.zero())) * diff
            # diff is central, so left/right placement is immaterial
            if i == j:
                entry = entry + Localized.of(avg)
            row.append(entry)
        out.append(row)
    return AlgMatrix(out, basis="fourvec")


def _eval_poly(coeffs, x):
    acc = al.zero()
    power = al.one()
    for c in coeffs:
        if not c.is_zero():
            acc = acc + power.scale(c)
        power = power * x
    return acc


# -- closed-form powers --------------------------------------------------------

def b_pow_closed(alpha, n):
    """Closed form for B_{x_alpha}^n."""
    if n < 0:
        raise ValueError("negative power")
    if n == 0:
        return identity(2, "spinor")
    lam = sc.lambda_()
    two = sc.two_q()
    rinv = sc.R * two.inverse()
    if alpha == "x30":
        x30n = al.monomial(d=n)
        return AlgMatrix(
            [[x30n.scale(sc.q_power(-n)), al.zero()],
             [al.zero(), x30n.scale(sc.q_power(n))]], "spinor")
    if alpha == "xm":
        xmn = al.monomial(e=n)
        off = al.monomial(d=1) * al.monomial(e=n - 1)
        coeff = sc.s_power(-1) * lam * rinv * sc.q_power(n - 1) * sc.qnum_sym(n)
        return AlgMatrix([[xmn, off.scale(coeff)], [al.zero(), xmn]], "spinor")
    if alpha == "xp":
        xpn = al.monomial(c=n)
        off = al.monomial(d=1) * al.monomial(c=n - 1)
        coeff = -sc.s_power(1) * lam * rinv * sc.q_power(1 - n) * sc.qnum_sym(n)
        return AlgMatrix([[xpn, al.zero()], [off.scale(coeff), xpn]], "spinor")
    if alpha == "x0":
        return _cayley_pow(b_matrix("x0"), n)
    raise KeyError(f"no closed power for {alpha!r}")


def _cayley_pow(mat, n):
    """M^n = S_n M - c S_{n-1} from the characteristic equation of B/L_{x0}."""
    if n == 0:
        return identity(mat.dim, mat.basis)
    if n == 1:
        return mat
    sn = chebyshev_s(n)
    snm1 = chebyshev_s(n - 1)
    c = c_center()
    eye = identity(mat.dim, mat.basis)
    return mat * Localized.of(sn) - eye * Localized.of(c * snm1)


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
    z2 = AlgMatrix([[al.zero(), al.zero()], [al.zero(), al.zero()]], "spinor")
    if alpha == "xp":
        bp = b_pow_closed("xp", n)
        blocks = [[bp.scale(sc.q_power(-n)), z2],
                  [z2, bp.scale(sc.q_power(n))]]
    elif alpha == "xm":
        bm = b_pow_closed("xm", n)
        bmm1 = b_pow_closed("xm", n - 1)
        mid = b_matrix("x30").scale(
            sc.q_power(n - 1) * sc.qnum_sym(2 * n) * two.inverse()) + \
            b_matrix("x0").scale(sc.qnum_sym(n))
        off = (mid * bmm1).scale(sqi * lam * rtwo)
        blocks = [[bm.scale(sc.q_power(n)), off],
                  [z2, bm.scale(sc.q_power(-n))]]
    elif alpha == "x30":
        b30 = b_pow_closed("x30", n)
        off = (b_matrix("xp") * b_pow_closed("x30", n - 1)).scale(
            sqi * lam * rtwo * sc.q_power(n - 1) * sc.qnum_sym(n))
        blocks = [[b30, off], [z2, b30]]
    else:
        raise KeyError(f"no closed power for {alpha!r}")
    rows = []
    for bi in range(2):
        for i in range(2):
            row = []
            for bj in range(2):
                blk = blocks[bi][bj]
                for j in range(2):
                    row.append(blk.entries[i][j])
            rows.append(row)
    return _conjugate_to_fourvec(AlgMatrix(rows, basis="spinor"))


# -- characteristic identity ----------------------------------------------------

def char_residual(mat):
    """M^2 - [2] x0 M + ((x0)^2 + lambda^2/[2]^2 x^2) 1."""
    two = sc.two_q()
    eye = identity(mat.dim, mat.basis)
    return (mat * mat) - (mat * Localized.of(al.x0_element().scale(two))) + \
        eye * Localized.of(c_center())


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
    acc = None
    for (n0, nm, np_, n3), coeff in al.to_pbw_x(f).items():
        term = identity(4)
        for gen, count in (("x0", n0), ("xm", nm), ("xp", np_), ("x3", n3)):
            for _ in range(count):
                term = term * l_matrix(gen)
        term = term.scale(coeff)
        acc = term if acc is None else acc + term
    if acc is None:
        return AlgMatrix([[al.zero()] * 4 for _ in range(4)], "fourvec")
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
    return AlgMatrix([[x.scale(inv2) for x in row] for row in rows],
                     basis="fourvec")


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
    """The explicit vector (Pi+- nabla x0)^mu = (xi+- d^mu_0 -+ x^mu/(q[2]))/delta."""
    coeff = (sc.q_power(1) * sc.two_q()).inverse()
    out = []
    for mu in range(4):
        num = al.zero()
        if mu == 0:
            num = al.monomial(a=1) if sign > 0 else al.monomial(b=1).scale(-ONE)
        num = num - x_upper(mu).scale(coeff if sign > 0 else -coeff)
        out.append(Localized(num, 1))
    return out
