"""Spin-1/2 structure behind the calculus: the fundamental representation
of the rotation algebra, its universal R-matrix, the two four-vector
R-matrices of the q-Lorentz algebra, and the boost-rotation factorization
of the L-matrix.  Every matrix here is a `qmink.matrices.Matrix`; the
representation and R-matrices have Scalar entries.

Index conventions
-----------------
The 2-dim weight basis is ordered (-, +); spinor pairs are ordered
(--, -+, +-, ++).  The 16x16 R-matrices are built from the tensor-leg
formula

    R_I  = R41^-1 R31^-1 R24 R23,      R_II = R41^-1 R13 R24 R23,

evaluated in the fundamental representation on all four legs, and are then
relabelled by the pair swap P (exchange of the two four-vector tensor
slots) so that the literal index conventions of the defining relations

    x_sigma x_tau = x_mu x_nu R_I^{mu nu}_{tau sigma}
    (L_{x_nu})^mu_{mu'} = R_II^{nu' mu}_{nu mu'} x_{nu'}

hold; both are verified exactly in the tests, together with the
quadratic relation (1 + q R^_II)(1 - R^_I) = 0 for the hatted matrices
(hat = swap of the two upper indices).
"""

from __future__ import annotations

from functools import lru_cache

from . import scalars as sc
from .scalars import ONE, ZERO
from . import algebra as al
from . import matrices as mx
from .matrices import Matrix

__all__ = [
    "rep_fundamental", "rmatrix_half", "rmatrices_fourvector",
    "rhat", "yang_baxter_holds", "rr_relation_residual",
    "xx_rel2_residuals", "l_matrix_from_rmatrix", "l_matrix_from_structure",
    "sigma_tilde", "verify_structure",
]


# qbench's tracer resolves `lorentz.RepMatrix.__mul__` by name.
RepMatrix = Matrix


def rep_fundamental():
    """(E, F, K) in the spin-1/2 representation, weight basis (-, +).

    K = diag(q^-1, q); the ordering is fixed so that the displayed upper
    triangular L+ matrix of the rotation algebra comes out upper triangular.
    """
    E = Matrix([[ZERO, ZERO], [ONE, ZERO]])
    F = Matrix([[ZERO, ONE], [ZERO, ZERO]])
    K = Matrix([[sc.q_power(-1), ZERO], [ZERO, sc.q_power(1)]])
    return E, F, K


@lru_cache(maxsize=None)
def rmatrix_half():
    """(rho x rho)(R) for the universal R-matrix, a 4x4 matrix.

    The series truncates after the linear term because E^2 = 0 at
    spin 1/2; the Cartan prefactor contributes q^(h1 h2 / 2) = s^(h1 h2).
    """
    E, F, _ = rep_fundamental()
    lam = sc.lambda_()
    pref = [sc.s_power(1), sc.s_power(-1), sc.s_power(-1), sc.s_power(1)]
    base = mx.identity(4, ONE) + E.kron(F).scale(lam)
    return Matrix([[base.entries[i][j] * pref[i] for j in range(4)]
                   for i in range(4)])


def yang_baxter_holds():
    """R12 R13 R23 = R23 R13 R12 on the triple tensor product (8x8)."""
    Rm = rmatrix_half()
    R12 = _embed_legs(Rm, 3, 0, 1)
    R13 = _embed_legs(Rm, 3, 0, 2)
    R23 = _embed_legs(Rm, 3, 1, 2)
    return (R12 * R13 * R23 - R23 * R13 * R12).is_zero()


def _embed_legs(R, nlegs, a, b):
    """Place a 4x4 two-leg matrix on legs a, b (0-based) of nlegs qubits."""
    dim = 1 << nlegs
    out = [[ZERO] * dim for _ in range(dim)]
    for row in range(dim):
        rbits = [(row >> (nlegs - 1 - t)) & 1 for t in range(nlegs)]
        for ia in range(2):
            for ib in range(2):
                v = R.entries[rbits[a] * 2 + rbits[b]][ia * 2 + ib]
                if v.is_zero():
                    continue
                cbits = list(rbits)
                cbits[a], cbits[b] = ia, ib
                col = 0
                for t in range(nlegs):
                    col = (col << 1) | cbits[t]
                cur = out[row][col]
                out[row][col] = v if cur.is_zero() else cur + v
    return Matrix(out)


def _pair_swap_16():
    """P with P[(mu nu), (nu mu)] = 1: swaps the two four-vector slots."""
    out = [[ZERO] * 16 for _ in range(16)]
    for a in range(4):
        for b in range(4):
            out[a * 4 + b][b * 4 + a] = ONE
    return Matrix(out)


@lru_cache(maxsize=None)
def rmatrices_fourvector():
    """(R_I, R_II) as 16x16 matrices in the four-vector basis (0,-,+,3)."""
    Rm = rmatrix_half()
    Rinv = Rm.inverse()
    r41i = _embed_legs(Rinv, 4, 3, 0)
    r31i = _embed_legs(Rinv, 4, 2, 0)
    r13 = _embed_legs(Rm, 4, 0, 2)
    r24 = _embed_legs(Rm, 4, 1, 3)
    r23 = _embed_legs(Rm, 4, 1, 2)
    RI = r41i * r31i * r24 * r23
    RII = r41i * r13 * r24 * r23
    # relabel so that the literal pair conventions of the defining
    # relations hold
    P = _pair_swap_16()
    RI, RII = P * RI * P, P * RII * P
    # spinor-pair -> four-vector conjugation with T = C^T on both slots
    T, Ti = mx._basis_change_pair()
    TT, TTi = T.kron(T), Ti.kron(Ti)
    return TT * RI * TTi, TT * RII * TTi


def rhat(M):
    """Swap the two upper indices: Rhat^{mu nu}_{..} = R^{nu mu}_{..}."""
    P = _pair_swap_16()
    return P * M


def rr_relation_residual():
    """(1 + q Rhat_II)(1 - Rhat_I); zero exactly."""
    RI, RII = rmatrices_fourvector()
    eye = mx.identity(16, ONE)
    return (eye + rhat(RII).scale(sc.q_power(1))) * (eye - rhat(RI))


def xx_rel2_residuals():
    """x_sigma x_tau - x_mu x_nu R_I^{mu nu}_{tau sigma} for all 16 pairs,
    normal ordered; the list is all-zero exactly when the R-matrix form
    reproduces the defining relations."""
    RI, _ = rmatrices_fourvector()
    coords = [al.gen_element(g) for g in ("x0", "xm", "xp", "x3")]
    out = []
    for sig in range(4):
        for tau_ in range(4):
            terms = [coords[sig] * coords[tau_]]
            for mu in range(4):
                for nu in range(4):
                    coeff = RI[mu * 4 + nu][tau_ * 4 + sig]
                    if not coeff.is_zero():
                        terms.append((coords[mu] * coords[nu]).scale(-coeff))
            out.append(((sig, tau_), al.add_all(terms)))
    return out


def l_matrix_from_rmatrix(nu):
    """L_{x_nu} reconstructed from the coproduct twist of R_II:

        (L_{x_nu})^mu_{mu'} = R_II^{mu nu'}_{mu' nu} x_{nu'}.

    With the pair conventions fixed by the defining relations and the
    quadratic relation, the contraction reads with both index pairs in
    the order written here (the q-Heisenberg display orders them the
    other way round; only one assignment is consistent with the rest,
    which this reconstruction verifies)."""
    _, RII = rmatrices_fourvector()
    coords = [al.gen_element(g) for g in ("x0", "xm", "xp", "x3")]
    return Matrix([
        [al.add_all(coords[nup].scale(RII[mu * 4 + nup][mup * 4 + nu])
                    for nup in range(4))
         for mup in range(4)]
        for mu in range(4)])


# -- boost-rotation factorization -----------------------------------------------

_WEIGHT = {"x0": 0, "xm": -2, "xp": 2, "x3": 0}


def _rotation_E_action(gen):
    """E acting on a coordinate: the raising member of the triplet action.

    Normalization fixed by matching two entries of the block form; the
    full entrywise match of `l_matrix_from_structure` is the consistency
    check."""
    rt = sc.R   # [2]^(1/2)
    if gen == "xm":
        return {"x3": rt}
    if gen == "x3":
        return {"xp": sc.q_power(1) * rt}
    return {}


def _lplus_action(i, k, gen):
    """(L+^(1/2))^i_k acting on a coordinate, as {gen: Scalar}.

    L+ = [[K^(-1/2), q^(-1/2) lambda K^(-1/2) E], [0, K^(1/2)]].
    """
    if i == 0 and k == 0:
        return {gen: sc.s_power(-_WEIGHT[gen])}
    if i == 1 and k == 1:
        return {gen: sc.s_power(_WEIGHT[gen])}
    if i == 0 and k == 1:
        out = {}
        for g2, c in _rotation_E_action(gen).items():
            out[g2] = c * sc.s_power(-1) * sc.lambda_() * \
                sc.s_power(-_WEIGHT[g2])
        return out
    return {}


def l_matrix_from_structure(alpha):
    """L_{x_alpha} rebuilt from the boost-rotation factorization
    (L)^{ij}_{kl} = B^j_l (L+^(1/2))^i_k, in the spinor-pair basis."""
    gen = {"x0": "x0", "xm": "xm", "xp": "xp", "x30": "x30"}[alpha]
    # resolve x30 through linearity of the actions
    def components(g):
        if g == "x30":
            return {"x3": ONE, "x0": -ONE}
        return {g: ONE}
    rows = []
    for i in range(2):
        for j in range(2):
            row = []
            for k in range(2):
                for l in range(2):
                    row.append(al.add_all(
                        mx.b_matrix(g2).entries[j][l].scale(c1 * c2)
                        for g1, c1 in components(gen).items()
                        for g2, c2 in _lplus_action(i, k, g1).items()))
            rows.append(row)
    return Matrix(rows)


# -- q-Pauli variants --------------------------------------------------------------

def sigma_tilde(a):
    """The q-Pauli variants; a in ('-', '3', '+'), basis (-, +)."""
    rt = sc.R
    if a == "-":
        return Matrix([[ZERO, rt * sc.s_power(1)], [ZERO, ZERO]])
    if a == "+":
        return Matrix([[ZERO, ZERO], [-rt * sc.s_power(-1), ZERO]])
    if a == "3":
        return Matrix([[-sc.q_power(-1), ZERO], [ZERO, sc.q_power(1)]])
    raise KeyError(a)


# -- verification bundle -------------------------------------------------------------

def verify_structure():
    """Run all structural identities; returns a list of (name, ok) pairs."""
    results = []
    E, F, K = rep_fundamental()
    lam_inv = sc.lambda_().inverse()
    comm = E.commutator(F) - (K - K.inverse()).scale(lam_inv)
    results.append(("fundamental rep relations",
                    comm.is_zero()
                    and (K * E * K.inverse() - E.scale(sc.q_power(2))).is_zero()
                    and (K * F * K.inverse() - F.scale(sc.q_power(-2))).is_zero()))
    results.append(("E nilpotent at spin 1/2", (E * E).is_zero()))
    results.append(("Yang-Baxter (8x8)", yang_baxter_holds()))
    results.append(("(1+q Rhat_II)(1-Rhat_I) = 0",
                    rr_relation_residual().is_zero()))
    RI, RII = rmatrices_fourvector()
    results.append(("R_I differs from R_II", RI != RII))
    results.append(("R_I form reproduces the defining relations",
                    all(el.is_zero() for _, el in xx_rel2_residuals())))
    ok_l = all(l_matrix_from_rmatrix(nu) == mx.l_matrix(g)
               for nu, g in enumerate(("x0", "xm", "xp", "x3")))
    results.append(("L matrices from R_II contraction", ok_l))
    ok_fact = all(l_matrix_from_structure(a) == mx.l_matrix_spinor(a)
                  for a in ("x0", "xm", "xp", "x30"))
    results.append(("boost-rotation factorization", ok_fact))
    s3 = sigma_tilde("3")
    results.append(("sigma~3 = diag(-q^-1, q)",
                    s3 == Matrix([[-sc.q_power(-1), ZERO],
                                  [ZERO, sc.q_power(1)]])))
    return results
