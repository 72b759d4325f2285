import pytest

from qmink import algebra as al
from qmink import lorentz as lz
from qmink import matrices as mx
from qmink import scalars as sc


def test_fundamental_rep_relations():
    E, F, K = lz.rep_fundamental()
    lam_inv = sc.lambda_().inverse()
    assert (K * E * K.inverse()) == E.scale(sc.q_power(2))
    assert (K * F * K.inverse()) == F.scale(sc.q_power(-2))
    assert E.commutator(F) == (K - K.inverse()).scale(lam_inv)
    assert K == lz.RepMatrix([[sc.q_power(-1), sc.ZERO],
                              [sc.ZERO, sc.q_power(1)]])


def test_e_nilpotent():
    E, _, _ = lz.rep_fundamental()
    assert (E * E).is_zero()


def test_rmatrix_half_structure():
    R = lz.rmatrix_half()
    # diagonal q^(1/2) blocks with a single off-diagonal lambda q^(-1/2)
    assert R[0, 0] == sc.s_power(1)
    assert R[3, 3] == sc.s_power(1)
    assert R[1, 1] == sc.s_power(-1)
    assert R[2, 2] == sc.s_power(-1)
    assert R[2, 1] == sc.s_power(-1) * sc.lambda_()
    zeros = [(i, j) for i in range(4) for j in range(4)
             if (i, j) not in ((0, 0), (1, 1), (2, 2), (3, 3), (2, 1))]
    assert all(R[i, j].is_zero() for i, j in zeros)


def test_yang_baxter():
    assert lz.yang_baxter_holds()


def test_rr_relation():
    assert lz.rr_relation_residual().is_zero()


def test_r_one_and_two_differ():
    RI, RII = lz.rmatrices_fourvector()
    assert RI != RII


def test_xx_rel2_reproduces_relations():
    for pair, residual in lz.xx_rel2_residuals():
        assert residual.is_zero(), pair


def test_l_matrices_from_rmatrix():
    for nu, gen in enumerate(("x0", "xm", "xp", "x3")):
        assert lz.l_matrix_from_rmatrix(nu) == mx.l_matrix(gen), gen


def test_boost_rotation_factorization():
    for alpha in ("x0", "xm", "xp", "x30"):
        assert lz.l_matrix_from_structure(alpha) == \
            mx.l_matrix_spinor(alpha), alpha


def test_factorization_reaches_fourvector():
    rebuilt = mx._conjugate_to_fourvec(lz.l_matrix_from_structure("x0"))
    assert rebuilt == mx.l_matrix("x0")


def test_sigma_tilde_three_verbatim():
    s3 = lz.sigma_tilde("3")
    assert s3 == lz.RepMatrix([[-sc.q_power(-1), sc.ZERO],
                               [sc.ZERO, sc.q_power(1)]])
    sm = lz.sigma_tilde("-")
    assert sm[0, 1] == sc.R * sc.s_power(1)
    sp = lz.sigma_tilde("+")
    assert sp[1, 0] == -sc.R * sc.s_power(-1)


def test_basis_change_invertible_and_central_images():
    T, Ti = mx._basis_change_pair()
    for i in range(4):
        for j in range(4):
            acc = sc.ZERO
            for t in range(4):
                acc = acc + T[i][t] * Ti[t][j]
            assert acc == (sc.ONE if i == j else sc.ZERO)
    # the inverse relations express x0 through spinor-pair coordinates;
    # the result is central (commutes with everything)
    C = mx.basis_change_matrix()
    spinor = []
    for I in range(4):
        acc = al.zero()
        for muidx, gen in enumerate(("x0", "xm", "xp", "x3")):
            coeff = C[I][muidx]
            if not coeff.is_zero():
                acc = acc + al.gen_element(gen).scale(coeff)
        spinor.append(acc)
    # x0 = (q^(-1/2) x_{+-} - q^(-3/2) x_{-+}) / [2]
    two_inv = sc.two_q().inverse()
    x0_rebuilt = spinor[2].scale(sc.s_power(-1) * two_inv) - \
        spinor[1].scale(sc.s_power(-3) * two_inv)
    assert x0_rebuilt == al.x0_element()
    probe = al.gen_element("xm") * al.gen_element("x3")
    assert x0_rebuilt * probe == probe * x0_rebuilt


def test_verify_structure_all_green():
    results = lz.verify_structure()
    assert all(ok for _, ok in results), results


def test_scalar_matrix_inverse():
    E, F, K = lz.rep_fundamental()
    # E + F has a zero pivot, so its inverse needs a row swap
    for M in (lz.rmatrix_half(), K, E + F):
        assert M * M.inverse() == mx.identity(M.dim, sc.ONE)
        assert M.inverse() * M == mx.identity(M.dim, sc.ONE)
    # determinant 1 - q q^-1 = 0
    singular = mx.Matrix([[sc.ONE, sc.q_power(1)], [sc.q_power(-1), sc.ONE]])
    with pytest.raises(ZeroDivisionError):
        singular.inverse()
