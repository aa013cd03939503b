"""Built-in families and derived categories: closed-form values, axiom
checks, extension and modularization behavior."""

import pytest

from spinmod.category import check_axioms, grading, invertibles
from spinmod.constructions import (ConstructionError, ModularizationError,
                                   abelian_category, extend_category,
                                   modularize, product_category,
                                   reduced_subcategory, sl2_category,
                                   spin_case_parameters, trivial_category)
from spinmod.cyclo import cyclo_field, make_root


def test_sl2_3_closed_form():
    cat = sl2_category(3)
    f = cat.field
    assert f.order == 12
    assert cat.size == 2
    # qdim(1) = -[2] = -(A^2 + A^-2) = -1 at A = zeta_12
    assert cat.qdim[1] == -f.one
    assert cat.smat[0][0].is_one()
    assert cat.smat[0][1] == cat.qdim[1]
    # S[1][1] = [4] at A = zeta_12 evaluates to -1
    assert cat.smat[1][1] == -f.one
    assert check_axioms(cat).modular


def test_sl2_requires_r_at_least_3():
    with pytest.raises(ConstructionError):
        sl2_category(2)


def test_sl2_hopf_matrix_row_zero_is_qdim():
    for r in (4, 7):
        cat = sl2_category(r)
        assert tuple(cat.smat[0]) == cat.qdim


def test_abelian_semion_like_data():
    cat = abelian_category(2, make_root(8, 1))
    assert cat.twist[0].is_one()
    assert cat.twist[1] == make_root(8, 1)
    rep = check_axioms(cat)
    assert rep.premodular and rep.modular


def test_abelian_smat_matches_power_formula_when_preconditioned():
    # q^N = 1 (odd N) or q^(2N) = 1 (even N) makes smat[j][k] = q^(2jk)
    for n, q in ((3, make_root(3, 1)), (4, make_root(8, 1))):
        cat = abelian_category(n, q)
        for j in range(n):
            for k in range(n):
                assert cat.smat[j][k] == q ** (2 * j * k)


def test_product_with_trivial_is_isomorphic_copy():
    a = sl2_category(5)
    prod = product_category(a, trivial_category())
    assert prod.size == a.size
    big = prod.field
    for i in range(a.size):
        assert prod.qdim[i] == big.embed(a.qdim[i])
        assert prod.twist[i] == big.embed(a.twist[i])
        for j in range(a.size):
            assert prod.smat[i][j] == big.embed(a.smat[i][j])
    assert prod.fusion == a.fusion


def test_product_size_and_axioms():
    prod = product_category(sl2_category(4), sl2_category(5))
    assert prod.size == 12
    prod2 = product_category(sl2_category(4), abelian_category(3, make_root(3, 1)))
    rep = check_axioms(prod2)
    assert rep.premodular and rep.modular


def test_reduced_subcategory_even_labels():
    for r, want in ((5, ["0", "2"]), (7, ["0", "2", "4"])):
        cat = sl2_category(r)
        grad = grading(cat, invertibles(cat))
        red = reduced_subcategory(cat, grad, 2)
        assert list(red.labels) == want
        rep = check_axioms(red)
        assert rep.premodular and rep.modular
    cat = sl2_category(5)
    grad = grading(cat, invertibles(cat))
    assert reduced_subcategory(cat, grad, 1).size == cat.size


def test_extend_identity_parameters():
    cat = sl2_category(5)
    grad = grading(cat, invertibles(cat))
    ext = extend_category(cat, 1, cat.field.one, grad.degree, grad)
    assert ext.size == cat.size
    assert ext.smat == cat.smat
    assert ext.twist == cat.twist
    assert ext.fusion == cat.fusion


def test_extend_sl2_5_grows_transparent_subgroup():
    # alpha = 1, xi = +-i: the invertible generator becomes transparent,
    # giving a transparent subgroup of order alpha * m = 2
    cat = sl2_category(5)
    grad = grading(cat, invertibles(cat))
    for k in (1, 3):
        xi = cat.field.embed(make_root(4, k))
        ext = extend_category(cat, 1, xi, grad.degree, grad)
        rep = check_axioms(ext)
        assert rep.premodular
        assert rep.transparent == (0, 3)
        assert not rep.modular


def test_extend_label_count_scales_by_alpha():
    cat = sl2_category(6)
    grad = grading(cat, invertibles(cat))
    ext = extend_category(cat, 2, cat.field.one, grad.degree, grad)
    assert ext.size == 2 * cat.size
    assert check_axioms(ext).premodular


def test_extend_validates_section_and_root():
    cat = sl2_category(5)
    grad = grading(cat, invertibles(cat))
    bad_f = tuple((d + 1) % 2 for d in grad.degree)
    with pytest.raises(ConstructionError):
        extend_category(cat, 1, cat.field.one, bad_f, grad)
    with pytest.raises(ConstructionError):
        extend_category(cat, 1, cat.field.zeta(1), grad.degree, grad)


def test_modularize_trivial_transparent_returns_category():
    cat = sl2_category(5)
    assert modularize(cat) is cat


def test_modularize_product_with_transparent_z2():
    transparent_z2 = abelian_category(2, cyclo_field(2).one)
    prod = product_category(sl2_category(5), transparent_z2)
    rep = check_axioms(prod)
    assert rep.premodular and not rep.modular
    assert len(rep.transparent) == 2
    out = modularize(prod)
    assert out.size == prod.size // 2
    rep2 = check_axioms(out)
    assert rep2.premodular and rep2.modular
    assert rep2.transparent == (0,)


def test_modularize_obstruction_negative_qdim():
    # extension of sl2(5) by xi = i has a transparent object of qdim -1
    cat = sl2_category(5)
    grad = grading(cat, invertibles(cat))
    ext = extend_category(cat, 1, cat.field.embed(make_root(4, 1)),
                          grad.degree, grad)
    with pytest.raises(ModularizationError):
        modularize(ext)


def test_spin_case_parameter_recipe():
    # d = 6, deg(t) = 2: m = 3 odd, the genuinely spin-type situation
    params = spin_case_parameters(6, 2)
    assert params["alpha"] * params["beta"] == 2
    assert params["m"] == 3
    mod = params["root_order"]
    assert (params["beta"] ** 2 * params["l"]) % mod \
        == (1 + params["alpha"] ** 2 * params["m"]) % mod
    with pytest.raises(ConstructionError):
        spin_case_parameters(2, 1)  # m even: no spin-case split exists
