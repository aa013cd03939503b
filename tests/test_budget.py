"""The one size limit: every charge site refuses an oversized request with
`SizeLimitError`, before the work it guards."""

import random
import time

import pytest

from spinmod import structures
from spinmod.budget import ENUMERATION_LIMIT, SizeLimitError, charge
from spinmod.category import check_axioms
from spinmod.constructions import abelian_category, sl2_category
from spinmod.cyclo import CycloField, make_root
from spinmod.invariants import Evaluator, moo
from spinmod.structures import GeneratedCoset, as_matrix
from spinmod.surgery import chain, forest

ZERO_25 = as_matrix([[0] * 25 for _ in range(25)])
EYE_25 = tuple(tuple(int(i == j) for j in range(25)) for i in range(25))


def _generalized_spin_product():
    # two sets of 2^12 points on 12 vertices: 2^24 points of 24 coordinates
    ev = Evaluator(sl2_category(6))
    t = ev.structure_grading(2, spin=False).generator
    ev.wrt_generalized_spin(forest([0] * 12), [t, t])


def _brute_colorings():
    # 4^12 = 2^24 colorings of 12 vertices
    ev = Evaluator(sl2_category(5))
    ev.brute_weighted(forest([0] * 12), [ev.plain_color()] * 12)


# every charge site, with a request just big enough to be refused there
SITES = {
    "GeneratedCoset.points":
        lambda: GeneratedCoset(2, (0,) * 25, EYE_25, (2,) * 25).points(),
    # 15 points of 2^20 coordinates are admitted, the 16th is not
    "_close_subgroup":
        lambda: structures._close_subgroup([(1,) * (1 << 20)], 32, 1 << 20),
    "image_subgroup_factored":
        lambda: structures.image_subgroup_factored(EYE_25, 2),
    "homology_representatives":
        lambda: structures.homology_representatives(ZERO_25, 2),
    "chern_representatives":
        lambda: structures.chern_representatives(ZERO_25, 2),
    "brute_spin_solutions":
        lambda: structures.brute_spin_solutions(ZERO_25, 2),
    "brute_cohomology_classes":
        lambda: structures.brute_cohomology_classes(ZERO_25, 2),
    "brute_chern_vectors":
        lambda: structures.brute_chern_vectors(ZERO_25, 2),
    "brute_homology_classes":
        lambda: structures.brute_homology_classes(ZERO_25, 2),
    "Evaluator._product_table": _generalized_spin_product,
    "Evaluator._coset_table, hom":
        lambda: Evaluator(sl2_category(6)).wrt_homology(forest([0] * 25), 2),
    # one Chern class, but 2^24 points of ker(L mod 2)
    "Evaluator._coset_table, spinc":
        lambda: Evaluator(sl2_category(8)).wrt_spinc(forest([0] * 24), 1,
                                                     override=True),
    "Evaluator.brute_weighted": _brute_colorings,
    "Gauss sum, dense":
        lambda: moo(as_matrix([[1] * 3] * 3), 257, make_root(3, 1)),
    "Gauss sum, forest":
        lambda: moo(chain([2] * 30).linking_matrix(), 211, make_root(3, 1)),
    # 139 labels at w = 7: 139^3 * 7 bits per packed table
    "check_axioms": lambda: check_axioms(sl2_category(140)),
    "PlumbingForest.linking_matrix":
        lambda: chain([2] * 4097).linking_matrix(),
    # 8,800 reduction rows of phi(12000) = 3,200 coefficients
    "CycloField": lambda: CycloField(12000),
    # the least r refused: 206^2 S-matrix entries of phi(824) = 408
    # coordinates
    "sl2_category": lambda: sl2_category(206),
    # 256^3 fusion entries are the limit itself
    "abelian_category": lambda: abelian_category(257, make_root(8, 1)),
}


@pytest.mark.parametrize("site", list(SITES))
def test_every_charge_site_refuses_with_one_error_class(site):
    with pytest.raises(SizeLimitError) as info:
        SITES[site]()
    assert type(info.value) is SizeLimitError
    assert str(info.value).endswith(" exceeds size limit")


def test_charge_admits_the_limit_itself():
    charge(ENUMERATION_LIMIT, "exactly the limit")
    with pytest.raises(SizeLimitError, match="^one more exceeds size limit$"):
        charge(ENUMERATION_LIMIT + 1, "one more")
    # the CLI turns every ValueError into exit 2
    assert issubclass(SizeLimitError, ValueError)


def test_sl2_up_to_r_24_is_never_refused():
    # perfbench and the acceptance suite check these categories
    for r in range(3, 25):
        rep = check_axioms(sl2_category(r))
        assert (rep.premodular, rep.modular, rep.transparent, rep.violations,
                rep.criterion_agreement) == (True, True, (0,), [], True)


def test_coset_tables_are_refused_before_the_smith_form(monkeypatch):
    # perfbench's seeded_tree draws with max_framing=4: 2^26 classes at n=250
    rng = random.Random(1)
    for n in (10, 30, 60, 120, 250):
        edges = [((v - 1) // 2, v, rng.choice((1, -1))) for v in range(1, n)]
        tree = forest([rng.randint(-4, 4) for _ in range(n)], edges)
    ev = Evaluator(sl2_category(6))
    calls = []
    monkeypatch.setattr(structures, "smith_normal_form",
                        lambda *args: calls.append(args))
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="of 250 coordinates"):
        ev.wrt_homology(tree, 2)
    assert time.perf_counter() - start < 1
    with pytest.raises(SizeLimitError, match="spinc table"):
        Evaluator(sl2_category(8)).wrt_spinc(forest([0] * 24), 1,
                                             override=True)
    assert calls == []
