"""The vertex budget, checked by each library builder from its parameters:
every family, every product and the prescribed-divisor construction refuse a
graph past 1024 vertices before building it."""

import time

import pytest

from ramat import cli
from ramat.graphs import (
    binary_graph,
    complete_bipartite,
    crown,
    cube,
    kneser,
    path,
)
from ramat.products import (
    cartesian,
    disjoint_union,
    join,
    prism,
    pyramid,
    strong,
    tensor,
)
from ramat.theorems import construct_prescribed, kneser_prism_params

PAST = "past the budget of 1024 vertices"

# the smallest parameters past the budget, per family of `ramat gen`
SMALLEST_PAST = {
    "path": (1025,),
    "cycle": (1025,),
    "complete": (1025,),
    "complete-bipartite": (513, 512),
    "cube": (11,),
    "folded-cube": (12,),
    "crown": (1026,),
    "kneser": (1025, 1),
    "binary": (1015,),
}


def test_table_covers_every_family():
    assert set(SMALLEST_PAST) == set(cli._FAMILIES)


@pytest.mark.parametrize("family", sorted(SMALLEST_PAST))
def test_family_just_past_the_budget(family):
    builder, arity = cli._FAMILIES[family]
    params = SMALLEST_PAST[family]
    assert len(params) == arity
    with pytest.raises(ValueError, match=PAST):
        builder(*params)


def test_families_at_the_budget_still_build():
    assert cube(10).n == 1024
    assert path(1024).n == 1024
    assert binary_graph(1014).n == 1024


@pytest.mark.parametrize("build", [
    lambda: cartesian(path(33), path(32)),
    lambda: tensor(path(33), path(32)),
    lambda: strong(path(33), path(32)),
    lambda: join(path(512), path(513)),
    lambda: pyramid(path(1024)),
    lambda: prism(path(513)),
    lambda: disjoint_union([path(600)] * 2),
])
def test_product_just_past_the_budget(build):
    with pytest.raises(ValueError, match=PAST):
        build()


@pytest.mark.parametrize("divisors, nullity", [([510] * 3, 0), ([], 2000)])
def test_construction_refused_from_its_lower_bound(divisors, nullity):
    with pytest.raises(ValueError, match=PAST):
        construct_prescribed(divisors, nullity)


def test_construction_refused_at_the_first_step_past_the_budget():
    # the lower bound (1005) fits; crown(504) and Bg(553) are built, and their
    # union of 1067 vertices is refused
    with pytest.raises(ValueError, match="a disjoint union of 1067 vertices is " + PAST):
        construct_prescribed([250], 500)


def test_kneser_prism_k_past_its_budget():
    with pytest.raises(ValueError, match="budget"):
        kneser_prism_params(11, 0)
    assert kneser_prism_params(8, 0) == (32806, 6562)


@pytest.mark.parametrize("build", [
    lambda: crown(10 ** 12),
    lambda: cube(10 ** 12),
    lambda: kneser(10 ** 12, 3),
    lambda: complete_bipartite(10 ** 12, 1),
    lambda: binary_graph(10 ** 12),
    lambda: construct_prescribed([], 10 ** 12),
    lambda: construct_prescribed([10 ** 12], 0),
    lambda: kneser_prism_params(10 ** 12, 0),
])
def test_absurd_sizes_refused_at_once(build):
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="budget"):
        build()
    assert time.perf_counter() - t0 < 0.5
