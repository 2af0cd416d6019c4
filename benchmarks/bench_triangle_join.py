"""JOIN-1: cyclic 3-atom bodies — flat pairwise join vs worst-case-optimal.

The flat written-order join of :mod:`repro.relational.homomorphism`
enumerates every binding of a prefix of the body's atoms before probing
the rest: on the triangle body ``R(x,y) ∧ R(y,z) ∧ R(z,x)`` over the
hub-skewed :func:`~repro.workloads.triangle_graph_instance` that is
``Θ(spokes²)`` length-2 paths for ``Θ(spokes)`` result triangles.  A
worst-case-optimal (generic) join binds one *variable* at a time and
intersects the candidate sets of every atom containing it, staying near
the output size.

Both the chase (``Tri(x,y,z)`` exchange, join cost in normalization and
tgd matching) and query answering (triangle query over a copied target)
run through the same plan layer, so one join selection covers both; the
``flat`` parametrization pins the flat join through the
:func:`~tests.oracles.joins.pinned_join` test oracle so the gate tracks
the two algorithms separately (``auto`` is the product's own choice).
"""

import pytest

from repro.concrete.cchase import c_chase
from repro.query.certain import certain_answers_concrete
from repro.query.query import ConjunctiveQuery
from repro.workloads import (
    exchange_setting_copy,
    exchange_setting_triangle,
    triangle_graph_instance,
)
from tests.oracles.joins import pinned_join

TRIANGLE_SETTING = exchange_setting_triangle()
COPY_SETTING = exchange_setting_copy()
TRIANGLE_QUERY = ConjunctiveQuery.parse(
    "q(x, y, z) :- T(x, y) & T(y, z) & T(z, x)"
)
SIZES = [64, 192, 576]
MODES = ["flat", "auto"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("spokes", SIZES)
def test_triangle_chase(benchmark, spokes, mode):
    source = triangle_graph_instance(spokes)
    with pinned_join(mode):
        result = benchmark(lambda: c_chase(source, TRIANGLE_SETTING))
    assert result.succeeded
    # Each closed triangle matches in all three rotations.
    assert len(result.target) == 3 * (spokes // 4)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("spokes", SIZES)
def test_triangle_query(benchmark, spokes, mode):
    source = triangle_graph_instance(spokes)
    with pinned_join(mode):
        answers = benchmark(
            lambda: certain_answers_concrete(
                TRIANGLE_QUERY, source, COPY_SETTING
            )
        )
    assert len(answers) == 3 * (spokes // 4)
