"""Unit + differential tests for the relational algebra evaluator."""

import pytest

from repro.errors import FormulaError, InstanceError
from repro.relational import (
    Constant,
    Instance,
    LabeledNull,
    fact,
    parse_conjunction,
)
from repro.relational.homomorphism import find_homomorphisms
from tests.oracles.algebra import (
    Relation,
    answers_via_algebra,
    evaluate_conjunction,
)


@pytest.fixture
def employment() -> Instance:
    return Instance(
        [
            fact("E", "Ada", "IBM"),
            fact("E", "Bob", "IBM"),
            fact("E", "Cyd", "HP"),
            fact("S", "Ada", "18k"),
            fact("S", "Cyd", "21k"),
            fact("M", "Ada", "Bob"),
        ]
    )


class TestRelationOperators:
    def test_select_eq(self, employment):
        rel = Relation.from_instance(employment, "E")
        ibm = rel.select_eq("_2", Constant("IBM"))
        assert len(ibm) == 2

    def test_select_same(self):
        rel = Relation.from_rows(
            ["a", "b"],
            [(Constant(1), Constant(1)), (Constant(1), Constant(2))],
        )
        assert len(rel.select_same("a", "b")) == 1

    def test_project_collapses_duplicates(self, employment):
        rel = Relation.from_instance(employment, "E")
        companies = rel.project(["_2"])
        assert len(companies) == 2  # IBM, HP

    def test_project_reorders(self):
        rel = Relation.from_rows(["a", "b"], [(Constant(1), Constant(2))])
        flipped = rel.project(["b", "a"])
        assert flipped.columns == ("b", "a")
        assert (Constant(2), Constant(1)) in flipped.rows

    def test_rename(self, employment):
        rel = Relation.from_instance(employment, "E").rename({"_1": "name"})
        assert rel.columns == ("name", "_2")

    def test_unknown_column_rejected(self, employment):
        rel = Relation.from_instance(employment, "E")
        with pytest.raises(InstanceError):
            rel.project(["nope"])

    def test_natural_join_on_shared_column(self, employment):
        e = Relation.from_instance(employment, "E").rename(
            {"_1": "n", "_2": "c"}
        )
        s = Relation.from_instance(employment, "S").rename(
            {"_1": "n", "_2": "sal"}
        )
        joined = e.natural_join(s)
        assert joined.columns == ("n", "c", "sal")
        assert len(joined) == 2  # Ada and Cyd

    def test_natural_join_without_shared_is_product(self):
        a = Relation.from_rows(["x"], [(Constant(1),), (Constant(2),)])
        b = Relation.from_rows(["y"], [(Constant(3),)])
        assert len(a.natural_join(b)) == 2

    def test_union_and_difference(self):
        a = Relation.from_rows(["x"], [(Constant(1),), (Constant(2),)])
        b = Relation.from_rows(["x"], [(Constant(2),), (Constant(3),)])
        assert len(a.union(b)) == 3
        assert len(a.difference(b)) == 1

    def test_union_header_mismatch_rejected(self):
        a = Relation.from_rows(["x"], [])
        b = Relation.from_rows(["y"], [])
        with pytest.raises(InstanceError):
            a.union(b)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(InstanceError):
            Relation.from_rows(["x", "x"], [])

    def test_row_width_validated(self):
        with pytest.raises(InstanceError):
            Relation.from_rows(["x"], [(Constant(1), Constant(2))])


class TestEvaluateConjunction:
    def test_columns_are_variables(self, employment):
        result = evaluate_conjunction(parse_conjunction("E(n, c)"), employment)
        assert result.columns == ("n", "c")
        assert len(result) == 3

    def test_constant_selection(self, employment):
        result = evaluate_conjunction(
            parse_conjunction("E(n, 'IBM')"), employment
        )
        assert result.columns == ("n",)
        assert len(result) == 2

    def test_repeated_variable_in_atom(self):
        inst = Instance([fact("R", "a", "a"), fact("R", "a", "b")])
        result = evaluate_conjunction(parse_conjunction("R(x, x)"), inst)
        assert len(result) == 1

    def test_join_across_atoms(self, employment):
        result = evaluate_conjunction(
            parse_conjunction("E(n, c) & S(n, s)"), employment
        )
        assert set(result.columns) == {"n", "c", "s"}
        assert len(result) == 2

    def test_triangle_join(self, employment):
        result = evaluate_conjunction(
            parse_conjunction("E(n, c) & M(n, m) & E(m, c)"), employment
        )
        # Ada manages Bob and both are at IBM.
        assert len(result) == 1

    def test_missing_relation_gives_empty(self, employment):
        result = evaluate_conjunction(parse_conjunction("Zzz(x)"), employment)
        assert len(result) == 0

    def test_empty_conjunction_rejected(self, employment):
        with pytest.raises(FormulaError):
            evaluate_conjunction((), employment)


class TestDifferentialAgainstHomomorphisms:
    """The algebra plan and the homomorphism search must agree exactly."""

    CASES = (
        "E(n, c)",
        "E(n, 'IBM')",
        "E(n, c) & S(n, s)",
        "E(n, c) & E(n2, c)",
        "E(n, c) & M(n, m) & E(m, c)",
        "S(n, s) & M(n, m)",
    )

    @pytest.mark.parametrize("text", CASES)
    def test_same_assignments(self, employment, text):
        conjunction = parse_conjunction(text)
        variables = conjunction.variables()
        via_algebra = answers_via_algebra(variables, conjunction, employment)
        via_homs = frozenset(
            tuple(assignment[v] for v in variables)
            for assignment in find_homomorphisms(conjunction, employment)
        )
        assert via_algebra == via_homs

    def test_agreement_with_nulls_present(self):
        null = LabeledNull("N")
        inst = Instance([fact("R", "a", null), fact("S", null, "b")])
        conjunction = parse_conjunction("R(x, y) & S(y, z)")
        variables = conjunction.variables()
        via_algebra = answers_via_algebra(variables, conjunction, inst)
        via_homs = frozenset(
            tuple(assignment[v] for v in variables)
            for assignment in find_homomorphisms(conjunction, inst)
        )
        assert via_algebra == via_homs
        assert len(via_algebra) == 1  # joined through the null

    def test_agreement_on_chased_snapshot(self, setting):
        from repro.chase import chase_snapshot

        snapshot = Instance(
            [fact("E", "Ada", "IBM"), fact("S", "Ada", "18k"), fact("E", "Bob", "IBM")]
        )
        target = chase_snapshot(snapshot, setting).target
        conjunction = parse_conjunction("Emp(n, c, s)")
        variables = conjunction.variables()
        via_algebra = answers_via_algebra(variables, conjunction, target)
        via_homs = frozenset(
            tuple(assignment[v] for v in variables)
            for assignment in find_homomorphisms(conjunction, target)
        )
        assert via_algebra == via_homs
