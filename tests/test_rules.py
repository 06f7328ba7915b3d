import random

import pytest

from leapjoin.errors import UserError
from leapjoin.parser import parse_rule
from leapjoin.rules import (
    classify_variables,
    default_key_order,
    is_projection_free,
    tuple_getter,
    validate_key_order,
)

CATALOG = {
    "A": (1, False), "B": (1, False),
    "A2": (2, False), "B2": (2, False),
    "G": (2, False), "H": (2, False), "I": (3, False), "R": (1, False),
    "R3": (3, False),
    "F1": (1, True), "G1": (1, True), "E2": (2, True),
}


class TestClassify:
    def test_function_keys_and_values(self):
        r = parse_rule("S(x,y) <- F1[x]=a, G1[y]=b, add[a,b]=r.", CATALOG)
        kinds = classify_variables(r)
        assert {v for v, k in kinds.items() if k == "KEY"} == {"x", "y"}
        assert {v for v, k in kinds.items() if k == "VALUE"} == {"a", "b", "r"}

    def test_single_relation(self):
        r = parse_rule("C(x) <- A(x).", CATALOG)
        assert classify_variables(r) == {"x": "KEY"}

    def test_primitive_contributes_no_key_positions(self):
        r = parse_rule("S(x,y) <- A2(x,y), add[x,y]=z.", CATALOG)
        kinds = classify_variables(r)
        assert kinds == {"x": "KEY", "y": "KEY", "z": "VALUE"}

    def test_order_independent(self):
        r1 = parse_rule("S(x,y) <- A2(x,y), B2(y,z).", CATALOG)
        r2 = parse_rule("S(x,y) <- B2(y,z), A2(x,y).", CATALOG)
        assert classify_variables(r1) == classify_variables(r2)


class TestProjectionFree:
    def test_full_head(self):
        r = parse_rule("T(x,y,z) <- A2(x,y), B2(y,z).", CATALOG)
        assert is_projection_free(r)

    def test_projected_head(self):
        r = parse_rule("S(x,y) <- A2(x,y), B2(y,z).", CATALOG)
        assert not is_projection_free(r)

    def test_same_atom_both_sides(self):
        r = parse_rule("C(x) <- A(x).", CATALOG)
        assert is_projection_free(r)


class TestHeadVariables:
    def test_head_variable_missing_from_body_is_refused(self):
        r = parse_rule("S(x,w) <- A2(x,y).", CATALOG)
        with pytest.raises(UserError, match="^variable w does not occur in the body$"):
            classify_variables(r)

    def test_first_missing_variable_in_name_order_is_named(self):
        r = parse_rule("S(w,v), T[x]=u <- A(x).", CATALOG)
        with pytest.raises(UserError, match="^variable u does not occur in the body$"):
            validate_key_order(r)

    def test_checked_before_the_key_order(self):
        r = parse_rule("S(x,w) <- A2(x,y). @order(q)", CATALOG)
        with pytest.raises(UserError, match="^variable w does not occur in the body$"):
            validate_key_order(r)

    def test_aggregation_output_is_exempt(self):
        r = parse_rule("D[x]=c <- agg<< c=count() >> A2(x,y).", CATALOG)
        assert "c" not in classify_variables(r)
        assert validate_key_order(r).heads[0].kind == "COUNT"
        bad = parse_rule("D[x,w]=c <- agg<< c=count() >> A2(x,y).", CATALOG)
        with pytest.raises(UserError, match="^variable w does not occur in the body$"):
            validate_key_order(bad)


class TestKeyOrder:
    def test_four_atom_rule_index_elision(self):
        r = parse_rule(
            "F(x,y) <- G(x,z), H(y,z), I(x,y,z), R(z). @order(x,y,z)", CATALOG
        )
        plan = validate_key_order(r)
        bp = plan.branches[0]
        by_name = {ap.name: i for i, ap in enumerate(bp.atoms)}

        def needed(pred):
            i = by_name[pred]
            return [
                lvl
                for lvl in range(1, len(bp.atoms[i].depths) + 1)
                if (0, i, lvl) in plan.index_specs
            ]

        assert needed("G") == [2]
        assert needed("H") == [1, 2]
        assert needed("I") == []
        assert needed("R") == [1]
        assert len(plan.index_specs) == 4
        # index record shapes: prefix/context lengths per the SensIndex layout
        r_spec = plan.index_specs[(0, by_name["R"], 1)]
        assert (r_spec.prefix_len, r_spec.context_len) == (0, 2)
        h_spec = plan.index_specs[(0, by_name["H"], 2)]
        assert (h_spec.prefix_len, h_spec.context_len) == (1, 1)

    def test_sub_join_structure(self):
        r = parse_rule(
            "F(x,y) <- G(x,z), H(y,z), I(x,y,z), R(z). @order(x,y,z)", CATALOG
        )
        bp = validate_key_order(r).branches[0]
        parts = [
            [(bp.atoms[p].name, lvl) for p, lvl in bp.participants[d]]
            for d in (1, 2, 3)
        ]
        assert parts[0] == [("G", 1), ("I", 1)]
        assert parts[1] == [("H", 1), ("I", 2)]
        assert parts[2] == [("G", 2), ("H", 2), ("I", 3), ("R", 1)]

    def test_single_atom_rule_needs_no_indices(self):
        r = parse_rule("C(x) <- A(x).", CATALOG)
        assert validate_key_order(r).index_specs == {}

    def test_force_sens_builds_indices_for_exempt_atoms(self):
        r = parse_rule("C(x) <- A(x), B(x). @force_sens", CATALOG)
        plan = validate_key_order(r)
        assert len(plan.index_specs) == 2
        r2 = parse_rule("C(x) <- A(x), B(x).", CATALOG)
        assert validate_key_order(r2).index_specs == {}

    def test_default_order_is_first_occurrence(self):
        r = parse_rule("S(x,y) <- B2(y,z), A2(x,y).", CATALOG)
        assert default_key_order(r) == ("y", "z", "x")

    def test_order_missing_variable_rejected(self):
        r = parse_rule("F(x,y) <- G(x,z), H(y,z). @order(x,y)", CATALOG)
        with pytest.raises(UserError):
            validate_key_order(r)

    def test_order_with_value_variable_rejected(self):
        r = parse_rule("S(x) <- F1[x]=a. @order(x,a)", CATALOG)
        with pytest.raises(UserError):
            validate_key_order(r)

    def test_atom_args_must_follow_order(self):
        r = parse_rule("T(x,y,z) <- R3(z,x,y). @order(x,y,z)", CATALOG)
        with pytest.raises(UserError):
            validate_key_order(r)

    def test_min_max_head_keys_must_prefix_order(self):
        r = parse_rule(
            "M[y]=m <- agg<< m=max(v) >> E2[x,y]=v. @order(x,y)", CATALOG
        )
        with pytest.raises(UserError):
            validate_key_order(r)
        ok = parse_rule("M[x]=m <- agg<< m=max(v) >> E2[x,y]=v.", CATALOG)
        assert validate_key_order(ok).heads[0].kind == "MAX"


class TestHeadKinds:
    def test_projection_free_head_is_direct(self):
        r = parse_rule("T(x,y,z) <- A2(x,y), B2(y,z).", CATALOG)
        assert validate_key_order(r).heads[0].kind == "DIRECT"

    def test_projected_head_is_counted(self):
        r = parse_rule("S(x,y) <- A2(x,y), B2(y,z).", CATALOG)
        assert validate_key_order(r).heads[0].kind == "COUNTED"

    def test_agg_kinds(self):
        cases = {
            "D[x]=c <- agg<< c=count() >> A2(x,y).": "COUNT",
            "T[x]=s <- agg<< s=sum(v) >> E2[x,y]=v.": "GROUP_SUM",
            "T[x]=s <- agg<< s=min(v) >> E2[x,y]=v.": "MIN",
            "T[x]=s <- agg<< s=total(v) >> E2[x,y]=v.": "FLOAT_TOTAL",
        }
        for text, kind in cases.items():
            assert validate_key_order(parse_rule(text, CATALOG)).heads[0].kind == kind

    def test_mixed_heads_classified_independently(self):
        r = parse_rule("T(x,y,z), S(x) <- A2(x,y), B2(y,z).", CATALOG)
        plan = validate_key_order(r)
        assert [hp.kind for hp in plan.heads] == ["DIRECT", "COUNTED"]


class TestProjectionFreeMatchesHeadKind:
    RULES = [
        "C(x) <- A(x).",
        "C(x) <- A(x), B(x).",
        "T(x,y,z) <- A2(x,y), B2(y,z).",
        "S(x,y) <- A2(x,y), B2(y,z).",
        "S(x) <- A2(x,y).",
        "S(x,y) <- A2(x,y), add[x,y]=z.",
        "S(x,y) <- F1[x]=a, G1[y]=b, add[a,b]=r.",
        "S[x]=a <- F1[x]=a.",
        "S[x]=a <- F1[x]=a, A2(x,y).",
        "C(x) <- (A(x) ; B(x)).",
        "S(x) <- A(x), (A2(x,y) ; B2(x,y)).",
        "T(x,y,z), S(x) <- A2(x,y), B2(y,z).",
        "F(x,y) <- G(x,z), H(y,z), I(x,y,z), R(z). @order(x,y,z)",
    ]

    @pytest.mark.parametrize("text", RULES)
    def test_projection_free_iff_every_head_is_direct(self, text):
        # aggregation heads take their kind from the aggregation instead
        r = parse_rule(text, CATALOG)
        kinds = [hp.kind for hp in validate_key_order(r).heads]
        assert is_projection_free(r) == all(k == "DIRECT" for k in kinds)


class TestPlanDecidesStorageAndNames:
    def test_stores_value(self):
        cases = {
            "C(x) <- A(x).": False,
            "S(x) <- A2(x,y).": True,
            "S[x]=a <- F1[x]=a.": True,
            "D[x]=c <- agg<< c=count() >> A2(x,y).": True,
            "M[x]=m <- agg<< m=max(v) >> E2[x,y]=v.": True,
        }
        for text, want in cases.items():
            plan = validate_key_order(parse_rule(text, CATALOG))
            assert plan.heads[0].stores_value is want, text

    def test_disjunction_atoms_carry_their_branch(self):
        r = parse_rule("C(x) <- A(x), (A(x) ; B(x), A(x)).", CATALOG)
        plan = validate_key_order(r)
        assert [[ap.name for ap in bp.atoms] for bp in plan.branches] == [
            ["b0.A#1", "b0.A#2"],
            ["b1.A#1", "b1.B", "b1.A#2"],
        ]


class TestParser:
    def test_unknown_predicate(self):
        with pytest.raises(UserError, match="unknown predicate"):
            parse_rule("C(x) <- Zap(x).", CATALOG)

    @pytest.mark.parametrize(
        "text", ["C(x) <- A(x), !B(x).", "C(x) <- A(x), !(B(x), A(x))."]
    )
    def test_negation_is_refused_by_the_parser(self, text):
        with pytest.raises(UserError, match="^unsupported: negation$"):
            parse_rule(text, CATALOG)

    def test_disjunction_parses_to_branches(self):
        r = parse_rule("C(x) <- (A(x) ; B(x)).", CATALOG)
        plan = validate_key_order(r)
        assert len(plan.branches) == 2

    @pytest.mark.parametrize(
        "text", ["C(x) <- (A(x), B(x)).", "C(x) <- A(x), (B(x))."]
    )
    def test_parenthesized_conjunction_is_one_branch(self, text):
        plan = validate_key_order(parse_rule(text, CATALOG))
        assert [[ap.name for ap in bp.atoms] for bp in plan.branches] == [["A", "B"]]

    def test_nested_disjunction_expands(self):
        r = parse_rule("C(x) <- ((A(x) ; B(x)) ; A(x)).", CATALOG)
        assert len(validate_key_order(r).branches) == 3

    def test_disjunction_with_uneven_variables_rejected(self):
        r = parse_rule("C(x) <- A(x), (B(x) ; A2(x,y)).", CATALOG)
        with pytest.raises(UserError, match="branches"):
            validate_key_order(r)

    def test_arity_mismatch(self):
        with pytest.raises(UserError, match="arity"):
            parse_rule("C(x) <- A2(x).", CATALOG)

    def test_annotations(self):
        r = parse_rule("C(x) <- A(x), B(x). @order(x) @force_sens", CATALOG)
        assert r.key_order == ("x",)
        assert r.force_sens

    def test_agg_argument_arity(self):
        with pytest.raises(UserError):
            parse_rule("D[x]=c <- agg<< c=count(v) >> A2(x,y).", CATALOG)
        with pytest.raises(UserError):
            parse_rule("D[x]=c <- agg<< c=sum() >> A2(x,y).", CATALOG)


# criterion 5's rule shapes, and a disjunction over two of its atoms
INDEX_SHAPES = [
    "C(x) <- A(x), B(x).",
    "F(x,y) <- G(x,z), H(y,z), I(x,y,z). @order(x,y,z)",
    "F(x,y) <- G(x,z), H(y,z), I(x,y,z), R(z). @order(x,y,z)",
    "S(x,y) <- A2(x,y), B2(y,z).",
    "D[x]=c <- agg<< c=count() >> A2(x,y).",
    "T[x]=s <- agg<< s=sum(v) >> E2[x,y]=v.",
    "N[x]=m <- agg<< m=min(v) >> E2[x,y]=v.",
    "F(x,y) <- (G(x,z) ; H(y,z)), I(x,y,z), R(z). @order(x,y,z)",
    "S(x,z) <- A2(x,y), (B2(y,z) ; G(y,z)).",
]


def _index_plans(text):
    """(plan, [(branch, pos, level, atom plan)]) for every atom level."""
    plan = validate_key_order(parse_rule(text, CATALOG))
    levels = [
        (bi, pos, lvl, ap)
        for bi, bp in enumerate(plan.branches)
        for pos, ap in enumerate(bp.atoms)
        for lvl in range(1, len(ap.depths) + 1)
    ]
    return plan, levels


class TestIndexPlan:
    @pytest.mark.parametrize("force", ["", " @force_sens"])
    @pytest.mark.parametrize("text", INDEX_SHAPES)
    def test_index_exists_unless_the_args_prefix_the_order(self, text, force):
        plan, levels = _index_plans(text + force)
        for bi, pos, lvl, ap in levels:
            elided = ap.atom.key_args[:lvl] == plan.key_order[:lvl]
            assert ((bi, pos, lvl) in plan.index_specs) == (bool(force) or not elided)
        assert set(plan.index_specs) <= {(bi, pos, lvl) for bi, pos, lvl, _ in levels}

    @pytest.mark.parametrize("force", ["", " @force_sens"])
    @pytest.mark.parametrize("text", INDEX_SHAPES)
    def test_oracle_prefix_inverts_the_emitted_record(self, text, force):
        plan, levels = _index_plans(text + force)
        K = len(plan.key_order)
        rng = random.Random(text + force)
        for bi, pos, lvl, ap in levels:
            spec = plan.index_specs.get((bi, pos, lvl))
            if spec is None:
                continue
            assert spec.depth == ap.depths[lvl - 1]
            for _ in range(20):
                keystack = tuple(rng.randrange(-50, 50) for _ in range(K))
                lo, hi = sorted(rng.randrange(-50, 50) for _ in range(2))
                key = spec.emit((*keystack, lo, hi))
                p = spec.prefix_len
                assert len(key) == p + 2 + spec.context_len
                assert key[p : p + 2] == (lo, hi)
                prefix, context = key[:p], key[p + 2 :]
                assert prefix == tuple(keystack[d - 1] for d in ap.depths[: lvl - 1])
                bound = spec.oracle_prefix(prefix + context)
                assert bound == keystack[: spec.depth - 1]


@pytest.mark.parametrize("positions", [[], [2], [0, 2], [2, 0, 1]])
def test_tuple_getter_returns_a_tuple(positions):
    row = (10, 11, 12)
    assert tuple_getter(positions)(row) == tuple(row[i] for i in positions)
