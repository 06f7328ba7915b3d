import math
import random

import pytest

from conftest import tree_nodes
from leapjoin.errors import IntegrityError, UserError
from leapjoin.keys import KEY_MAX, KEY_MIN
from leapjoin.scantree import (
    ABSENT,
    COUNT_OP,
    EMPTY,
    MAX_OP,
    MIN_OP,
    ScanTree,
    SemigroupOp,
    complement_iter,
    wrap64,
)

# a value-summing op whose combine is not idempotent, so the value of
# every record counts once in every cached aggregate
GROUP_SUM_OP = SemigroupOp(
    "GROUP_SUM", lambda a, b: wrap64(a + b), lambda vs: wrap64(sum(vs))
)

SALES = [
    (1, 1, 1000.00), (1, 2, 1500.00), (1, 3, 7300.00), (1, 4, 8000.00),
    (1, 5, 15000.00), (2, 6, 2900.00), (2, 7, 3500.00), (2, 8, 1440.00),
    (2, 9, 3300.00), (2, 10, 1245.00), (2, 11, 7024.00), (2, 12, 5510.00),
    (2, 13, 9000.00), (3, 14, 325.00), (3, 15, 4000.00), (3, 16, 5300.00),
]


def eight_leaf_tree(values):
    t = ScanTree(MAX_OP, leaf_target=1)
    t.build_from([((i,), v) for i, v in enumerate(values, start=1)])
    return t


def height(tree):
    """Internal nodes on the longest root-to-leaf path (0 for one leaf)."""
    def depth(node):
        if not hasattr(node, "left"):
            return 0
        return 1 + max(depth(node.left), depth(node.right))

    return depth(tree.root) if tree.root is not None else 0


def new_internal_ranges(tree, before):
    """(min_key, max_key) of each internal node of ``tree`` that is not in
    ``before`` (a ``tree_nodes`` list) by identity, in walk order."""
    old = {id(node) for node in before}
    return [
        (node.min_key, node.max_key)
        for node in tree_nodes(tree)
        if hasattr(node, "left") and id(node) not in old
    ]


class TestRangeScan:
    def test_interval_decompositions_of_eight_leaves(self):
        t = eight_leaf_tree([3, 9, 4, 1, 7, 2, 8, 5])
        cases = {
            (1, 8): [((1,), (8,))],
            (1, 3): [((1,), (2,)), ((3,), (3,))],
            (2, 8): [((2,), (2,)), ((3,), (4,)), ((5,), (8,))],
            (3, 7): [((3,), (4,)), ((5,), (6,)), ((7,), (7,))],
            (4, 7): [((4,), (4,)), ((5,), (6,)), ((7,), (7,))],
        }
        for (lo, hi), want in cases.items():
            probe = []
            t.range_scan((lo,), (hi,), probe=probe)
            assert [(p[0], p[1]) for p in probe] == want

    def test_max_sales_per_region(self):
        t = ScanTree(MAX_OP)
        t.build_from([((r, s), v) for r, s, v in SALES])
        got = t.range_scan((2, KEY_MIN), (2, KEY_MAX))
        assert got == 9000.00
        assert t.range_scan((1, KEY_MIN), (1, KEY_MAX)) == 15000.00
        assert t.range_scan((3, KEY_MIN), (3, KEY_MAX)) == 5300.00

    def test_empty_interval_between_adjacent_keys(self):
        t = ScanTree(MAX_OP)
        t.build_from([((10,), 1), ((20,), 2)])
        assert t.range_scan((11,), (19,)) is EMPTY

    def test_lo_above_hi_rejected(self):
        t = ScanTree(MAX_OP)
        t.build_from([((1,), 1)])
        with pytest.raises(UserError):
            t.range_scan((5,), (4,))

    def test_random_max_matches_linear_scan(self):
        rng = random.Random(11)
        t = ScanTree(MAX_OP)
        ref = {}
        for k in rng.sample(range(10**6), 10_000):
            v = rng.randrange(10**6)
            t.insert((k,), v)
            ref[k] = v
        n = t.size
        bound = 2 * math.ceil(math.log2(n)) + 2
        for _ in range(1000):
            a, b = sorted((rng.randrange(10**6), rng.randrange(10**6)))
            before = t.stats["combines"]
            got = t.range_scan((a,), (b,))
            assert t.stats["combines"] - before <= bound
            want = [v for k, v in ref.items() if a <= k <= b]
            if want:
                assert got == max(want)
            else:
                assert got is EMPTY


class TestPointUpdate:
    def test_replace_recomputes_exactly_the_path(self):
        t = eight_leaf_tree([3, 9, 4, 1, 7, 2, 8, 5])
        before, rebuilds = tree_nodes(t), t.stats["rebuilds"]
        assert t.apply_sorted([((5,), 100)]) == 0  # a replace adds no key
        assert t.stats["rebuilds"] == rebuilds
        assert new_internal_ranges(t, before) == [((1,), (8,)), ((5,), (8,)), ((5,), (6,))]
        assert t.range_scan((1,), (8,)) == 100

    def test_insert_into_empty(self):
        t = ScanTree(MAX_OP)
        t.insert((4,), 7)
        assert t.root.agg == 7 and t.size == 1

    def test_erase_absent_rejected(self):
        t = ScanTree(MAX_OP)
        t.insert((1,), 1)
        with pytest.raises(UserError):
            t.erase((2,))

    def test_audit_and_oracle_after_random_edit_script(self):
        rng = random.Random(12)
        t = ScanTree(MIN_OP, leaf_target=6)
        ref = {}
        for step in range(4000):
            if ref and rng.random() < 0.5:
                k = rng.choice(list(ref))
                t.erase((k,))
                del ref[k]
            else:
                k = rng.randrange(5000)
                if k in ref:
                    continue
                v = rng.randrange(10**6)
                t.insert((k,), v)
                ref[k] = v
            if step % 400 == 0:
                t.audit()
        t.audit()
        for _ in range(300):
            a, b = sorted((rng.randrange(5000), rng.randrange(5000)))
            got = t.range_scan((a,), (b,))
            want = [v for k, v in ref.items() if a <= k <= b]
            assert (got is EMPTY) == (not want)
            if want:
                assert got == min(want)

    def test_balance_invariant_after_rebalance_triggers(self):
        rng = random.Random(13)
        t = ScanTree(COUNT_OP, leaf_target=3)
        for k in range(500):  # fully sequential inserts force rebalances
            t.insert((k,), None)
        t.audit()
        assert t.stats["rebuilds"] > 0

    def test_group_sum_matches_fold_under_interleaving(self):
        rng = random.Random(14)
        t = ScanTree(GROUP_SUM_OP, leaf_target=4)
        ref = {}
        for _ in range(2000):
            if ref and rng.random() < 0.45:
                k = rng.choice(list(ref))
                t.erase((k,))
                del ref[k]
            else:
                k = rng.randrange(3000)
                if k in ref:
                    continue
                v = rng.randrange(-(2**62), 2**62)
                t.insert((k,), v)
                ref[k] = v
        total = t.range_scan((KEY_MIN,), (KEY_MAX,))
        want = 0
        for v in ref.values():
            want = wrap64(want + v)
        assert total == want


class TestSemigroupOps:
    def test_combine_associative_on_random_triples(self):
        rng = random.Random(15)
        for op in (MAX_OP, MIN_OP, COUNT_OP, GROUP_SUM_OP):
            for _ in range(300):
                x, y, z = (rng.randrange(-(2**63), 2**63) for _ in range(3))
                cx, cy, cz = (op.fold([v]) for v in (x, y, z))
                assert op.combine(op.combine(cx, cy), cz) == op.combine(
                    cx, op.combine(cy, cz)
                )


class TestComplement:
    def build(self, keys):
        t = ScanTree(COUNT_OP, leaf_target=4)
        t.build_from([((k,), None) for k in keys])
        return t

    def test_equal_sets_empty_stream(self):
        t = self.build(range(50))
        s = self.build(range(50))
        assert list(complement_iter(t, s)) == []

    def test_single_missing_key(self):
        t = self.build(range(1, 101))
        s = self.build(k for k in range(1, 101) if k != 37)
        assert list(complement_iter(t, s)) == [(37,)]

    def test_sparse_complement_visits_less_than_full(self):
        rng = random.Random(17)
        keys = rng.sample(range(10**6), 10_000)
        missing = set(rng.sample(keys, 5))
        t = self.build(keys)
        s = self.build(k for k in keys if k not in missing)
        stats = {}
        got = list(complement_iter(t, s, stats))
        assert got == sorted((k,) for k in missing)
        assert stats["visits"] < t.size
        bound = 8 * (len(missing) + 1) * math.ceil(math.log2(t.size))
        assert stats["visits"] <= bound

    def test_subset_violation_detected_with_interval(self):
        t = self.build([1, 2, 3])
        s = self.build([1, 2, 3, 99])
        with pytest.raises(IntegrityError) as err:
            list(complement_iter(t, s))
        assert "[" in str(err.value)


class TestInsertSorted:
    def check(self, t, ref):
        t.audit()
        got = t.range_scan((KEY_MIN,), (KEY_MAX,))
        assert dict(t.records()) == ref
        assert (got is EMPTY) == (not ref)

    @pytest.mark.parametrize("op", [MAX_OP, GROUP_SUM_OP])
    def test_random_batches_match_reference(self, op):
        rng = random.Random(18)
        for leaf_target in (1, 3, 12):
            t = ScanTree(op, leaf_target=leaf_target)
            ref = {}
            for step in range(60):
                shape = step % 4
                if shape == 0 and ref:  # all on one side of the tree
                    top = max(ref)[0]
                    keys = {top + rng.randrange(1, 500) for _ in range(rng.randrange(1, 60))}
                elif shape == 1 and ref:  # many keys into one leaf's gap
                    lo = rng.choice(list(ref))[0]
                    keys = {lo + rng.random() for _ in range(5 * leaf_target)}
                elif shape == 2 and ref:  # keys already present mixed in
                    keys = set(rng.sample([k[0] for k in ref], min(len(ref), 20)))
                    keys |= {rng.randrange(10**4) for _ in range(20)}
                else:
                    keys = {rng.randrange(10**4) for _ in range(rng.randrange(0, 80))}
                batch = [((k,), rng.randrange(-(2**62), 2**62)) for k in sorted(keys)]
                # a present key comes with its own value, which is skipped
                batch = [(k, ref.get(k, v)) for k, v in batch]
                want = sum(1 for k, _ in batch if k not in ref)
                for k, v in batch:
                    ref.setdefault(k, v)
                assert t.apply_sorted(batch) == want
                assert t.size == len(ref)
                self.check(t, ref)
            for _ in range(200):
                a, b = sorted((rng.randrange(10**4), rng.randrange(10**4)))
                want = [v for (k,), v in ref.items() if a <= k <= b]
                got = t.range_scan((a,), (b,))
                if not want:
                    assert got is EMPTY
                elif op is MAX_OP:
                    assert got == max(want)
                else:
                    total = 0
                    for v in want:
                        total = wrap64(total + v)
                    assert got == total

    def test_batch_into_empty_tree_is_bulk_built(self):
        t = ScanTree(COUNT_OP, leaf_target=4)
        assert t.apply_sorted([((k,), None) for k in range(100)]) == 100
        t.audit()
        assert t.stats["rebuilds"] == 0
        assert height(t) <= math.ceil(math.log2(100 / 4)) + 1

    def test_single_insert_splits_a_full_leaf_in_halves(self):
        t = ScanTree(COUNT_OP, leaf_target=2)
        for k in (1, 2, 3, 4):
            t.insert((k,))
        assert t.root.count == 4 and not hasattr(t.root, "left")
        before, rebuilds = tree_nodes(t), t.stats["rebuilds"]
        t.insert((5,))
        assert [lf.count for lf in (t.root.left, t.root.right)] == [2, 3]
        # the split's root is the only new internal node: no path recompute
        assert new_internal_ranges(t, before) == [((1,), (5,))]
        assert t.stats["rebuilds"] == rebuilds

    def test_overflowing_leaf_splits_recursively(self):
        t = ScanTree(COUNT_OP, leaf_target=2)
        t.apply_sorted([((0,), None), ((100,), None)])
        assert t.apply_sorted([((k,), None) for k in range(1, 21)]) == 20
        t.audit()
        leaves = []
        stack = [t.root]
        while stack:
            node = stack.pop()
            if hasattr(node, "left"):
                stack += [node.left, node.right]
            else:
                leaves.append(node.count)
        assert sum(leaves) == 22 and max(leaves) <= 4


def fold_all(op, values):
    agg = EMPTY
    for v in values:
        c = op.fold([v])
        agg = c if agg is EMPTY else op.combine(agg, c)
    return agg


class TestApplySorted:
    OPS = [MAX_OP, MIN_OP, COUNT_OP, GROUP_SUM_OP]

    def random_batch(self, rng, ref, leaf_target):
        """key -> value or ABSENT, mixing every kind of edit."""
        keys = sorted(ref)
        edits = {}
        for k in rng.sample(keys, min(len(keys), rng.randrange(0, 12))):
            edits[k] = rng.choice(
                [ABSENT, ref[k], rng.randrange(-(2**62), 2**62)]
            )  # erase, set to the same value, set to another value
        for _ in range(rng.randrange(0, 20)):  # inserts of absent keys
            k = (rng.randrange(10**4),)
            if k not in ref:
                edits[k] = rng.randrange(-(2**62), 2**62)
        if keys and rng.random() < 0.3:  # a run that overflows a leaf
            base = rng.choice(keys)[0]
            for _ in range(3 * leaf_target + 1):
                edits[(base + rng.random(),)] = rng.randrange(100)
        if keys and rng.random() < 0.2:  # erase a run: a leaf or a subtree
            i = rng.randrange(len(keys))
            for k in keys[i : i + rng.choice([leaf_target, 4 * leaf_target, len(keys)])]:
                edits[k] = ABSENT
        return sorted(edits.items())

    @pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
    @pytest.mark.parametrize("leaf_target", [1, 3, 12])
    def test_random_batches_match_dict_model(self, op, leaf_target):
        rng = random.Random(19 + leaf_target)
        t = ScanTree(op, leaf_target=leaf_target)
        ref = {}
        for step in range(80):
            batch = self.random_batch(rng, ref, leaf_target)
            added = sum(1 for k, v in batch if v is not ABSENT and k not in ref)
            for k, v in batch:
                if v is ABSENT:
                    del ref[k]
                else:
                    ref[k] = v
            assert t.apply_sorted(batch) == added, f"step {step}"
            t.audit()
            assert t.size == len(ref)
            assert list(t.records()) == sorted(ref.items())
            got = t.range_scan((KEY_MIN,), (KEY_MAX,))
            assert got == fold_all(op, ref.values())
            for _ in range(5):
                a, b = sorted((rng.randrange(10**4), rng.randrange(10**4)))
                want = fold_all(op, (v for (k,), v in ref.items() if a <= k <= b))
                assert t.range_scan((a,), (b,)) == want

    def test_erasing_everything_empties_the_tree(self):
        t = ScanTree(MAX_OP, leaf_target=2)
        t.apply_sorted([((k,), k) for k in range(40)])
        assert t.apply_sorted([((k,), ABSENT) for k in range(40)]) == 0
        assert t.root is None and t.size == 0
        assert t.range_scan((KEY_MIN,), (KEY_MAX,)) is EMPTY

    def test_erases_into_an_empty_tree_are_dropped(self):
        """An erase of an absent key is a no-op into an empty tree too.

        The bulk path built it as a live record: ``size`` read 1, ``find``
        gave ``(ABSENT,)`` and ``audit`` failed.
        """
        t = ScanTree(MAX_OP)
        assert t.apply_sorted([((1,), ABSENT)]) == 0
        assert t.root is None and t.size == 0 and t.find((1,)) is None
        t.audit()
        assert t.apply_sorted([((1,), ABSENT), ((2,), 5), ((3,), ABSENT)]) == 1
        assert list(t.records()) == [((2,), 5)] and t.size == 1
        t.audit()
        # the same erases into the filled tree: also no-ops
        assert t.apply_sorted([((1,), ABSENT), ((3,), ABSENT)]) == 0
        assert list(t.records()) == [((2,), 5)] and t.size == 1

    @pytest.mark.parametrize("leaf_target", [1, 3, 12])
    def test_reapplying_present_records_changes_nothing(self, leaf_target):
        rng = random.Random(20)
        t = ScanTree(MAX_OP, leaf_target=leaf_target)
        for _ in range(5):  # grown in batches, so the shape is not a bulk build
            t.apply_sorted(sorted({(rng.randrange(10**4),): 1 for _ in range(80)}.items()))
        nodes, rebuilds = tree_nodes(t), t.stats["rebuilds"]
        for batch in (list(t.records()), rng.sample(list(t.records()), 30)):
            assert t.apply_sorted(sorted(batch)) == 0
            assert t.stats["rebuilds"] == rebuilds
            after = tree_nodes(t)
            assert len(after) == len(nodes)
            assert all(a is b for a, b in zip(after, nodes))

    def test_single_erase_recomputes_exactly_the_path(self):
        t = eight_leaf_tree([3, 9, 4, 1, 7, 2, 8, 5])
        before, rebuilds = tree_nodes(t), t.stats["rebuilds"]
        t.erase((5,))
        assert t.stats["rebuilds"] == rebuilds
        # the emptied leaf's sibling takes its parent's place
        assert new_internal_ranges(t, before) == [((1,), (8,)), ((6,), (8,))]
        assert t.range_scan((1,), (8,)) == 9
        t.audit()

    @pytest.mark.parametrize(
        "batch",
        [
            [((2,), 1), ((1,), 1)],  # descending
            [((1,), 1), ((1,), 2)],  # a repeated key
            [((5,), ABSENT), ((3,), 1), ((9,), 1)],
        ],
        ids=["descending", "repeated", "erase_then_lower"],
    )
    @pytest.mark.parametrize("filled", [False, True], ids=["empty", "filled"])
    def test_keys_out_of_order_are_refused_before_any_change(self, batch, filled):
        t = ScanTree(MAX_OP, leaf_target=2)
        if filled:
            t.apply_sorted([((k,), k) for k in range(10)])
        nodes, size = tree_nodes(t), t.size
        with pytest.raises(UserError, match="batch keys not increasing"):
            t.apply_sorted(batch)
        assert t.size == size
        after = tree_nodes(t)
        assert len(after) == len(nodes)
        assert all(a is b for a, b in zip(after, nodes))
        if filled:
            t.audit()
            assert t.find((1,)) == (1,)
