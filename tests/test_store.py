import hashlib
import math
import random

import pytest

from leapjoin.errors import IntegrityError, UserError
from leapjoin.store import ERASE, INSERT, Relation, delta_iter, surgery_iter


def fill(rel, tuples, value=None):
    txn = rel.begin()
    for t in tuples:
        txn.insert(t, value)
    return txn.commit()


class TestTransactions:
    def test_empty_begin_commit_shares_pages(self):
        rel = Relation("R", 2)
        v0 = rel.current
        v1 = rel.begin().commit()
        assert v1.version_id == 1
        assert v1.root is v0.root
        assert list(v1.records()) == []

    def test_commit_with_no_edits_shares_root(self):
        rel = Relation("R", 2)
        v1 = fill(rel, [(1, 2)])
        v2 = rel.begin().commit()
        assert v2.root is v1.root
        assert set(v2.records()) == {((1, 2), None)}

    def test_insert_then_commit(self):
        rel = Relation("R", 2)
        fill(rel, [(1, 2)])
        txn = rel.begin()
        txn.insert((3, 4))
        v = txn.commit()
        assert sorted(k for k, _ in v.records()) == [(1, 2), (3, 4)]

    def test_erase_absent_is_noop(self):
        rel = Relation("R", 1)
        v1 = fill(rel, [(1,)])
        txn = rel.begin()
        assert txn.erase((9,)) is False
        v2 = txn.commit()
        assert v2.root is v1.root

    def test_insert_then_erase_cancels(self):
        rel = Relation("R", 1)
        v1 = fill(rel, [(1,)])
        txn = rel.begin()
        txn.insert((5,))
        txn.erase((5,))
        v2 = txn.commit()
        assert v2.root is v1.root

    def test_erase_then_reinsert_same_value_cancels(self):
        rel = Relation("F", 1, is_function=True)
        v1 = fill(rel, [(1,), (2,)], value=10)
        txn = rel.begin()
        txn.erase((1,))
        assert txn.lookup((1,)) is None
        txn.insert((1,), 10)
        assert txn.lookup((1,)) == (10,)
        v2 = txn.commit()
        assert v2.root is v1.root

    def test_clear_commits_an_empty_version(self):
        rel = Relation("R", 1, leaf_capacity=4)
        v1 = fill(rel, [(k,) for k in range(50)])
        txn = rel.begin()
        txn.insert((99,))
        txn.clear()
        assert txn.lookup((7,)) is None and txn.lookup((99,)) is None
        v2 = txn.commit()
        assert (v2.version_id, v2.root, v2.count) == (v1.version_id + 1, None, 0)
        assert [d.delta for d in delta_iter(v1, v2)] == [ERASE] * 50
        txn = rel.begin()
        txn.clear()
        txn.insert((3,))
        v3 = txn.commit()
        assert list(v3.records()) == [((3,), None)]

    def test_arity_mismatch_rejected(self):
        rel = Relation("R", 2)
        txn = rel.begin()
        with pytest.raises(UserError):
            txn.insert((1,))
        txn.abort()

    def test_function_value_conflict_rejected(self):
        rel = Relation("F", 1, is_function=True)
        fill(rel, [(1,)], value=10)
        txn = rel.begin()
        with pytest.raises(UserError):
            txn.insert((1,), 20)
        # erase-then-insert expresses a value change
        txn.erase((1,), 10)
        txn.insert((1,), 20)
        v = txn.commit()
        assert list(v.records()) == [((1,), 20)]

    def test_single_writer(self):
        rel = Relation("R", 1)
        txn = rel.begin()
        with pytest.raises(UserError):
            rel.begin()
        txn.abort()
        rel.begin().abort()

    def test_random_edit_script_matches_sorted_set(self):
        rng = random.Random(0)
        rel = Relation("R", 3, leaf_capacity=8)
        ref = set()
        for _ in range(40):
            txn = rel.begin()
            for _ in range(rng.randrange(1, 80)):
                t = tuple(rng.randrange(12) for _ in range(3))
                if rng.random() < 0.55:
                    txn.insert(t)
                    ref.add((t, None))
                else:
                    txn.erase(t)
                    ref.discard((t, None))
            v = txn.commit()
            assert set(v.records()) == ref
            assert v.count == len(ref)


def tree_shape(node):
    """Nested page structure: a leaf as its records, a branch as a list."""
    if node is None:
        return None
    if hasattr(node, "records"):
        return tuple(node.records)
    return [tree_shape(c) for c in node.children]


class TestWriteSorted:
    @pytest.mark.parametrize("base_size", [0, 300])
    def test_batch_commit_equals_per_key_commit(self, base_size):
        rng = random.Random(base_size + 7)
        per_key = Relation("F", 2, is_function=True, leaf_capacity=6)
        batched = Relation("F", 2, is_function=True, leaf_capacity=6)
        base = {}
        while len(base) < base_size:
            base[(rng.randrange(40), rng.randrange(40))] = rng.randrange(5)
        for rel in (per_key, batched):
            txn = rel.begin()
            for keys, value in base.items():
                txn.insert(keys, value)
            txn.commit()
        for round_ in range(12):
            writes = {}
            for _ in range(rng.randrange(1, 120)):
                keys = (rng.randrange(40), rng.randrange(40))
                value = rng.randrange(5)
                if keys in base and rng.random() < 0.5:
                    writes[keys] = ("-", base[keys])
                elif base.get(keys) != value:  # a final write changes its key
                    writes[keys] = ("+", value)
            txn = per_key.begin()
            for keys, (op, value) in writes.items():
                txn.erase(keys)
                if op == "+":
                    txn.insert(keys, value)
                    base[keys] = value
                else:
                    del base[keys]
            v1 = txn.commit()
            txn = batched.begin()
            txn.write_sorted(sorted((k, op, v) for k, (op, v) in writes.items()))
            v2 = txn.commit()
            assert list(v2.records()) == list(v1.records()) == sorted(base.items())
            assert tree_shape(v2.root) == tree_shape(v1.root), f"round {round_}"
            assert batched.stats == per_key.stats

    def test_a_transaction_stages_one_form(self):
        rel = Relation("F", 1, is_function=True)
        fill(rel, [(1,), (2,)], value=10)
        txn = rel.begin()
        assert txn.reader() == rel.current.lookup
        txn.write_sorted([((1,), "-", 10), ((4,), "+", 40)])
        for refused in (
            lambda: txn.write_sorted([((5,), "+", 50)]),
            lambda: txn.insert((5,), 50),
            lambda: txn.erase((2,)),
            lambda: txn.lookup((2,)),
        ):
            with pytest.raises(UserError, match="F: transaction holds a sorted batch"):
                refused()
        assert list(txn.commit().records()) == [((2,), 10), ((4,), 40)]
        txn = rel.begin()
        txn.erase((2,))
        with pytest.raises(UserError, match="F: transaction holds per-key edits"):
            txn.write_sorted([((5,), "+", 50)])
        assert list(txn.commit().records()) == [((4,), 40)]

    def test_empty_transaction_reads_as_empty(self):
        rel = Relation("R", 1)
        assert rel.begin().reader() is None

    @pytest.mark.parametrize(
        "writes,message",
        [
            ([((1,), "+", None)], "R: expected arity 2, got 1"),
            ([((1, 2**63), "+", None)], "key 9223372036854775808 outside storable"),
            ([((1, 2), "+", 5)], "R: relation tuples carry no value"),
            ([((1, 2), "+", None), ((1, 2), "-", None)], "R: batch keys not incr"),
            ([((2, 2), "+", None), ((1, 2), "+", None)], "R: batch keys not incr"),
        ],
    )
    def test_batch_errors_stage_nothing(self, writes, message):
        rel = Relation("R", 2)
        fill(rel, [(0, 0)])
        txn = rel.begin()
        with pytest.raises(UserError, match=message):
            txn.write_sorted(iter(writes))
        v = txn.commit()
        assert list(v.records()) == [((0, 0), None)]

    def test_function_batch_needs_values(self):
        rel = Relation("F", 1, is_function=True)
        txn = rel.begin()
        with pytest.raises(UserError, match="F: function tuple requires a value"):
            txn.write_sorted([((1,), "+", None)])
        txn.abort()

    def test_closed_transaction_rejects_a_batch(self):
        rel = Relation("R", 1)
        txn = rel.begin()
        txn.commit()
        with pytest.raises(UserError, match="transaction already closed"):
            txn.write_sorted([((1,), "+", None)])


# sha256 of everything page_shape_digest() feeds it, pinned before the
# leaf and branch builders were folded into one packer; a change to how
# a commit cuts or counts pages moves it
PAGE_SHAPE_DIGEST = "af47b60c85a4aefb5a60d5f58c076fce4d9d9e219f13cb1995d37f138616394c"


def page_shape_digest():
    """Hash each version's page shape and pages_allocated over random rounds.

    Per leaf capacity: 60 rounds of per-key inserts, erases and value
    changes, a few of them on a cleared workspace, in sizes from one
    edit to a few hundred, so leaves and branches both split and merge.
    """
    h = hashlib.sha256()
    for cap in (2, 3, 6, 16, 64):
        rng = random.Random(f"pages-{cap}")
        rel = Relation("F", 2, is_function=True, leaf_capacity=cap)
        for round_ in range(60):
            txn = rel.begin()
            if rng.random() < 0.05:
                txn.clear()
            for _ in range(rng.choice([1, 3, 20, 200, 600])):
                keys = (rng.randrange(40), rng.randrange(40))
                cur = txn.lookup(keys)
                if cur is None:
                    txn.insert(keys, rng.randrange(5))
                elif rng.random() < 0.7:
                    txn.erase(keys)
                else:
                    txn.erase(keys)
                    txn.insert(keys, rng.randrange(5))
            v = txn.commit()
            h.update(repr((cap, round_, tree_shape(v.root), v.count)).encode())
            h.update(repr(rel.stats).encode())
    return h.hexdigest()


class TestPageShapeDigest:
    def test_page_shapes_match_pinned_digest(self):
        assert page_shape_digest() == PAGE_SHAPE_DIGEST


class TestStructuralSharing:
    def test_small_commit_allocates_few_pages(self):
        rng = random.Random(1)
        rel = Relation("R", 1, leaf_capacity=32)
        fill(rel, [(k,) for k in range(10_000)])
        before = rel.stats["pages_allocated"]
        txn = rel.begin()
        txn.insert((10_100,))
        txn.erase((55,))
        txn.commit()
        allocated = rel.stats["pages_allocated"] - before
        assert allocated <= 4 * 6  # k=2 edits, height is tiny

    def test_untouched_subtrees_are_same_objects(self):
        rel = Relation("R", 1, leaf_capacity=8)
        v1 = fill(rel, [(k,) for k in range(1000)])
        txn = rel.begin()
        txn.insert((5000,))
        v2 = txn.commit()
        shared = set(map(id, _all_nodes(v1.root))) & set(map(id, _all_nodes(v2.root)))
        assert len(shared) > 0.8 * len(list(_all_nodes(v1.root)))


def _all_nodes(root):
    out, stack = [], [root] if root is not None else []
    while stack:
        n = stack.pop()
        out.append(n)
        if hasattr(n, "children"):
            stack.extend(n.children)
    return out


class TestDeltaIter:
    def test_identical_versions_touch_nothing(self):
        rel = Relation("R", 1)
        v = fill(rel, [(k,) for k in range(100)])
        stats = {}
        assert list(delta_iter(v, v, stats)) == []
        assert stats.get("pages", 0) == 0

    def test_paper_version_pair(self):
        rel = Relation("A", 3, leaf_capacity=4)
        v1 = fill(
            rel,
            [(0, 30, 80), (0, 30, 81), (1, 35, 60), (1, 35, 61),
             (3, 40, 90), (3, 50, 91), (3, 50, 92)],
        )
        txn = rel.begin()
        for t in [(0, 30, 81), (3, 40, 90), (3, 50, 92)]:
            txn.erase(t)
        txn.insert((4, 60, 71))
        v2 = txn.commit()
        got = [(d.delta, d.keys) for d in delta_iter(v1, v2)]
        assert got == [
            (ERASE, (0, 30, 81)),
            (ERASE, (3, 40, 90)),
            (ERASE, (3, 50, 92)),
            (INSERT, (4, 60, 71)),
        ]

    def test_random_pairs_match_set_difference(self):
        rng = random.Random(2)
        rel = Relation("R", 2, leaf_capacity=8)
        for _ in range(25):
            txn = rel.begin()
            for _ in range(rng.randrange(1, 60)):
                t = (rng.randrange(20), rng.randrange(20))
                if rng.random() < 0.5:
                    txn.insert(t)
                else:
                    txn.erase(t)
            txn.commit()
        for _ in range(40):
            i, j = sorted(rng.sample(range(len(rel.versions)), 2))
            old, new = rel.versions[i], rel.versions[j]
            got = list(delta_iter(old, new))
            olds, news = set(old.records()), set(new.records())
            assert {(d.keys, d.value) for d in got if d.delta == ERASE} == olds - news
            assert {(d.keys, d.value) for d in got if d.delta == INSERT} == news - olds
            keys = [d.keys for d in got]
            assert keys == sorted(keys)

    def test_value_change_is_erase_then_insert(self):
        rel = Relation("F", 1, is_function=True)
        v1 = fill(rel, [(7,)], value=1)
        txn = rel.begin()
        txn.erase((7,), 1)
        txn.insert((7,), 2)
        v2 = txn.commit()
        got = [(d.delta, d.keys, d.value) for d in delta_iter(v1, v2)]
        assert got == [(ERASE, (7,), 1), (INSERT, (7,), 2)]

    def test_lineage_mismatch_rejected(self):
        a, b = Relation("A", 1), Relation("B", 1)
        va, vb = fill(a, [(1,)]), fill(b, [(1,)])
        with pytest.raises(UserError):
            list(delta_iter(va, vb))

    def test_page_touch_bound(self):
        rng = random.Random(3)
        rel = Relation("R", 1, leaf_capacity=32)
        fill(rel, [(k,) for k in rng.sample(range(10**6), 10_000)])
        for deltas in (1, 3, 10, 40):
            base = rel.current
            txn = rel.begin()
            for _ in range(deltas):
                k = rng.randrange(10**6)
                if rng.random() < 0.5:
                    txn.insert((k,))
                else:
                    txn.erase((k,))
            new = txn.commit()
            stats = {}
            d = len(list(delta_iter(base, new, stats)))
            n = max(base.count, new.count)
            bound = 8 * (d + 1) * math.ceil(math.log2(n + 2))
            assert stats.get("pages", 0) <= bound, (stats, d, bound)


class TestSurgeryIter:
    def test_paper_surgeries(self):
        rel = Relation("A", 3, leaf_capacity=4)
        v1 = fill(
            rel,
            [(0, 30, 80), (0, 30, 81), (1, 35, 60), (1, 35, 61),
             (3, 40, 90), (3, 50, 91), (3, 50, 92)],
        )
        txn = rel.begin()
        for t in [(0, 30, 81), (3, 40, 90), (3, 50, 92)]:
            txn.erase(t)
        txn.insert((4, 60, 71))
        v2 = txn.commit()
        got = [(s.delta, s.prefix) for s in surgery_iter(v1, v2)]
        assert got == [
            (ERASE, (0, 30, 81)),
            (ERASE, (3, 40, 90)),
            (ERASE, (3, 40)),
            (ERASE, (3, 50, 92)),
            (INSERT, (4,)),
            (INSERT, (4, 60)),
            (INSERT, (4, 60, 71)),
        ]

    def test_insert_into_empty_creates_full_branch(self):
        rel = Relation("R", 3)
        v0 = rel.current
        v1 = fill(rel, [(1, 2, 3)])
        got = [(s.delta, s.prefix) for s in surgery_iter(v0, v1)]
        assert got == [(INSERT, (1,)), (INSERT, (1, 2)), (INSERT, (1, 2, 3))]

    def test_random_pairs_match_trie_node_diff(self):
        rng = random.Random(4)
        rel = Relation("R", 3, leaf_capacity=4)
        for _ in range(20):
            txn = rel.begin()
            for _ in range(rng.randrange(1, 40)):
                t = tuple(rng.randrange(6) for _ in range(3))
                if rng.random() < 0.5:
                    txn.insert(t)
                else:
                    txn.erase(t)
            txn.commit()

        def trie_nodes(version):
            nodes = set()
            for keys, _ in version.records():
                for d in range(1, 4):
                    nodes.add(keys[:d])
            return nodes

        for _ in range(30):
            i, j = sorted(rng.sample(range(len(rel.versions)), 2))
            old, new = rel.versions[i], rel.versions[j]
            got = list(surgery_iter(old, new))
            olds, news = trie_nodes(old), trie_nodes(new)
            assert {s.prefix for s in got if s.delta == ERASE} == olds - news
            assert {s.prefix for s in got if s.delta == INSERT} == news - olds
            # replaying against the old node set yields the new node set
            replay = set(olds)
            for s in got:
                if s.delta == ERASE:
                    assert s.prefix in replay
                    replay.discard(s.prefix)
                else:
                    assert s.prefix not in replay
                    replay.add(s.prefix)
            assert replay == news


class TestTrieCursor:
    def test_open_next_seek_on_unary(self):
        rel = Relation("A", 1)
        v = fill(rel, [(k,) for k in [0, 2, 4, 5, 6]])
        c = v.cursor()
        c.open()
        assert c.key() == 0
        c.seek_lub(3)
        assert c.key() == 4
        c.seek_lub(4)  # no motion needed
        assert c.key() == 4
        c.seek_lub(6)
        assert c.key() == 6
        c.next()
        assert c.at_end()

    def test_walk_enumerates_records_in_order(self):
        rng = random.Random(5)
        rel = Relation("R", 3, leaf_capacity=4)
        v = fill(rel, {tuple(rng.randrange(8) for _ in range(3)) for _ in range(120)})
        out = []

        def walk(c, prefix):
            c.open()
            while not c.at_end():
                if c.depth == c.arity:
                    out.append(prefix + (c.key(),))
                else:
                    walk(c, prefix + (c.key(),))
                c.next()
            c.up()

        walk(v.cursor(), ())
        assert out == sorted(k for k, _ in v.records())

    def test_up_restores_outer_position(self):
        rel = Relation("R", 2)
        v = fill(rel, [(1, 10), (1, 20), (2, 30)])
        c = v.cursor()
        c.open()
        assert c.key() == 1
        c.open()
        c.next()
        assert c.key() == 20
        c.next()
        assert c.at_end()
        c.up()
        assert c.key() == 1
        c.next()
        assert c.key() == 2

    def test_open_on_empty_relation_is_at_end(self):
        rel = Relation("R", 1)
        c = rel.current.cursor()
        c.open()
        assert c.at_end()

    def test_values_visible_at_leaf(self):
        rel = Relation("F", 2, is_function=True)
        v = fill(rel, [(1, 2)], value=42)
        c = v.cursor()
        c.open()
        c.open()
        assert c.key() == 2 and c.value() == 42


class _LevelModel:
    """A sorted-list model of one trie level under a fixed prefix."""

    def __init__(self, keys, prefix):
        d = len(prefix)
        self.prefix = prefix
        self.keys = sorted({t[d] for t in keys if t[:d] == prefix})
        self.i = 0

    def ended(self):
        return self.i >= len(self.keys)

    def key(self):
        return self.keys[self.i]


class TestTrieCursorRandomized:
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_random_calls_match_sorted_list_model(self, arity):
        rng = random.Random(71 + arity)
        dom = {1: 40, 2: 9, 3: 5}[arity]
        for _ in range(30):
            rel = Relation("R", arity, is_function=True, leaf_capacity=2)
            rows = {
                tuple(rng.randrange(dom) for _ in range(arity))
                for _ in range(rng.randrange(0, 50))
            }
            v = fill(rel, rows, value=1)
            # a second commit reshapes pages by copy-on-write merge and split
            txn = rel.begin()
            for _ in range(rng.randrange(0, 20)):
                keys = tuple(rng.randrange(dom) for _ in range(arity))
                if rng.random() < 0.5:
                    txn.erase(keys)
                elif txn.lookup(keys) is None:
                    txn.insert(keys, rng.randrange(100))
            v = txn.commit()
            records = dict(v.records())
            c = v.cursor()
            stack = []  # one _LevelModel per open level
            for _ in range(200):
                top = stack[-1] if stack else None
                moves = []
                if len(stack) < arity and (top is None or not top.ended()):
                    moves.append("open")
                if stack:
                    moves.append("up")
                if top is not None and not top.ended():
                    moves += ["next", "next", "seek", "seek"]
                move = rng.choice(moves)
                if move == "open":
                    c.open()
                    prefix = () if top is None else top.prefix + (top.key(),)
                    stack.append(_LevelModel(records, prefix))
                elif move == "up":
                    c.up()
                    stack.pop()
                elif move == "next":
                    got = c.next()
                    top.i += 1
                    assert got == top.ended()
                else:
                    k = rng.randrange(-2, dom + 2)
                    got = c.seek_lub(k)
                    if k > top.key():
                        while not top.ended() and top.key() < k:
                            top.i += 1
                    assert got == top.ended()
                assert c.depth == len(stack)
                if stack:
                    top = stack[-1]
                    assert c.at_end() == top.ended()
                    if not top.ended():
                        assert c.key() == top.key()
                        if c.depth == arity:
                            full = top.prefix + (top.key(),)
                            assert c.value() == records[full]
                    else:
                        with pytest.raises(IntegrityError):
                            c.key()
