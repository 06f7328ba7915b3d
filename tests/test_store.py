import bisect
import gc
import hashlib
import math
import random
import weakref

import pytest

from leapjoin import store
from leapjoin.errors import IntegrityError, UserError
from leapjoin.keys import KEY_MAX, KEY_MIN, check_storable_tuple
from leapjoin.scantree import ABSENT
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


class TestNaNValues:
    """A NaN equals nothing, so no erase could ever match it: it is refused."""

    def test_insert_refuses_nan(self):
        rel = Relation("F", 1, is_function=True)
        txn = rel.begin()
        with pytest.raises(UserError, match=r"F: value nan at key \(1,\) is not eq"):
            txn.insert((1,), math.nan)
        assert txn.commit().count == 0

    def test_batch_refuses_nan(self):
        rel = Relation("F", 1, is_function=True)
        txn = rel.begin()
        with pytest.raises(UserError, match=r"F: value nan at key \(2,\) is not eq"):
            txn.write_sorted([((1,), 1.5), ((2,), math.nan)])
        assert txn.commit().count == 0


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
                    writes[keys] = ABSENT
                elif base.get(keys) != value:  # a final write changes its key
                    writes[keys] = value
            txn = per_key.begin()
            for keys, value in writes.items():
                txn.erase(keys)
                if value is not ABSENT:
                    txn.insert(keys, value)
                    base[keys] = value
                else:
                    del base[keys]
            v1 = txn.commit()
            txn = batched.begin()
            txn.write_sorted(sorted(writes.items()))
            v2 = txn.commit()
            assert list(v2.records()) == list(v1.records()) == sorted(base.items())
            assert tree_shape(v2.root) == tree_shape(v1.root), f"round {round_}"
            assert batched.stats == per_key.stats

    def test_a_transaction_stages_one_form(self):
        rel = Relation("F", 1, is_function=True)
        fill(rel, [(1,), (2,)], value=10)
        txn = rel.begin()
        assert txn.reader() == rel.current.lookup
        txn.write_sorted([((1,), ABSENT), ((4,), 40)])
        for refused in (
            lambda: txn.write_sorted([((5,), 50)]),
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
            txn.write_sorted([((5,), 50)])
        assert list(txn.commit().records()) == [((4,), 40)]

    def test_empty_transaction_reads_as_empty(self):
        rel = Relation("R", 1)
        assert rel.begin().reader() is None

    @pytest.mark.parametrize(
        "writes,message",
        [
            ([((1,), None)], "R: expected arity 2, got 1"),
            ([((1, 2**63), None)], "key 9223372036854775808 outside storable"),
            ([((1, 2), 5)], "R: relation tuples carry no value"),
            ([((1, 2), None), ((1, 2), ABSENT)], "R: batch keys not incr"),
            ([((2, 2), None), ((1, 2), None)], "R: batch keys not incr"),
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
            txn.write_sorted([((1,), None)])
        txn.abort()

    def test_closed_transaction_rejects_a_batch(self):
        rel = Relation("R", 1)
        txn = rel.begin()
        txn.commit()
        with pytest.raises(UserError, match="transaction already closed"):
            txn.write_sorted([((1,), None)])



def checked_one_by_one(rel, writes):
    """The batch ``write_sorted`` stages, or the error it raises, from a
    check of one write at a time as each is read."""
    arity, func, name = rel.arity, rel.is_function, rel.name
    batch, prev = [], ()
    try:
        for write in writes:
            keys, value = write
            if value is not ABSENT:
                if len(keys) != arity:
                    raise UserError(f"{name}: expected arity {arity}, got {len(keys)}")
                check_storable_tuple(keys)
                if func and value is None:
                    raise UserError(f"{name}: function tuple requires a value")
                if not func and value is not None:
                    raise UserError(f"{name}: relation tuples carry no value")
                if value != value:
                    raise UserError(
                        f"{name}: value {value!r} at key {keys} is not equal to itself"
                    )
            if keys <= prev:
                raise UserError(f"{name}: batch keys not increasing at {keys}")
            prev = keys
            batch.append(write)
    except Exception as e:
        return type(e), str(e)
    return batch


def raising_after(writes, n):
    """A generator of writes that raises once it has yielded n of them."""
    yield from writes[:n]
    raise RuntimeError(f"writer failed after {n}")


class TestWriteSortedChecks:
    """write_sorted stages a list as it is, exactly when a check of one
    write at a time accepts it, and raises that check's error; a
    generator that raises part-way raises the error of a faulty write
    read before it, else its own."""

    ODD_KEYS = [
        True,
        False,
        KEY_MIN,
        KEY_MAX,
        KEY_MIN + 1,
        KEY_MAX - 1,
        2**62,
        -(2**62),
        2**63,
        -(2**63) - 1,
        1.5,
        2.0,
        "k",
    ]

    def random_batch(self, rng, arity, func):
        keys = sorted(
            {tuple(rng.randrange(-5, 30) for _ in range(arity)) for _ in range(12)}
        )
        writes = []
        for k in keys:
            roll = rng.random()
            if roll < 0.15:
                value = ABSENT
            elif func:
                value = rng.choice([1, -7, 2.5, (1, 2), "v"])
            else:
                value = None
            writes.append((k, value))
        for _ in range(rng.choice([0, 0, 0, 1, 2])):  # one or two faults
            i = rng.randrange(len(writes))
            k, value = writes[i]
            fault = rng.randrange(6)
            if fault == 0:  # wrong arity
                k = k + (1,) if rng.random() < 0.5 else k[:-1]
            elif fault == 1:  # an odd key, which may be storable
                j = rng.randrange(arity)
                k = k[:j] + (rng.choice(self.ODD_KEYS),) + k[j + 1 :]
            elif fault == 2:  # a value of the wrong kind
                value = 5 if not func else None
            elif fault == 3:
                value = math.nan if func else ABSENT
            elif fault == 4 and i:  # a duplicate key
                k = writes[i - 1][0]
            elif fault == 5 and i:  # a decreasing key
                writes[i - 1], (k, value) = (k, value), writes[i - 1]
            writes[i] = (k, value)
        return writes

    def staged(self, rel, writes):
        txn = rel.begin()
        try:
            txn.write_sorted(writes)
        except Exception as e:
            assert txn._batch is None  # a refused batch stages nothing
            return type(e), str(e)
        finally:
            txn.abort()
        return txn._batch

    @pytest.mark.parametrize("arity", [1, 3])
    @pytest.mark.parametrize("func", [False, True])
    def test_random_batches_match_one_by_one(self, arity, func):
        rng = random.Random(f"checks-{arity}-{func}")
        rel = Relation("F" if func else "R", arity, is_function=func)
        refused = 0
        for trial in range(400):
            writes = self.random_batch(rng, arity, func)
            want = checked_one_by_one(rel, writes)
            got = self.staged(rel, writes)
            assert got == want, (trial, writes)
            if isinstance(want, list):
                assert got is writes  # a list is staged as it is
            else:
                refused += 1
            n = rng.randrange(len(writes) + 1)
            want = checked_one_by_one(rel, raising_after(writes, n))
            assert self.staged(rel, raising_after(writes, n)) == want, (trial, n)
        assert 50 < refused < 350  # both outcomes are exercised

    @pytest.mark.parametrize(
        "writes,want",
        [
            ([((True,), None), ((2,), None)], None),  # bool keys are ints
            ([((KEY_MAX - 1,), None)], None),
            ([((KEY_MIN + 1,), None), ((1,), ABSENT)], None),
            ([((KEY_MAX,), None)], "key 9223372036854775807 outside storable"),
            ([((1,), ABSENT), ((KEY_MIN,), None)], "key -9223372036854775808 out"),
            ([((1.0,), None)], r"key 1.0 outside storable"),
            ([((1,), ABSENT), ((1,), ABSENT)], r"R: batch keys not increasing at \(1"),
            ([((2,), None), ((1,), ABSENT)], r"R: batch keys not increasing at \(1"),
        ],
    )
    def test_edge_keys(self, writes, want):
        rel = Relation("R", 1)
        txn = rel.begin()
        if want is None:
            txn.write_sorted(writes)
            assert txn._batch is writes
        else:
            with pytest.raises(UserError, match=want):
                txn.write_sorted(writes)
        txn.abort()


# sha256 of everything page_shape_digest() feeds it, pinned when a
# commit's root levels came to be cut by the same packer as every other
# page; a change to how a commit cuts or counts pages moves it
PAGE_SHAPE_DIGEST = "4f316ce6d9767e77df138aad28ed2d8090980b1b61b703fd910300694470c3d9"


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


# sha256 of everything single_edit_digest() feeds it, pinned before a
# commit whose edits all fall to one child came to swap that child's slot
# in its branch; both ways must cut and count pages alike
SINGLE_EDIT_DIGEST = "34e9b462849d40d943f47162cab0d7830d28e41fe928587a4c164a653246952c"


class _PageHashes:
    """Hashes a page from its fields and its children's hashes, once per
    page: pages are immutable, and each hashed page is kept alive so its
    id stays its own."""

    def __init__(self):
        self.memo = {}  # id(page) -> (page, hash)

    def __call__(self, node):
        if node is None:
            return None
        hit = self.memo.get(id(node))
        if hit is not None:
            return hit[1]
        if hasattr(node, "records"):
            fields = ("leaf", node.count, node.min_key, node.records)
        else:
            kids = [self(c) for c in node.children]
            fields = ("branch", node.count, node.min_key, node.mins, kids)
        digest = hashlib.sha256(repr(fields).encode()).hexdigest()
        self.memo[id(node)] = (node, digest)
        return digest


def _audit_pages(root, cap):
    """Every branch's mins and count match its children, and no page but
    the root is undersized (a one-run commit relies on the latter)."""
    stack = [(root, True)] if root is not None else []
    while stack:
        node, is_root = stack.pop()
        if hasattr(node, "records"):
            assert node.count == len(node.records) <= 2 * cap
            assert node.min_key == node.records[0][0]
            assert is_root or node.count >= max(1, cap // 2)
        else:
            kids = node.children
            assert node.mins == [c.min_key for c in kids]
            assert node.count == sum(c.count for c in kids)
            assert node.min_key == node.mins[0]
            assert (is_root and len(kids) >= 2) or store._BR_MIN <= len(kids)
            assert len(kids) <= store._BR_MAX
            stack.extend((c, False) for c in kids)


def _single_edit_stream(rng, keys, root):
    """One-edit commits as (op, key) pairs over loaded multiples of 10:
    runs of inserts that split leaves, runs of erases that leave leaves
    undersized, inserts below a child's first key (one at a time below
    the whole relation's, which moves a mins entry at every level),
    erases of a child's first key, edits at the first and last child of
    branches along random paths, and random edits."""
    lo, hi = keys[0][0], keys[-1][0]
    m = rng.randrange(len(keys) // 4, len(keys) // 2)
    for j in range(m, m + 12):  # fill gaps until leaves split
        for r in range(1, 10):
            yield "insert", 10 * j + r
    m = rng.randrange(len(keys) // 2, 3 * len(keys) // 4)
    for j in range(m, m + 90):  # empty a run until leaves are undersized
        yield "erase", 10 * j
    for k in range(1, 6):
        yield "insert", lo - 3 * k  # below every child on the left spine
        yield "insert", hi + 3 * k  # past every child on the right spine
    for _ in range(40):
        node = root
        while hasattr(node, "children"):
            first, last = node.children[0], node.children[-1]
            i = rng.randrange(1, len(node.children))
            yield "erase", node.children[i].min_key[0]  # a child's first key
            yield "insert", first.min_key[0] + 1  # at the first child
            yield "insert", last.min_key[0] + 1  # at the last child
            node = node.children[rng.randrange(len(node.children))]
    for _ in range(150):
        yield rng.choice(["insert", "erase"]), rng.randrange(lo - 20, hi + 20)


def single_edit_digest():
    """Hash every version of a stream of one-edit commits, page by page
    with each branch's mins and count, and pages_allocated after each.

    Per leaf capacity, a bulk load three branch levels deep takes the
    stream of ``_single_edit_stream``; each edit that changes the
    relation is its own commit.
    """
    h = hashlib.sha256()
    for cap, n in ((2, 2400), (64, 40_000)):
        rng = random.Random(f"single-{cap}")
        rel = Relation("R", 1, leaf_capacity=cap)
        txn = rel.begin()
        txn.write_sorted([((10 * k,), None) for k in range(n)])
        v = txn.commit()
        assert _branch_levels(v) >= 3
        page_hash = _PageHashes()
        stream = _single_edit_stream(rng, [k for k, _ in v.records()], v.root)
        for step, (op, key) in enumerate(stream):
            if (v.lookup((key,)) is None) is (op == "erase"):
                continue  # the edit would change nothing
            txn = rel.begin()
            getattr(txn, op)((key,))
            v = txn.commit()
            h.update(repr((cap, step, page_hash(v.root), v.count)).encode())
            h.update(repr(rel.stats).encode())
        _audit_pages(v.root, cap)
    return h.hexdigest()


class TestSingleEditPageShapes:
    def test_single_edit_commits_match_pinned_digest(self):
        assert single_edit_digest() == SINGLE_EDIT_DIGEST


def _branch_fanouts(node, out, root=True):
    """Append the child count of every non-root branch under ``node``."""
    if hasattr(node, "children"):
        if not root:
            out.append(len(node.children))
        for child in node.children:
            _branch_fanouts(child, out, False)
    return out


class TestBulkLoadFanOut:
    def test_every_non_root_branch_holds_min_to_max_children(self):
        # small leaves give many branch pages per load; the sizes step
        # through many remainders of a root level's cut
        for n in range(1, 3000, 13):
            v = fill(Relation("R", 1, leaf_capacity=2), [(k,) for k in range(n)])
            for fanout in _branch_fanouts(v.root, []):
                assert store._BR_MIN <= fanout <= store._BR_MAX, (n, fanout)

    def test_a_graph_sized_load_is_two_branch_levels_deep(self):
        rel = Relation("E", 2)
        v = fill(rel, [(k // 100, k % 100) for k in range(20_000)])
        assert _branch_levels(v) == 2


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
        versions = [rel.current]  # the relation keeps only its current one
        for _ in range(25):
            txn = rel.begin()
            for _ in range(rng.randrange(1, 60)):
                t = (rng.randrange(20), rng.randrange(20))
                if rng.random() < 0.5:
                    txn.insert(t)
                else:
                    txn.erase(t)
            versions.append(txn.commit())
        for _ in range(40):
            i, j = sorted(rng.sample(range(len(versions)), 2))
            old, new = versions[i], versions[j]
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


def _expected_delta(old, new):
    """delta_iter's stream for two key -> value maps, from set difference."""
    out = []
    for keys in sorted(old.keys() | new.keys()):
        if keys in old and (keys not in new or old[keys] != new[keys]):
            out.append((keys, old[keys], ERASE))
        if keys in new and (keys not in old or old[keys] != new[keys]):
            out.append((keys, new[keys], INSERT))
    return out


class TestDeltaIterSharedRuns:
    """Small commits into tall trees leave long runs of shared pages and
    records on both walk stacks; each run is dropped at once."""

    @pytest.mark.parametrize("cap", [2, 3])
    def test_commit_chains_match_set_difference(self, cap):
        rng = random.Random(f"shared-{cap}")
        rel = Relation("F", 2, is_function=True, leaf_capacity=cap)
        model = {}
        history = [(rel.current, {})]
        for round_ in range(60):
            txn = rel.begin()
            if round_ % 2:  # one sorted batch: erases, equal rewrites, changes
                picked = {(rng.randrange(30), rng.randrange(30)) for _ in range(5)}
                picked.update(rng.sample(sorted(model), min(3, len(model))))
                writes = []
                for keys in sorted(picked):
                    roll = rng.random()
                    if keys in model and roll < 0.3:
                        value = ABSENT
                    elif keys in model and roll < 0.6:
                        value = model[keys]  # an equal record, not the same one
                    else:
                        value = rng.randrange(4)
                    writes.append((keys, value))
                txn.write_sorted(writes)
                for keys, value in writes:
                    if value is ABSENT:
                        del model[keys]
                    else:
                        model[keys] = value
            else:  # per-key edits, a few hundred while the tree grows
                for _ in range(rng.choice([1, 2, 150])):
                    keys = (rng.randrange(30), rng.randrange(30))
                    if keys in model:
                        txn.erase(keys)
                        del model[keys]
                    else:
                        model[keys] = rng.randrange(4)
                        txn.insert(keys, model[keys])
            history.append((txn.commit(), dict(model)))
        pairs = [(i, i + 1) for i in range(len(history) - 1)]
        pairs += [tuple(sorted(rng.sample(range(len(history)), 2))) for _ in range(40)]
        for i, j in pairs:
            (old, old_model), (new, new_model) = history[i], history[j]
            got = [(d.keys, d.value, d.delta) for d in delta_iter(old, new)]
            assert got == _expected_delta(old_model, new_model), (i, j)
            back = [(d.keys, d.value, d.delta) for d in delta_iter(new, old)]
            assert back == _expected_delta(new_model, old_model), (j, i)

    def test_equal_rewrite_yields_nothing_and_change_erases_first(self):
        rel = Relation("F", 1, is_function=True, leaf_capacity=2)
        txn = rel.begin()
        txn.write_sorted([((k,), k % 5) for k in range(200)])
        v1 = txn.commit()
        txn = rel.begin()
        txn.write_sorted([((k,), k % 5) for k in range(50, 60)])
        v2 = txn.commit()
        assert v2.root is not v1.root
        assert list(delta_iter(v1, v2)) == []
        txn = rel.begin()
        txn.write_sorted([((55,), 9)])
        v3 = txn.commit()
        got = [(d.delta, d.keys, d.value) for d in delta_iter(v1, v3)]
        assert got == [(ERASE, (55,), 0), (INSERT, (55,), 9)]


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
        versions = [rel.current]  # the relation keeps only its current one
        for _ in range(20):
            txn = rel.begin()
            for _ in range(rng.randrange(1, 40)):
                t = tuple(rng.randrange(6) for _ in range(3))
                if rng.random() < 0.5:
                    txn.insert(t)
                else:
                    txn.erase(t)
            versions.append(txn.commit())

        def trie_nodes(version):
            nodes = set()
            for keys, _ in version.records():
                for d in range(1, 4):
                    nodes.add(keys[:d])
            return nodes

        for _ in range(30):
            i, j = sorted(rng.sample(range(len(versions)), 2))
            old, new = versions[i], versions[j]
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


def _height(version):
    node, h = version.root, 0
    while node is not None:
        h += 1
        node = node.children[0] if hasattr(node, "children") else None
    return h


def _walked(version):
    """The same pages without the commit's log: surgery_iter walks them."""
    return store.RelationVersion(
        version.lineage, version.arity, version.version_id, version.root
    )


def _random_commit(rel, rng, dom):
    """One random commit: per-key edits, a sorted batch, or a clear.
    Returns the version and whether the workspace was cleared."""
    present = dict(rel.current.records())
    fn = rel.is_function

    def draw_value():
        return rng.choice([0, 1, 2, 1.0]) if fn else None

    def draw_keys():
        return tuple(rng.randrange(dom) for _ in range(rel.arity))

    txn = rel.begin()
    cleared = rng.random() < 0.1
    roll = rng.random()
    if cleared:
        txn.clear()
        for _ in range(rng.randrange(4)):
            txn.insert(draw_keys(), draw_value())
    elif roll < 0.5:  # per-key edits
        for _ in range(rng.choice([1, 3, 40])):
            keys, kind = draw_keys(), rng.random()
            cur = txn.lookup(keys)
            if cur is None:
                txn.insert(keys, draw_value())
            elif kind < 0.3:  # erase, then insert another value or an equal one
                txn.erase(keys)
                txn.insert(keys, draw_value() if fn else None)
            else:
                txn.erase(keys)
    else:  # one sorted batch
        picked = {draw_keys() for _ in range(rng.choice([1, 3, 40]))}
        if present and rng.random() < 0.3:  # erase half the keys: pages merge
            picked.update(rng.sample(sorted(present), len(present) // 2))
        writes = []
        for keys in sorted(picked):
            kind = rng.random()
            if kind < 0.3:
                value = ABSENT  # absent keys too
            elif keys in present and kind < 0.5:
                value = present[keys]  # an equal rewrite
            else:
                value = draw_value()
            writes.append((keys, value))
        txn.write_sorted(writes)
    return txn.commit(), cleared


class TestCommitLog:
    """A commit keeps its delta against its base; surgery_iter reads it for
    that pair and walks every other one, with the same output."""

    @pytest.mark.parametrize("arity,is_function", [(1, False), (2, False), (2, True)])
    def test_logged_delta_matches_the_walk(self, arity, is_function):
        rng = random.Random(f"log-{arity}-{is_function}")
        rel = Relation("R", arity, is_function=is_function, leaf_capacity=2)
        heights, logged = set(), 0
        for _ in range(150):
            old = rel.current
            new, cleared = _random_commit(rel, rng, dom=12 if arity == 1 else 6)
            heights.add(_height(new))
            walked = list(delta_iter(old, new))
            want = _expected_delta(dict(old.records()), dict(new.records()))
            assert [(d.keys, d.value, d.delta) for d in walked] == want
            surgeries = list(surgery_iter(old, _walked(new)))
            if old.root is None or cleared:  # a load, or over a cleared workspace
                assert new.log is None
                continue
            logged += 1
            assert new.log[0]() is old
            assert list(store._logged_delta(*new.log[1:])) == walked
            stats = {}
            assert list(surgery_iter(old, new, stats)) == surgeries
            assert stats == {}  # read from the log: no page touched
        assert logged > 100
        assert len(heights) >= 3  # pages split and merged

    def test_value_rewrites(self):
        rel = Relation("F", 1, is_function=True, leaf_capacity=2)
        txn = rel.begin()
        txn.write_sorted([((k,), k) for k in range(10)])
        v1 = txn.commit()
        txn = rel.begin()
        txn.erase((1,))
        txn.insert((1,), 7)  # replaced
        txn.erase((2,))
        txn.insert((2,), 2)  # erased and reinserted equal: no change
        txn.erase((3,))
        v2 = txn.commit()
        txn = rel.begin()
        # equal rewrites, an absent key, a change
        txn.write_sorted(
            [((0,), 0), ((3,), ABSENT), ((4,), 4.0), ((5,), 6), ((11,), ABSENT)]
        )
        v3 = txn.commit()
        for old, new, want in [
            (v1, v2, [(ERASE, (1,), 1), (INSERT, (1,), 7), (ERASE, (3,), 3)]),
            (v2, v3, [(ERASE, (5,), 5), (INSERT, (5,), 6)]),
        ]:
            assert new.log[0]() is old
            logged = store._logged_delta(*new.log[1:])
            assert [(d.delta, d.keys, d.value) for d in logged] == want
            assert list(surgery_iter(old, new)) == list(surgery_iter(old, _walked(new)))

    def test_a_log_keeps_no_base_alive(self):
        rel = Relation("R", 1, leaf_capacity=2)
        base = weakref.ref(fill(rel, [(k,) for k in range(50)]))
        gc.disable()  # reference counting alone must free the base
        try:
            new = fill(rel, [(60,)])
            assert base() is None
        finally:
            gc.enable()
        assert new.log[0]() is None  # any pair into new is walked

    def test_rolled_back_probe_takes_the_walk(self):
        """A version rolled back repeats its id: only identity names a base."""
        rel = Relation("R", 2, leaf_capacity=2)
        fill(rel, [(k, k % 3) for k in range(20)])
        txn = rel.begin()
        txn.insert((4, 0))
        probe = txn.commit()
        rel.current = txn.base  # roll back
        txn = rel.begin()
        txn.erase((4, 1))
        again = txn.commit()  # the probe's id, another change
        txn = rel.begin()
        txn.insert((30, 1))
        after = txn.commit()  # committed on a version with the probe's id
        assert again.version_id == probe.version_id

        def trie_nodes(version):
            return {keys[:d] for keys, _ in version.records() for d in (1, 2)}

        for new in (again, after):
            stats = {}
            got = list(surgery_iter(probe, new, stats))
            assert stats["pages"] > 0  # walked
            assert got == list(surgery_iter(probe, _walked(new)))
            olds, news = trie_nodes(probe), trie_nodes(new)
            assert {s.prefix for s in got if s.delta == ERASE} == olds - news
            assert {s.prefix for s in got if s.delta == INSERT} == news - olds


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


class TestTrieCursorFirstOpen:
    """A first-level open stands at the version's cached first record and
    builds no page path; each move from there must build what it needs.
    The relations span many leaves (capacity 2), so a wrong path shows."""

    @staticmethod
    def version(rows, arity, cap=2):
        return fill(Relation("R", arity, leaf_capacity=cap), rows)

    def test_next_at_the_last_level_right_after_open(self):
        v = self.version([(k,) for k in range(0, 60, 3)], 1)
        c = v.cursor()
        assert c.open() == 0
        assert c.next() == 3
        assert c.next() == 6
        v = self.version([(1, 5), (1, 7), (2, 0)] + [(k, 1) for k in range(3, 30)], 2)
        c = v.cursor()
        assert c.open() == 1
        assert c.open() == 5
        assert c.next() == 7
        assert c.next() is None and c.at_end()
        c.up()
        assert c.next() == 2
        v = self.version([(1, 5)] + [(k, 1) for k in range(2, 30)], 2)
        c = v.cursor()
        c.open()
        assert c.open() == 5
        assert c.next() is None  # the first move ends a one-record prefix
        c.up()
        assert c.next() == 2

    @pytest.mark.parametrize("arity", [1, 2])
    def test_seek_at_or_below_the_first_key_stays(self, arity):
        rows = [(k,) * arity for k in range(10, 80, 2)]
        c = self.version(rows, arity).cursor()
        assert c.open() == 10
        assert c.seek_lub(KEY_MIN) == 10
        assert c.seek_lub(10) == 10
        assert c.next() == 12
        assert c.seek_lub(61) == 62

    def test_open_and_up_of_deeper_levels_before_any_move(self):
        rows = [(1, 2, 3), (1, 2, 4), (1, 3, 0)] + [(k, 0, 0) for k in range(2, 30)]
        v = self.version(rows, 3)
        c = v.cursor()
        assert c.open() == 1
        assert c.open() == 2
        assert c.open() == 3
        c.up()
        c.up()
        assert c.key() == 1 and c.next() == 2
        c.up()
        assert c.open() == 1
        assert c.open() == 2
        c.up()
        assert c.seek_lub(20) == 20
        assert c.open() == 0

    def test_the_cache_belongs_to_one_version(self):
        rel = Relation("R", 1, leaf_capacity=2)
        v1 = fill(rel, [(k,) for k in range(10, 40)])
        assert v1.cursor().open() == 10  # reads v1's first record
        txn = rel.begin()
        txn.insert((5,))
        v2 = txn.commit()
        txn = rel.begin()
        txn.erase((5,))
        txn.erase((10,))
        v3 = txn.commit()
        assert v1.cursor().open() == 10
        assert v2.cursor().open() == 5
        assert v3.cursor().open() == 11
        c = v2.cursor()
        c.open()
        assert c.next() == 10
        assert rel.current is v3
        txn = rel.begin()
        txn.clear()
        empty = txn.commit()
        c = empty.cursor()
        assert c.open() is None and c.at_end()


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


def _walk_against_model(v, rng, steps, seek_target):
    """Drive a cursor over v with random moves, checking each against a
    stack of _LevelModel; ``seek_target(rng, level)`` draws seek keys."""
    arity = v.arity
    records = dict(v.records())
    c = v.cursor()
    stack = []  # one _LevelModel per open level
    for _ in range(steps):
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
            got = c.open()
            prefix = () if top is None else top.prefix + (top.key(),)
            stack.append(_LevelModel(records, prefix))
        elif move == "up":
            c.up()
            stack.pop()
        elif move == "next":
            got = c.next()
            top.i += 1
        else:
            k = seek_target(rng, top)
            got = c.seek_lub(k)
            if k > top.key():
                top.i = bisect.bisect_left(top.keys, k, top.i)
        if move != "up":  # a move returns the key it lands on
            top = stack[-1]
            assert got == (None if top.ended() else top.key())
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


def _branch_levels(version):
    levels, node = 0, version.root
    while hasattr(node, "children"):
        levels, node = levels + 1, node.children[0]
    return levels


class TestTrieCursorRandomized:
    # capacity 64 keeps a whole relation in one leaf, so a level's prefix
    # bound is what ends it there
    @pytest.mark.parametrize("leaf_capacity", [2, 3, 64])
    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_random_calls_match_sorted_list_model(self, arity, leaf_capacity):
        rng = random.Random(71 + arity + 100 * leaf_capacity)
        dom = {1: 40, 2: 9, 3: 5, 4: 4}[arity]
        for _ in range(30):
            rel = Relation("R", arity, is_function=True, leaf_capacity=leaf_capacity)
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
            _walk_against_model(
                v, rng, 200, lambda rng, level: rng.randrange(-2, dom + 2)
            )

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_far_seeks_in_tall_trees_match_model(self, arity):
        """Seeks that jump many leaves ahead, from any level of a tree with
        at least three branch levels, shaped by a few commits."""
        rng = random.Random(301 + arity)
        dom = {1: 20_000, 2: 150, 3: 25}[arity]
        rel = Relation("R", arity, is_function=True, leaf_capacity=2)
        rows = set()
        while len(rows) < 2400:
            rows.add(tuple(rng.randrange(dom) for _ in range(arity)))
        fill(rel, rows, value=1)
        for _ in range(3):
            txn = rel.begin()
            for _ in range(rng.randrange(1, 300)):
                keys = tuple(rng.randrange(dom) for _ in range(arity))
                if txn.lookup(keys) is not None:
                    txn.erase(keys)
                else:
                    txn.insert(keys, rng.randrange(100))
            txn.commit()
        v = rel.current
        assert v.count >= 2000 and _branch_levels(v) >= 3

        def far(rng, level):
            # anywhere from the next key to past the level's last key
            cur = level.key()
            return rng.randrange(cur + 1, max(level.keys[-1], cur) + 3)

        for _ in range(20):
            _walk_against_model(v, rng, 150, far)


class TestHasPrefix:
    """``has_prefix`` looks the bare prefix up: a key tuple orders before
    every longer tuple it prefixes, so no padding is needed."""

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_matches_brute_force(self, arity):
        rng = random.Random(401 + arity)
        dom = {1: 30, 2: 8, 3: 4}[arity]
        answers = set()
        for trial in range(25):
            rel = Relation("R", arity, leaf_capacity=rng.choice([2, 3, 64]))
            rows = {  # trial 0 is an empty relation
                tuple(rng.randrange(dom) for _ in range(arity))
                for _ in range(rng.randrange(1, 60) if trial else 0)
            }
            v = fill(rel, rows)
            for n in range(arity):
                present = {t[:n] for t in rows}
                probes = present | {(KEY_MIN,) * n, (KEY_MAX,) * n}
                for _ in range(20):
                    probes.add(tuple(rng.randrange(-1, dom + 1) for _ in range(n)))
                for p in probes:
                    want = p in present
                    assert v.has_prefix(p) == want, (trial, p)
                    answers.add((len(p), want))
        assert answers == {(n, w) for n in range(arity) for w in (False, True)}


def _leaf_mins(version):
    """The min key of every leaf page of version."""
    out, stack = set(), [version.root]
    while stack:
        node = stack.pop()
        if hasattr(node, "children"):
            stack.extend(node.children)
        else:
            out.add(node.min_key)
    return out


def _count_bisects(monkeypatch):
    """Count every bisect_left/bisect_right call the store makes."""
    calls = [0]
    for name in ("bisect_left", "bisect_right"):
        real = getattr(store, name)

        def counted(*args, _real=real, **kwargs):
            calls[0] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(store, name, counted)
    return calls


class TestEditProportionalWork:
    """A one-key commit and a far cursor seek each make O(height) bisects
    in a 100k-record relation, however wide its branches are; a cursor
    move that stays in its leaf makes none."""

    @staticmethod
    def big_version(leaf_capacity=64):
        rel = Relation("R", 1, leaf_capacity=leaf_capacity)
        txn = rel.begin()
        txn.write_sorted([((2 * k,), None) for k in range(100_000)])
        return rel, txn.commit()

    @pytest.mark.parametrize("keys", [(1,), (99_999,), (199_999,), (300_000,)])
    def test_one_key_commit(self, monkeypatch, keys):
        rel, v = self.big_version()
        levels = _branch_levels(v)
        assert levels >= 3
        txn = rel.begin()
        txn.insert(keys)
        calls = _count_bisects(monkeypatch)
        new = txn.commit()
        assert calls[0] <= 2 * levels + 1
        assert new.lookup(keys) == (None,) and new.count == v.count + 1

    @pytest.mark.parametrize("leaf_capacity", [2, 64])
    def test_far_seeks(self, monkeypatch, leaf_capacity):
        _, v = self.big_version(leaf_capacity)
        levels = _branch_levels(v)
        assert levels >= 3
        c = v.cursor()
        c.open()
        calls = _count_bisects(monkeypatch)
        for k in range(20_001, 200_000, 20_000):
            calls[0] = 0
            assert c.seek_lub(k) == k + 1
            assert c.key() == k + 1
            assert calls[0] <= levels + 2, k

    def test_moves_within_a_leaf_make_no_bisect(self, monkeypatch):
        _, v = self.big_version()
        starts = _leaf_mins(v)
        c = v.cursor()
        c.open()
        assert c.seek_lub(100_001) == 100_002  # builds the page path
        calls = _count_bisects(monkeypatch)
        stayed = 0
        for step in range(400):
            calls[0] = 0
            cur = c.key()
            # a next(), or a seek that lands on the following record
            assert (c.next() if step % 2 else c.seek_lub(cur + 1)) == cur + 2
            if (cur + 2,) not in starts:
                assert calls[0] == 0, (step, cur)
                stayed += 1
        assert stayed > 300

    def test_last_level_walk(self, monkeypatch):
        rel = Relation("R", 2)
        txn = rel.begin()
        txn.write_sorted([((a, b), None) for a in range(1000) for b in range(100)])
        v = txn.commit()
        levels, leaves = _branch_levels(v), len(_leaf_mins(v))
        assert levels >= 3
        calls = _count_bisects(monkeypatch)
        c = v.cursor()
        seen = 0
        a = c.open()
        while a is not None:
            b = c.open()
            while b is not None:
                seen += 1
                b = c.next()
            c.up()
            a = c.next()
        assert seen == v.count == 100_000
        assert calls[0] <= (levels + 2) * leaves
