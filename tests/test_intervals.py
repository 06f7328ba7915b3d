import math
import random
import re
from itertools import groupby

import pytest

from conftest import index_nodes
from leapjoin.errors import UserError
from leapjoin.intervals import IntervalIndex, SensitivityRecord
from leapjoin.keys import KEY_MAX, KEY_MIN
from leapjoin.scantree import ABSENT, COUNT_OP, MAX_OP, ScanTree

FIGURE_INTERVALS = [
    (11, 100), (29, 47), (40, 42), (49, 82), (62, 78), (63, 73), (67, 72),
    (67, 78), (72, 87), (77, 96), (82, 94), (83, 99), (86, 98), (90, 93),
    (93, 100), (98, 107),
]


def rec(lo, hi, prefix=(), ctx=()):
    return SensitivityRecord(prefix, lo, hi, ctx)


def index(prefix_len, context_len, leaf_target):
    """An IntervalIndex whose scan trees hold ``leaf_target`` records per leaf."""
    ix = IntervalIndex(prefix_len, context_len)
    ix.parts.leaf_target = leaf_target
    return ix


def erase_one(ix, r):
    """Erase one present record from its partition, the sequential reference."""
    size = len(ix)
    assert ix.parts.apply_sorted([(r.sort_key(), ABSENT)]) == 0
    assert len(ix) == size - 1


class TestAdd:
    def test_add_to_empty(self):
        ix = IntervalIndex(0, 0)
        ix.add(rec(KEY_MIN, 0))
        assert len(ix) == 1

    def test_unary_example_set(self):
        ix = IntervalIndex(0, 0)
        for lo, hi in [(KEY_MIN, 0), (1, 2), (2, 4), (6, 6), (6, KEY_MAX)]:
            ix.add(rec(lo, hi))
        got = [(r.lo, r.hi) for r in ix.enumerate()]
        assert got == [(KEY_MIN, 0), (1, 2), (2, 4), (6, 6), (6, KEY_MAX)]

    def test_duplicate_add_is_noop(self):
        ix = IntervalIndex(0, 0)
        assert ix.add(rec(1, 2)) is True
        assert ix.add(rec(1, 2)) is False
        assert len(ix) == 1

    def test_inverted_interval_rejected(self):
        ix = IntervalIndex(0, 0)
        with pytest.raises(UserError):
            ix.add(rec(5, 4))


class TestStab:
    def test_worked_example(self):
        ix = IntervalIndex(0, 0)
        for lo, hi in [(2, 10), (3, 7), (5, 15), (6, 9)]:
            ix.add(rec(lo, hi))
        assert [(r.lo, r.hi) for r in ix.stab((), 10)] == [(2, 10), (5, 15)]

    def test_figure_tree_at_80(self):
        ix = index(0, 0, 1)
        for lo, hi in FIGURE_INTERVALS:
            ix.add(rec(lo, hi))
        got = [(r.lo, r.hi) for r in ix.stab((), 80)]
        assert got == [(11, 100), (49, 82), (72, 87), (77, 96)]

    def test_below_all_intervals_empty(self):
        ix = IntervalIndex(0, 0)
        ix.add(rec(5, 9))
        assert ix.stab((), 4) == []

    def test_random_matches_linear_filter_and_visit_bound(self):
        rng = random.Random(21)
        ix = IntervalIndex(1, 1)
        recs = []
        for _ in range(10_000):
            lo = rng.randrange(10**5)
            r = rec(lo, lo + rng.randrange(2000), (rng.randrange(4),),
                    (rng.randrange(40),))
            if ix.add(r):
                recs.append(r)
        n = len(ix)
        log = math.ceil(math.log2(n + 2))
        for _ in range(1000):
            p = (rng.randrange(4),)
            x = rng.randrange(10**5)
            before = ix.stats["visits"]
            got = ix.stab(p, x)
            visits = ix.stats["visits"] - before
            want = sorted(
                (r for r in recs if r.prefix == p and r.lo <= x <= r.hi),
                key=lambda r: r.sort_key(),
            )
            assert got == want
            assert visits <= 8 * (len(got) + 1) * log


class TestStabAndRemove:
    def test_consume_on_match(self):
        ix = IntervalIndex(0, 0)
        for lo, hi in [(KEY_MIN, 1), (2, 2), (4, 6)]:
            ix.add(rec(lo, hi))
        got = ix.stab_and_remove((), 2)
        assert [(r.lo, r.hi) for r in got] == [(2, 2)]
        assert [(r.lo, r.hi) for r in ix.enumerate()] == [(KEY_MIN, 1), (4, 6)]

    def test_stab_again_finds_nothing(self):
        ix = IntervalIndex(0, 0)
        ix.add(rec(3, 8))
        assert len(ix.stab_and_remove((), 5)) == 1
        assert ix.stab((), 5) == []

    def test_randomized_consume_script_matches_reference(self):
        rng = random.Random(22)
        ix = IntervalIndex(0, 0)
        ref = set()
        for _ in range(3000):
            if ref and rng.random() < 0.4:
                x = rng.randrange(3000)
                got = {(r.lo, r.hi) for r in ix.stab_and_remove((), x)}
                want = {(lo, hi) for lo, hi in ref if lo <= x <= hi}
                assert got == want
                ref -= want
            else:
                lo = rng.randrange(3000)
                hi = lo + rng.randrange(50)
                if (lo, hi) not in ref:
                    ix.add(rec(lo, hi))
                    ref.add((lo, hi))
        assert {(r.lo, r.hi) for r in ix.enumerate()} == ref

    def test_context_is_payload_only(self):
        # identical intervals with different contexts are distinct records
        ix = IntervalIndex(1, 2)
        ix.add(rec(1, 5, (7,), (3, 4)))
        ix.add(rec(1, 5, (7,), (8, 9)))
        assert len(ix) == 2
        got = ix.stab((7,), 3)
        assert [r.context for r in got] == [(3, 4), (8, 9)]
        assert ix.stab((8,), 3) == []


class TestAddBatch:
    SHAPES = [(0, 0), (1, 1), (1, 2)]

    def random_records(self, rng, plen, clen, n):
        out = []
        for _ in range(n):
            lo = rng.randrange(200)
            hi = lo if rng.random() < 0.2 else lo + rng.randrange(30)
            r = rec(
                lo,
                hi,
                tuple(rng.randrange(3) for _ in range(plen)),
                tuple(rng.randrange(3) for _ in range(clen)),
            )
            out.append(r)
            if rng.random() < 0.15:
                out.append(r)  # duplicate inside the batch
        return out

    @pytest.mark.parametrize("plen,clen", SHAPES)
    def test_batch_equals_sequential_add(self, plen, clen):
        rng = random.Random(23 + 10 * plen + clen)
        for trial in range(40):
            seq = index(plen, clen, rng.choice((1, 3, 12)))
            bat = index(plen, clen, seq.tree.leaf_target)
            if trial % 2:  # non-empty index: the batch overlaps what is there
                start = self.random_records(rng, plen, clen, rng.randrange(1, 200))
                for r in start:
                    seq.add(r)
                bat.add_batch([(r.sort_key(), r.hi) for r in start])
            recs = self.random_records(rng, plen, clen, rng.randrange(0, 300))
            want = sum(seq.add(r) for r in recs)
            got = bat.add_batch([(r.sort_key(), r.hi) for r in recs])
            assert got == want
            assert list(bat.enumerate()) == list(seq.enumerate())
            bat.audit()
            seq.audit()
            for _ in range(50):
                p = tuple(rng.randrange(3) for _ in range(plen))
                x = rng.randrange(-5, 240)
                assert bat.stab(p, x) == seq.stab(p, x)

    def test_inverted_interval_rejected(self):
        ix = IntervalIndex(1, 0)
        batch = [(r.sort_key(), r.hi) for r in (rec(1, 2, (0,)), rec(5, 4, (0,)))]
        with pytest.raises(UserError):
            ix.add_batch(batch)

    def test_duplicates_and_faulty_records_mid_batch(self):
        """The first faulty record in key order is named, over duplicates
        on both sides of it, and no partition changes."""
        ix = IntervalIndex(1, 1)
        ix.add_batch([(r.sort_key(), r.hi) for r in (rec(0, 9, (1,), (0,)),)])
        before = (dict(ix.parts), len(ix))
        good = [rec(lo, lo + 3, (p,), (0,)) for p in range(3) for lo in range(5)]
        faulty = [rec(7, 6, (1,), (2,)), rec(8, 2, (2,), (0,))]
        batch = good + good[:7] + faulty + faulty + good[3:]
        random.Random(3).shuffle(batch)
        want = f"interval lo > hi: {faulty[0]}"
        with pytest.raises(UserError, match=f"^{re.escape(want)}$"):
            ix.add_batch([(r.sort_key(), r.hi) for r in batch])
        assert (ix.parts, len(ix)) == before
        ix.audit()
        pairs = [(r.sort_key(), r.hi) for r in good + good[::2]]
        assert ix.add_batch(pairs) == len(good)
        assert pairs == sorted({(r.sort_key(), r.hi) for r in good})
        assert len(ix) == len(good) + 1


class TestBatchedEdits:
    def random_index(self, rng, n=600):
        ix = index(1, 1, rng.choice((1, 3, 12)))
        for _ in range(4):  # grown in batches, so the shape is not a bulk build
            batch = []
            for _ in range(n // 4):
                lo = rng.randrange(500)
                r = rec(lo, lo + rng.randrange(40), (rng.randrange(3),), (rng.randrange(5),))
                batch.append((r.sort_key(), r.hi))
            ix.add_batch(batch)
        return ix

    def test_re_adding_present_records_changes_nothing(self):
        rng = random.Random(24)
        ix = self.random_index(rng)
        parts = dict(ix.parts)
        assert len(parts) == 3
        nodes, rebuilds = index_nodes(ix), ix.tree.stats["rebuilds"]
        present = [(r.sort_key(), r.hi) for r in ix.enumerate()]
        assert ix.add_batch(rng.sample(present, 50)) == 0
        assert ix.add(next(ix.enumerate())) is False
        assert ix.tree.stats["rebuilds"] == rebuilds
        assert all(ix.parts[p] is root for p, root in parts.items())
        after = index_nodes(ix)
        assert len(after) == len(nodes)
        assert all(a is b for a, b in zip(after, nodes))
        ix.audit()

    def test_batched_removal_equals_sequential_removal(self):
        rng = random.Random(25)
        for _ in range(10):
            seed = rng.randrange(10**6)
            bat = self.random_index(random.Random(seed))
            seq = self.random_index(random.Random(seed))
            for _ in range(60):
                p, x = (rng.randrange(3),), rng.randrange(-5, 545)
                got = bat.stab_and_remove(p, x)
                want = seq.stab(p, x)
                for r in want:
                    erase_one(seq, r)
                assert got == want
                assert list(bat.enumerate()) == list(seq.enumerate())
                assert len(bat) == len(seq)
            bat.audit()
            seq.audit()


class TestPartitions:
    @pytest.mark.parametrize("plen", [1, 2])
    def test_partitions_made_out_of_prefix_order_read_as_one_tree(self, plen):
        rng = random.Random(26 + plen)
        ix = index(plen, 1, 3)
        one = ScanTree(MAX_OP, leaf_target=3)  # the reference: every record in one tree
        prefixes = [(10,), (2,), (1,), (7,), (2,)]
        if plen == 2:
            prefixes = [(p, p % 3) for (p,) in prefixes] + [(2, 0), (2, 9)]
        batches = [[p] for p in prefixes] + [prefixes]  # last: every prefix at once
        for batch_prefixes in batches:
            batch = []
            for _ in range(rng.randrange(1, 120)):
                lo = rng.randrange(300)
                r = rec(lo, lo + rng.randrange(30), rng.choice(batch_prefixes),
                        (rng.randrange(4),))
                batch.append((r.sort_key(), r.hi))
            want = one.apply_sorted(sorted(set(batch)))
            assert ix.add_batch(batch) == want
        assert list(ix.parts)[:3] == [prefixes[0], prefixes[1], prefixes[2]]
        ix.audit()
        records = [rec(k[plen], hi, k[:plen], k[plen + 2 :]) for k, hi in one.records()]
        assert list(ix.enumerate()) == records
        assert len(ix) == one.size
        for p in sorted(set(prefixes)) + [(5,) * plen]:
            for x in range(-1, 335, 7):
                want = [r for r in records if r.prefix == p and r.lo <= x <= r.hi]
                assert ix.stab(p, x) == want

    @pytest.mark.parametrize("op", [MAX_OP, COUNT_OP], ids=lambda op: op.name)
    @pytest.mark.parametrize("plen", [1, 2])
    def test_queries_answer_as_unpartitioned_trees(self, plen, op):
        """A tree partitioned by a key prefix answers every query as one
        ``prefix_len`` 0 tree over the same records does, and a range scan
        folds as many values as one ``prefix_len`` 0 tree per prefix."""
        rng = random.Random(f"parted-{plen}-{op.name}")
        parted, whole, per_prefix = ScanTree(op, 3, plen), ScanTree(op, 3), {}
        live = set()

        def draw_prefix():
            return tuple(rng.randrange(4) for _ in range(plen))

        for _ in range(30):  # batches of sets and erases over a few prefixes
            prefixes = [draw_prefix() for _ in range(rng.randrange(1, 4))]
            batch = {}
            for _ in range(rng.randrange(1, 60)):
                key = rng.choice(prefixes) + (rng.randrange(40), rng.randrange(3))
                erase = key in live and rng.random() < 0.5
                batch[key] = ABSENT if erase else rng.randrange(1000)
            batch = sorted(batch.items())
            assert parted.merge(batch) == whole.apply_sorted(batch)
            for prefix, run in groupby(batch, key=lambda edit: edit[0][:plen]):
                tree = per_prefix.setdefault(prefix, ScanTree(op, 3))
                tree.apply_sorted(list(run))
            live = {key for key, _ in whole.records()}
        parted.audit()
        assert sorted(parted) == sorted(p for p, t in per_prefix.items() if t.size)
        assert parted.size == whole.size == len(live)
        assert list(parted.records()) == list(whole.records())
        for key in sorted(live)[::7] + [draw_prefix() + (41, 0), (9,) * (plen + 2)]:
            assert parted.find(key) == whole.find(key)

        ranges = [((KEY_MIN,) * (plen + 2), (KEY_MAX,) * (plen + 2))]
        for _ in range(150):
            p = draw_prefix()
            a, b = sorted(rng.randrange(-2, 43) for _ in range(2))
            ranges.append((p + (a, 0), p + (b, 2)))  # inside one prefix
            ends = sorted(draw_prefix() + (rng.randrange(40),) for _ in range(2))
            ranges.append(tuple(ends))  # across prefixes, short ends
        spans = [(lo[:plen] == hi[:plen]) for lo, hi in ranges]
        assert 0 < sum(spans) < len(spans)
        for lo, hi in ranges:
            before = parted.stats["combines"]
            got = parted.range_scan(lo, hi)
            combines = parted.stats["combines"] - before
            assert got == whole.range_scan(lo, hi)
            want = 0
            for tree in per_prefix.values():
                before = tree.stats["combines"]
                tree.range_scan(lo, hi)
                want += tree.stats["combines"] - before
            assert combines == want, (lo, hi)
            assert parted.range_count(lo, hi) == whole.range_count(lo, hi)
            assert list(parted.iter_range(lo, hi)) == list(whole.iter_range(lo, hi))

    def test_emptied_partition_is_dropped(self):
        ix = IntervalIndex(1, 0)
        recs = (rec(1, 4, (3,)), rec(2, 6, (3,)), rec(0, 9, (8,)))
        ix.add_batch([(r.sort_key(), r.hi) for r in recs])
        assert len(ix.stab_and_remove((3,), 3)) == 2
        assert list(ix.parts) == [(8,)] and len(ix) == 1
        assert ix.stab_and_remove((3,), 3) == []
        ix.audit()
        assert ix.add(rec(5, 5, (3,))) is True
        assert sorted(ix.parts) == [(3,), (8,)] and len(ix) == 2
        ix.audit()

    def test_map_and_tree_are_read_only(self):
        """The map changes only through its merges and ``reset``, which a
        rollback undoes; the index's ``tree`` is the map, read-only."""
        ix = IntervalIndex(1, 0)
        ix.add(rec(1, 4, (3,)))
        parts, root = ix.parts, ix.parts[3,]
        with pytest.raises(TypeError):
            parts[9,] = root
        with pytest.raises(TypeError):
            del parts[3,]
        for name in ("pop", "update", "setdefault", "clear"):
            assert not hasattr(parts, name)
        with pytest.raises(AttributeError):
            ix.tree = ScanTree(MAX_OP, leaf_target=1)
        assert ix.tree is parts is parts.tree
        parts.begin()
        ix.add(rec(0, 9, (8,)))
        assert ix.stab_and_remove((3,), 2) == [rec(1, 4, (3,))]
        parts.reset()
        parts.rollback()
        assert dict(parts) == {(3,): root}
        ix.audit()
