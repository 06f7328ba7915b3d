"""Semigroup range aggregation over ordered key-tuple records.

A ScanTree keeps records (key tuple -> value) sorted in small leaf
buckets under a binary tree whose internal nodes cache the combine of
their children, so the aggregate of any key interval folds at most
O(log n) cached values.  Counts are cached alongside, which also powers
count-pruned complement iteration.

Every edit goes through one path: ``apply_sorted`` takes a sorted batch
of sets and erases and applies it in one descent (a single insert or
erase is the batch of one).  A subtree the batch does not change is
returned as it is; each changed node is rebuilt from its new children
once, on the way up.  Rebalancing: a leaf splits in halves,
recursively, while it exceeds twice the bucket target and triggers a
parent rebuild when it falls under half of it; an internal
node whose child holds more than twice as many records as its sibling is
rebuilt (perfectly balanced) on the spot.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter
from typing import Callable, Optional

from .errors import IntegrityError, UserError

_rec_key = itemgetter(0)
_rec_value = itemgetter(1)


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


EMPTY = _Sentinel("EMPTY")  # the combine of no records
ERASE = _Sentinel("ERASE")  # an apply_sorted value that erases its key


def wrap64(x: int) -> int:
    return (x + (1 << 63)) % (1 << 64) - (1 << 63)


@dataclass(frozen=True)
class SemigroupOp:
    name: str
    combine: Callable
    contribution: Callable = lambda v: v
    fold: Optional[Callable] = None  # combine of a non-empty iterable's contributions

    def __post_init__(self):
        if self.fold is None:
            combine, contribution = self.combine, self.contribution
            object.__setattr__(
                self, "fold", lambda vs: reduce(combine, map(contribution, vs))
            )


MAX_OP = SemigroupOp("MAX", max, fold=max)
MIN_OP = SemigroupOp("MIN", min, fold=min)
COUNT_OP = SemigroupOp("COUNT", lambda a, b: a + b, contribution=lambda v: 1)
GROUP_SUM_OP = SemigroupOp("GROUP_SUM", lambda a, b: wrap64(a + b))


class _SLeaf:
    __slots__ = ("records", "agg", "count", "min_key", "max_key")

    def __init__(self, records, op):
        self.records = records
        self.agg = op.fold(map(_rec_value, records))
        self.count = len(records)
        self.min_key = records[0][0]
        self.max_key = records[-1][0]


class _SNode:
    __slots__ = ("left", "right", "agg", "count", "min_key", "max_key")

    def __init__(self, left, right, op):
        self.left = left
        self.right = right
        self.agg = op.combine(left.agg, right.agg)
        self.count = left.count + right.count
        self.min_key = left.min_key
        self.max_key = right.max_key


def _violates(l, r):
    return l.count > 2 * r.count or r.count > 2 * l.count


class ScanTree:
    def __init__(self, op: SemigroupOp, leaf_target: int = 12):
        if leaf_target < 1:
            raise UserError("leaf_target must be >= 1")
        self.op = op
        self.leaf_target = leaf_target
        self.root = None
        self.size = 0
        self.stats = {"combines": 0, "rebuilds": 0}
        self.last_recomputed = []  # internal-node ranges rebuilt by the last edit
        self._added = 0

    # -- point access ----------------------------------------------------

    def get(self, key):
        node = self.root
        while isinstance(node, _SNode):
            node = node.left if key <= node.left.max_key else node.right
        if node is None:
            return None
        i = bisect_left(node.records, key, key=_rec_key)
        if i < len(node.records) and node.records[i][0] == key:
            return (node.records[i][1],)
        return None

    def insert(self, key, value=None):
        if self.get(key) is not None:
            raise UserError(f"scan-tree key already present: {key}")
        self.apply_sorted([(key, value)])

    def erase(self, key):
        if self.get(key) is None:
            raise UserError(f"scan-tree key not present: {key}")
        self.apply_sorted([(key, ERASE)])

    def apply_sorted(self, edits):
        """Apply sorted, key-distinct (key, value) edits in one descent.

        A value of ``ERASE`` erases its key, which must be present; any
        other value sets its key, inserting or replacing.  A present key
        set to an equal value is skipped.  Returns how many keys were
        added.  The batch is split at each node's left max key and merged
        at the leaves (an overflowing leaf splits in halves,
        recursively); a subtree the batch leaves as it was is returned
        untouched, and each changed node is rebuilt and rebalance-checked
        once on the way up.  Into an empty tree the batch (which then
        holds no erase) is bulk-built.  Set pairs become records as they
        are, so the batch is never copied into another form.
        """
        self.last_recomputed = []
        if not edits:
            return 0
        if self.root is None:
            self.root = self._build(edits)
            self.size = len(edits)
            return self.size
        self._added = 0
        self.root = self._apply(self.root, edits, 0, len(edits))
        return self._added

    def _apply(self, node, edits, lo, hi):
        """The subtree with edits[lo:hi] applied: ``node`` itself when they
        change nothing, None when they erase every record in it."""
        if isinstance(node, _SLeaf):
            return self._apply_leaf(node, edits, lo, hi)
        left, right = node.left, node.right
        mid = bisect_right(edits, left.max_key, lo, hi, key=_rec_key)
        if mid > lo:
            left = self._apply(left, edits, lo, mid)
        if mid < hi:
            right = self._apply(right, edits, mid, hi)
        if left is node.left and right is node.right:
            return node
        if left is None:
            return right
        if right is None:
            return left
        return self._settle(left, right)

    def _apply_leaf(self, leaf, edits, lo, hi):
        old = leaf.records
        n = len(old)
        out, at, added = [], 0, 0  # old[:at] is decided: copied or dropped
        for j in range(lo, hi):
            edit = edits[j]
            key, value = edit
            i = bisect_left(old, key, at, n, key=_rec_key)
            present = i < n and old[i][0] == key
            if old[i][1] == value if present else value is ERASE:
                continue  # the key already reads so
            out.extend(old[at:i])
            at = i + present
            if value is not ERASE:
                out.append(edit)
                added += not present
        if not out and not at:
            return leaf  # no edit changed a record
        out.extend(old[at:])
        self.size += len(out) - n
        self._added += added
        if not out:
            return None
        if len(out) > 2 * self.leaf_target:
            return self._split(out)
        return _SLeaf(out, self.op)

    def _split(self, records):
        if len(records) <= 2 * self.leaf_target:
            return _SLeaf(records, self.op)
        mid = len(records) // 2
        return _SNode(self._split(records[:mid]), self._split(records[mid:]), self.op)

    def _settle(self, left, right):
        """The internal node over changed children, rebalanced if needed."""
        node = _SNode(left, right, self.op)
        self.last_recomputed.append((node.min_key, node.max_key))
        if _violates(node.left, node.right) or self._leaf_underflow(node):
            return self._rebuild(node)
        return node

    def _leaf_underflow(self, node):
        half = self.leaf_target // 2
        if half < 1:
            return False
        l, r = node.left, node.right
        return (isinstance(l, _SLeaf) and l.count < half) or (
            isinstance(r, _SLeaf) and r.count < half
        )

    def _rebuild(self, node):
        self.stats["rebuilds"] += 1
        return self._build(self._collect(node))

    @staticmethod
    def _collect(node):
        out, stack = [], [node]
        while stack:
            n = stack.pop()
            if isinstance(n, _SLeaf):
                out.extend(n.records)
            else:
                stack.append(n.right)
                stack.append(n.left)
        return out

    def _build(self, records):
        op = self.op
        target = self.leaf_target
        n = len(records)
        parts = max(1, (n + target - 1) // target)
        size, extra = divmod(n, parts)
        leaves, at = [], 0
        for i in range(parts):
            step = size + (1 if i < extra else 0)
            leaves.append(_SLeaf(records[at : at + step], op))
            at += step

        weights = [0]
        for lf in leaves:
            weights.append(weights[-1] + lf.count)

        # make recurses through its argument, not through its own name: no
        # closure cycle is left for the collector
        def make(make, lo, hi):
            # split by record weight so neither side exceeds twice the other
            if hi - lo == 1:
                return leaves[lo]
            half = (weights[lo] + weights[hi]) / 2
            mid = bisect_left(weights, half, lo + 1, hi)
            if mid > lo + 1 and weights[mid] - half > half - weights[mid - 1]:
                mid -= 1
            if mid >= hi:
                mid = hi - 1
            return _SNode(make(make, lo, mid), make(make, mid, hi), op)

        return make(make, 0, parts)

    def build_from(self, records):
        """Bulk-load (key, value) records into a fresh balanced tree."""
        self.root, self.size = None, 0
        self.apply_sorted(sorted(records, key=_rec_key))

    # -- range queries ---------------------------------------------------

    def range_scan(self, lo, hi, probe=None):
        """Combine of record contributions with lo <= key <= hi, or EMPTY.

        ``stats['combines']`` counts the values folded: one per maximal
        fully-covered subtree plus one per partially-covered boundary
        leaf.  ``probe``, if given, collects (min_key, max_key, value)
        for each contribution.
        """
        if lo > hi:
            raise UserError(f"range_scan: lo {lo!r} > hi {hi!r}")
        if self.root is None:
            return EMPTY
        return self._scan(self.root, lo, hi, probe)

    def _scan(self, node, lo, hi, probe):
        if node.max_key < lo or node.min_key > hi:
            return EMPTY
        if lo <= node.min_key and node.max_key <= hi:
            self.stats["combines"] += 1
            if probe is not None:
                probe.append((node.min_key, node.max_key, node.agg))
            return node.agg
        if isinstance(node, _SLeaf):
            recs = node.records
            i = bisect_left(recs, lo, key=_rec_key)
            j = bisect_right(recs, hi, key=_rec_key)
            if i == j:
                return EMPTY
            agg = self.op.fold(map(_rec_value, recs[i:j]))
            self.stats["combines"] += 1
            if probe is not None:
                probe.append((recs[i][0], recs[j - 1][0], agg))
            return agg
        a = self._scan(node.left, lo, hi, probe)
        b = self._scan(node.right, lo, hi, probe)
        if a is EMPTY:
            return b
        if b is EMPTY:
            return a
        return self.op.combine(a, b)

    def range_count(self, lo, hi) -> int:
        if self.root is None:
            return 0
        return self._count(self.root, lo, hi)

    def _count(self, node, lo, hi):
        if node.max_key < lo or node.min_key > hi:
            return 0
        if lo <= node.min_key and node.max_key <= hi:
            return node.count
        if isinstance(node, _SLeaf):
            recs = node.records
            return bisect_right(recs, hi, key=_rec_key) - bisect_left(
                recs, lo, key=_rec_key
            )
        return self._count(node.left, lo, hi) + self._count(node.right, lo, hi)

    def iter_range(self, lo, hi):
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.max_key < lo or node.min_key > hi:
                continue
            if isinstance(node, _SLeaf):
                recs = node.records
                i = bisect_left(recs, lo, key=_rec_key)
                j = bisect_right(recs, hi, key=_rec_key)
                yield from recs[i:j]
            else:
                stack.append(node.right)
                stack.append(node.left)

    def items(self):
        if self.root is not None:
            yield from self.iter_range(self.root.min_key, self.root.max_key)

    # -- invariant checks (used by tests) ----------------------------------

    def audit(self):
        if self.root is None:
            return
        op = self.op

        def walk(node):
            if isinstance(node, _SLeaf):
                recs = node.records
                assert all(a[0] < b[0] for a, b in zip(recs, recs[1:]))
                assert all(v is not ERASE for _, v in recs)
                assert node.count == len(recs) > 0
                assert node.agg == op.fold(map(_rec_value, node.records))
                return node.records
            lrecs = walk(node.left)
            rrecs = walk(node.right)
            assert node.left.max_key < node.right.min_key
            assert not _violates(node.left, node.right), (
                node.left.count,
                node.right.count,
            )
            assert node.count == node.left.count + node.right.count
            assert node.agg == op.combine(node.left.agg, node.right.agg)
            return lrecs + rrecs

        recs = walk(self.root)
        assert len(recs) == self.size

    def height(self):
        h, node = 0, self.root
        while isinstance(node, _SNode):
            h += 1
            node = node.left if node.left.count >= node.right.count else node.right
        return h


def complement_iter(big: ScanTree, small: ScanTree, stats=None):
    """Yield keys of big \\ small in key order, pruning by interval counts.

    Requires small's record set to be contained in big's; a violation is
    detected lazily (an interval where small outcounts big) and raised as
    IntegrityError naming the interval.  ``stats['visits']`` counts
    big-side nodes entered plus leaf keys compared.
    """
    if stats is None:
        stats = {}
    stats.setdefault("visits", 0)
    if big.root is None:
        if small.size:
            n = small.root
            raise IntegrityError(
                f"complement: subset violation in [{n.min_key}, {n.max_key}]"
            )
        return
    inside = small.range_count(big.root.min_key, big.root.max_key)
    if inside < small.size:
        raise IntegrityError(
            f"complement: subset violation outside "
            f"[{big.root.min_key}, {big.root.max_key}]"
        )

    def visit(visit, node):  # recurses through its argument: no cycle
        stats["visits"] += 1
        in_small = small.range_count(node.min_key, node.max_key)
        if in_small == node.count:
            return
        if in_small > node.count:
            raise IntegrityError(
                f"complement: subset violation in [{node.min_key}, {node.max_key}]"
            )
        if isinstance(node, _SNode):
            yield from visit(visit, node.left)
            yield from visit(visit, node.right)
            return
        others = iter(small.iter_range(node.min_key, node.max_key))
        other = next(others, None)
        for key, _ in node.records:
            stats["visits"] += 1
            if other is not None and other[0] == key:
                other = next(others, None)
            elif other is not None and other[0] < key:
                raise IntegrityError(
                    f"complement: subset violation in [{node.min_key}, {node.max_key}]"
                )
            else:
                yield key
        if other is not None:
            raise IntegrityError(
                f"complement: subset violation in [{node.min_key}, {node.max_key}]"
            )

    yield from visit(visit, big.root)
