"""Semigroup range aggregation over ordered key-tuple records.

A ScanTree keeps records (key tuple -> value) partitioned by their first
``prefix_len`` keys (Graefe's partitioned B-tree, "Modern B-Tree
Techniques", 2011).  It is a read-only mapping from each prefix to the
root of its partition: sorted leaf buckets under a binary tree whose
internal nodes cache the combine of their children, so the aggregate of
any key interval folds at most O(log n) cached values per partition it
meets.  No partition is kept empty, and no tree level only separates one
prefix from another; with ``prefix_len`` 0 the one partition ``()`` is
``root``.  Counts are cached alongside: the roots' sum is ``size``, and
they power count-pruned complement iteration.

Every edit goes through one path: ``merge`` takes a batch of ``(key,
value)`` pairs sorted by key, where the value ``ABSENT`` erases its key,
splits it at prefix boundaries by bisection and applies each run to its
partition in one descent.  ``apply_sorted`` is ``merge`` behind one
C-level check that the keys strictly increase; the engine's own batches
are sorted as they are made and skip it.  ``ABSENT`` is defined here
once; the store's page tree takes batches in the same format.  A subtree
the batch does not change is returned as it is; each changed node is
rebuilt from its new children once, on the way up.  Rebalancing: a leaf
splits in halves, recursively, while it exceeds twice the leaf target,
and an internal node whose child holds more than twice as many records
as its sibling is rebuilt (perfectly balanced) on the spot, the weight
balance ``audit`` checks.

Only ``merge`` and ``reset`` change the map, and each records the roots
it replaces while a ``begin`` is open: ``rollback`` puts those roots
back, ``release`` drops them.  The record holds only the partitions
changed since ``begin``, so neither costs more than the changes did.
"""

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice, repeat
from operator import add, is_, itemgetter, lt
from typing import Callable

from .errors import IntegrityError, UserError
from .keys import KEY_MAX

_rec_key = itemgetter(0)
_rec_value = itemgetter(1)


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


EMPTY = _Sentinel("EMPTY")  # the combine of no records
ABSENT = _Sentinel("ABSENT")  # a sorted-batch value: its key ends absent


# records per leaf of the trees the engine keeps (sensitivity indices and
# min/max intermediates); 32, 64 and 128 measured alike on graph
LEAF_TARGET = 64


def wrap64(x: int) -> int:
    return (x + (1 << 63)) % (1 << 64) - (1 << 63)


@dataclass(frozen=True)
class SemigroupOp:
    name: str
    combine: Callable  # of two aggregates
    fold: Callable  # the aggregate of a non-empty iterable of record values


MAX_OP = SemigroupOp("MAX", max, max)
MIN_OP = SemigroupOp("MIN", min, min)
COUNT_OP = SemigroupOp("COUNT", add, lambda vs: sum(1 for _ in vs))


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


class ScanTree(Mapping):
    __slots__ = ("op", "leaf_target", "prefix_len", "stats", "_roots", "_undo", "_added")

    def __init__(self, op: SemigroupOp, leaf_target: int = 12, prefix_len: int = 0):
        if leaf_target < 1:
            raise UserError("leaf_target must be >= 1")
        self.op = op
        self.leaf_target = leaf_target
        self.prefix_len = prefix_len
        self.stats = {"combines": 0, "rebuilds": 0}
        self._roots = {}  # prefix -> root of its records
        self._undo = None  # prefix -> its root at ``begin`` (None: absent)
        self._added = 0

    @property
    def tree(self):
        """The tree itself: a head's or an index's ``.tree`` holds the stats."""
        return self

    @property
    def root(self):
        """The root of partition ``()``, the whole tree's when ``prefix_len``
        is 0; None when it is empty."""
        return self._roots.get(())

    # -- the mapping: prefix -> root ---------------------------------------

    def __getitem__(self, prefix):
        return self._roots[prefix]

    def get(self, prefix, default=None):
        return self._roots.get(prefix, default)

    def __iter__(self):
        return iter(self._roots)

    def __len__(self):
        return len(self._roots)

    @property
    def size(self) -> int:
        return sum(root.count for root in self._roots.values())

    # -- point access ----------------------------------------------------

    def find(self, key):
        """``(value,)`` of key's record, else None: one dict lookup and one
        descent of its partition."""
        node = self._roots.get(key[: self.prefix_len])
        while isinstance(node, _SNode):
            node = node.left if key <= node.left.max_key else node.right
        if node is None:
            return None
        recs = node.records
        i = bisect_left(recs, key, key=_rec_key)
        if i < len(recs) and recs[i][0] == key:
            return (recs[i][1],)
        return None

    def insert(self, key, value=None):
        if self.find(key) is not None:
            raise UserError(f"scan-tree key already present: {key}")
        self.apply_sorted([(key, value)])

    def erase(self, key):
        if self.find(key) is None:
            raise UserError(f"scan-tree key not present: {key}")
        self.apply_sorted([(key, ABSENT)])

    # -- edits -------------------------------------------------------------

    def apply_sorted(self, edits):
        """``merge`` the edits once their keys are checked to strictly
        increase: keys out of order are refused before the tree changes."""
        following = map(_rec_key, islice(edits, 1, None))
        if not all(map(lt, map(_rec_key, edits), following)):  # one C-level pass
            bad = next(b for (a, _), (b, _) in zip(edits, edits[1:]) if not a < b)
            raise UserError(f"scan-tree batch keys not increasing at {bad}")
        return self.merge(edits)

    def merge(self, edits):
        """Apply sorted, key-distinct (key, value) edits, unchecked; returns
        how many keys were added.

        A value of ``ABSENT`` erases its key; any other value sets its
        key, inserting or replacing.  A present key set to an equal value
        is skipped, and so is an absent key erased.  Each prefix's run is
        found by one bisection (its upper bound pads the prefix to the
        batch's key length with ``KEY_MAX``) and merged into its partition.
        """
        p, n = self.prefix_len, len(edits)
        tail = (KEY_MAX,) * (len(edits[0][0]) - p) if n else ()
        added = lo = 0
        while lo < n:
            prefix = edits[lo][0][:p]
            hi = bisect_right(edits, prefix + tail, lo, n, key=_rec_key) if p else n
            added += self._merge_run(prefix, edits, lo, hi)
            lo = hi
        return added

    def _merge_run(self, prefix, edits, lo, hi):
        """Merge edits[lo:hi], all of ``prefix``, into its partition; returns
        how many keys were added.

        Into an empty partition the run's set pairs are bulk-built, each
        pair a record as it is (a whole batch without erases is not even
        copied); its erase pairs name absent keys and are dropped.  Into a
        filled one the run is split at each node's left max key and merged
        at the leaves (an overflowing leaf splits in halves, recursively);
        a subtree the run leaves as it was is returned untouched, and each
        changed node is rebuilt and rebalance-checked once on the way up.
        """
        roots = self._roots
        old = roots.get(prefix)
        undo = self._undo
        if undo is not None and prefix not in undo:
            undo[prefix] = old
        if old is None:
            run = edits if hi - lo == len(edits) else edits[lo:hi]
            if any(map(is_, map(_rec_value, run), repeat(ABSENT))):  # C-level
                run = [edit for edit in run if edit[1] is not ABSENT]
            added = len(run)
            root = self._build(run) if added else None
        else:
            self._added = 0
            root = self._apply(old, edits, lo, hi)
            added = self._added
        if root is not None:
            roots[prefix] = root
        elif old is not None:
            del roots[prefix]
        return added

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
        if not _violates(left, right):
            return _SNode(left, right, self.op)
        self.stats["rebuilds"] += 1
        return self._build(self._collect(left) + self._collect(right))

    def _apply_leaf(self, leaf, edits, lo, hi):
        old = leaf.records
        n = len(old)
        out, at, added = [], 0, 0  # old[:at] is decided: copied or dropped
        for j in range(lo, hi):
            edit = edits[j]
            key, value = edit
            i = bisect_left(old, key, at, n, key=_rec_key)
            present = i < n and old[i][0] == key
            if old[i][1] == value if present else value is ABSENT:
                continue  # the key already reads so
            out.extend(old[at:i])
            at = i + present
            if value is not ABSENT:
                out.append(edit)
                added += not present
        if not out and not at:
            return leaf  # no edit changed a record
        out.extend(old[at:])
        self._added += added
        return self._split(out) if out else None

    def _split(self, records):
        if len(records) <= 2 * self.leaf_target:
            return _SLeaf(records, self.op)
        mid = len(records) // 2
        return _SNode(self._split(records[:mid]), self._split(records[mid:]), self.op)

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
        self.reset()
        self.apply_sorted(sorted(records, key=_rec_key))

    def reset(self):
        """Drop every partition."""
        undo = self._undo
        if undo is not None:
            for prefix, root in self._roots.items():
                undo.setdefault(prefix, root)
        self._roots.clear()

    def begin(self):
        """Start recording the roots that changes replace."""
        self._undo = {}

    def rollback(self):
        """Put back every root replaced since ``begin``, and stop recording."""
        roots = self._roots
        for prefix, root in self._undo.items():
            if root is None:
                roots.pop(prefix, None)
            else:
                roots[prefix] = root
        self._undo = None

    def release(self):
        """Stop recording; the replaced roots are freed."""
        self._undo = None

    # -- range queries ---------------------------------------------------

    def _met(self, lo, hi):
        """The roots of the partitions the range lo..hi meets, in key order:
        one compare per prefix, and a sort of the ones met."""
        p, roots = self.prefix_len, self._roots
        first, last = lo[:p], hi[:p]
        return [roots[q] for q in sorted(q for q in roots if first <= q <= last)]

    def range_scan(self, lo, hi, probe=None):
        """The aggregate of the records with lo <= key <= hi, or EMPTY.

        ``stats['combines']`` counts the values folded: one per maximal
        fully-covered subtree plus one per partially-covered boundary
        leaf, in each partition the range meets.  ``probe``, if given,
        collects (min_key, max_key, value) for each contribution.
        """
        if lo > hi:
            raise UserError(f"range_scan: lo {lo!r} > hi {hi!r}")
        combine, agg = self.op.combine, EMPTY
        for root in self._met(lo, hi):
            part = self._scan(root, lo, hi, probe)
            if part is not EMPTY:
                agg = part if agg is EMPTY else combine(agg, part)
        return agg

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
        return sum(self._count(root, lo, hi) for root in self._met(lo, hi))

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
        """The (key, value) records with lo <= key <= hi, in key order."""
        stack = self._met(lo, hi)[::-1]
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

    def records(self):
        """Every (key, value) record, in key order."""
        roots = self._roots
        for prefix in sorted(roots):
            yield from self._collect(roots[prefix])

    # -- invariant checks (used by tests) ----------------------------------

    def audit(self):
        """Every partition is a sound, weight-balanced scan tree of records
        that carry its prefix, and none is empty."""
        p = self.prefix_len
        for prefix, root in self._roots.items():
            assert len(prefix) == p and root is not None
            self._audit(root)
            assert root.min_key[:p] == prefix == root.max_key[:p]

    def _audit(self, node):
        op = self.op
        if isinstance(node, _SLeaf):
            recs = node.records
            assert all(a[0] < b[0] for a, b in zip(recs, recs[1:]))
            assert all(v is not ABSENT for _, v in recs)
            assert node.count == len(recs) > 0
            assert node.agg == op.fold(map(_rec_value, recs))
            return
        left, right = node.left, node.right
        self._audit(left)
        self._audit(right)
        assert left.max_key < right.min_key
        assert not _violates(left, right), (left.count, right.count)
        assert node.count == left.count + right.count
        assert node.agg == op.combine(left.agg, right.agg)


def complement_iter(big: ScanTree, small: ScanTree, stats=None):
    """Yield keys of big \\ small in key order, pruning by interval counts.

    Both trees have ``prefix_len`` 0.  Requires small's record set to be
    contained in big's; a violation is detected lazily (an interval where
    small outcounts big) and raised as IntegrityError naming the interval.
    ``stats['visits']`` counts big-side nodes entered plus leaf keys
    compared.
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
