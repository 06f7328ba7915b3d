"""Semigroup range aggregation over ordered key-tuple records.

A ScanTree keeps records (key tuple -> value) sorted in small leaf
buckets under a binary tree whose internal nodes cache the combine of
their children, so the aggregate of any key interval folds at most
O(log n) cached values.  Counts are cached alongside: the root's is the
tree's ``size``, and they power count-pruned complement iteration.

Every edit goes through one path: ``merge`` takes a run of a batch of
``(key, value)`` pairs sorted by key, where the value ``ABSENT`` erases
its key, and applies it in one descent to the tree under a given root.
``apply_sorted`` merges a whole batch into the tree's own root (a single
insert or erase is the batch of one).  ``Partitions`` keeps one root per
key prefix under one op, leaf target and stats, splits a batch at prefix
boundaries and merges each run into its prefix's root; the sensitivity
index and the min/max intermediate are both kept so.  ``ABSENT`` is
defined here once; the store's page tree takes batches in the same
format.  A subtree the batch does not change is returned as it is; each
changed node is rebuilt from its new children once, on the way up.
Rebalancing: a leaf splits in halves, recursively, while it exceeds
twice the bucket target and triggers a parent rebuild when it falls
under half of it; an internal node whose child holds more than twice as
many records as its sibling is rebuilt (perfectly balanced) on the spot.
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
GROUP_SUM_OP = SemigroupOp(
    "GROUP_SUM", lambda a, b: wrap64(a + b), lambda vs: wrap64(sum(vs))
)


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


def _find(node, key):
    """``(value,)`` of key's record in the tree under ``node``, else None."""
    while isinstance(node, _SNode):
        node = node.left if key <= node.left.max_key else node.right
    if node is None:
        return None
    recs = node.records
    i = bisect_left(recs, key, key=_rec_key)
    if i < len(recs) and recs[i][0] == key:
        return (recs[i][1],)
    return None


def _check_range(lo, hi):
    if lo > hi:
        raise UserError(f"range_scan: lo {lo!r} > hi {hi!r}")


class ScanTree:
    def __init__(self, op: SemigroupOp, leaf_target: int = 12):
        if leaf_target < 1:
            raise UserError("leaf_target must be >= 1")
        self.op = op
        self.leaf_target = leaf_target
        self.root = None
        self.stats = {"combines": 0, "rebuilds": 0}
        self._added = 0

    @property
    def size(self) -> int:  # the root's record count, 0 when empty
        return self.root.count if self.root is not None else 0

    # -- point access ----------------------------------------------------

    def get(self, key):
        return _find(self.root, key)

    def insert(self, key, value=None):
        if self.get(key) is not None:
            raise UserError(f"scan-tree key already present: {key}")
        self.apply_sorted([(key, value)])

    def erase(self, key):
        if self.get(key) is None:
            raise UserError(f"scan-tree key not present: {key}")
        self.apply_sorted([(key, ABSENT)])

    def apply_sorted(self, edits):
        """Apply sorted, key-distinct (key, value) edits in one descent.

        A value of ``ABSENT`` erases its key; any other value sets its
        key, inserting or replacing.  A present key set to an equal value
        is skipped, and so is an absent key erased.  Returns how many keys
        were added.  Keys that do not strictly increase are refused,
        before the tree changes; the batch is then merged into the root.
        """
        if not edits:
            return 0
        following = map(_rec_key, islice(edits, 1, None))
        if not all(map(lt, map(_rec_key, edits), following)):  # one C-level pass
            bad = next(b for (a, _), (b, _) in zip(edits, edits[1:]) if not a < b)
            raise UserError(f"scan-tree batch keys not increasing at {bad}")
        self.root, added = self.merge(self.root, edits, 0, len(edits))
        return added

    def merge(self, root, edits, lo, hi):
        """The tree under ``root`` with the edits[lo:hi] applied.

        The edits are as ``apply_sorted`` takes them, and are not checked.
        Returns (new root, keys added); the new root is None when no
        record is left, and ``self.root`` is neither read nor set.  The
        run is split at each node's left max key and merged at the leaves
        (an overflowing leaf splits in halves, recursively); a subtree the
        run leaves as it was is returned untouched, and each changed node
        is rebuilt and rebalance-checked once on the way up.  Into an
        empty tree the run's set pairs are bulk-built, each pair a record
        as it is (a whole batch without erases is not even copied); its
        erase pairs name absent keys and are dropped.
        """
        if root is None:
            run = edits if hi - lo == len(edits) else edits[lo:hi]
            if any(map(is_, map(_rec_value, run), repeat(ABSENT))):  # C-level
                run = [edit for edit in run if edit[1] is not ABSENT]
            n = len(run)
            return (self._build(run) if n else None), n
        self._added = 0
        root = self._apply(root, edits, lo, hi)
        return root, self._added

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
        self.root = None
        self.apply_sorted(sorted(records, key=_rec_key))

    # -- range queries ---------------------------------------------------

    def range_scan(self, lo, hi, probe=None):
        """The aggregate of the records with lo <= key <= hi, or EMPTY.

        ``stats['combines']`` counts the values folded: one per maximal
        fully-covered subtree plus one per partially-covered boundary
        leaf.  ``probe``, if given, collects (min_key, max_key, value)
        for each contribution.
        """
        return self.scan_root(self.root, lo, hi, probe)

    def scan_root(self, root, lo, hi, probe=None):
        """``range_scan`` over the tree under ``root`` (None: empty)."""
        _check_range(lo, hi)
        if root is None:
            return EMPTY
        return self._scan(root, lo, hi, probe)

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
        self.audit_root(self.root)

    def audit_root(self, root):
        """Checks the tree under ``root`` (None: empty); returns its record count."""
        if root is None:
            return 0
        op = self.op

        def walk(node):
            if isinstance(node, _SLeaf):
                recs = node.records
                assert all(a[0] < b[0] for a, b in zip(recs, recs[1:]))
                assert all(v is not ABSENT for _, v in recs)
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

        return len(walk(root))


class Partitions(Mapping):
    """Scan trees partitioned by key prefix (Graefe's partitioned B-tree,
    "Modern B-Tree Techniques", 2011).

    A read-only mapping from each prefix of ``prefix_len`` keys to the root
    of a scan tree over the records that carry it, never None: no partition
    is kept empty, and no tree level only separates one prefix from
    another.  The roots share one ``ScanTree`` (``tree``) for the op, the
    leaf target and the stats; its own root stays empty.  Only
    ``apply_sorted``, ``merge`` and ``reset`` change the map, and each
    records the roots it replaces while a ``begin`` is open: ``rollback``
    puts those roots back, ``release`` drops them.  The record holds only
    the partitions changed since ``begin``, so neither costs more than the
    changes did.
    """

    __slots__ = ("tree", "prefix_len", "_roots", "_tail", "_undo")

    def __init__(self, op: SemigroupOp, prefix_len: int, key_len: int):
        self.tree = ScanTree(op, leaf_target=LEAF_TARGET)
        self.prefix_len = prefix_len
        self._roots = {}  # prefix -> root of its records
        self._tail = (KEY_MAX,) * (key_len - prefix_len)  # no key's tail is above
        self._undo = None  # prefix -> its root at ``begin`` (None: absent)

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

    def find(self, key):
        """``(value,)`` of key's record, else None: one dict lookup and one
        descent of its partition."""
        return _find(self._roots.get(key[: self.prefix_len]), key)

    def apply_sorted(self, edits):
        """Merge a batch as ``ScanTree.apply_sorted`` takes it, unchecked,
        run by run: each prefix's run is found by one bisection and merged
        into its partition.  Returns how many keys were added."""
        p, tail, n = self.prefix_len, self._tail, len(edits)
        added = lo = 0
        while lo < n:
            prefix = edits[lo][0][:p]
            hi = bisect_right(edits, prefix + tail, lo, n, key=_rec_key)
            added += self.merge(prefix, edits, lo, hi)
            lo = hi
        return added

    def merge(self, prefix, edits, lo, hi):
        """Merge edits[lo:hi], all of ``prefix``, into its partition; returns
        how many keys were added."""
        roots = self._roots
        old = roots.get(prefix)
        undo = self._undo
        if undo is not None and prefix not in undo:
            undo[prefix] = old
        root, added = self.tree.merge(old, edits, lo, hi)
        if root is not None:
            roots[prefix] = root
        elif old is not None:
            del roots[prefix]
        return added

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

    def records(self):
        """Every (key, value) record, in key order."""
        roots = self._roots
        for prefix in sorted(roots):
            yield from ScanTree._collect(roots[prefix])

    def range_scan(self, lo, hi):
        """The aggregate of the records with lo <= key <= hi, or EMPTY: the
        partitions the range meets, each scanned, folded in key order.

        Finding those partitions compares every prefix once (and sorts
        only the ones met), so a call costs O(partitions); the ``scan``
        probe is its one caller, and no round makes one.
        """
        _check_range(lo, hi)
        p, roots, tree = self.prefix_len, self._roots, self.tree
        first, last, combine = lo[:p], hi[:p], tree.op.combine
        agg = EMPTY
        for prefix in sorted(q for q in roots if first <= q <= last):
            part = tree.scan_root(roots[prefix], lo, hi)
            if part is not EMPTY:
                agg = part if agg is EMPTY else combine(agg, part)
        return agg

    def audit(self):
        """Every partition is a sound scan tree of records that carry its
        prefix, and none is empty."""
        p = self.prefix_len
        for prefix, root in self._roots.items():
            assert len(prefix) == p and root is not None
            self.tree.audit_root(root)
            assert root.min_key[:p] == prefix == root.max_key[:p]


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
