"""Versioned ordered relation storage with a trie presentation.

Relations hold fixed-arity integer-key tuples (optionally carrying a
value payload, for functional relations) in lexicographic key order
inside an immutable copy-on-write page tree.  Committing a transaction
builds a new version that structurally shares every untouched page with
its predecessor; versions form a linear chain per relation.

A transaction takes writes key by key (``insert``/``erase``, as loads
and input deltas do) or as exactly one sorted batch of final writes
(``write_sorted``, as rule heads do), never both.  Either way ``commit``
merges the sorted edits into the page tree through the same ``_apply``,
which builds bottom-up when the base is empty; one ``_pack`` cuts every
leaf and branch it makes.  A version keeps no reference to its relation,
so a dropped relation is freed by reference counting.

Three access paths matter downstream:

* ``TrieCursor`` -- the trie iterator (open/up/next/seek_lub) used by the
  join evaluator.
* ``delta_iter`` -- ordered symmetric difference of two versions,
  skipping page subtrees shared by both (page touches stay proportional
  to the change count times tree height).
* ``surgery_iter`` -- the delta stream refined into trie-branch
  insert/remove operations at every depth.
"""

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from .errors import IntegrityError, UserError
from .keys import KEY_MIN, check_storable_tuple

INSERT = "INSERT"
ERASE = "ERASE"

_rec_keys = itemgetter(0)

# Leaf pages hold between capacity//2 and 2*capacity records (root leaf
# exempt); branch pages hold between _BR_MIN and _BR_MAX children.
_BR_TARGET = 16
_BR_MAX = 32
_BR_MIN = 4


class _Leaf:
    __slots__ = ("records", "min_key")

    def __init__(self, records):
        self.records = records  # list of (keys, value), sorted by keys
        self.min_key = records[0][0]

    @property
    def count(self):
        return len(self.records)


class _Branch:
    __slots__ = ("children", "mins", "count", "min_key")

    def __init__(self, children):
        self.children = children
        self.mins = [c.min_key for c in children]
        self.count = sum(c.count for c in children)
        self.min_key = self.mins[0]


class DeltaRecord(NamedTuple):
    keys: tuple
    value: object
    delta: str  # INSERT or ERASE


class SurgeryOp(NamedTuple):
    depth: int
    prefix: tuple
    delta: str


class RelationVersion:
    """Immutable committed snapshot of a relation."""

    __slots__ = ("lineage", "arity", "version_id", "root", "count")

    def __init__(self, lineage, arity, version_id, root, count):
        self.lineage = lineage  # a token shared by every version of one relation
        self.arity = arity
        self.version_id = version_id
        self.root = root
        self.count = count

    def records(self) -> Iterator[tuple]:
        """All (keys, value) records in key order."""
        stack = [self.root] if self.root is not None else []
        out = []
        while stack:
            node = stack.pop()
            if isinstance(node, _Leaf):
                out.extend(node.records)
            else:
                stack.extend(reversed(node.children))
        return iter(out)

    def locate_ge(self, target: tuple) -> Optional[tuple]:
        """Least record whose keys are >= target (tuple order), or None."""
        node = self.root
        if node is None:
            return None
        pending = []  # right-sibling subtrees to fall back into
        while True:
            while isinstance(node, _Branch):
                i = bisect_right(node.mins, target) - 1
                if i < 0:
                    i = 0
                if i + 1 < len(node.children):
                    pending.append(node.children[i + 1])
                node = node.children[i]
            i = bisect_left(node.records, target, key=_rec_keys)
            if i < len(node.records):
                return node.records[i]
            if not pending:
                return None
            # target exceeds this leaf; next subtree's first record is the lub
            node = pending.pop()
            while isinstance(node, _Branch):
                node = node.children[0]
            return node.records[0]

    def has_prefix(self, prefix: tuple) -> bool:
        pad = prefix + (KEY_MIN,) * (self.arity - len(prefix))
        rec = self.locate_ge(pad)
        return rec is not None and rec[0][: len(prefix)] == prefix

    def lookup(self, keys: tuple):
        """Return (value,) if keys present else None (value may be None)."""
        rec = self.locate_ge(keys)
        if rec is not None and rec[0] == keys:
            return (rec[1],)
        return None

    def cursor(self) -> "TrieCursor":
        return TrieCursor(self)


class Relation:
    """A named relation with its linear version chain."""

    def __init__(self, name, arity, is_function=False, leaf_capacity=64):
        if arity < 1:
            raise UserError(f"{name}: arity must be >= 1")
        if not 2 <= leaf_capacity <= 4096:
            raise UserError("leaf_capacity out of range")
        self.name = name
        self.arity = arity
        self.is_function = is_function
        self.leaf_capacity = leaf_capacity
        self.stats = {"pages_allocated": 0}
        self._txn_open = False
        self.versions = [RelationVersion(object(), arity, 0, None, 0)]

    @property
    def current(self) -> RelationVersion:
        return self.versions[-1]

    def begin(self) -> "Transaction":
        """Open the single writer's workspace over the current version."""
        if self._txn_open:
            raise UserError(f"{self.name}: transaction already open")
        self._txn_open = True
        return Transaction(self, self.current)


class Transaction:
    """Mutable single-writer workspace over a base version.

    Writes stage in one of two forms, never both: per-key edits
    (``insert``/``erase``, read back by ``lookup``) in a map from keys to
    ("+", value) | ("-", old_value), or exactly one sorted batch of final
    writes (``write_sorted``), kept as the list it arrived as.  ``commit``
    hands the batch, or the sorted map, to the same ``_apply``.
    """

    def __init__(self, relation, base):
        self.relation = relation
        self.base = base
        self._edits = {}  # keys -> ("+", value) | ("-", old_value)
        self._batch = None  # the staged sorted (keys, op, value) batch
        self._done = False

    def _check_open(self):
        if self._done:
            raise UserError("transaction already closed")

    def _check_insert(self, keys, value):
        rel = self.relation
        if len(keys) != rel.arity:
            raise UserError(f"{rel.name}: expected arity {rel.arity}, got {len(keys)}")
        check_storable_tuple(keys)
        if rel.is_function:
            if value is None:
                raise UserError(f"{rel.name}: function tuple requires a value")
        elif value is not None:
            raise UserError(f"{rel.name}: relation tuples carry no value")

    def _edit_map(self):
        """The per-key edit map; a transaction holding a batch has none."""
        if self._batch is not None:
            raise UserError(f"{self.relation.name}: transaction holds a sorted batch")
        return self._edits

    def lookup(self, keys: tuple):
        """Effective (value,) under pending edits, or None if absent."""
        e = self._edit_map().get(keys)
        if e is not None:
            return (e[1],) if e[0] == "+" else None
        return self.base.lookup(keys)

    def reader(self):
        """A batch writer's lookup of (value,): the base version's own, or
        None over an empty base, which its writer need not read at all."""
        return self.base.lookup if self.base.root is not None else None

    def write_sorted(self, writes):
        """Stage one batch of final writes, sorted and key-distinct.

        ``(keys, "+", value)`` leaves keys holding value, whatever held
        it before; ``(keys, "-", old_value)`` removes keys.  Each insert
        is checked as ``insert`` checks it.  ``writes`` is read once, in
        order, so a generator that raises part-way raises here and
        stages nothing.
        """
        self._check_open()
        if self._edit_map():
            raise UserError(f"{self.relation.name}: transaction holds per-key edits")
        arity, valueless = self.relation.arity, not self.relation.is_function
        batch = []
        prev = ()
        for write in writes:
            keys, op, value = write
            if op == "+":
                if len(keys) != arity or (value is None) is not valueless:
                    self._check_insert(keys, value)  # raises insert's error
                check_storable_tuple(keys)
            if keys <= prev:
                raise UserError(
                    f"{self.relation.name}: batch keys not increasing at {keys}"
                )
            prev = keys
            batch.append(write)
        self._batch = batch

    def insert(self, keys: tuple, value=None):
        self._check_open()
        keys = tuple(keys)
        self._check_insert(keys, value)
        edit = self._edit_map().get(keys)
        if edit is None:
            cur = base = self.base.lookup(keys)
        elif edit[0] == "+":
            cur, base = (edit[1],), None
        else:  # a pending erase hides the base record
            cur, base = None, self.base.lookup(keys)
        if cur is not None:
            if cur[0] != value:
                raise UserError(
                    f"{self.relation.name}: conflicting value for key {keys}: "
                    f"{cur[0]!r} vs {value!r}"
                )
            return  # duplicate insert is a no-op
        if base is not None and base[0] == value:
            self._edits.pop(keys, None)  # erase+insert cancels out
        else:
            self._edits[keys] = ("+", value)

    def erase(self, keys: tuple, value=None):
        self._check_open()
        rel = self.relation
        keys = tuple(keys)
        if len(keys) != rel.arity:
            raise UserError(f"{rel.name}: expected arity {rel.arity}, got {len(keys)}")
        cur = self.lookup(keys)
        if cur is None:
            return False  # erasing an absent tuple is a no-op
        if rel.is_function and value is not None and cur[0] != value:
            return False  # exact tuple (keys+value) not present
        if keys in self._edits and self._edits[keys][0] == "+":
            base = self.base.lookup(keys)
            if base is None:
                del self._edits[keys]  # insert+erase cancels out
                return True
        self._edits[keys] = ("-", cur[0])
        return True

    def clear(self):
        """Erase every record: the commit starts from an empty relation."""
        self._check_open()
        base = self.base
        self.base = RelationVersion(base.lineage, base.arity, base.version_id, None, 0)
        self._edits = {}
        self._batch = None

    def abort(self):
        self._check_open()
        self._done = True
        self.relation._txn_open = False

    def commit(self) -> RelationVersion:
        self._check_open()
        rel, base = self.relation, self.base
        edits = self._batch
        if edits is None:
            edits = sorted((keys, op, val) for keys, (op, val) in self._edits.items())
        if not edits:
            root, count = base.root, base.count
        else:
            alloc = [0]
            reps = _apply(base.root, edits, rel, alloc)
            while len(reps) > 1:
                reps = [
                    _Branch(reps[i : i + _BR_TARGET])
                    for i in range(0, len(reps), _BR_TARGET)
                ]
                alloc[0] += len(reps)
            root = reps[0] if reps else None
            while isinstance(root, _Branch) and len(root.children) == 1:
                root = root.children[0]
            count = root.count if root is not None else 0
            rel.stats["pages_allocated"] += alloc[0]
        self._done = True
        rel._txn_open = False
        version = RelationVersion(
            base.lineage, base.arity, base.version_id + 1, root, count
        )
        rel.versions.append(version)
        return version


def _pack(items, fit, part, make, alloc):
    """Pages made from items: none for no items, one for at most ``fit``,
    else as few even pages of at most ``part`` items as hold them.

    ``make`` builds a page from a slice of items; ``alloc[0]`` counts
    every page made.
    """
    n = len(items)
    if not n:
        return []
    if n <= fit:
        alloc[0] += 1
        return [make(items)]
    parts = -(-n // part)
    size, extra = divmod(n, parts)
    out, at = [], 0
    for i in range(parts):
        step = size + (i < extra)
        out.append(make(items[at : at + step]))
        at += step
    alloc[0] += parts
    return out


def _merged_records(records, edits):
    out = []
    i, n = 0, len(records)
    for keys, op, val in edits:
        while i < n and records[i][0] < keys:
            out.append(records[i])
            i += 1
        if i < n and records[i][0] == keys:
            i += 1  # superseded by the edit
        if op == "+":
            out.append((keys, val))
    out.extend(records[i:])
    return out


def _undersized(node, leaf_min):
    if isinstance(node, _Leaf):
        return len(node.records) < leaf_min
    return len(node.children) < _BR_MIN


def _merge_pair(a, b, cap, alloc):
    if isinstance(a, _Leaf):
        return _pack(a.records + b.records, 2 * cap, cap, _Leaf, alloc)
    return _pack(a.children + b.children, _BR_MAX, _BR_MAX, _Branch, alloc)


def _fix_siblings(nodes, cap, leaf_min, alloc):
    out = list(nodes)
    i = 0
    while i < len(out):
        if len(out) > 1 and _undersized(out[i], leaf_min):
            j = i + 1 if i + 1 < len(out) else i - 1
            lo, hi = min(i, j), max(i, j)
            out[lo : hi + 1] = _merge_pair(out[lo], out[hi], cap, alloc)
            i = lo
            continue
        i += 1
    return out


def _apply(node, edits, rel, alloc):
    """Rebuild the subtree with sorted edits; returns replacement nodes.

    Untouched child subtrees are returned by reference, so a commit of k
    edits allocates O(k * height) fresh pages.
    """
    cap = rel.leaf_capacity
    if not isinstance(node, _Branch):  # a leaf, or no base at all
        if node is None:
            records = [(k, v) for k, op, v in edits if op == "+"]
        else:
            records = _merged_records(node.records, edits)
        return _pack(records, 2 * cap, cap, _Leaf, alloc)
    edit_keys = [e[0] for e in edits]
    new_children = []
    lo = 0
    last = len(node.children) - 1
    for i, child in enumerate(node.children):
        hi = bisect_left(edit_keys, node.mins[i + 1]) if i < last else len(edits)
        if lo == hi:
            new_children.append(child)
        else:
            new_children.extend(_apply(child, edits[lo:hi], rel, alloc))
        lo = hi
    new_children = _fix_siblings(new_children, cap, max(1, cap // 2), alloc)
    return _pack(new_children, _BR_MAX, _BR_MAX, _Branch, alloc)


def _min_key_of(item):
    if isinstance(item, tuple):
        return item[0]
    return item.min_key


def _expand(stack, item, stats):
    stats["pages"] = stats.get("pages", 0) + 1
    if isinstance(item, _Leaf):
        stack.extend(reversed(item.records))
    else:
        stack.extend(reversed(item.children))


def delta_iter(old: RelationVersion, new: RelationVersion, stats=None):
    """Yield the symmetric difference of two versions in key order.

    A value change for the same keys appears as ERASE(old) then
    INSERT(new).  Page subtrees shared by both versions are recognized by
    identity and skipped without being read; ``stats['pages']`` counts
    the pages actually touched.
    """
    if old.lineage is not new.lineage:
        raise UserError("delta_iter: versions from different relations")
    if stats is None:
        stats = {}
    a = [old.root] if old.root is not None else []
    b = [new.root] if new.root is not None else []
    while a or b:
        if a and b:
            x, y = a[-1], b[-1]
            if x is y:
                a.pop()
                b.pop()
                continue
            x_rec, y_rec = isinstance(x, tuple), isinstance(y, tuple)
            kx, ky = _min_key_of(x), _min_key_of(y)
            if kx < ky:
                if x_rec:
                    a.pop()
                    yield DeltaRecord(x[0], x[1], ERASE)
                else:
                    _expand(a, a.pop(), stats)
            elif ky < kx:
                if y_rec:
                    b.pop()
                    yield DeltaRecord(y[0], y[1], INSERT)
                else:
                    _expand(b, b.pop(), stats)
            elif x_rec and y_rec:
                a.pop()
                b.pop()
                if x[1] != y[1]:
                    yield DeltaRecord(x[0], x[1], ERASE)
                    yield DeltaRecord(y[0], y[1], INSERT)
            elif not x_rec and (y_rec or x.count >= y.count):
                _expand(a, a.pop(), stats)
            else:
                _expand(b, b.pop(), stats)
        elif a:
            x = a.pop()
            if isinstance(x, tuple):
                yield DeltaRecord(x[0], x[1], ERASE)
            else:
                _expand(a, x, stats)
        else:
            y = b.pop()
            if isinstance(y, tuple):
                yield DeltaRecord(y[0], y[1], INSERT)
            else:
                _expand(b, y, stats)


def surgery_iter(old: RelationVersion, new: RelationVersion, stats=None):
    """Yield trie-branch changes between two versions.

    Derived from delta_iter by prefix bookkeeping: a record change also
    removes every branch left childless in the new trie (emitted
    deepest-first, with the last delta record under the branch) and adds
    every branch absent from the old trie (emitted shallowest-first, with
    the first delta record under it).
    """
    arity = old.arity
    deltas = delta_iter(old, new, stats)
    prev = None
    cur = next(deltas, None)
    while cur is not None:
        nxt = next(deltas, None)
        keys = cur.keys
        if cur.delta == ERASE:
            ops = [SurgeryOp(arity, keys, ERASE)]
            for d in range(arity - 1, 0, -1):
                p = keys[:d]
                if new.has_prefix(p) or (nxt is not None and nxt.keys[:d] == p):
                    break
                ops.append(SurgeryOp(d, p, ERASE))
            yield from ops
        else:
            for d in range(1, arity):
                p = keys[:d]
                if old.has_prefix(p):
                    continue
                if prev is not None and prev.keys[:d] == p:
                    continue
                yield SurgeryOp(d, p, INSERT)
            yield SurgeryOp(arity, keys, INSERT)
        prev, cur = cur, nxt


class TrieCursor:
    """Trie iterator over one committed version.

    Presents the relation as a trie whose level d enumerates, in strictly
    increasing order, the distinct d-th keys under the current (d-1)-key
    prefix.  Positions are backed by a root-to-leaf path into the page
    tree; open() snapshots the path so up() can restore the outer level
    even after the inner level ran to its end.

    At the last level (depth == arity) full keys are distinct, so next()
    steps to the following record of the current leaf and leaves the leaf,
    through _seek_record, only at its end; seek_lub() there seeks the full
    key itself, with no KEY_MIN padding.  A shallower move seeks the least
    record under the successor prefix.  Neither compares prefixes at
    depth 1, where there is none.  A seek within the current leaf bisects
    only when the target lies beyond the next record.
    """

    __slots__ = ("version", "arity", "depth", "_path", "_rec", "_ended", "_snaps")

    def __init__(self, version):
        self.version = version
        self.arity = version.arity
        self.depth = 0
        self._path = []
        self._rec = None
        self._ended = True
        self._snaps = []

    def at_end(self) -> bool:
        return self._ended

    def key(self):
        if self._ended:
            raise IntegrityError("key() at end")
        return self._rec[0][self.depth - 1]

    def value(self):
        if self._ended:
            raise IntegrityError("value() at end")
        return self._rec[1]

    def open(self):
        if self.depth >= self.arity:
            raise IntegrityError("open() below leaf level")
        if self.depth > 0 and self._ended:
            raise IntegrityError("open() at end")
        self._snaps.append((list(self._path), self._rec, self._ended))
        self.depth += 1
        if self.depth == 1:
            root = self.version.root
            if root is None:
                self._rec, self._ended = None, True
                return
            self._path.clear()
            node = root
            while isinstance(node, _Branch):
                self._path.append((node, 0))
                node = node.children[0]
            self._path.append((node, 0))
            self._rec = node.records[0]
            self._ended = False
        # deeper open: the current record is the least one under the new
        # prefix already, so the position stands.

    def up(self):
        if self.depth == 0:
            raise IntegrityError("up() above root")
        path, rec, ended = self._snaps.pop()
        self._path[:] = path
        self._rec, self._ended = rec, ended
        self.depth -= 1

    def next(self):
        if self._ended:
            raise IntegrityError("next() at end")
        d = self.depth
        keys = self._rec[0]
        if d == self.arity:
            path = self._path
            leaf, i = path[-1]
            i += 1
            if i < len(leaf.records):
                rec = leaf.records[i]
                if d == 1 or rec[0][:-1] == keys[:-1]:
                    path[-1] = (leaf, i)
                    self._rec = rec
                    return False
                self._ended = True
                return True
            rec = self._seek_record(keys[:-1] + (keys[-1] + 1,))
        else:
            rec = self._seek_record(
                keys[: d - 1] + (keys[d - 1] + 1,) + (KEY_MIN,) * (self.arity - d)
            )
        if rec is None or (d > 1 and rec[0][: d - 1] != keys[: d - 1]):
            self._ended = True
        else:
            self._rec = rec
        return self._ended

    def seek_lub(self, k):
        """Move to the least key >= k at the current depth (forward only)."""
        if self._ended:
            raise IntegrityError("seek_lub() at end")
        d = self.depth
        keys = self._rec[0]
        if k <= keys[d - 1]:
            return False
        prefix = keys[: d - 1]
        target = prefix + (k,)
        if d < self.arity:
            target += (KEY_MIN,) * (self.arity - d)
        rec = self._seek_record(target)
        if rec is None or (d > 1 and rec[0][: d - 1] != prefix):
            self._ended = True
        else:
            self._rec = rec
        return self._ended

    def _seek_record(self, target):
        path = self._path
        descend_from = None
        if path:
            leaf, idx = path[-1]
            recs = leaf.records
            j = idx + 1  # a short hop lands on the next record: no bisect
            if j < len(recs) and recs[j][0] < target:
                j = bisect_left(recs, target, j + 1, len(recs), key=_rec_keys)
            if j < len(recs):
                path[-1] = (leaf, j)
                return recs[j]
            path.pop()
        elif self.version.root is not None:
            descend_from = self.version.root
        while True:
            if descend_from is None:
                if not path:
                    return None
                node, i = path[-1]
                j = bisect_right(node.mins, target) - 1
                nxt = j if j > i else i + 1
                if nxt >= len(node.children):
                    path.pop()
                    continue
                path[-1] = (node, nxt)
                descend_from = node.children[nxt]
            cur = descend_from
            descend_from = None
            while isinstance(cur, _Branch):
                j2 = bisect_right(cur.mins, target) - 1
                if j2 < 0:
                    j2 = 0
                path.append((cur, j2))
                cur = cur.children[j2]
            recs = cur.records
            k2 = bisect_left(recs, target, key=_rec_keys)
            if k2 < len(recs):
                path.append((cur, k2))
                return recs[k2]
            # leaf exhausted; ascend from its parent frame
