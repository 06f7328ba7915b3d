"""Versioned ordered relation storage with a trie presentation.

Relations hold fixed-arity integer-key tuples (optionally carrying a
value payload, for functional relations) in lexicographic key order
inside an immutable copy-on-write page tree.  Committing a transaction
builds a new version that structurally shares every untouched page with
its predecessor.  A relation keeps its current version only: a
superseded one lives while a reader still holds it (a rule instance's
bound versions, an open transaction's base, a cursor, a caller), and
reference counting then frees it with the pages no other version shares.

A transaction takes writes key by key (``insert``/``erase``, as loads
and input deltas do) or as exactly one sorted batch of final writes
(``write_sorted``, as rule heads do), never both.  A batch list is
checked and staged as it is, with no copy.  Either way ``commit`` merges
one write format into the page tree through the same ``_apply``:
``(keys, value)`` pairs sorted by keys, where the value ``ABSENT`` (the
scan tree's marker, shared by every ordered tree) means keys end absent
and any other pair becomes the page record as it is.  ``_apply`` builds
bottom-up when the base is empty; one ``_pack`` cuts every leaf and
branch it makes.  A version keeps no reference to its relation,
so a dropped relation is freed by reference counting.  A commit over a
non-empty base keeps its net change in the new version's ``log``: a weak
reference to the base, the sorted writes it merged and the base records
they superseded, which the leaf merge meets as it splices each write in.

Three access paths matter downstream:

* ``TrieCursor`` -- the trie iterator (open/up/next/seek_lub) used by the
  join evaluator.  ``open``, ``next`` and ``seek_lub`` return the key they
  land on, or None at the end of the level, so a move is one call.  A
  first-level open stands at the version's first record, read once per
  version and cached on it (``RelationVersion.first``), and builds its
  page path only when a move needs it.
* ``delta_iter`` -- ordered symmetric difference of two versions,
  skipping page subtrees shared by both (page touches stay proportional
  to the change count times tree height).
* ``surgery_iter`` -- the delta stream refined into trie-branch
  insert/remove operations at every depth.  For a version and the very
  base it was committed on, the stream is read from the version's log;
  any other pair (several commits apart, a rolled-back base, a load or a
  commit over a cleared workspace) is walked by ``delta_iter``.

Per-round cost model, for k edits into a relation of height h (branch
fan-out at most 32, so every per-page pass below is bounded):

* commit -- O(k * h) bisects and fresh pages: each run of edits that
  falls to one child is routed with one bisect, untouched children are
  copied by slice, the sibling fix-up runs only when a page is
  undersized, and a leaf splices each edit in with one bisect.  A branch
  whose edits all fall to one child that comes back as one page of legal
  size (in a one-edit commit, every branch but those where a page splits
  or merges) is a copy of the branch with that child's slot swapped
  (``_swap_child``): no sibling is read, ``mins`` is shared unless the
  child's min key moved, and ``count`` moves by the child's change;
* cursor move -- a move within the current leaf allocates nothing but
  the unpadded key tuple a seek looks up: the leaf's record list and
  index sit in two cursor slots, and one compare against the bound its
  ``open`` made tells whether a record is under the level's prefix; the
  next record is found with no bisect.  A target past the leaf's last
  record climbs by compares and descends once, O(h) bisects however far
  the target, through the one page-tree descent ``_descend`` that
  lookups use from the root; an open followed by a far seek descends
  once, from the root;
* surgeries of a version against its base -- O(k) reads of the log, no
  page of the delta walk, and (at arity above 1) one O(h) prefix lookup
  per delta record and trie level;
* delta walk -- O((k + 1) * h) pages touched, shared pages and records
  dropped a whole run at a time.
"""

from bisect import bisect_left, bisect_right
from itertools import compress, count
from operator import attrgetter, is_not, itemgetter
from typing import Iterator, NamedTuple, Optional
from weakref import ref

from .errors import IntegrityError, UserError
from .keys import KEY_MAX, check_storable_tuple
from .scantree import ABSENT

INSERT = "INSERT"
ERASE = "ERASE"

_rec_keys = itemgetter(0)
_min_key = attrgetter("min_key")
_count = attrgetter("count")
_children = attrgetter("children")
_TOP = (KEY_MAX,)  # appended to a prefix, it orders above every key under it

# Leaf pages hold between capacity//2 and 2*capacity records (root leaf
# exempt); branch pages hold between _BR_MIN and _BR_MAX children.
_BR_TARGET = 16
_BR_MAX = 32
_BR_MIN = 4


class _Leaf:
    __slots__ = ("records", "min_key", "count")

    def __init__(self, records):
        self.records = records  # list of (keys, value), sorted by keys
        self.min_key = records[0][0]
        self.count = len(records)


class _Branch:
    __slots__ = ("children", "mins", "count", "min_key")

    def __init__(self, children):
        self.children = children
        self.mins = list(map(_min_key, children))
        self.count = sum(map(_count, children))
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
    """Immutable committed snapshot of a relation.

    Its ``log``, kept by a commit over a non-empty base, holds no page and
    only a weak reference to the base, so it keeps no superseded version
    alive.  Its first record is read once, by the first ``first`` call,
    and kept.
    """

    __slots__ = (
        "lineage", "arity", "version_id", "root", "log", "_first", "__weakref__"
    )

    def __init__(self, lineage, arity, version_id, root, log=None):
        self.lineage = lineage  # a token shared by every version of one relation
        self.arity = arity
        self.version_id = version_id
        self.root = root
        self.log = log  # (ref(base), writes, superseded), or None
        self._first = None

    @property
    def count(self) -> int:  # the root page's record count, 0 when empty
        return self.root.count if self.root is not None else 0

    def first(self) -> Optional[tuple]:
        """The first (keys, value) record, or None when the version is empty."""
        rec = self._first
        if rec is None and self.root is not None:
            node = self.root
            while isinstance(node, _Branch):
                node = node.children[0]
            rec = self._first = node.records[0]
        return rec

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
        if self.root is None:
            return None
        return _descend(self.root, target, [])

    def has_prefix(self, prefix: tuple) -> bool:
        # a key tuple orders before every longer tuple it prefixes
        rec = self.locate_ge(prefix)
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
    """A named relation; it keeps its current version, and no other.

    Each commit numbers its version one past its base, so ids run from 0
    along the chain of commits.
    """

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
        self.current = RelationVersion(object(), arity, 0, None)

    @property
    def versions(self) -> tuple:
        """The versions the relation itself keeps alive: the current one."""
        return (self.current,)

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
    value | ABSENT, or exactly one sorted batch of final writes
    (``write_sorted``), kept as the list it arrived as.  ``commit`` hands
    the batch, or the sorted map's items, to the same ``_apply``.
    """

    def __init__(self, relation, base):
        self.relation = relation
        self.base = base
        self._edits = {}  # keys -> value | ABSENT
        self._batch = None  # the staged sorted (keys, value | ABSENT) batch
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
        if value != value:  # a NaN could never be erased by its value
            raise UserError(
                f"{rel.name}: value {value!r} at key {keys} is not equal to itself"
            )

    def _edit_map(self):
        """The per-key edit map; a transaction holding a batch has none."""
        if self._batch is not None:
            raise UserError(f"{self.relation.name}: transaction holds a sorted batch")
        return self._edits

    def lookup(self, keys: tuple):
        """Effective (value,) under pending edits, or None if absent."""
        edits = self._edit_map()
        if keys in edits:
            return None if edits[keys] is ABSENT else (edits[keys],)
        return self.base.lookup(keys)

    def reader(self):
        """A batch writer's lookup of (value,): the base version's own, or
        None over an empty base, which its writer need not read at all."""
        return self.base.lookup if self.base.root is not None else None

    def write_sorted(self, writes):
        """Stage one batch of final writes, sorted and key-distinct.

        ``(keys, value)`` leaves keys holding value, whatever held it
        before; ``(keys, ABSENT)`` removes keys.  Each pair becomes the
        page record as it is.  Each insert is checked as ``insert``
        checks it, and the keys must strictly increase.  A list is
        checked and staged as it is, with no copy.  Any other iterable is
        read into a list first; if it raises part-way, nothing is staged,
        and the error of a write at fault among those read so far goes
        first, as a check made while reading would have met it.
        """
        self._check_open()
        if self._edit_map():
            raise UserError(f"{self.relation.name}: transaction holds per-key edits")
        if type(writes) is not list:
            batch = []
            try:
                batch.extend(writes)
            except Exception:
                self._check_writes(batch)
                raise
            writes = batch
        self._check_writes(writes)
        self._batch = writes

    def _check_writes(self, writes):
        """Raise the error of the first write at fault, if any."""
        arity, valueless = self.relation.arity, not self.relation.is_function
        prev = ()
        for keys, value in writes:
            if value is not ABSENT:
                if (
                    len(keys) != arity
                    or (value is None) is not valueless
                    or value != value
                ):
                    self._check_insert(keys, value)  # raises insert's error
                check_storable_tuple(keys)
            if keys <= prev:
                raise UserError(
                    f"{self.relation.name}: batch keys not increasing at {keys}"
                )
            prev = keys

    def insert(self, keys: tuple, value=None) -> bool:
        """Stage keys holding value; False if they already hold it."""
        self._check_open()
        keys = tuple(keys)
        self._check_insert(keys, value)
        edits = self._edit_map()
        if keys not in edits:
            cur = base = self.base.lookup(keys)
        elif edits[keys] is not ABSENT:
            cur, base = (edits[keys],), None
        else:  # a pending erase hides the base record
            cur, base = None, self.base.lookup(keys)
        if cur is not None:
            if cur[0] != value:
                raise UserError(
                    f"{self.relation.name}: conflicting value for key {keys}: "
                    f"{cur[0]!r} vs {value!r}"
                )
            return False  # duplicate insert is a no-op
        if base is not None and base[0] == value:
            self._edits.pop(keys, None)  # erase+insert cancels out
        else:
            self._edits[keys] = value
        return True

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
        if self._edits.get(keys, ABSENT) is not ABSENT:
            base = self.base.lookup(keys)
            if base is None:
                del self._edits[keys]  # insert+erase cancels out
                return True
        self._edits[keys] = ABSENT
        return True

    def clear(self):
        """Erase every record: the commit starts from an empty relation."""
        self._check_open()
        base = self.base
        self.base = RelationVersion(base.lineage, base.arity, base.version_id, None)
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
            edits = sorted(self._edits.items())
        superseded = []
        root = base.root
        if edits:
            alloc = [0]
            reps = _apply(root, edits, rel, alloc, superseded)
            while len(reps) > 1:
                reps = _pack(reps, _BR_MAX, _BR_TARGET, _Branch, alloc)
            root = reps[0] if reps else None
            while isinstance(root, _Branch) and len(root.children) == 1:
                root = root.children[0]
            rel.stats["pages_allocated"] += alloc[0]
        self._done = True
        rel._txn_open = False
        # a load or a commit over a cleared workspace keeps no log: the walk
        # from its empty base reads only the new records anyway
        log = (ref(base), edits, superseded) if base.root is not None else None
        rel.current = RelationVersion(
            base.lineage, base.arity, base.version_id + 1, root, log
        )
        return rel.current


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


def _merged_records(records, edits, superseded):
    """Leaf records with sorted edits spliced in: each edit is placed by
    one bisect, and the records between edits are copied by slice.  The
    records the edits supersede are appended to ``superseded``."""
    out = []
    at, n = 0, len(records)
    for edit in edits:
        keys = edit[0]
        i = bisect_left(records, keys, at, n, key=_rec_keys)
        out += records[at:i]
        at = i
        if i < n and records[i][0] == keys:
            superseded.append(records[i])
            at += 1
        if edit[1] is not ABSENT:
            out.append(edit)
    out += records[at:]
    return out


def _undersized(node, leaf_min):
    if isinstance(node, _Leaf):
        return node.count < leaf_min
    return len(node.children) < _BR_MIN


def _merge_pair(a, b, cap, alloc):
    if isinstance(a, _Leaf):
        return _pack(a.records + b.records, 2 * cap, cap, _Leaf, alloc)
    return _pack(a.children + b.children, _BR_MAX, _BR_MAX, _Branch, alloc)


def _fix_siblings(nodes, cap, leaf_min, alloc):
    """Merge each undersized page with a neighbour; ``nodes`` itself when
    there is one page or none is undersized (checked in one C-level pass:
    the pages of one level are all leaves or all branches)."""
    if len(nodes) < 2:
        return nodes
    if isinstance(nodes[0], _Leaf):
        if min(map(_count, nodes)) >= leaf_min:
            return nodes
    elif min(map(len, map(_children, nodes))) >= _BR_MIN:
        return nodes
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


def _apply(node, edits, rel, alloc, superseded):
    """Rebuild the subtree with sorted edits; returns replacement nodes.

    Each run of edits that falls to one child is found with one bisect,
    and the untouched children between runs are copied by slice, so a
    commit of k edits allocates O(k * height) fresh pages and makes
    O(k * height) bisects.  When every edit falls to one child and it
    comes back as one page of legal size, the branch is that child's slot
    swapped (``_swap_child``): its siblings are as the base left them, and
    no commit leaves a page but the root undersized, so the sibling fix-up
    and the repack would change nothing.  Leaves are reached in key
    order, so the records the edits supersede are appended to
    ``superseded`` in key order.
    """
    cap = rel.leaf_capacity
    if not isinstance(node, _Branch):  # a leaf, or no base at all
        if node is None:
            records = [e for e in edits if e[1] is not ABSENT]
        else:
            records = _merged_records(node.records, edits, superseded)
        return _pack(records, 2 * cap, cap, _Leaf, alloc)
    children, mins = node.children, node.mins
    last = len(children) - 1
    leaf_min = max(1, cap // 2)
    n = len(edits)
    i = bisect_right(mins, edits[0][0]) - 1  # the child taking edits[0]
    if i < 0:
        i = 0
    if i == last or edits[-1][0] < mins[i + 1]:  # one run
        reps = _apply(children[i], edits, rel, alloc, superseded)
        if len(reps) == 1 and not _undersized(reps[0], leaf_min):
            alloc[0] += 1
            return [_swap_child(node, i, reps[0])]
        new_children = children[:i] + reps + children[i + 1 :]
    else:
        new_children = []
        lo, at = 0, 0  # children[:at] are placed
        while lo < n:
            if lo:  # edits[0]'s child is i already
                i = bisect_right(mins, edits[lo][0]) - 1
            hi = bisect_left(edits, mins[i + 1], lo, n, key=_rec_keys) if i < last else n
            new_children += children[at:i]
            new_children += _apply(children[i], edits[lo:hi], rel, alloc, superseded)
            at, lo = i + 1, hi
        new_children = new_children + children[at:]  # exact size: a page keeps it
    new_children = _fix_siblings(new_children, cap, leaf_min, alloc)
    return _pack(new_children, _BR_MAX, _BR_MAX, _Branch, alloc)


def _swap_child(node, i, child):
    """A copy of branch ``node`` with ``children[i]`` replaced by ``child``:
    ``mins`` is shared unless the child's min key moved, and ``count``
    moves by the child's change."""
    new = _Branch.__new__(_Branch)
    new.children = children = node.children.copy()
    old, children[i] = children[i], child
    mins = node.mins
    if child.min_key != mins[i]:
        mins = mins.copy()
        mins[i] = child.min_key
    new.mins = mins
    new.min_key = mins[0]
    new.count = node.count - old.count + child.count
    return new


def _expand(stack, item, stats):
    stats["pages"] = stats.get("pages", 0) + 1
    if isinstance(item, _Leaf):
        stack.extend(reversed(item.records))
    else:
        stack.extend(reversed(item.children))


def delta_iter(old: RelationVersion, new: RelationVersion, stats=None):
    """Yield the symmetric difference of two versions in key order.

    A value change for the same keys appears as ERASE(old) then
    INSERT(new).  Page subtrees and records shared by both versions are
    recognized by identity and skipped without being read, a whole run
    of them at once; ``stats['pages']`` counts the pages actually
    touched.
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
            if x is y:  # drop the whole run of shared pages and records
                n = next(
                    compress(count(), map(is_not, reversed(a), reversed(b))),
                    min(len(a), len(b)),
                )
                del a[-n:], b[-n:]
                continue
            x_rec, y_rec = isinstance(x, tuple), isinstance(y, tuple)
            kx = x[0] if x_rec else x.min_key
            ky = y[0] if y_rec else y.min_key
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


def _logged_delta(writes, superseded):
    """delta_iter's stream for a version and its base, read from the
    commit's sorted writes and the base records they superseded."""
    olds = iter(superseded)
    old = next(olds, None)
    for keys, value in writes:
        if old is not None and old[0] == keys:
            prior, old = old, next(olds, None)
            if value is not ABSENT and prior[1] == value:
                continue  # rewritten to an equal value
            yield DeltaRecord(prior[0], prior[1], ERASE)
        if value is not ABSENT:
            yield DeltaRecord(keys, value, INSERT)


def surgery_iter(old: RelationVersion, new: RelationVersion, stats=None):
    """Yield trie-branch changes between two versions.

    Derived from the delta stream by prefix bookkeeping: a record change
    also removes every branch left childless in the new trie (emitted
    deepest-first, with the last delta record under the branch) and adds
    every branch absent from the old trie (emitted shallowest-first, with
    the first delta record under it).  When ``new`` was committed directly
    on ``old`` (the very object, not an equal version id: a rolled-back
    version's id comes again), the stream is read from ``new``'s log and
    touches no page; any other pair is walked by ``delta_iter``.
    """
    arity = old.arity
    log = new.log
    if log is not None and log[0]() is old:
        deltas = _logged_delta(log[1], log[2])
    else:
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
    prefix.  ``open``, ``next`` and ``seek_lub`` each return the key they
    land on, or None at the end of the level, so a caller reads its
    position in the call that moved it.

    A position is the record the cursor stands at (None at the end of the
    level), its leaf's record list and index, and the branch frames above
    that leaf in ``_path``; open() snapshots it for up(), which restores
    the outer level even after the inner level ran to its end.  A
    first-level open() stands at the version's cached first record
    (``RelationVersion.first``) with no record list, and the first move
    that needs pages builds the path, so an open followed by a far seek
    makes one descent.

    open() also makes the level's bound, prefix + (KEY_MAX,): a record is
    under the prefix exactly when its keys order below it.  A seek looks
    up prefix + (k,) unpadded, as a key tuple orders before every longer
    tuple it prefixes.  At the last level (depth == arity) next() steps to
    the following record of the leaf and seeks only at the leaf's end; a
    shallower next() seeks the successor key.  A seek target inside the
    leaf is found there, with no bisect when it is the next record; a
    target past the leaf's last record climbs at once, by compares, and
    descends once: O(height) bisects however far the target is.
    """

    __slots__ = (
        "version", "arity", "depth", "_path", "_recs", "_i", "_rec", "_bound",
        "_snaps",
    )

    def __init__(self, version):
        self.version = version
        self.arity = version.arity
        self.depth = 0
        self._path = []  # (branch, child index) frames, root first
        self._recs = None  # the leaf's record list; None while no path is built
        self._i = 0  # the record's index in _recs
        self._rec = None  # the record the cursor stands at; None at the end
        self._bound = None  # the level's prefix + (KEY_MAX,)
        self._snaps = []

    def at_end(self) -> bool:
        return self._rec is None

    def key(self):
        if self._rec is None:
            raise IntegrityError("key() at end")
        return self._rec[0][self.depth - 1]

    def value(self):
        if self._rec is None:
            raise IntegrityError("value() at end")
        return self._rec[1]

    def open(self):
        """Descend one level; returns its first key, or None if it is empty."""
        d = self.depth
        if d >= self.arity:
            raise IntegrityError("open() below leaf level")
        rec = self._rec
        if d > 0 and rec is None:
            raise IntegrityError("open() at end")
        self._snaps.append((self._path.copy(), self._recs, self._i, rec, self._bound))
        self.depth = d + 1
        if d == 0:
            # no path is built at depth 0 (up() restores it so): stand at
            # the first record and leave the path to the first move
            rec = self._rec = self.version.first()
            if rec is None:
                return None
            self._bound = _TOP
        else:  # the current record is the least one under the new prefix
            self._bound = rec[0][:d] + _TOP
        return rec[0][d]

    def up(self):
        if self.depth == 0:
            raise IntegrityError("up() above root")
        self._path, self._recs, self._i, self._rec, self._bound = self._snaps.pop()
        self.depth -= 1

    def next(self):
        """Move to the following key at the current depth; returns it, or
        None when the level has no more keys."""
        rec = self._rec
        if rec is None:
            raise IntegrityError("next() at end")
        d = self.depth
        if d == self.arity:
            recs = self._recs
            if recs is None:  # standing at the first record: build its path
                _leftmost(self.version.root, self._path)
                recs = self._recs = self._path.pop()[0]
            i = self._i + 1
            if i < len(recs):
                rec = recs[i]
                if rec[0] < self._bound:
                    self._i = i
                    self._rec = rec
                    return rec[0][-1]
                self._rec = None
                return None
        return self.seek_lub(rec[0][d - 1] + 1)

    def seek_lub(self, k):
        """Move to the least key >= k at the current depth (forward only);
        returns it, or None when the level has no such key."""
        rec = self._rec
        if rec is None:
            raise IntegrityError("seek_lub() at end")
        d = self.depth
        keys = rec[0]
        if k <= keys[d - 1]:
            return keys[d - 1]
        target = keys[: d - 1] + (k,)
        recs = self._recs
        if recs is not None and target <= recs[-1][0]:  # the answer is in this leaf
            i = self._i + 1  # a short hop lands on the next record: no bisect
            if recs[i][0] < target:
                i = bisect_left(recs, target, i + 1, len(recs), key=_rec_keys)
            self._i = i
            rec = recs[i]
        else:
            # climb, one compare per level, to the lowest branch whose last
            # min exceeds the target (its subtree holds the answer) or past
            # the root, and descend once from there (no bisect in this leaf)
            path = self._path
            while path and path[-1][0].mins[-1] <= target:
                path.pop()
            node = path.pop()[0] if path else self.version.root
            rec = _descend(node, target, path, recs)
            if rec is not None:
                self._recs, self._i = path.pop()
        if rec is None or rec[0] >= self._bound:
            self._rec = None
            return None
        self._rec = rec
        return rec[0][d - 1]


def _descend(node, target, path, recs=None):
    """Extend path from node down to the least record >= target, and return
    it; None past the end of node's subtree.  The path gains a frame per
    branch and a last (leaf records, index) frame.

    One bisect per level, none in the leaf holding ``recs`` (known to end
    below the target).  The descent remembers its deepest frame with a
    right sibling: when the target lies past its leaf, the answer is that
    sibling's first record, reached with no further bisect.
    """
    right = -1  # the deepest frame in path with a right sibling
    while isinstance(node, _Branch):
        j = bisect_right(node.mins, target) - 1
        if j < 0:
            j = 0
        if j < len(node.mins) - 1:
            right = len(path)
        path.append((node, j))
        node = node.children[j]
    leaf = node.records
    k = len(leaf) if leaf is recs else bisect_left(leaf, target, key=_rec_keys)
    if k < len(leaf):
        path.append((leaf, k))
        return leaf[k]
    if right < 0:
        return None
    node, j = path[right]
    del path[right:]
    path.append((node, j + 1))
    return _leftmost(node.children[j + 1], path)


def _leftmost(node, path):
    """Extend path from node down to its subtree's first record, and return
    it; the path's last frame is (leaf records, 0)."""
    while isinstance(node, _Branch):
        path.append((node, 0))
        node = node.children[0]
    path.append((node.records, 0))
    return node.records[0]
