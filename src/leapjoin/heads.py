"""Head predicate maintenance.

Assignment deltas reach a head as one batch per round (bootstrap is the
round in which every assignment is an insert), through one of three
mechanisms.  The batch arrives ordered by key, erases first per key
(``HeadState.apply`` orders it).  No mechanism writes key by key: each
looks each run of equal keys up once (not at all while the head reads as
empty, as at bootstrap), folds the run locally, and hands the
transaction one sorted batch of final writes, one per changed key,
through ``Transaction.write_sorted``, which refuses a batch out of order:

* direct -- projection-free rules insert/remove head records 1:1;
* support-counted groups -- every other head but min/max keeps a group
  value and a support count eta per head key, and drops the record when
  the count reaches zero (erases apply before inserts per key, so a
  changed function value never conflicts with itself).  One update,
  ``apply_group``, serves every group; a small group table supplies the
  value: none (relation heads and count(), which store eta alone), the
  functional-dependency value of a function head, a 64-bit wrapping
  sum, or an exact float total in a segmented representation of
  X + sum(s_i), X a fixed constant with a 1-bit every fourth position,
  so borrows stay local and the total is exact in any insert/erase
  order (a run of one key's deltas folds into one accumulator, frozen
  once when the record is written).  Each group also renders its stored
  value for ``dump``;
* scan-backed min/max -- an intermediate full-key relation with a
  min/max scan-tree; a batch is validated whole, then changes the tree
  in one descent (a bulk build into an empty tree), and touched group
  prefixes recompute by range scan into the head's batch.
"""

import math
from fractions import Fraction
from itertools import groupby
from operator import itemgetter, methodcaller
from typing import Callable, NamedTuple, Optional

from .errors import IntegrityError, UserError
from .keys import KEY_MAX, KEY_MIN
from .scantree import EMPTY, ERASE, ScanTree, wrap64
from .store import INSERT

_SEG_BITS = 52
_SEG_BASE = 1 << _SEG_BITS
_X_LOW_BIT = -2048  # X = sum of 2**(4k) for k in -512..512
_X_HIGH_BIT = 2048


def _x_bits(j: int) -> int:
    lo = max(52 * j, _X_LOW_BIT)
    hi = min(52 * j + 51, _X_HIGH_BIT)
    seg = 0
    p = lo + (-lo) % 4
    while p <= hi:
        seg |= 1 << (p - 52 * j)
        p += 4
    return seg


# X has bits only in segments _X_LOW_BIT // 52 .. _X_HIGH_BIT // 52
_X_SEGMENTS = {
    j: _x_bits(j)
    for j in range(_X_LOW_BIT // _SEG_BITS, _X_HIGH_BIT // _SEG_BITS + 1)
}


def x_segment(j: int) -> int:
    """Bits [52j, 52j+52) of the reference constant X."""
    return _X_SEGMENTS.get(j, 0)


class SegmentedFloat:
    """Exact accumulator for signed double-precision summands.

    Stores only the 52-bit segments of X + sum(s_i) that differ from X's
    own segments.  Adding one summand touches the two segments it spans
    plus however far its carry ripples; X's regular 1-bits stop a ripple
    at the first clean segment.
    """

    __slots__ = ("segments",)

    def __init__(self, segments=None):
        self.segments = dict(segments) if segments else {}

    def frozen(self):
        return tuple(sorted(self.segments.items()))

    def is_zero(self):
        return not self.segments

    def add(self, s: float, sign: int = 1) -> int:
        """Add (sign=+1) or subtract (sign=-1) a finite double exactly.

        Returns the number of segments written.
        """
        if not math.isfinite(s):
            raise UserError(f"non-finite summand {s!r}")
        if s == 0.0:
            return 0
        frac, exp = math.frexp(s)
        m = int(frac * (1 << 53))  # exact: frac has <= 53 significant bits
        e = exp - 53
        if sign < 0:
            m = -m
        j, shift = divmod(e, _SEG_BITS)
        return self._add_at(j, m << shift)

    def _add_at(self, j: int, delta: int) -> int:
        touched = 0
        segs = self.segments
        while delta:
            ref = _X_SEGMENTS.get(j, 0)
            cur = segs.get(j, ref)
            carry, new = divmod(cur + delta, _SEG_BASE)
            if new == ref:
                segs.pop(j, None)
            else:
                segs[j] = new
            touched += 1
            j += 1
            delta = carry
        return touched

    def to_exact(self) -> Fraction:
        """The represented total as an exact rational."""
        if not self.segments:
            return Fraction(0)
        jmin = min(self.segments)
        num = 0
        for j, seg in self.segments.items():
            num += (seg - x_segment(j)) << (_SEG_BITS * (j - jmin))
        e = _SEG_BITS * jmin
        if e >= 0:
            return Fraction(num * (1 << e))
        return Fraction(num, 1 << -e)

    def to_float(self):
        """Round the exact total to the nearest double (ties to even).

        Returns (value, overflowed); an exact total beyond the double
        range comes back as a signed infinity with the flag set.
        """
        if not self.segments:
            return 0.0, False
        exact = self.to_exact()
        try:
            return float(exact), False
        except OverflowError:
            return (math.inf if exact > 0 else -math.inf), True


# -- update actions ----------------------------------------------------------
#
# Each writer below folds a batch of deltas, ordered by key with erases
# first per key, into final writes.  get is the transaction's reader(): a
# key's current (value,) or None, and itself None when the head reads as
# empty.

_delta_keys = itemgetter(0)


def _direct_writes(name, get, deltas):
    """Final writes of key-ordered direct deltas, one per changed key."""
    keys, start, cur = (), None, None  # the current run: (value,) or None
    for k, value, delta in deltas:
        if k != keys:
            if cur != start:
                yield (keys, "+", cur[0]) if cur else (keys, "-", start[0])
            keys = k
            start = cur = None if get is None else get(k)
        if delta == INSERT:
            if cur is not None:
                raise IntegrityError(f"{name}: direct insert of live record {k}")
            cur = (value,)
        else:
            if cur is None or cur[0] != value:
                raise IntegrityError(f"{name}: direct erase of absent record {k}")
            cur = None
    if cur != start:
        yield (keys, "+", cur[0]) if cur else (keys, "-", start[0])


def apply_direct(txn, deltas):
    """1:1 head updates for projection-free rules."""
    txn.write_sorted(_direct_writes(txn.relation.name, txn.reader(), deltas))


def render_value(v):
    """A stored value as dump prints it: floats by repr, the rest by str."""
    return repr(v) if isinstance(v, float) else str(v)


def render_record(value, eta=False):
    """Dump columns of a record stored as is, with no support count."""
    return [] if value is None else [render_value(value)]


class Group(NamedTuple):
    """A value kept next to the support count eta of each head record.

    step(name, keys, value, payload, sign) folds one payload into the
    value (sign +1) or out of it (sign -1), None standing for an empty
    group.  Records store (value, eta), or eta alone for a group without
    a step.  render(stored, eta) gives dump's columns for a record value.
    A group that folds into a mutable accumulator names thaw(stored),
    which opens the accumulator for a run of one key's deltas, and
    freeze(acc), which gives the value to store once the run is folded.
    """

    step: Optional[Callable]
    render: Callable
    thaw: Optional[Callable] = None
    freeze: Optional[Callable] = None


def _function_value(name, keys, value, payload, sign):
    if value is not None and value != payload:
        if sign > 0:
            raise IntegrityError(
                f"{name}: functional dependency violated at {keys}: "
                f"{value!r} vs {payload!r}"
            )
        raise IntegrityError(f"{name}: erase of unknown value at {keys}")
    return payload


def _wrapping_sum(name, keys, total, summand, sign):
    if not isinstance(summand, int):
        raise UserError(f"{name}: sum() needs integer summands, got {summand!r}")
    return wrap64((total or 0) + sign * summand)


def _float_total(name, keys, acc, summand, sign):
    if acc is None:
        acc = SegmentedFloat()
    acc.add(float(summand), sign)
    return acc


def _render_pair(shown):
    def render(stored, eta=False):
        cols = [render_value(shown(stored[0]))]
        return cols + [f"#{stored[1]}"] if eta else cols

    return render


GROUPS = {
    "COUNTED": Group(None, lambda n, eta=False: [f"#{n}"] if eta else []),
    "COUNT": Group(None, lambda n, eta=False: [str(n)]),
    "GROUP_SUM": Group(_wrapping_sum, _render_pair(lambda total: total)),
    "FLOAT_TOTAL": Group(
        _float_total,
        _render_pair(lambda segs: SegmentedFloat(segs).to_float()[0]),
        thaw=SegmentedFloat,
        freeze=methodcaller("frozen"),
    ),
}
FUNCTION_VALUE = Group(_function_value, _render_pair(lambda value: value))


def _group_writes(name, get, deltas, group):
    """Final writes of key-ordered group deltas, one per changed key."""
    step, thaw, freeze = group.step, group.thaw, group.freeze
    for keys, run in groupby(deltas, key=_delta_keys):
        cur = None if get is None else get(keys)
        if cur is None:
            value, eta = None, 0
        else:
            value, eta = cur[0] if step else (None, cur[0])
            if thaw is not None:
                value = thaw(value)
        for _, payload, delta in run:
            sign = 1 if delta == INSERT else -1
            if sign < 0 and not eta:
                raise IntegrityError(f"{name}: support underflow at {keys}")
            if step:
                value = step(name, keys, value, payload, sign)
            eta += sign
            if not eta:
                value = None
        if eta:
            if freeze is not None:
                value = freeze(value)
            stored = (value, eta) if step else eta
            if cur is None or cur[0] != stored:
                yield keys, "+", stored
        elif cur is not None:
            yield keys, "-", cur[0]


def apply_group(txn, deltas, group):
    """Support-counted updates: a group value and a count eta per head key.

    A key's record goes when its count reaches zero.  A round's deltas
    arrive as one batch; each run of deltas with equal keys reads the
    transaction once, folds every delta into a local (value, eta) by the
    group's step (through one thawed accumulator for a group with thaw),
    and writes at most once.  Deltas must be ordered by key, erases before
    inserts per key, so a changed function value never conflicts with itself.
    """
    txn.write_sorted(_group_writes(txn.relation.name, txn.reader(), deltas, group))


class ScanBackedAggregate:
    """Intermediate full-key relation with a min/max scan-tree.

    The same intermediate can serve several heads grouping by different
    key-prefix lengths (apply the deltas once, refresh each head).
    """

    def __init__(self, op, arity):
        self.tree = ScanTree(op)
        self.arity = arity

    def apply_deltas(self, deltas):
        """Apply a round's (keys, value, delta) batch; returns its keys.

        The whole batch is validated first, against the tree and a
        ``pending`` dict of each touched key's final value (``ERASE`` when
        it ends absent), so a batch that raises leaves the tree as it
        was.  The batch then changes the tree in one
        ``ScanTree.apply_sorted`` descent, which bulk-builds an empty
        tree.  Contents and errors equal those of applying the deltas one
        by one, in any order.
        """
        tree = self.tree
        pending = {}
        for keys, value, delta in deltas:
            in_batch = keys in pending
            if in_batch:
                cur = pending[keys]
            else:
                cur = tree.get(keys)
                cur = ERASE if cur is None else cur[0]
            if delta == INSERT:
                if cur is not ERASE:
                    raise IntegrityError(f"aggregate insert of live record {keys}")
                pending[keys] = value
            elif cur is ERASE or cur != value:
                raise IntegrityError(f"aggregate erase of absent record {keys}")
            elif in_batch and tree.get(keys) is None:
                del pending[keys]  # inserted earlier in this batch
            else:
                pending[keys] = ERASE
        tree.apply_sorted(sorted(pending.items()))
        # key-ordered deltas give key-ordered keys; a list of them takes
        # a fifth of the memory of a set of them
        return [keys for keys, _, _ in deltas]

    def refresh_head(self, txn, touched, prefix_len):
        """Write each touched group's range-scanned value to the head."""
        txn.write_sorted(self._refreshed(txn.reader(), touched, prefix_len))

    def _refreshed(self, get, touched, prefix_len):
        """Writes for the groups of key-ordered touched keys, each once."""
        pad = self.arity - prefix_len
        for full_keys, _ in groupby(touched, itemgetter(slice(prefix_len))):
            lo = full_keys + (KEY_MIN,) * pad
            hi = full_keys + (KEY_MAX,) * pad
            agg = self.tree.range_scan(lo, hi)
            cur = None if get is None else get(full_keys)
            if agg is EMPTY:
                if cur is not None:
                    yield full_keys, "-", cur[0]
            elif cur is None or cur[0] != agg:
                yield full_keys, "+", agg


def apply_semigroup(agg: ScanBackedAggregate, txn, deltas, prefix_len: int):
    touched = agg.apply_deltas(deltas)
    agg.refresh_head(txn, touched, prefix_len)
