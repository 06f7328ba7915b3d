"""Head predicate maintenance.

Assignment deltas reach a head as one batch per round (bootstrap is the
round in which every assignment is an insert), through one of three
mechanisms.  The batch arrives ordered by key, erases first per key
(``HeadState.apply`` orders it).  No mechanism writes key by key: each
looks each run of equal keys up once (not at all while the head reads as
empty, as at bootstrap), folds the run locally, and hands the
transaction one sorted batch of final writes, one per changed key,
through ``Transaction.write_sorted``.  Each write is checked once: a
writer makes its writes in key order (the direct one refuses keys that
decrease), a group's fold refuses what its step cannot keep (a function
head's NaN among them), and ``HeadState`` begins the transaction checked
in full only when a head key is read from a value slot or a primitive
computes a value the head stores as it is, as such a key may be no
storable key and such a value a NaN; then ``write_sorted`` checks every
write again and refuses a batch out of order.  A write is a ``(keys,
value)`` pair, the value ``ABSENT`` when keys end absent, the one format
of every ordered tree's sorted batch:

* direct -- projection-free rules insert/remove head records 1:1; into
  an empty head, a batch of inserts whose keys strictly increase (every
  bootstrap's) is its own write list, its deltas' ``(keys, payload)``
  pairs, checked and built by C-level passes with no fold;
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
  order.  A run of one key's deltas folds once and normalizes once: a
  sum adds exact integers and wraps to 64 bits when the record is
  written, and a float total adds its summands into one pending exact
  integer at the run's least exponent, which settles into the segments
  in one carry pass when the record is written.  Each delta is still
  checked as it folds, so a bad summand raises at its own delta.  Each
  group also renders its stored value for ``dump``;
* scan-backed min/max -- an intermediate full-key relation, written 1:1
  as a direct head is, which is a ``scantree.ScanTree`` partitioned by the
  head's group keys (``HeadState.agg``, built with its instance and
  emptied by ``reset`` at bootstrap): one small min/max scan tree of
  64-record leaves per group.  ``apply_deltas`` folds and checks a batch
  whole, then merges each group's run of writes into its group's tree in
  one descent (a bulk build into an empty one, as at every bootstrap).
  ``refresh_head`` then reads each changed group's extreme from its tree
  root's cached aggregate, the first extreme in key order, with no range
  scan; the head gets one batch.
"""

from fractions import Fraction
from itertools import groupby, islice
from math import frexp, inf, isfinite
from operator import countOf, itemgetter, lt, methodcaller
from typing import Callable, NamedTuple, Optional

from .errors import IntegrityError, UserError
from .scantree import ABSENT, wrap64
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
    own segments.  ``fold`` adds a summand to one pending exact integer
    at the least exponent folded so far and touches no segment; the
    pending sum settles into the segments in one ``_add_at`` when they
    are read (``frozen``, ``to_exact``, ``is_zero``, ``to_float``).  A
    settle touches the segments the sum spans plus however far its carry
    ripples; X's regular 1-bits stop a ripple at the first clean segment.
    ``add`` is a fold settled at once.
    """

    __slots__ = ("segments", "_m", "_e")

    def __init__(self, segments=None):
        self.segments = dict(segments) if segments else {}
        self._m = 0  # the pending sum, _m * 2**(_e - 53)
        self._e = 0

    def frozen(self):
        self._settle()
        return tuple(sorted(self.segments.items()))

    def is_zero(self):
        self._settle()
        return not self.segments

    def fold(self, s: float, sign: int = 1) -> None:
        """Add (sign=+1) or subtract (sign=-1) a finite double exactly into
        the pending sum."""
        if not isfinite(s):
            raise UserError(f"non-finite summand {s!r}")
        if s == 0.0:
            return
        frac, e = frexp(s)
        m = int(frac * (1 << 53))  # exact: frac has <= 53 significant bits
        if sign < 0:
            m = -m
        pending, at = self._m, self._e
        if not pending:
            self._m, self._e = m, e
        elif e >= at:
            self._m = pending + (m << (e - at))
        else:
            self._m = (pending << (at - e)) + m
            self._e = e

    def add(self, s: float, sign: int = 1) -> int:
        """``fold`` one summand and settle; returns the number of segments
        written."""
        self.fold(s, sign)
        return self._settle()

    def _settle(self) -> int:
        m = self._m
        if not m:
            return 0
        self._m = 0
        j, shift = divmod(self._e - 53, _SEG_BITS)
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
        if self.is_zero():
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
        if self.is_zero():
            return 0.0, False
        exact = self.to_exact()
        try:
            return float(exact), False
        except OverflowError:
            return (inf if exact > 0 else -inf), True


# -- update actions ----------------------------------------------------------
#
# Each writer below folds a batch of deltas, ordered by key with erases
# first per key, into final (keys, value | ABSENT) writes.  get is the
# transaction's reader(): a key's current (value,) or None, and itself
# None when the head reads as empty.

_keys = itemgetter(0)  # of a delta or a write
_write = itemgetter(0, 1)  # a delta's (keys, payload)
_delta = itemgetter(2)


def _insert_pairs(get, deltas):
    """The write list of a batch into an empty store (``get`` None) that
    only inserts, with strictly increasing keys (as a direct head's and
    the min/max intermediate's batch at bootstrap does): its deltas'
    (keys, payload) pairs, checked and built by C-level passes.  None for
    any other batch, which the fold checks and writes."""
    if (
        get is None
        and countOf(map(_delta, deltas), INSERT) == len(deltas)
        and all(map(lt, map(_keys, deltas), map(_keys, islice(deltas, 1, None))))
    ):
        return list(map(_write, deltas))
    return None


def _direct_writes(what, get, deltas):
    """Final writes of key-ordered 1:1 deltas, one per changed key.

    ``what`` begins each error text.  A run whose keys are below the
    previous run's is refused before its write is yielded.
    """
    keys, start, cur = (), None, None  # the current run: (value,) or None
    for k, value, delta in deltas:
        if k != keys:
            if cur != start:
                yield keys, cur[0] if cur else ABSENT
            if k < keys:
                raise UserError(f"{what} batch keys not increasing at {k}")
            keys = k
            start = cur = None if get is None else get(k)
        if delta == INSERT:
            if cur is not None:
                raise IntegrityError(f"{what} insert of live record {k}")
            cur = (value,)
        else:
            if cur is None or cur[0] != value:
                raise IntegrityError(f"{what} erase of absent record {k}")
            cur = None
    if cur != start:
        yield keys, cur[0] if cur else ABSENT


def apply_direct(txn, deltas):
    """1:1 head updates for projection-free rules."""
    get = txn.reader()
    writes = _insert_pairs(get, deltas)
    if writes is None:
        writes = _direct_writes(f"{txn.relation.name}: direct", get, deltas)
    txn.write_sorted(writes)


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
    A group whose step folds a run of one key's deltas into a value not
    yet fit to store names freeze(value), which normalizes it once the
    run is folded, and, if the value is a mutable accumulator,
    thaw(stored), which opens one for the run.
    """

    step: Optional[Callable]
    render: Callable
    thaw: Optional[Callable] = None
    freeze: Optional[Callable] = None


def _function_value(name, keys, value, payload, sign):
    if value is None:  # an insert into an empty group
        if payload != payload:  # a NaN could never be erased by its value
            raise UserError(
                f"{name}: value {payload!r} at key {keys} is not equal to itself"
            )
    elif value != payload:
        if sign > 0:
            raise IntegrityError(
                f"{name}: functional dependency violated at {keys}: "
                f"{value!r} vs {payload!r}"
            )
        raise IntegrityError(f"{name}: erase of unknown value at {keys}")
    return payload


def _exact_sum(name, keys, total, summand, sign):
    if not isinstance(summand, int):
        raise UserError(f"{name}: sum() needs integer summands, got {summand!r}")
    return (total or 0) + sign * summand


def _float_total(name, keys, acc, summand, sign):
    if acc is None:
        acc = SegmentedFloat()
    try:
        summand = float(summand)
    except OverflowError:
        raise UserError(f"{name}: summand beyond the double range at {keys}") from None
    acc.fold(summand, sign)
    return acc


def _render_pair(shown):
    def render(stored, eta=False):
        cols = [render_value(shown(stored[0]))]
        return cols + [f"#{stored[1]}"] if eta else cols

    return render


GROUPS = {
    "COUNTED": Group(None, lambda n, eta=False: [f"#{n}"] if eta else []),
    "COUNT": Group(None, lambda n, eta=False: [str(n)]),
    "GROUP_SUM": Group(_exact_sum, _render_pair(lambda total: total), freeze=wrap64),
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
    for keys, run in groupby(deltas, key=_keys):
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
                yield keys, stored
        elif cur is not None:
            yield keys, ABSENT


def apply_group(txn, deltas, group):
    """Support-counted updates: a group value and a count eta per head key.

    A key's record goes when its count reaches zero.  A round's deltas
    arrive as one batch; each run of deltas with equal keys reads the
    transaction once, folds every delta into a local (value, eta) by the
    group's step (through one thawed accumulator for a group with thaw),
    normalizes the value once by the group's freeze, and writes at most
    once.  Deltas must be ordered by key, erases before inserts per key,
    so a changed function value never conflicts with itself.
    """
    txn.write_sorted(_group_writes(txn.relation.name, txn.reader(), deltas, group))


def apply_deltas(parts, deltas):
    """Apply a round's key-ordered (keys, value, delta) batch 1:1 to a
    min/max head's intermediate, as a direct head does; returns its
    (keys, value | ABSENT) writes.

    The writes are listed, so the whole batch is checked before any
    group's tree changes.
    """
    get = parts.find if parts else None
    writes = _insert_pairs(get, deltas)
    if writes is None:
        writes = list(_direct_writes("aggregate", get, deltas))
    parts.merge(writes)
    return writes


def refresh_head(parts, txn, writes):
    """Write the extreme of each group of key-ordered writes to the head,
    once: its tree root's cached aggregate."""
    get = txn.reader()
    group_of = itemgetter(slice(parts.prefix_len))
    out = []
    for group, _ in groupby(map(group_of, map(_keys, writes))):
        root = parts.get(group)
        cur = None if get is None else get(group)
        if root is None:
            if cur is not None:
                out.append((group, ABSENT))
        elif cur is None or cur[0] != root.agg:
            out.append((group, root.agg))
    txn.write_sorted(out)


def apply_semigroup(parts, txn, deltas):
    """Min/max updates: the intermediate ``parts``, a ``scantree.ScanTree``
    partitioned by the head's group keys, takes the batch, then the head
    its changed groups' extremes."""
    refresh_head(parts, txn, apply_deltas(parts, deltas))
