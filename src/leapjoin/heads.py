"""Head predicate maintenance.

Assignment deltas reach a head through one of three mechanisms:

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
  order.  Each group also renders its stored value for ``dump``;
* scan-backed min/max -- an intermediate full-key relation with a
  min/max scan-tree; touched group prefixes recompute by range scan.
"""

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .errors import IntegrityError, UserError
from .keys import KEY_MAX, KEY_MIN
from .scantree import EMPTY, ScanTree, wrap64
from .store import INSERT

_SEG_BITS = 52
_SEG_BASE = 1 << _SEG_BITS
_X_LOW_BIT = -2048  # X = sum of 2**(4k) for k in -512..512
_X_HIGH_BIT = 2048


def x_segment(j: int) -> int:
    """Bits [52j, 52j+52) of the reference constant X."""
    lo = max(52 * j, _X_LOW_BIT)
    hi = min(52 * j + 51, _X_HIGH_BIT)
    seg = 0
    p = lo + (-lo) % 4
    while p <= hi:
        seg |= 1 << (p - 52 * j)
        p += 4
    return seg


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
            ref = x_segment(j)
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


def _set_value(txn, keys, value):
    cur = txn.lookup(keys)
    if cur is not None:
        if cur[0] == value:
            return
        txn.erase(keys)
    txn.insert(keys, value)


def apply_direct(txn, deltas):
    """1:1 head updates for projection-free rules."""
    for keys, value, delta in deltas:
        if delta == INSERT:
            if txn.lookup(keys) is not None:
                raise IntegrityError(
                    f"{txn.relation.name}: direct insert of live record {keys}"
                )
            txn.insert(keys, value)
        else:
            cur = txn.lookup(keys)
            if cur is None or cur[0] != value:
                raise IntegrityError(
                    f"{txn.relation.name}: direct erase of absent record {keys}"
                )
            txn.erase(keys)


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
    """

    step: Optional[Callable]
    render: Callable


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


def _float_total(name, keys, segments, summand, sign):
    acc = SegmentedFloat(segments)
    acc.add(float(summand), sign)
    return acc.frozen()


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
        _float_total, _render_pair(lambda segs: SegmentedFloat(segs).to_float()[0])
    ),
}
FUNCTION_VALUE = Group(_function_value, _render_pair(lambda value: value))


def apply_group(txn, deltas, group):
    """Support-counted updates: a group value and a count eta per head key.

    A key's record goes when its count reaches zero.  Deltas must order
    erases before inserts per key, so a changed function value never
    conflicts with itself.
    """
    name = txn.relation.name
    step = group.step
    for keys, payload, delta in deltas:
        sign = 1 if delta == INSERT else -1
        cur = txn.lookup(keys)
        if cur is not None:
            value, eta = cur[0] if step else (None, cur[0])
        elif sign > 0:
            value, eta = None, 0
        else:
            raise IntegrityError(f"{name}: support underflow at {keys}")
        if step:
            value = step(name, keys, value, payload, sign)
        eta += sign
        if cur is not None:
            txn.erase(keys)
        if eta:
            txn.insert(keys, (value, eta) if step else eta)


class ScanBackedAggregate:
    """Intermediate full-key relation with a min/max scan-tree.

    The same intermediate can serve several heads grouping by different
    key-prefix lengths (apply the deltas once, refresh each head).
    """

    def __init__(self, op, arity):
        self.tree = ScanTree(op)
        self.arity = arity

    def apply_deltas(self, deltas):
        touched = set()
        for keys, value, delta in deltas:
            if delta == INSERT:
                try:
                    self.tree.insert(keys, value)
                except UserError:
                    raise IntegrityError(
                        f"aggregate insert of live record {keys}"
                    ) from None
            else:
                cur = self.tree.get(keys)
                if cur is None or cur[0] != value:
                    raise IntegrityError(f"aggregate erase of absent record {keys}")
                self.tree.erase(keys)
            touched.add(keys)
        return touched

    def refresh_head(self, txn, touched, prefix_len):
        pad = self.arity - prefix_len
        for full_keys in sorted({k[:prefix_len] for k in touched}):
            lo = full_keys + (KEY_MIN,) * pad
            hi = full_keys + (KEY_MAX,) * pad
            agg = self.tree.range_scan(lo, hi)
            if agg is EMPTY:
                if txn.lookup(full_keys) is not None:
                    txn.erase(full_keys)
            else:
                _set_value(txn, full_keys, agg)


def apply_semigroup(agg: ScanBackedAggregate, txn, deltas, prefix_len: int):
    touched = agg.apply_deltas(deltas)
    agg.refresh_head(txn, touched, prefix_len)
