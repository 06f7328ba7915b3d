"""Key domain: 64-bit signed integers plus interval-endpoint sentinels.

KEY_MIN and KEY_MAX are the smallest/largest representable values of the
key datatype.  They order below/above every storable key and are legal
only as interval endpoints; stored tuples must use keys strictly inside
the open interval (KEY_MIN, KEY_MAX).
"""

from .errors import UserError

KEY_MIN = -(1 << 63)
KEY_MAX = (1 << 63) - 1


def check_storable_tuple(keys):
    for k in keys:
        if not (isinstance(k, int) and KEY_MIN < k < KEY_MAX):
            raise UserError(f"key {k!r} outside storable range")
    return keys


def render_key(k: int) -> str:
    if k == KEY_MIN:
        return "-inf"
    if k == KEY_MAX:
        return "+inf"
    return str(k)


def parse_key(text: str) -> int:
    if text == "-inf":
        return KEY_MIN
    if text == "+inf":
        return KEY_MAX
    try:
        return int(text)
    except ValueError:
        raise UserError(f"not a key: {text!r}") from None
