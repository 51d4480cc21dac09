"""Runtime bounds shared across modules."""

from __future__ import annotations

import os
from contextvars import ContextVar
from typing import Optional

from .errors import InputError

DEFAULT_MAX_ORDER = 512
DEFAULT_MAX_UNKNOWNS = 20000
DEFAULT_CLOSURE_BOUND = 20000
DEFAULT_SECTION_BOUND = 120
# partial maps automorphism_group may build, summed over its levels, and the
# product |Aut N| * |Aut H| compatible_pairs may scan; no flag changes it
AUT_SEARCH_BOUND = 1 << 20

_ENV_MAX_ORDER = "EXTLIFT_MAX_ORDER"

# the CLI's --max-order, set for one call and reset after it
max_order_flag: ContextVar[Optional[int]] = ContextVar("max_order_flag", default=None)


def max_order() -> int:
    """Enumeration bound: max_order_flag, else EXTLIFT_MAX_ORDER, else the default."""
    flag = max_order_flag.get()
    if flag is not None:
        return flag
    raw = os.environ.get(_ENV_MAX_ORDER)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError:
        value = 0                 # refused below, as any value under 1 is
    if value < 1:
        raise InputError(f"{_ENV_MAX_ORDER} must be a positive integer, got {raw!r}")
    return value
