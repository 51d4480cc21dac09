"""Runtime bounds shared across modules."""

from __future__ import annotations

import os
from contextvars import ContextVar
from typing import Optional

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
    except ValueError as exc:
        raise ValueError(f"{_ENV_MAX_ORDER} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{_ENV_MAX_ORDER} must be positive, got {value}")
    return value
