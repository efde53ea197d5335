"""SIM008 fixture: imported names that nothing reads (applies to all files)."""

from __future__ import annotations

import json
import os.path
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:
    from collections import OrderedDict
import hashlib  # simlint: disable=SIM008 -- fixture: imported for its side effect
from fractions import Fraction as F
from decimal import Decimal

__all__ = ["Decimal", "encode"]


def encode(table: Dict[str, int], order: "OrderedDict[str, int]") -> str:
    """Clean cases: ``json``, ``Dict`` and the quoted ``OrderedDict`` are read."""
    return json.dumps(dict(order, **table))


def unused_locally() -> int:
    """Positive case: a lazy import nobody reads."""
    import statistics
    return 0
