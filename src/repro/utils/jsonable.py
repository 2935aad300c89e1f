"""JSON coercion shared by the store keys, the memo facades and the service.

NumPy-free on purpose: NumPy scalars and arrays are recognised by duck
typing (``tolist``/``item``), so the artifact store and the service import
this module on a bare interpreter too.
"""

from __future__ import annotations

from typing import Any


def json_safe(value: Any) -> Any:
    """Recursively coerce numpy scalars/arrays and containers to JSON-native types."""
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((json_safe(item) for item in value), key=repr)
    if isinstance(value, bool):
        return value
    if hasattr(value, "tolist"):  # numpy array (or scalar)
        return value.tolist()
    if hasattr(value, "item"):  # other numpy-like scalar
        return value.item()
    return value


__all__ = ["json_safe"]
