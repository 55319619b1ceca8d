"""Canonical keying and content hashing for cache keys.

Every cache key in :mod:`repro.api` — and the policy key of the legacy
:class:`~repro.experiments.runner.ExperimentRunner` — is derived from the
*fields* of the participating dataclasses rather than from hand-maintained
tuples.  Adding a field to :class:`~repro.minigraph.policies.SelectionPolicy`
or :class:`~repro.uarch.config.MachineConfig` therefore changes the key
automatically instead of silently aliasing cache entries.

Store keys hash *flat* material: each composite input (policy, MGT options,
machine) enters a key as one short digest computed once per object, so a
key costs one shallow hash however deep its inputs are.
"""

from __future__ import annotations

import dataclasses
import hashlib
from enum import Enum
from typing import Any, Tuple


class KeyError_(TypeError):
    """Raised when a value cannot be canonically keyed."""


#: Exact scalar types, which key as themselves (subclasses such as
#: ``IntEnum`` members take the general path below).
_SCALARS = frozenset({str, int, float, bool, bytes, type(None)})


def canonical_key(value: Any) -> Any:
    """Reduce ``value`` to a deterministic, hashable, order-stable structure.

    Dataclasses become ``(class name, (field name, canonical value)...)``
    tuples driven by :func:`dataclasses.fields`; mappings are sorted by their
    canonical keys; sequences map element-wise; scalars pass through.
    """
    if type(value) in _SCALARS:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = tuple(
            (f.name, canonical_key(getattr(value, f.name)))
            for f in dataclasses.fields(value))
        return (type(value).__name__,) + fields
    if isinstance(value, Enum):
        return (type(value).__name__, value.name)
    if isinstance(value, dict):
        return ("dict",) + tuple(sorted(
            (repr(canonical_key(key)), canonical_key(item))
            for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canonical_key(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted(repr(canonical_key(item)) for item in value))
    if value is None or isinstance(value, (str, int, float, bool, bytes)):
        return value
    raise KeyError_(f"cannot derive a canonical key from {type(value).__name__}")


def content_hash(value: Any) -> str:
    """Stable hex digest of ``value``'s canonical key."""
    digest = hashlib.sha256(repr(canonical_key(value)).encode("utf-8"))
    return digest.hexdigest()[:24]


def component_digest(value: Any) -> str:
    """Digest of a dataclass of scalars, hashed as one flat tuple.

    The canonical ``(class, (field, value)...)`` key flattens to
    ``(class, field, value, ...)``, so the digest still tracks every field.
    """
    name, *fields = canonical_key(value)
    return content_hash((name,) + tuple(item for pair in fields for item in pair))
