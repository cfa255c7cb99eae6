"""One JSON form for the report dataclasses.

The rule: a record's JSON object holds every dataclass field under its
own name, plus ``"type": JSON_TYPE`` when the class sets that plain class
attribute; an optional field (default None) is left out while it is None.
Mappings become dicts, tuples and lists become lists, and a nested record
becomes its own object, all recursively.  The reader checks
the tag and converts each init field by its annotation: ``int``,
``float``, ``str`` and ``bool`` by calling the type, ``tuple[X, ...]``
item by item, a record by its own reader, a mapping into a dict.  A field
with a default may be absent; any other missing field is a ``ValueError``
naming it.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from collections.abc import Mapping
from typing import Any, ClassVar

_hints = functools.cache(typing.get_type_hints)


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, bool], ...]:  # (name, optional)
    return tuple((f.name, f.default is None) for f in dataclasses.fields(cls))


def _plain(value: Any) -> Any:
    if isinstance(value, (str, int, float, type(None))):  # most fields; checked first, as it is cheapest
        return value
    if isinstance(value, JsonRecord):
        return value.to_json_dict()
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    return value


def _read(hint: Any, value: Any) -> Any:
    """The JSON form ``value`` of a field annotated ``hint``, converted back."""
    origin = typing.get_origin(hint) or hint
    if origin is tuple:
        return tuple(_read(typing.get_args(hint)[0], item) for item in value)
    if origin in (int, float, str, bool):
        return origin(value)
    if isinstance(origin, type) and issubclass(origin, JsonRecord):
        return origin.from_json_dict(value)
    if isinstance(origin, type) and issubclass(origin, Mapping):
        return dict(value)
    return value


class JsonRecord:
    """Mixin for a dataclass whose JSON form is its fields (see the module docstring)."""

    JSON_TYPE: ClassVar[str | None] = None

    def to_json_dict(self) -> dict:
        data = {} if self.JSON_TYPE is None else {"type": self.JSON_TYPE}
        for name, optional in _fields(type(self)):
            value = getattr(self, name)
            if not (optional and value is None):
                data[name] = _plain(value)
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping):
        if cls.JSON_TYPE is not None and data.get("type") != cls.JSON_TYPE:
            raise ValueError(f"expected a {cls.JSON_TYPE} object, got {data.get('type')!r}")
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.init and f.name in data:
                kwargs[f.name] = _read(_hints(cls)[f.name], data[f.name])
            elif f.init and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ValueError(f"{cls.JSON_TYPE or cls.__name__} object lacks the field {f.name!r}")
        return cls(**kwargs)
