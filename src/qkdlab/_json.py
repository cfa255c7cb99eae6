"""One JSON form for the report dataclasses.

The rule: a record's JSON object holds every dataclass field under its
own name, plus ``"type": JSON_TYPE`` when the class sets that plain class
attribute; an optional field (default None) is left out while it is None.
Mappings become dicts, tuples and lists become lists, and a nested record
becomes its own object, all recursively.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Mapping
from typing import Any, ClassVar


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, bool], ...]:  # (name, optional)
    return tuple((f.name, f.default is None) for f in dataclasses.fields(cls))


def json_keys(cls: type) -> tuple[str, ...]:
    """The keys of a ``cls`` record's JSON object, with every field set, in ``sort_keys`` order."""
    names = [name for name, _ in _fields(cls)]
    return tuple(sorted(names if getattr(cls, "JSON_TYPE", None) is None else [*names, "type"]))


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
