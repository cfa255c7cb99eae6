"""The report records and their one JSON form.

A record is a :class:`Record` subclass.  Its fields are the names its class
body annotates, in order (a ``ClassVar`` annotation names a class attribute
instead); a field's value in the body is its default, or a :func:`field`
with an option.  The base serves every record from shared methods, built
by no generated code: ``__init__`` takes the fields by position or keyword
and then runs ``__post_init__``; the repr names the fields; every record is
frozen; records of one class compare and hash by value unless the class
says ``eq=False``, which keeps identity.

The JSON rule: a record's JSON object holds every field under its own
name, plus ``"type": JSON_TYPE`` when the class sets that plain class
attribute; an optional field (default None) is left out while it is None.
Mappings become dicts, tuples and lists become lists, and a nested record
becomes its own object, all recursively.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, ClassVar

_MISSING = object()  # a field with no default


class Field:
    """One field of a record: its default (``_MISSING`` if none), whether ``__init__`` takes it,
    and whether the repr shows it."""

    __slots__ = ("default", "init", "repr")

    def __init__(self, default: Any = _MISSING, init: bool = True, repr: bool = True):
        self.default = default
        self.init = init
        self.repr = repr


def field(*, init: bool = True, repr: bool = True) -> Field:
    """A field with an option, for a record's class body: ``init=False`` leaves the value to
    ``__post_init__``, ``repr=False`` keeps it out of the repr."""
    return Field(_MISSING, init, repr)


def _values(self: Record) -> tuple:
    return tuple([getattr(self, name) for name in self._fields])


def _eq(self: Record, other: object) -> bool:
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self: Record) -> int:
    return hash(_values(self))


class Record:
    """Base of the records: reads each subclass's fields once, when the class is made
    (see the module docstring).  A class that defines its own ``__init__`` keeps it."""

    _fields: ClassVar[dict[str, Field]] = {}  # the field table, in order
    _init_names: ClassVar[tuple[str, ...]] = ()  # the fields __init__ takes, in order

    def __init_subclass__(cls, *, eq: bool = True, **kwargs: Any):
        super().__init_subclass__(**kwargs)
        fields = dict(cls._fields)
        for name, annotation in vars(cls).get("__annotations__", {}).items():
            if str(annotation).startswith(("ClassVar", "typing.ClassVar")):
                continue
            value = vars(cls).get(name, _MISSING)
            if isinstance(value, Field):
                delattr(cls, name)  # the class keeps a plain default only
            else:
                value = Field(value)
            fields[name] = value
        cls._fields = fields
        cls._init_names = tuple(name for name, f in fields.items() if f.init)
        if eq:
            cls.__eq__ = _eq
            cls.__hash__ = _hash

    def __init__(self, *args: Any, **kwargs: Any):
        names = self._init_names
        self.__dict__.update(zip(names, args))  # the common call: every field by position
        if kwargs or len(args) != len(names):
            self._init_rest(args, kwargs)
        self.__post_init__()

    def _init_rest(self, args: tuple, kwargs: dict) -> None:
        # the rest of __init__: keywords and defaults, and the argument errors
        cls = type(self)
        names = cls._init_names
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments but {len(args)} were given")
        for name in names[: len(args)]:
            if name in kwargs:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        values, fields = self.__dict__, cls._fields
        for name in names[len(args) :]:
            value = kwargs.pop(name, _MISSING)
            if value is _MISSING:
                value = fields[name].default
                if value is _MISSING:
                    raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
            values[name] = value
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {next(iter(kwargs))!r}")

    def __post_init__(self) -> None:
        """Checks and derived fields, run once ``__init__`` has set the fields; none here."""

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name, f in self._fields.items() if f.repr])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def json_keys(cls: type[Record]) -> tuple[str, ...]:
    """The keys of a ``cls`` record's JSON object, with every field set, in ``sort_keys`` order."""
    names = list(cls._fields)
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


class JsonRecord(Record):
    """A record whose JSON form is its fields (see the module docstring)."""

    JSON_TYPE: ClassVar[str | None] = None

    def to_json_dict(self) -> dict:
        data = {} if self.JSON_TYPE is None else {"type": self.JSON_TYPE}
        for name, f in self._fields.items():
            value = getattr(self, name)
            if not (value is None and f.default is None):
                data[name] = _plain(value)
        return data
