"""The one codec of every wire record: a dataclass subclassing
:class:`WireRecord` encodes and decodes from its field declarations.

``to_dict`` gives fresh plain JSON data in field order (``to_json`` sorts
the keys).  Decoding judges outside input by one rule set: a JSON object,
no unknown or missing field, each value fitting its annotation or the
``check`` of its :func:`~repro.core.pipeline.knob` declaration.  Nested
records, tuples and enums are rebuilt from the annotations, resolved once
per class; strings and dict keys are interned, so decoded responses share
them.  Else an :class:`~repro.errors.InvalidRequestError` names the record
and the field, ``details={field: repr(value)}``.  ``from_dict(data,
name=value)`` takes field ``name`` as already decoded.

A deleted field becomes a *retired* key of its record (``retired``, the
key and the JSON constant it is written as): decoding accepts it with any
value and drops it, and ``to_dict`` still writes the constant, so stored
payloads that carry the key keep loading and keep their content address.

A *volatile* field (``volatile``) records how a run went, not what it
computed: wall-clock seconds, cache counters.  ``stable_dict`` is
``to_dict`` with each one as the record would hold it had the field not
been given (its declared default, or left out when it has none), in
nested records too; an artifact store hashes it for a run's address.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
import json
import sys
import types
import typing
from collections.abc import Mapping
from typing import Any, Callable

from .errors import InvalidRequestError

__all__ = ["WireRecord"]

_intern = sys.intern
_NONE = type(None)
_SCALARS = frozenset({str, int, float, bool, _NONE})


class _Mismatch(Exception):
    """A value does not fit its field, or a payload is not an object."""


class WireRecord:
    """Base of the wire dataclasses: the codec derived from their fields."""

    #: retired keys: each one's JSON constant (see the module docstring)
    retired: Mapping[str, Any] = {}
    #: volatile fields (see the module docstring)
    volatile: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        data = {name: _plain(getattr(self, name)) for name in _names(type(self))}
        if self.retired:
            data.update(self.retired)
        return data

    def stable_dict(self, data: dict[str, Any] | None = None) -> dict[str, Any]:
        """``to_dict`` (or ``data``, its result) without its volatile part."""
        data = self.to_dict() if data is None else data
        stable = {k: _stable(getattr(self, k, None), v) for k, v in data.items()
                  if k not in self.volatile}
        # a dataclass keeps a field's plain default as the class attribute
        stable.update((k, getattr(type(self), k)) for k in self.volatile if hasattr(type(self), k))
        return stable

    @classmethod
    def from_dict(cls, data: Any, **decoded: Any):
        try:
            return _decode(cls, data, decoded)
        except _Mismatch:
            raise InvalidRequestError(
                f"{cls.__name__} payload must be a JSON object, got {type(data).__name__}",
                details={"schema": cls.__name__},
            ) from None

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str | bytes):
        try:
            data = json.loads(payload)
        except (TypeError, ValueError) as exc:
            raise InvalidRequestError(
                f"{cls.__name__} payload is not valid JSON: {exc}",
                details={"schema": cls.__name__},
            ) from exc
        return cls.from_dict(data)


@functools.lru_cache(maxsize=None)
def _names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _stable(value: Any, data: Any) -> Any:
    """``data`` (``value``'s plain form) less the volatile part of its records."""
    if isinstance(value, WireRecord):
        return value.stable_dict(data)
    if isinstance(value, (list, tuple)):
        return [_stable(item, plain) for item, plain in zip(value, data)]
    return data


def _plain(value: Any) -> Any:
    if type(value) in _SCALARS:
        return value
    if isinstance(value, WireRecord):
        return value.to_dict()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class _Plan:
    """One record class's fields: converter, what fits, whether required."""

    def __init__(self, cls: type):
        self.converters: dict[str, Callable[[Any], Any]] = {}
        self.expects: dict[str, str] = {}
        required = []
        for f in dataclasses.fields(cls):
            if isinstance(f.type, str):  # ``from __future__ import annotations``
                convert, expects = _converter(_resolve(f.type, cls.__module__)), f.type
            else:
                convert, expects = _converter(f.type), inspect.formatannotation(f.type)
            if "check" in f.metadata:
                expects, ok = f.metadata["check"]
                convert = functools.partial(_checked, ok, convert)
            self.converters[f.name] = convert
            self.expects[f.name] = expects
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                required.append(f.name)
        self.required = frozenset(required)
        _PLANS[cls] = self


_PLANS: dict[type, _Plan] = {}


@functools.lru_cache(maxsize=None)
def _resolve(annotation: str, module: str) -> Any:
    """The type an annotation string of ``module`` names (``get_type_hints``
    without its cost, which a cold worker would pay on its first job)."""
    return eval(annotation, vars(sys.modules[module]))


def _decode(cls: type, data: Any, decoded: Mapping[str, Any] | None = None) -> Any:
    if type(data) is not dict and not isinstance(data, Mapping):
        raise _Mismatch
    plan = _PLANS.get(cls) or _Plan(cls)
    converters = plan.converters
    if not data.keys() <= converters.keys():
        unknown = sorted(map(str, data.keys() - converters.keys() - cls.retired.keys()))
        if unknown:
            raise InvalidRequestError(
                f"unknown field(s) {unknown} in {cls.__name__} payload",
                details={"schema": cls.__name__, "unknown_fields": unknown},
            )
        data = {name: value for name, value in data.items() if name in converters}
    if decoded:
        data = {name: value for name, value in data.items() if name not in decoded}
    try:
        kwargs = {name: converters[name](value) for name, value in data.items()}
    except _Mismatch:  # find the field that failed, for the message
        for name, value in data.items():
            try:
                converters[name](value)
            except _Mismatch:
                raise InvalidRequestError(
                    f"{cls.__name__} field {name!r} must be {plan.expects[name]}, "
                    f"got {value!r}",
                    details={name: repr(value)},
                ) from None
    if decoded:
        kwargs.update(decoded)
    if len(kwargs) < len(converters) and not plan.required <= kwargs.keys():
        schema, missing = cls.__name__, min(plan.required - kwargs.keys())
        raise InvalidRequestError(
            f"{schema} payload is missing required field {missing!r}",
            details={"schema": schema, "missing_field": missing},
        )
    return cls(**kwargs)


def _checked(ok: Callable[[Any], bool], convert: Callable[[Any], Any], value: Any) -> Any:
    if not ok(value):
        raise _Mismatch
    return convert(value)


def _any(value):
    return value


def _str(value):
    if isinstance(value, str):
        return _intern(str(value))
    raise _Mismatch


def _int(value):
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _Mismatch


def _float(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise _Mismatch


def _bool(value):
    if value is True or value is False:
        return value
    raise _Mismatch


_ATOMS = {Any: _any, str: _str, int: _int, float: _float, bool: _bool}


def _converter(tp: Any) -> Callable[[Any], Any]:
    """The converter of one annotation: the decoded value, or ``_Mismatch``."""
    if tp in _ATOMS:
        return _ATOMS[tp]
    if isinstance(tp, type) and issubclass(tp, WireRecord):
        return functools.partial(_decode, tp)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        def member(value):
            try:
                return tp(value)
            except ValueError:
                raise _Mismatch from None

        return member
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        nullable = _NONE in args
        converters = [_converter(arg) for arg in args if arg is not _NONE]
        if len(converters) == 1:  # ``T | None``
            (only,) = converters
            return lambda value: None if value is None else only(value)

        def union(value):
            if value is None and nullable:
                return None
            for convert in converters:
                try:
                    return convert(value)
                except _Mismatch:
                    pass
            raise _Mismatch

        return union
    if origin in (tuple, list):  # ``tuple[T, ...]`` or ``list[T]``
        item = _converter(args[0])

        def sequence(value):
            if not isinstance(value, (list, tuple)):
                raise _Mismatch
            return origin([item(x) for x in value])

        return sequence
    if origin in (dict, Mapping):
        item = _converter(args[1])
        # the value types ``item`` passes unchanged, checked without a call each
        unchanged = {_int: {int}, _float: {int, float}, _bool: {bool}}.get(item)

        def mapping(value):
            if type(value) is not dict and not isinstance(value, Mapping):
                raise _Mismatch
            try:
                if item is _any or (unchanged and set(map(type, value.values())) <= unchanged):
                    return {_intern(key): x for key, x in value.items()}
                return {_intern(key): item(x) for key, x in value.items()}
            except TypeError:  # a key that is not a string
                raise _Mismatch from None

        return mapping
    # a declaration bug, not bad input
    raise TypeError(f"no wire codec for the annotation {tp!r}")  # repro-lint: disable=ERR001
