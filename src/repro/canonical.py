"""The one canonical form of every value that crosses a file or a socket,
and the one digest behind every content-addressed key.

:func:`to_data` turns a value into JSON-safe data: a dataclass becomes
its fields, tuples and lists become lists, dicts are encoded value by
value.  :func:`from_data` reads such data back as a given type, checking
it against the type's annotations and converting nothing:

* ``int`` takes a JSON integer — not a bool, not ``8.9``;
* ``float`` takes a finite integer or float and keeps it as given, so a
  value re-encodes to the bytes it was decoded from;
* ``bool`` and ``str`` take exactly that;
* ``Optional[X]``, ``Tuple[X, ...]``, fixed tuples, ``Dict[str, X]``,
  ``Any`` and nested dataclasses recurse;
* a dataclass field missing from the data takes its default.

An unknown key, a missing required field, a wrong type or a
``ValueError`` from the class's own checks raises one
:class:`DecodeError` naming the path, e.g. ``cells[0].radix: expected
int, got float``.  A type
whose form is not its fields defines ``to_data`` / ``from_data`` on
itself and the codec calls those instead.

Result-store keys, checkpoint task keys, service job ids, Monte-Carlo
plan keys and shard digests are all :func:`canonical_digest` of such
data.  Two spellings of either would be two key spaces — a store
written through one could not be read through the other — so both live
here, once, stdlib only, importable from every layer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from functools import lru_cache
from itertools import repeat
from typing import Any, Callable, Tuple

#: types :func:`to_data` writes straight through
_PLAIN = frozenset({str, int, float, bool, type(None)})


class DecodeError(ValueError):
    """Data that does not have the form of the type it is read as.  The
    message names the path (``cells[0].radix: expected int, got
    float``); ``reason`` is the part after the colon."""

    def __init__(self, reason: str, path: str = "") -> None:
        super().__init__(f"{path.lstrip('.')}: {reason}" if path else reason)
        self.reason = reason
        self.path = path  #: the steps from the root: ``.cells[0].radix``


#: the digest's one encoder: ``json.dumps`` with these arguments builds a
#: new encoder on every call; reusing one writes the same bytes
_DIGEST_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_digest(payload: Any) -> str:
    """Hex sha256 of ``payload`` as compact, key-sorted JSON."""
    blob = _DIGEST_ENCODER.encode(payload)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------


def to_data(obj: Any) -> Any:
    """``obj`` as JSON-safe data (see the module docstring)."""
    if type(obj) in _PLAIN:
        return obj
    return _encoder(type(obj))(obj)


def _encode_items(items: Any) -> list:
    return [item if type(item) in _PLAIN else to_data(item) for item in items]


def _encode_mapping(mapping: Any) -> dict:
    return {
        key: value if type(value) in _PLAIN else to_data(value)
        for key, value in mapping.items()
    }


def _same(value: Any) -> Any:
    return value


@lru_cache(maxsize=None)
def _encoder(cls: type) -> Callable[[Any], Any]:
    """The encoder of one class, built once: the field names of a
    dataclass are read here, not per object."""
    hook = getattr(cls, "to_data", None)
    if hook is not None:
        return hook
    if dataclasses.is_dataclass(cls):
        names = tuple(spec.name for spec in dataclasses.fields(cls))

        def encode(obj: Any) -> dict:
            data = {}
            for name in names:
                value = getattr(obj, name)
                data[name] = value if type(value) in _PLAIN else to_data(value)
            return data

        return encode
    if issubclass(cls, (list, tuple)):
        return _encode_items
    if issubclass(cls, dict):
        return _encode_mapping
    if issubclass(cls, (str, int, float)):  # enum members of those types
        return _same
    raise TypeError(f"{cls.__name__} has no canonical form")


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------


def from_data(cls: Any, data: Any) -> Any:
    """``data`` read as ``cls`` — a class or a typing annotation such as
    ``Tuple[int, ...]``; raises :class:`DecodeError` when it does not
    fit (see the module docstring)."""
    return _decoder(cls)(data)


_KINDS = {dict: "object", list: "list", tuple: "list", type(None): "null"}

#: what each scalar annotation takes — a bool is neither an int nor a float
_SCALARS = {int: int, float: (int, float), bool: bool, str: str}


def _kind(value: Any) -> str:
    return _KINDS.get(type(value), type(value).__name__)


def _at(step: str, decode: Callable[[Any], Any], data: Any) -> Any:
    """``decode(data)``, with ``step`` (``.key`` or ``[index]``) put in
    front of the path of a failure."""
    try:
        return decode(data)
    except DecodeError as exc:
        raise DecodeError(exc.reason, step + exc.path) from None


@lru_cache(maxsize=None)
def _decoder(tp: Any) -> Callable[[Any], Any]:
    """The decoder of one annotation, built once: a dataclass's type
    hints are resolved here, not per object."""
    if tp is Any:
        return _same
    if tp in _SCALARS:
        return _scalar_decoder(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        inner = _decoder(args[0] if args[1] is type(None) else args[1])
        return lambda data: None if data is None else inner(data)
    if origin is tuple and args[-1] is Ellipsis:
        return _tuple_decoder((_decoder(args[0]),), variadic=True)
    if origin is tuple:
        return _tuple_decoder(tuple(map(_decoder, args)), variadic=False)
    if origin is dict and args[0] is str:
        return _mapping_decoder(_decoder(args[1]))
    if isinstance(tp, type):
        hook = getattr(tp, "from_data", None)
        if hook is not None:
            return hook
        if dataclasses.is_dataclass(tp):
            return _dataclass_decoder(tp)
    raise TypeError(f"{tp!r} has no canonical form")


def _scalar_decoder(tp: type) -> Callable[[Any], Any]:
    accepts = _SCALARS[tp]

    def decode(data: Any) -> Any:
        if not isinstance(data, accepts) or (isinstance(data, bool) and tp is not bool):
            raise DecodeError(f"expected {tp.__name__}, got {_kind(data)}")
        if tp is float and not math.isfinite(data):
            raise DecodeError(f"expected a finite number, got {data}")
        return data

    return decode


def _tuple_decoder(decoders: Tuple[Callable[[Any], Any], ...], *, variadic: bool) -> Callable[[Any], tuple]:
    def decode(data: Any) -> tuple:
        if not isinstance(data, (list, tuple)):
            raise DecodeError(f"expected list, got {_kind(data)}")
        if not variadic and len(data) != len(decoders):
            raise DecodeError(f"expected {len(decoders)} items, got {len(data)}")
        each = repeat(decoders[0]) if variadic else decoders
        return tuple(_at(f"[{i}]", item, value) for i, (item, value) in enumerate(zip(each, data)))

    return decode


def _mapping_decoder(decode_value: Callable[[Any], Any]) -> Callable[[Any], dict]:
    decode_key = _decoder(str)

    def decode(data: Any) -> dict:
        if not isinstance(data, dict):
            raise DecodeError(f"expected object, got {_kind(data)}")
        return {decode_key(key): _at(f".{key}", decode_value, value) for key, value in data.items()}

    return decode


def _dataclass_decoder(cls: type) -> Callable[[Any], Any]:
    hints = typing.get_type_hints(cls)
    specs = [spec for spec in dataclasses.fields(cls) if spec.init]
    decoders = {spec.name: _decoder(hints[spec.name]) for spec in specs}
    required = [
        spec.name
        for spec in specs
        if spec.default is dataclasses.MISSING and spec.default_factory is dataclasses.MISSING
    ]

    def decode(data: Any) -> Any:
        if not isinstance(data, dict):
            raise DecodeError(f"expected object, got {_kind(data)}")
        for key in data:
            if key not in decoders:
                raise DecodeError("unknown field", f".{key}")
        for name in required:
            if name not in data:
                raise DecodeError("missing field", f".{name}")
        kwargs = {key: _at(f".{key}", decoders[key], value) for key, value in data.items()}
        try:
            return cls(**kwargs)
        except ValueError as exc:  # the class's own checks (__post_init__)
            raise DecodeError(str(exc)) from exc

    return decode
