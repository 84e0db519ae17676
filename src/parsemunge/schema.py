"""Declared shapes of loaded JSON documents, and the one checker for them.

A spec is one of: a type (``str``, ``int``, ``float``, ``bool``) or a union of
types such as ``float | None``, matched by exact type, so a bool is no int and
an int no float; ``object``, any value; ``[item]``, a list of items, or
``[a, b, ...]``, a list of exactly these scalars; ``{str: value}``, an object
of values; ``{"key": spec, ...}``, an object with exactly these keys, of which
one written with a trailing "?" may be absent; or ``Tagged(key, {tag: spec})``,
an object whose text ``key`` picks its spec. Lists and objects of scalars are
checked in C.
"""

from __future__ import annotations

import types
from operator import itemgetter
from typing import NamedTuple

from .errors import DataError


class Tagged(NamedTuple):
    key: str
    variants: dict


_SCALAR = (type, types.UnionType)
_NAMES = {str: "text", int: "an integer", float: "a float", bool: "a boolean",
          type(None): "null", list: "a list", dict: "an object"}


def _kind(value) -> str:
    return _NAMES.get(type(value), type(value).__name__)


def _describe(spec) -> str:
    return " or ".join(map(_NAMES.get, getattr(spec, "__args__", (spec,))))


def _all_text(values) -> bool:
    try:
        "".join(values)  # type-checks every item in C
    except TypeError:
        return False
    return True


def _fast(spec):
    """A test, run in C, that every item of a collection matches ``spec``: a
    type, a union of types, or a row of them such as ``[str, int]``; None for
    other specs."""
    if isinstance(spec, list) and len(spec) > 1 and all(isinstance(s, _SCALAR) for s in spec):
        columns = list(enumerate(map(_fast, spec)))
        return lambda rows: (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {len(spec)}
                             and all(ok(map(itemgetter(i), rows)) for i, ok in columns))
    if not isinstance(spec, _SCALAR) or spec is object:
        return None
    allowed = set(getattr(spec, "__args__", (spec,)))
    return _all_text if spec is str else lambda values: set(map(type, values)) <= allowed


def _compile(spec):
    """Compile a spec into check(value) -> None, or the (path, expected, found)
    of the first mismatch, where path holds the keys and indices leading to it;
    a container puts the key of the item that holds a mismatch in front."""
    if spec is object:
        return lambda v: None
    if isinstance(spec, _SCALAR):
        allowed, expected = getattr(spec, "__args__", (spec,)), _describe(spec)
        return lambda v: None if type(v) in allowed else ((), expected, _kind(v))
    if isinstance(spec, Tagged):
        variants = {tag: _compile(s) for tag, s in spec.variants.items()}
        expected = f"an object whose {spec.key!r} is one of {sorted(variants)}"

        def tagged(v):
            tag = v.get(spec.key) if type(v) is dict else None
            if type(tag) is str and tag in variants:
                return variants[tag](v)
            return (), expected, f"{spec.key} {tag!r}" if type(v) is dict else _kind(v)

        return tagged
    if isinstance(spec, list) and len(spec) > 1:
        row_ok = _fast(spec)
        expected = f"a list [{', '.join(map(_describe, spec))}]"
        return lambda v: None if row_ok([v]) else ((), expected, _kind(v))
    if isinstance(spec, list) or str in spec:
        item = spec[0] if isinstance(spec, list) else spec[str]
        check, container, fast = _compile(item), type(spec), _fast(item)

        def items(v):
            if type(v) is not container:
                return (), _NAMES[container], _kind(v)
            if fast is not None and fast(v if container is list else v.values()):
                return None
            for key, x in enumerate(v) if container is list else v.items():
                if (miss := check(x)) is not None:
                    return (key, *miss[0]), *miss[1:]
            return None

        return items
    names = {k.removesuffix("?") for k in spec}
    required = {k for k in spec if not k.endswith("?")}
    fields = {k.removesuffix("?"): _compile(s) for k, s in spec.items()}
    expected = f"an object with keys {list(spec)}"

    def record(v):
        if type(v) is not dict or not (v.keys() == names or required <= v.keys() <= names):
            return (), expected, str(sorted(v)) if type(v) is dict else _kind(v)
        for key, x in v.items():
            if (miss := fields[key](x)) is not None:
                return (key, *miss[0]), *miss[1:]
        return None

    return record


def checker(spec, what: str, error: type[Exception] = DataError):
    """Compile ``spec`` once into a function that raises ``error`` naming the
    first value of a document that does not match it."""
    check = _compile(spec)

    def run(value) -> None:
        if (miss := check(value)) is not None:
            path, expected, found = miss
            where = what + "".join(f"[{key!r}]" for key in path)
            raise error(f"{where} must be {expected}, not {found}")

    return run
