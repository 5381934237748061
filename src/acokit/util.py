"""Small shared helpers: typed JSON reading, canonical ordering, value
rendering, the assignment guard of immutable classes and the ``acokit``
logger.

Everything that leaves the package (summaries, traces, witnesses) must not
depend on hash-randomized set iteration order, so any set-to-sequence
conversion goes through :func:`canonical_key`.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from itertools import chain

# logging and fractions are imported only where they are needed: most
# commands log nothing and build no Fraction, and start faster without them


@contextmanager
def json_object(source, rejected: str, error):
    """The JSON object at a path, in an open text file or already parsed,
    for a ``with`` block that reads its fields.  Text that is not JSON, a
    document that is not an object, a missing field (``KeyError``) and a
    mistyped one (``TypeError``) raise ``error("<rejected>: ...")``."""
    try:
        if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
            with open(source, "r", encoding="utf-8") as fh:
                source = json.load(fh)
        elif hasattr(source, "read"):
            source = json.load(source)
        yield typed(source, dict, "expected a JSON object")
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise error(f"{rejected}: {exc}") from None


def typed(value, kind, what: str, length: int | None = None):
    """``value`` if its JSON type is exactly ``kind`` (``str``, ``int``,
    ``bool``, ``list``, ``dict``, a tuple of them, or ``[kind]``, an array
    of ``kind`` items, at ``length`` items if given), else
    ``TypeError("<what>, got <value>")``.  ``true`` and ``1.0`` are not
    integers and a string is not an array."""
    if isinstance(kind, list):
        for item in typed(value, list, what, length):
            typed(item, kind[0], what)
    elif (type(value) not in (kind if isinstance(kind, tuple) else (kind,))
          or length is not None and len(value) != length):
        raise TypeError(f"{what}, got {value!r}")
    return value


def canonical_key(value):
    """Total ordering key over the mixed values used in this package.

    Handles numbers, strings, tuples and (frozen)sets, nested arbitrarily.
    Values of different kinds sort by kind rank, so heterogeneous
    collections still order deterministically.  Ints (bools included) and
    fractions key as themselves, which Python compares exactly; a float
    keys as its exact :class:`~fractions.Fraction`, so NaN raises
    :class:`ValueError`.

    Fractions are tested last, and only once :mod:`fractions` is loaded
    (no value can be one before): ``isinstance`` against ``Fraction``, a
    ``numbers`` ABC, is slow for every value that is not one.
    """
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, tuple):
        return (2, tuple([canonical_key(v) for v in value]))
    if isinstance(value, (set, frozenset)):
        return (3, tuple(sorted([canonical_key(v) for v in value])))
    if isinstance(value, int):
        return (0, value)
    if isinstance(value, float):
        from fractions import Fraction
        return (0, Fraction(value))
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        return (0, value)
    return (4, type(value).__name__, repr(value))


# the types whose values sort among themselves as their canonical keys do
_NATIVE = frozenset((str, int, bool))


def sorted_canonical(values) -> list:
    """``values`` sorted by :func:`canonical_key`, in a new list.

    Values that all have one type among ``str``, ``int`` and ``bool``
    compare as their keys do, and so do tuples whose elements together
    have one such type (element by element, a prefix first), so those are
    sorted as they are and build no key.  Anything else, floats included,
    sorts by key."""
    values = list(values)
    kinds = set(map(type, values))
    if kinds == {tuple}:
        kinds = set(map(type, chain.from_iterable(values)))
    values.sort(key=None if len(kinds) < 2 and kinds <= _NATIVE
                else canonical_key)
    return values


def refuse_assignment(self, name, value):
    """``__setattr__`` of the immutable classes that keep a ``__dict__``
    for their cached properties; their ``__init__`` sets fields with
    ``object.__setattr__``."""
    raise AttributeError(
        f"cannot assign to {name!r}: {type(self).__name__} is immutable")


def format_value(value) -> str:
    """Render a state component for traces and text summaries."""
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(format_value(v) for v in value)) + "}"
    if isinstance(value, tuple):
        return "(" + " ".join(format_value(v) for v in value) + ")"
    if isinstance(value, bool):
        return "T" if value else "F"
    return str(value)


def jsonable(value):
    """Convert package values into JSON-serializable structures; any
    other value, a :class:`~fractions.Fraction` included, as its ``str``."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, tuple):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [jsonable(v) for v in sorted_canonical(value)]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return str(value)


class _Unconfigured:
    """The ``acokit`` logger before :mod:`logging` is loaded: it drops
    every record, as the real one drops DEBUG and INFO records until
    logging is configured."""

    def isEnabledFor(self, level) -> bool:
        return False

    def debug(self, msg, *args) -> None:
        pass

    info = debug


_UNCONFIGURED = _Unconfigured()
INFO = 20  # logging.INFO, read without importing logging


def logger():
    """The ``acokit`` logger, once :mod:`logging` is loaded.

    Before that nothing can have configured a handler or a level, so no
    DEBUG or INFO record, the only ones the package writes, could be
    emitted, and a stand-in that drops them is returned.  ``cli.main``
    imports :mod:`logging` only when ``ACOKIT_LOG`` is set.
    """
    logging = sys.modules.get("logging")
    if logging is None:
        return _UNCONFIGURED
    return logging.getLogger("acokit")
