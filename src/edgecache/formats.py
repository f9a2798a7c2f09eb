"""Versioned JSON files and integer settings: one writer, one
envelope-checking reader, one integer check.

Every structured-text file the package writes is a JSON object that
ends in a newline; data files carry a {"format": ..., "version": ...}
envelope, which readers check before touching any other field, and
then read each field through read_fields, so that a missing or
malformed field raises the reader's own error type naming the field.
Every count, seed and size a caller passes in goes through integer.
"""

from __future__ import annotations

import json
import operator

import numpy as np


def write_json(path, payload: dict, indent: int | None = 2) -> None:
    # json.dumps encodes an unindented payload (instance and assignment
    # files) in C; json.dump to a file never does.
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=indent) + "\n")


def check_envelope(payload, fmt: str, version: int, error: type[Exception], where) -> dict:
    """Return payload if it is a fmt file of this version; raise error otherwise."""
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise error(f"{where}: not an {fmt} file")
    if payload.get("version") != version:
        raise error(f"{where}: unsupported {fmt} version {payload.get('version')!r}")
    return payload


def read_json(path, fmt: str, version: int, error: type[Exception]) -> dict:
    with open(path) as fh:
        return check_envelope(json.load(fh), fmt, version, error, path)


def read_fields(payload: dict, converters: dict, error: type[Exception], where) -> dict:
    """Convert the named fields of payload; a missing or malformed one raises error."""
    out = {}
    for key, convert in converters.items():
        if key not in payload:
            raise error(f"{where}: missing field {key!r}")
        try:
            out[key] = convert(payload[key])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise error(f"{where}: malformed field {key!r}: {exc}") from exc
    return out


def integer(value, name: str, error: type[ValueError], minimum: int | None = None) -> int:
    """value as an int, for an integer setting (a count, seed or size).

    Floats, strings and None are refused and numpy integers accepted,
    as operator.index does; so is a value below minimum, when given.
    A refusal raises error, naming the setting and the value.
    """
    try:
        out = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and out < minimum:
        raise error(f"{name} must be >= {minimum}, got {out}")
    return out


def int_tuple(values, size: int | None = None) -> tuple[int, ...]:
    """A tuple of integers (floats and strings rejected), of length size when given."""
    out = tuple(map(operator.index, values))
    if size is not None and len(out) != size:
        raise ValueError(f"expected {size} integers, got {len(out)}")
    return out


def array(ndim: int, dtype=float):
    """Converter to an ndim-dimensional numpy array of dtype."""

    def convert(values) -> np.ndarray:
        out = np.asarray(values, dtype=dtype)
        if out.ndim != ndim:
            raise ValueError(f"expected {ndim} dimensions, got {out.ndim}")
        return out

    return convert
