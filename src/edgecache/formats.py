"""Versioned JSON files: one writer and one envelope-checking reader.

Every structured-text file the package writes is a JSON object that
ends in a newline; data files carry a {"format": ..., "version": ...}
envelope, which readers check before touching any other field.
"""

from __future__ import annotations

import json


def write_json(path, payload: dict, indent: int | None = 2) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=indent)
        fh.write("\n")


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
