"""Deterministic artifact serialization.

Every double round-trips exactly: JSON numbers use Python's shortest
round-trip repr and CSV cells use 17 significant digits (``%.17g``).
Complex values are [re, im] pairs.  JSON output is canonical (sorted keys,
fixed separators), which makes artifacts byte-identical for identical
configurations.

Artifacts are written in one pass from the values the library returns.
``dumps_canonical`` hands its object to ``json.dumps`` as it is: floats,
``np.float64`` included, print through ``float.__repr__``, and a hook
converts only what ``json`` cannot encode (complex values, other numpy
scalars, arrays).  ``write_csv`` writes cells that are already text;
``_format_once`` makes them from an array of numbers, formatting each
distinct bit pattern once (so ``-0.0`` keeps its sign).
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InputError
from .medium import _config_value, _reject_unknown_keys

__all__ = [
    "fmt_float",
    "dumps_canonical",
    "write_json",
    "write_csv",
    "load_json_file",
    "comb_to_obj",
    "comb_from_obj",
]


def fmt_float(x) -> str:
    return "%.17g" % float(x)


def _format_once(values):
    """``fmt_float`` text of a 2-d array, one list of cells per row.

    Each distinct bit pattern is formatted once: a response that is a
    scalar times I repeats a handful of values over many cells.  The key
    is the bit pattern, not the value, because ``-0.0 == 0.0`` prints
    ``-0``.  Rows are made as they are read.
    """
    texts = {}
    for row in np.ascontiguousarray(values, dtype=float):
        yield [
            texts[b] if b in texts else texts.setdefault(b, fmt_float(x))
            for x, b in zip(row.tolist(), row.view(np.uint64).tolist())
        ]


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):  # np.complex128 included
        return [obj.real, obj.imag]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))


def write_csv(path, header, rows) -> None:
    """Write the header and the rows, read once from any iterable; every cell is already text."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def load_json_file(path):
    """Parse a JSON file; decoding errors keep their line/column info."""
    with open(path) as fh:
        text = fh.read()
    return json.loads(text)


def comb_to_obj(comb) -> list:
    return [{"omega": w, "amp": a} for w, a in comb.lines]


def comb_from_obj(obj):
    from .displacement import FrequencyComb

    if not isinstance(obj, list):
        raise InputError("comb JSON must be a list of lines")
    lines = []
    for i, entry in enumerate(obj):
        section = f"comb line {i}"
        _reject_unknown_keys(section, entry, ("omega", "amp"))
        lines.append((_config_value(section, entry, "omega", float), _config_value(section, entry, "amp", _amplitude)))
    return FrequencyComb.from_lines(lines)


def _amplitude(pairs) -> np.ndarray:
    amp = np.asarray([complex(re, im) for re, im in pairs])
    if amp.shape != (3,):
        raise ValueError("an amplitude has three [re, im] pairs")
    return amp
