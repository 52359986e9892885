"""Deterministic artifact serialization.

Every double round-trips exactly: JSON numbers use Python's shortest
round-trip repr and CSV cells use 17 significant digits (``%.17g``).
Complex values are [re, im] pairs.  JSON output is canonical (sorted keys,
fixed separators), which makes artifacts byte-identical for identical
configurations.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InputError

__all__ = [
    "fmt_float",
    "complex_pair",
    "matrix_pairs",
    "dumps_canonical",
    "write_json",
    "write_csv",
    "load_json_file",
    "comb_to_obj",
    "comb_from_obj",
]


def fmt_float(x) -> str:
    return "%.17g" % float(x)


def complex_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def matrix_pairs(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[complex_pair(v) for v in row] for row in m]


def _canonical(obj):
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    return obj


def dumps_canonical(obj) -> str:
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))


def write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, str):
                    cells.append(cell)
                elif isinstance(cell, (int, np.integer)):
                    cells.append(str(int(cell)))
                else:
                    cells.append(fmt_float(cell))
            fh.write(",".join(cells) + "\n")


def load_json_file(path):
    """Parse a JSON file; decoding errors keep their line/column info."""
    with open(path) as fh:
        text = fh.read()
    return json.loads(text)


def comb_to_obj(comb) -> list:
    return [{"omega": w, "amp": [complex_pair(c) for c in a]} for w, a in comb.lines]


def comb_from_obj(obj):
    from .displacement import FrequencyComb

    if not isinstance(obj, list):
        raise InputError("comb JSON must be a list of lines")
    lines = []
    for entry in obj:
        amp = [complex(p[0], p[1]) for p in entry["amp"]]
        lines.append((float(entry["omega"]), np.asarray(amp)))
    return FrequencyComb.from_lines(lines)
