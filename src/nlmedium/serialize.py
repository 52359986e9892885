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
scalars, arrays).  ``write_csv`` takes arrays of numbers and writes them
in blocks of ``_CSV_BLOCK_ROWS`` sample rows: each distinct bit pattern
of a block is formatted once (so ``-0.0`` keeps its sign), and the
block's text is one ``%``-format of a template that holds every line of
a sample.
"""

from __future__ import annotations

import json
import math

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


# Sample rows per CSV block.  Each block costs one ``np.unique`` and one
# ``%``-format, and its numbers, cells and text are alive together: a few
# hundred rows amortise the calls, and the 4096-point chi1.csv peaks at
# 0.38 MB (tracemalloc) against 5.5 MB for the whole table in one block.
_CSV_BLOCK_ROWS = 256


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


def write_csv(path, header, lead, values, components) -> None:
    """Write ``header``, then a line (lead..., component, re, im) per sample and component.

    ``lead`` holds one row of real numbers per sample, ``values`` one row of
    complex numbers, labelled by ``components``.  Every number prints as
    ``fmt_float``.  Each distinct bit pattern of a block of samples is
    formatted once: a response that is a scalar times I repeats a handful
    of values over many cells.  The key is the bit pattern, not the value,
    because ``-0.0 == 0.0`` prints ``-0``.
    """
    lead = np.asarray(lead, dtype=float)
    values = np.asarray(values, dtype=complex)
    n_lead, count = lead.shape[1], len(components)
    # the column of each number of a sample's lines: lead, re and im per line
    slots = np.ravel([[*range(n_lead), n_lead + c, n_lead + count + c] for c in range(count)])
    template = "".join("%s," * n_lead + comp.replace("%", "%%") + ",%s,%s\n" for comp in components)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, lead.shape[0], _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            numbers = np.hstack([lead[block], values[block].real, values[block].imag])
            # 1-d input: the inverse is 1-d on every numpy >= 2.0
            bits, cells = np.unique(numbers.view(np.uint64).ravel(), return_inverse=True)
            texts = np.array([fmt_float(x) for x in bits.view(float).tolist()], dtype=object)
            cells = cells.reshape(numbers.shape)[:, slots]
            fh.write((template * numbers.shape[0]) % tuple(texts[cells].ravel().tolist()))


def load_json_file(path):
    """Parse a JSON file; decoding errors keep their line/column info.

    ``NaN``, ``Infinity`` and ``-Infinity`` are not JSON numbers (RFC 8259),
    and a number such as ``1e999`` overflows to infinity; each raises
    ``InputError`` naming the file and the token.
    """

    def reject(token):
        raise InputError(f"non-finite number {token} in {path}")

    def finite(token):
        value = float(token)
        return value if math.isfinite(value) else reject(token)

    with open(path) as fh:
        text = fh.read()
    return json.loads(text, parse_constant=reject, parse_float=finite)


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
