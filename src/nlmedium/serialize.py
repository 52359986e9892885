"""Every input format, and deterministic artifact serialization.

This is the one module that knows an input format.  Input files are read
by ``load_json_file``, which rejects ``NaN`` and infinite numbers.  A run
config (README's schema) is decoded by ``RunConfig.from_config``, its
sections by ``medium_from_config``, ``nu_from_config``,
``lambda_from_config`` and ``grid_from_config``, and a comb file by
``comb_from_obj``.  A missing key or a value that cannot be decoded raises
``InputError`` naming the config section and the key; an unknown key does
too.  The shapes are checked here: ``grids.omega`` is a flat list or a
``{"start", "stop", "n"}`` spec, ``grids.k`` a number or a flat list,
each entry of ``grids.quadruples`` three numbers (w1, w2, w3).  Complex
numbers (``medium.nu.values``, ``lambda.table``, comb amplitudes) are
``[re, im]`` pairs of exactly two finite numbers, decoded by one function,
``_complex_pair``.  The physics modules hold no config code.

Every double of an artifact round-trips exactly: JSON numbers use
Python's shortest round-trip repr and CSV cells use 17 significant digits
(``%.17g``).  Complex values are [re, im] pairs.  JSON output is canonical
(sorted keys, fixed separators), which makes artifacts byte-identical for
identical configurations on the same numpy version, SIMD dispatch path and
OpenBLAS core; another dispatch path or BLAS kernel can move the last bits
of some values.

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

import cmath
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .displacement import FrequencyComb
from .errors import InputError
from .medium import MediumParams, NuConstant, NuTabulated, NuZero
from .nonlinear import lambda_isotropic, validate_pairwise_symmetry

__all__ = [
    "RunConfig",
    "medium_from_config",
    "nu_from_config",
    "lambda_from_config",
    "grid_from_config",
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
    if not isinstance(obj, list):
        raise InputError("comb JSON must be a list of lines")
    lines = []
    for i, entry in enumerate(obj):
        section = f"comb line {i}"
        _reject_unknown_keys(section, entry, ("omega", "amp"))
        lines.append((_config_value(section, entry, "omega", float), _config_value(section, entry, "amp", _amplitude)))
    return FrequencyComb.from_lines(lines)


def _amplitude(pairs) -> np.ndarray:
    amp = np.asarray([_complex_pair(p) for p in pairs])
    if amp.shape != (3,):
        raise ValueError("an amplitude has three [re, im] pairs")
    return amp


_REQUIRED = object()


def _config_value(section: str, cfg: dict, key: str, convert, default=_REQUIRED):
    """``convert(cfg[key])``, with ``default`` standing in for an absent key.

    A missing key without a default, or a value that ``convert`` rejects
    with ``TypeError``, ``ValueError`` or ``OverflowError`` (an integer
    too large for a float), raises ``InputError`` naming the section and
    the key.
    """
    value = cfg.get(key, default)
    if value is _REQUIRED:
        raise InputError(f"config section {section!r} needs key {key!r}")
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"bad value for key {key!r} in config section {section!r}") from None


def _integer(value) -> int:
    """An integral config number as an int.

    A fractional value (0.5), an infinite one, a string or ``None`` raises
    ``ValueError``: ``int`` would truncate 0.5 to 0 without a word.
    """
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _reject_unknown_keys(section: str, cfg: dict, known) -> None:
    """Raise ``InputError`` naming the first key of ``cfg`` not in ``known``."""
    if not isinstance(cfg, dict):
        raise InputError(f"config section {section!r} must be an object")
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise InputError(f"unknown key {unknown[0]!r} in config section {section!r}")


def _complex_pair(value) -> complex:
    """An ``[re, im]`` pair of exactly two finite numbers as a complex; anything else raises ``ValueError``."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError("expected an [re, im] pair")
    z = complex(*value)
    if not cmath.isfinite(z):
        raise ValueError("expected finite numbers")
    return z


def _numbers(entries, dtype=None) -> np.ndarray:
    """Numbers and ``[re, im]`` pairs as one array, real unless a pair is present or ``dtype`` says otherwise."""
    return np.asarray([_complex_pair(v) if isinstance(v, (list, tuple)) else float(v) for v in entries], dtype=dtype)


def nu_from_config(cfg) -> NuZero | NuConstant | NuTabulated:
    """The reservoir coupling from its ``medium.nu`` section; no section is no coupling."""
    if cfg is None:
        return NuZero()
    _reject_unknown_keys("medium.nu", cfg, ("type", "nu0", "omega_cut", "grid", "values"))
    kind = cfg.get("type", "zero")
    if kind == "zero":
        return NuZero()
    if kind == "constant":
        nu0 = _config_value("medium.nu", cfg, "nu0", float)
        return NuConstant(nu0=nu0, omega_cut=_config_value("medium.nu", cfg, "omega_cut", float))
    if kind == "tabulated":
        values = _config_value("medium.nu", cfg, "values", _numbers)
        grid = _config_value("medium.nu", cfg, "grid", lambda v: np.asarray(v, dtype=float))
        return NuTabulated(grid=grid, values=values)
    raise InputError(f"unknown coupling type {kind!r}")


def medium_from_config(cfg) -> MediumParams:
    """The medium from its ``medium`` section; ``loop_cutoff`` defaults to 20 omega0."""
    _reject_unknown_keys("medium", cfg, MediumParams.__dataclass_fields__)
    omega0 = _config_value("medium", cfg, "omega0", float)
    return MediumParams(
        omega0=omega0,
        chi_s=_config_value("medium", cfg, "chi_s", float),
        alpha=_config_value("medium", cfg, "alpha", float, 1.0),
        rho=_config_value("medium", cfg, "rho", float),
        nu=nu_from_config(cfg.get("nu")),
        g=_config_value("medium", cfg, "g", _integer, 1),
        eps0=_config_value("medium", cfg, "eps0", float, 1.0),
        mu0=_config_value("medium", cfg, "mu0", float, 1.0),
        loop_cutoff=_config_value("medium", cfg, "loop_cutoff", float, 20.0 * omega0),
    )


def lambda_from_config(cfg) -> np.ndarray:
    """Build the coupling tensor from its JSON form.

    Accepts ``{"isotropic": [l1, l2, l3]}`` or ``{"table": [81 entries]}``
    in row-major slot order; table entries may be numbers or [re, im]
    pairs.  Full tables are validated against pairwise-exchange symmetry.
    """
    _reject_unknown_keys("lambda", cfg, ("isotropic", "table"))
    if "isotropic" in cfg:
        weights = _config_value("lambda", cfg, "isotropic", lambda v: [float(x) for x in v])
        if len(weights) != 3:
            raise InputError("isotropic coupling needs three weights")
        return lambda_isotropic(*weights)
    if "table" in cfg:
        flat = _config_value("lambda", cfg, "table", lambda v: _numbers(v, complex))
        if flat.shape != (81,):
            raise InputError("coupling table must have 81 entries")
        lam = flat.reshape(3, 3, 3, 3)
        validate_pairwise_symmetry(lam)
        return lam
    raise InputError("coupling config needs 'isotropic' or 'table'")


def grid_from_config(spec) -> np.ndarray:
    """An omega grid from ``{"start", "stop", "n"}`` or a flat list of numbers; it must be non-empty and ascending.

    A value that is not a flat list raises ``ValueError``, which the config
    decoder reports with its section and key.
    """
    if isinstance(spec, dict):
        start = _config_value("grids.omega", spec, "start", float)
        stop = _config_value("grids.omega", spec, "stop", float)
        grid = np.linspace(start, stop, _config_value("grids.omega", spec, "n", _integer))
    else:
        grid = np.asarray(spec, dtype=float)
        if grid.ndim != 1:
            raise ValueError("expected a list of numbers")
    if grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise InputError("frequency grid must be non-empty and ascending")
    return grid


def _wavevectors(value) -> np.ndarray:
    k = np.atleast_1d(np.asarray(value, dtype=float))
    if k.ndim != 1:
        raise ValueError("expected a number or a list of numbers")
    return k


def _triples(entries) -> list:
    triples = [tuple(map(float, q)) for q in entries]
    if any(len(q) != 3 for q in triples):
        raise ValueError("a quadruple is given by three frequencies (w1, w2, w3)")
    return triples


def _artifact_format(value) -> str:
    if value not in ("csv", "json"):
        raise ValueError("expected 'csv' or 'json'")
    return value


# keys the config sections may hold; "medium" is checked by medium_from_config
_SECTION_KEYS = {
    "grids": ("omega", "k", "quadruples"),
    "loop": ("n_points", "cutoff"),
    "drive": ("freq", "ladder"),
    "outputs": ("dir", "format"),
}


@dataclass
class RunConfig:
    """Everything a pipeline run needs, decoded from the JSON config."""

    medium: MediumParams
    lam: np.ndarray | None
    omega_grid: np.ndarray
    k_values: np.ndarray
    quadruples: list
    loop_n_points: int
    loop_cutoff: float | None
    drive_freq: float | None
    drive_ladder: int
    seed: int
    out_dir: str
    out_format: str

    @classmethod
    def from_config(cls, cfg: dict) -> "RunConfig":
        """Decode a parsed config, every section and key of it; absent keys take README's defaults."""
        if "medium" not in cfg:
            raise InputError("config needs a 'medium' section")
        for section, known in _SECTION_KEYS.items():
            _reject_unknown_keys(section, cfg.get(section, {}), known)
        medium = medium_from_config(cfg["medium"])
        lam = lambda_from_config(cfg["lambda"]) if "lambda" in cfg else None
        grids = cfg.get("grids", {})
        default_omega = {"start": 0.0, "stop": 2.0 * medium.omega0, "n": 65}
        omega_grid = _config_value("grids", grids, "omega", grid_from_config, default_omega)
        k_values = _config_value("grids", grids, "k", _wavevectors, [0.0])
        quadruples = _config_value("grids", grids, "quadruples", _triples, [])
        loop = cfg.get("loop", {})
        outputs = cfg.get("outputs", {})
        out_dir = _config_value("outputs", outputs, "dir", os.fspath, ".")
        out_format = _config_value("outputs", outputs, "format", _artifact_format, "csv")
        return cls(
            medium=medium,
            lam=lam,
            omega_grid=omega_grid,
            k_values=k_values,
            quadruples=quadruples,
            loop_n_points=_config_value("loop", loop, "n_points", _integer, 2048),
            loop_cutoff=_config_value("loop", loop, "cutoff", float) if "cutoff" in loop else None,
            drive_freq=_config_value("drive", cfg["drive"], "freq", float) if "drive" in cfg else None,
            drive_ladder=_config_value("drive", cfg.get("drive", {}), "ladder", _integer, 5),
            seed=_config_value("top level", cfg, "seed", _integer, 0),
            out_dir=out_dir,
            out_format=out_format,
        )
