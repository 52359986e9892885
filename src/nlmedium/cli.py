"""Command dispatch and artifact emission.

Every run decodes one parsed config dict with ``RunConfig.from_config``:
the ``--config`` file (an empty one without it) with the ``--medium`` and
``--lambda`` files, when given, in place of those sections.  Both entry
points thus share one set of defaults, and each file is read once.  An
integer key (``medium.g``, ``grids.omega.n``, ``loop.n_points``,
``drive.ladder``, ``seed``) takes an integral number: 0.5 is a validation
error, not 0.  Every input file is read by ``serialize.load_json_file``,
which rejects ``NaN`` and infinite numbers; the number flags (``--k``,
``--drive-freq`` and the parts of ``--omega-grid``) take finite numbers
only, and a negative ``k`` is a validation error.  The commands that read
the response at many frequencies (``chi1``, ``kk-check``, ``chi3``,
``propagators``, ``dyson``) first evaluate it at all of them in one kernel
call; ``chi3`` calls the library's ``chi3`` once on all its quadruples.
``propagators`` and ``dyson`` then evaluate all their (k, omega) samples
as arrays: the scalar Green function and the tree blocks on every sample
at once (the one private name the CLI imports, ``_tree_propagators``,
takes the grid's gamma), the ``self_energy`` with one loop for all
samples, and ``dyson_dress`` with one stacked inverse.  The self-energy
evaluates gamma at the grid again, in the call that serves its loop
nodes, so ``dyson`` makes two kernel calls.  Each command hands
the values the library returns to one writer call: arrays and complex
values go to the JSON encoder as they are, and CSV numbers are formatted
once per distinct value in each block of rows (``serialize``).  The
medium returns scalars (``Gamma = gamma I``); ``chi1`` alone writes the
3x3 form, ``gamma I / eps0``, in its artifacts.

Exit codes: 0 success, 2 validation error (including a missing or
malformed config value), 3 numerical-convergence error, 64 usage error
(unknown command or bad flags), 65 malformed JSON input.  Identical
configuration and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .displacement import displacement as _run_displacement
from .duffing import compare_chi3 as _run_compare_chi3
from .errors import InputError, NlmediumError, NumericsError
from .fieldspace import LoopQuadrature, PropagatorMatrix, _tree_propagators, dyson_dress, self_energy
from .medium import (
    MediumParams,
    NuZero,
    _config_value,
    _integer,
    _reject_unknown_keys,
    chi1,
    gamma_response,
    kk_reconstruct,
)
from .nonlinear import chi3, lambda_from_config
from .serialize import comb_from_obj, comb_to_obj, load_json_file, write_csv, write_json

__all__ = ["RunConfig", "run", "main", "COMMANDS"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICS = 3
EXIT_USAGE = 64
EXIT_BAD_JSON = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# keys the config sections may hold; "medium" is checked by MediumParams
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
    def from_config(cls, cfg: dict, out_dir=None, out_format=None, seed=None) -> "RunConfig":
        """Decode a parsed config; the arguments, when given, override its outputs and seed."""
        if "medium" not in cfg:
            raise InputError("config needs a 'medium' section")
        for section, known in _SECTION_KEYS.items():
            _reject_unknown_keys(section, cfg.get(section, {}), known)
        medium = MediumParams.from_config(cfg["medium"])
        lam = lambda_from_config(cfg["lambda"]) if "lambda" in cfg else None
        grids = cfg.get("grids", {})
        default_omega = {"start": 0.0, "stop": 2.0 * medium.omega0, "n": 65}
        omega_grid = _config_value("grids", grids, "omega", _decode_grid, default_omega)
        k_values = _config_value("grids", grids, "k", lambda v: np.asarray(v, dtype=float), [0.0])
        quadruples = _config_value("grids", grids, "quadruples", lambda qs: [tuple(map(float, q)) for q in qs], [])
        loop = cfg.get("loop", {})
        outputs = cfg.get("outputs", {})
        config_dir = _config_value("outputs", outputs, "dir", os.fspath, ".")
        config_format = _config_value("outputs", outputs, "format", _artifact_format, "csv")
        return cls(
            medium=medium,
            lam=lam,
            omega_grid=omega_grid,
            k_values=np.atleast_1d(k_values),
            quadruples=quadruples,
            loop_n_points=_config_value("loop", loop, "n_points", _integer, 2048),
            loop_cutoff=_config_value("loop", loop, "cutoff", float) if "cutoff" in loop else None,
            drive_freq=_config_value("drive", cfg["drive"], "freq", float) if "drive" in cfg else None,
            drive_ladder=_config_value("drive", cfg.get("drive", {}), "ladder", _integer, 5),
            seed=int(seed) if seed is not None else _config_value("top level", cfg, "seed", _integer, 0),
            out_dir=out_dir or config_dir,
            out_format=out_format or config_format,
        )


def _artifact_format(value) -> str:
    if value not in ("csv", "json"):
        raise ValueError("expected 'csv' or 'json'")
    return value


def _finite_float(text: str) -> float:
    """A flag's number; as in input files, NaN and the infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _decode_grid(spec) -> np.ndarray:
    if isinstance(spec, dict):
        start = _config_value("grids.omega", spec, "start", float)
        stop = _config_value("grids.omega", spec, "stop", float)
        grid = np.linspace(start, stop, _config_value("grids.omega", spec, "n", _integer))
    else:
        grid = np.asarray(spec, dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise InputError("frequency grid must be non-empty and ascending")
    return grid


def _need_lambda(config: RunConfig) -> np.ndarray:
    if config.lam is None:
        raise InputError("config needs a 'lambda' section for this command")
    return config.lam


def _out_path(config: RunConfig, name: str) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, name)


_COMPONENTS = [f"{i}{j}" for i in range(3) for j in range(3)]
_CHI3_COMPONENTS = [ab + mn for ab in _COMPONENTS for mn in _COMPONENTS]
_WICK_KINDS = ("plain", "star", "plain", "star")


def _emit_json(config: RunConfig, name: str, obj) -> list:
    path = _out_path(config, name)
    write_json(path, obj)
    return [path]


def _emit_csv(config: RunConfig, name: str, freq_names, freqs: np.ndarray, values: np.ndarray, components) -> list:
    """Rows (freqs..., component, re, im), one per sample and component.

    ``freqs`` holds the frequencies named ``freq_names`` and ``values`` the
    complex components, one row per sample.
    """
    path = _out_path(config, name)
    write_csv(path, (*freq_names, "component", "re", "im"), freqs, values, components)
    return [path]


def _cmd_chi1(config: RunConfig, args) -> list:
    medium, grid = config.medium, config.omega_grid
    # the 3x3 form exists only here; g = 0 gives exact zeros without a kernel call
    gamma = gamma_response(medium, grid) if medium.g else np.zeros(grid.size, dtype=complex)
    values = gamma[:, None, None] * np.eye(3, dtype=complex) / medium.eps0
    if config.out_format == "json":
        samples = [{"omega": w, "chi1": m} for w, m in zip(grid, values)]
        return _emit_json(config, "chi1.json", {"seed": config.seed, "samples": samples})
    return _emit_csv(config, "chi1.csv", ("omega",), grid[:, None], values.reshape(grid.size, 9), _COMPONENTS)


def _cmd_chi3(config: RunConfig, args) -> list:
    lam = _need_lambda(config)
    quadruples = config.quadruples or [(w, w, w) for w in config.omega_grid if w != 0.0]
    freqs = [(w1 - w2 + w3, w1, w2, w3) for w1, w2, w3 in quadruples]
    columns = np.reshape(freqs, (-1, 4))
    tensors = chi3(config.medium, lam, *columns.T).reshape(-1, 81)
    if config.out_format == "json":
        samples = [
            {"w": w, "w1": w1, "w2": w2, "w3": w3, "chi3": tensor} for (w, w1, w2, w3), tensor in zip(freqs, tensors)
        ]
        return _emit_json(config, "chi3.json", {"seed": config.seed, "samples": samples})
    return _emit_csv(config, "chi3.csv", ("w", "w1", "w2", "w3"), columns, tensors, _CHI3_COMPONENTS)


def _cmd_kk_check(config: RunConfig, args) -> list:
    if isinstance(config.medium.nu, NuZero):
        report = {"seed": config.seed, "lossless": True, "note": "no absorption; KK trivially satisfied", "pass": True}
        return _emit_json(config, "kk_check.json", report)
    grid = config.omega_grid
    vals = chi1(config.medium, grid)
    recon = kk_reconstruct(grid, vals.imag)
    n = grid.size
    interior = slice(int(0.1 * n), int(0.9 * n))
    # errors relative to the largest |Re chi1| in the window: a pointwise
    # ratio diverges where Re chi1 crosses zero, however accurate the sum
    scale = float(np.max(np.abs(vals.real[interior]))) or 1.0
    max_rel = float(np.max(np.abs(recon[interior] - vals.real[interior]))) / scale
    report = {"seed": config.seed, "lossless": False, "max_rel_error_interior": max_rel, "pass": bool(max_rel <= 1e-3)}
    return _emit_json(config, "kk_check.json", report)


def _tree_samples(medium: MediumParams, k_values, omega_grid) -> tuple:
    """Every k with every omega != 0 of the grid, k outer: (k, omega, tree propagators).

    gamma is evaluated on the grid in one call, and not at all outside a
    medium (g = 0, where it is None) or when there are no samples.
    """
    grid = omega_grid[omega_grid != 0.0] if len(k_values) else omega_grid[:0]
    gam = np.tile(gamma_response(medium, grid), len(k_values)) if medium.g else None
    k, omega = np.repeat(k_values, grid.size), np.tile(grid, len(k_values))
    return k, omega, _tree_propagators(medium, k, omega, gam)


def _samples(k, omega, blocks: PropagatorMatrix, **extra) -> list:
    """One JSON sample per (k, omega): its four blocks, and its entry of each ``extra`` sequence."""
    columns = {"omega": omega.tolist(), "k": k.tolist(), "AA": blocks.aa, "AX": blocks.ax, "XA": blocks.xa}
    columns |= {"XX": blocks.xx, **extra}
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def _cmd_propagators(config: RunConfig, args) -> list:
    omega_grid = config.omega_grid
    if args.omega_grid:
        try:
            start, stop, count = args.omega_grid.split(":")
            omega_grid = _decode_grid({"start": _finite_float(start), "stop": _finite_float(stop), "n": int(count)})
        except (ValueError, argparse.ArgumentTypeError):
            raise InputError("--omega-grid expects start:stop:n with finite start and stop") from None
    k_values = config.k_values if not args.k_values else np.asarray(args.k_values, dtype=float)
    k, omega, g0 = _tree_samples(config.medium, k_values, omega_grid)
    return _emit_json(config, "propagators.json", {"seed": config.seed, "samples": _samples(k, omega, g0)})


def _cmd_dyson(config: RunConfig, args) -> list:
    lam = _need_lambda(config)
    mode = args.mode
    # the loop evaluates the kernel at both window ends, so the default
    # window stays strictly inside the kernel support |W| < loop_cutoff
    cutoff = config.loop_cutoff if config.loop_cutoff is not None else 0.5 * config.medium.loop_cutoff
    quad = LoopQuadrature(n_points=config.loop_n_points, cutoff=cutoff)
    k, omega, g0 = _tree_samples(config.medium, config.k_values, config.omega_grid)
    samples = []
    if omega.size:
        # one loop for all samples; a sample's self-energy does not depend on its k
        pi = self_energy(config.medium, lam, omega, quad)
        dressed = dyson_dress(g0, pi.value)
        chosen = dressed.single if mode == "single" else dressed.resummed
        errors = pi.error_estimate.tolist()
        samples = _samples(k, omega, chosen, mode=[mode] * omega.size, self_energy=pi.value, error_estimate=errors)
    return _emit_json(config, "dyson.json", {"seed": config.seed, "samples": samples})


def _cmd_wick_dump(config: RunConfig, args) -> list:
    from .wick import catalog_to_json, derivative_terms

    order = args.order
    if not 1 <= order <= 4:
        raise InputError("order must be between 1 and 4")
    terms = catalog_to_json(derivative_terms(order, _WICK_KINDS[:order]))
    return _emit_json(config, f"wick_order{order}.json", {"seed": config.seed, "order": order, "terms": terms})


def _cmd_displacement(config: RunConfig, args) -> list:
    lam = _need_lambda(config)
    comb = comb_from_obj(load_json_file(args.comb_in))
    out = _run_displacement(comb, config.medium, lam)
    if not args.comb_out:
        return _emit_json(config, "displacement.json", comb_to_obj(out))
    os.makedirs(os.path.dirname(args.comb_out) or ".", exist_ok=True)
    write_json(args.comb_out, comb_to_obj(out))
    return [args.comb_out]


def _cmd_duffing_compare(config: RunConfig, args) -> list:
    lam = _need_lambda(config)
    drive = args.drive_freq if args.drive_freq is not None else config.drive_freq
    if drive is None:
        raise InputError("duffing-compare needs a drive frequency")
    ladder = args.ladder if args.ladder is not None else config.drive_ladder
    report = _run_compare_chi3(config.medium, lam, float(drive), ladder=int(ladder))
    return _emit_json(config, "duffing_compare.json", dict(report.to_dict(), seed=config.seed))


_HANDLERS = {
    "chi1": _cmd_chi1,
    "chi3": _cmd_chi3,
    "kk-check": _cmd_kk_check,
    "propagators": _cmd_propagators,
    "dyson": _cmd_dyson,
    "wick-dump": _cmd_wick_dump,
    "displacement": _cmd_displacement,
    "duffing-compare": _cmd_duffing_compare,
}

COMMANDS = tuple(_HANDLERS)


def run(command: str, config: RunConfig, args: argparse.Namespace) -> list:
    """Dispatch one pipeline command with its parsed flags; returns the artifact paths."""
    if command not in _HANDLERS:
        raise InputError(f"unknown command {command!r}")
    return _HANDLERS[command](config, args)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nlmedium", description="Nonlinear absorbing-medium response pipelines.")
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--format", choices=("csv", "json"), help="artifact format")
    parser.add_argument("--seed", type=int, help="seed recorded in artifacts")
    sub = parser.add_subparsers(dest="command")
    for name in ("chi1", "chi3", "kk-check"):
        sub.add_parser(name)
    p_prop = sub.add_parser("propagators")
    p_prop.add_argument("--omega-grid", dest="omega_grid", help="start:stop:n override")
    p_prop.add_argument("--k", dest="k_values", type=_finite_float, nargs="+", help="wavevector magnitudes")
    p_dyson = sub.add_parser("dyson")
    p_dyson.add_argument("--mode", choices=("single", "resummed"), default="resummed")
    p_wick = sub.add_parser("wick-dump")
    p_wick.add_argument("--order", type=int, default=4)
    p_disp = sub.add_parser("displacement")
    p_disp.add_argument("--in", dest="comb_in", required=True, help="input comb JSON")
    p_disp.add_argument("--medium", dest="medium_file", help="medium JSON (overrides config)")
    p_disp.add_argument("--lambda", dest="lambda_file", help="coupling JSON (overrides config)")
    p_disp.add_argument("--out", dest="comb_out", help="output comb JSON path")
    p_duff = sub.add_parser("duffing-compare")
    p_duff.add_argument("--medium", dest="medium_file", help="medium JSON (overrides config)")
    p_duff.add_argument("--lambda", dest="lambda_file", help="coupling JSON (overrides config)")
    p_duff.add_argument("--drive-freq", type=_finite_float, default=None)
    p_duff.add_argument("--ladder", type=int, default=None)
    return parser


def _read_config(args) -> dict:
    """The parsed ``--config`` file with the ``--medium`` and ``--lambda`` files as its sections.

    Each file is read once.  Without ``--config``, ``--medium`` is required.
    """
    medium_file = getattr(args, "medium_file", None)
    if args.config:
        cfg = load_json_file(args.config)
        if not isinstance(cfg, dict):
            raise InputError("config must be an object")
    elif medium_file:
        cfg = {}
    else:
        raise InputError("either --config or --medium is required")
    for section, path in (("medium", medium_file), ("lambda", getattr(args, "lambda_file", None))):
        if path:
            cfg[section] = load_json_file(path)
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        config = RunConfig.from_config(_read_config(args), out_dir=args.out, out_format=args.format, seed=args.seed)
        artifacts = run(args.command, config, args)
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"error: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}\n")
        return EXIT_BAD_JSON
    except NumericsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICS
    except (InputError, NlmediumError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    for path in artifacts:
        sys.stdout.write(path + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
