"""Command dispatch and artifact emission.

Every run decodes one parsed config dict with ``RunConfig.from_config``:
the ``--config`` file, or ``{"medium": <--medium file>}`` without one, so
both entry points share one set of defaults.  ``--medium`` and
``--lambda`` files then replace those sections.  Each command hands the
values the library returns to one writer call: arrays and complex values
go to the JSON encoder as they are, and CSV cells are formatted once per
distinct number (``serialize``).

Exit codes: 0 success, 2 validation error (including a missing or
malformed config value), 3 numerical-convergence error, 64 usage error
(unknown command or bad flags), 65 malformed JSON input.  Identical
configuration and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .displacement import displacement as _run_displacement
from .duffing import compare_chi3 as _run_compare_chi3
from .errors import InputError, NlmediumError, NumericsError
from .fieldspace import (
    LoopQuadrature,
    PlaneWaveContext,
    _self_energy_sweep,
    dyson_dress,
    tree_propagators,
)
from .medium import MediumParams, NuZero, _config_value, _reject_unknown_keys, chi1_spectrum, kk_reconstruct
from .nonlinear import chi3, lambda_from_config
from .serialize import _format_once, comb_from_obj, comb_to_obj, load_json_file, write_csv, write_json

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
            loop_n_points=_config_value("loop", loop, "n_points", int, 2048),
            loop_cutoff=_config_value("loop", loop, "cutoff", float) if "cutoff" in loop else None,
            drive_freq=_config_value("drive", cfg["drive"], "freq", float) if "drive" in cfg else None,
            drive_ladder=_config_value("drive", cfg.get("drive", {}), "ladder", int, 5),
            seed=int(seed) if seed is not None else _config_value("top level", cfg, "seed", int, 0),
            out_dir=out_dir or config_dir,
            out_format=out_format or config_format,
        )


def _artifact_format(value) -> str:
    if value not in ("csv", "json"):
        raise ValueError("expected 'csv' or 'json'")
    return value


def _decode_grid(spec) -> np.ndarray:
    if isinstance(spec, dict):
        start = _config_value("grids.omega", spec, "start", float)
        stop = _config_value("grids.omega", spec, "stop", float)
        grid = np.linspace(start, stop, _config_value("grids.omega", spec, "n", int))
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
_POLARIZATION = np.array([1.0, 0.0, 0.0])
_WICK_KINDS = ("plain", "star", "plain", "star")


def _emit_json(config: RunConfig, name: str, obj) -> list:
    path = _out_path(config, name)
    write_json(path, obj)
    return [path]


def _emit_csv(config: RunConfig, name: str, freq_names, freqs: np.ndarray, values: np.ndarray, components) -> list:
    """Rows (freqs..., component, re, im), one per sample and component.

    ``freqs`` holds the frequencies named ``freq_names`` and ``values`` the
    complex components, one row per sample; each distinct number is
    formatted once.
    """
    lead, count = len(freq_names), len(components)
    cells = _format_once(np.hstack([freqs, values.real, values.imag]))
    # generators: write_csv reads the rows once, and no list of all rows is kept
    rows = (
        (*row[:lead], comp, row[lead + c], row[lead + count + c]) for row in cells for c, comp in enumerate(components)
    )
    path = _out_path(config, name)
    write_csv(path, (*freq_names, "component", "re", "im"), rows)
    return [path]


def _cmd_chi1(config: RunConfig, args) -> list:
    spectrum = chi1_spectrum(config.medium, config.omega_grid)
    grid = spectrum.freq_grid
    if config.out_format == "json":
        samples = [{"omega": w, "chi1": m} for w, m in zip(grid, spectrum.values)]
        return _emit_json(config, "chi1.json", {"seed": config.seed, "samples": samples})
    return _emit_csv(config, "chi1.csv", ("omega",), grid[:, None], spectrum.values.reshape(grid.size, 9), _COMPONENTS)


def _cmd_chi3(config: RunConfig, args) -> list:
    lam = _need_lambda(config)
    quadruples = config.quadruples or [(w, w, w) for w in config.omega_grid if w != 0.0]
    freqs = [(w1 - w2 + w3, w1, w2, w3) for w1, w2, w3 in quadruples]
    tensors = [chi3(config.medium, lam, w, w1, w2, w3).reshape(-1) for w, w1, w2, w3 in freqs]
    if config.out_format == "json":
        samples = [
            {"w": w, "w1": w1, "w2": w2, "w3": w3, "chi3": tensor} for (w, w1, w2, w3), tensor in zip(freqs, tensors)
        ]
        return _emit_json(config, "chi3.json", {"seed": config.seed, "samples": samples})
    freqs, values = np.reshape(freqs, (-1, 4)), np.reshape(tensors, (-1, 81))
    return _emit_csv(config, "chi3.csv", ("w", "w1", "w2", "w3"), freqs, values, _CHI3_COMPONENTS)


def _cmd_kk_check(config: RunConfig, args) -> list:
    if isinstance(config.medium.nu, NuZero):
        report = {"seed": config.seed, "lossless": True, "note": "no absorption; KK trivially satisfied", "pass": True}
        return _emit_json(config, "kk_check.json", report)
    grid = config.omega_grid
    vals = chi1_spectrum(config.medium, grid).values[:, 0, 0]
    recon = kk_reconstruct(grid, vals.imag)
    n = grid.size
    interior = slice(int(0.1 * n), int(0.9 * n))
    # errors relative to the largest |Re chi1| in the window: a pointwise
    # ratio diverges where Re chi1 crosses zero, however accurate the sum
    scale = float(np.max(np.abs(vals.real[interior]))) or 1.0
    max_rel = float(np.max(np.abs(recon[interior] - vals.real[interior]))) / scale
    report = {"seed": config.seed, "lossless": False, "max_rel_error_interior": max_rel, "pass": bool(max_rel <= 1e-3)}
    return _emit_json(config, "kk_check.json", report)


def _propagator_samples(medium: MediumParams, k_values, omega_grid, dress) -> list:
    """One JSON sample per (k, omega != 0).

    ``dress(omega, g0)`` maps the tree propagators to the propagators
    written as the four blocks, plus the sample's other keys.
    """
    samples = []
    for k in k_values:
        for w in omega_grid:
            if w == 0.0:
                continue
            ctx = PlaneWaveContext(k=float(k), polarization=_POLARIZATION, omega=float(w))
            g, extra = dress(float(w), tree_propagators(medium, ctx))
            sample = {"omega": float(w), "k": float(k), "AA": g.aa, "AX": g.ax, "XA": g.xa, "XX": g.xx}
            samples.append(sample | extra)
    return samples


def _cmd_propagators(config: RunConfig, args) -> list:
    omega_grid = config.omega_grid
    if args.omega_grid:
        try:
            start, stop, count = args.omega_grid.split(":")
            omega_grid = _decode_grid({"start": float(start), "stop": float(stop), "n": int(count)})
        except ValueError:
            raise InputError("--omega-grid expects start:stop:n") from None
    k_values = config.k_values if not args.k_values else np.asarray(args.k_values, dtype=float)
    samples = _propagator_samples(config.medium, k_values, omega_grid, lambda w, g0: (g0, {}))
    return _emit_json(config, "propagators.json", {"seed": config.seed, "samples": samples})


def _cmd_dyson(config: RunConfig, args) -> list:
    lam = _need_lambda(config)
    mode = args.mode
    # the loop evaluates the kernel at both window ends, so the default
    # window stays strictly inside the kernel support |W| < loop_cutoff
    cutoff = config.loop_cutoff if config.loop_cutoff is not None else 0.5 * config.medium.loop_cutoff
    quad = LoopQuadrature(n_points=config.loop_n_points, cutoff=cutoff)
    # the self-energy does not depend on k, and the loop integrals not on w
    pi_at = _self_energy_sweep(config.medium, lam, quad)

    def dress(w, g0):
        pi = pi_at(w)
        dressed = dyson_dress(g0, pi.value)
        chosen = dressed.single if mode == "single" else dressed.resummed
        return chosen, {"mode": mode, "self_energy": pi.value, "error_estimate": pi.error_estimate}

    samples = _propagator_samples(config.medium, config.k_values, config.omega_grid, dress)
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
    p_prop.add_argument("--k", dest="k_values", type=float, nargs="+", help="wavevector magnitudes")
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
    p_duff.add_argument("--drive-freq", type=float, default=None)
    p_duff.add_argument("--ladder", type=int, default=None)
    return parser


def _apply_file_overrides(config: RunConfig, args) -> RunConfig:
    medium_file = getattr(args, "medium_file", None)
    if medium_file:
        config.medium = MediumParams.from_config(load_json_file(medium_file))
    lambda_file = getattr(args, "lambda_file", None)
    if lambda_file:
        config.lam = lambda_from_config(load_json_file(lambda_file))
    return config


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
        if args.config:
            cfg = load_json_file(args.config)
        elif getattr(args, "medium_file", None):
            cfg = {"medium": load_json_file(args.medium_file)}
        else:
            raise InputError("either --config or --medium is required")
        config = RunConfig.from_config(cfg, out_dir=args.out, out_format=args.format, seed=args.seed)
        config = _apply_file_overrides(config, args)
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
