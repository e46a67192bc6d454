"""Command-line front-end: evaluate, fuzz, emit extremal witnesses, compare.

Family files are JSON with complex numbers as ``[re, im]`` pairs::

    {
      "field_mode": "complex",
      "x": [[1.0, 0.0], [0.0, 0.0]],
      "ys": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
      "gamma": [1.0, 0.0],        // optional, with "Gamma"
      "Gamma": [3.0, 0.0],
      "coeffs": [[1.0, 0.0], [1.0, 0.0]],   // optional weights
      "p": [1.5, 3.0]             // optional exponents, all > 1
    }

Floats are serialized with shortest round-trip precision, so writing and
re-reading a family is bit-exact.  Every number must be a finite JSON
number: ``NaN``, ``Infinity``, overflowing literals such as ``1e400`` and
``true``/``false`` are rejected with their location.  ``--tolerance``,
which every subcommand takes, must be finite and positive.  All randomness
comes in through the ``--seed`` flag; no command ever consults the clock.

Exit codes: 0 success (also ``--help``), 1 malformed input (file, flag or
usage) or I/O failure, 2 a violated inequality (eval, fuzz; judged by
``report.verdict``, so a side beyond the double range is none) or an
infeasible construction (extremal).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Sequence

import numpy as np

from .core import BesselkitError, Family, ParameterError
from .extremal import ExtremalTarget, InfeasibleConstruction, build
from .harness import (
    DEFAULT_P_VALUES,
    DiskSampler,
    ENSEMBLES,
    FuzzConfig,
    check_all,
    fuzz,
    tightness_compare,
)
from .report import DEFAULT_TOLERANCE, BoundReport, check_tolerance, is_exponent, verdict
from .sharp import Disk, theorem21, theorem21_residuals, theorem22, theorem22_residuals

__all__ = ["main", "parse_complex", "read_family_file", "write_family_file"]


class CliInputError(Exception):
    """Malformed file, flag or usage, or an unwritable output; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ``CliInputError`` rather than exiting with 2."""

    def error(self, message: str):
        raise CliInputError(f"{self.prog}: {message}")


def parse_complex(text: str) -> complex:
    """Parse "a+bi" notation ("i" or "j", e.g. ``1``, ``-2.5+0.5i``, ``3i``).

    Parentheses are allowed, e.g. ``(-1+0i)``.  On the command line, values
    starting with a minus sign need the ``--flag=value`` form.
    """
    compact = "".join(text.split())
    if compact.startswith("(") and compact.endswith(")"):
        compact = compact[1:-1]
    if not compact:
        raise CliInputError("empty complex literal")
    try:
        value = complex(compact.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise CliInputError(f"cannot parse complex number from {text!r}") from None
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise CliInputError(f"complex literal must be finite, got {text!r}")
    return value


def _is_pair(value, real: bool) -> bool:
    """Whether ``value`` is a ``[re, im]`` pair of finite floats, with ``im == 0`` where ``real`` (a real-mode file)."""
    return (
        type(value) is list and len(value) == 2 and type(value[0]) is float and type(value[1]) is float
        and math.isfinite(value[0]) and math.isfinite(value[1]) and not (real and value[1])
    )


def _pair_to_complex(value, where: str, real: bool) -> complex:
    """The complex number of a ``[re, im]`` pair (``_is_pair``), or a located error."""
    if not _is_pair(value, real):
        if _is_pair(value, False):
            raise CliInputError(f"{where}: a real-mode file needs imaginary part 0.0, got {value!r}")
        raise CliInputError(f"{where}: expected a finite [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _vector(value, where: str, real: bool) -> list[complex]:
    """The entries of a list of ``[re, im]`` pairs; only a list with a bad one is read pair by pair, to locate it."""
    if not isinstance(value, list) or not value:
        raise CliInputError(f"{where}: expected a non-empty list of [re, im] pairs")
    if all(_is_pair(v, real) for v in value):
        return [complex(re, im) for re, im in value]
    return [_pair_to_complex(v, f"{where}[{k}]", real) for k, v in enumerate(value)]


def read_family_file(path: str) -> dict:
    """Parse and validate a family file.

    Returns a dict with keys ``family``, ``disk`` (or None), ``coeffs``
    (or None) and ``p_values``.  Raises ``CliInputError`` with a located
    diagnostic on any malformed content.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_int=float)  # so an overflowing integer reads as inf
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from None
    except OSError as exc:
        raise CliInputError(f"{path}: {exc.strerror or exc}") from None
    if not isinstance(raw, dict):
        raise CliInputError(f"{path}: top level must be a JSON object")
    mode = raw.get("field_mode", "complex")
    if mode not in ("real", "complex"):
        raise CliInputError(f"{path}: field_mode must be 'real' or 'complex', got {mode!r}")
    if "x" not in raw or "ys" not in raw:
        raise CliInputError(f"{path}: missing required keys 'x' and 'ys'")
    real = mode == "real"
    x = _vector(raw["x"], f"{path}: x", real)
    ys_raw = raw["ys"]
    if not isinstance(ys_raw, list) or not ys_raw:
        raise CliInputError(f"{path}: ys must be a non-empty list of vectors")
    ys = [_vector(v, f"{path}: ys[{k}]", real) for k, v in enumerate(ys_raw)]
    try:
        family = Family(x, ys, mode)
    except (BesselkitError, ValueError) as exc:
        raise CliInputError(f"{path}: {exc}") from None
    disk = None
    if ("gamma" in raw) != ("Gamma" in raw):
        raise CliInputError(f"{path}: gamma and Gamma must be given together")
    if "gamma" in raw:
        disk = Disk(
            _pair_to_complex(raw["gamma"], f"{path}: gamma", real),
            _pair_to_complex(raw["Gamma"], f"{path}: Gamma", real),
        )
    coeffs = None
    if "coeffs" in raw:
        coeffs = np.array(_vector(raw["coeffs"], f"{path}: coeffs", real), dtype=np.complex128)
        if coeffs.size != family.n:
            raise CliInputError(
                f"{path}: coeffs has length {coeffs.size}, family has {family.n} vectors"
            )
    p_values = DEFAULT_P_VALUES
    if "p" in raw:
        if not isinstance(raw["p"], list):
            raise CliInputError(f"{path}: p must be a list of numbers")
        for k, v in enumerate(raw["p"]):
            if not (type(v) is float and is_exponent(v)):
                raise CliInputError(f"{path}: p[{k}]: expected a finite number > 1, got {v!r}")
        p_values = tuple(raw["p"])
    return {"family": family, "disk": disk, "coeffs": coeffs, "p_values": p_values}


def _complex_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def family_payload(
    family: Family,
    disk: Disk | None = None,
    coeffs: Sequence[complex] | None = None,
    p_values: Sequence[float] | None = None,
) -> dict:
    payload = {
        "field_mode": family.field_mode,
        "x": [_complex_pair(z) for z in family.x],
        "ys": [[_complex_pair(z) for z in row] for row in family.ys],
    }
    if disk is not None:
        payload["gamma"] = _complex_pair(disk.gamma)
        payload["Gamma"] = _complex_pair(disk.Gamma)
    if coeffs is not None:
        payload["coeffs"] = [_complex_pair(z) for z in coeffs]
    if p_values is not None:
        payload["p"] = [float(p) for p in p_values]
    return payload


def _json_text(obj) -> str:
    """The layout of every JSON document the commands write."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_family_file(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(payload))


# one encoder for every report line: ``json.dumps(..., sort_keys=True)`` builds this encoder on each call
_REPORT_ENCODER = json.JSONEncoder(sort_keys=True)


def _reports_text(reports: list[BoundReport], fmt: str) -> str:
    if fmt == "json":
        return "".join(_REPORT_ENCODER.encode(r.as_dict()) + "\n" for r in reports)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["bound_id", "lhs", "rhs", "slack", "ratio", "preconditions_met", "reason"])
    # csv writes None as "" and floats through repr, as the columns need
    writer.writerows(r.as_dict().values() for r in reports)
    return out.getvalue()


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` to ``output`` or stdout; raise ``CliInputError`` if that fails."""
    try:
        if output is None:
            sys.stdout.write(text)
        else:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise CliInputError(f"cannot write output: {exc}") from None


def cmd_eval(args: argparse.Namespace) -> int:
    data = read_family_file(args.input)
    reports = check_all(
        data["family"],
        data["disk"],
        data["coeffs"],
        data["p_values"],
        args.tolerance,
    )
    _emit(_reports_text(reports, args.format), args.output)
    sides = np.array([(r.lhs, r.rhs) for r in reports if r.preconditions_met]).reshape(-1, 2).T
    return 2 if verdict(*sides, args.tolerance)[1].any() else 0


def _parse_range(text: str, name: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            value = int(parts[0])
            return value, value
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise CliInputError(f"--{name} expects an integer or lo:hi range, got {text!r}")


def _fuzz_config(args: argparse.Namespace, **sampler) -> FuzzConfig:
    """The ``FuzzConfig`` of the shared flags; ``sampler`` sets its ``DiskSampler``."""
    if args.workers < 1:
        raise CliInputError(f"workers must be >= 1, got {args.workers}")
    try:
        return FuzzConfig(
            master_seed=args.seed,
            instances=args.instances,
            n_range=_parse_range(args.n, "n"),
            d_range=_parse_range(args.dim, "dim"),
            field_mode=args.field,
            disk_sampler=DiskSampler(**sampler),
            tolerance=args.tolerance,
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from None


def cmd_fuzz(args: argparse.Namespace) -> int:
    cfg = _fuzz_config(args, boundary_fraction=args.boundary_fraction)
    summary = fuzz(cfg, workers=args.workers)
    _emit(_json_text(summary.as_dict()), args.output)
    return 0 if not summary.violations else 2


def cmd_extremal(args: argparse.Namespace) -> int:
    disk = Disk(parse_complex(args.gamma), parse_complex(args.Gamma))
    if args.n < 1 or args.dim < 1:
        raise CliInputError("--n and --dim must be >= 1")
    target = ExtremalTarget(args.target)
    x = np.zeros(args.dim, dtype=np.complex128)
    x[0] = 1.0
    try:
        family = build(target, x, args.n, disk)
    except (ParameterError, InfeasibleConstruction) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    thm21 = target is ExtremalTarget.THM21
    bound, resid = (theorem21, theorem21_residuals) if thm21 else (theorem22, theorem22_residuals)
    rep = bound(family, disk, args.tolerance)
    res = resid(family, disk, args.tolerance)
    if args.output is not None:
        _emit(_json_text(family_payload(family, disk)), args.output)
    summary = {
        "target": target.value,
        "n": args.n,
        "dim": args.dim,
        "bound": rep.as_dict(),
        "per_j_boundary": [float(v) for v in res.per_j_boundary],
        "mean_residual": res.mean_residual,
        "max_residual": res.max_residual,
    }
    sys.stdout.write(_json_text(summary))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    rows = tightness_compare(_fuzz_config(args), args.ensemble, workers=args.workers)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["bound_id", "wins", "mean_ratio"])
    for row in rows:
        writer.writerow([row.bound_id, row.wins, repr(row.mean_ratio)])
    _emit(out.getvalue(), args.output)
    return 0


def _tolerance(text: str) -> float:
    try:
        return check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="besselkit",
        description="Evaluate, fuzz and compare Bessel-sum bounds over vector families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flag every subcommand takes
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)

    p_eval = sub.add_parser(
        "eval", parents=[common], help="evaluate every applicable bound on a family file"
    )
    p_eval.add_argument("--input", required=True, help="family file (JSON)")
    p_eval.add_argument("--output", default=None, help="write reports here instead of stdout")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.set_defaults(func=cmd_eval)

    # the sampling flags of fuzz and compare, read by _fuzz_config
    sampling = argparse.ArgumentParser(add_help=False, parents=[common])
    sampling.add_argument("--seed", type=int, default=0)
    sampling.add_argument("--instances", type=int, default=1000)
    sampling.add_argument("--n", default="1:12", help="family size or lo:hi range")
    sampling.add_argument("--dim", default="1:8", help="vector dimension or lo:hi range")
    sampling.add_argument("--field", choices=("real", "complex"), default="complex")
    sampling.add_argument("--workers", type=int, default=1)

    p_fuzz = sub.add_parser("fuzz", parents=[sampling], help="randomized checking of all bounds")
    p_fuzz.add_argument("--boundary-fraction", type=float, default=0.25)
    p_fuzz.add_argument("--output", default=None, help="summary JSON path (default stdout)")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_ext = sub.add_parser(
        "extremal", parents=[common], help="construct an equality-attaining family"
    )
    p_ext.add_argument("--target", choices=("thm21", "thm22"), required=True)
    p_ext.add_argument("--n", type=int, required=True)
    p_ext.add_argument("--gamma", required=True, help='complex literal, e.g. "1+0i"')
    p_ext.add_argument("--Gamma", required=True, help='complex literal, e.g. "3+0i"')
    p_ext.add_argument("--dim", type=int, default=2)
    p_ext.add_argument("--output", default=None, help="family file path")
    p_ext.set_defaults(func=cmd_extremal)

    p_cmp = sub.add_parser("compare", parents=[sampling], help="tightness comparison across bounds")
    p_cmp.add_argument("--ensemble", choices=tuple(ENSEMBLES), default="generic")
    p_cmp.add_argument("--output", default=None, help="CSV path (default stdout)")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
