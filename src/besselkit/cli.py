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
re-reading a family is bit-exact.  All randomness comes in through the
``--seed`` flag; no command ever consults the clock.

Exit codes: 0 success, 1 malformed input or I/O failure, 2 a violated
inequality (eval, fuzz) or an infeasible construction (extremal).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Sequence

import numpy as np

from .core import BesselkitError, Family, ParameterError
from .extremal import ExtremalTarget, InfeasibleConstruction, build
from .harness import (
    DEFAULT_P_VALUES,
    DiskSampler,
    FuzzConfig,
    check_all,
    fuzz,
    tightness_compare,
)
from .report import DEFAULT_TOLERANCE, BoundReport
from .sharp import Disk, theorem21, theorem21_residuals, theorem22, theorem22_residuals

__all__ = ["main", "parse_complex", "read_family_file", "write_family_file"]


class CliInputError(Exception):
    """Malformed file or flag; maps to exit code 1."""


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


def _pair_to_complex(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) for v in value)
    ):
        raise CliInputError(f"{where}: expected an [re, im] pair, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def _vector(value, where: str) -> list[complex]:
    if not isinstance(value, list) or not value:
        raise CliInputError(f"{where}: expected a non-empty list of [re, im] pairs")
    return [_pair_to_complex(v, f"{where}[{k}]") for k, v in enumerate(value)]


def read_family_file(path: str) -> dict:
    """Parse and validate a family file.

    Returns a dict with keys ``family``, ``disk`` (or None), ``coeffs``
    (or None) and ``p_values``.  Raises ``CliInputError`` with a located
    diagnostic on any malformed content.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
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
    x = _vector(raw["x"], "x")
    ys_raw = raw["ys"]
    if not isinstance(ys_raw, list) or not ys_raw:
        raise CliInputError(f"{path}: ys must be a non-empty list of vectors")
    ys = [_vector(v, f"ys[{k}]") for k, v in enumerate(ys_raw)]
    try:
        family = Family(x, ys, mode)
    except (BesselkitError, ValueError) as exc:
        raise CliInputError(f"{path}: {exc}") from None
    disk = None
    if ("gamma" in raw) != ("Gamma" in raw):
        raise CliInputError(f"{path}: gamma and Gamma must be given together")
    if "gamma" in raw:
        disk = Disk(
            _pair_to_complex(raw["gamma"], "gamma"),
            _pair_to_complex(raw["Gamma"], "Gamma"),
        )
    coeffs = None
    if "coeffs" in raw:
        coeffs = np.array(_vector(raw["coeffs"], "coeffs"), dtype=np.complex128)
        if coeffs.size != family.n:
            raise CliInputError(
                f"{path}: coeffs has length {coeffs.size}, family has {family.n} vectors"
            )
    p_values = DEFAULT_P_VALUES
    if "p" in raw:
        if not isinstance(raw["p"], list) or not all(
            isinstance(v, (int, float)) for v in raw["p"]
        ):
            raise CliInputError(f"{path}: p must be a list of numbers")
        if any(v <= 1.0 for v in raw["p"]):
            raise CliInputError(f"{path}: all p values must exceed 1")
        p_values = tuple(float(v) for v in raw["p"])
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


def write_family_file(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _reports_text(reports: list[BoundReport], fmt: str) -> str:
    if fmt == "json":
        return "".join(json.dumps(r.as_dict(), sort_keys=True) + "\n" for r in reports)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["bound_id", "lhs", "rhs", "slack", "ratio", "preconditions_met", "reason"])
    # csv writes None as "" and floats through repr, as the columns need
    writer.writerows(r.as_dict().values() for r in reports)
    return out.getvalue()


def _emit(text: str, output: str | None) -> int:
    """Write ``text`` to ``output`` or stdout; exit code 0, or 1 if that fails."""
    try:
        if output is None:
            sys.stdout.write(text)
        else:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        data = read_family_file(args.input)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reports = check_all(
        data["family"],
        data["disk"],
        data["coeffs"],
        data["p_values"],
        args.tolerance,
    )
    if _emit(_reports_text(reports, args.format), args.output):
        return 1
    return 2 if any(not r.holds(args.tolerance) for r in reports) else 0


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


def _fuzz_config(args: argparse.Namespace, **extra) -> FuzzConfig:
    """The ``FuzzConfig`` set by the flags that ``fuzz`` and ``compare`` share."""
    return FuzzConfig(
        master_seed=args.seed,
        instances=args.instances,
        n_range=_parse_range(args.n, "n"),
        d_range=_parse_range(args.dim, "dim"),
        field_mode=args.field,
        tolerance=args.tolerance,
        **extra,
    )


def cmd_fuzz(args: argparse.Namespace) -> int:
    try:
        sampler = DiskSampler(boundary_fraction=args.boundary_fraction)
        cfg = _fuzz_config(args, disk_sampler=sampler)
    except (CliInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = fuzz(cfg, workers=args.workers)
    text = json.dumps(summary.as_dict(), sort_keys=True, indent=2) + "\n"
    if _emit(text, args.output):
        return 1
    return 0 if not summary.violations else 2


def cmd_extremal(args: argparse.Namespace) -> int:
    try:
        gamma = parse_complex(args.gamma)
        big_gamma = parse_complex(args.Gamma)
        if args.n < 1 or args.dim < 1:
            raise CliInputError("--n and --dim must be >= 1")
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    disk = Disk(gamma, big_gamma)
    target = ExtremalTarget(args.target)
    x = np.zeros(args.dim, dtype=np.complex128)
    x[0] = 1.0
    try:
        family = build(target, x, args.n, disk)
    except (ParameterError, InfeasibleConstruction) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    if target is ExtremalTarget.THM21:
        rep = theorem21(family, disk, args.tolerance)
        res = theorem21_residuals(family, disk, args.tolerance)
    else:
        rep = theorem22(family, disk, args.tolerance)
        res = theorem22_residuals(family, disk, args.tolerance)
    if args.output is not None:
        try:
            write_family_file(args.output, family_payload(family, disk))
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 1
    summary = {
        "target": target.value,
        "n": args.n,
        "dim": args.dim,
        "bound": rep.as_dict(),
        "per_j_boundary": [float(v) for v in res.per_j_boundary],
        "mean_residual": res.mean_residual,
        "max_residual": res.max_residual,
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        rows = tightness_compare(_fuzz_config(args), args.ensemble, workers=args.workers)
    except (CliInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["bound_id", "wins", "mean_ratio"])
    for row in rows:
        writer.writerow([row.bound_id, row.wins, repr(row.mean_ratio)])
    return _emit(out.getvalue(), args.output)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besselkit",
        description="Evaluate, fuzz and compare Bessel-sum bounds over vector families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate every applicable bound on a family file")
    p_eval.add_argument("--input", required=True, help="family file (JSON)")
    p_eval.add_argument("--output", default=None, help="write reports here instead of stdout")
    p_eval.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.set_defaults(func=cmd_eval)

    # the sampling flags of fuzz and compare, read by _fuzz_config
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--seed", type=int, default=0)
    sampling.add_argument("--instances", type=int, default=1000)
    sampling.add_argument("--n", default="1:12", help="family size or lo:hi range")
    sampling.add_argument("--dim", default="1:8", help="vector dimension or lo:hi range")
    sampling.add_argument("--field", choices=("real", "complex"), default="complex")
    sampling.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    sampling.add_argument("--workers", type=int, default=1)

    p_fuzz = sub.add_parser("fuzz", parents=[sampling], help="randomized checking of all bounds")
    p_fuzz.add_argument("--boundary-fraction", type=float, default=0.25)
    p_fuzz.add_argument("--output", default=None, help="summary JSON path (default stdout)")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_ext = sub.add_parser("extremal", help="construct an equality-attaining family")
    p_ext.add_argument("--target", choices=("thm21", "thm22"), required=True)
    p_ext.add_argument("--n", type=int, required=True)
    p_ext.add_argument("--gamma", required=True, help='complex literal, e.g. "1+0i"')
    p_ext.add_argument("--Gamma", required=True, help='complex literal, e.g. "3+0i"')
    p_ext.add_argument("--dim", type=int, default=2)
    p_ext.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p_ext.add_argument("--output", default=None, help="family file path")
    p_ext.set_defaults(func=cmd_extremal)

    p_cmp = sub.add_parser("compare", parents=[sampling], help="tightness comparison across bounds")
    p_cmp.add_argument("--ensemble", choices=("generic", "disk", "orthonormal"), default="generic")
    p_cmp.add_argument("--output", default=None, help="CSV path (default stdout)")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
