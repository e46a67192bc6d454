"""Recorded outputs: the SHA-256 of every golden output, recomputed.

``goldens.json`` holds one record per output: its hash and a few readable
fields (each bound's least slack, the win counts), so that a re-record
shows in its diff which fields moved and by how much.  After a change that
is meant to move outputs, rewrite the record from the root of a checkout::

    PYTHONPATH=src python tests/test_goldens.py --write

The outputs: ``fuzz`` summaries and ``compare`` tables at 1024 instances in
both field modes, for three disk samplers; the samplers' entries, which
involve no BLAS or libm call (generic ``x`` and ``ys``, and disk end
points); and ``check_all``, ``eval`` (JSON and CSV) and ``extremal`` on the
family files in ``tests/data``, which depend on no random draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from besselkit import (
    DiskSampler,
    FuzzConfig,
    check_all,
    fuzz,
    sample_disk_family,
    sample_family,
    tightness_compare,
)
from besselkit.cli import main, read_family_file

GOLDENS = Path(__file__).with_name("goldens.json")
DATA = Path(__file__).with_name("data")
FILES = ("generic", "disk", "orthonormal_real", "witness_thm22")
MODES = ("complex", "real")
SAMPLERS = {
    "default": DiskSampler(),
    "heavy": DiskSampler(boundary_fraction=0.9, extremal_fraction=0.5),
    "scaled": DiskSampler(scale=2**-40),
}


def _config(mode: str, sampler: str, instances: int = 1024) -> FuzzConfig:
    return FuzzConfig(master_seed=17, instances=instances, field_mode=mode, disk_sampler=SAMPLERS[sampler])


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _fuzz(mode: str, sampler: str) -> dict:
    summary = fuzz(_config(mode, sampler)).as_dict()
    return {
        "sha256": _sha(json.dumps(summary, sort_keys=True)),
        "violations": len(summary["violations"]),
        "min_slack": summary["min_slack"],
        "tightness_wins": summary["tightness_wins"],
    }


def _compare(mode: str, sampler: str, ensemble: str) -> dict:
    rows = tightness_compare(_config(mode, sampler), ensemble)
    text = "".join(f"{r.bound_id},{r.wins},{r.mean_ratio!r}\n" for r in rows)
    return {"sha256": _sha(text), "wins": {r.bound_id: r.wins for r in rows}}


def _entries(mode: str) -> dict:
    """Generic vectors and disk end points of 64 instances: dyadic values, no BLAS or libm."""
    cfg = _config(mode, "default", 64)
    parts = []
    for i in range(cfg.instances):
        f = sample_family(cfg, i)
        _, d = sample_disk_family(cfg, i)
        parts += [f.x.tobytes(), f.ys.tobytes(), np.array([d.gamma, d.Gamma]).tobytes()]
    return {"sha256": _sha(b"".join(parts))}


def _check_all(name: str) -> dict:
    data = read_family_file(str(DATA / f"{name}.json"))
    reports = check_all(data["family"], data["disk"], data["coeffs"], data["p_values"])
    least: dict[str, float] = {}
    for r in reports:
        if r.preconditions_met:
            least[r.bound_id] = min(least.get(r.bound_id, np.inf), r.relative_slack())
    text = "".join(json.dumps(r.as_dict(), sort_keys=True) + "\n" for r in reports)
    return {"sha256": _sha(text), "min_slack": least}


def _cli(args: list[str], output: bool) -> str:
    """What ``main(args)`` writes: its exit code, standard output and, with ``output``, its output file."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(args + (["--output", str(out)] if output else []))
        return f"{code}\n{stdout.getvalue()}" + (out.read_text() if out.exists() else "")


def _eval(name: str, fmt: str) -> dict:
    return {"sha256": _sha(_cli(["eval", "--input", str(DATA / f"{name}.json"), "--format", fmt], True))}


def _extremal(name: str, target: str) -> dict:
    """``besselkit extremal`` on the disk and the sizes of a family file."""
    data = read_family_file(str(DATA / f"{name}.json"))
    f, d = data["family"], data["disk"]
    args = ["extremal", "--target", target, f"--gamma={d.gamma!r}", f"--Gamma={d.Gamma!r}"]
    text = _cli(args + ["--n", str(f.n), "--dim", str(f.dim)], True)
    return {"sha256": _sha(text), "exit": int(text.split("\n", 1)[0])}


def _recipes() -> dict:
    """Each golden's name and the call that recomputes its record."""
    recipes = {}
    for mode in MODES:
        for sampler in SAMPLERS:
            recipes[f"fuzz/{mode}/{sampler}"] = (_fuzz, mode, sampler)
            for ensemble in ("generic", "disk", "orthonormal"):
                recipes[f"compare/{mode}/{sampler}/{ensemble}"] = (_compare, mode, sampler, ensemble)
        recipes[f"entries/{mode}"] = (_entries, mode)
    for name in FILES:
        recipes[f"check_all/{name}"] = (_check_all, name)
        for fmt in ("json", "csv"):
            recipes[f"eval/{fmt}/{name}"] = (_eval, name, fmt)
        if name != "generic":
            for target in ("thm21", "thm22"):
                recipes[f"extremal/{target}/{name}"] = (_extremal, name, target)
    return recipes


RECIPES = _recipes()


def _record(name: str) -> dict:
    fn, *args = RECIPES[name]
    return fn(*args)


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(GOLDENS.read_text())


def test_every_golden_is_recorded(recorded):
    assert sorted(recorded) == sorted(RECIPES)


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_golden(name, recorded):
    assert _record(name) == recorded[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_goldens.py --write")
    records = {name: _record(name) for name in sorted(RECIPES)}
    GOLDENS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDENS}")
