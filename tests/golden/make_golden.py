"""Regenerate the golden CLI outputs checked by tests/test_golden.py.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

It writes ``systems.json`` (the tests/test_cli.py fixture systems plus one
random SNI draw with feedthrough), one report per case in ``reports/``,
and ``digests.json`` with the exit code of every case and the SHA-256 of
every CSV it writes.  The reports
are byte-level references: regenerate them only for a change that is meant
to alter report or CSV bytes, and say so in the change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

# case name -> CLI arguments after the system file; "{csv}" marks a CSV output
CERTIFY_SYSTEMS = ("osc", "ctrl_half", "ctrl_two", "first_order", "s_over", "rand6")
CASES: dict[str, list[str]] = {}
for _name in CERTIFY_SYSTEMS:
    for _prop in ("ni", "sni"):
        CASES[f"certify-{_prop}-{_name}"] = [
            "certify", _name, "--property", _prop, "--freq-csv", "{csv}"]
CASES.update({
    # a grid point inside the exclusion radius of the pole at j
    "certify-ni-osc-excluded": ["certify", "osc", "--linear", "--wmin", "0.5", "--wmax", "1.5",
                                "--points", "101", "--freq-csv", "{csv}"],
    # the same grid with a wide resolvent guard: the points next to the pole trip it
    "certify-ni-osc-guarded": ["certify", "osc", "--linear", "--wmin", "0.5", "--wmax", "1.5",
                               "--points", "101", "--tol-pole", "0.05",
                               "--freq-csv", "{csv}"],
    "certify-sni-rand6-guarded": ["certify", "rand6", "--property", "sni", "--tol-pole", "0.3",
                                  "--freq-csv", "{csv}"],
    "analyze-osc-ctrl_half": ["analyze", "osc", "ctrl_half"],
    "analyze-osc-ctrl_two": ["analyze", "osc", "ctrl_two"],
    "analyze-first_order-ctrl_half": ["analyze", "first_order", "ctrl_half"],
    "analyze-osc-osc": ["analyze", "osc", "osc"],
    "analyze-rand6-rand6": ["analyze", "rand6", "rand6"],
    "simulate-osc-ctrl_half": ["simulate", "osc", "ctrl_half", "--x0=1,-0.5,0.25",
                               "--out", "{csv}"],
    "simulate-osc-ctrl_half-rk4": ["simulate", "osc", "ctrl_half", "--x0=1,-0.5,0.25",
                                   "--method", "rk4", "--out", "{csv}"],
    # lambda_max = 2: the loop is unstable and the trace grows
    "simulate-first_order-ctrl_two": ["simulate", "first_order", "ctrl_two", "--x0=1,-0.5",
                                      "--out", "{csv}"],
    "simulate-osc-ctrl_half-zero": ["simulate", "osc", "ctrl_half", "--out", "{csv}"],
})


def system_file_payload() -> dict:
    from nistab import random_ni_system

    rand6, _ = random_ni_system(6, 6, 2, strict=True, with_feedthrough=True)
    systems = {
        "osc": {"A": [[0, 1], [-1, 0]], "B": [[0], [1]], "C": [[1, 0]], "D": [[0]],
                "label": "lossless plant"},
        "ctrl_half": {"A": [[-1]], "B": [[1]], "C": [[0.5]], "D": [[0]]},
        "ctrl_two": {"A": [[-1]], "B": [[1]], "C": [[2]], "D": [[0]]},
        "first_order": {"A": [[-1]], "B": [[1]], "C": [[1]], "D": [[0]]},
        "s_over": {"A": [[-1]], "B": [[1]], "C": [[-1]], "D": [[1]]},
        "rand6": {k: getattr(rand6, k).tolist() for k in "ABCD"},
    }
    systems["rand6"]["label"] = rand6.label
    return {"schema_version": "1", "systems": systems}


def run_case(argv: list[str], workdir: Path) -> tuple[int, str, str | None]:
    """Run one case from ``workdir`` (which holds systems.json); (code, report, csv)."""
    from nistab.cli import main

    csv_path = workdir / "out.csv"
    args = [argv[0], "systems.json"] + [str(csv_path) if a == "{csv}" else a for a in argv[1:]]
    cwd = os.getcwd()
    out = io.StringIO()
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
    finally:
        os.chdir(cwd)
    csv = None
    if "{csv}" in argv:
        csv = csv_path.read_text(encoding="utf-8")
        csv_path.unlink()
    return code, out.getvalue(), csv


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    (HERE / "systems.json").write_text(json.dumps(system_file_payload(), indent=1) + "\n")
    reports = HERE / "reports"
    reports.mkdir(exist_ok=True)
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "systems.json").write_bytes((HERE / "systems.json").read_bytes())
        for name, argv in CASES.items():
            code, report, csv = run_case(argv, work)
            entry = {"exit_code": code}
            if report:
                (reports / f"{name}.json").write_text(report, encoding="utf-8")
            if csv is not None:
                entry["csv_sha256"] = sha256(csv)
            digests[name] = entry
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
