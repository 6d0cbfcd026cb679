"""Regenerate the golden CLI outputs checked by tests/test_golden.py.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py [CASE ...]
    PYTHONPATH=src python tests/golden/make_golden.py --check [CASE ...]

With no argument it writes ``systems.json`` (the tests/test_cli.py fixture
systems plus one random SNI draw with feedthrough), ``dr_exits.json`` (four
systems that are not NI: two negated random draws and two lightly damped
notch systems), one report per case in ``reports/``, and ``digests.json``
with the exit code of every case and the SHA-256 of every CSV it writes.
Named cases regenerate only those cases' reports and ``digests.json``
entries; the system files and every other reference stay as they are.  The
reports are byte-level references: regenerate them only for a change that is
meant to alter report or CSV bytes, name the cases, and say so in the change
log.

``--check`` writes nothing.  It runs the named cases (all with no name) and
prints, per case, whether the exit code, report and CSV match the references.
For a report that differs it lists each differing field: float fields with
their maximum relative difference, everything else (exit code, verdicts,
iteration counts, flags, array shapes) marked CHANGED.  It exits 1 when a
case differs.
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

import numpy as np

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
    # the frequency-witness exit of the DR certificate search, Infeasible after
    # 0 iterations: at the NotNI sweep's worst grid point (neg_rand6) and at
    # the crossing point between grid points that finds each notch's dip
    # (notch3, notch57).  The iteration limit, which these notches reach
    # without a hint, is pinned by the dr_exits.json runs of
    # tests/test_nicert.py only
    "certify-ni-neg_rand6": ["certify", "neg_rand6", "--property", "ni"],
    "certify-sni-notch3": ["certify", "notch3", "--property", "sni"],
    "certify-sni-notch57": ["certify", "notch57", "--property", "sni"],
    # n = 20: the frequency witness ends the search before its set-up, so no
    # product with the 420 x 170 Gmap enters the report
    "certify-ni-neg_rand20": ["certify", "neg_rand20", "--property", "ni"],
})


def notch(w0: float, zeta: float = 1e-4) -> dict:
    """G(s) = 1/(s+1) - k s/(s^2 + 2 zeta w0 s + w0^2), not NI: the dip of
    j(G - G*) near w0 reaches about -1 but is only about zeta*w0 wide."""
    k = (2 * w0 / (1 + w0 ** 2) + 1.0) * 2 * zeta * w0
    return {"A": [[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -w0 ** 2, -2 * zeta * w0]],
            "B": [[1.0], [0.0], [1.0]], "C": [[1.0, 0.0, -k]], "D": [[0.0]]}


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


def dr_exits_payload() -> dict:
    from nistab import random_ni_system

    rand6, _ = random_ni_system(6, 6, 2, strict=True, with_feedthrough=True)
    rand20, _ = random_ni_system(1, 20, 2)
    # -G: C and D change sign, so j(G - G*) <= 0 and no certificate exists
    systems = {f"neg_{name}": {"A": g.A.tolist(), "B": g.B.tolist(),
                               "C": (-g.C).tolist(), "D": (-g.D).tolist()}
               for name, g in (("rand6", rand6), ("rand20", rand20))}
    systems["notch3"] = notch(3.3)
    systems["notch57"] = notch(57.0)
    return {"schema_version": "1", "systems": systems}


# every report records the SHA-256 of its system file, so systems added after
# the first recording go into a file of their own
SYSTEM_FILES = {"systems.json": system_file_payload, "dr_exits.json": dr_exits_payload}
DR_EXIT_SYSTEMS = ("neg_rand6", "neg_rand20", "notch3", "notch57")


def system_file(system: str) -> str:
    return "dr_exits.json" if system in DR_EXIT_SYSTEMS else "systems.json"


def run_case(argv: list[str], workdir: Path) -> tuple[int, str, str | None]:
    """Run one case from ``workdir`` (which holds the system files); (code, report, csv)."""
    from nistab.cli import main

    csv_path = workdir / "out.csv"
    args = ([argv[0], system_file(argv[1])]
            + [str(csv_path) if a == "{csv}" else a for a in argv[1:]])
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


@contextlib.contextmanager
def _recorded_systems():
    """A temporary working directory holding copies of the system files."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for fname in SYSTEM_FILES:
            (work / fname).write_bytes((HERE / fname).read_bytes())
        yield work


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _leaves(value, path: str):
    """(path, value) pairs of a parsed report; a list of numbers at any depth
    is one leaf, an array."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and not _is_array(value):
        for k, item in enumerate(value):
            yield from _leaves(item, f"{path}[{k}]")
    else:
        yield path, value


def _is_array(value) -> bool:
    if isinstance(value, list):
        return all(_is_array(item) for item in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _has_float(value) -> bool:
    if isinstance(value, list):
        return any(_has_float(item) for item in value)
    return isinstance(value, float)


_ABSENT = object()


def _show(value) -> str:
    if value is _ABSENT:
        return "(absent)"
    return f"shape {np.shape(value)}" if isinstance(value, list) else repr(value)


def field_changes(expected: str, got: str) -> list[str]:
    """One line per differing field of two reports."""
    old, new = dict(_leaves(json.loads(expected), "")), dict(_leaves(json.loads(got), ""))
    lines = []
    for path in {**old, **new}:
        a, b = old.get(path, _ABSENT), new.get(path, _ABSENT)
        if a == b:
            continue
        if (_is_array(a) and _is_array(b) and np.shape(a) == np.shape(b)
                and (_has_float(a) or _has_float(b))):
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            scale = max(float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
            rel = float(np.abs(a - b).max()) / scale if scale else 0.0
            lines.append(f"{path}: float, max rel diff {rel:.2e}")
        else:
            lines.append(f"{path}: CHANGED {_show(a)} -> {_show(b)}")
    return lines


def check(names: list[str]) -> int:
    """Compare the named cases (all with none) with the references; writes nothing."""
    digests = json.loads((HERE / "digests.json").read_text())
    differing = 0
    with _recorded_systems() as work:
        for name in names or list(CASES):
            code, report, csv = run_case(CASES[name], work)
            expected = digests[name]
            path = HERE / "reports" / f"{name}.json"
            reference = path.read_text(encoding="utf-8") if path.exists() else ""
            lines = []
            if code != expected["exit_code"]:
                lines.append(f"exit_code: CHANGED {expected['exit_code']} -> {code}")
            if report != reference:
                changes = field_changes(reference, report) if report and reference else []
                lines += changes or ["report: CHANGED bytes"]
            if csv is not None and sha256(csv) != expected.get("csv_sha256"):
                lines.append("csv: CHANGED sha256")
            differing += bool(lines)
            print(f"{name}: {'differs' if lines else 'identical'}")
            for line in lines:
                print(f"  {line}")
    print(f"{differing} of {len(names or CASES)} case(s) differ")
    return 1 if differing else 0


def main(args: list[str]) -> int:
    names = [a for a in args if a != "--check"]
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    if "--check" in args:
        return check(names)
    if names:
        digests = json.loads((HERE / "digests.json").read_text())
    else:
        names, digests = list(CASES), {}
        for fname, payload in SYSTEM_FILES.items():
            (HERE / fname).write_text(json.dumps(payload(), indent=1) + "\n")
    reports = HERE / "reports"
    reports.mkdir(exist_ok=True)
    with _recorded_systems() as work:
        for name in names:
            code, report, csv = run_case(CASES[name], work)
            entry = {"exit_code": code}
            if report:
                (reports / f"{name}.json").write_text(report, encoding="utf-8")
            if csv is not None:
                entry["csv_sha256"] = sha256(csv)
            digests[name] = entry
    digests = {name: digests[name] for name in CASES if name in digests}
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
