"""Golden CLI outputs: certify/analyze reports and CSV bytes stay as recorded.

The references in tests/golden/ were written by tests/golden/make_golden.py.
Each case runs in-process from a temporary copy of the golden system files, so
the report's input path and digest match the recording.
Float fields carry 17 significant digits, so the references are tied to the
numpy/LAPACK build they were recorded with.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
from make_golden import CASES, SYSTEM_FILES, run_case  # noqa: E402

DIGESTS = json.loads((GOLDEN / "digests.json").read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    for fname in SYSTEM_FILES:
        shutil.copy(GOLDEN / fname, work / fname)
    return work


@pytest.mark.parametrize("name", list(CASES))
def test_golden_case(name, workdir):
    code, report, csv = run_case(CASES[name], workdir)
    expected = DIGESTS[name]
    assert code == expected["exit_code"]
    report_path = GOLDEN / "reports" / f"{name}.json"
    if report_path.exists():
        assert report == report_path.read_text(encoding="utf-8")
    else:
        assert report == ""
    if "csv_sha256" in expected:
        assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == expected["csv_sha256"]


def test_named_cases_regenerate_alone(tmp_path, monkeypatch, capsys):
    import make_golden

    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy, ignore=shutil.ignore_patterns("__pycache__"))
    named, other = "certify-ni-s_over", "certify-ni-osc"
    digests = json.loads((copy / "digests.json").read_text())
    for name in (named, other):
        (copy / "reports" / f"{name}.json").write_text("stale\n")
        digests[name]["exit_code"] = 99
    (copy / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    before = {p.relative_to(copy): p.read_bytes() for p in copy.rglob("*") if p.is_file()}
    monkeypatch.setattr(make_golden, "HERE", copy)
    assert make_golden.main([named]) == 0
    after = {p.relative_to(copy): p.read_bytes() for p in copy.rglob("*") if p.is_file()}
    assert after.keys() == before.keys()
    assert {p for p in after if after[p] != before[p]} == {
        Path("reports") / f"{named}.json", Path("digests.json")}
    assert after[Path("reports") / f"{named}.json"] == (
        GOLDEN / "reports" / f"{named}.json").read_bytes()
    regenerated = json.loads(after[Path("digests.json")])
    assert list(regenerated) == list(CASES)
    assert regenerated[named] == DIGESTS[named]
    assert regenerated[other]["exit_code"] == 99
    assert make_golden.main(["no-such-case"]) == 2
    assert "no-such-case" in capsys.readouterr().err


def test_check_mode_writes_nothing_on_an_unchanged_tree(capsys):
    import make_golden

    before = {p: p.read_bytes() for p in GOLDEN.rglob("*") if p.is_file()
              and "__pycache__" not in p.parts}
    assert make_golden.main(["--check"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{name}: identical" for name in CASES] + [f"0 of {len(CASES)} case(s) differ"]
    assert {p: p.read_bytes() for p in before} == before


def test_check_mode_passes_on_one_blas_thread():
    # the references were recorded at the host's default thread count; a
    # fresh interpreter is the only way to fix OpenBLAS at one thread
    src = str(GOLDEN.parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(GOLDEN / "make_golden.py"), "--check"], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == f"0 of {len(CASES)} case(s) differ"


def test_check_mode_names_the_changed_fields(tmp_path, monkeypatch, capsys):
    import make_golden

    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy, ignore=shutil.ignore_patterns("__pycache__"))
    # neg_rand6 ends at a frequency witness and has no Y; the certified rand6 has one
    name, float_case, csv_case = "certify-ni-neg_rand6", "certify-ni-rand6", "certify-ni-osc"

    def edit(case, change):
        path = copy / "reports" / f"{case}.json"
        report = json.loads(path.read_text())
        change(report["results"]["lmi"])
        path.write_text(json.dumps(report, indent=2) + "\n")

    def bump_y(lmi):
        lmi["Y"][0][0] *= 1 + 1e-9

    def bump_count_and_cut_witness(lmi):
        lmi["iterations"] += 1
        lmi["infeasibility_witness"] = lmi["infeasibility_witness"][:1]

    lmi = json.loads((GOLDEN / "reports" / f"{name}.json").read_text())["results"]["lmi"]
    iterations, witness = lmi["iterations"], lmi["infeasibility_witness"]
    y = json.loads((GOLDEN / "reports" / f"{float_case}.json").read_text())["results"]["lmi"]["Y"]
    edit(name, bump_count_and_cut_witness)
    edit(float_case, bump_y)
    digests = json.loads((copy / "digests.json").read_text())
    digests[name]["exit_code"] = 0
    digests[csv_case]["csv_sha256"] = "0" * 64
    (copy / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    monkeypatch.setattr(make_golden, "HERE", copy)
    assert make_golden.main(["--check", name, float_case, csv_case, "certify-ni-s_over"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == [
        f"{name}: differs",
        "  exit_code: CHANGED 0 -> 1",
        f"  results.lmi.iterations: CHANGED {iterations + 1} -> {iterations}",
        f"  results.lmi.infeasibility_witness: "
        f"CHANGED shape {np.shape(witness[:1])} -> shape {np.shape(witness)}"]
    assert out[4] == f"{float_case}: differs"
    # relative to the largest entry of Y
    head, rel = out[5].rsplit(" ", 1)
    assert head == "  results.lmi.Y: float, max rel diff"
    assert float(rel) == pytest.approx(1e-9 * abs(y[0][0]) / np.abs(y).max(), rel=1e-2)
    assert out[6:] == [f"{csv_case}: differs", "  csv: CHANGED sha256",
                       "certify-ni-s_over: identical", "3 of 4 case(s) differ"]
