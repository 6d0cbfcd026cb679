"""Golden CLI outputs: certify/analyze reports and CSV bytes stay as recorded.

The references in tests/golden/ were written by tests/golden/make_golden.py.
Each case runs in-process from a temporary copy of the golden system files, so
the report's input path and digest match the recording.
Float fields carry 17 significant digits, so the references are tied to the
numpy/LAPACK build they were recorded with.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

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
