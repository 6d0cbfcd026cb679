"""Each oracle passes nistab's real output and rejects a corrupted copy of it.

Run from the root of a checkout:  python3 -m pytest bench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from nistab import cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_op(op):
    _, codes, errs = run.execute(cli, op)
    return codes, errs


def rewrite(path: Path, edit) -> None:
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


@pytest.fixture(scope="module")
def sni_case(tmp_path_factory):
    work = tmp_path_factory.mktemp("sni")
    op = workloads.certify_sni(7, work)[5]
    codes, errs = run_op(op)
    out = op.outputs[0]
    system = json.loads(Path(op.commands[0][1]).read_text())["systems"]["g"]
    return op, codes, errs, out, system


@pytest.fixture(scope="module")
def loop_cases(tmp_path_factory):
    work = tmp_path_factory.mktemp("loop")
    ops = workloads.loop(7, work)[:2]  # lambda_max below 1, then above
    return [(op, *run_op(op)) for op in ops]


def test_sni_op_passes_unchanged(sni_case):
    op, codes, errs, _, _ = sni_case
    assert op.check(codes, errs) == ([], [])


@pytest.mark.parametrize("corrupt", [
    lambda c: c.__setitem__("Y", (-np.array(c["Y"])).tolist()),
    lambda c: c.__setitem__("Y", (1.001 * np.array(c["Y"])).tolist()),
    lambda c: c.__setitem__("L", (1.01 * np.array(c["L"])).tolist()),
    lambda c: c.__setitem__("P", (1.01 * np.array(c["P"])).tolist()),
    lambda c: c.__setitem__("strict", False),
    lambda c: c.__setitem__("verdict", "Infeasible"),
])
def test_certificate_oracle_rejects(sni_case, corrupt):
    _, _, _, out, system = sni_case
    cert = copy.deepcopy(json.loads(out.read_text())["results"]["lmi"])
    tol = 1e-8
    assert oracles.certificate_problems(system, cert, tol, strict=True) == []
    corrupt(cert)
    assert oracles.certificate_problems(system, cert, tol, strict=True)


@pytest.mark.parametrize("corrupt", [
    lambda w, grid: w.__setitem__("min_eig", w["min_eig"] * (1 + 1e-6) + 1e-6),
    lambda w, grid: w.__setitem__("omega", float(grid[-1])),
])
def test_worst_point_oracle_rejects(sni_case, corrupt):
    _, _, _, out, system = sni_case
    report = json.loads(out.read_text())
    section = report["results"]["frequency_ni"]
    assert oracles.worst_point_problems(system, section, report["grid"], "ni", "f") == []
    worst = section["worst_point"]
    corrupt(worst, oracles.grid_omegas(report["grid"]))
    assert oracles.worst_point_problems(system, section, report["grid"], "ni", "f")


def test_witness_oracle_finds_the_notch_dip_and_flags_a_flipped_verdict(tmp_path):
    omega, value = oracles.dense_witness(gen.notch_system(3.3))
    assert value < -0.9 and abs(omega - 3.3) < 1e-2
    _, positive = oracles.dense_witness(gen.ni_draw(np.random.default_rng(0), 4, 2, True, False))
    assert positive > 0

    op = workloads.certify_reject(7, tmp_path)[0]
    codes, errs = run_op(op)
    assert op.check(codes, errs) == ([], [])
    out = op.outputs[0]
    rewrite(out, lambda r: r["results"]["frequency_ni"].__setitem__("verdict", "NI"))
    problems, misses = op.check(codes, errs)
    assert problems == [] and misses and misses[0].startswith("frequency_ni")


def test_notch_op_is_the_kept_grid_miss(tmp_path):
    op = workloads.certify_reject(7, tmp_path)[-1]
    assert op.known_fault
    problems, misses = op.check(*run_op(op))
    assert problems == []
    assert [m.split(":")[0] for m in misses] == ["frequency_ni", "positive_real", "frequency_sni"]


def test_loop_ops_pass_unchanged(loop_cases):
    for op, codes, errs in loop_cases:
        assert op.check(codes, errs) == ([], []), op.label


def _shift_first_eigenvalue(eigs):
    if isinstance(eigs[0], dict):
        eigs[0]["re"] += 1e-3
    else:
        eigs[0] += 1e-3


@pytest.mark.parametrize("corrupt", [
    lambda r: r.__setitem__("verdict", "Unstable"),
    lambda r: _shift_first_eigenvalue(r["closed_loop"]["eigenvalues"]),
    lambda r: r["dc_gain"].__setitem__("lambda_max", r["dc_gain"]["lambda_max"] * 1.001),
    lambda r: r["certificates"]["plant"].__setitem__("L", []),
])
def test_stability_oracle_rejects(loop_cases, corrupt):
    for op, codes, errs in loop_cases:
        path = op.outputs[0]
        original = path.read_text()
        try:
            rewrite(path, corrupt)
            assert op.check(codes, errs)[0], op.label
        finally:
            path.write_text(original)


def _edit_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    header, rows = lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]
    edit(header.split(","), rows)
    path.write_text("\n".join([header] + [",".join(f"{v:.12g}" for v in row)
                                          for row in rows]) + "\n")


def _bump_final_state(cols, rows):
    rows[-1][1] += 1e-3 * max(1.0, abs(rows[-1][1]))


def _raise_v(cols, rows):
    k = cols.index("V")
    rows[len(rows) // 2][k] += 1e-3 * max(1.0, abs(rows[0][k]))


def _inflate_dissipation(cols, rows):
    k = cols.index("ytilde2sq")
    for row in rows[1:-1]:
        row[k] *= 1e3


@pytest.mark.parametrize("edit,stable_only", [
    (_bump_final_state, False),
    (_raise_v, True),
    (_inflate_dissipation, True),
])
def test_trace_oracle_rejects(loop_cases, edit, stable_only):
    for op, codes, errs in loop_cases[:1] if stable_only else loop_cases:
        path = op.outputs[1]
        original = path.read_text()
        try:
            _edit_csv(path, edit)
            assert op.check(codes, errs)[0], op.label
        finally:
            path.write_text(original)


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    reported = Tracer().layer_metrics(1, 1.0)
    assert listed == [(name, unit) for name, (_, unit) in reported.items()] + [
        ("trace.overhead_ref", "ref")]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "loop", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
