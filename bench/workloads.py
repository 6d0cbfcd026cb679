"""The three workloads: seeded inputs, CLI commands and the check of each op.

A workload is built once per run from its seed into a fixed list of ops,
one round; the runner repeats whole rounds.  Building writes the system
files, so it is part of set-up.  Each op is one or two `nistab` commands;
its check reads what they wrote and returns two lists: problems, and sweep
verdicts that a dense evaluation contradicts (the grid-miss fault).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import oracles

T_FINAL = 50.0
DT = 1e-2

# loop sizes (plant n, controller n, m); each is drawn once with
# lambda_max(G(0) H(0)) below 1 and once above
LOOP_SIZES = [(2, 2, 1), (3, 2, 1), (4, 3, 2), (5, 3, 2), (6, 4, 2), (8, 4, 3)]

Check = Callable[[list[int], list[str]], tuple[list[str], list[str]]]


@dataclass
class Op:
    label: str
    commands: list[list[str]]
    check: Check
    outputs: list[Path]  # removed after each check, so no check reads a stale file
    known_fault: bool = False  # a grid miss here is the kept notch fault
    cache: dict = field(default_factory=dict)


def _report(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# certify-sni


def _check_sni(system: dict, out: Path, codes, errs):
    report = _report(out)
    res, tol, grid = report["results"], report["tolerances"]["tol"], report["grid"]
    problems = []
    if codes != [0] or report["certified"] is not True:
        problems.append(f"exit code {codes}, certified {report['certified']}")
    for key, expected in (("frequency_ni", "NI"), ("positive_real", "NI"),
                          ("frequency_sni", "SNI")):
        if res[key]["verdict"] != expected:
            problems.append(f"{key}: verdict {res[key]['verdict']}, expected {expected}")
    problems += oracles.certificate_problems(system, res["lmi"], tol, strict=True)
    for key, route in (("frequency_ni", "ni"), ("frequency_sni", "ni"), ("positive_real", "pr")):
        problems += oracles.worst_point_problems(system, res[key], grid, route, key)
    if res.get("w_transfer_zeros", {}).get("passed") is not True:
        problems.append("w_transfer_zeros: check did not pass")
    return problems, []


def certify_sni(seed: int, work: Path) -> list[Op]:
    """By-construction SNI systems, n 2-12, m 1-3, half with PSD feedthrough."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for n, m in gen.SNI_SIZES:
        for feedthrough in (False, True):
            k = len(ops)
            system = gen.ni_draw(rng, n, m, strict=True, psd_feedthrough=feedthrough)
            path, out = work / f"sni-{k}.json", work / f"sni-{k}.report.json"
            gen.write_system_file(path, {"g": system})
            argv = ["certify", str(path), "g", "--property", "sni", "--out", str(out)]
            ops.append(Op(f"sni-{k} n={n} m={m} D={'psd' if feedthrough else '0'}", [argv],
                          lambda codes, errs, s=system, o=out: _check_sni(s, o, codes, errs),
                          [out]))
    return ops


# ---------------------------------------------------------------------------
# certify-reject


def _check_reject(op: Op, system: dict, out: Path, codes, errs):
    report = _report(out)
    res, grid = report["results"], report["grid"]
    if "witness" not in op.cache:
        op.cache["witness"] = oracles.dense_witness(system)
    omega, value = op.cache["witness"]
    problems, misses = [], []
    if value >= -1e-6:
        problems.append(f"input: no negative witness (dense minimum {value:.3e})")
    if codes != [1] or report["certified"] is not False:
        problems.append(f"exit code {codes}, certified {report['certified']}")
    if res["lmi"].get("verdict") == "Certified":
        problems.append("lmi: certified a system with a negative frequency witness")
    routes = {"frequency_ni": "ni", "positive_real": "pr", "frequency_sni": "ni"}
    for key in [k for k in routes if k in res]:
        verdict = res[key]["verdict"]
        if verdict != "NotNI":
            misses.append(f"{key}: verdict {verdict} on the grid, but min eig j(G - G*) = "
                          f"{value:.4g} at w = {omega:.9g}")
        elif res[key].get("worst_point") is not None:
            problems += oracles.worst_point_problems(system, res[key], grid, routes[key], key)
    return problems, misses


def certify_reject(seed: int, work: Path) -> list[Op]:
    """Negated NI draws, then the fixed notch systems whose dip the grid misses."""
    rng = np.random.default_rng([seed, 2])
    entries = []
    for n, m in gen.SNI_SIZES:
        for feedthrough in (False, True):
            system = gen.negated(gen.ni_draw(rng, n, m, strict=False,
                                             psd_feedthrough=feedthrough))
            entries.append((f"n={n} m={m} D={'nsd' if feedthrough else '0'}", system, "ni", False))
    for omega in gen.NOTCH_OMEGAS:
        entries.append((f"notch w0={omega}", gen.notch_system(omega), "sni", True))
    ops = []
    for k, (label, system, prop, notch) in enumerate(entries):
        path, out = work / f"reject-{k}.json", work / f"reject-{k}.report.json"
        gen.write_system_file(path, {"g": system})
        argv = ["certify", str(path), "g", "--property", prop, "--out", str(out)]
        op = Op(f"reject-{k} {label}", [argv], None, [out], known_fault=notch)
        op.check = lambda codes, errs, op=op, s=system, o=out: _check_reject(op, s, o, codes, errs)
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# loop


def _check_loop(plant, controller, x0, report_path: Path, csv_path: Path, codes, errs):
    report = _report(report_path)
    problems = oracles.analyze_problems(plant, controller, report, codes[0],
                                        report["tolerances"]["tol"])
    if codes[1] != 0:
        problems.append(f"simulate exit code {codes[1]}")
    certs = report["certificates"]
    stable = oracles.dc_product_lambda_max(plant, controller) < 1
    problems += oracles.trace_problems(plant, controller, str(csv_path), x0, T_FINAL, DT,
                                       (certs["plant"], certs["controller"]), stable)
    if stable and not ("lyapunov monotone: pass" in errs[1]
                       and "dissipation bound: pass" in errs[1]):
        problems.append(f"simulate: stable loop, but stderr says {errs[1]!r}")
    return problems, []


def loop(seed: int, work: Path) -> list[Op]:
    """NI plant / SNI controller pairs scaled to put lambda_max(G(0)H(0)) on either side of 1."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    for n1, n2, m in LOOP_SIZES:
        for target in (rng.uniform(0.3, 0.8), rng.uniform(1.2, 2.0)):
            k = len(ops)
            plant = gen.ni_draw(rng, n1, m, strict=False, psd_feedthrough=False)
            controller = gen.ni_draw(rng, n2, m, strict=True, psd_feedthrough=k % 4 < 2)
            lam = np.linalg.eigvals(gen.dc_gain(plant) @ gen.dc_gain(controller)).real.max()
            controller = gen.scaled(controller, target / lam)
            x0 = rng.standard_normal(n1 + n2)
            path = work / f"loop-{k}.json"
            report, csv = work / f"loop-{k}.report.json", work / f"loop-{k}.csv"
            gen.write_system_file(path, {"g": plant, "h": controller})
            x0_arg = "--x0=" + ",".join(repr(float(v)) for v in x0)
            commands = [["analyze", str(path), "g", "h", "--out", str(report)],
                        ["simulate", str(path), "g", "h", x0_arg, "--t-final", str(T_FINAL),
                         "--dt", str(DT), "--out", str(csv)]]
            ops.append(Op(f"loop-{k} n1={n1} n2={n2} m={m} lambda={target:.3f}", commands,
                          lambda codes, errs, p=plant, c=controller, x=x0, r=report, v=csv:
                          _check_loop(p, c, x, r, v, codes, errs),
                          [report, csv]))
    return ops


WORKLOADS = {"certify-sni": certify_sni, "certify-reject": certify_reject, "loop": loop}
