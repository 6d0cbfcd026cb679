"""Command-line interface: certify, analyze, simulate, selftest.

System files are JSON with schema_version "1":

    {"schema_version": "1",
     "systems": {"plant": {"A": [[...]], "B": [[...]], "C": [[...]],
                           "D": [[...]], "label": "optional"}}}

Reports are JSON written to stdout (or --out) with fixed field order and
17-significant-digit floats, so identical inputs produce byte-identical
output; NaN/inf are emitted as null.  Exit codes partition outcomes:
0 success, 1 property or hypothesis failure, 2 input parse failure,
3 usage or dimension failure.  Flags are checked before any file is read:
a tolerance, ``--t-final`` or ``--dt`` that is not finite and positive, a
``--t-final`` shorter than ``--dt``, or grid flags that make no grid, exit 3.
"""

from __future__ import annotations

import argparse
import enum
import functools
import hashlib
import json
import re
import sys
import time

import numpy as np

from . import __version__
from .exceptions import DimensionError, FeedthroughError, NIStabError
from .interconnect import Stability, analyze, check_hypotheses
from .linalg import DEFAULT_TOL
from .lyapunov import block_gram, dissipation_integral_check, worst_derivative_residual
from .nicert import (
    FrequencyGrid,
    FrequencyReport,
    NICertificate,
    freq_ni_test,
    freq_sni_test,
    frequency_response,
    lmi_ni_certificate,
    positive_real_check,
    sni_rank_condition,
    w_transfer_zero_check,
)
from .selftest import run_all
from .sim import simulate, trace_to_csv, v_monotone
from .statespace import TOL_AXIS, TOL_POLE, StateSpace

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_PARSE = 2
EXIT_USAGE = 3

NOTATION_WARNINGS = [
    {
        "code": "factor_sign_convention",
        "message": "certificates use A@Y + Y@A.T == -L.T@L (negative-semidefinite "
                   "reading); formulations with the opposite sign for L.T@L are "
                   "normalized to this convention",
    },
    {
        "code": "controller_feedthrough_hypothesis",
        "message": "the feedthrough positivity hypothesis is implemented as "
                   "H(inf) = D2 >= 0; statements written in terms of an "
                   "undefined N(inf) are read the same way",
    },
]


# ---------------------------------------------------------------------------
# deterministic JSON


def _fmt_float(x: float) -> str:
    return f"{x:.17g}" if x - x == 0 else "null"  # x - x is NaN for NaN and +-inf


_str = json.encoder.encode_basestring_ascii  # a str as json.dumps writes it


def dumps_canonical(obj, indent: int = 0) -> str:
    """JSON with insertion-ordered keys and fixed float formatting: two-space indent,
    ``": "`` after each key, NaN and +-inf as null, and an array on one line when every
    item renders in under 24 characters with no newline."""
    return _encode(obj, "  " * indent)


def _encode(obj, pad: str) -> str:
    kind = type(obj)  # the exact types of a report first, then the isinstance order
    if kind is float:
        return _fmt_float(obj)
    if kind is str:
        return _str(obj)
    if kind not in (dict, list, tuple, np.ndarray):
        if obj is None:
            return "null"
        if isinstance(obj, (bool, np.bool_)):
            return "true" if obj else "false"
        if isinstance(obj, enum.Enum):
            return _encode(obj.value, pad)
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            return _fmt_float(float(obj))
        if isinstance(obj, (complex, np.complexfloating)):
            return _encode({"re": float(obj.real), "im": float(obj.imag)}, pad)
        if isinstance(obj, str):
            return _str(obj)
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist(), pad)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join([f"{inner}{_str(str(k))}: {_encode(v, inner)}" for k, v in obj.items()])
        return "{\n" + items + "\n" + pad + "}"
    if not isinstance(obj, (list, tuple)):
        raise TypeError(f"cannot serialize {type(obj)!r}")
    rendered = (list(map(_fmt_float, obj)) if all(type(v) is float for v in obj)  # tolist() rows
                else [_encode(v, inner) for v in obj])
    line = ", ".join(rendered)
    if "\n" not in line and max(map(len, rendered), default=0) < 24:
        return "[" + line + "]"
    return "[\n" + inner + (",\n" + inner).join(rendered) + "\n" + pad + "]"


# ---------------------------------------------------------------------------
# system files


def load_system_file(path: str) -> tuple[dict[str, StateSpace], str]:
    """Parse a schema-version-1 system file; returns systems and the file digest."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    data = json.loads(raw.decode("utf-8"))
    if not isinstance(data, dict) or str(data.get("schema_version")) != "1":
        raise ValueError("unrecognized schema_version (expected \"1\")")
    entries = data.get("systems", {})
    if not isinstance(entries, dict):
        raise ValueError("\"systems\" must be a JSON object")
    systems = {}
    for name, entry in entries.items():
        if not isinstance(entry, dict):
            raise ValueError(f"system {name!r} must be a JSON object")
        try:
            A, B, C, D = (np.array(entry[key], dtype=float) for key in "ABCD")
        except TypeError as exc:
            raise ValueError(f"system {name!r}: {exc}") from exc
        systems[name] = StateSpace(A, B, C, D, label=str(entry.get("label", name)))
    if not systems:
        raise ValueError("system file contains no systems")
    return systems, digest


# ---------------------------------------------------------------------------
# report fragments


def _system_dict(sys: StateSpace) -> dict:
    return {"A": sys.A, "B": sys.B, "C": sys.C, "D": sys.D, "label": sys.label}


def _cert_dict(cert: NICertificate | None) -> dict | None:
    """Every field of ``cert`` but ``polish_steps``, in declaration order; None for None."""
    return None if cert is None else {k: v for k, v in vars(cert).items() if k != "polish_steps"}


def _freq_dict(report: FrequencyReport) -> dict:
    worst = report.worst_point()
    out = {
        "verdict": report.verdict,
        "worst_point": None if worst is None else {"omega": worst.omega,
                                                   "min_eig": worst.min_eig},
        "points_ok": report.counts[0],
        "points_excluded": report.counts[1],
        "points_ill_conditioned": report.counts[2],
        "pole_findings": [{k: v for k, v in vars(f).items() if k != "K0"}
                          for f in report.pole_findings],
        "warnings": list(report.warnings),
    }
    if report.origin_pole is not None:
        out["origin_pole"] = report.origin_pole
    out["rhp_pole"] = report.rhp_pole
    return out


def _freq_csv(report: FrequencyReport) -> str:
    lines = ["omega,min_eig,status"]
    for p in report.per_point:
        val = "" if p.min_eig is None else f"{p.min_eig:.12g}"
        lines.append(f"{p.omega:.12g},{val},{p.status}")
    return "\n".join(lines) + "\n"


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_report(command: str, path: str, digest: str, args) -> dict:
    return {
        "schema": "nistab-report/1",
        "tool": {"name": "nistab", "version": __version__},
        "command": command,
        "input": {"path": path, "sha256": digest},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        if args.timestamps else None,
        "tolerances": {k: getattr(args, k)
                       for k in ("tol", "tol_axis", "tol_pole", "tol_hurwitz", "tol_int")},
        "grid": vars(_grid_from_args(args)),
        "notation_warnings": NOTATION_WARNINGS,
    }


def _grid_from_args(args) -> FrequencyGrid:
    return FrequencyGrid(
        omega_min=args.wmin,
        omega_max=args.wmax,
        points=args.points,
        spacing="linear" if args.linear else "logarithmic",
        exclusion_radius=args.exclusion_radius,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_certify(args) -> int:
    systems, digest = load_system_file(args.file)
    if args.system not in systems:
        print(f"error: system {args.system!r} not found in {args.file}", file=sys.stderr)
        return EXIT_USAGE
    sys_ = systems[args.system]
    grid = _grid_from_args(args)
    tol = args.tol

    resp = frequency_response(sys_, grid, args.tol_axis, args.tol_pole)
    freq = freq_ni_test(resp, tol)
    results = {"frequency_ni": _freq_dict(freq)}
    try:
        results["positive_real"] = _freq_dict(positive_real_check(resp, tol))
    except NIStabError as exc:
        results["positive_real"] = {"verdict": "NotNI", "error": str(exc)}
    # a NotNI sweep hands DR its worst point, where a frequency witness may end the search
    cert = None
    try:
        cert = lmi_ni_certificate(sys_, tol, freq.omega_hint)
        results["lmi"] = _cert_dict(cert)
    except NIStabError as exc:
        results["lmi"] = {"verdict": "Infeasible", "error": str(exc)}
    if args.prop == "sni":
        results["frequency_sni"] = _freq_dict(freq_sni_test(resp, tol))
        if cert is not None and cert.certified:
            sni_rank_condition(sys_, cert, grid, tol, args.tol_axis, args.tol_pole)
            wz = w_transfer_zero_check(resp, cert, tol)
            results["lmi"] = _cert_dict(cert)
            results["w_transfer_zeros"] = {
                "passed": wz.passed,
                "origin_value": wz.origin_value,
                "flagged_omegas": wz.flagged[:20],
            }
    certified = (cert is not None and cert.certified
                 and (args.prop == "ni" or cert.strict))

    report = _base_report("certify", args.file, digest, args)
    report.update({
        "system": args.system,
        "systems": {args.system: _system_dict(sys_)},
        "property": args.prop,
        "certified": certified,
        "results": results,
    })
    _write(dumps_canonical(report) + "\n", args.out)
    if args.freq_csv:
        with open(args.freq_csv, "w", encoding="utf-8") as fh:
            fh.write(_freq_csv(freq))
    return EXIT_OK if certified else EXIT_PROPERTY


def cmd_analyze(args) -> int:
    systems, digest = load_system_file(args.file)
    for name in (args.plant, args.controller):
        if name not in systems:
            print(f"error: system {name!r} not found in {args.file}", file=sys.stderr)
            return EXIT_USAGE
    plant, controller = systems[args.plant], systems[args.controller]
    grid = _grid_from_args(args)
    outcome = analyze(plant, controller, grid=grid, tol=args.tol, tol_axis=args.tol_axis,
                      tol_pole=args.tol_pole, hurwitz_tol=args.tol_hurwitz)

    lyap_entry = None
    pc, cc = outcome.plant_certificate, outcome.controller_certificate
    if pc is not None and cc is not None and pc.certified and cc.certified:
        lyap = block_gram(pc.P, cc.P, plant, controller)
        residual = float("nan")
        if outcome.closed_loop is not None:
            X = np.random.default_rng(args.seed).standard_normal((10, plant.n + controller.n))
            residual = worst_derivative_residual(outcome.closed_loop, (pc, cc), lyap, X,
                                                 max(1.0, float(np.linalg.norm(lyap.Q, 2))))
        lyap_entry = {
            "Q": lyap.Q,
            "min_eig_Q": lyap.min_eig_Q,
            "derivative_identity_residual": residual,
        }

    cl = outcome.closed_loop
    report = _base_report("analyze", args.file, digest, args)
    report.update({
        "plant": args.plant,
        "controller": args.controller,
        "systems": {
            args.plant: _system_dict(plant),
            args.controller: _system_dict(controller),
        },
        "hypotheses": outcome.hypotheses,
        "dc_gain": {"lambda_max": outcome.lambda_max},
        "closed_loop": None if cl is None else {
            "A_cl": cl.A_cl,
            "eigenvalues": list(cl.eigenvalues),
            "max_real_part": float(cl.eigenvalues.real.max()),
            "dd_product_norm": cl.dd_product_norm,
            "well_posed": cl.well_posed,
        },
        "certificates": {
            "plant": _cert_dict(pc),
            "controller": _cert_dict(cc),
        },
        "frequency": {
            "plant_ni": _freq_dict(outcome.plant_freq),
            "controller_sni": _freq_dict(outcome.controller_freq),
        },
        "lyapunov": lyap_entry,
        "verdict": outcome.verdict.verdict,
        "violated_hypotheses": outcome.verdict.violated_hypotheses,
        "margin": outcome.verdict.margin,
        "warnings": outcome.warnings,
    })
    _write(dumps_canonical(report) + "\n", args.out)
    return EXIT_OK if outcome.verdict.verdict is Stability.INTERNALLY_STABLE else EXIT_PROPERTY


def cmd_simulate(args) -> int:
    if args.t_final < args.dt:
        print("error: need t_final >= dt > 0", file=sys.stderr)
        return EXIT_USAGE
    systems, digest = load_system_file(args.file)
    for name in (args.plant, args.controller):
        if name not in systems:
            print(f"error: system {name!r} not found in {args.file}", file=sys.stderr)
            return EXIT_USAGE
    plant, controller = systems[args.plant], systems[args.controller]

    outcome = check_hypotheses(plant, controller, grid=_grid_from_args(args), tol=args.tol,
                               tol_axis=args.tol_axis, tol_pole=args.tol_pole,
                               hurwitz_tol=args.tol_hurwitz)
    for name in outcome.verdict.violated_hypotheses:
        print(f"warning: hypothesis {name} violated: "
              f"{outcome.hypotheses[name]['detail']}", file=sys.stderr)
    if outcome.closed_loop is None:
        print("error: closed-loop matrix not assembled: feedthrough hypothesis fails "
              f"({outcome.hypotheses['feedthrough_product_zero']['detail']}); "
              "cannot simulate", file=sys.stderr)
        return EXIT_PROPERTY

    x0 = args.x0 if args.x0 is not None else np.zeros(outcome.closed_loop.n)
    pc, cc = outcome.plant_certificate, outcome.controller_certificate
    certs = (pc, cc) if (pc is not None and cc is not None
                         and pc.certified and cc.certified) else None
    if certs is None:
        print("warning: no certificates; V and ytilde2 columns will be empty",
              file=sys.stderr)
    trace = simulate(outcome.closed_loop, x0, args.t_final, args.dt,
                     method=args.method, certs=certs)
    _write(trace_to_csv(trace), args.out)
    if certs is not None:
        mono_ok, worst = v_monotone(trace, tol=1e-8)
        diss = dissipation_integral_check(trace, tol_int=args.tol_int)
        print(f"lyapunov monotone: {'pass' if mono_ok else 'FAIL'} "
              f"(max step increase {worst:.3e})", file=sys.stderr)
        print(f"dissipation bound: {'pass' if diss.passed else 'FAIL'} "
              f"(integral {diss.integral:.9g} vs V(0) {diss.v0:.9g})", file=sys.stderr)
    return EXIT_OK


def cmd_selftest(args) -> int:
    if args.cases == 0:
        print("warning: --cases 0 runs nothing; vacuous pass", file=sys.stderr)
        return EXIT_OK
    if args.cases < 0:
        print("error: --cases must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    results = run_all(args.seed, args.cases)
    all_ok = True
    for res in results:
        print(f"{res.name}: passed {res.passed} failed {res.failed} "
              f"inconclusive {res.inconclusive}")
        for failure in res.failures:
            print(f"  FAIL {failure}")
        all_ok = all_ok and res.ok
    return EXIT_OK if all_ok else EXIT_PROPERTY


# ---------------------------------------------------------------------------
# argument parsing


def _finite_positive(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _state_vector(text: str) -> np.ndarray:
    try:
        x0 = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers, got {text!r}") from None
    if not np.all(np.isfinite(x0)):
        raise argparse.ArgumentTypeError(f"entries must be finite, got {text!r}")
    return x0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write the report/CSV here instead of stdout")
    parser.add_argument("--timestamps", action="store_true",
                        help="include a timestamp in the report (breaks determinism)")
    grid = parser.add_argument_group("frequency grid")
    grid.add_argument("--wmin", type=float, default=1e-3, help="lowest frequency, rad/s")
    grid.add_argument("--wmax", type=float, default=1e3, help="highest frequency, rad/s")
    grid.add_argument("--points", type=int, default=400, help="number of grid points")
    grid.add_argument("--linear", action="store_true",
                      help="linear spacing instead of logarithmic")
    grid.add_argument("--exclusion-radius", type=float, default=1e-2,
                      help="relative radius skipped around imaginary-axis poles")
    tols = parser.add_argument_group("tolerances")
    tols.add_argument("--tol", type=_finite_positive, default=DEFAULT_TOL,
                      help="general numerical tolerance (default 1e-8)")
    tols.add_argument("--tol-axis", type=_finite_positive, default=TOL_AXIS,
                      help="imaginary-axis pole band (default 1e-7)")
    tols.add_argument("--tol-pole", type=_finite_positive, default=TOL_POLE,
                      help="resolvent evaluation guard (default 1e-12)")
    tols.add_argument("--tol-hurwitz", type=_finite_positive, default=1e-8,
                      help="closed-loop stability band (default 1e-8)")
    tols.add_argument("--tol-int", type=_finite_positive, default=1e-6,
                      help="dissipation integral slack (default 1e-6)")


@functools.cache  # parse_args leaves the parser as it is; cmd_* look up their helpers per call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nistab",
        description="Certify negative-imaginary LTI systems and prove "
                    "positive-feedback interconnection stability.",
    )
    parser.add_argument("--version", action="version", version=f"nistab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="certify one system as NI or SNI")
    cert.add_argument("file", help="system file (JSON, schema_version 1)")
    cert.add_argument("system", help="name of the system to certify")
    cert.add_argument("--property", dest="prop", choices=("ni", "sni"), default="ni")
    cert.add_argument("--freq-csv", help="write the sweep curve as CSV here")
    _add_common(cert)
    cert.set_defaults(func=cmd_certify)

    ana = sub.add_parser("analyze", help="analyze a plant/controller feedback loop")
    ana.add_argument("file")
    ana.add_argument("plant")
    ana.add_argument("controller")
    ana.add_argument("--seed", type=int, default=0,
                     help="seed for the derivative-identity probe states")
    _add_common(ana)
    ana.set_defaults(func=cmd_analyze)

    simp = sub.add_parser("simulate", help="simulate the autonomous closed loop")
    simp.add_argument("file")
    simp.add_argument("plant")
    simp.add_argument("controller")
    simp.add_argument("--x0", type=_state_vector,
                      help="comma-separated initial state (default zeros)")
    simp.add_argument("--t-final", type=_finite_positive, default=50.0)
    simp.add_argument("--dt", type=_finite_positive, default=1e-2)
    simp.add_argument("--method", choices=("expm_exact", "rk4"), default="expm_exact")
    _add_common(simp)
    simp.set_defaults(func=cmd_simulate)

    selft = sub.add_parser("selftest", help="run the seeded property suites")
    selft.add_argument("--seed", type=int, default=1)
    selft.add_argument("--cases", type=int, default=50)
    selft.set_defaults(func=cmd_selftest)
    return parser


def _attach_x0(argv: list[str]) -> list[str]:
    """Join ``--x0 -0.5,1`` into ``--x0=-0.5,1``; argparse reads "-0.5,1" as an option."""
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--x0" and re.match(r"-\.?\d", argv[i]):
            argv[i - 1:i + 1] = [f"--x0={argv[i]}"]
    return argv


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_x0(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the usage code unless --version/-h
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if args.command != "selftest":
        try:
            _grid_from_args(args)
        except ValueError as exc:
            print(f"error: invalid frequency grid: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at byte offset {exc.pos}: {exc.msg}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, KeyError) as exc:
        print(f"error: invalid system file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DimensionError, FeedthroughError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NIStabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    raise SystemExit(main())
