"""Command-line entry point.

Exit codes follow one contract across subcommands: 0 for an affirmative
result (test passed, solution found, check succeeded), 1 for a negative
result (test failed, no settings, excluded parameter), 2 for usage, parse,
or dimension errors.  All randomness is seeded; NONLOC_SEED provides the
seed when --seed is absent.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

import numpy as np

from . import __version__, fileio
from .errors import (DegenerateX, DimensionMismatch, NonlocError, NotEntangled,
                     SignalingDistribution, SingularDenominator)
from .hardy import hardy_conditions, inequality1, inequality2
from .measure import JointDistribution, born_distribution
from .polytope import bilocal_ns_vertices, classify, deterministic_local_vertices
from .qstate import SymmetricState
from .search import SearchConfig, random_experiment
from .symmetric import phase_pick, solve_auto, solve_settings, sweep_settings


def _complex_flag(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        value = complex(float(re_part), float(im_part))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a complex number as re,im — got {text!r}")
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected finite parts — got {text!r}")
    return value


def _tolerance_flag(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"expected a finite nonnegative tolerance — got {text!r}")
    return value


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("NONLOC_SEED", "0"))


def _emit(payload: dict, out: str | None, manifest: dict | None = None) -> None:
    if out is None:
        print(fileio.dump_json(payload, manifest), end="")
    else:
        fileio.write_json(out, payload, manifest)


def cmd_distribution(args) -> int:
    psi = fileio.load_state(args.state)
    settings = fileio.load_settings(args.settings)
    d = born_distribution(psi, settings)
    manifest = fileio.make_manifest(
        "distribution", {"state": args.state, "settings": args.settings},
        None, {"state": args.state, "settings": args.settings})
    fileio.write_json(args.out, fileio.distribution_payload(d), manifest)
    return 0


def cmd_hardy(args) -> int:
    if args.distribution is not None:
        d = fileio.load_distribution(args.distribution)
        inputs = {"distribution": args.distribution}
    else:
        if args.state is None or args.settings is None:
            raise ValueError("provide --distribution, or both --state and --settings")
        psi = fileio.load_state(args.state)
        settings = fileio.load_settings(args.settings)
        d = born_distribution(psi, settings)
        inputs = {"state": args.state, "settings": args.settings}
    report = hardy_conditions(d, pivot=args.pivot, eps_zero=args.eps_zero,
                              delta_pos=args.delta_pos, standard=args.standard)
    payload = fileio.report_payload(report, inequality1(d, args.pivot),
                                    inequality2(d))
    manifest = fileio.make_manifest(
        "hardy", {"pivot": args.pivot, "eps_zero": args.eps_zero,
                  "delta_pos": args.delta_pos, "standard": args.standard},
        None, inputs)
    _emit(payload, args.out, manifest)
    return 0 if report.passed else 1


def _symmetric_input(args) -> SymmetricState:
    given = [args.state is not None, args.ghz is not None, args.w is not None]
    if sum(given) != 1:
        raise ValueError("provide exactly one of a state file, --ghz, or --w")
    if args.ghz is not None:
        n, theta = args.ghz
        if not n.is_integer():
            raise ValueError(f"--ghz needs a whole number of parties, got {n}")
        return SymmetricState.ghz(int(n), theta)
    if args.w is not None:
        return SymmetricState.w(args.w)
    return fileio.load_symmetric(args.state)


def cmd_symmetric(args) -> int:
    s = _symmetric_input(args)
    params = {"state": args.state, "ghz": args.ghz, "w": args.w,
              "x": None if args.x is None else [args.x.real, args.x.imag]}
    inputs = {"state": args.state} if args.state is not None else None
    try:
        if args.x is not None:
            sol = solve_settings(s, args.x)
        else:
            sol = solve_auto(s)
    except DegenerateX as exc:
        print(f"excluded x: {exc}", file=sys.stderr)
        return 1
    except (NotEntangled, SingularDenominator) as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 1
    manifest = fileio.make_manifest("symmetric", params, None, inputs)
    _emit(fileio.solution_payload(sol), args.out, manifest)
    if args.sweep is not None:
        w = cmath.phase(args.x) if args.x is not None else phase_pick(s)
        rows = [{"abs_x": f"{t:.17g}", "p_success": f"{sol.p_success:.17g}"}
                for t, sol in sweep_settings(s, w, np.arange(0.05, 3.0, 0.025))]
        fileio.write_csv(args.sweep, ("abs_x", "p_success"), rows,
                         fileio.make_manifest("symmetric-sweep",
                                              {**params, "phase": w}, None, inputs))
    return 0


def cmd_classify(args) -> int:
    d = fileio.load_distribution(args.distribution)
    label, outcome = classify(d)
    payload = {"label": label, "outcome": fileio.lp_outcome_payload(outcome)}
    manifest = fileio.make_manifest("classify", {"distribution": args.distribution},
                                    None, {"distribution": args.distribution})
    _emit(payload, args.out, manifest)
    return 0


def cmd_experiment(args) -> int:
    seed = _seed(args)
    cfg = SearchConfig(multistarts=args.multistarts, max_iters=args.max_iters,
                       seed=seed)
    summary = random_experiment(args.n, args.count, seed, cfg,
                                lp_subsample=args.lp_subsample, jobs=args.jobs)
    params = {"n": args.n, "count": args.count, "lp_subsample": args.lp_subsample,
              "multistarts": args.multistarts, "max_iters": args.max_iters}
    if args.out is not None:
        manifest = fileio.make_manifest("experiment", params, seed)
        fileio.write_json(args.out + ".json", fileio.summary_payload(summary),
                          manifest)
        fileio.write_csv(args.out + ".csv", fileio.EXPERIMENT_CSV_FIELDS,
                         fileio.experiment_rows(summary), manifest)
    failures = [r for r in summary.records if not r.passed]
    print(f"passed {summary.passed}/{summary.count}")
    for r in failures:
        print(f"failed: index {r.index} sub_seed {r.sub_seed} "
              f"residual {r.max_residual:.3e}", file=sys.stderr)
    return 0 if not failures else 1


def cmd_vertices(args) -> int:
    if args.model == "local":
        vs = deterministic_local_vertices(args.n)
    else:
        if args.n != 3:
            raise ValueError("bilocal-ns vertices are enumerated for n = 3 only")
        vs = bilocal_ns_vertices()
    manifest = fileio.make_manifest("vertices", {"model": args.model, "n": args.n},
                                    None)
    fileio.write_json(args.out, fileio.vertex_set_payload(vs), manifest)
    return 0


def cmd_verify_appendix(args) -> int:
    vs = bilocal_ns_vertices()
    max1 = -np.inf
    max2 = -np.inf
    for col in vs.columns:
        d = JointDistribution(vs.n, col)
        max1 = max(max1, *(inequality1(d, pivot) for pivot in (1, 2, 3)))
        max2 = max(max2, inequality2(d))
    passed = max1 <= args.tol and max2 <= args.tol
    print(json.dumps({"vertices": len(vs.columns), "max_inequality1": max1,
                      "max_inequality2": max2, "tol": args.tol,
                      "passed": passed}, indent=2))
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonloc",
        description="Inequality-free tests of genuine multipartite nonlocality.")
    parser.add_argument("--version", action="version",
                        version=f"nonloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distribution",
                       help="compute a Born-rule joint distribution table")
    p.add_argument("state", help="state JSON file")
    p.add_argument("settings", help="settings JSON file")
    p.add_argument("out", help="output distribution JSON file")
    p.set_defaults(func=cmd_distribution)

    p = sub.add_parser("hardy", help="evaluate the test conditions on a table")
    p.add_argument("--distribution", help="distribution JSON file")
    p.add_argument("--state", help="state JSON file (with --settings)")
    p.add_argument("--settings", help="settings JSON file (with --state)")
    p.add_argument("--pivot", type=int, default=1)
    p.add_argument("--eps-zero", type=float, default=1e-9)
    p.add_argument("--delta-pos", type=float, default=1e-6)
    p.add_argument("--standard", action="store_true",
                   help="replace the pairwise conditions with the single "
                        "all-b zero condition")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_hardy)

    p = sub.add_parser("symmetric",
                       help="solve for settings on a symmetric state")
    p.add_argument("state", nargs="?", help="symmetric state JSON file")
    p.add_argument("--ghz", nargs=2, type=float, metavar=("N", "THETA"),
                   help="generalized GHZ state with the given angle")
    p.add_argument("--w", type=int, metavar="N", help="W state on N parties")
    p.add_argument("--x", type=_complex_flag, metavar="RE,IM",
                   help="fix the shared setting parameter instead of choosing "
                        "one automatically")
    p.add_argument("--out", help="write the solution here instead of stdout")
    p.add_argument("--sweep", metavar="CSV",
                   help="also write success probability over a modulus grid along "
                        "--x's phase, else phase_pick's in the state's own frame")
    p.set_defaults(func=cmd_symmetric)

    p = sub.add_parser("classify",
                       help="place a 3-party table in the local / bilocal / "
                            "genuinely-nonlocal hierarchy")
    p.add_argument("distribution", help="distribution JSON file")
    p.add_argument("--out", help="write the result here instead of stdout")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("experiment",
                       help="run the search on random entangled states")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: NONLOC_SEED or 0)")
    p.add_argument("--lp-subsample", type=int, default=0,
                   help="cross-check this many n=3 passes against the LP")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--multistarts", type=int, default=32)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--out", metavar="PREFIX",
                   help="write PREFIX.json and PREFIX.csv")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("vertices", help="dump a model's vertex set")
    p.add_argument("--model", choices=("local", "bilocal-ns"), required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("out", help="output JSON file")
    p.set_defaults(func=cmd_vertices)

    p = sub.add_parser("verify-appendix",
                       help="check both inequalities on every bilocal-NS vertex")
    p.add_argument("--tol", type=_tolerance_flag, default=1e-12)
    p.set_defaults(func=cmd_verify_appendix)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DimensionMismatch as exc:
        print(f"error: dimension mismatch: {exc}", file=sys.stderr)
        return 2
    except SignalingDistribution as exc:
        print(f"error: signaling distribution: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonlocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
