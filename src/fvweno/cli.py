"""Benchmark command line: run / converge / dissect / golden.

Exit codes: 0 success, 1 solver divergence, 2 configuration error,
3 golden-table mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dissect import (
    JS_DISSECT_EPS,
    RiemannSetup,
    analyze_step,
    final_time_comparison,
    render_table,
)
from .errors import ConfigurationError, DivergenceError, FvwenoError, GoldenMismatchError
from .harness.golden import available_tables, golden_check
from .harness.problems import REGISTRY
from .harness.runs import RunConfig, convergence_study, run_problem
from .weno import FAMILIES, WeightScheme


def build_scheme(family, p=None, q=None, eps=None):
    """A scheme of ``family``; a parameter not given takes the family's
    default from :class:`WeightScheme`, and ``p``/``q`` are dropped for a
    family that does not read them (only zr reads ``p``, only zl ``q``)."""
    family = family.lower()
    reads = FAMILIES[family][1] if family in FAMILIES else {}
    return WeightScheme(family, eps=eps,
                        **{k: v for k, v in (("p", p), ("q", q)) if k in reads})


def parse_scheme_list(text):
    """Parse 'js,m,z,zr:3,zl:2:1' into WeightScheme tuples: zr reads p, zl p
    and q, and a field more, or one not a number, is a configuration error.

    Inside the dissection the js denominator guard defaults to 1e-12.
    """
    out = []
    for token in text.split(","):
        family, *fields = token.strip().split(":")
        family = family.lower()
        names = [k for k in ("p", "q") if k in FAMILIES.get(family, ("", {}))[1]]
        if family in FAMILIES and len(fields) > len(names):
            raise ConfigurationError(f"{token.strip()!r}: {family} takes {len(names)} parameters")
        try:
            values = {k: float(v) for k, v in zip(names, fields)}
        except ValueError:
            raise ConfigurationError(f"{token.strip()!r}: parameters must be numbers") from None
        eps = JS_DISSECT_EPS if family == "js" else None
        out.append(WeightScheme(family, eps=eps, **values))
    return tuple(out)


def _parse_n(text):
    if text is None:
        return None
    try:
        parts = [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigurationError(f"cell counts must be integers, got {text!r}") from None
    return parts[0] if len(parts) == 1 else tuple(parts)


def _add_scheme_args(sub):
    sub.add_argument("--scheme", required=True, choices=list(FAMILIES))
    sub.add_argument("--p", type=float, default=None,
                     help="zr root exponent / zl logarithm tuner")
    sub.add_argument("--q", type=float, default=None, help="zl power (>= 1)")
    sub.add_argument("--eps", type=float, default=None,
                     help="denominator guard (default 1e-6 js, 1e-40 others)")


def make_parser():
    ap = argparse.ArgumentParser(
        prog="weno",
        description="Finite-volume WENO benchmark driver (schemes: js, m, z, zr, zl)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one registry problem")
    runp.add_argument("problem", choices=sorted(REGISTRY))
    _add_scheme_args(runp)
    runp.add_argument("--n", type=str, default=None, help="cells, N or NX,NY")
    group = runp.add_mutually_exclusive_group()
    group.add_argument("--cfl", type=float, default=None)
    group.add_argument("--dt-scale", type=float, default=None,
                       help="fixed dt = value * dx")
    runp.add_argument("--tfinal", type=float, default=None)
    runp.add_argument("--out", type=str, default=None, help="output directory")
    runp.add_argument("--no-reference", action="store_true",
                      help="skip the fine-grid reference computation")

    conv = sub.add_parser("converge", help="grid-refinement study")
    conv.add_argument("problem", choices=sorted(REGISTRY))
    _add_scheme_args(conv)
    conv.add_argument("--n-list", type=str, default="10,20,40,80,160")
    group = conv.add_mutually_exclusive_group()
    group.add_argument("--cfl", type=float, default=None)
    group.add_argument("--dt-scale", type=float, default=None)
    conv.add_argument("--tfinal", type=float, default=None)
    conv.add_argument("--out", type=str, default=None)

    dis = sub.add_parser("dissect", help="single-step Riemann stage analysis")
    dis.add_argument("--nu", type=float, default=0.5, help="Courant number [1e-307, 0.5]")
    dis.add_argument("--delta", type=float, default=1.0,
                     help="jump size (right state 0), at most 1e76")
    dis.add_argument("--schemes", type=str, default="js,m,z,zr:3",
                     help="comma list: family[:p[:q]], e.g. js,m,z,zr:3,zl:2:1")
    dis.add_argument("--stage", type=str, default="all", choices=["1", "2", "3", "all"])
    dis.add_argument("--table", type=str, default="all",
                     choices=["weights", "fluxes", "solutions", "all"])
    dis.add_argument("--final-time", type=float, default=None,
                     help="also advect to this time and tabulate the jump cells")
    dis.add_argument("--out", type=str, default=None, help="write CSV here instead of text")

    gold = sub.add_parser("golden", help="recompute stored tables and diff")
    gold.add_argument("tables", nargs="*", default=[],
                      help="table ids (default: all)")
    gold.add_argument("--list", action="store_true", help="list known table ids")
    return ap


def cmd_run(args):
    scheme = build_scheme(args.scheme, args.p, args.q, args.eps)
    cfg = RunConfig(
        problem=args.problem,
        scheme=scheme,
        n=_parse_n(args.n),
        cfl=args.cfl,
        dt_scale=args.dt_scale,
        tfinal=args.tfinal,
        out_dir=args.out,
        with_reference=not args.no_reference,
    )
    result = run_problem(cfg)
    print(f"{args.problem}: {result.steps} steps, wall {result.wall_time:.2f}s")
    if result.report is not None:
        n, l1, _, l2, _, linf, _ = result.report.rows[-1]
        print(f"errors vs {'exact' if result.exact is not None else 'reference'}: "
              f"L1={l1:.4e} L2={l2:.4e} Linf={linf:.4e}")
    for kind, path in result.paths.items():
        print(f"wrote {kind}: {path}")
    return 0


def cmd_converge(args):
    scheme = build_scheme(args.scheme, args.p, args.q, args.eps)
    n_list = [_parse_n(tok) for tok in args.n_list.split(",")]
    _, _, time, tfinal = RunConfig(args.problem, scheme, cfl=args.cfl,
                                   dt_scale=args.dt_scale, tfinal=args.tfinal).resolve()
    report = convergence_study(args.problem, scheme, n_list, time=time,
                               tfinal=tfinal)
    print(f"{args.problem} / {scheme.label}")
    print(report.to_csv(), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{args.problem}-{scheme.label}.csv"
        path.write_text(report.to_csv())
        print(f"wrote {path}")
    return 0


def cmd_dissect(args):
    schemes = parse_scheme_list(args.schemes)
    setup = RiemannSetup(delta=args.delta, nu=args.nu, schemes=schemes)
    reports = analyze_step(setup)
    stages = [1, 2, 3] if args.stage == "all" else [int(args.stage)]
    kinds = ["weights", "fluxes", "solutions"] if args.table == "all" else [args.table]
    tables = [render_table(reports[s - 1], kind) for s in stages for kind in kinds]
    if args.final_time is not None:
        tables.append(final_time_comparison(setup, args.final_time))
    mismatch_notes = []
    for s in stages:
        for label, flags in reports[s - 1].mismatches.items():
            for j, measured, formula in flags:
                mismatch_notes.append(
                    f"stage {s} {label} cell {j}: measured {measured:.6e} "
                    f"vs formula {formula:.6e}"
                )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for t in tables:
            name = t.title.replace(" ", "-").replace("=", "") + ".csv"
            (out / name).write_text(t.to_csv())
            print(f"wrote {out / name}")
    else:
        for t in tables:
            print(t.to_text())
            print()
    if mismatch_notes:
        print("formula/solver disagreements:")
        for note in mismatch_notes:
            print(" ", note)
    return 0


def cmd_golden(args):
    if args.list:
        for tid in available_tables():
            print(tid)
        return 0
    tables = args.tables
    if not tables or tables == ["all"]:
        tables = available_tables()
    any_fail = False
    for tid in tables:
        report = golden_check(tid)
        print(f"{tid}: {'PASS' if report.ok else 'FAIL'} ({len(report.entries)} cells)")
        if not report.ok:
            any_fail = True
            print(report.diff_text())
    if any_fail:
        raise GoldenMismatchError("golden table mismatch")
    return 0


def main(argv=None):
    ap = make_parser()
    args = ap.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "converge": cmd_converge,
        "dissect": cmd_dissect,
        "golden": cmd_golden,
    }
    try:
        return handlers[args.command](args)
    except DivergenceError as exc:
        print(f"error: solver diverged: {exc}", file=sys.stderr)
        return 1
    except GoldenMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FvwenoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
