"""Command-line interface.

Subcommands: info, spectrum, stars, ldep, reduce, verify, partition, compare.
Exit codes: 0 success / all checks passed, 1 usage or input errors, 2 a
verification or sign-agreement failure, a reduction whose checks fail, or a
partition or comparison whose second Laplacian eigenpair is not finite.
Diagnostics go to stderr; ``--json`` switches machine-readable output on
(stable, byte-identical across runs).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Sequence

from . import __version__, eigen, fileio, partition, reduction, stars as stars_mod
from .errors import (
    ConditionViolatedError,
    NoCommonStrengthError,
    NonFiniteSpectrumError,
    StarlapError,
)
from .verify import verify_graph

_CONVENTIONS = {
    "reduced_degree": (
        "diagonal of the reduced Laplacian is the column sums of the "
        "mass-scaled adjacency, conserving mass-weighted strength"
    ),
    "removed_vertex_cluster": "removed star vertices inherit their kept twin's cluster",
}


def _kway_count(text: str) -> int | str:
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid value {text!r} (an integer or 'auto')") from None


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"invalid value {text!r} (a finite number >= 0)")
    return tol


def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted before and after the subcommand; the subparser
    # copies default to SUPPRESS, so they leave a pre-subcommand value in place
    parser = argparse.ArgumentParser(
        prog="starlap",
        description="Star and dependent-row structure analysis, spectrum-preserving "
        "reduction, and spectral partitioning of weighted graphs.",
    )
    parser.add_argument(
        "--tol", type=_tolerance, default=eigen.DEFAULT_TOL, help="relative tolerance (default 1e-8)"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=argparse.SUPPRESS, help="relative tolerance")
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="machine-readable output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", parents=[common], help="graph summary")
    p.add_argument("file")

    p = sub.add_parser("spectrum", parents=[common], help="eigenvalues of a matrix family")
    p.add_argument("file")
    p.add_argument(
        "--matrix", choices=("adjacency", "laplacian", "normalized", "signless"), default="laplacian"
    )

    p = sub.add_parser("stars", parents=[common], help="detect stars and verify their predictions")
    p.add_argument("file")

    p = sub.add_parser("ldep", parents=[common], help="verify dependent-row structure")
    p.add_argument("file")
    p.add_argument("--partition", help="JSON file with v1/v2/v3 vertex lists")

    p = sub.add_parser("reduce", parents=[common], help="reduce stars and write the reduced graph")
    p.add_argument("file")
    p.add_argument("--policy", choices=["collapse", "keep-pair"], default="collapse")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report", help="write a JSON reduction report here")

    p = sub.add_parser("verify", parents=[common], help="run the full structure/reduction check suite")
    p.add_argument("file")
    p.add_argument("--q", type=int, default=None, help="reduce the first star by q (others untouched)")

    p = sub.add_parser("partition", parents=[common], help="spectral partitioning")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--bisect", action="store_true")
    mode.add_argument("--rsb", action="store_true")
    mode.add_argument("--kway", metavar="K", type=_kway_count, help="integer or 'auto'")
    p.add_argument("--max-clusters", type=int, default=2)
    p.add_argument("--dot", help="write DOT with cluster colors here")

    p = sub.add_parser("compare", parents=[common], help="sign agreement between original and reduced")
    p.add_argument("file")
    p.add_argument("--policy", choices=["collapse", "keep-pair"], default="collapse")
    return parser


def _emit(payload: dict[str, Any] | str, as_json: bool, lines: list[str]) -> None:
    if as_json:
        sys.stdout.write(payload if isinstance(payload, str) else fileio.to_json(payload))
    else:
        for line in lines:
            print(line)


def _cmd_info(args) -> int:
    g = fileio.load_graph(args.file)
    summary = fileio.graph_summary(g)
    lines = [f"{k}: {v}" for k, v in summary.items()]
    _emit({"summary": summary, "version": __version__}, args.json, lines)
    return 0


def _cmd_spectrum(args) -> int:
    ctx = stars_mod.analyze(fileio.load_graph(args.file))
    payload: dict[str, Any] = {"matrix": args.matrix, "version": __version__}
    if args.matrix == "normalized" and ctx.isolated:
        warning = (
            f"normalized-Laplacian spectrum undefined: isolated vertices {ctx.isolated} "
            "have no normalized row"
        )
        payload.update(values=[], groups=[], warnings=[warning])
        _emit(payload, args.json, [f"warning: {warning}"])
        return 0
    values = ctx.values(args.matrix)
    table = eigen.group_multiplicities(values, args.tol)
    payload["values"] = [float(v) for v in values]
    payload["groups"] = [
        {"value": grp.value, "multiplicity": grp.multiplicity} for grp in table.groups
    ]
    lines = [f"{v:.12g}" for v in values]
    lines.append(
        "groups: " + ", ".join(f"{grp.value:.12g} (x{grp.multiplicity})" for grp in table.groups)
    )
    _emit(payload, args.json, lines)
    return 0


def _star_payload(s: stars_mod.MkStar) -> dict[str, Any]:
    return {
        "v1": list(s.v1),
        "v2": list(s.v2),
        "m": s.m,
        "k": s.k,
        "weight": s.weight_uniform,
    }


def _check_payload(c: eigen.Check) -> dict[str, Any]:
    """The one JSON shape of a check, in every command's report."""
    return {
        "name": c.name, "passed": c.passed, "residual": c.residual, "tol": c.tol, "note": c.note
    }


def _check_line(c: eigen.Check) -> str:
    """The one text line of a check: verdict, name, residual and tol, and the note."""
    note = f"; {c.note}" if c.note else ""
    status = "PASS" if c.passed else "FAIL"
    return f"{status} {c.name} (residual {c.residual:.3g} <= {c.tol:.3g}{note})"


def _cmd_stars(args) -> int:
    ctx = stars_mod.analyze(fileio.load_graph(args.file))
    detected = ctx.stars
    checks, warnings = stars_mod.verify_star_predictions(ctx, args.tol)
    passed = all(c.passed for c in checks)
    lines = []
    if not detected:
        lines.append("no stars detected")
    for s in detected:
        w = f"w={s.weight_uniform:.12g}" if s.weight_uniform is not None else "structural-only"
        lines.append(f"star v1={list(s.v1)} v2={list(s.v2)} ({w})")
    lines.extend(_check_line(c) for c in checks)
    lines.extend(f"warning: {w}" for w in warnings)
    payload = {
        "stars": [_star_payload(s) for s in detected],
        "checks": [_check_payload(c) for c in checks],
        "warnings": warnings,
        "passed": passed,
        "tolerances": {"relative": args.tol},
        "version": __version__,
    }
    _emit(payload, args.json, lines)
    return 0 if passed else 2


def _partition_payload(p: stars_mod.LDependentPartition) -> dict[str, Any]:
    return {
        "v1": list(p.v1),
        "v2": list(p.v2),
        "v3": list(p.v3),
        "l": p.l,
        "wtilde": p.wtilde,
        "coefficients": {
            str(i): {str(j): a for j, a in sorted(coeffs.items())}
            for i, coeffs in sorted(p.coefficients.items())
        },
        "coefficients_nonnegative": p.coefficients_nonnegative,
    }


def _cmd_ldep(args) -> int:
    ctx = stars_mod.analyze(fileio.load_graph(args.file))
    candidates: list[stars_mod.LDependentPartition] = []
    lines: list[str] = []
    failures: list[str] = []
    if args.partition:
        v1, v2, v3 = fileio.load_partition(args.partition)
        try:
            if not v1 or not v3:
                raise ConditionViolatedError(0, -1, "v1 and v3 must each list a vertex")
            candidates.append(stars_mod.verify_ldependent(ctx, v1, v2, v3))
        except (ConditionViolatedError, NoCommonStrengthError) as exc:
            failures.append(str(exc))
        claims = [(p.wtilde, p.l) for p in candidates]
    else:
        candidates.extend(ctx.dependent_rows)
        if not candidates:
            lines.append("no dependent-row structures detected")
        claims = stars_mod.predict_multiplicities(ctx)

    checks = ctx.check_claims("laplacian", claims, args.tol)
    warnings = stars_mod.strength_warnings(ctx)
    lines.extend(
        f"dependent rows v3={list(p.v3)} of v1={list(p.v1)}"
        + ("" if p.coefficients_nonnegative else " (positivity violated)")
        for p in candidates
    )
    lines.extend(_check_line(c) for c in checks)
    lines.extend(f"REJECTED: {f}" for f in failures)
    lines.extend(f"warning: {w}" for w in warnings)
    passed = not failures and all(c.passed for c in checks)
    payload = {
        "partitions": [_partition_payload(p) for p in candidates],
        "checks": [_check_payload(c) for c in checks],
        "warnings": warnings,
        "rejected": failures,
        "passed": passed,
        "tolerances": {"relative": args.tol},
        "version": __version__,
    }
    _emit(payload, args.json, lines)
    return 0 if passed else 2


def _reduction_payload(r: reduction.Reduction) -> dict[str, Any]:
    g = r.original
    return {
        "original_vertices": g.n,
        "reduced_vertices": r.reduced.n,
        "removed": [v for v in range(g.n) if r.vertex_map[v] is None],
        "stars": [
            {
                "v1": list(b.star.v1),
                "v2": list(b.star.v2),
                "q": b.q,
                "weight": b.star.weight_uniform,
                "kept_v1": list(b.kept),
            }
            for b in r.blocks
        ],
        "masses": {str(v): m for v, m in enumerate(r.reduced.mass) if m != 1.0},
    }


def _cmd_reduce(args) -> int:
    g = fileio.load_graph(args.file)
    ctx = stars_mod.analyze(g)
    r = reduction.reduce_all(ctx, args.policy)
    fileio.save_graph(r.reduced, args.output)
    checks = reduction.verify_reduction(ctx, r, args.tol)
    passed = all(c.passed for c in checks)
    checked = {"checks": [_check_payload(c) for c in checks], "passed": passed}
    payload = {
        "reduction": {**_reduction_payload(r), **checked},
        "policy": args.policy,
        "conventions": _CONVENTIONS,
        "tolerances": {"relative": args.tol},
        "version": __version__,
    }
    report = fileio.to_json(payload)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report)
    lines = [
        f"reduced {g.n} -> {r.reduced.n} vertices "
        f"({len(r.blocks)} stars, policy {args.policy}); wrote {args.output}"
    ]
    lines.extend(_check_line(c) for c in checks)
    _emit(report, args.json, lines)
    if not passed:
        failed = [c.name + (f" ({c.note})" if c.note else "") for c in checks if not c.passed]
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args) -> int:
    ctx = stars_mod.analyze(fileio.load_graph(args.file))
    result = verify_graph(ctx, args.tol, args.q)
    lines = [_check_line(c) for c in result.checks]
    lines.extend(f"warning: {w}" for w in result.warnings)
    lines.append(f"{'all checks passed' if result.passed else 'FAILED checks present'}")
    signs = result.signs
    payload = {
        "summary": fileio.graph_summary(ctx),
        "checks": [_check_payload(c) for c in result.checks],
        "passed": result.passed,
        "conventions": _CONVENTIONS,
        "tolerances": {"relative": args.tol, "weight_equality": stars_mod.WEIGHT_TOL},
        "version": __version__,
        "stars": [_star_payload(s) for s in ctx.stars],
        "star_classes": [
            {"weight": c.weight, "degree": c.degree, "v1_sets": [list(s.v1) for s in c.stars]}
            for c in stars_mod.group_by_weight(ctx.stars)
        ],
        "dependent_rows": [_partition_payload(p) for p in result.dependent_rows],
        "warnings": list(result.warnings),
        "reduction": _reduction_payload(result.reduction),
        "sign_agreement": {} if signs is None else {
            "degenerate": signs.degenerate,
            "reason": signs.reason,
            "agreement_fraction": signs.agreement_fraction,
            "labels": list(signs.extended_labels) if signs.extended_labels else None,
        },
    }
    _emit(payload, args.json, lines)
    if not result.passed:
        failed = [c.name for c in result.checks if not c.passed]
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
    return 0 if result.passed else 2


def _cmd_partition(args) -> int:
    g = fileio.load_graph(args.file)
    if args.bisect:
        part = partition.sign_bipartition(g)
    elif args.rsb:
        part = partition.recursive_bisection(g, max_clusters=args.max_clusters)
    else:
        part = partition.kway(g, args.kway)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(fileio.emit_dot(g, part))
    clusters: dict[int, list[int]] = {}
    for v, lbl in enumerate(part.labels):
        clusters.setdefault(lbl, []).append(v)
    lines = [f"provenance: {part.provenance}"]
    lines.extend(f"cluster {cid}: {members}" for cid, members in sorted(clusters.items()))
    payload = {
        "labels": list(part.labels),
        "provenance": part.provenance,
        "version": __version__,
    }
    _emit(payload, args.json, lines)
    return 0


def _cmd_compare(args) -> int:
    ctx = stars_mod.analyze(fileio.load_graph(args.file))
    r = reduction.reduce_all(ctx, args.policy)
    report = partition.compare_signs(ctx, r, args.tol)
    if report.degenerate:
        lines = [f"inconclusive: {report.reason}"]
        code = 0
    elif report.passed:
        lines = [
            f"signs agree on all kept vertices (flip={report.global_flip}); "
            f"extended labels {list(report.extended_labels)}"
        ]
        code = 0
    else:
        lines = [f"DISAGREEMENT: agreement fraction {report.agreement_fraction}"]
        code = 2
    payload = {
        "degenerate": report.degenerate,
        "reason": report.reason,
        "agreement_fraction": report.agreement_fraction,
        "global_flip": report.global_flip,
        "pairs": [list(p) for p in report.pairs],
        "extended_labels": list(report.extended_labels) if report.extended_labels else None,
        "policy": args.policy,
        "version": __version__,
    }
    _emit(payload, args.json, lines)
    return code


_HANDLERS = {
    "info": _cmd_info,
    "spectrum": _cmd_spectrum,
    "stars": _cmd_stars,
    "ldep": _cmd_ldep,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "partition": _cmd_partition,
    "compare": _cmd_compare,
}


def run_cli(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _HANDLERS[args.command](args)
    except NonFiniteSpectrumError as exc:   # a valid graph whose spectrum overflows
        print(fileio.wrap_error(exc), file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, StarlapError, ValueError) as exc:
        print(fileio.wrap_error(exc), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
