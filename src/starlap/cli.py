"""Command-line interface.

Subcommands: info, spectrum, stars, ldep, reduce, verify, partition, compare.
Exit codes: 0 success / all checks passed, 1 usage or input errors, 2 a
verification or sign-agreement failure.  Diagnostics go to stderr; ``--json``
switches machine-readable output on (stable, byte-identical across runs).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

import numpy as np

from . import __version__, eigen, fileio, stars as stars_mod
from .errors import (
    ConditionViolatedError,
    NoCommonStrengthError,
    StarlapError,
)
from .graphs import (
    Graph,
    laplacian,
    normalized_laplacian,
    signless_laplacian,
    adjacency,
)
from .partition import compare_signs, kway, recursive_bisection, sign_bipartition
from .reduction import (
    interlacing_check,
    reduce_all,
    verify_adjacency_reduction,
    verify_laplacian_reduction,
)

_MATRICES = {
    "laplacian": laplacian,
    "adjacency": adjacency,
    "signless": signless_laplacian,
    "normalized": normalized_laplacian,
}

_CONVENTIONS = {
    "reduced_degree": (
        "diagonal of the reduced Laplacian is the column sums of the "
        "mass-scaled adjacency, conserving mass-weighted strength"
    ),
    "removed_vertex_cluster": "removed star vertices inherit their kept twin's cluster",
}


def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted before and after the subcommand; the subparser
    # copies default to None and run_cli merges them (a plain shared dest would
    # let the subparser default clobber a pre-subcommand value)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=float, default=None, help="relative tolerance (default 1e-8)"
    )
    common.add_argument(
        "--seed", type=int, default=None, help="seed for generator-backed operations"
    )
    common.add_argument(
        "--json", action="store_true", default=None, help="machine-readable output"
    )

    parser = argparse.ArgumentParser(
        prog="starlap",
        description="Star and dependent-row structure analysis, spectrum-preserving "
        "reduction, and spectral partitioning of weighted graphs.",
    )
    parser.add_argument("--tol", type=float, default=None, dest="tol_global", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=None, dest="seed_global", help=argparse.SUPPRESS)
    parser.add_argument("--json", action="store_true", default=None, dest="json_global", help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", parents=[common], help="graph summary")
    p.add_argument("file")

    p = sub.add_parser("spectrum", parents=[common], help="eigenvalues of a matrix family")
    p.add_argument("file")
    p.add_argument("--matrix", choices=sorted(_MATRICES), default="laplacian")

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
    mode.add_argument("--kway", metavar="K", help="integer or 'auto'")
    p.add_argument("--max-clusters", type=int, default=2)
    p.add_argument("--dot", help="write DOT with cluster colors here")

    p = sub.add_parser("compare", parents=[common], help="sign agreement between original and reduced")
    p.add_argument("file")
    p.add_argument("--policy", choices=["collapse", "keep-pair"], default="collapse")
    return parser


def _merge_globals(args: argparse.Namespace) -> argparse.Namespace:
    args.tol = args.tol if args.tol is not None else (args.tol_global if args.tol_global is not None else 1e-8)
    args.seed = args.seed if args.seed is not None else (args.seed_global if args.seed_global is not None else 0)
    args.json = bool(args.json if args.json is not None else args.json_global)
    return args


def _load(path: str) -> Graph:
    return fileio.load_graph(path)


def _emit(payload: dict[str, Any], as_json: bool, lines: list[str]) -> None:
    if as_json:
        sys.stdout.write(fileio.to_json(payload))
    else:
        for line in lines:
            print(line)


def _multiplicity(values: np.ndarray, value: float, tol: float) -> int:
    table = eigen.group_multiplicities(values, tol)
    return eigen.multiplicity_at(table, value, tol)


def _cmd_info(args) -> int:
    g = _load(args.file)
    summary = fileio.graph_summary(g)
    lines = [f"{k}: {v}" for k, v in summary.items()]
    _emit({"summary": summary, "version": __version__}, args.json, lines)
    return 0


def _cmd_spectrum(args) -> int:
    g = _load(args.file)
    spectrum = eigen.sym_eigen(_MATRICES[args.matrix](g))
    table = eigen.group_multiplicities(spectrum.values, args.tol)
    groups = [
        {"value": grp.value, "multiplicity": grp.multiplicity} for grp in table.groups
    ]
    lines = [f"{v:.12g}" for v in spectrum.values]
    lines.append(
        "groups: " + ", ".join(f"{grp.value:.12g} (x{grp.multiplicity})" for grp in table.groups)
    )
    _emit(
        {
            "matrix": args.matrix,
            "values": [float(v) for v in spectrum.values],
            "groups": groups,
            "version": __version__,
        },
        args.json,
        lines,
    )
    return 0


def _star_payload(s: stars_mod.MkStar) -> dict[str, Any]:
    return {
        "v1": list(s.v1),
        "v2": list(s.v2),
        "m": s.m,
        "k": s.k,
        "weight": s.weight_uniform,
    }


def _cmd_stars(args) -> int:
    ctx = stars_mod.analyze(_load(args.file))
    detected = ctx.stars
    verification = stars_mod.verify_star_predictions(ctx, args.tol)
    lines = []
    if not detected:
        lines.append("no stars detected")
    for s in detected:
        w = f"w={s.weight_uniform:.12g}" if s.weight_uniform is not None else "structural-only"
        lines.append(f"star v1={list(s.v1)} v2={list(s.v2)} ({w})")
    for c in verification.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{status} {c.family} multiplicity at {c.eigenvalue:.12g}: "
            f"computed {c.computed} >= predicted {c.predicted}"
        )
    lines.extend(f"warning: {w}" for w in verification.warnings)
    payload = {
        "stars": [_star_payload(s) for s in detected],
        "checks": [
            {
                "family": c.family,
                "eigenvalue": c.eigenvalue,
                "predicted": c.predicted,
                "computed": c.computed,
                "passed": c.passed,
            }
            for c in verification.checks
        ],
        "warnings": list(verification.warnings),
        "passed": verification.passed,
        "tolerances": {"relative": args.tol},
        "version": __version__,
    }
    _emit(payload, args.json, lines)
    return 0 if verification.passed else 2


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
    g = _load(args.file)
    ctx = stars_mod.analyze(g)
    candidates: list[stars_mod.LDependentPartition] = []
    lines: list[str] = []
    failures: list[str] = []
    if args.partition:
        with open(args.partition, encoding="utf-8") as fh:
            spec = json.load(fh)
        try:
            candidates.append(
                stars_mod.verify_ldependent(ctx, spec["v1"], spec["v2"], spec["v3"])
            )
        except (ConditionViolatedError, NoCommonStrengthError) as exc:
            failures.append(str(exc))
    else:
        candidates.extend(ctx.proportional)
        candidates.extend(stars_mod.certify_structural_stars(ctx)[0])
        if not candidates:
            lines.append("no dependent-row structures detected")

    checks = []
    for p in candidates:
        computed = _multiplicity(ctx.values("laplacian"), p.wtilde, args.tol) if g.n else 0
        ok = computed >= p.l
        checks.append({"wtilde": p.wtilde, "l": p.l, "computed": computed, "passed": ok})
        status = "PASS" if ok else "FAIL"
        lines.append(
            f"{status} dependent rows v3={list(p.v3)} of v1={list(p.v1)}: "
            f"eigenvalue {p.wtilde:.12g} multiplicity {computed} >= {p.l}"
            + ("" if p.coefficients_nonnegative else " (positivity violated)")
        )
    lines.extend(f"REJECTED: {f}" for f in failures)
    passed = not failures and all(c["passed"] for c in checks)
    payload = {
        "partitions": [_partition_payload(p) for p in candidates],
        "checks": checks,
        "rejected": failures,
        "passed": passed,
        "tolerances": {"relative": args.tol},
        "version": __version__,
    }
    _emit(payload, args.json, lines)
    return 0 if passed else 2


def _reduction_payload(r, adj_record, lap_record) -> dict[str, Any]:
    g = r.original
    return {
        "original_vertices": g.n,
        "reduced_vertices": r.reduced.n,
        "removed": [v for v in range(g.n) if r.vertex_map[v] is None],
        "stars": [
            {
                "v1": list(info.star.v1),
                "v2": list(info.star.v2),
                "q": info.q,
                "weight": info.star.weight_uniform,
                "kept_v1": list(info.kept_v1),
            }
            for info in r.star_info
        ],
        "masses": {str(v): m for v, m in enumerate(r.reduced.mass) if m != 1.0},
        "checks": [
            {"name": c.name, "passed": c.passed, "residual": c.residual, "tol": c.tol}
            for c in adj_record.checks + lap_record.checks
        ],
        "passed": adj_record.passed and lap_record.passed,
    }


def _cmd_reduce(args) -> int:
    g = _load(args.file)
    ctx = stars_mod.analyze(g)
    r = reduce_all(ctx, args.policy)
    fileio.save_graph(r.reduced, args.output)
    records = (
        verify_adjacency_reduction(ctx, r, args.tol),
        verify_laplacian_reduction(ctx, r, args.tol),
    )
    payload = {
        "reduction": _reduction_payload(r, *records),
        "policy": args.policy,
        "conventions": _CONVENTIONS,
        "tolerances": {"relative": args.tol},
        "version": __version__,
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(fileio.to_json(payload))
    lines = [
        f"reduced {g.n} -> {r.reduced.n} vertices "
        f"({len(r.star_info)} stars, policy {args.policy}); wrote {args.output}"
    ]
    _emit(payload, args.json, lines)
    return 0


def _verify_checks(g: Graph, tol: float, q: int | None) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """All named checks for the verify command, plus the report sections."""
    checks: list[dict[str, Any]] = []

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    ctx = stars_mod.analyze(g)
    detected = ctx.stars
    # structural-only classes may still certify as dependent rows
    certified, extra_warnings = stars_mod.certify_structural_stars(ctx)

    star_verification = stars_mod.verify_star_predictions(ctx, tol)
    for c in star_verification.checks:
        add(
            f"{c.family}-multiplicity(w={c.eigenvalue:.12g})",
            c.passed,
            f"computed {c.computed} >= predicted {c.predicted}",
        )

    # dependent-row conclusions; summing l across partitions is only sound for
    # disjoint v3 sets, and a certified class can subsume a proportional group
    partitions = []
    used: set[int] = set()
    for p in certified + list(ctx.proportional):
        if not (set(p.v3) & used):
            partitions.append(p)
            used.update(p.v3)
    if partitions and g.n:
        by_w: dict[float, int] = {}
        for p in partitions:
            key = next((w for w in by_w if abs(w - p.wtilde) <= 1e-9 * max(1.0, w)), p.wtilde)
            by_w[key] = by_w.get(key, 0) + p.l
        for w, total_l in sorted(by_w.items()):
            computed = _multiplicity(ctx.values("laplacian"), w, tol)
            add(
                f"dependent-rows-multiplicity(w={w:.12g})",
                computed >= total_l,
                f"computed {computed} >= {total_l}",
            )
        if all(sv > 0 for sv in ctx.strengths):
            computed = _multiplicity(ctx.values("normalized"), 1.0, tol)
            total_l = sum(p.l for p in partitions)
            add(
                "dependent-rows-normalized-multiplicity",
                computed >= total_l,
                f"computed {computed} >= {total_l}",
            )

    # reduction identities under the requested q (first star) or full collapse
    if q is not None:
        qs = [0] * len(detected)
        if not detected:
            add(f"reduction-requested(q={q})", True, "no stars to reduce; identity reduction")
        elif detected[0].weight_uniform is None:
            add(
                f"reduction-requested(q={q})",
                False,
                f"first star v1={list(detected[0].v1)} has unequal weight vectors "
                "and cannot be reduced",
            )
        else:
            qs[0] = min(q, detected[0].m - 1)
            add(
                f"reduction-requested(q={q})",
                True,
                f"reducing star v1={list(detected[0].v1)} by q={qs[0]}",
            )
        r = reduce_all(ctx, qs)
    else:
        r = reduce_all(ctx, "collapse")
    records = (
        verify_adjacency_reduction(ctx, r, tol),
        verify_laplacian_reduction(ctx, r, tol),
    )
    for c in records[0].checks + records[1].checks:
        add(f"reduction-{c.name}", c.passed, f"residual {c.residual:.3g} <= {c.tol:.3g}")
    add("reduction-interlacing", interlacing_check(ctx, r, tol), "")

    sign_section: dict[str, Any] = {}
    if g.n >= 2 and len(ctx.components) == 1 and r.reduced.n >= 2:
        if len(ctx.reduced(r).components) == 1:
            report = compare_signs(ctx, r, tol)
            if report.degenerate:
                add("sign-agreement", True, f"inconclusive: {report.reason}")
            else:
                add(
                    "sign-agreement",
                    report.passed,
                    f"agreement fraction {report.agreement_fraction}",
                )
            sign_section = {
                "degenerate": report.degenerate,
                "reason": report.reason,
                "agreement_fraction": report.agreement_fraction,
                "labels": list(report.extended_labels) if report.extended_labels else None,
            }
        else:
            add("sign-agreement", True, "inconclusive: reduced graph is disconnected")
    else:
        add("sign-agreement", True, "inconclusive: graph too small or disconnected")

    weighted = [s for s in detected if s.weight_uniform is not None]
    classes = stars_mod.group_by_weight(weighted)
    sections = {
        "stars": [_star_payload(s) for s in detected],
        "star_classes": [
            {"weight": c.weight, "degree": c.degree, "v1_sets": [list(s.v1) for s in c.stars]}
            for c in classes
        ],
        "dependent_rows": [_partition_payload(p) for p in partitions],
        "warnings": list(star_verification.warnings) + extra_warnings,
        "reduction": _reduction_payload(r, *records),
        "sign_agreement": sign_section,
    }
    return checks, sections


def _cmd_verify(args) -> int:
    if args.q is not None and args.q < 1:
        print(f"--q must be at least 1, got {args.q}", file=sys.stderr)
        return 1
    g = _load(args.file)
    checks, sections = _verify_checks(g, args.tol, args.q)
    lines = [
        f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}"
        + (f" ({c['detail']})" if c["detail"] else "")
        for c in checks
    ]
    lines.extend(f"warning: {w}" for w in sections["warnings"])
    passed = all(c["passed"] for c in checks)
    lines.append(f"{'all checks passed' if passed else 'FAILED checks present'}")
    payload = {
        "summary": fileio.graph_summary(g),
        "checks": checks,
        "passed": passed,
        "conventions": _CONVENTIONS,
        "tolerances": {"relative": args.tol, "weight_equality": stars_mod.WEIGHT_TOL},
        "version": __version__,
        **sections,
    }
    _emit(payload, args.json, lines)
    if not passed:
        failed = [c["name"] for c in checks if not c["passed"]]
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
    return 0 if passed else 2


def _cmd_partition(args) -> int:
    g = _load(args.file)
    if args.bisect:
        part = sign_bipartition(g)
    elif args.rsb:
        part = recursive_bisection(g, max_clusters=args.max_clusters)
    else:
        k = args.kway if args.kway == "auto" else int(args.kway)
        part = kway(g, k)
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
    g = _load(args.file)
    r = reduce_all(g, args.policy)
    report = compare_signs(g, r, args.tol)
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
        args = _merge_globals(parser.parse_args(list(argv)))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _HANDLERS[args.command](args)
    except (OSError, json.JSONDecodeError, StarlapError, ValueError) as exc:
        print(fileio.wrap_error(exc), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
