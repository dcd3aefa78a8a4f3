#!/usr/bin/env python3
"""Randomized verification sweep over planted graphs.

For each seed, plants either a uniform-weight star graph or a dependent-row
graph, then checks every claim the structure makes: eigenvalue multiplicity
bounds on the Laplacian / signless / normalized families, spectrum
preservation under reduction, interlacing, Fiedler sign agreement, and,
where that comparison is conclusive, that bisecting the reduced graph splits
the original vertices as bisecting the original does.  On every connected
graph it checks the Fiedler vector: its eigen-residual is within 1e-12 of
the spectral radius, and where lambda2 is simple, bisection labels the
vertices as the second column of a full eigh does, and it checks kway's
embedding, read off the collapsed graph: `kway auto` chooses the k of a
full eigh, and every embedding column is an eigenvector, with residual
within 1e-12 of the row-sum bound.  It then counts, without failing on
them, the graphs whose kway labels differ from k-means on the full eigh's
columns: by a permutation of twins only, where k cuts through a repeated
eigenvalue, or otherwise.  On every graph without near ties of strength it
also checks that the dependent-row claims do not change under one seeded
relabelling of the vertices.  On every graph, each multiplicity claim of
the L, Q and normalized families is checked both ways, by the library's
residual (the claimed l-th nearest eigenvalue within tol of w) and by the
chain-grouped count (multiplicity_at of group_multiplicities at tol, from
the tests' dense references in tests/reference.py); the claim-rule line
counts the claims whose verdicts differ, and any such claim fails the
sweep.

Usage:
    python scripts/random_sweep.py [--graphs N] [--seed S] [--max-extra V]
"""

import argparse
import importlib.util
import time
from pathlib import Path

import numpy as np

from starlap import (
    analyze,
    build_graph,
    compare_signs,
    detect_stars,
    fiedler,
    group_by_weight,
    group_multiplicities,
    plant_ldependent_graph,
    plant_star_graph,
    predict_multiplicities,
    reduce_all,
    sign_bipartition,
    strengths,
    sym_eigen,
    verify_adjacency_reduction,
    verify_laplacian_reduction,
    verify_ldependent,
)
from starlap.eigen import DEFAULT_TOL, spectral_gap_index
from starlap.partition import _embedding, _labels_from_signs, _lloyd, _relabel_by_smallest_member
from starlap.stars import WEIGHT_TOL


def _load_reference():
    spec = importlib.util.spec_from_file_location(
        "reference", Path(__file__).resolve().parents[1] / "tests" / "reference.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


multiplicity_at = _load_reference().multiplicity_at


def mult(matrix, value, tol=1e-8):
    values = sym_eigen(matrix, vectors=False).values
    return multiplicity_at(group_multiplicities(values, tol), value)


def claim_rule_differences(g):
    """(claims, claims whose residual verdict differs from the chain-grouped count)."""
    ctx = analyze(g)
    claims = predict_multiplicities(ctx)
    families = [("laplacian", claims), ("signless", claims)]
    if claims and not ctx.isolated:
        families.append(("normalized", [(1.0, sum(l for _, l in claims))]))
    total = differ = 0
    for family, family_claims in families:
        table = group_multiplicities(ctx.values(family), DEFAULT_TOL)
        checks = ctx.check_claims(family, family_claims, DEFAULT_TOL)
        for (w, l), check in zip(family_claims, checks):
            total += 1
            differ += check.passed != (multiplicity_at(table, w) >= l)
    return total, differ


def dependent_row_claims(g):
    return sorted((round(p.wtilde, 6), p.l) for p in analyze(g).dependent_rows)


def has_near_ties(g):
    """Whether two strengths differ by more than rounding but by at most ten WEIGHT_TOL.

    On such near ties the tolerance chain decides which rows group together,
    and a piece's first member, which a relabelling can change, decides what
    is split off; the tests read this rule from here.
    """
    s = np.sort(strengths(g))
    gaps = np.diff(s) / np.maximum(1.0, s[1:])
    return bool(((gaps > 1e-12) & (gaps <= 10 * WEIGHT_TOL)).any())


def relabelled(g, rng):
    """Whether one random relabelling keeps the dependent-row claims; None on near ties."""
    if has_near_ties(g):
        return None
    perm = rng.permutation(g.n).tolist()
    moved = build_graph(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])
    return dependent_row_claims(moved) == dependent_row_claims(g)


def fiedler_vector(g):
    """Whether the Fiedler vector is an eigenvector that bisects as eigh's; None without one."""
    ctx = analyze(g)
    if g.n < 2 or len(ctx.components) != 1:
        return None
    result = fiedler(ctx)
    radius = float(np.abs(ctx.values("mass-laplacian")).max())
    matrix = ctx.matrix("mass-laplacian") / radius
    if np.linalg.norm(matrix @ result.vector - result.lambda2 / radius * result.vector) > 1e-12:
        return False
    if result.degenerate:
        return True
    reference = sym_eigen(matrix).vectors[:, 1]
    return sign_bipartition(g).labels == _labels_from_signs(reference)[0]


def kway_embedding(g):
    """Whether kway's embedding is k eigenvectors at a full eigh's k, and how its labels differ.

    None without a connected graph of two or more vertices.  The second
    item is "" when the labels equal those of k-means on the full eigh's
    first k columns, else "twins" when the two partitions differ only by
    a permutation of twins, "repeated" when k cuts through a repeated
    eigenvalue, and "other" for the rest.
    """
    ctx = analyze(g)
    if g.n < 2 or len(ctx.components) != 1:
        return None
    tilde = ctx.matrix("mass-laplacian")
    bound = float(np.abs(tilde).sum(axis=1).max())
    full = sym_eigen(tilde)
    k, rows = _embedding(g, "auto")
    if k != spectral_gap_index(full.values):
        return False, ""
    if rows is None:
        return True, ""
    product = tilde @ rows
    quotients = np.einsum("ij,ij->j", rows, product)
    if np.linalg.norm(product - rows * quotients, axis=0).max() > 1e-12 * bound:
        return False, ""
    labels = _relabel_by_smallest_member(_lloyd(rows), g.n, "").labels
    reference = _relabel_by_smallest_member(_lloyd(full.vectors[:, :k]), g.n, "").labels
    if labels == reference:
        return True, ""
    twin_class = list(range(g.n))
    for star in ctx.stars:
        for v in star.v1:
            twin_class[v] = star.v1[0]

    def clusters(lbls):
        members = {}
        for v, lbl in enumerate(lbls):
            members.setdefault(lbl, []).append(twin_class[v])
        return sorted(sorted(m) for m in members.values())

    if clusters(labels) == clusters(reference):
        return True, "twins"
    if k < g.n and full.values[k] - full.values[k - 1] <= DEFAULT_TOL * bound:
        return True, "repeated"
    return True, "other"


def sweep_star(seed, rng, max_extra):
    specs = [
        (int(rng.integers(2, 5)), int(rng.integers(1, 4)), float(rng.choice([0.5, 1.0, 2.0])))
        for _ in range(int(rng.integers(1, 4)))
    ]
    n = sum(m + k for m, k, _ in specs) + int(rng.integers(0, max_extra + 1))
    g = plant_star_graph(seed=seed, n=n, star_specs=specs)
    results = {}

    classes = group_by_weight(detect_stars(g))
    ctx = analyze(g)
    lap, signless = ctx.matrix("laplacian"), ctx.matrix("signless")
    results["multiplicity"] = all(
        mult(lap, c.weight) >= c.degree and mult(signless, c.weight) >= c.degree
        for c in classes
    )
    results["normalized"] = mult(ctx.matrix("normalized"), 1.0) >= sum(c.degree for c in classes)

    r = reduce_all(g, "collapse")
    adjacency = {c.name: c for c in verify_adjacency_reduction(g, r)}
    results["adjacency_reduction"] = all(c.passed for c in adjacency.values())
    results["laplacian_reduction"] = all(c.passed for c in verify_laplacian_reduction(g, r))
    results["interlacing"] = adjacency["interlacing"].passed
    report = compare_signs(g, r)
    results["sign_agreement"] = report.degenerate or report.agreement_fraction == 1.0
    if not report.degenerate:
        # bisect the reduced graph itself; a removed vertex takes its kept twin's side
        labels = sign_bipartition(r.reduced).labels
        twin = {v: info.kept_v1[0] for info in r.star_info for v in info.star.v1}
        lifted = [labels[r.vertex_map[twin.get(v, v)]] for v in range(g.n)]
        original = list(sign_bipartition(g).labels)
        results["reduced_bisection"] = lifted in (original, [1 - x for x in original])
    return g, results


def sweep_dependent(seed, rng):
    m1, k = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    l = int(rng.integers(0, 5))
    wt = float(rng.choice([4.0, 6.0]))
    g = plant_ldependent_graph(seed=seed, sizes=(m1, k, l), wtilde=wt)
    part = verify_ldependent(
        g, list(range(m1)), list(range(m1, m1 + k)), list(range(m1 + k, g.n))
    )
    return g, {
        "certificate": part.l == l,
        "multiplicity": mult(analyze(g).matrix("laplacian"), wt) >= l,
        "normalized": mult(analyze(g).matrix("normalized"), 1.0) >= l,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graphs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-extra", type=int, default=12, help="extra background vertices")
    args = parser.parse_args()

    counts: dict[str, int] = {}
    failures: dict[str, list[int]] = {}
    label_changes: dict[str, int] = {}
    claims = claim_differences = 0
    sizes = []
    t0 = time.time()
    for i in range(args.graphs):
        seed = args.seed + i
        rng = np.random.default_rng(seed)
        if i % 2 == 0:
            g, results = sweep_star(seed, rng, args.max_extra)
        else:
            g, results = sweep_dependent(seed, rng)
        if (same := relabelled(g, rng)) is not None:
            results["relabelled"] = same
        if (pair := fiedler_vector(g)) is not None:
            results["fiedler_vector"] = pair
        if (embedded := kway_embedding(g)) is not None:
            results["kway_embedding"], kind = embedded
            if kind:
                label_changes[kind] = label_changes.get(kind, 0) + 1
        total, differ = claim_rule_differences(g)
        claims, claim_differences = claims + total, claim_differences + differ
        sizes.append(g.n)
        for name, ok in results.items():
            counts[name] = counts.get(name, 0) + 1
            if not ok:
                failures.setdefault(name, []).append(seed)

    print(f"{args.graphs} graphs (n: {min(sizes)}..{max(sizes)}) in {time.time()-t0:.1f}s")
    width = max(len(k) for k in counts)
    for name in sorted(counts):
        bad = failures.get(name, [])
        status = "ok" if not bad else f"FAIL at seeds {bad[:10]}"
        print(f"  {name:<{width}}  {counts[name] - len(bad)}/{counts[name]}  {status}")
    changed = ", ".join(f"{kind} {n}" for kind, n in sorted(label_changes.items())) or "none"
    print(f"  kway labels unlike k-means on a full eigh (not failures): {changed}")
    status = "ok" if not claim_differences else "FAIL"
    print(f"  claim-rule  {claim_differences} of {claims} claims judged otherwise by the grouped "
          f"count  {status}")
    if failures or claim_differences:
        raise SystemExit(2)


if __name__ == "__main__":
    main()
