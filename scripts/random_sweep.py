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
eigenvalue, or otherwise; under kway's tie rule (squared distances within
DEFAULT_TOL * reach^2 are equal, the first index wins) it counts none by
default.  The columns line counts the graphs whose kway labels change
under one seeded permutation of the embedding's columns, which changes
only the order in which distances are summed; any such graph fails the
sweep (0 of 200 by default).  On every graph without near ties of
strength it also checks that the dependent-row claims do not change under
one seeded relabelling of the vertices; the near-ties line counts, without
failing on them, the graphs with near ties whose claims survive that
relabelling.  On every graph, each
multiplicity claim of the L, Q and normalized families is checked both
ways, by the library's
residual (the claimed l-th nearest eigenvalue within tol of w) and by the
chain-grouped count (multiplicity_at of group_multiplicities at tol, from
the tests' dense references in tests/reference.py); the claim-rule line
counts the claims whose verdicts differ, and any such claim fails the
sweep.  The blocks line counts, over the blocks of every graph's collapse
and keep-pair reduction, those whose local vectors C (the block's
complement on its rows) miss its value: ||L C - value C|| above tol times
L's spectral radius, with L C read off L's columns at the block's rows.
Any such block fails the sweep.

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
    verify_ldependent,
    verify_reduction,
)
from starlap.eigen import DEFAULT_TOL, spectral_gap_index, spectral_radius
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


def block_misses(g):
    """(blocks, blocks whose complement C has ||L C - value C|| above tol x L's radius)."""
    ctx = analyze(g)
    tol = DEFAULT_TOL * spectral_radius(ctx.values("mass-laplacian"))
    total = missed = 0
    for policy in ("collapse", "keep-pair"):
        for block in reduce_all(ctx, policy).blocks:
            rows, local = np.array(block.rows), block.complement
            defect = ctx.columns("mass-laplacian", rows) @ local   # L C, no dense L
            defect[rows] -= block.value * local
            total, missed = total + 1, missed + (np.linalg.norm(defect) > tol)
    return total, missed


def dependent_row_claims(g):
    return sorted((round(p.wtilde, 6), p.l) for p in analyze(g).dependent_rows)


def has_near_ties(g):
    """Whether two strengths differ by more than rounding but by at most ten WEIGHT_TOL.

    The strength classes read no label, but rows near such ties can be
    dependent only within tolerance, and then the greedy basis, which reads
    the vertex order, decides which rows are claimed; the tests read this
    rule from here.
    """
    s = np.sort(strengths(g))
    gaps = np.diff(s) / np.maximum(1.0, s[1:])
    return bool(((gaps > 1e-12) & (gaps <= 10 * WEIGHT_TOL)).any())


def relabelled(g, rng):
    """Whether one random relabelling keeps the dependent-row claims."""
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


def kway_embedding(g, rng):
    """Whether kway's embedding is k eigenvectors at a full eigh's k, and how its labels behave.

    None without a connected graph of two or more vertices.  The second
    item is "" when the labels equal those of k-means on the full eigh's
    first k columns, else "twins" when the two partitions differ only by
    a permutation of twins, "repeated" when k cuts through a repeated
    eigenvalue, and "other" for the rest.  The third is whether the labels
    change when the embedding's columns are permuted by rng.
    """
    ctx = analyze(g)
    if g.n < 2 or len(ctx.components) != 1:
        return None
    tilde = ctx.matrix("mass-laplacian")
    bound = float(np.abs(tilde).sum(axis=1).max())
    full = sym_eigen(tilde)
    k, rows = _embedding(g, "auto")
    if k != spectral_gap_index(full.values):
        return False, "", False
    if rows is None:
        return True, "", False
    product = tilde @ rows
    quotients = np.einsum("ij,ij->j", rows, product)
    if np.linalg.norm(product - rows * quotients, axis=0).max() > 1e-12 * bound:
        return False, "", False

    def kmeans(columns):
        return _relabel_by_smallest_member(_lloyd(columns), g.n, "").labels

    labels = kmeans(rows)
    moved = kmeans(rows[:, rng.permutation(k)]) != labels
    reference = kmeans(full.vectors[:, :k])
    if labels == reference:
        return True, "", moved
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
        return True, "twins", moved
    if k < g.n and full.values[k] - full.values[k - 1] <= DEFAULT_TOL * bound:
        return True, "repeated", moved
    return True, "other", moved


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
    checks = {c.name: c for c in verify_reduction(g, r)}
    results["reduction"] = all(c.passed for c in checks.values())
    results["interlacing"] = checks["interlacing"].passed
    report = compare_signs(g, r)
    results["sign_agreement"] = report.degenerate or report.agreement_fraction == 1.0
    if not report.degenerate:
        # bisect the reduced graph itself; a removed vertex takes its kept twin's side
        labels = sign_bipartition(r.reduced).labels
        twin = {v: block.kept[0] for block in r.blocks for v in block.rows}
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
    claims = claim_differences = blocks = block_failures = clustered = moved = 0
    near_ties = near_kept = 0
    sizes = []
    t0 = time.time()
    for i in range(args.graphs):
        seed = args.seed + i
        rng = np.random.default_rng(seed)
        if i % 2 == 0:
            g, results = sweep_star(seed, rng, args.max_extra)
        else:
            g, results = sweep_dependent(seed, rng)
        same = relabelled(g, rng)
        if has_near_ties(g):
            near_ties, near_kept = near_ties + 1, near_kept + same
        else:
            results["relabelled"] = same
        if (pair := fiedler_vector(g)) is not None:
            results["fiedler_vector"] = pair
        if (embedded := kway_embedding(g, rng)) is not None:
            results["kway_embedding"], kind, permuted = embedded
            if kind:
                label_changes[kind] = label_changes.get(kind, 0) + 1
            clustered, moved = clustered + 1, moved + permuted
        total, differ = claim_rule_differences(g)
        claims, claim_differences = claims + total, claim_differences + differ
        total, missed = block_misses(g)
        blocks, block_failures = blocks + total, block_failures + missed
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
    print(f"  near-ties  {near_kept} of {near_ties} graphs with near ties of strength keep "
          "their dependent-row claims under one relabelling (not failures)")
    changed = ", ".join(f"{kind} {n}" for kind, n in sorted(label_changes.items())) or "none"
    print(f"  kway labels unlike k-means on a full eigh (not failures): {changed}")
    status = "ok" if not claim_differences else "FAIL"
    print(f"  claim-rule  {claim_differences} of {claims} claims judged otherwise by the grouped "
          f"count  {status}")
    status = "ok" if not block_failures else "FAIL"
    print(f"  blocks  {block_failures} of {blocks} blocks whose local vectors miss their value  "
          f"{status}")
    status = "ok" if not moved else "FAIL"
    print(f"  columns  {moved} of {clustered} graphs whose kway labels change when the "
          f"embedding's columns are permuted  {status}")
    if failures or claim_differences or block_failures or moved:
        raise SystemExit(2)


if __name__ == "__main__":
    main()
