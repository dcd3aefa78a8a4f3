#!/usr/bin/env python3
"""Randomized verification sweep over planted graphs.

For each seed, plants either a uniform-weight star graph or a dependent-row
graph, then checks every claim the structure makes: eigenvalue multiplicity
bounds on the Laplacian / signless / normalized families, spectrum
preservation under reduction, interlacing, and Fiedler sign agreement.

Usage:
    python scripts/random_sweep.py [--graphs N] [--seed S] [--max-extra V]
"""

import argparse
import time

import numpy as np

from starlap import (
    analyze,
    compare_signs,
    detect_stars,
    group_by_weight,
    group_multiplicities,
    interlacing_check,
    multiplicity_at,
    plant_ldependent_graph,
    plant_star_graph,
    reduce_all,
    sym_eigen,
    verify_adjacency_reduction,
    verify_laplacian_reduction,
    verify_ldependent,
)


def mult(matrix, value, tol=1e-8):
    values = sym_eigen(matrix, vectors=False).values
    return multiplicity_at(group_multiplicities(values, tol), value)


def sweep_star(seed, rng, max_extra):
    specs = [
        (int(rng.integers(2, 5)), int(rng.integers(1, 4)), float(rng.choice([0.5, 1.0, 2.0])))
        for _ in range(int(rng.integers(1, 4)))
    ]
    n = sum(m + k for m, k, _ in specs) + int(rng.integers(0, max_extra + 1))
    g = plant_star_graph(seed=seed, n=n, star_specs=specs)
    results = {}

    weighted = [s for s in detect_stars(g) if s.weight_uniform is not None]
    classes = group_by_weight(weighted)
    ctx = analyze(g)
    lap, signless = ctx.matrix("laplacian"), ctx.matrix("signless")
    results["multiplicity"] = all(
        mult(lap, c.weight) >= c.degree and mult(signless, c.weight) >= c.degree
        for c in classes
    )
    results["normalized"] = mult(ctx.matrix("normalized"), 1.0) >= sum(c.degree for c in classes)

    r = reduce_all(g, "collapse")
    results["adjacency_reduction"] = verify_adjacency_reduction(g, r).passed
    results["laplacian_reduction"] = verify_laplacian_reduction(g, r).passed
    results["interlacing"] = interlacing_check(g, r)
    report = compare_signs(g, r)
    results["sign_agreement"] = report.degenerate or report.agreement_fraction == 1.0
    return g.n, results


def sweep_dependent(seed, rng):
    m1, k = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    l = int(rng.integers(0, 5))
    wt = float(rng.choice([4.0, 6.0]))
    g = plant_ldependent_graph(seed=seed, sizes=(m1, k, l), wtilde=wt)
    part = verify_ldependent(
        g, list(range(m1)), list(range(m1, m1 + k)), list(range(m1 + k, g.n))
    )
    return g.n, {
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
    sizes = []
    t0 = time.time()
    for i in range(args.graphs):
        seed = args.seed + i
        rng = np.random.default_rng(seed)
        if i % 2 == 0:
            n, results = sweep_star(seed, rng, args.max_extra)
        else:
            n, results = sweep_dependent(seed, rng)
        sizes.append(n)
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
    if failures:
        raise SystemExit(2)


if __name__ == "__main__":
    main()
