#!/usr/bin/env python3
"""Write the six reference graphs, the test suite's fixtures, as .graph files.

Usage:
    python scripts/write_fixtures.py [--out DIR]
"""

import argparse
import os

from starlap import build_graph, save_graph

FIXTURES = {
    # unit complete bipartite 3x2: two dual star classes, weights 2 and 3
    "f1": (5, [(i, j, 1.0) for i in (0, 1, 2) for j in (3, 4)]),
    # double star: pendant pairs on both ends of a central edge
    "f2": (6, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 4, 1.0), (1, 5, 1.0)]),
    # dependent rows: row 5 is the average of rows 0 and 1, strengths 6
    "f3": (
        6,
        [
            (0, 2, 1.0), (0, 3, 2.0), (0, 4, 3.0),
            (1, 2, 2.0), (1, 3, 2.0), (1, 4, 2.0),
            (2, 5, 1.5), (3, 5, 2.0), (4, 5, 2.5),
        ],
    ),
    # unit path on four vertices
    "f4": (4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]),
    # two unit triangles joined by a light bridge
    "two_triangles": (
        6,
        [
            (0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
            (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0),
            (2, 3, 1e-3),
        ],
    ),
    # dependent rows of three supports: row 5 = (row 0 + row 1) / 2, all at
    # strength 3, while rows 0, 1 and 5 reach {2, 3}, {3, 4} and {2, 3, 4}
    "varied_supports": (
        9,
        [
            (0, 2, 2.0), (0, 3, 1.0), (1, 3, 1.0), (1, 4, 2.0),
            (2, 5, 1.0), (3, 5, 1.0), (4, 5, 1.0),
            (2, 6, 0.5), (3, 7, 0.7), (4, 8, 0.9), (6, 7, 1.3), (7, 8, 1.1),
        ],
    ),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="fixtures", help="output directory")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for name, (n, edges) in FIXTURES.items():
        path = os.path.join(args.out, f"{name}.graph")
        save_graph(build_graph(n, edges), path)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
