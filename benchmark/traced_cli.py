"""Run one starlap CLI call with every public function of the package traced.

Usage:
    python3 benchmark/traced_cli.py --spans SPANS.json --call-id ID -- <starlap arguments>

Standard output, standard error and the exit code are the CLI's own; the
call's spans are written to SPANS.json when it ends.  starlap must be
importable, for example through PYTHONPATH=src.
"""

from __future__ import annotations

import argparse
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: traced_cli.py --spans FILE --call-id ID -- <starlap arguments>", file=sys.stderr)
        return 1
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="traced_cli.py")
    parser.add_argument("--spans", required=True)
    parser.add_argument("--call-id", type=int, required=True)
    args = parser.parse_args(argv[:split])

    import starlap.cli

    tracer = Tracer(args.call_id)
    tracer.install()
    try:
        return starlap.cli.run_cli(argv[split + 1:])
    finally:
        tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
