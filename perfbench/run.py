"""Run one tilesplat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload render_many_tiles --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it wraps tilesplat's public functions,
prints the per-layer metrics and writes the spans to perfbench/out/.  A
readable summary goes to standard error; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (bench.ROOT / "src" / "tilesplat" / "__init__.py").is_file():
        print(f"no tilesplat sources under {bench.ROOT / 'src'}", file=sys.stderr)
        return 2
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"attempted {result['attempted']}, failed {result['failed']}, "
        f"correct {result['correct']}",
        file=sys.stderr,
    )
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
