"""Record the reference outputs of every point the workloads can draw.

Run from the repository root on the commit whose outputs are the
reference:

    python3 bench/record_reference.py [--workload NAME ...]

Entries of the named workloads (default: all) are recomputed and merged
into ``bench/reference.json``; entries of other workloads are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from worker import git_rev  # noqa: E402  (also puts src/ on the path)

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--out", type=Path, default=workloads.REFERENCE_PATH)
    args = parser.parse_args(argv)

    out = args.out
    existing = {"points": {}}
    if out.exists():
        existing = json.loads(out.read_text(encoding="utf-8"))
    points = dict(existing["points"])

    devices = workloads.load_devices()
    for name in args.workload or workloads.WORKLOADS:
        todo = workloads.pool(name, devices)
        start = time.perf_counter()
        for i, point in enumerate(todo):
            points[workloads.point_key(point)] = workloads.run_point(point, devices)
            print(f"{name} {i + 1}/{len(todo)} {time.perf_counter() - start:.1f} s",
                  file=sys.stderr, flush=True)

    payload = {
        "recorded_from": git_rev(),
        "points": dict(sorted(points.items())),
    }
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
