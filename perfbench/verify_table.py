"""One-off reference table: seconds per acceptance criterion.

Times ``weylhull.verify.run_criterion(k)`` for k = 1..13 at full size
(100000 samples, default seed, one thread), each criterion in a fresh
process so no cache carries over, and prints a Markdown table.  The
figures are a reference only; no bound is applied to them.

    python3 perfbench/verify_table.py
"""
from __future__ import annotations

import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CHILD = (
    "import sys, time; sys.path.insert(0, 'src');"
    "from weylhull import verify;"
    "t = time.perf_counter(); res = verify.run_criterion({k});"
    "print(time.perf_counter() - t, sum(r.passed for r in res), len(res))"
)


def main() -> int:
    print("| criterion | name | seconds | checks passed |")
    print("|---|---|---|---|")
    names = {}
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from weylhull import verify

    for k, (name, _, _) in verify.CRITERIA.items():
        names[k] = name
    for k in range(1, 14):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", _CHILD.format(k=k)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.split()
        outer = time.perf_counter() - t0
        print(f"| {k} | {names[k]} | {outer:.1f} (in-process {float(out[0]):.1f}) "
              f"| {out[1]}/{out[2]} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
