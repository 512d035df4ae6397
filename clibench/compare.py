#!/usr/bin/env python3
"""Compare two results saved by ``clibench/run.py --save``.

    python3 clibench/compare.py BEFORE.json AFTER.json

Prints every metric before and after, with the change as a share of the
before value. An end-to-end metric that got worse by more than its bound in
BENCHMARK.json is marked REGRESSION. Two results whose kernel backend or
numba availability differ are flagged, because their timings measure
different builds of the kernels. Exits 1 when anything is flagged.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    flagged = False
    for key in ("workload", "seconds", "trace"):
        if before[key] != after[key]:
            print(f"WARNING: {key} differs: {before[key]!r} vs {after[key]!r}")
            flagged = True
    for key in ("backend", "numba"):
        b, a = before["provenance"][key], after["provenance"][key]
        if b != a:
            print(f"WARNING: {key} differs: {b!r} vs {a!r}; the timings are not comparable")
            flagged = True
    for name, b in before["metrics"].items():
        a = after["metrics"].get(name)
        if a is None:
            print(f"{name:<44} missing after")
            flagged = True
            continue
        # end-to-end metrics of `--workload all` carry a workload prefix
        m = specs.get(name) or specs.get(name.split(".", 1)[-1], {})
        change = (a["value"] - b["value"]) / b["value"] if b["value"] else float("nan")
        worse = change if m.get("better", "lower") == "lower" else -change
        mark = ""
        if "bound" in m and worse > m["bound"]:
            mark = f"REGRESSION (bound {m['bound']:.0%})"
            flagged = True
        print(f"{name:<44} {b['value']:12.6g} -> {a['value']:12.6g} {b['unit']:<8} "
              f"{change:+8.1%} {mark}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
