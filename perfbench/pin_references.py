"""Pin the sha256 of every cell's canonical output for every pool entry.

    python3 perfbench/pin_references.py [WORKLOAD ...]

Run from the root of a checkout, after a change that deliberately alters
canonical reports (and say in that change which cells moved and why).  A
cell whose output already shows a problem (a non-finite number, a witness, a
disagreement) is not pinned, and the script exits 1.
"""

import json
import sys

import checks
import workloads
from one_pass import run_cell


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    references = checks.load_references()
    status = 0
    for workload in names:
        pinned = references.setdefault(workload, {})
        for index in range(workloads.POOL):
            entry = pinned.setdefault(str(index), {})
            for cell in workloads.cells(workload, index):
                out = run_cell(cell)
                problems = checks.content_problems(cell, out)
                if problems:
                    print(f"{workload}/{index}/{cell['name']}: not pinned: "
                          f"{'; '.join(problems)}", file=sys.stderr)
                    entry.pop(cell["name"], None)
                    status = 1
                    continue
                entry[cell["name"]] = checks.sha256(out)
            print(f"{workload}/{index}: pinned", file=sys.stderr, flush=True)
    with open(checks.REFERENCES, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
