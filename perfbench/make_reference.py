"""Regenerate perfbench/reference.json from the rmcf in ./src.

    python3 perfbench/make_reference.py

Runs every menu entry of every workload once, in-process, applies the
oracle checks, and stores the report values the benchmark compares against.
Rerun it only when a change to rmcf alters reports on purpose, and say why
in CHANGES.md.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    import workloads

    out_dir = os.path.join(".perfbench_out", "reference")
    shutil.rmtree(out_dir, ignore_errors=True)
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        entries = reference[name] = {}
        for op in cls(root, os.path.join(out_dir, name)).variants():
            op.run(False)
            entries[op.key] = op.observe()
            op.check(entries)
            print(f"{name}/{op.key}: ok", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
