"""Rewrite ``expected.json``, the correctness gate, from the current program.

    python3 perfbench/record.py

Only for a change that is meant to alter outputs; the reason belongs in the
change's description.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    expected = {name: make(ROOT, out_dir, 0).golden()
                for name, make in workloads.WORKLOADS.items()}
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
