"""Record the reference outputs of every workload at the default seed.

Run from the root of a source checkout, only when a change is meant to alter
the outputs:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

from run import OUT, PINNED_ENV, SRC


def main() -> int:
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, WORKLOADS

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for workload in WORKLOADS.values():
            inputs = workload.inputs(DEFAULT_SEED)
            output = workload.run(inputs, Path(tmp))
            outcome = workload.check(output, inputs, None)
            if outcome.failed:
                print(f"{workload.name}: {outcome.problems}", file=sys.stderr)
                return 1
            workload.save_reference(output)
            print(f"{workload.name}: {workload.reference_path()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
