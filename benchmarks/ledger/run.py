"""Run the ledger from the root of a checkout, with no environment set up:

    python3 benchmarks/ledger/run.py --workload sim-fig15 --seed 11 \\
        --seconds 20 --trace 0

Same arguments as ``PYTHONPATH=src python -m benchmarks.ledger``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"ledger: no program source at {ROOT}/src/repro",
              file=sys.stderr)
        sys.exit(2)
    # replace this script's directory: the ledger is imported as a package
    sys.path[0:1] = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]
    from ledger.cli import main
    sys.exit(main())
