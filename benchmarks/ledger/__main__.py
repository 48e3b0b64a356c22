"""``PYTHONPATH=src python -m benchmarks.ledger [run|trace] [options]``"""

import sys

from .cli import main

sys.exit(main())
