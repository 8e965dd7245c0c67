"""``python -m benchmarks.e2e``: see :mod:`benchmarks.e2e.driver`."""

import sys

from benchmarks.e2e.driver import main

sys.exit(main())
