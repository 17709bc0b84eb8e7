"""``python -m repro.sweep`` entry point."""

import sys

from repro.sweep.harness import main

sys.exit(main())
