"""``python -m perfbench`` (run from the repository root)."""

import sys
import time

_STARTED = time.perf_counter()

from .cli import main  # noqa: E402 - the clock starts before the imports

if __name__ == "__main__":
    sys.exit(main(started=_STARTED))
