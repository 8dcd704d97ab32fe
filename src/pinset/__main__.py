"""``python -m pinset``: the ``pinset`` command (see :mod:`pinset.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
