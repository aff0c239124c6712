"""`python -m catbound ...`: the catbound command line (see catbound.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
