"""``python -m multiscat``: the same command line as the ``multiscat`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
