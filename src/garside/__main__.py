"""``python -m garside``: the command-line interface of `garside.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
