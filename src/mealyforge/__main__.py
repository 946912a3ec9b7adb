"""``python -m mealyforge``: the same command line as the ``mealyforge`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
