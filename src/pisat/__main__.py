"""``python -m pisat ...`` runs the command line, as the ``pisat`` script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
