"""``python -m twinefold``: the ``twinefold`` command line."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
