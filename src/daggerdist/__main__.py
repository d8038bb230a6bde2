"""``python -m daggerdist``: the command-line driver, :func:`daggerdist.cli.main`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
