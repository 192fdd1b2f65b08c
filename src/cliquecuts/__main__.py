"""``python -m cliquecuts``: the command line of cli.py."""
import sys

from .cli import main

sys.exit(main())
