"""``python -m forcelab``: the command line of ``forcelab.cli``."""

import sys

from .cli import main

sys.exit(main())
