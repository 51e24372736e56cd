"""``python -m veralg``: the command line front end of ``veralg.cli``."""

import sys

from .cli import main

sys.exit(main())
