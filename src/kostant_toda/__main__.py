"""python -m kostant_toda: the kostant-toda command line."""

import sys

from .cli import main

sys.exit(main())
