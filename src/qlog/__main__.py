"""`python -m qlog ...`: the `qlog` command line."""

import sys

from .cli import main

sys.exit(main())
