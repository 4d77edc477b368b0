"""`python -m hypersample`: the command line of the `hypersample` script."""

import sys

from . import cli

sys.exit(cli.main())
