"""``python -m statecut``: the ``statecut`` command line."""

import sys

from .cli import main

sys.exit(main())
