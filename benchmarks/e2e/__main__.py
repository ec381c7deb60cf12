"""``python -m benchmarks.e2e``: fix the environment, then run the CLI."""

import sys

from benchmarks.e2e import env

if __name__ == "__main__":
    env.prepare()
    from benchmarks.e2e.cli import main

    sys.exit(main())
