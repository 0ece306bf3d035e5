"""``python -m becircle``: the experiment CLI of experiments_cli."""
import sys

from .experiments_cli import main

if __name__ == "__main__":
    sys.exit(main())
