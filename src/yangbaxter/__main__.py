"""Run the command-line front end as ``python -m yangbaxter``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
