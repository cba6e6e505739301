"""Entry point for `python -m linarr`; same interface as the `linarr` script."""

from .cli import main

if __name__ == "__main__":
    main()
