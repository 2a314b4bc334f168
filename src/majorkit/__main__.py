"""``python -m majorkit``: the command line, run as a module."""

from .cli import run

if __name__ == "__main__":
    run()
