"""``python -m stardisk``: the command line of :mod:`stardisk.cli`."""

from .cli import run

run()
