"""Run the command line as ``python -m orbitstar``."""

from .cli import run

run()
