"""python -m spinorlab: the spinorlab command line (see spinorlab.cli)."""

from .cli import console_main

console_main()
