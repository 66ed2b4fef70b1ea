"""Argument parsing shared by the ``python -m repro`` and ``repro.fio`` CLIs."""

from __future__ import annotations

import argparse
from typing import NoReturn


class ArgumentParser(argparse.ArgumentParser):
    """A bad flag fails with one line (``prog: error: ...``), no usage
    block; subcommand parsers inherit this class."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")
