"""Argument parsing shared by the ``python -m repro`` and ``repro.fio`` CLIs.

Every user-input check is an argparse ``type=``, so a bad value fails
while parsing, through :meth:`ArgumentParser.error`, before anything
runs.
"""

from __future__ import annotations

import argparse
import functools
import math
from typing import Callable, NoReturn, Optional, TypeVar, Union

from repro.ssd.registry import PRESET_ALIASES, resolve_spec

N = TypeVar("N", int, float)
T = TypeVar("T")


class ArgumentParser(argparse.ArgumentParser):
    """A bad flag fails with one line (``prog: error: ...``), no usage
    block; subcommand parsers inherit this class."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def number(
    kind: Callable[[str], N],
    *,
    minimum: Optional[Union[int, float]] = None,
    above: Optional[Union[int, float]] = None,
    maximum: Optional[Union[int, float]] = None,
) -> Callable[[str], N]:
    """argparse type: a finite ``kind`` (``int`` or ``float``) with
    ``value >= minimum``, ``value > above`` and ``value <= maximum``
    for each bound given."""
    if minimum is not None and maximum is not None:
        bounds = [f"in [{minimum}, {maximum}]"]
    else:
        bounds = [
            f"{op} {bound}"
            for op, bound in ((">=", minimum), (">", above), ("<=", maximum))
            if bound is not None
        ]
    noun = "an integer" if kind is int else "a number"
    expected = " ".join([noun, *bounds])

    def parse(text: str) -> N:
        error = argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        try:
            value = kind(text)
        except ValueError:
            raise error from None
        if (
            not math.isfinite(value)
            or (minimum is not None and value < minimum)
            or (above is not None and value <= above)
            or (maximum is not None and value > maximum)
        ):
            raise error
        return value

    return parse


def checked(parse: Callable[[str], T]) -> Callable[[str], T]:
    """argparse type from ``parse``: a ``ValueError`` it raises becomes
    the error line, and so does an ``OSError`` (``cannot read TEXT:
    ...``) when the text names a file."""

    @functools.wraps(parse)
    def convert(text: str) -> T:
        try:
            return parse(text)
        except OSError as exc:
            raise argparse.ArgumentTypeError(
                f"cannot read {text}: {exc.strerror or exc}"
            ) from None
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


@checked
def device(text: str) -> str:
    """argparse type: a registry name, preset alias or spec-file path.

    The spec is loaded and validated here (a bad one raises
    :class:`~repro.ssd.spec.DeviceSpecError`, a ``ValueError``); the
    name itself is what the caller receives."""
    resolve_spec(PRESET_ALIASES.get(text, text))
    return text


def add_device_flag(
    parser: argparse.ArgumentParser, *, default: Optional[str], help: str
) -> None:
    """Add ``--device NAME|PATH``, checked by :func:`device`."""
    parser.add_argument(
        "--device", type=device, metavar="NAME|PATH", default=default, help=help
    )
