"""Flash memory device models.

Geometry (channels / ways / dies / planes / blocks / pages), timing
presets for the 3D flash technologies in the paper's Table I, and a
per-die operation model that supports the program suspend/resume
mechanism of Z-NAND (Section II-A3).
"""

from repro.flash.geometry import FlashGeometry
from repro.flash.timing import (
    BICS_3D,
    TABLE_I,
    V_NAND,
    Z_NAND,
    FlashTiming,
)
from repro.flash.chip import FlashDie, OpKind

__all__ = [
    "FlashGeometry",
    "FlashTiming",
    "FlashDie",
    "OpKind",
    "Z_NAND",
    "V_NAND",
    "BICS_3D",
    "TABLE_I",
]
