"""uio/vfio driver binding.

SPDK setup unbinds the device from the kernel ``nvme`` driver and
rebinds it to ``uio_pci_generic`` (or vfio), after which the kernel no
longer services it — no block device node, no interrupts, user space
owns the BARs.  The binding model enforces that ordering when
:class:`~repro.spdk.stack.SpdkStack` sets up: uio binds only to an
unbound device, and unbinding twice is an error.  Nothing models the
way back to the kernel driver, and the kernel stack checks no binding.
"""

from __future__ import annotations

import enum


class DriverBinding(enum.Enum):
    """Which driver currently owns the PCIe function."""

    KERNEL_NVME = "nvme"
    UIO = "uio_pci_generic"
    UNBOUND = "none"


class UioBinding:
    """Tracks and transitions a device's driver binding."""

    def __init__(self) -> None:
        self.binding = DriverBinding.KERNEL_NVME
        self.transitions = 0

    def unbind(self) -> None:
        """Detach whatever driver owns the device."""
        if self.binding is DriverBinding.UNBOUND:
            raise RuntimeError("device is already unbound")
        self.binding = DriverBinding.UNBOUND
        self.transitions += 1

    def bind_uio(self) -> None:
        """Attach the user-space I/O driver (requires prior unbind)."""
        if self.binding is not DriverBinding.UNBOUND:
            raise RuntimeError(
                f"cannot bind uio while bound to {self.binding.value}; unbind first"
            )
        self.binding = DriverBinding.UIO
        self.transitions += 1
