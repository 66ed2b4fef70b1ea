"""SSD device models.

The controller wires the flash array (:mod:`repro.flash`), the FTL
(:mod:`repro.ftl`), the DRAM caches, the channel/super-channel transfer
fabric, and the power meter into a device that serves block requests on
the simulated timeline.

Device configurations come from the declarative spec registry
(:mod:`repro.ssd.registry` / :mod:`repro.ssd.spec`, documented in
``docs/devices.md``): ``resolve_config("zssd")`` builds the paper's
800 GB Z-SSD prototype, ``resolve_config("intel750")`` the Intel
750-class NVMe comparison device, and the rest of the zoo
(``planar-mlc``, ``tlc-multistep``, ``qlc``, ``no-gc-pm``) covers other
flash generations.  The paper's names ``"ull"``/``"nvme"`` are aliases
of ``zssd``/``intel750``.
"""

from repro.ssd.config import SsdConfig
from repro.ssd.cache import ReadCache, WriteBuffer
from repro.ssd.channels import ChannelArray
from repro.ssd.power import PowerMeter, PowerParams
from repro.ssd.device import IoRecord, SsdDevice
from repro.ssd.registry import list_devices, load_device_spec, resolve_config
from repro.ssd.spec import DeviceSpec, DeviceSpecError

__all__ = [
    "SsdConfig",
    "ReadCache",
    "WriteBuffer",
    "ChannelArray",
    "PowerMeter",
    "PowerParams",
    "SsdDevice",
    "IoRecord",
    "DeviceSpec",
    "DeviceSpecError",
    "list_devices",
    "load_device_spec",
    "resolve_config",
]
