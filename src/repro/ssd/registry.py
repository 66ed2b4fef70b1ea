"""The device registry: names -> validated specs -> ``SsdConfig``.

One lookup path for every way a caller can say "this device":

* a **preset alias** (``"ull"``/``"nvme"``) — the paper's two devices,
  resolved through their zoo specs ``zssd``/``intel750``
  (:data:`PRESET_ALIASES`) but labelled with the alias;
* a **registry name** (``"zssd"``, ``"qlc"``, ...) — a TOML spec from
  the built-in ``devices/`` tree or one registered in-process with
  :func:`register_spec`;
* a **path** (``"specs/mydev.toml"``) — any spec file on disk;
* a live :class:`~repro.ssd.spec.DeviceSpec` or
  :class:`~repro.ssd.config.SsdConfig` object.

Spec-built devices are identified in sweep cache keys by their
canonical :meth:`~repro.ssd.spec.DeviceSpec.spec_hash` (see
:func:`device_identity`), so two spec files describing the same device
share cache entries and any edit re-keys them.

The module also hosts the ambient *device override* the CLI's
``--device`` flag installs: figure grids declared against the paper's
two preset aliases re-point every measurement at the named device,
which is how any existing figure runs across the zoo.
"""

from __future__ import annotations

import contextlib
import dataclasses
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.ssd.config import SsdConfig
from repro.ssd.spec import DeviceSpec, DeviceSpecError

#: The built-in device zoo: TOML specs shipped with the package.
DEVICES_DIR = Path(__file__).resolve().parents[1] / "devices"

#: The paper's names for its two devices: each alias resolves through
#: the zoo spec it maps to.
PRESET_ALIASES: Dict[str, str] = {"ull": "zssd", "nvme": "intel750"}

#: Names reserved for the aliases (no spec may register under them).
PRESET_NAMES: Tuple[str, ...] = tuple(PRESET_ALIASES)

DeviceLike = Union[str, DeviceSpec, SsdConfig]

_spec_cache: Dict[str, DeviceSpec] = {}
_registered: Dict[str, DeviceSpec] = {}


# ----------------------------------------------------------------------
# Enumeration and lookup
# ----------------------------------------------------------------------
def list_devices() -> Tuple[str, ...]:
    """Sorted names of every registered device spec (the zoo).

    The ``"ull"``/``"nvme"`` preset aliases are not listed — their
    targets ``zssd``/``intel750`` are.
    """
    names = {path.stem for path in DEVICES_DIR.glob("*.toml")}
    names.update(path.stem for path in DEVICES_DIR.glob("*.json"))
    names.update(_registered)
    return tuple(sorted(names))


def register_spec(spec: DeviceSpec) -> DeviceSpec:
    """Register an in-process spec under its name (tests, notebooks)."""
    if spec.name in PRESET_NAMES:
        raise DeviceSpecError(
            f"{spec.name!r} is a reserved preset name", source=spec.source,
            keypath="name", value=spec.name,
        )
    _registered[spec.name] = spec
    return spec


def unregister_spec(name: str) -> None:
    """Remove an in-process registration (no-op for file-backed specs)."""
    _registered.pop(name, None)


def clear_cache() -> None:
    """Drop memoized file-backed specs (tests that rewrite spec files)."""
    _spec_cache.clear()


def load_device_spec(path: Union[str, Path]) -> DeviceSpec:
    """Load and validate a ``.toml``/``.json`` spec file."""
    return DeviceSpec.from_path(path)


def _looks_like_path(device: str) -> bool:
    return "/" in device or device.endswith((".toml", ".json"))


def get_spec(name: str) -> DeviceSpec:
    """The validated spec registered under ``name``.

    Raises :class:`DeviceSpecError` for unknown names, listing what is
    available (preset aliases resolve through :func:`resolve_config`,
    not here).
    """
    registered = _registered.get(name)
    if registered is not None:
        return registered
    cached = _spec_cache.get(name)
    if cached is not None:
        return cached
    for suffix in (".toml", ".json"):
        path = DEVICES_DIR / f"{name}{suffix}"
        if path.is_file():
            spec = DeviceSpec.from_path(path)
            if spec.name != name:
                raise DeviceSpecError(
                    f"spec file {path.name} declares name {spec.name!r}; "
                    "file stem and name must match",
                    source=str(path), keypath="name", value=spec.name,
                )
            _spec_cache[name] = spec
            return spec
    raise DeviceSpecError(
        "unknown device (registered: "
        + ", ".join(list_devices() + PRESET_NAMES) + ")",
        source="<registry>", keypath="device", value=name,
    )


def resolve_spec(device: DeviceLike) -> DeviceSpec:
    """``device`` as a :class:`DeviceSpec` (name, path, or spec object)."""
    if isinstance(device, DeviceSpec):
        return device
    if isinstance(device, SsdConfig):
        from repro.ssd.spec import spec_from_config

        return spec_from_config(device, name=device.name)
    if _looks_like_path(device):
        return load_device_spec(device)
    return get_spec(device)


# ----------------------------------------------------------------------
# Resolution to SsdConfig
# ----------------------------------------------------------------------
def resolve_config(
    device: DeviceLike,
    overrides: Tuple[Tuple[str, Any], ...] = (),
) -> SsdConfig:
    """The fully resolved :class:`SsdConfig` for ``device``.

    ``overrides`` are ``(field, value)`` pairs applied on top via
    ``dataclasses.replace`` — same semantics for every kind of device.
    """
    label: str
    if isinstance(device, SsdConfig):
        config = device
        label = spec_label(config)
    elif isinstance(device, DeviceSpec):
        config = device.to_ssd_config()
        label = device.name
    elif _looks_like_path(device):
        spec = load_device_spec(device)
        config, label = spec.to_ssd_config(), spec.name
    else:
        config = get_spec(PRESET_ALIASES.get(device, device)).to_ssd_config()
        label = device
    if overrides:
        config = dataclasses.replace(config, **dict(overrides))
    return _with_label(config, label)


def _with_label(config: SsdConfig, label: str) -> SsdConfig:
    """Attach the registry name as a non-field attribute.

    Deliberately *not* a dataclass field: it must stay out of
    ``asdict``/``repr``/``eq`` so an alias and its target compare equal
    (as do a resolved config and a hand-built one).
    """
    object.__setattr__(config, "_spec_label", label)
    return config


def spec_label(config: SsdConfig) -> str:
    """The registry name a config was resolved from (falls back to its
    display name for hand-built configs)."""
    return str(getattr(config, "_spec_label", config.name))


# ----------------------------------------------------------------------
# Sweep cache identity
# ----------------------------------------------------------------------
def device_identity(
    device: str, overrides: Tuple[Tuple[str, Any], ...] = ()
) -> str:
    """The string that identifies a device inside sweep cache keys.

    ``spec:<name>:<hash>``, content-addressed: editing a spec file
    re-keys its measurements while renaming the file does not change
    behavior.  A preset alias is keyed by its target's spec (points
    still carry the alias itself, so ``ull`` and ``zssd`` points keep
    separate cache rows).
    """
    if _looks_like_path(device):
        spec = load_device_spec(device)
    else:
        spec = get_spec(PRESET_ALIASES.get(device, device))
    identity = f"spec:{spec.name}:{spec.spec_hash()}"
    if overrides:
        identity += f":{sorted(overrides)!r}"
    return identity


# ----------------------------------------------------------------------
# The ambient device override (the CLI's --device flag)
# ----------------------------------------------------------------------
_override: Optional[str] = None


@contextlib.contextmanager
def device_override(device: Optional[str]) -> Iterator[None]:
    """Re-point figure grids at ``device`` for the duration.

    Point constructors consult :func:`effective_device`, so the
    substitution happens at *declaration* time — the override lands in
    each point's canonical parameters (and therefore its cache key),
    and worker processes need no ambient state.
    """
    global _override
    if device is not None:
        # Fail fast, with the single-error contract, before any figure
        # declares a grid against a bad name.
        if not isinstance(device, SsdConfig):
            resolve_config(device)
    previous = _override
    _override = device
    try:
        yield
    finally:
        _override = previous


def effective_device(device: str) -> str:
    """The device a figure's grid should actually measure."""
    return _override if _override is not None else device
