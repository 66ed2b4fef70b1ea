"""Declarative device specs: the SSD as data, not code.

A :class:`DeviceSpec` is a validated, canonical description of one
simulated SSD — timing tables, channel/die topology, page/block
geometry, the write-buffer/read-cache hierarchy, suspend/resume and
program-step capabilities — loadable from TOML or JSON files under the
``devices/`` tree and convertible to the :class:`~repro.ssd.config.SsdConfig`
the simulator actually runs.  SimpleSSD and Amber treat the SSD as a
fully parameterized model; this module is that idea for this repo.

Three properties the rest of the system leans on:

* **Validation is front-loaded.**  Every key is checked against the
  schema before any construction happens; unknown keys, inconsistent
  geometry, and non-monotonic timing tables raise a single
  :class:`DeviceSpecError` naming the file, the key path, and the
  offending value — never a mid-construction traceback.
* **Canonical form.**  ``to_mapping()`` resolves every default, so two
  specs that describe the same device (one terse, one fully spelled
  out) produce identical mappings, identical TOML round-trips, and the
  same :meth:`DeviceSpec.spec_hash` — the identity the sweep cache keys
  spec-built measurements by.
* **No new config fields.**  Spec-only data (the ISPP program-step
  table, the description) never lands on :class:`SsdConfig` /
  :class:`FlashTiming`, so a spec-built config compares equal to a
  hand-built one with the same values.

See ``docs/devices.md`` for the schema reference and annotated examples.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple, Union, get_type_hints

from repro.flash.timing import FlashTiming
from repro.ssd.config import SsdConfig
from repro.ssd.power import PowerParams

#: Bump when the spec schema changes incompatibly.  Participates in
#: :meth:`DeviceSpec.spec_hash`, so a schema bump re-keys spec-built
#: sweep cache entries.
SPEC_SCHEMA = 1


class DeviceSpecError(ValueError):
    """A device spec failed validation.

    One exception type for every failure mode — unknown key, bad type,
    inconsistent geometry, non-monotonic timing table — carrying the
    spec source (file path or ``"<mapping>"``), the dotted key path,
    and the offending value, so the message always says *where* and
    *what* instead of surfacing a mid-construction traceback.
    """

    def __init__(
        self,
        reason: str,
        *,
        source: str = "<mapping>",
        keypath: str = "",
        value: Any = None,
    ) -> None:
        self.source = source
        self.keypath = keypath
        self.value = value
        where = source
        if keypath:
            where = f"{source}: {keypath}"
            if value is not None:
                where = f"{where} = {value!r}"
        super().__init__(f"{where}: {reason}")


# ----------------------------------------------------------------------
# Schema tables
# ----------------------------------------------------------------------
# (type, default) per key.  ``bool`` is checked before ``int`` (bools
# are ints in Python); ``float`` accepts ints.  A ``None`` default
# means the key is required.
_Field = Tuple[type, Any]

_TOP_FIELDS: Dict[str, _Field] = {
    "schema": (int, SPEC_SCHEMA),
    "name": (str, None),
    # SsdConfig.name; "" means the spec name.
    "label": (get_type_hints(SsdConfig)["name"], ""),
    "description": (str, ""),
}

#: Which spec section each SsdConfig field lives in, in spec order.  A
#: field whose type is a dataclass (``timing``, ``power``) brings all
#: of that dataclass's fields into its section.  Names, types and
#: defaults come from the dataclasses themselves.
_LAYOUT: Dict[str, Tuple[str, ...]] = {
    "timing": ("timing",),
    "geometry": (
        "channels", "ways_per_channel", "blocks_per_die", "pages_per_block",
        "physical_dies_per_die", "units_per_program", "super_channel",
    ),
    "capabilities": ("suspend_resume",),
    "fabric": ("channel_mbps",),
    "firmware": ("read_fw_ns", "write_fw_ns", "completion_fw_ns"),
    "buffers": (
        "write_buffer_units", "flush_coalesce_ns", "read_cache_units",
        "prefetch_ahead", "dram_hit_ns",
    ),
    "link": ("pcie_mbps", "pcie_latency_ns"),
    "ftl": (
        "overprovision", "gc_watermark_blocks", "gc_policy",
        "factory_bad_rate", "spare_blocks_per_die",
    ),
    "map_cache": ("map_cache_segments", "map_segment_units", "map_fetch_ns"),
    "stalls": (
        "read_stall_prob", "read_stall_ns", "write_stall_prob",
        "write_stall_ns",
    ),
    "power": ("power",),
}

#: SsdConfig fields whose spec key differs from the field name (the
#: top-level ``label`` is SsdConfig.name).
_RENAMED = {
    "map_cache_segments": "segments",
    "map_segment_units": "segment_units",
    "map_fetch_ns": "fetch_ns",
}

#: Spec defaults for two required FlashTiming fields: ``program_ns = 0``
#: means "the program-step sum", ``name = ""`` means "the spec name".
_SPEC_DEFAULTS = {("timing", "program_ns"): 0, ("timing", "name"): ""}

#: Keys that exist only in specs: the ISPP step table, and ``dies``, an
#: optional cross-check of channels * ways_per_channel.
_SPEC_ONLY: Dict[str, Dict[str, _Field]] = {
    "timing": {"program_step_ns": (list, [])},
    "geometry": {"dies": (int, 0)},
}


def _derive_schema() -> Tuple[
    Dict[str, Dict[str, _Field]], Dict[type, Tuple[Tuple[str, str, str], ...]]
]:
    """The per-section schema and, per dataclass, its ``(section, key,
    field)`` bindings, read from the dataclasses through ``_LAYOUT``."""
    schema: Dict[str, Dict[str, _Field]] = {}
    bindings: Dict[type, List[Tuple[str, str, str]]] = {}
    config_fields = {item.name: item for item in fields(SsdConfig)}
    config_hints = get_type_hints(SsdConfig)
    for section, names in _LAYOUT.items():
        keys: Dict[str, _Field] = {}
        for name in names:
            owner = config_hints[name]
            if is_dataclass(owner):
                members, hints = fields(owner), get_type_hints(owner)
            else:
                owner, hints = SsdConfig, config_hints
                members = (config_fields[name],)
            for member in members:
                key = _RENAMED.get(member.name, member.name)
                default = None if member.default is MISSING else member.default
                keys[key] = (
                    hints[member.name],
                    _SPEC_DEFAULTS.get((section, key), default),
                )
                bindings.setdefault(owner, []).append((section, key, member.name))
        keys.update(_SPEC_ONLY.get(section, {}))
        schema[section] = keys
    listed = sorted(["name", *(n for names in _LAYOUT.values() for n in names)])
    if listed != sorted(config_fields):
        raise TypeError(
            "spec layout must place every SsdConfig field exactly once "
            f"(listed {listed}, fields {sorted(config_fields)})"
        )
    return schema, {owner: tuple(items) for owner, items in bindings.items()}


_SECTION_FIELDS, _BINDINGS = _derive_schema()


def _type_name(expected: type) -> str:
    return {int: "integer", float: "number", str: "string", bool: "boolean",
            list: "array"}[expected]


def _check_type(
    value: Any, expected: type, *, source: str, keypath: str
) -> Any:
    """Type-check one leaf value (TOML/JSON scalar) against the schema."""
    if expected is bool:
        if not isinstance(value, bool):
            raise DeviceSpecError(
                "expected a boolean", source=source, keypath=keypath, value=value
            )
        return value
    if isinstance(value, bool):  # bool passes isinstance(int) checks
        raise DeviceSpecError(
            f"expected a {_type_name(expected)}, got a boolean",
            source=source, keypath=keypath, value=value,
        )
    if expected is int:
        if not isinstance(value, int):
            raise DeviceSpecError(
                "expected an integer", source=source, keypath=keypath, value=value
            )
        return value
    if expected is float:
        if not isinstance(value, (int, float)):
            raise DeviceSpecError(
                "expected a number", source=source, keypath=keypath, value=value
            )
        return float(value)
    if expected is str:
        if not isinstance(value, str):
            raise DeviceSpecError(
                "expected a string", source=source, keypath=keypath, value=value
            )
        return value
    if expected is list:
        if not isinstance(value, list) or any(
            not isinstance(item, int) or isinstance(item, bool) for item in value
        ):
            raise DeviceSpecError(
                "expected an array of integers",
                source=source, keypath=keypath, value=value,
            )
        return list(value)
    raise AssertionError(f"unhandled schema type {expected!r}")


# ----------------------------------------------------------------------
# Cross-field validation
# ----------------------------------------------------------------------
def _require(
    condition: bool, reason: str, *, source: str, keypath: str, value: Any
) -> None:
    if not condition:
        raise DeviceSpecError(reason, source=source, keypath=keypath, value=value)


def _validate_semantics(sections: Dict[str, Dict[str, Any]], source: str) -> None:
    """Every cross-field invariant, checked before any construction."""
    timing = sections["timing"]
    geometry = sections["geometry"]
    ftl = sections["ftl"]
    stalls = sections["stalls"]

    # --- timing table -------------------------------------------------
    steps: List[int] = timing["program_step_ns"]
    if steps:
        _require(
            all(step > 0 for step in steps),
            "program steps must be positive",
            source=source, keypath="[timing].program_step_ns", value=steps,
        )
        _require(
            all(b >= a for a, b in zip(steps, steps[1:])),
            "program-step table must be monotonically non-decreasing "
            "(ISPP steps never shrink)",
            source=source, keypath="[timing].program_step_ns", value=steps,
        )
        total = sum(steps)
        if timing["program_ns"]:
            _require(
                timing["program_ns"] == total,
                f"program_ns must equal the program-step sum ({total})",
                source=source, keypath="[timing].program_ns",
                value=timing["program_ns"],
            )
        else:
            timing["program_ns"] = total
    _require(
        timing["program_ns"] > 0,
        "either program_ns or a program_step_ns table is required",
        source=source, keypath="[timing].program_ns", value=timing["program_ns"],
    )
    for key in ("read_ns", "erase_ns", "bus_mbps"):
        _require(
            timing[key] > 0, f"{key} must be positive",
            source=source, keypath=f"[timing].{key}", value=timing[key],
        )
    for key in ("suspend_ns", "resume_ns", "max_suspends_per_op"):
        _require(
            timing[key] >= 0, f"{key} must be >= 0",
            source=source, keypath=f"[timing].{key}", value=timing[key],
        )
    for key in ("read_jitter", "program_jitter"):
        _require(
            0.0 <= timing[key] < 1.0, f"{key} must be in [0, 1)",
            source=source, keypath=f"[timing].{key}", value=timing[key],
        )

    # --- geometry -----------------------------------------------------
    for key in ("channels", "ways_per_channel", "blocks_per_die",
                "pages_per_block", "physical_dies_per_die", "units_per_program"):
        _require(
            geometry[key] >= 1, f"{key} must be >= 1",
            source=source, keypath=f"[geometry].{key}", value=geometry[key],
        )
    dies = geometry["channels"] * geometry["ways_per_channel"]
    if geometry["dies"]:
        _require(
            geometry["dies"] % geometry["channels"] == 0,
            f"dies must be divisible by channels ({geometry['channels']})",
            source=source, keypath="[geometry].dies", value=geometry["dies"],
        )
        _require(
            geometry["dies"] == dies,
            f"dies must equal channels * ways_per_channel ({dies})",
            source=source, keypath="[geometry].dies", value=geometry["dies"],
        )
    else:
        geometry["dies"] = dies
    _require(
        geometry["pages_per_block"] % geometry["units_per_program"] == 0,
        "pages_per_block must be divisible by units_per_program "
        "(programs commit whole mapping-unit groups)",
        source=source, keypath="[geometry].pages_per_block",
        value=geometry["pages_per_block"],
    )
    if geometry["super_channel"]:
        _require(
            geometry["physical_dies_per_die"] == 2,
            "super-channel devices pair exactly two physical dies "
            "(physical_dies_per_die must be 2)",
            source=source, keypath="[geometry].super_channel", value=True,
        )

    # --- FTL / stalls -------------------------------------------------
    _require(
        0.0 <= ftl["overprovision"] < 1.0, "overprovision must be in [0, 1)",
        source=source, keypath="[ftl].overprovision", value=ftl["overprovision"],
    )
    _require(
        ftl["gc_policy"] in ("greedy", "cost-benefit"),
        "gc_policy must be 'greedy' or 'cost-benefit'",
        source=source, keypath="[ftl].gc_policy", value=ftl["gc_policy"],
    )
    _require(
        0.0 <= ftl["factory_bad_rate"] < 1.0,
        "factory_bad_rate must be in [0, 1)",
        source=source, keypath="[ftl].factory_bad_rate",
        value=ftl["factory_bad_rate"],
    )
    for key in ("read_stall_prob", "write_stall_prob"):
        _require(
            0.0 <= stalls[key] < 1.0, f"{key} must be in [0, 1)",
            source=source, keypath=f"[stalls].{key}", value=stalls[key],
        )


# ----------------------------------------------------------------------
# The spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeviceSpec:
    """One validated, fully resolved device description.

    ``sections`` is the canonical nested form: every schema key present
    with defaults resolved, so equal devices hash equal regardless of
    how tersely their files were written.  Build instances with
    :meth:`from_mapping` / :meth:`from_path`, never directly.
    """

    name: str
    label: str
    description: str
    schema: int
    sections: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]
    source: str = "<mapping>"

    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(
        cls, mapping: Mapping[str, Any], *, source: str = "<mapping>"
    ) -> "DeviceSpec":
        """Validate ``mapping`` (parsed TOML/JSON) into a spec."""
        if not isinstance(mapping, Mapping):
            raise DeviceSpecError(
                "device spec must be a table/object", source=source,
                value=type(mapping).__name__,
            )
        top: Dict[str, Any] = {}
        raw_sections: Dict[str, Mapping[str, Any]] = {}
        for key in sorted(mapping):
            value = mapping[key]
            if key in _TOP_FIELDS:
                top[key] = _check_type(
                    value, _TOP_FIELDS[key][0], source=source, keypath=key
                )
            elif key in _SECTION_FIELDS:
                if not isinstance(value, Mapping):
                    raise DeviceSpecError(
                        f"expected a [{key}] table", source=source,
                        keypath=key, value=value,
                    )
                raw_sections[key] = value
            else:
                raise DeviceSpecError(
                    "unknown key (known sections: "
                    + ", ".join(sorted(_SECTION_FIELDS)) + ")",
                    source=source, keypath=key, value=value,
                )
        for key, (expected, default) in _TOP_FIELDS.items():
            if key not in top:
                if default is None:
                    raise DeviceSpecError(
                        f"required key {key!r} is missing", source=source,
                        keypath=key,
                    )
                top[key] = default
        if top["schema"] != SPEC_SCHEMA:
            raise DeviceSpecError(
                f"unsupported spec schema (this build reads schema {SPEC_SCHEMA})",
                source=source, keypath="schema", value=top["schema"],
            )
        if not top["name"]:
            raise DeviceSpecError(
                "name must be a non-empty string", source=source,
                keypath="name", value=top["name"],
            )

        sections: Dict[str, Dict[str, Any]] = {}
        for section, fields in _SECTION_FIELDS.items():
            raw = raw_sections.get(section, {})
            resolved: Dict[str, Any] = {}
            for key in sorted(raw):
                if key not in fields:
                    raise DeviceSpecError(
                        f"unknown key in [{section}] (known: "
                        + ", ".join(sorted(fields)) + ")",
                        source=source, keypath=f"[{section}].{key}",
                        value=raw[key],
                    )
                resolved[key] = _check_type(
                    raw[key], fields[key][0], source=source,
                    keypath=f"[{section}].{key}",
                )
            for key, (expected, default) in fields.items():
                if key not in resolved:
                    if default is None:
                        raise DeviceSpecError(
                            f"required key [{section}].{key} is missing",
                            source=source, keypath=f"[{section}].{key}",
                        )
                    resolved[key] = (
                        list(default) if isinstance(default, list) else default
                    )
            sections[section] = resolved

        _validate_semantics(sections, source)

        canonical = tuple(
            (section, tuple(sorted(
                (key, tuple(value) if isinstance(value, list) else value)
                for key, value in sections[section].items()
            )))
            for section in sorted(sections)
        )
        return cls(
            name=top["name"],
            label=top["label"] or top["name"],
            description=top["description"],
            schema=top["schema"],
            sections=canonical,
            source=source,
        )

    @classmethod
    def from_path(cls, path: Union[str, Path]) -> "DeviceSpec":
        """Load and validate a ``.toml`` or ``.json`` spec file."""
        location = Path(path)
        try:
            text = location.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DeviceSpecError(
                f"cannot read spec file: {exc}", source=str(location)
            ) from exc
        suffix = location.suffix.lower()
        if suffix == ".json":
            try:
                mapping = json.loads(text)
            except json.JSONDecodeError as exc:
                raise DeviceSpecError(
                    f"invalid JSON: {exc}", source=str(location)
                ) from exc
        elif suffix == ".toml":
            import tomllib

            try:
                mapping = tomllib.loads(text)
            except tomllib.TOMLDecodeError as exc:
                raise DeviceSpecError(
                    f"invalid TOML: {exc}", source=str(location)
                ) from exc
        else:
            raise DeviceSpecError(
                "spec files must end in .toml or .json",
                source=str(location), value=location.suffix,
            )
        return cls.from_mapping(mapping, source=str(location))

    # ------------------------------------------------------------------
    def section(self, name: str) -> Dict[str, Any]:
        """One resolved section as a plain dict."""
        for section, items in self.sections:
            if section == name:
                return {
                    key: list(value) if isinstance(value, tuple) else value
                    for key, value in items
                }
        raise KeyError(name)

    def to_mapping(self) -> Dict[str, Any]:
        """The canonical, fully resolved nested-dict form."""
        document: Dict[str, Any] = {
            "schema": self.schema,
            "name": self.name,
            "label": self.label,
            "description": self.description,
        }
        for section, _items in self.sections:
            document[section] = self.section(section)
        return document

    def spec_hash(self) -> str:
        """Canonical content hash: the identity of spec-built devices.

        Stable across load format (TOML vs JSON), key order, and
        whether defaults were spelled out — it hashes the resolved
        canonical form, plus the schema version so schema bumps re-key.
        """
        blob = repr((SPEC_SCHEMA, self.name, self.label, self.sections))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    def _fields_of(self, owner: type) -> Dict[str, Any]:
        """Keyword arguments for ``owner`` (SsdConfig or one of its
        nested dataclasses) from the resolved sections."""
        sections = {section: dict(items) for section, items in self.sections}
        return {
            name: sections[section][key]
            for section, key, name in _BINDINGS[owner]
        }

    def flash_timing(self) -> FlashTiming:
        values = self._fields_of(FlashTiming)
        values["name"] = values["name"] or self.name
        return FlashTiming(**values)

    def to_ssd_config(self) -> SsdConfig:
        """The :class:`SsdConfig` this spec describes.

        Validation already proved every invariant the config's own
        ``__post_init__`` checks, so construction cannot raise; a
        residual error would be a schema bug and is re-raised as
        :class:`DeviceSpecError` anyway (never a bare traceback).
        """
        try:
            return SsdConfig(
                name=self.label,
                timing=self.flash_timing(),
                power=PowerParams(**self._fields_of(PowerParams)),
                **self._fields_of(SsdConfig),
            )
        except ValueError as exc:  # pragma: no cover - belt and braces
            raise DeviceSpecError(str(exc), source=self.source) from exc

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Canonical JSON text (round-trips through :meth:`from_mapping`)."""
        return json.dumps(self.to_mapping(), indent=2, sort_keys=False) + "\n"

    def to_toml(self) -> str:
        """Canonical TOML text (round-trips through :meth:`from_path`)."""
        document = self.to_mapping()
        lines: List[str] = []
        for key in ("schema", "name", "label", "description"):
            lines.append(f"{key} = {_toml_value(document[key])}")
        for section, _items in self.sections:
            table = document[section]
            lines.append("")
            lines.append(f"[{section}]")
            for key in sorted(table):
                lines.append(f"{key} = {_toml_value(table[key])}")
        return "\n".join(lines) + "\n"


def _toml_value(value: Any) -> str:
    """Serialize one scalar/array for :meth:`DeviceSpec.to_toml`.

    ``repr`` round-trips Python floats exactly, so a dumped spec parses
    back to the same canonical mapping (hash-stable round trip); the
    only adjustment is TOML's lowercase booleans and quoted strings.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        # TOML floats need a dot or exponent ("1e-05" parses; "1." not
        # emitted by repr); integral floats repr as "1.0" which is fine.
        return text
    if isinstance(value, str):
        return json.dumps(value)  # JSON string escaping is valid TOML
    if isinstance(value, list):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} to TOML")


def spec_from_config(
    config: SsdConfig, *, name: str, description: str = ""
) -> DeviceSpec:
    """Express an :class:`SsdConfig` as a spec.

    ``devices show`` uses it to present a preset alias under its own
    name, and :func:`repro.ssd.registry.resolve_spec` to accept a raw
    config wherever a spec is expected.
    """
    mapping: Dict[str, Any] = {
        "schema": SPEC_SCHEMA,
        "name": name,
        "label": config.name,
        "description": description,
    }
    objects = {SsdConfig: config, FlashTiming: config.timing, PowerParams: config.power}
    for owner, bindings in _BINDINGS.items():
        for section, key, field_name in bindings:
            mapping.setdefault(section, {})[key] = getattr(objects[owner], field_name)
    return DeviceSpec.from_mapping(mapping, source=f"<config:{name}>")
