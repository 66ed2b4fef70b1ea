"""Tests for the declarative device-spec schema (repro.ssd.spec).

Covers the single-error contract — every invalid spec raises one
:class:`DeviceSpecError` naming source, key path, and offending value,
never a mid-construction traceback — plus canonical hashing and the
spec -> TOML -> spec round trip.
"""

import json

import pytest

from repro.ssd.config import SsdConfig
from repro.ssd.registry import resolve_config, resolve_spec
from repro.ssd.spec import (
    DeviceSpec,
    DeviceSpecError,
    spec_from_config,
)

MINIMAL = {
    "schema": 1,
    "name": "dev",
    "timing": {
        "name": "T",
        "read_ns": 3000,
        "program_ns": 100000,
        "erase_ns": 1000000,
        "bus_mbps": 1200,
    },
    "geometry": {
        "channels": 8,
        "ways_per_channel": 2,
        "blocks_per_die": 64,
        "pages_per_block": 256,
    },
}


def mutate(**sections):
    """MINIMAL with per-section key overrides merged in."""
    doc = {k: (dict(v) if isinstance(v, dict) else v) for k, v in MINIMAL.items()}
    for section, table in sections.items():
        if isinstance(table, dict):
            doc.setdefault(section, {}).update(table)
        else:
            doc[section] = table
    return doc


class TestValidation:
    def test_minimal_spec_builds_a_config(self):
        spec = DeviceSpec.from_mapping(MINIMAL, source="<test>")
        config = spec.to_ssd_config()
        assert isinstance(config, SsdConfig)
        assert config.channels == 8

    def test_unknown_top_level_key(self):
        with pytest.raises(DeviceSpecError) as err:
            DeviceSpec.from_mapping(mutate(bogus={"x": 1}), source="<test>")
        assert "bogus" in str(err.value) and "<test>" in str(err.value)

    def test_unknown_section_key_names_keypath(self):
        with pytest.raises(DeviceSpecError) as err:
            DeviceSpec.from_mapping(
                mutate(timing={"warp_factor": 9}), source="<test>"
            )
        message = str(err.value)
        assert "[timing].warp_factor" in message

    def test_error_carries_source_keypath_value(self):
        with pytest.raises(DeviceSpecError) as err:
            DeviceSpec.from_mapping(
                mutate(geometry={"channels": 0}), source="myfile.toml"
            )
        assert err.value.source == "myfile.toml"
        assert err.value.keypath == "[geometry].channels"
        assert err.value.value == 0

    def test_inconsistent_die_count(self):
        with pytest.raises(DeviceSpecError) as err:
            DeviceSpec.from_mapping(
                mutate(geometry={"dies": 7}), source="<test>"
            )
        assert "[geometry].dies" in str(err.value)

    def test_non_monotonic_program_steps(self):
        with pytest.raises(DeviceSpecError) as err:
            DeviceSpec.from_mapping(
                mutate(timing={"program_step_ns": [300, 200, 400]}),
                source="<test>",
            )
        message = str(err.value)
        assert "program_step_ns" in message and "monotonic" in message

    def test_step_sum_must_match_explicit_program_ns(self):
        with pytest.raises(DeviceSpecError):
            DeviceSpec.from_mapping(
                mutate(
                    timing={
                        "program_step_ns": [100, 200],
                        "program_ns": 999,
                    }
                ),
                source="<test>",
            )

    def test_step_table_defaults_program_ns_to_sum(self):
        doc = mutate(timing={"program_step_ns": [40000, 60000]})
        del doc["timing"]["program_ns"]
        spec = DeviceSpec.from_mapping(doc, source="<test>")
        assert spec.to_ssd_config().timing.program_ns == 100000

    def test_wrong_value_type(self):
        with pytest.raises(DeviceSpecError) as err:
            DeviceSpec.from_mapping(
                mutate(timing={"read_ns": "fast"}), source="<test>"
            )
        assert "'fast'" in str(err.value)

    def test_super_channel_requires_paired_dies(self):
        with pytest.raises(DeviceSpecError):
            DeviceSpec.from_mapping(
                mutate(geometry={"super_channel": True}), source="<test>"
            )

    def test_bad_gc_policy(self):
        with pytest.raises(DeviceSpecError) as err:
            DeviceSpec.from_mapping(
                mutate(ftl={"gc_policy": "mostly-random"}), source="<test>"
            )
        assert "[ftl].gc_policy" in str(err.value)

    def test_errors_never_escape_as_other_types(self):
        # The contract: *any* malformed mapping surfaces as
        # DeviceSpecError, not TypeError/KeyError from mid-construction.
        malformed = [
            mutate(timing=[1, 2, 3]),
            mutate(geometry={"pages_per_block": -5}),
            mutate(ftl={"overprovision": 1.5}),
            {"schema": 1, "name": "x"},
            {"schema": 99, "name": "x"},
        ]
        for doc in malformed:
            with pytest.raises(DeviceSpecError):
                DeviceSpec.from_mapping(doc, source="<test>")


class TestRoundTrip:
    def test_toml_round_trip_is_hash_stable(self, tmp_path):
        spec = spec_from_config(resolve_config("zssd"), name="rt")
        path = tmp_path / "rt.toml"
        path.write_text(spec.to_toml())
        again = DeviceSpec.from_path(path)
        assert again.spec_hash() == spec.spec_hash()
        assert again.to_ssd_config() == spec.to_ssd_config()

    def test_json_round_trip_is_hash_stable(self, tmp_path):
        spec = spec_from_config(resolve_config("intel750"), name="rt")
        path = tmp_path / "rt.json"
        path.write_text(spec.to_json())
        again = DeviceSpec.from_path(path)
        assert again.spec_hash() == spec.spec_hash()
        assert again.to_ssd_config() == spec.to_ssd_config()

    def test_terse_and_explicit_specs_hash_equal(self):
        # Defaults are resolved before hashing: spelling a default out
        # must not re-key the device.
        terse = DeviceSpec.from_mapping(MINIMAL, source="<terse>")
        explicit = DeviceSpec.from_mapping(
            mutate(ftl={"overprovision": terse.to_ssd_config().overprovision}),
            source="<explicit>",
        )
        assert terse.spec_hash() == explicit.spec_hash()

    def test_hash_changes_with_content(self):
        a = DeviceSpec.from_mapping(MINIMAL, source="<a>")
        b = DeviceSpec.from_mapping(
            mutate(timing={"read_ns": 3001}), source="<b>"
        )
        assert a.spec_hash() != b.spec_hash()

    def test_source_does_not_affect_hash(self):
        a = DeviceSpec.from_mapping(MINIMAL, source="<a>")
        b = DeviceSpec.from_mapping(MINIMAL, source="/elsewhere/dev.toml")
        assert a.spec_hash() == b.spec_hash()

    def test_json_output_is_valid_json(self):
        spec = DeviceSpec.from_mapping(MINIMAL, source="<test>")
        doc = json.loads(spec.to_json())
        assert doc["name"] == "dev"


class TestUnreadableFiles:
    def test_non_utf8_file_is_a_spec_error_naming_the_file(self, tmp_path):
        path = tmp_path / "bin.toml"
        path.write_bytes(b"\xff\xfe not text")
        with pytest.raises(DeviceSpecError) as excinfo:
            DeviceSpec.from_path(path)
        assert excinfo.value.source == str(path)
        assert str(excinfo.value).startswith(f"{path}: cannot read spec file: ")

    def test_missing_file_is_a_spec_error_naming_the_file(self, tmp_path):
        path = tmp_path / "absent.toml"
        with pytest.raises(DeviceSpecError) as excinfo:
            DeviceSpec.from_path(path)
        assert excinfo.value.source == str(path)


class TestPresetTwins:
    """``spec_from_config`` inverts ``to_ssd_config`` on the paper's
    devices (``devices show ull`` relies on it)."""

    def test_generated_zssd_spec_equals_preset(self):
        spec = spec_from_config(resolve_config("ull"), name="zssd")
        assert spec.to_ssd_config() == resolve_config("zssd")
        assert spec.spec_hash() == resolve_spec("zssd").spec_hash()

    def test_generated_intel750_spec_equals_preset(self):
        spec = spec_from_config(resolve_config("nvme"), name="intel750")
        assert spec.to_ssd_config() == resolve_config("intel750")
        assert spec.spec_hash() == resolve_spec("intel750").spec_hash()
