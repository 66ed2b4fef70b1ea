"""Tests for the device registry (repro.ssd.registry).

The load-bearing guarantees:

* **one definition per paper device** — the ``ull``/``nvme`` preset
  aliases resolve through the ``zssd``/``intel750`` zoo specs, whose
  content is pinned by hash, and measurements run through an alias are
  byte-identical to runs of its target, serially and with worker
  fan-out;
* **cache-key discipline** — every device gets a content-addressed
  ``spec:<name>:<hash>`` key (an alias its target's), distinct per
  device.
"""

import dataclasses
import pickle

import pytest

from repro.core.runners import sync_point
from repro.core.sweep import ExperimentSpec, SweepEngine, point_cache_key
from repro.flash.timing import Z_NAND
from repro.ssd.registry import (
    DEVICES_DIR,
    PRESET_ALIASES,
    clear_cache,
    device_identity,
    device_override,
    effective_device,
    get_spec,
    list_devices,
    load_device_spec,
    register_spec,
    resolve_config,
    spec_label,
    unregister_spec,
)
from repro.ssd.spec import DeviceSpecError, spec_from_config

ZOO = ("intel750", "no-gc-pm", "planar-mlc", "qlc", "tlc-multistep", "zssd")


class TestRegistryBasics:
    def test_zoo_ships_the_promised_devices(self):
        names = list_devices()
        assert set(ZOO) <= set(names)
        assert len(names) >= 6

    def test_every_listed_device_resolves(self):
        for name in list_devices():
            config = resolve_config(name)
            assert config.channels >= 1
            assert spec_label(config) == name

    def test_unknown_name_is_a_spec_error_listing_choices(self):
        with pytest.raises(DeviceSpecError) as err:
            resolve_config("not-a-device")
        assert "zssd" in str(err.value) and "ull" in str(err.value)

    def test_spec_path_resolves(self):
        path = DEVICES_DIR / "qlc.toml"
        config = resolve_config(str(path))
        assert config == resolve_config("qlc")

    def test_load_device_spec(self):
        spec = load_device_spec(DEVICES_DIR / "zssd.toml")
        assert spec.name == "zssd"

    def test_file_stem_must_match_spec_name(self, tmp_path, monkeypatch):
        clear_cache()
        rogue = tmp_path / "alias.toml"
        rogue.write_text((DEVICES_DIR / "qlc.toml").read_text())
        monkeypatch.setattr("repro.ssd.registry.DEVICES_DIR", tmp_path)
        try:
            with pytest.raises(DeviceSpecError, match="stem"):
                get_spec("alias")
        finally:
            clear_cache()

    def test_register_and_unregister_in_process(self):
        spec = spec_from_config(resolve_config("zssd"), name="custom-dev")
        register_spec(spec)
        try:
            assert "custom-dev" in list_devices()
            assert resolve_config("custom-dev") == resolve_config("zssd")
        finally:
            unregister_spec(spec.name)
        assert "custom-dev" not in list_devices()

    def test_preset_names_reserved(self):
        spec = spec_from_config(resolve_config("zssd"), name="ull")
        with pytest.raises(DeviceSpecError, match="reserved"):
            register_spec(spec)

    def test_overrides_apply(self):
        config = resolve_config("zssd", (("overprovision", 0.33),))
        assert config.overprovision == 0.33


class TestGoldenIdentity:
    def test_zssd_config_equals_ull_preset(self):
        zssd, ull = resolve_config("zssd"), resolve_config("ull")
        assert zssd == ull
        assert (spec_label(zssd), spec_label(ull)) == ("zssd", "ull")

    def test_intel750_config_equals_nvme_preset(self):
        intel750, nvme = resolve_config("intel750"), resolve_config("nvme")
        assert intel750 == nvme
        assert (spec_label(intel750), spec_label(nvme)) == ("intel750", "nvme")

    def test_preset_aliases_build_presets(self):
        assert PRESET_ALIASES == {"ull": "zssd", "nvme": "intel750"}
        for alias, target in PRESET_ALIASES.items():
            assert resolve_config(alias) == get_spec(target).to_ssd_config()

    def _measure(self, device, jobs=1):
        engine = SweepEngine(jobs=jobs)
        spec = ExperimentSpec(
            name=f"golden-{device}",
            points=tuple(
                sync_point(device, rw, io_count=150, key=(rw,))
                for rw in ("randread", "randwrite")
            ),
        )
        return {
            key: pickle.dumps(m.result.latency)
            for key, m in engine.run(spec).items()
        }

    def test_zssd_measurements_byte_identical_to_preset_serial(self):
        assert self._measure("zssd") == self._measure("ull")

    def test_zssd_measurements_byte_identical_parallel(self):
        assert self._measure("zssd", jobs=4) == self._measure("ull")

    def test_intel750_measurements_byte_identical_to_preset(self):
        assert self._measure("intel750") == self._measure("nvme")


class TestPaperDevices:
    """Every zoo device, pinned: an edit to a spec file, or to how the
    schema resolves one, fails here (and re-keys every cached figure of
    that device on purpose)."""

    SPEC_HASHES = {
        "intel750":
            "ac8662688f644e3607715ed92bfd9eade1457b725f633b7991e99b9cf44c5d5a",
        "no-gc-pm":
            "f55a848ebf682416d433ae3a8725449db43123c1ac09c34a7c5cf89d9af7271d",
        "planar-mlc":
            "7e59e2547f01ea43b12822013a782bebf9738ff1da31cae0229dd3bddb683a49",
        "qlc":
            "7400f0d1dfecdc45d0ddd719f65a5b593ec5e7ca7d1a47164a977375b60e05b7",
        "tlc-multistep":
            "88390d443e8dab740b76bd5e67bdf50e015682be582e9bde8805895962e0b86a",
        "zssd":
            "4711e9fba5bb385894a92931bf23bdb50fd95b931a7a63ebb04e1437d72b5aed",
    }

    def test_spec_hashes_are_pinned(self):
        assert tuple(self.SPEC_HASHES) == ZOO
        for name, digest in self.SPEC_HASHES.items():
            assert get_spec(name).spec_hash() == digest, name

    def test_zssd_timing_is_table_one_z_nand(self):
        assert resolve_config("zssd").timing == Z_NAND


class TestCacheIdentity:
    def test_alias_identity_is_its_targets_spec(self):
        for alias, target in PRESET_ALIASES.items():
            assert device_identity(alias) == device_identity(target)
            assert device_identity(alias).startswith(f"spec:{target}:")

    def test_alias_identity_with_overrides(self):
        overrides = (("overprovision", 0.4),)
        assert device_identity("ull", overrides) == device_identity(
            "zssd", overrides
        )
        assert device_identity("ull", overrides) != device_identity("ull")

    def test_spec_identity_is_content_addressed(self):
        identity = device_identity("qlc")
        assert identity.startswith("spec:qlc:")
        assert identity == f"spec:qlc:{get_spec('qlc').spec_hash()}"

    def test_zoo_devices_get_distinct_cache_keys(self):
        keys = {
            point_cache_key(sync_point(name, "randread", io_count=100))
            for name in ZOO
        }
        assert len(keys) == len(ZOO)

    def test_zssd_and_ull_points_key_differently(self):
        # Deliberate: the point params carry the name the caller used,
        # so byte-identical *results* still land in separate cache rows.
        preset = point_cache_key(sync_point("ull", "randread", io_count=100))
        spec = point_cache_key(sync_point("zssd", "randread", io_count=100))
        assert preset != spec

    def test_editing_a_spec_rekeys_it(self):
        base = spec_from_config(resolve_config("zssd"), name="edit-me")
        edited = spec_from_config(
            dataclasses.replace(resolve_config("zssd"), overprovision=0.31),
            name="edit-me",
        )
        register_spec(base)
        try:
            before = device_identity("edit-me")
            register_spec(edited)
            after = device_identity("edit-me")
        finally:
            unregister_spec("edit-me")
        assert before != after


class TestDeviceOverride:
    def test_override_substitutes_at_declaration(self):
        with device_override("qlc"):
            point = sync_point("ull", "randread", io_count=100)
        assert dict(point.params)["device"] == "qlc"
        # ...but the default key still names the declared grid.
        assert point.key == ("ull", "randread", 4096, "interrupt", "kernel")

    def test_no_override_is_identity(self):
        assert effective_device("ull") == "ull"
        point = sync_point("ull", "randread", io_count=100)
        assert dict(point.params)["device"] == "ull"

    def test_override_validates_eagerly(self):
        with pytest.raises(DeviceSpecError):
            with device_override("no-such-device"):
                pass  # pragma: no cover

    def test_override_restores_on_exit(self):
        with device_override("qlc"):
            pass
        assert effective_device("ull") == "ull"
