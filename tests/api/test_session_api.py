"""The Espresso session API: surface, config ownership, config carry.

Three contracts pinned here:

* the public surface (names + signatures, including the keyword-only
  ``config=`` way in) is a reviewed artifact — adding, removing or
  reshaping a method must show up as a diff in ``EXPECTED_SURFACE``;
* a session owns a private copy of its ``EspressoConfig``, so one config
  can seed many sessions without them sharing registries;
* ``restart()`` / ``restart(crash=True)`` carry the *full* session
  config — clock, latency, heap config, alias awareness, observatory,
  ``gc_workers``, ``mutators`` — instead of silently resetting knobs to
  defaults.
"""

import inspect
import warnings
from pathlib import Path

import pytest

from repro.api import Espresso, EspressoConfig, open_heap
from repro.fleet import FleetRouter
from repro.nvm.clock import Clock
from repro.nvm.latency import LatencyConfig
from repro.obs import NULL_OBS, Observatory
from repro.runtime.dram_heap import HeapConfig
from repro.runtime.klass import FieldKind, field

# The public surface: method name -> parameter names (self and cls
# excluded).  Keyword-only parameters are marked with a leading "*".
EXPECTED_SURFACE = {
    "__init__": ["heap_dir", "*config"],
    "session": ["heap_dir", "name", "*size_bytes", "*safety",
                "*region_words", "*config"],
    "define_class": ["name", "fields", "super_klass"],
    "new": ["klass"],
    "new_array": ["element", "length"],
    "new_string": ["text"],
    "new_multi_array": ["element", "dims"],
    "pnew": ["klass", "heap"],
    "pnew_array": ["element", "length", "heap"],
    "pnew_string": ["text", "heap"],
    "pnew_multi_array": ["element", "dims", "heap"],
    "get_declared_field": ["handle", "field_name"],
    "set_field": ["handle", "name", "value"],
    "get_field": ["handle", "name"],
    "array_get": ["handle", "index"],
    "array_set": ["handle", "index", "value"],
    "array_length": ["handle"],
    "read_string": ["handle"],
    "checkcast": ["handle", "target"],
    "instance_of": ["handle", "target"],
    "create_heap": ["name", "size_bytes", "safety", "region_words"],
    "load_heap": ["name", "safety", "salvage"],
    "exists_heap": ["name"],
    "set_root": ["root_name", "value", "heap"],
    "get_root": ["root_name", "heap"],
    "flush_field": ["handle", "field_name"],
    "flush_array_element": ["handle", "index"],
    "flush_object": ["handle"],
    "flush_reachable": ["handle"],
    "system_gc": [],
    "persistent_gc": ["heap"],
    "persistent_type": ["target"],
    "register_task": ["name", "fn"],
    "resumable_task": ["name", "heap"],
    "shutdown": [],
    "crash": [],
    "restart": ["crash"],
    "mutator_gang": ["seed", "mutators"],
}

#: The sharded way in: everything after ``fleet_dir`` is keyword-only.
EXPECTED_FLEET_SURFACE = {
    "create": ["fleet_dir", "*config", "*clock"],
    "load": ["fleet_dir", "*config", "*clock"],
}


def _params(func):
    return [("*" if p.kind is p.KEYWORD_ONLY else "") + name
            for name, p in inspect.signature(func).parameters.items()
            if name not in ("self", "cls")]


def test_api_surface_snapshot():
    surface = {}
    for name, member in vars(Espresso).items():
        if name.startswith("_") and name != "__init__":
            continue
        if isinstance(member, property):
            continue
        func = member.__func__ if isinstance(member, classmethod) else member
        if callable(func):
            surface[name] = _params(func)
    assert surface == EXPECTED_SURFACE
    assert {name: _params(getattr(FleetRouter, name))
            for name in EXPECTED_FLEET_SURFACE} == EXPECTED_FLEET_SURFACE


def test_properties_exposed():
    assert isinstance(Espresso.clock, property)
    assert isinstance(Espresso.obs, property)


def test_config_dataclass_fields():
    assert [f.name for f in EspressoConfig.__dataclass_fields__.values()] \
        == ["clock", "latency", "heap_config", "alias_aware", "observatory",
            "gc_workers", "mutators", "safety_certificate",
            "elision_certificate", "alloc_buffer_words", "resumable",
            "task_registry", "persistent_types"]


def test_snake_case_calls_never_warn(tmp_path):
    jvm = Espresso(tmp_path / "heaps")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        jvm.create_heap("h", 64 * 1024)
        jvm.exists_heap("h")
        node = jvm.define_class("N", [field("v", FieldKind.INT)])
        n = jvm.pnew(node)
        jvm.set_root("r", n)
        jvm.get_root("r")
    assert [w for w in caught
            if issubclass(w.category, DeprecationWarning)] == []


def test_open_creates_then_loads(tmp_path):
    jvm = open_heap(tmp_path / "heaps", "box", size_bytes=128 * 1024)
    node = jvm.define_class("N", [field("v", FieldKind.INT)])
    n = jvm.pnew(node)
    jvm.set_field(n, "v", 41)
    jvm.flush_reachable(n)
    jvm.set_root("r", n)
    jvm.shutdown()

    jvm2 = open_heap(tmp_path / "heaps", "box")  # exists: no size needed
    jvm2.define_class("N", [field("v", FieldKind.INT)])
    assert jvm2.get_field(jvm2.get_root("r"), "v") == 41


def test_open_missing_heap_without_size_raises(tmp_path):
    from repro.errors import IllegalArgumentException
    with pytest.raises(IllegalArgumentException):
        open_heap(tmp_path / "heaps", "nope")


def test_session_context_manager_creates_then_loads(tmp_path):
    with Espresso.session(tmp_path / "heaps", "box",
                          size_bytes=128 * 1024) as jvm:
        node = jvm.define_class("N", [field("v", FieldKind.INT)])
        n = jvm.pnew(node)
        jvm.set_field(n, "v", 43)
        jvm.flush_reachable(n)
        jvm.set_root("r", n)
    # clean exit shut the session down; reopening sees the data
    with Espresso.session(tmp_path / "heaps", "box") as jvm2:
        jvm2.define_class("N", [field("v", FieldKind.INT)])
        assert jvm2.get_field(jvm2.get_root("r"), "v") == 43


def test_open_heap_is_the_way_in(tmp_path):
    import repro
    with repro.open_heap(tmp_path / "heaps", "box",
                         size_bytes=128 * 1024) as jvm:
        assert jvm.exists_heap("box")


def test_restart_carries_full_config(tmp_path):
    clock = Clock()
    latency = LatencyConfig(nvm_read_ns=999, nvm_write_ns=999,
                            clflush_ns=999, sfence_ns=999)
    heap_config = HeapConfig(eden_words=4096)
    obs = Observatory()
    jvm = Espresso(tmp_path / "heaps",
                   config=EspressoConfig(clock=clock, latency=latency,
                                         heap_config=heap_config,
                                         alias_aware=False,
                                         observatory=obs))
    jvm.create_heap("h", 64 * 1024)
    jvm2 = jvm.restart()
    assert jvm2.clock is clock                      # explicit clock: shared
    assert jvm2.config.latency is latency
    assert jvm2.config.heap_config is heap_config
    assert jvm2.config.alias_aware is False
    assert jvm2.obs is obs                          # observatory carried
    assert jvm2.vm.alias_aware is False


def test_crash_restart_carries_full_config(tmp_path):
    obs = Observatory()
    latency = LatencyConfig(nvm_read_ns=7, nvm_write_ns=7,
                            clflush_ns=7, sfence_ns=7)
    jvm = Espresso(tmp_path / "heaps", config=EspressoConfig(
        latency=latency, alias_aware=False, observatory=obs, gc_workers=3,
        mutators=4))
    jvm.create_heap("h", 64 * 1024)
    jvm2 = jvm.restart(crash=True)
    assert jvm2.config.latency is latency
    assert jvm2.config.alias_aware is False
    assert jvm2.obs is obs
    assert jvm2.config.gc_workers == 3
    assert jvm2.config.mutators == 4
    # the carried knob sizes the default gang of the restarted session
    assert jvm2.mutator_gang().n == 4
    assert jvm2.mutator_gang(mutators=2).n == 2


def test_restart_carries_mutators_without_crash(tmp_path):
    jvm = Espresso(tmp_path / "heaps", config=EspressoConfig(mutators=8))
    jvm.create_heap("h", 64 * 1024)
    jvm2 = jvm.restart()
    assert jvm2.config.mutators == 8
    assert jvm2.mutator_gang().n == 8


def test_restarted_observatory_rebinds_to_new_clock(tmp_path):
    obs = Observatory()
    jvm = Espresso(tmp_path / "heaps", config=EspressoConfig(observatory=obs))
    jvm.create_heap("h", 64 * 1024)
    jvm2 = jvm.restart()
    # config.clock was None, so the successor made a fresh Clock; the
    # carried observatory must follow it (last-bind-wins).
    assert obs.clock is jvm2.clock


def test_default_session_uses_null_obs(tmp_path):
    jvm = Espresso(tmp_path / "heaps")
    assert jvm.obs is NULL_OBS
    assert jvm.obs.enabled is False


def test_heap_dir_kept_as_path(tmp_path):
    jvm = Espresso(str(tmp_path / "heaps"))
    assert isinstance(jvm.heap_dir, Path)


def test_shared_config_is_copied_per_session(tmp_path):
    """One config seeds many sessions; registries filled in lazily stay
    per session and never write back into the caller's config."""
    cfg = EspressoConfig(resumable=True)
    a = Espresso(tmp_path / "a", config=cfg)
    b = Espresso(tmp_path / "b", config=cfg)
    a.persistent_type("X")
    a.register_task("t", lambda task, jvm: None)
    assert "X" in a.config.persistent_types
    assert "X" not in b.config.persistent_types
    assert a.config.persistent_types is not b.config.persistent_types
    assert b.config.task_registry is None
    assert cfg.persistent_types is None and cfg.task_registry is None
    # restart still carries the filled-in registries by reference
    a2 = a.restart()
    assert a2.config.persistent_types is a.config.persistent_types
    assert a2.config.task_registry is a.config.task_registry
