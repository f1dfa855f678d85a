"""Alias-Klass tests: the Figure 10 hazard and its fix (paper §3.2)."""

import pytest

from repro.api import Espresso, EspressoConfig
from repro.errors import ClassCastException
from repro.runtime.klass import FieldKind, Residence, field

from tests.core.conftest import HEAP_BYTES, define_person


@pytest.fixture
def mounted_alias_off(heap_dir):
    jvm = Espresso(heap_dir, config=EspressoConfig(alias_aware=False))
    jvm.create_heap("test", HEAP_BYTES)
    return jvm


def test_figure10_bug_without_alias_support(mounted_alias_off):
    """Stock JVM behaviour: a redundant cast throws ClassCastException."""
    jvm = mounted_alias_off
    person = define_person(jvm)
    a = jvm.new(person)       # resolves the DRAM Klass into the pool slot
    _b = jvm.pnew(person)     # re-resolves the slot to the NVM Klass
    with pytest.raises(ClassCastException):
        jvm.checkcast(a, "Person")  # slot holds K'p, a's header holds Kp


def test_figure10_fixed_with_alias_support(mounted):
    """Espresso behaviour: the alias check accepts the twin Klass."""
    person = define_person(mounted)
    a = mounted.new(person)
    b = mounted.pnew(person)
    assert mounted.checkcast(a, "Person") is a
    assert mounted.checkcast(b, "Person") is b


def test_two_klasses_exist_for_one_class(mounted):
    person = define_person(mounted)
    a = mounted.new(person)
    b = mounted.pnew(person)
    ka = mounted.vm.klass_of(a)
    kb = mounted.vm.klass_of(b)
    assert ka is not kb
    assert ka.name == kb.name == "Person"
    assert ka.residence is Residence.DRAM
    assert kb.residence is Residence.NVM
    assert ka.is_alias_of(kb)


def test_instance_of_across_residences(mounted):
    person = define_person(mounted)
    p = mounted.pnew(person)
    assert mounted.instance_of(p, person)  # DRAM Klass as the target


def test_alias_with_inheritance(mounted):
    base = mounted.define_class("Base", [field("x", FieldKind.INT)])
    derived = mounted.define_class("Derived", [field("y", FieldKind.INT)],
                                   super_klass=base)
    d = mounted.pnew(derived)
    # NVM Derived -> (super) NVM Base, which aliases DRAM Base.
    assert mounted.instance_of(d, base)
    assert mounted.checkcast(d, "Base") is d


def test_persistent_array_klass_aliases(mounted):
    person = define_person(mounted)
    arr = mounted.pnew_array(person, 3)
    k = mounted.vm.klass_of(arr)
    assert k.residence is Residence.NVM
    assert k.element_klass.residence is Residence.NVM
    assert k.element_klass.name == "Person"


def test_cast_still_fails_for_unrelated_types(mounted):
    person = define_person(mounted)
    other = mounted.define_class("Other")
    o = mounted.pnew(other)
    with pytest.raises(ClassCastException):
        mounted.checkcast(o, person)


def test_klass_segment_reused_across_pnews(mounted):
    person = define_person(mounted)
    mounted.pnew(person)
    count_after_first = mounted.heaps.heap("test").klass_segment.klass_count()
    mounted.pnew(person)
    assert mounted.heaps.heap("test").klass_segment.klass_count() \
        == count_after_first
