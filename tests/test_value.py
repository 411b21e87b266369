"""Value semantics of the record classes: equality by class and fields, hash, repr, read-only fields."""

from __future__ import annotations

import copy
import pickle

import pytest

from gitcite import CitationFile, CitationRecord, Inconsistency, TreeSnapshot
from gitcite.model import DANGLING_KEY
from gitcite.ops import ConflictReport
from gitcite.paths import ROOT, from_rendered
from gitcite.store import CiteEdit, CiteEditKind, Role, RoleContext, TreeEdit, TreeEditKind, Version
from gitcite.value import Value

from support import record, tree

# Each factory builds a new value from new field objects every call.
FACTORIES = {
    "CanonicalPath": lambda: from_rendered("/src/lib/"),
    "CitationRecord": lambda: record("a", extras={"license": "MIT", "grant": "G-1"}),
    "TreeSnapshot": lambda: tree("/src/a.c", "/doc/"),
    "Inconsistency": lambda: Inconsistency(DANGLING_KEY, from_rendered("/gone.c"), "no such path"),
    "RoleContext": lambda: RoleContext(Role.CITER, "guest"),
    "CiteEdit": lambda: CiteEdit(CiteEditKind.MODIFY, from_rendered("/a.c"), record("a")),
    "TreeEdit": lambda: TreeEdit(TreeEditKind.RENAME, from_rendered("/a/"), from_rendered("/b/")),
    "Version": lambda: Version("v1", (), tree("/a.c"), CitationFile.single(record("root")), 1),
}
# A field that holds a dict (a record's extras, a tree's file map) or a citation
# file leaves a value with no hash, as it did when these were dataclasses.
UNHASHABLE = {"CitationRecord", "CiteEdit", "TreeSnapshot", "Version"}


def _twin(value: Value) -> Value:
    """An instance of another value class with the same field names and values."""
    fields = type(value).__slots__
    twin_class = type("Twin", (Value,), {"__slots__": fields})
    twin = twin_class.__new__(twin_class)
    twin._init(*(getattr(value, field) for field in fields))
    return twin


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestImmutableValues:
    def test_equal_fields_compare_and_hash_equal(self, name):
        a, b = FACTORIES[name](), FACTORIES[name]()
        assert a is not b
        assert a == b and not a != b
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert repr(a).startswith(f"{name}(")

    def test_a_different_class_is_not_equal(self, name):
        value = FACTORIES[name]()
        twin = _twin(value)
        assert value != twin and twin != value
        assert value != tuple(getattr(value, field) for field in type(value).__slots__)

    def test_fields_are_read_only(self, name):
        value = FACTORIES[name]()
        field = type(value).__slots__[0]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        assert getattr(value, field) is before

    def test_copy_and_pickle_give_equal_values(self, name):
        value = FACTORIES[name]()
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_field_order_decides_equality():
    assert RoleContext(Role.CITER, "x") != RoleContext(Role.PROJECT_MEMBER, "x")
    assert from_rendered("/a/") != from_rendered("/a")
    assert record("a") != record("a", extras={"k": "v"})
    assert TreeSnapshot() == tree() and TreeSnapshot() != tree("/a.c")


def test_a_conflict_report_is_the_one_mutable_value():
    a = ConflictReport(ROOT, record("l"), record("r"))
    b = ConflictReport(ROOT, record("l"), record("r"))
    assert a == b
    with pytest.raises(TypeError):
        hash(a)
    a.mark_resolved(record("l"))
    assert a != b and a.resolution == "chose_left"
    assert repr(a).startswith("ConflictReport(key=")
