from __future__ import annotations

import difflib
import json
import random

import pytest
from hypothesis import given, strategies as st

from gitcite import CitationFile, CitationRecord
from gitcite.errors import MalformedDocument
from gitcite.fileformat import parse, record_from_obj, record_to_obj, serialize
from gitcite.paths import ROOT, from_rendered

import randgen
from support import record

MINIMAL = """{
  "/": {
    "owner": "o",
    "repo_name": "r",
    "locator": "u",
    "version_id": "",
    "date": "",
    "author_list": [],
    "extras": {}
  }
}
"""


def test_minimal_document_parses_to_one_entry():
    cf = parse(MINIMAL)
    assert len(cf) == 1
    assert cf.get(ROOT) == CitationRecord("o", "r", "u")


def test_serialize_matches_the_canonical_shape():
    cf = CitationFile.single(CitationRecord("o", "r", "u"))
    assert serialize(cf) == MINIMAL


def test_round_trip_both_ways():
    cf = CitationFile(
        {
            ROOT: record("root"),
            from_rendered("/src/"): record("src", extras={"note": "vendored"}),
            from_rendered("/src/a.c"): record("a"),
        }
    )
    doc = serialize(cf)
    assert parse(doc) == cf
    assert serialize(parse(doc)) == doc
    assert doc.endswith("\n")


def test_equal_files_serialize_to_identical_bytes():
    entries = {ROOT: record("root"), from_rendered("/z"): record("z"), from_rendered("/a"): record("a")}
    one = CitationFile(entries)
    other = CitationFile(list(reversed(list(entries.items()))))
    assert one == other
    assert serialize(one) == serialize(other)


def test_keys_are_sorted_bytewise():
    cf = CitationFile(
        {ROOT: record("r"), from_rendered("/b"): record("b"), from_rendered("/a/"): record("a")}
    )
    doc = json.loads(serialize(cf))
    assert list(doc) == sorted(doc)


def test_record_fields_appear_in_fixed_order():
    doc = json.loads(serialize(CitationFile.single(record("r"))))
    assert list(doc["/"]) == ["owner", "repo_name", "locator", "version_id", "date", "author_list", "extras"]


def test_duplicate_keys_are_rejected():
    text = '{"/": {"owner": "o", "repo_name": "r", "locator": "u"}, "/": {"owner": "o2", "repo_name": "r", "locator": "u"}}'
    with pytest.raises(MalformedDocument):
        parse(text)


def test_parse_reports_position_for_broken_json():
    with pytest.raises(MalformedDocument) as err:
        parse('{"/": ')
    assert err.value.line is not None


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"no-slash": {"owner": "o", "repo_name": "r", "locator": "u"}}',
        '{"/": "not an object"}',
        '{"/": {"repo_name": "r", "locator": "u"}}',
        '{"/": {"owner": "", "repo_name": "r", "locator": "u"}}',
        '{"/": {"owner": "o", "repo_name": "r", "locator": "u", "author_list": "not-a-list"}}',
        '{"/": {"owner": "o", "repo_name": "r", "locator": "u", "mystery": 3}}',
    ],
)
def test_malformed_documents(text):
    with pytest.raises(MalformedDocument):
        parse(text)


def test_document_without_root_entry():
    text = '{"/a": {"owner": "o", "repo_name": "r", "locator": "u"}}'
    with pytest.raises(MalformedDocument, match="^the document has no '/' entry$"):
        parse(text)
    assert from_rendered("/a") in parse(text, require_root=False)


def test_unknown_record_fields_land_in_extras():
    obj = {"owner": "o", "repo_name": "r", "locator": "u", "commitID": "abc123"}
    rec = record_from_obj(obj)
    assert rec.extras == {"commitID": "abc123"}


def test_unknown_field_colliding_with_extras_key():
    obj = {"owner": "o", "repo_name": "r", "locator": "u", "extras": {"k": "1"}, "k": "2"}
    with pytest.raises(MalformedDocument):
        record_from_obj(obj)


def test_random_round_trips():
    rng = random.Random(2024)
    for _ in range(60):
        snap = randgen.rand_tree(rng, max_nodes=15)
        cf = randgen.rand_citation_file(rng, snap, density=0.5)
        assert parse(serialize(cf)) == cf


RECORDS = st.builds(
    CitationRecord,
    owner=st.text(min_size=1, max_size=10).filter(str.strip),
    repo_name=st.text(min_size=1, max_size=10),
    locator=st.text(min_size=1, max_size=20),
    version_id=st.text(max_size=8),
    date=st.text(max_size=12),
    author_list=st.lists(st.text(min_size=1, max_size=8), max_size=3).map(tuple),
    extras=st.dictionaries(
        st.text(alphabet="klmnop", min_size=1, max_size=5), st.text(max_size=6), max_size=3
    ),
)


@given(RECORDS)
def test_record_object_round_trip(rec):
    assert record_from_obj(record_to_obj(rec)) == rec


def test_single_added_entry_diffs_minimally():
    base = CitationFile({ROOT: record("root"), from_rendered("/z/"): record("z")})
    grown = base.with_entry(from_rendered("/m/"), record("m"))
    old_lines = serialize(base).splitlines()
    new_lines = serialize(grown).splitlines()
    removed = [l for l in difflib.ndiff(old_lines, new_lines) if l.startswith("- ")]
    added = [l for l in difflib.ndiff(old_lines, new_lines) if l.startswith("+ ")]
    entry_lines = len(json.dumps(record_to_obj(record("m")), indent=2).splitlines())
    # the new entry block, plus at most one separator-comma change
    assert len(added) <= entry_lines + 1
    assert len(removed) <= 1
