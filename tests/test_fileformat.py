from __future__ import annotations

import difflib
import json
import random

import pytest
from hypothesis import given, strategies as st

from gitcite import CitationFile, CitationRecord
from gitcite.errors import GitCiteError, InvalidPath
from gitcite.fileformat import parse, record_from_obj, serialize
from gitcite.gitadapter import decode_citation_file, encode_citation_file
from gitcite.model import RECORD_FIELDS
from gitcite.paths import ROOT, CanonicalPath, PathKind, from_rendered
from gitcite.render import as_json

import randgen
from support import record, record_to_obj

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
    with pytest.raises(GitCiteError, match="^duplicate key '/'$"):
        parse(text)


def test_parse_reports_position_for_broken_json():
    with pytest.raises(GitCiteError, match=r" \(line 1, column 7\)$"):
        parse('{"/": ')


_R = '"owner": "o", "repo_name": "r", "locator": "u"'


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "the top level must be a single object of path -> record entries"),
        ('{"no-slash": {%s}}' % _R, "invalid path key 'no-slash': rendered path must start with '/': 'no-slash'"),
        ('{"/a//b": {%s}}' % _R, "invalid path key '/a//b': empty path segment"),
        ('{"/": "not an object"}', "entry '/' must be an object"),
        ('{"/": {"repo_name": "r", "locator": "u"}}', "entry '/' is missing 'owner'"),
        ('{"/": {"locator": 5, "author_list": 3}}', "entry '/' is missing 'owner'"),
        ('{"/": {"owner": 1, "repo_name": "r", "locator": "u"}}', "entry '/': 'owner' must be a string"),
        ('{"/": {%s, "date": null}}' % _R, "entry '/': 'date' must be a string"),
        ('{"/": {%s, "author_list": "not-a-list"}}' % _R, "entry '/': 'author_list' must be a list of strings"),
        ('{"/": {%s, "author_list": ["a", 2]}}' % _R, "entry '/': 'author_list' must be a list of strings"),
        ('{"/": {%s, "extras": []}}' % _R, "entry '/': 'extras' must be an object"),
        ('{"/": {%s, "mystery": 3}}' % _R, "entry '/': unknown field 'mystery' must be a string"),
        ('{"/": {%s, "zeta": 1, "alpha": 2}}' % _R, "entry '/': unknown field 'zeta' must be a string"),
        ('{"/": {%s, "extras": {"k": "1"}, "k": "2"}}' % _R, "entry '/': field 'k' collides with an extras key"),
        ('{"/": {"owner": "", "repo_name": "r", "locator": "u"}}', "entry '/': owner must be non-empty"),
        ('{"/": {%s, "extras": {"k": 1}}}' % _R, "entry '/': extras must map strings to strings"),
        ('{"/": {%s, "extras": {"owner": "x"}}}' % _R, "entry '/': extras key 'owner' shadows a named field"),
        ('{"/": {%s}, "/": {%s}}' % (_R, _R), "duplicate key '/'"),
        ('{"/": {%s, "owner": "p"}}' % _R, "duplicate key 'owner'"),
        ('{"/": ', "Expecting value (line 1, column 7)"),
    ],
)
def test_malformed_documents(text, message):
    with pytest.raises(GitCiteError) as err:
        parse(text)
    assert str(err.value) == message


def test_document_without_root_entry():
    text = '{"/a": {"owner": "o", "repo_name": "r", "locator": "u"}}'
    with pytest.raises(GitCiteError, match="^the document has no '/' entry$"):
        parse(text)
    assert from_rendered("/a") in parse(text, require_root=False)


def test_unknown_record_fields_land_in_extras():
    obj = {"owner": "o", "repo_name": "r", "locator": "u", "commitID": "abc123"}
    rec = record_from_obj(obj)
    assert rec.extras == {"commitID": "abc123"}


def test_unknown_field_colliding_with_extras_key():
    obj = {"owner": "o", "repo_name": "r", "locator": "u", "extras": {"k": "1"}, "k": "2"}
    with pytest.raises(GitCiteError, match="^record: field 'k' collides with an extras key$"):
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


# Any character, plus those json escapes or passes through as they are:
# quotes, backslashes, control characters, a line separator and lone surrogates.
_CHARS = st.one_of(st.characters(), st.sampled_from('"\\\n\r\t\b\f\x00\x1f\x7f\u2028\udcff\ud800é猫😀'))
_TEXTS = st.text(_CHARS, max_size=6)
_SEGMENTS = st.text(_CHARS.filter(lambda c: c not in "/\\"), min_size=1, max_size=4).filter(
    lambda s: s not in (".", "..")
)
ANY_RECORDS = st.builds(
    CitationRecord,
    owner=_TEXTS.filter(bool),
    repo_name=_TEXTS.filter(bool),
    locator=_TEXTS.filter(bool),
    version_id=_TEXTS,
    date=_TEXTS,
    author_list=st.lists(_TEXTS, max_size=3),
    extras=st.dictionaries(_TEXTS.filter(lambda k: k not in RECORD_FIELDS), _TEXTS, max_size=3),
)
ANY_KEYS = st.one_of(
    st.builds(CanonicalPath, st.lists(_SEGMENTS, max_size=3).map(tuple), st.just(PathKind.DIRECTORY)),
    st.builds(CanonicalPath, st.lists(_SEGMENTS, min_size=1, max_size=3).map(tuple), st.just(PathKind.FILE)),
)


@given(st.dictionaries(ANY_KEYS, ANY_RECORDS, max_size=4))
def test_serialize_writes_the_bytes_json_dumps_writes(entries):
    # The oracle is the call serialize replaced; the empty file is one input.
    cf = CitationFile(entries)
    doc = dict(sorted((key.render(), record_to_obj(rec)) for key, rec in cf.items()))
    assert serialize(cf) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    for rec in entries.values():
        assert as_json(rec) == json.dumps(record_to_obj(rec), indent=2, ensure_ascii=False)


@given(st.dictionaries(ANY_KEYS, ANY_RECORDS, max_size=4))
def test_the_decoder_reads_exactly_what_the_encoder_can_write(entries):
    # json.dumps(ensure_ascii=True) escapes every character that is not
    # ASCII, a lone surrogate too. The file the document holds is what a
    # plain parse returns: there a high and a low surrogate side by side read
    # as one character, as JSON says.
    doc = json.dumps({key.render(): record_to_obj(rec) for key, rec in entries.items()}, ensure_ascii=True)
    held = parse(doc, require_root=False)
    try:
        encode_citation_file(held)
    except (InvalidPath, ValueError):
        with pytest.raises(GitCiteError, match="^the document: "):
            decode_citation_file(doc.encode("ascii"), "the document", require_root=False)
    else:
        assert decode_citation_file(doc.encode("ascii"), "the document", require_root=False) == held


@given(st.dictionaries(ANY_KEYS, ANY_RECORDS, max_size=5), st.data())
def test_the_written_bytes_do_not_depend_on_the_key_order(entries, data):
    # serialize alone orders the keys: a file built, or a document parsed, in
    # any order writes the canonical bytes, and parse keeps the document's order.
    canonical = serialize(CitationFile(entries))
    permuted = data.draw(st.permutations(list(entries.items())))
    assert serialize(CitationFile(permuted)) == canonical
    shuffled = {key.render(): record_to_obj(rec) for key, rec in permuted}
    parsed = parse(json.dumps(shuffled, indent=2, ensure_ascii=False), require_root=False)
    assert parsed == CitationFile(entries) and serialize(parsed) == canonical
    assert list(parsed) == [key for key, _ in permuted]


def test_serialize_of_an_empty_file_is_an_empty_object():
    assert serialize(CitationFile()) == "{}\n"


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
