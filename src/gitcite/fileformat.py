"""Canonical on-disk form of a citation file.

The document is a single UTF-8 JSON object mapping rendered paths to record
objects. Keys are sorted bytewise, record fields appear in a fixed order,
indentation is two spaces, and the file ends with one newline. Equal
citation files therefore always serialize to identical bytes, which keeps
diffs small and makes text-merging the file unnecessary.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import InvalidPath, MalformedDocument, MissingRoot
from .model import RECORD_FIELDS, REQUIRED_FIELDS, TEXT_FIELDS, CitationFile, CitationRecord
from .paths import ROOT, CanonicalPath, from_rendered


def record_to_obj(record: CitationRecord) -> dict[str, Any]:
    obj = {name: getattr(record, name) for name in RECORD_FIELDS}
    obj["author_list"], obj["extras"] = list(record.author_list), dict(record.extras)
    return obj


def record_from_obj(obj: Any, where: str = "record") -> CitationRecord:
    """Parse one record object. Unknown string fields land in extras."""
    if not isinstance(obj, dict):
        raise MalformedDocument(f"{where} must be an object")
    data = dict(obj)

    def take_str(name: str, required: bool) -> str:
        if name not in data:
            if required:
                raise MalformedDocument(f"{where} is missing {name!r}")
            return ""
        value = data.pop(name)
        if not isinstance(value, str):
            raise MalformedDocument(f"{where}: {name!r} must be a string")
        return value

    fields = {name: take_str(name, required=name in REQUIRED_FIELDS) for name in TEXT_FIELDS}
    authors = data.pop("author_list", [])
    if not isinstance(authors, list) or not all(isinstance(a, str) for a in authors):
        raise MalformedDocument(f"{where}: 'author_list' must be a list of strings")
    extras = data.pop("extras", {})
    if not isinstance(extras, dict):
        raise MalformedDocument(f"{where}: 'extras' must be an object")
    extras = dict(extras)
    for name, value in data.items():  # unknown fields
        if not isinstance(value, str):
            raise MalformedDocument(f"{where}: unknown field {name!r} must be a string")
        if name in extras:
            raise MalformedDocument(f"{where}: field {name!r} collides with an extras key")
        extras[name] = value
    try:
        return CitationRecord(author_list=tuple(authors), extras=extras, **fields)
    except ValueError as exc:
        raise MalformedDocument(f"{where}: {exc}") from exc


def serialize(cf: CitationFile) -> str:
    doc = {str(key): record_to_obj(record) for key, record in cf.items()}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _no_duplicates(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedDocument(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def parse(text: str, require_root: bool = True) -> CitationFile:
    """Parse a citation-file document; strict about structure and key form."""
    try:
        data = json.loads(text, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(exc.msg, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(data, dict):
        raise MalformedDocument("the top level must be a single object of path -> record entries")
    entries: dict[CanonicalPath, CitationRecord] = {}
    for key_text, obj in data.items():
        try:
            path = from_rendered(key_text)
        except InvalidPath as exc:
            raise MalformedDocument(f"invalid path key {key_text!r}: {exc}") from exc
        entries[path] = record_from_obj(obj, where=f"entry {key_text!r}")
    if require_root and ROOT not in entries:
        raise MissingRoot("the document has no '/' entry")
    return CitationFile(entries)
