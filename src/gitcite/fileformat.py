"""Canonical on-disk form of a citation file.

The document is a single UTF-8 JSON object mapping rendered paths to record
objects. :func:`serialize` sorts the keys bytewise, whatever order the
``CitationFile`` holds them in, and :func:`parse` keeps the document's order.
Record fields appear in a fixed order, indentation is two spaces, and the
file ends with one newline. Equal citation files therefore always serialize
to identical bytes, which keeps diffs small and makes text-merging the file
unnecessary. The text is what ``json.dumps(doc, indent=2, ensure_ascii=False)``
writes, built directly because that call runs json's pure-Python encoder.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _quote  # the C quoting of json.dumps(..., ensure_ascii=False)

from .errors import GitCiteError, InvalidPath
from .model import RECORD_FIELDS, REQUIRED_FIELDS, TEXT_FIELDS, CitationFile, CitationRecord
from .paths import ROOT, CanonicalPath, from_rendered

_FIELDS = frozenset(RECORD_FIELDS)


def record_from_obj(obj: object, where: str = "record") -> CitationRecord:
    """Parse one record object. Unknown string fields land in extras."""
    if not isinstance(obj, dict):
        raise GitCiteError(f"{where} must be an object")
    texts = []
    for name in TEXT_FIELDS:
        value = obj.get(name)
        if isinstance(value, str):
            texts.append(value)
        elif name in obj:
            raise GitCiteError(f"{where}: {name!r} must be a string")
        elif name in REQUIRED_FIELDS:
            raise GitCiteError(f"{where} is missing {name!r}")
        else:
            texts.append("")
    authors = obj.get("author_list", [])
    if not isinstance(authors, list) or not all(isinstance(a, str) for a in authors):
        raise GitCiteError(f"{where}: 'author_list' must be a list of strings")
    extras = obj.get("extras", {})
    if not isinstance(extras, dict):
        raise GitCiteError(f"{where}: 'extras' must be an object")
    if not obj.keys() <= _FIELDS:
        for name, value in obj.items():  # the unknown fields, in file order
            if name in _FIELDS:
                continue
            if not isinstance(value, str):
                raise GitCiteError(f"{where}: unknown field {name!r} must be a string")
            if name in extras:
                raise GitCiteError(f"{where}: field {name!r} collides with an extras key")
            extras = {**extras, name: value}  # a new dict: the parsed object stays as it was
    try:
        return CitationRecord(*texts, author_list=authors, extras=extras)
    except ValueError as exc:
        raise GitCiteError(f"{where}: {exc}") from exc


def _record_json(record: CitationRecord, pad: str = "") -> str:
    """``record`` as ``json.dumps(indent=2, ensure_ascii=False)`` writes its
    object, each line after the first indented by ``pad``."""
    inner = pad + "  "
    item = ",\n" + inner + "  "
    lines = [f'{inner}"{name}": {_quote(getattr(record, name))}' for name in TEXT_FIELDS]
    if record.author_list:
        lines.append(f'{inner}"author_list": [\n{inner}  {item.join(map(_quote, record.author_list))}\n{inner}]')
    else:
        lines.append(f'{inner}"author_list": []')
    if record.extras:
        pairs = item.join(f"{_quote(key)}: {_quote(value)}" for key, value in record.extras.items())
        lines.append(f'{inner}"extras": {{\n{inner}  {pairs}\n{inner}}}')
    else:
        lines.append(f'{inner}"extras": {{}}')
    return "{\n" + ",\n".join(lines) + f"\n{pad}}}"


def serialize(cf: CitationFile) -> str:
    if not cf:
        return "{}\n"
    rendered = sorted((key.render(), record) for key, record in cf.items())  # distinct texts: no record compared
    entries = ",\n".join(f"  {_quote(text)}: {_record_json(record, '  ')}" for text, record in rendered)
    return "{\n" + entries + "\n}\n"


def no_duplicates(pairs: list[tuple[str, object]]) -> dict[str, object]:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise GitCiteError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def parse(text: str, require_root: bool = True) -> CitationFile:
    """Parse a citation-file document; strict about structure and key form."""
    try:
        data = json.loads(text, object_pairs_hook=no_duplicates)
    except json.JSONDecodeError as exc:
        raise GitCiteError(f"{exc.msg} (line {exc.lineno}, column {exc.colno})") from exc
    if not isinstance(data, dict):
        raise GitCiteError("the top level must be a single object of path -> record entries")
    entries: dict[CanonicalPath, CitationRecord] = {}
    for key_text, obj in data.items():
        try:
            path = from_rendered(key_text)
        except InvalidPath as exc:
            raise GitCiteError(f"invalid path key {key_text!r}: {exc}") from exc
        entries[path] = record_from_obj(obj, where=f"entry {key_text!r}")
    if require_root and ROOT not in entries:
        raise GitCiteError("the document has no '/' entry")
    return CitationFile(entries)
