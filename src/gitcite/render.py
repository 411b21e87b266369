"""Render citation records as text, JSON, or BibTeX."""

from __future__ import annotations

import re

from .fileformat import _record_json
from .model import CitationRecord

FORMATS = ("text", "json", "bibtex")


def as_json(record: CitationRecord) -> str:
    return _record_json(record)


def as_text(record: CitationRecord) -> str:
    lines = [
        f"Owner:      {record.owner}",
        f"Repository: {record.repo_name}",
        f"Locator:    {record.locator}",
    ]
    if record.version_id:
        lines.append(f"Version:    {record.version_id}")
    if record.date:
        lines.append(f"Date:       {record.date}")
    if record.author_list:
        lines.append(f"Authors:    {', '.join(record.author_list)}")
    for key, value in record.extras.items():
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


def one_line(record: CitationRecord) -> str:
    authors = ", ".join(record.author_list) or record.owner
    version = f" @ {record.version_id}" if record.version_id else ""
    return f"{record.owner}/{record.repo_name}{version} ({authors})"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", text).strip("-").lower()


def as_bibtex(record: CitationRecord) -> str:
    key_parts = [record.owner, record.repo_name]
    if record.version_id:
        key_parts.append(record.version_id)
    names = [record.owner] + [a for a in record.author_list if a != record.owner]
    fields = [("author", " and ".join(names)), ("title", record.repo_name), ("url", record.locator)]
    if record.version_id:
        fields.append(("version", record.version_id))
    year = record.date[:4]
    if year.isdigit():
        fields.append(("year", year))
    key = _slug("-".join(key_parts)) or "software"  # BibTeX refuses an empty key
    lines = [f"@software{{{key},"]
    lines.extend(f"  {name} = {{{value}}}," for name, value in fields)
    lines.append("}")
    return "\n".join(lines)


def render(record: CitationRecord, fmt: str) -> str:
    if fmt == "json":
        return as_json(record)
    if fmt == "bibtex":
        return as_bibtex(record)
    return as_text(record)
