"""Version-control-aware software citation toolkit.

Citations attach to files and directories of a repository; any path resolves
to its own citation or its closest ancestor's. Citation files are versioned
with the code and carried through commit, rename, copy between repositories,
branch merge, and fork.
"""

from .errors import GitCiteError
from .model import (
    CitationFile,
    CitationRecord,
    Inconsistency,
    TreeSnapshot,
    resolve,
    resolve_from_entries,
    validate,
)
from .ops import (
    ConflictReport,
    choose_left,
    choose_right,
    scripted_resolver,
)
from .paths import ROOT, CanonicalPath, PathKind, canonicalize, from_rendered

__version__ = "0.1.0"

# The in-memory store is the reference model, roles and staged edits
# included; no CLI command uses it, so it is imported on first access
# instead of with the package (PEP 562).
_STORE_NAMES = frozenset(
    {
        "CiteEdit", "Repository", "Role", "RoleContext", "TreeEdit", "Version",
        "add_cite", "copy_cite", "del_cite", "fork_cite", "gen_cite", "modify_cite",
    }
)


def __getattr__(name: str):
    if name in _STORE_NAMES:
        from . import store

        return getattr(store, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CanonicalPath",
    "CitationFile",
    "CitationRecord",
    "CiteEdit",
    "ConflictReport",
    "GitCiteError",
    "Inconsistency",
    "PathKind",
    "ROOT",
    "Repository",
    "Role",
    "RoleContext",
    "TreeEdit",
    "TreeSnapshot",
    "Version",
    "add_cite",
    "canonicalize",
    "choose_left",
    "choose_right",
    "copy_cite",
    "del_cite",
    "fork_cite",
    "from_rendered",
    "gen_cite",
    "modify_cite",
    "resolve",
    "resolve_from_entries",
    "scripted_resolver",
    "validate",
]
