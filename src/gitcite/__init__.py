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
    DirNode,
    FileNode,
    Inconsistency,
    TreeSnapshot,
    resolve,
    resolve_from_entries,
    validate,
)
from .ops import (
    CiteEdit,
    ConflictReport,
    RepositoryMetadata,
    Role,
    RoleContext,
    add_cite,
    choose_left,
    choose_right,
    default_root_citation,
    del_cite,
    gen_cite,
    modify_cite,
    scripted_resolver,
)
from .paths import ROOT, CanonicalPath, PathKind, canonicalize, from_rendered
from .store import Repository, TreeEdit, Version, copy_cite, fork_cite

__version__ = "0.1.0"

__all__ = [
    "CanonicalPath",
    "CitationFile",
    "CitationRecord",
    "CiteEdit",
    "ConflictReport",
    "DirNode",
    "FileNode",
    "GitCiteError",
    "Inconsistency",
    "PathKind",
    "ROOT",
    "Repository",
    "RepositoryMetadata",
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
    "default_root_citation",
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
