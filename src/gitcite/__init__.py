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
    resolve,
    resolve_from_entries,
    validate,
)
from .ops import (
    ConflictReport,
    choose_left,
    choose_right,
)
from .paths import ROOT, CanonicalPath, PathKind, canonicalize, from_rendered

__version__ = "0.1.0"

__all__ = [
    "CanonicalPath",
    "CitationFile",
    "CitationRecord",
    "ConflictReport",
    "GitCiteError",
    "Inconsistency",
    "PathKind",
    "ROOT",
    "canonicalize",
    "choose_left",
    "choose_right",
    "from_rendered",
    "resolve",
    "resolve_from_entries",
    "validate",
]
