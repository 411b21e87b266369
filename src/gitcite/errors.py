"""Exception types shared across the toolkit."""


class GitCiteError(Exception):
    """Base class for every domain error raised by this package."""


# Paths and resolution.
class InvalidPath(GitCiteError):
    pass


class PathNotInTree(GitCiteError):
    def __init__(self, path: object):
        super().__init__(f"{path} is not in the tree")


class MissingRoot(GitCiteError):
    pass


# Citation edits.
class AlreadyCited(GitCiteError):
    pass


class NotCited(GitCiteError):
    pass


class RootUndeletable(GitCiteError):
    pass


class UnknownVersion(GitCiteError):
    pass


class MissingMetadata(GitCiteError):
    pass


# Tree edits, copies and merges.
class EditConflict(GitCiteError):
    pass


class InvariantBroken(GitCiteError):
    """A post-operation consistency check failed; this is a defect, not user error."""


class SubtreeMissing(GitCiteError):
    pass


class DestinationCollision(GitCiteError):
    pass


class NoCommonAncestor(GitCiteError):
    pass


class UnresolvedConflict(GitCiteError):
    pass


# On-disk documents, the working tree, and the network.
class FileMissing(GitCiteError):
    pass


class MalformedDocument(GitCiteError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class IoFailure(GitCiteError):
    pass


class NetworkFailure(GitCiteError):
    pass


class HttpStatus(GitCiteError):
    def __init__(self, code: int, url: str):
        super().__init__(f"HTTP {code} for {url}")
        self.code = code
        self.url = url


# Command-line surface.
class AlreadyInitialized(GitCiteError):
    pass


class NotARepository(GitCiteError):
    pass
