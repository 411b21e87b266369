"""Exception types shared across the toolkit.

An error's class decides the command line's exit status: an
:class:`IoFailure` (the file system, git or the network failed) exits 3, and
any other :class:`GitCiteError` (a domain error) exits 1. A subclass exists
only where code catches it by name or where it builds the one message of
several raise sites; every other error is raised as one of the two.
"""


class GitCiteError(Exception):
    """Base class for every error raised by this package; a domain error unless an :class:`IoFailure`."""


class IoFailure(GitCiteError):
    """The environment failed: a file, git or the network."""


class InvalidPath(GitCiteError):
    pass


class PathNotInTree(GitCiteError):
    def __init__(self, path: object):
        super().__init__(f"{path} is not in the tree")
