"""The gitcite command line: manage and resolve citations in a checkout.

Every command but ``gen --remote`` acts on one checkout: the git worktree
holding the cwd, whose top :func:`find_root` finds, and the citation file at
that top. Exit codes: 0 success, 1 domain error, 2 usage error, 3
environment or I/O error, 130 interrupted (Ctrl-C), 141 stdout closed by its
reader. ``gen`` and ``validate`` never modify any file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import fileformat, gitadapter, render
from .errors import (
    AlreadyInitialized,
    FileMissing,
    GitCiteError,
    HttpStatus,
    InvalidPath,
    IoFailure,
    NetworkFailure,
    NotARepository,
    NotCited,
)
from .model import RECORD_FIELDS, REQUIRED_FIELDS, TEXT_FIELDS, CitationFile, CitationRecord
from .model import resolve, resolve_from_entries, validate
from .ops import (
    ConflictReport,
    apply_add,
    apply_delete,
    apply_modify,
    choose_left,
    choose_right,
)
from .paths import CanonicalPath, PathKind, canonicalize

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_ENV = 3
EXIT_INTERRUPT = 130  # 128 + SIGINT, as a shell reports a command stopped by Ctrl-C
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports git writing to a closed pipe

# UnicodeDecodeError is a ValueError, so this tuple is caught first.
_ENV_ERRORS = (
    IoFailure, NetworkFailure, HttpStatus, NotARepository, FileMissing, OSError, UnicodeDecodeError
)
_REGENERABLE = tuple(name for name in TEXT_FIELDS if name not in REQUIRED_FIELDS)  # drafted from the head commit


def find_root() -> Path:
    """The top of the git worktree holding the cwd: the nearest ancestor with
    a ``.git`` entry, the repository's directory or the file of a linked
    worktree or submodule. No git command runs; ``GIT_DIR`` and
    ``GIT_WORK_TREE`` are not consulted."""
    cwd = Path.cwd().resolve()
    for candidate in (cwd, *cwd.parents):
        if (candidate / ".git").exists():
            return candidate
    raise NotARepository(f"{cwd} is not inside a git repository")


def _open_worktree(raw: str) -> tuple[Path, gitadapter.WorktreeLookup, CitationFile, CanonicalPath]:
    """The checkout holding the cwd: its root, tree, citation file and ``raw`` as a key."""
    root = find_root()
    tree = gitadapter.WorktreeLookup(root)
    cf = gitadapter.load_citation_file(root)
    return root, tree, cf, _repo_relative(root, raw, tree=tree)


def _repo_relative(root: Path, raw: str, tree=None, kind_hint: PathKind | None = None) -> CanonicalPath:
    """Turn a user path into canonical root-relative form.

    Paths are taken relative to the cwd; a leading "/" anchors at the
    repository root instead of the filesystem root.
    """
    treat_dir = raw.endswith("/") or raw in (".", "..") or raw.endswith(("/.", "/.."))
    base = root.resolve() if raw.startswith("/") else Path(os.getcwd())
    absolute = Path(os.path.normpath(os.path.join(base, raw.lstrip("/"))))
    try:
        rel = absolute.relative_to(root.resolve())
    except ValueError:
        raise InvalidPath(f"{raw!r} is outside the repository") from None
    parts = () if rel == Path(".") else rel.parts
    rendered = "/" + "/".join(parts)
    if parts and treat_dir:
        rendered += "/"
    return canonicalize(rendered, kind_hint=kind_hint, tree=tree)


def _field_pair(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key, value


def _build_record(template: CitationRecord, fields: list[tuple[str, str]], authors: str | None) -> CitationRecord:
    values = {name: getattr(template, name) for name in RECORD_FIELDS}
    values["extras"] = extras = dict(template.extras)
    for key, value in fields or []:
        if key in TEXT_FIELDS:
            values[key] = value
        elif key in ("author_list", "authors"):
            raise ValueError("set authors with --authors, not --field")
        elif key == "extras":
            raise ValueError("extras entries are set as --field KEY=VALUE directly")
        else:
            extras[key] = value
    if authors is not None:
        values["author_list"] = tuple(a.strip() for a in authors.split(",") if a.strip())
    return CitationRecord(**values)


def cmd_init(args: argparse.Namespace) -> int:
    root = find_root()
    target = gitadapter.citation_file_path(root)
    if target.exists():
        raise AlreadyInitialized(f"{target} already exists")
    record = gitadapter.default_root_citation(root)
    gitadapter.store_citation_file(root, CitationFile.single(record))
    print(f"created {target}; edit the draft with 'gitcite modify .':")
    print(target.read_text(encoding="utf-8"), end="")
    return EXIT_OK


def cmd_add(args: argparse.Namespace) -> int:
    root, tree, cf, path = _open_worktree(args.path)
    template = resolve(cf, tree, path)  # closest ancestor's record as the draft
    record = _build_record(template, args.field, args.authors)
    gitadapter.store_citation_file(root, apply_add(cf, tree, path, record))
    print(f"cited {path}")
    print(render.as_text(record))
    return EXIT_OK


def cmd_del(args: argparse.Namespace) -> int:
    root, _, cf, path = _open_worktree(args.path)
    gitadapter.store_citation_file(root, apply_delete(cf, path))
    print(f"removed the citation of {path}; it now inherits from its closest ancestor")
    return EXIT_OK


def cmd_modify(args: argparse.Namespace) -> int:
    root, _, cf, path = _open_worktree(args.path)
    current = cf.get(path)
    if current is None:
        raise NotCited(f"{path} has no citation")
    record = _build_record(current, args.field, args.authors)
    gitadapter.store_citation_file(root, apply_modify(cf, path, record))
    touched = {key for key, _ in args.field or []}
    for name in _REGENERABLE:
        if name in touched:
            print(f"note: {name} is normally derived from repository metadata")
    print(f"updated {path}")
    print(render.as_text(record))
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.remote is not None:
        cf = gitadapter.fetch_remote_citation_file(args.remote)
        hint = PathKind.DIRECTORY if args.path.endswith("/") else PathKind.FILE
        path = canonicalize(args.path, kind_hint=hint)
        record = resolve_from_entries(cf, path)
    elif args.version is not None:
        root = find_root()
        tree = gitadapter.RevisionLookup(root, args.version)
        cf = gitadapter.citation_file_at_revision(root, args.version)
        path = _repo_relative(root, args.path, tree=tree)
        record = resolve(cf, tree, path)
    else:
        _, tree, cf, path = _open_worktree(args.path)
        record = resolve(cf, tree, path)
    print(render.render(record, args.format))
    return EXIT_OK


def cmd_copy(args: argparse.Namespace) -> int:
    import tempfile  # only copy needs a scratch directory

    root = find_root()
    with tempfile.TemporaryDirectory(prefix="gitcite-copy-") as scratch:
        if _looks_remote(args.src):
            src_root = Path(scratch) / "src"
            gitadapter._git(Path.cwd(), "clone", "--depth", "1", args.src, str(src_root))
        else:
            src_root = Path(os.path.normpath(os.path.join(os.getcwd(), args.src)))
        src_subtree = canonicalize(args.src_subtree, kind_hint=PathKind.DIRECTORY)
        dst_path = _repo_relative(root, args.dst_path, kind_hint=PathKind.DIRECTORY)
        _, added = gitadapter.run_copy(root, src_root, src_subtree, dst_path)
    print(f"copied {src_subtree} -> {dst_path}; migrated {len(added)} citation entries:")
    for key in added:
        print(f"  {key}")
    return EXIT_OK


def _looks_remote(src: str) -> bool:
    return src.startswith(("http://", "https://", "ssh://", "git@", "file://")) or src.endswith(".git")


def cmd_merge(args: argparse.Namespace) -> int:
    root = find_root()
    if args.ours:
        resolver = choose_left
    elif args.theirs:
        resolver = choose_right
    else:
        resolver = _interactive_resolver()
    merged, conflicts = gitadapter.run_merge(root, args.other_branch, resolver)
    print(f"merged citation file has {len(merged)} entries; {len(conflicts)} conflicts resolved")
    for report in conflicts:
        print(f"  {report.key}: {report.resolution}")
    return EXIT_OK


def _interactive_resolver():
    def _resolve(report: ConflictReport) -> CitationRecord | None:
        print(f"conflict at {report.key}:")
        print(f"  ours:   {render.one_line(report.left)}")
        print(f"  theirs: {render.one_line(report.right)}")
        while True:
            print("choose [o]urs / [t]heirs / [e]dit JSON / [q]uit: ", end="", flush=True)
            line = sys.stdin.readline()
            if not line:
                return None
            answer = line.strip()
            if answer in ("o", "ours", "l", "left"):
                return report.left
            if answer in ("t", "theirs", "r", "right"):
                return report.right
            if answer in ("q", "quit"):
                return None
            if answer.startswith("e"):
                payload = answer[4 if answer.startswith("edit") else 1:].strip() or sys.stdin.readline().strip()
                try:
                    return fileformat.record_from_obj(json.loads(payload))
                except (ValueError, GitCiteError) as exc:  # keep prompting on a bad record
                    print(f"  not a valid record: {exc}")

    return _resolve


def cmd_validate(args: argparse.Namespace) -> int:
    root = find_root()
    text = gitadapter.citation_file_text(root)
    cf = gitadapter.parse_citation_text(text, require_root=False)
    if fileformat.serialize(cf) != text:
        path = gitadapter.citation_file_path(root)
        print(f"{path} is not in canonical form; was it edited by hand?", file=sys.stderr)
    issues = validate(cf, gitadapter.WorktreeLookup(root))
    for issue in issues:
        print(issue)
    if issues:
        return EXIT_DOMAIN
    print("citation file is consistent with the working tree")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gitcite",
        description="Attach citations to files and directories and resolve them by closest ancestor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("init", help="create the citation file with a default root citation").set_defaults(
        func=cmd_init
    )

    def edit_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("path", help="file or directory (directories end with '/')")
        p.add_argument("--field", action="append", type=_field_pair, metavar="KEY=VALUE",
                       help="set a record field; unknown keys become extras")
        p.add_argument("--authors", help="comma-separated author list")

    p_add = sub.add_parser("add", help="attach a citation to an uncited path")
    edit_args(p_add)
    p_add.set_defaults(func=cmd_add)

    p_del = sub.add_parser("del", help="remove an explicit citation")
    p_del.add_argument("path")
    p_del.set_defaults(func=cmd_del)

    p_mod = sub.add_parser("modify", help="replace an explicit citation")
    edit_args(p_mod)
    p_mod.set_defaults(func=cmd_modify)

    p_gen = sub.add_parser("gen", help="print the resolved citation of a path")
    p_gen.add_argument("path")
    source = p_gen.add_mutually_exclusive_group()
    source.add_argument("--version", help="resolve at a historical revision")
    source.add_argument("--remote", metavar="URL", help="resolve against a remote citation file")
    p_gen.add_argument("--format", choices=render.FORMATS, default="text")
    p_gen.set_defaults(func=cmd_gen)

    p_copy = sub.add_parser("copy", help="copy a directory from another repository with its citations")
    p_copy.add_argument("src", help="source checkout path or clone URL")
    p_copy.add_argument("src_subtree", help="directory inside the source ('/' for the whole tree)")
    p_copy.add_argument("dst_path", help="new directory in this repository")
    p_copy.set_defaults(func=cmd_copy)

    p_merge = sub.add_parser("merge", help="merge a branch, resolving citation conflicts")
    p_merge.add_argument("other_branch")
    pick = p_merge.add_mutually_exclusive_group()
    pick.add_argument("--ours", action="store_true", help="keep this branch's record on conflicts")
    pick.add_argument("--theirs", action="store_true", help="take the other branch's record on conflicts")
    pick.add_argument("--interactive", action="store_true", help="prompt for each conflict (default)")
    p_merge.set_defaults(func=cmd_merge)

    sub.add_parser("validate", help="check the citation file against the working tree").set_defaults(
        func=cmd_validate
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:  # the reader went away (``gitcite gen f | head -1``): quiet, as git is
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit is quiet too
        return EXIT_PIPE
    except KeyboardInterrupt:
        print("gitcite: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except _ENV_ERRORS as exc:
        print(f"gitcite: {exc}", file=sys.stderr)
        return EXIT_ENV
    except (GitCiteError, ValueError) as exc:
        print(f"gitcite: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
