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

from . import fileformat, gitadapter, render
from .errors import GitCiteError, IoFailure
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
_ENV_ERRORS = (IoFailure, OSError, UnicodeDecodeError)
_REGENERABLE = tuple(name for name in TEXT_FIELDS if name not in REQUIRED_FIELDS)  # drafted from the head commit
# Every C0 control character but tab, written as repr writes it, so that an error is one line.
_ESCAPES = {code: repr(chr(code))[1:-1] for code in range(32) if chr(code) != "\t"}


def find_root() -> str:
    """The top of the git worktree holding the cwd: the nearest ancestor with
    a ``.git`` entry, the repository's directory or the file of a linked
    worktree or submodule. No git command runs; ``GIT_DIR`` and
    ``GIT_WORK_TREE`` are not consulted."""
    top = cwd = os.path.realpath(os.getcwd())
    while not os.path.exists(os.path.join(top, ".git")):
        if top == os.sep:
            raise IoFailure(f"{cwd} is not inside a git repository")
        top = os.path.dirname(top)
    return top


def _open_worktree(raw: str) -> tuple[str, gitadapter.WorktreeLookup, CanonicalPath]:
    """The checkout holding the cwd: its root, tree and ``raw`` as a key."""
    root = find_root()
    tree = gitadapter.WorktreeLookup(root)
    return root, tree, canonicalize(raw, _cwd(root), tree=tree)


def _cwd(root: str) -> tuple[str, ...]:
    """The segments of the cwd below ``root``, where a relative path starts."""
    rel = os.path.relpath(os.getcwd(), root)
    return () if rel == os.curdir else tuple(rel.split(os.sep))


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
    if gitadapter.citation_file_exists(root):
        raise GitCiteError(f"{target} already exists")
    record = gitadapter.default_root_citation(root)
    gitadapter.store_citation_file(root, CitationFile.single(record))
    print(f"created {target}; edit the draft with 'gitcite modify .':")
    print(gitadapter.citation_file_text(root), end="")
    return EXIT_OK


def cmd_add(args: argparse.Namespace) -> int:
    root, tree, path = _open_worktree(args.path)

    def add(cf: CitationFile) -> CitationFile:
        template = resolve(cf, tree, path)  # closest ancestor's record as the draft
        return apply_add(cf, tree, path, _build_record(template, args.field, args.authors))

    cf = gitadapter.update_citation_file(root, add)
    print(f"cited {path}")
    print(render.as_text(cf.get(path)))
    return EXIT_OK


def cmd_del(args: argparse.Namespace) -> int:
    root, _, path = _open_worktree(args.path)
    gitadapter.update_citation_file(root, lambda cf: apply_delete(cf, path))
    print(f"removed the citation of {path}; it now inherits from its closest ancestor")
    return EXIT_OK


def cmd_modify(args: argparse.Namespace) -> int:
    root, _, path = _open_worktree(args.path)

    def modify(cf: CitationFile) -> CitationFile:
        current = cf.get(path)
        if current is None:
            raise GitCiteError(f"{path} has no citation")
        return apply_modify(cf, path, _build_record(current, args.field, args.authors))

    cf = gitadapter.update_citation_file(root, modify)
    touched = {key for key, _ in args.field or []}
    for name in _REGENERABLE:
        if name in touched:
            print(f"note: {name} is normally derived from repository metadata")
    print(f"updated {path}")
    print(render.as_text(cf.get(path)))
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.remote is not None:
        cf = gitadapter.fetch_remote_citation_file(args.remote)
        record = resolve_from_entries(cf, canonicalize(args.path))
    elif args.version is not None:
        root = find_root()
        tree = gitadapter.RevisionLookup(root, args.version)
        cf = gitadapter.citation_file_at_revision(root, args.version)
        record = resolve(cf, tree, canonicalize(args.path, _cwd(root), tree=tree))
    else:
        root, tree, path = _open_worktree(args.path)
        record = resolve(gitadapter.load_citation_file(root), tree, path)
    print(render.render(record, args.format))
    return EXIT_OK


def cmd_copy(args: argparse.Namespace) -> int:
    root = find_root()
    src_subtree = canonicalize(args.src_subtree, kind_hint=PathKind.DIRECTORY)
    dst_path = canonicalize(args.dst_path, _cwd(root), PathKind.DIRECTORY)
    _, added = gitadapter.run_copy(root, args.src, src_subtree, dst_path)
    print(f"copied {src_subtree} -> {dst_path}; migrated {len(added)} citation entries:")
    for key in added:
        print(f"  {key}")
    return EXIT_OK


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
    p_copy.add_argument("src", help="source repository, a path or a URL; its committed HEAD is copied")
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
        print(f"gitcite: {str(exc).translate(_ESCAPES)}", file=sys.stderr)
        return EXIT_ENV
    except (GitCiteError, ValueError) as exc:
        print(f"gitcite: {str(exc).translate(_ESCAPES)}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
