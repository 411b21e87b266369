"""The gitcite command line: manage and resolve citations in a checkout.

Every command but ``gen --remote`` acts on one checkout: the git worktree
holding the cwd, whose top :func:`find_root` finds, and the citation file at
that top. Exit codes: 0 success, 1 domain error, 2 usage error, 3
environment or I/O error, 130 interrupted (Ctrl-C), 141 stdout closed by its
reader. ``gen`` and ``validate`` never modify any file. :data:`COMMANDS` is
the one description of the command line: :func:`parse_args` reads argv by
it, and ``-h`` prints it.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from collections.abc import Callable, Sequence

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


def _printable(message: object) -> str:
    """``message`` as one line that prints whatever it holds: a control
    character as in :data:`_ESCAPES`, a byte of a name that is not UTF-8 (a
    lone surrogate, as Python decodes it) as ``\\xNN``, any other as ``\\uXXXX``."""
    def escape(match: re.Match) -> str:  # U+DC80 to U+DCFF stand for the bytes 0x80 to 0xFF
        code = ord(match[0])
        return f"\\x{code - 0xDC00:02x}" if 0xDC80 <= code <= 0xDCFF else f"\\u{code:04x}"

    return re.sub("[\ud800-\udfff]", escape, str(message).translate(_ESCAPES))


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


def _build_record(template: CitationRecord, fields: Sequence[tuple[str, str]], authors: str | None) -> CitationRecord:
    values = {name: getattr(template, name) for name in RECORD_FIELDS}
    values["extras"] = extras = dict(template.extras)
    for key, value in fields:
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


def cmd_init() -> int:
    root = find_root()
    record = gitadapter.default_root_citation(root)
    data = gitadapter.create_citation_file(root, CitationFile.single(record))
    print(f"created {gitadapter.citation_file_path(root)}; edit the draft with 'gitcite modify .':")
    print(data.decode("utf-8"), end="")
    return EXIT_OK


def cmd_add(path: str, field: Sequence[tuple[str, str]] = (), authors: str | None = None) -> int:
    root, tree, path = _open_worktree(path)

    def add(cf: CitationFile) -> CitationFile:
        template = resolve(cf, tree, path)  # closest ancestor's record as the draft
        return apply_add(cf, tree, path, _build_record(template, field, authors))

    cf = gitadapter.update_citation_file(root, add)
    print(f"cited {path}")
    print(render.as_text(cf.get(path)))
    return EXIT_OK


def cmd_del(path: str) -> int:
    root, _, path = _open_worktree(path)
    gitadapter.update_citation_file(root, lambda cf: apply_delete(cf, path))
    print(f"removed the citation of {path}; it now inherits from its closest ancestor")
    return EXIT_OK


def cmd_modify(path: str, field: Sequence[tuple[str, str]] = (), authors: str | None = None) -> int:
    root, _, path = _open_worktree(path)

    def modify(cf: CitationFile) -> CitationFile:
        current = cf.get(path)
        if current is None:
            raise GitCiteError(f"{path} has no citation")
        return apply_modify(cf, path, _build_record(current, field, authors))

    cf = gitadapter.update_citation_file(root, modify)
    touched = {key for key, _ in field}
    for name in _REGENERABLE:
        if name in touched:
            print(f"note: {name} is normally derived from repository metadata")
    print(f"updated {path}")
    print(render.as_text(cf.get(path)))
    return EXIT_OK


def cmd_gen(path: str, version: str | None = None, remote: str | None = None, format: str = "text") -> int:
    if remote is not None:
        cf = gitadapter.fetch_remote_citation_file(remote)
        record = resolve_from_entries(cf, canonicalize(path))
    elif version is not None:
        root = find_root()
        tree = gitadapter.RevisionLookup(root, version)
        cf = tree.citation_file()
        record = resolve(cf, tree, canonicalize(path, _cwd(root), tree=tree))
    else:
        root, tree, key = _open_worktree(path)
        record = resolve(gitadapter.load_citation_file(root), tree, key)
    print(render.render(record, format))
    return EXIT_OK


def cmd_copy(src: str, src_subtree: str, dst_path: str) -> int:
    root = find_root()
    src_subtree = canonicalize(src_subtree, kind_hint=PathKind.DIRECTORY)
    dst_path = canonicalize(dst_path, _cwd(root), PathKind.DIRECTORY)
    _, added = gitadapter.run_copy(root, src, src_subtree, dst_path)
    print(f"copied {src_subtree} -> {dst_path}; migrated {len(added)} citation entries:")
    for key in added:
        print(f"  {key}")
    return EXIT_OK


def cmd_merge(other_branch: str, ours: bool = False, theirs: bool = False, interactive: bool = False) -> int:
    root = find_root()
    if ours:
        resolver = choose_left
    elif theirs:
        resolver = choose_right
    else:
        resolver = _interactive_resolver()
    merged, conflicts = gitadapter.run_merge(root, other_branch, resolver)
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
                    return fileformat.record_from_obj(json.loads(payload, object_pairs_hook=fileformat.no_duplicates))
                except (ValueError, GitCiteError) as exc:  # keep prompting on a bad record
                    print(f"  not a valid record: {exc}")

    return _resolve


def cmd_validate() -> int:
    root = find_root()
    data, path = gitadapter.citation_file_bytes(root), gitadapter.citation_file_path(root)
    cf = gitadapter.decode_citation_file(data, path, require_root=False)
    if gitadapter.encode_citation_file(cf) != data:
        print(f"{path} is not in canonical form; was it edited by hand?", file=sys.stderr)
    issues = validate(cf, gitadapter.WorktreeLookup(root))
    for issue in issues:
        print(issue)
    if issues:
        return EXIT_DOMAIN
    print("citation file is consistent with the working tree")
    return EXIT_OK


class UsageError(Exception):
    """A command line that :data:`COMMANDS` does not accept (exit 2)."""


_PATH = ("path", "file or directory (directories end with '/')")
_EDITS = (
    ("--field", "KEY=VALUE", "set a record field; unknown keys become extras; may repeat"),
    ("--authors", "A,B", "comma-separated author list"),
)
# Each command: its function, a one-line help, its positionals (name, help)
# in order, its options (flag, metavar, help; a switch has no metavar) and
# the options of it that exclude each other. An option left out takes the
# function's default. --field is the one option that may repeat.
COMMANDS: dict[str, tuple[Callable[..., int], str, tuple, tuple, tuple[str, ...]]] = {
    "init": (cmd_init, "create the citation file with a default root citation", (), (), ()),
    "add": (cmd_add, "attach a citation to an uncited path", (_PATH,), _EDITS, ()),
    "del": (cmd_del, "remove an explicit citation", (_PATH,), (), ()),
    "modify": (cmd_modify, "replace an explicit citation", (_PATH,), _EDITS, ()),
    "gen": (cmd_gen, "print the resolved citation of a path", (_PATH,), (
        ("--version", "REV", "resolve at a historical revision"),
        ("--remote", "URL", "resolve against a remote citation file"),
        ("--format", "FORMAT", f"one of {', '.join(render.FORMATS)} (default: text)"),
    ), ("--version", "--remote")),
    "copy": (cmd_copy, "copy a directory from another repository with its citations", (
        ("src", "source repository, a path or a URL; its committed HEAD is copied"),
        ("src_subtree", "directory inside the source ('/' for the whole tree)"),
        ("dst_path", "new directory in this repository"),
    ), (), ()),
    "merge": (cmd_merge, "merge a branch, resolving citation conflicts", (("other_branch", "the branch to merge"),), (
        ("--ours", None, "keep this branch's record on conflicts"),
        ("--theirs", None, "take the other branch's record on conflicts"),
        ("--interactive", None, "prompt for each conflict (default)"),
    ), ("--ours", "--theirs", "--interactive")),
    "validate": (cmd_validate, "check the citation file against the working tree", (), (), ()),
}
_HELP = ("-h", "--help")
_NUMBER = r"^-\d+$|^-\d*\.\d+$"  # a word that reads as a negative number; compiled only once one is read


def _is_option(word: str, flags: Sequence[str]) -> bool:
    """Whether ``word`` is meant as an option: one of ``flags``, alone or
    before ``=``, or a word starting with '-' other than '-' itself, a
    negative number or a word holding a space."""
    if word.partition("=")[0] in flags:
        return True
    return word[:1] == "-" and word != "-" and " " not in word and not re.match(_NUMBER, word)


def parse_args(argv: Sequence[str]) -> tuple[Callable[..., int], dict[str, object]]:
    """The function of the command ``argv`` names and its keyword arguments,
    read by :data:`COMMANDS`; for ``-h``, a function that prints the help.

    Options and positionals may come in any order; ``--opt=value`` and
    ``--opt value`` are the same, each ``--field`` adds a pair while any
    other repeated option's last value counts, and every word after ``--``
    is a positional. Options must be spelled out. Anything else raises :class:`UsageError`: an unknown command or
    option, a missing or an extra argument, a missing or misplaced value,
    or two options that exclude each other. An unknown option or an extra
    argument is reported at the end, so a ``-h`` after it still helps.
    """
    if not argv:
        raise UsageError("no command given; 'gitcite -h' lists the commands")
    name, rest = argv[0], iter(argv[1:])
    if name in _HELP:
        return _show, {"text": _overview()}
    if name not in COMMANDS:
        raise UsageError(f"unknown command {name!r}; 'gitcite -h' lists the commands")
    func, _, positionals, options, exclusive = COMMANDS[name]
    metavars = {flag: metavar for flag, metavar, _ in options}
    flags = (*metavars, *_HELP)
    values: dict[str, object] = {}
    words: list[str] = []
    unknown: list[str] = []
    chosen = None  # the option given of those that exclude each other
    for word in rest:
        if word == "--":
            words.extend(rest)
            break
        if not _is_option(word, flags):
            words.append(word)
            continue
        flag, eq, value = word.partition("=")
        if flag not in flags:
            unknown.append(word)
            continue
        if eq and (flag in _HELP or metavars[flag] is None):
            raise UsageError(f"{name}: {flag} takes no value")
        if flag in _HELP:
            return _show, {"text": _command_help(name)}
        if metavars[flag] is None:
            value = True
        elif not eq:
            value = next(rest, None)
            if value is None or _is_option(value, flags):
                raise UsageError(f"{name}: {flag} needs a value")
        if flag in exclusive:
            if chosen not in (None, flag):
                raise UsageError(f"{name}: {chosen} and {flag} exclude each other")
            chosen = flag
        if flag == "--field":
            key, sep, text = value.partition("=")
            if not sep or not key:
                raise UsageError(f"{name}: --field expected KEY=VALUE, got {value!r}")
            value = [*values.get("field", ()), (key, text)]
        elif flag == "--format" and value not in render.FORMATS:
            raise UsageError(f"{name}: --format must be one of {', '.join(render.FORMATS)}, not {value!r}")
        values[flag[2:]] = value
    if len(words) < len(positionals):
        raise UsageError(f"{name}: missing {positionals[len(words)][0].upper()}")
    if unknown:
        raise UsageError(f"{name}: unknown option {unknown[0]!r}")
    if len(words) > len(positionals):
        raise UsageError(f"{name}: unexpected argument {words[len(positionals)]!r}")
    values.update((positional, word) for (positional, _), word in zip(positionals, words))
    return func, values


def _show(text: str) -> int:
    print(text)
    return EXIT_OK


def _overview() -> str:
    width = max(map(len, COMMANDS))
    lines = ["usage: gitcite COMMAND [ARGUMENTS]", "",
             "Attach citations to files and directories and resolve them by closest ancestor.", "", "commands:"]
    lines += (f"  {name:<{width}}  {spec[1]}" for name, spec in COMMANDS.items())
    lines += ["", "'gitcite COMMAND -h' describes the arguments of a command."]
    return "\n".join(lines)


def _command_help(name: str) -> str:
    _, help_text, positionals, options, exclusive = COMMANDS[name]
    shown = {flag: f"{flag} {metavar}" if metavar else flag for flag, metavar, _ in options}
    usage = [f"usage: gitcite {name}", *(positional.upper() for positional, _ in positionals)]
    if exclusive:
        usage.append(f"[{' | '.join(shown[flag] for flag in exclusive)}]")
    usage += (f"[{shown[flag]}]" for flag in shown if flag not in exclusive)
    rows = [(positional.upper(), text) for positional, text in positionals]
    rows += ((shown[flag], text) for flag, _, text in options)
    rows.append(("-h, --help", "print this help"))
    width = max(len(left) for left, _ in rows)
    return "\n".join([" ".join(usage), "", help_text, "", *(f"  {left:<{width}}  {text}" for left, text in rows)])


def main(argv: Sequence[str] | None = None) -> int:
    try:
        func, values = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"gitcite: {_printable(exc)}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = func(**values)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:  # the reader went away (``gitcite gen f | head -1``): quiet, as git is
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit is quiet too
        return EXIT_PIPE
    except KeyboardInterrupt:
        print("gitcite: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except _ENV_ERRORS as exc:
        print(f"gitcite: {_printable(exc)}", file=sys.stderr)
        return EXIT_ENV
    except (GitCiteError, ValueError) as exc:
        print(f"gitcite: {_printable(exc)}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    """:func:`main` as a process (``python -m gitcite.cli``, the ``gitcite``
    script). Freezing the heap spares the exit's collection a walk of what
    start-up made; in-process callers of :func:`main` keep a normal collector."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
