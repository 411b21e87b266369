"""The command line as ``cli.COMMANDS`` reads it, checked against the
``argparse`` parser it replaced, which is kept here as the oracle."""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from gitcite import cli
from gitcite.cli import COMMANDS, UsageError, main, parse_args

FORMATS = ("text", "json", "bibtex")


def _field_pair(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key, value


def argparse_parser() -> argparse.ArgumentParser:
    """The parser the command line had before ``COMMANDS``; ``func`` names the command's function."""
    parser = argparse.ArgumentParser(prog="gitcite")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("init").set_defaults(func="cmd_init")

    def edit_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("path")
        p.add_argument("--field", action="append", type=_field_pair, metavar="KEY=VALUE")
        p.add_argument("--authors")

    p_add = sub.add_parser("add")
    edit_args(p_add)
    p_add.set_defaults(func="cmd_add")
    p_del = sub.add_parser("del")
    p_del.add_argument("path")
    p_del.set_defaults(func="cmd_del")
    p_mod = sub.add_parser("modify")
    edit_args(p_mod)
    p_mod.set_defaults(func="cmd_modify")
    p_gen = sub.add_parser("gen")
    p_gen.add_argument("path")
    source = p_gen.add_mutually_exclusive_group()
    source.add_argument("--version")
    source.add_argument("--remote", metavar="URL")
    p_gen.add_argument("--format", choices=FORMATS, default="text")
    p_gen.set_defaults(func="cmd_gen")
    p_copy = sub.add_parser("copy")
    p_copy.add_argument("src")
    p_copy.add_argument("src_subtree")
    p_copy.add_argument("dst_path")
    p_copy.set_defaults(func="cmd_copy")
    p_merge = sub.add_parser("merge")
    p_merge.add_argument("other_branch")
    pick = p_merge.add_mutually_exclusive_group()
    pick.add_argument("--ours", action="store_true")
    pick.add_argument("--theirs", action="store_true")
    pick.add_argument("--interactive", action="store_true")
    p_merge.set_defaults(func="cmd_merge")
    sub.add_parser("validate").set_defaults(func="cmd_validate")
    return parser


def _argparse_reads(argv: list[str]) -> argparse.Namespace | str:
    """The namespace ``argparse`` reads from ``argv``, or ``"help"`` or ``"error"``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return argparse_parser().parse_args(argv)
        except SystemExit as exc:
            return "help" if exc.code == 0 else "error"


# Words argparse reads alike on every supported Python: no abbreviation of an
# option (they are gone) and no "--" (whose handling argparse changed in 3.12).
# No unknown option comes before the command: the table refuses it at once,
# where argparse still printed the help for a "-h" after it.
_WORDS = st.sampled_from([
    "a.c", "sub/", "", "-", "-1", "-.5", "a b", "-a b", "x=y", "owner=X", "=x", "HEAD", "side", "json", "xml",
    "--field", "--authors", "--version", "--remote", "--format", "--ours", "--theirs", "--interactive",
    "--field=k=v", "--field=bad", "--format=json", "--version=", "--ours=1", "-h", "--help", "--nope", "-x",
])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([*COMMANDS, "nope", "", "-h", "--help"]), st.lists(_WORDS, max_size=6))
@example("merge", ["side", "--theirs", "--interactive"])
@example("gen", ["a.c", "--remote=u", "--version", "HEAD"])
@example("add", ["--authors", "-a b", "a.c", "--field", "owner=", "--authors=-1"])
def test_the_table_reads_what_argparse_read(command, words):
    argv = [command, *words]
    expected = _argparse_reads(argv)
    if expected == "error":
        with pytest.raises(UsageError):
            parse_args(argv)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 2  # parse_args refused it, so nothing runs
        assert err.getvalue().startswith("gitcite: ") and err.getvalue().count("\n") == 1
        return
    func, values = parse_args(argv)
    if expected == "help":
        assert func not in {spec[0] for spec in COMMANDS.values()}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert func(**values) == 0
        assert out.getvalue().startswith("usage: gitcite ")
        return
    bound = inspect.signature(func).bind(**values)
    bound.apply_defaults()
    namespace = vars(expected)
    assert func is getattr(cli, namespace.pop("func"))
    assert COMMANDS[namespace.pop("command")][0] is func
    if "field" in namespace:
        namespace["field"] = namespace["field"] or ()  # argparse's default for an appending option is None
    assert bound.arguments == namespace


@pytest.mark.parametrize(
    "argv, values",
    [
        (["gen", "--format=json", "a.c"], {"path": "a.c", "format": "json"}),
        (["gen", "a.c", "--version", "HEAD", "--version=HEAD~1"], {"path": "a.c", "version": "HEAD~1"}),
        (["add", "a.c", "--field", "owner=X", "--field=note=a=b"],
         {"path": "a.c", "field": [("owner", "X"), ("note", "a=b")]}),
        (["add", "--authors", "A, B", "--", "--field"], {"path": "--field", "authors": "A, B"}),
        (["del", "--", "-x.c"], {"path": "-x.c"}),
        (["copy", "../src", "--", "-lib/", "--"], {"src": "../src", "src_subtree": "-lib/", "dst_path": "--"}),
        (["merge", "--theirs", "side"], {"other_branch": "side", "theirs": True}),
    ],
)
def test_options_and_positionals_come_in_any_order(argv, values):
    func, got = parse_args(argv)
    assert func is COMMANDS[argv[0]][0] and got == values


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "no command given; 'gitcite -h' lists the commands"),
        (["nul\x00"], "unknown command 'nul\\x00'; 'gitcite -h' lists the commands"),
        (["gen", "a.c", "--vers", "HEAD"], "gen: unknown option '--vers'"),
        (["merge", "side", "--our"], "merge: unknown option '--our'"),
        (["gen"], "gen: missing PATH"),
        (["copy", "../src", "lib/"], "copy: missing DST_PATH"),
        (["del", "a.c", "b.c"], "del: unexpected argument 'b.c'"),
        (["gen", "a.c", "--version"], "gen: --version needs a value"),
        (["add", "a.c", "--authors", "--field", "k=v"], "add: --authors needs a value"),
        (["merge", "side", "--ours=yes"], "merge: --ours takes no value"),
        (["merge", "side", "--ours", "--interactive"], "merge: --ours and --interactive exclude each other"),
        (["gen", "a.c", "--format", "xml"], "gen: --format must be one of text, json, bibtex, not 'xml'"),
        (["modify", "a.c", "--field", "=x"], "modify: --field expected KEY=VALUE, got '=x'"),
    ],
)
def test_a_usage_error_is_one_line_and_exit_2(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"gitcite: {message}\n")


def test_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: gitcite COMMAND [ARGUMENTS]\n")
    for name, (_, summary, *_) in COMMANDS.items():
        assert f"\n  {name} " in out and f" {summary}\n" in out


def test_a_command_help_shows_its_usage_and_every_argument(capsys):
    assert main(["gen", "a.c", "-h", "--nope"]) == 0  # -h helps before anything else is reported
    assert capsys.readouterr() == (
        "usage: gitcite gen PATH [--version REV | --remote URL] [--format FORMAT]\n"
        "\n"
        "print the resolved citation of a path\n"
        "\n"
        "  PATH             file or directory (directories end with '/')\n"
        "  --version REV    resolve at a historical revision\n"
        "  --remote URL     resolve against a remote citation file\n"
        "  --format FORMAT  one of text, json, bibtex (default: text)\n"
        "  -h, --help       print this help\n",
        "",
    )
