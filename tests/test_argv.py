"""The CLI's argv parser against the argparse parser it replaced.

``freesplit.cli.parse_args`` reads argv straight from the command table.
For every argv of the corpus in ``helpers.ARGV`` it must do what the
argparse parser built from the same table does: accept it with the same
handler and values, reject it with the same message, or show help and
exit 0.  Only the parse is compared; no handler runs.  The reading is that
of argparse in Python 3.10 to 3.12; 3.13 shows help for ``-ho`` where a
level has no ``-o`` flag, so the comparison does not run there.
"""

import io
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings

from freesplit.cli import _cmd_double, _cmd_tree_certificate, main, parse_args
from freesplit.errors import ParseError

from helpers import ARGV, reference_parser


def outcome(parse, argv):
    """("ok", values), ("error", message) or ("help", exit code, usage prog)."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            values = vars(parse(list(argv)))
    except ParseError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "help", exc.code, out.getvalue().split(" [")[0]
    return "ok", values


def reference(argv):
    return outcome(reference_parser().parse_args, argv)


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 reads -ho differently")
@settings(max_examples=1500, deadline=None)
@given(argv=ARGV)
@example(argv=["tree", "certificate", "--r", "2", "abAB"])
@example(argv=["indecomposable", "--rank", "-1", "-1 2", "-1"])
@example(argv=["double", "-o", "f", "--rank=2", "--output=g", "--", "-a", "--", "b"])
@example(argv=["--foo", "-h"])
@example(argv=["one-ended", "--", "--"])
@example(argv=["one-ended", "x.gog", "--"])
@example(argv=["present", "--", "x.gog", "--"])
def test_parse_matches_argparse(argv):
    assert outcome(parse_args, argv) == reference(argv)


class TestSyntax:
    """The argv syntax README documents, one example each."""

    def values(self, *argv):
        return vars(parse_args(list(argv)))

    def test_unique_prefixes_and_equals(self):
        got = self.values("tree", "certificate", "--rad", "3", "--form=json", "--ran=2", "abAB")
        assert got["rank"] == 2 and got["radius"] == 3 and got["format"] == "json"
        assert got["handler"] is _cmd_tree_certificate and got["name"] == "tree-certificate"

    def test_ambiguous_prefix_is_an_error(self):
        with pytest.raises(ParseError, match="ambiguous option: --r could match --rank, --radius"):
            parse_args(["tree", "certificate", "--r", "2", "abAB"])

    def test_negative_numbers_and_spaces_are_words(self):
        got = self.values("indecomposable", "-1", "-1 2", "--rank", "-1")
        assert got["words"] == ["-1", "-1 2"] and got["rank"] == -1

    def test_last_repeat_wins_and_double_dash_ends_flags(self):
        got = self.values("double", "--rank", "2", "-ofile", "--rank", "3", "--", "-a", "--strict")
        assert (got["rank"], got["output"], got["strict"]) == (3, "file", False)
        assert got["words"] == ["-a", "--strict"] and got["handler"] is _cmd_double

    def test_words_form_one_run(self):
        with pytest.raises(ParseError, match="unrecognized arguments: b"):
            parse_args(["graph", "a", "--rank", "2", "b"])

    @pytest.mark.parametrize("argv, message", [
        (["graph", "--rank=--", "a"], "argument --rank: invalid int value: '--'"),
        (["graph", "--rank", "2", "--format=--", "a"],
         "argument --format: invalid choice: '--' (choose from 'text', 'dot', 'json')"),
    ])
    def test_double_dash_after_equals_is_a_value(self, capsys, argv, message):
        # argparse dropped it and stored [], so --rank=-- raised a TypeError
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert self.values("double", "--rank", "2", "-o--", "a")["output"] == "--"
