"""Byte identity of CLI output as a Tier-1 check: every run of the corpus in
cli_corpus.py must print the golden line committed in cli_corpus.txt (exit
code, sha256 of stdout and of stderr, argv).  cli_corpus.py says how to
regenerate them."""

from pathlib import Path

from cli_corpus import corpus, line

GOLDEN = Path(__file__).with_name("cli_corpus.txt")


def _argv(text):
    """The line without its exit code and digests: the argv as JSON."""
    return text.split(" ", 3)[3]


def test_cli_corpus_matches_golden_lines():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    lines = [line(argv) for argv in corpus()]
    assert len(golden) == 216
    assert [_argv(x) for x in lines] == [_argv(x) for x in golden]
    changed = [_argv(x) for x, y in zip(lines, golden) if x != y]
    assert not changed, f"CLI output changed for: {changed}"
