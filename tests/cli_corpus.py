"""A fixed corpus of CLI runs, one line each: exit code, sha256 of stdout,
sha256 of stderr, argv.  Two trees whose outputs match give byte-identical
reports on every run of the corpus:

    PYTHONPATH=<tree>/src python tests/cli_corpus.py > out.txt

on each tree, then ``diff`` the two files.  The runs are ``verify --json``
(seed 7, c in {1, 0, -1}, both kinds, on the default space and on the
dim-4 ``verify-q`` space), ``enumerate --json`` over GF(3) ``[1]``, ``[0]``
and ``[2]``, ``orbit --json`` on the 60 criterion-7 configurations and the
``census-gf`` configurations of ``bench/expected.json`` with both groups,
and the 64 ``act-cold`` argument lists of seed 7.  ``bench/`` is only read.
A passing ``verify`` report holds only property names and verdicts, so the
12 ``verify`` runs compare verdicts, not samples.

tests/test_cli_corpus_golden.py compares every line against the golden
lines in cli_corpus.txt.  A change that alters CLI output on purpose
regenerates them with

    PYTHONPATH=src python tests/cli_corpus.py > tests/cli_corpus.txt

The file name lacks ``test_``, so pytest does not collect it.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
import traceback
from pathlib import Path

sys.dont_write_bytecode = True  # leave bench/ as it is
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from vahlen.cli import main  # noqa: E402

KINDS = ("vector", "paravector")
GROUPS = ("special", "full")
SEED = 7


def _space(field, qdiag):
    return json.dumps({"field": field, "dim": len(qdiag), "qdiag": qdiag},
                      sort_keys=True)


def corpus():
    verify_space = json.dumps(workloads.VERIFY_SPACE, sort_keys=True)
    for space, c, kind in itertools.product((None, verify_space),
                                            ("1", "0", "-1"), KINDS):
        argv = ["verify", "--json", "--seed", str(SEED), "--c", c,
                "--kind", kind, "--samples", "20", "--gen-length", "3"]
        yield argv + ["--space", space] if space else argv
    for q, kind in itertools.product(("1", "0", "2"), KINDS):
        yield ["enumerate", "--json", "--space", _space("F3", [q]),
               "--kind", kind]
    # criterion 7 of tests/test_acceptance.py
    for field, qdiag, c, kind, group in itertools.product(
            ("F3", "F5"), ([], ["1"], ["0"], ["1", "-1"], ["1", "0"]),
            ("0", "1", "2"), KINDS, GROUPS):
        yield ["orbit", "--json", "--space", _space(field, qdiag),
               "--c", c, "--kind", kind, "--group", group]
    for cfg, group in itertools.product(
            workloads.EXPECTED["census-gf"]["configs"], GROUPS):
        yield ["orbit", "--json",
               "--space", json.dumps(cfg["space"], sort_keys=True),
               "--c", cfg["c"], "--kind", cfg["kind"], "--group", group]
    act = workloads.build("act-cold", SEED)
    for i in range(workloads.ACT_POOL):
        yield act.argv(i)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is an outcome of its own
            code = "raised"
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def line(argv):
    """The corpus line of one run: exit code, the two digests, argv."""
    code, out, err = run(argv)
    return f"{code} {_sha(out)} {_sha(err)} {json.dumps(argv)}"


if __name__ == "__main__":
    for argv in corpus():
        print(line(argv), flush=True)
