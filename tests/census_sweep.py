"""A sweep of orbit-census reports, one line each: p, qdiag, pairs, c, kind,
group and the sha256 of the report's sorted JSON; the last line gives the
report count and the sha256 of all lines before it.  Two trees whose census
reports match give identical output:

    PYTHONPATH=<tree>/src python tests/census_sweep.py > out.txt

on each tree, then ``diff`` the two files.  The forms are every GF(3) form
of dim <= 2, every GF(5) and GF(7) form of dim <= 1, and every GF(5) form
of dim <= 2 with pair values 0 or 1 (so GF(5) dim <= 1 runs twice), each
for every c, both kinds and both groups: 1,836 censuses.

With ``--subset`` it prints only the lines of every GF(3) and GF(5) form
of dim <= 1 (168 censuses, no total line): the golden lines that
tests/test_census_golden.py compares against.  A change that alters census
reports on purpose regenerates them with

    PYTHONPATH=src python tests/census_sweep.py --subset \
        > tests/census_subset.txt

The file name lacks ``test_``, so pytest does not collect it.
"""

import hashlib
import itertools
import json
import sys

from vahlen.fields import PrimeField
from vahlen.halfspace import HalfSpace
from vahlen.quadratic import QuadraticSpace


def forms(field, max_dim, pair_values=None):
    values = range(field.modulus)
    pair_values = values if pair_values is None else pair_values
    for dim in range(max_dim + 1):
        keys = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        for qdiag in itertools.product(values, repeat=dim):
            for pv in itertools.product(pair_values, repeat=len(keys)):
                yield field, qdiag, dict(zip(keys, pv))


def subset():
    """Every GF(3) and GF(5) form of dim <= 1."""
    return itertools.chain(forms(PrimeField(3), 1), forms(PrimeField(5), 1))


def sweep(sources=None):
    """One line per census of the forms of sources, the full sweep's by
    default."""
    if sources is None:
        F3, F5, F7 = PrimeField(3), PrimeField(5), PrimeField(7)
        sources = itertools.chain(forms(F3, 2), forms(F5, 1), forms(F7, 1),
                                  forms(F5, 2, (0, 1)))
    for field, qdiag, pairs in sources:
        space = QuadraticSpace(field, qdiag, pairs)
        for c in range(field.modulus):
            for kind in ("vector", "paravector"):
                h = HalfSpace(space, c, kind)
                for group in ("special", "full"):
                    report = json.dumps(h.orbit_census(group),
                                        sort_keys=True)
                    digest = hashlib.sha256(report.encode()).hexdigest()
                    yield (f"{field.modulus} {list(qdiag)} "
                           f"{sorted(pairs.items())} {c} {kind} {group} "
                           f"{digest}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--subset"]:
        for line in sweep(subset()):
            print(line)
        sys.exit(0)
    total, count = hashlib.sha256(), 0
    for line in sweep():
        print(line, flush=True)
        total.update((line + "\n").encode())
        count += 1
    print(count, total.hexdigest())
