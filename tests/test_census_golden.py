"""Byte identity of orbit-census reports as a Tier-1 check: the digest line
of every GF(3) and GF(5) census of dim <= 1 (every c, both kinds and both
groups) must match the committed golden lines in census_subset.txt.
census_sweep.py prints those lines and says how to regenerate them."""

from pathlib import Path

from census_sweep import subset, sweep

GOLDEN = Path(__file__).with_name("census_subset.txt")


def _config(line):
    """The line without its digest: p, qdiag, pairs, c, kind and group."""
    return line.rsplit(" ", 1)[0]


def test_census_subset_matches_golden_lines():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    lines = list(sweep(subset()))
    assert len(golden) == 168
    assert [_config(x) for x in lines] == [_config(x) for x in golden]
    changed = [_config(x) for x, y in zip(lines, golden) if x != y]
    assert not changed, f"census reports changed for: {changed}"
