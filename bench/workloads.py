"""Seeded inputs and verdict gates for the four benchmark workloads.

A workload is a fixed cycle of operations.  One operation is one argument
list for ``vahlen.cli.main``; every operation parses its space from JSON
afresh, so the per-space caches start cold, as they do on every CLI
invocation.  A run always completes whole cycles, so every run of a
workload executes the same mix of operation kinds whatever its seed, and
at least ``min_ops`` operations, so that its tail percentile
``100 * (1 - 10 / min_ops)`` always has ten samples beyond it (the
median, where ``min_ops`` is under 20).

Each operation is checked against the fields of its report that
mathematics fixes, never against a digest of the whole report, so that new
report fields do not read as failures.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

EXPECTED = json.loads(
    Path(__file__).with_name("expected.json").read_text(encoding="utf-8"))

KINDS = ("vector", "paravector")

# the degenerate, non-orthogonal space of verify-q; act-cold adds a fifth
# coordinate with q(e_4) = 3
VERIFY_SPACE = {"field": "Q", "dim": 4, "qdiag": ["1", "-1", "2", "0"],
                "pairs": [[0, 1, "1"], [2, 3, "1/2"]]}
ACT_SPACE = {"field": "Q", "dim": 5, "qdiag": ["1", "-1", "2", "0", "3"],
             "pairs": [[0, 1, "1"], [2, 3, "1/2"]]}

VERIFY_C = ("1", "0", "-1")
VERIFY_SAMPLES = "2"
VERIFY_GEN_LENGTH = "1"
# per-op seeds are seed * OP_STRIDE + op index, so two workload seeds never
# share an operation
OP_STRIDE = 1_000_000

ACT_POOL = 64
ACT_LENGTH = 6
# total terms over the four matrix entries; op cost grows with its square,
# so the band bounds the cost of one operation
ACT_TERMS = (16, 32)
_SMALL = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3))


class Workload:
    """A cycle of CLI operations with a verdict gate for each."""

    name = ""
    cycle = 1
    min_ops = 20

    def argv(self, i):
        raise NotImplementedError

    def check(self, i, rc, out):
        """None if operation i's exit code and output are right, else why."""
        raise NotImplementedError


def _report(out):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def _fields_mismatch(report, expect):
    for key, want in expect.items():
        got = report.get(key)
        if got != want:
            return f"{key} is {got!r}, expected {want!r}"
    return None


class VerifyQ(Workload):
    """``verify`` over Q, cycling kind and c; the seed picks the samples."""

    name = "verify-q"
    cycle = 2 * len(VERIFY_C)
    min_ops = 30

    def __init__(self, seed):
        self.seed = seed
        self.space = json.dumps(VERIFY_SPACE, sort_keys=True)
        self.properties = EXPECTED[self.name]["properties"]

    def argv(self, i):
        return ["verify", "--json", "--space", self.space,
                "--kind", KINDS[i % 2], "--c", VERIFY_C[(i // 2) % 3],
                "--seed", str(self.seed * OP_STRIDE + i),
                "--samples", VERIFY_SAMPLES,
                "--gen-length", VERIFY_GEN_LENGTH]

    def check(self, i, rc, out):
        if rc != 0:
            return f"exit code {rc!r}, expected 0"
        report = _report(out)
        if report is None:
            return "output is not JSON"
        names = [p.get("name") for p in report.get("properties", [])]
        if names != self.properties:
            return f"property names {names!r}"
        failed = [p["name"] for p in report["properties"] if not p["passed"]]
        if failed or report.get("passed") is not True:
            return f"failed properties {failed!r}"
        return None


class FixedConfigs(Workload):
    """A fixed list of configurations in an order permuted by the seed."""

    command = ""

    def __init__(self, seed):
        self.configs = EXPECTED[self.name]["configs"]
        self.order = random.Random(seed).sample(range(len(self.configs)),
                                                len(self.configs))
        self.cycle = len(self.configs)

    def config(self, i):
        return self.configs[self.order[i % self.cycle]]

    def argv(self, i):
        cfg = self.config(i)
        argv = [self.command, "--json",
                "--space", json.dumps(cfg["space"], sort_keys=True),
                "--kind", cfg["kind"]]
        return argv + ["--c", cfg["c"]] if "c" in cfg else argv

    def check(self, i, rc, out):
        cfg = self.config(i)
        if rc != cfg["rc"]:
            return f"{cfg['label']}: exit code {rc!r}, expected {cfg['rc']}"
        report = _report(out)
        if report is None:
            return f"{cfg['label']}: output is not JSON"
        why = _fields_mismatch(report, cfg["report"])
        return f"{cfg['label']}: {why}" if why else None


class CensusGF(FixedConfigs):
    """``orbit`` censuses over finite fields, criterion-7 config included."""

    name = "census-gf"
    command = "orbit"
    # seven configs, so the run median is the fourth-fastest config's time,
    # not the midpoint of a gap between two configs
    min_ops = 28


class EnumerateGF3(FixedConfigs):
    """Exhaustive four-condition checks over GF(3), dimension 1."""

    name = "enumerate-gf3"
    command = "enumerate"
    # ops take over a second, so no percentile above the median can have
    # ten samples beyond it within one run of reasonable length
    min_ops = 12


class ActCold(Workload):
    """``act --cross-check`` of random Vahlen matrices on seeded points, each
    on a freshly parsed dimension-5 space over Q.

    The pool alternates kind and point type, and one cycle is the whole
    pool.  Slot j holds the same matrix under every seed: the product of
    six ``random_generator`` draws from ``Random(j)``, as ``random_vahlen``
    forms it.  Op cost varies about threefold between matrices of one size,
    so a matrix pool drawn per seed would move the run median by more than
    the metric's bound; the seed draws the points.  The expected image is
    the point pushed through the six generators one at a time, which must
    equal the action of their product.
    """

    name = "act-cold"
    cycle = ACT_POOL
    min_ops = 100

    def __init__(self, seed):
        from vahlen.halfspace import HalfSpace, point_to_json
        from vahlen.matrices import matrix_to_json, random_generator
        from vahlen.quadratic import space_from_json

        self._point_to_json = point_to_json
        space = space_from_json(ACT_SPACE)
        self.space_json = json.dumps(ACT_SPACE, sort_keys=True)
        self.halfspaces = {kind: HalfSpace(space, 1, kind) for kind in KINDS}
        rng = random.Random(seed)
        self.inputs = []
        for j in range(ACT_POOL):
            kind = KINDS[j % 2]
            boundary = (j // 2) % 2 == 1
            hs = self.halfspaces[kind]
            matrix_rng = random.Random(j)
            while True:
                gens = [random_generator(space, kind, matrix_rng)
                        for _ in range(ACT_LENGTH)]
                m = gens[0]
                for g in gens[1:]:
                    m = m * g
                terms = sum(len(x.coeffs) for x in m.entries())
                if ACT_TERMS[0] <= terms <= ACT_TERMS[1]:
                    break
            point = (_boundary_point(hs, rng) if boundary
                     else _regular_point(hs, rng))
            self.inputs.append({
                "kind": kind, "boundary": boundary, "gens": gens,
                "point": point,
                "argv": ["act", "--json", "--cross-check",
                         "--space", self.space_json, "--kind", kind,
                         "--c", "1",
                         "--matrix", json.dumps(matrix_to_json(m),
                                                sort_keys=True),
                         "--point", json.dumps(point_to_json(hs, point),
                                               sort_keys=True)]})
        self._expected = {}

    def argv(self, i):
        return self.inputs[i % ACT_POOL]["argv"]

    def boundary_input(self, i):
        return self.inputs[i % ACT_POOL]["boundary"]

    def expected_image(self, i):
        j = i % ACT_POOL
        if j not in self._expected:
            item = self.inputs[j]
            hs = self.halfspaces[item["kind"]]
            image = item["point"]
            for g in reversed(item["gens"]):
                image = hs.mobius_apply(g, image)
            self._expected[j] = self._point_to_json(hs, image)
        return self._expected[j]

    def check(self, i, rc, out):
        if rc != 0:
            return f"exit code {rc!r}, expected 0"
        report = _report(out)
        if report is None:
            return "output is not JSON"
        if report.get("paths_agree") is not True:
            return "Moebius and K-model paths disagree"
        if report.get("result") != self.expected_image(i):
            return (f"image {report.get('result')!r}, expected "
                    f"{self.expected_image(i)!r}")
        return None


def _small(hs, rng, nonzero=False):
    pool = _SMALL if nonzero else (0,) + _SMALL
    return hs.field.element(rng.choice(pool))


def _regular_point(hs, rng):
    return hs.regular_point([_small(hs, rng) for _ in range(hs.part_len)],
                            _small(hs, rng, nonzero=True))


def _boundary_point(hs, rng):
    """A part with q-value c: q is linear in coordinate 3, whose q(e_3) is 0
    and whose pairing with coordinate 2 is nonzero, so solve for it."""
    off = hs.part_len - hs.space.dim
    part = [_small(hs, rng) for _ in range(hs.part_len)]
    part[off + 2] = _small(hs, rng, nonzero=True)
    part[off + 3] = hs.field.zero
    rest = hs.part_q(tuple(part))
    part[off + 3] = (hs.c - rest) / (hs.space.pairs[(2, 3)] * part[off + 2])
    return hs.boundary_point(part, _small(hs, rng))


WORKLOADS = {w.name: w for w in (VerifyQ, CensusGF, EnumerateGF3, ActCold)}


def build(name, seed):
    """Generate the seeded inputs of one workload (vahlen must import)."""
    return WORKLOADS[name](seed)
