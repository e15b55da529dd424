"""The command-line harness: exit codes, JSON reports, determinism, and the
self-tests that prove failures actually surface."""

import itertools
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import vahlen
from vahlen import clifford
from vahlen.cli import main
from vahlen.fields import PRIME_BOUND, PrimeField, Q
from vahlen.halfspace import HalfSpace
from vahlen.matrices import MAX_EXHAUSTIVE_MATRICES
from vahlen.quadratic import QuadraticSpace
from vahlen.suites import boundary_parts

SPACE_F3_X2 = '{"field": "F3", "dim": 1, "qdiag": ["1"]}'
SPACE_F3_DEGEN = '{"field": "F3", "dim": 1, "qdiag": ["0"]}'
TRANSLATION = json.dumps({
    "a": [{"indices": [], "coeff": "1"}],
    "b": [{"indices": [0], "coeff": "1"}],
    "c": [],
    "d": [{"indices": [], "coeff": "1"}],
})
SIGMA_POINT = json.dumps({"kind": "regular", "v": ["0", "0"], "t": "1",
                          "c": "1", "model": "vector"})


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_default_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--samples", "25", "--seed", "3"])
    assert code == 0
    assert "all properties passed" in out


def test_verify_json_deterministic(capsys):
    args = ["verify", "--samples", "10", "--seed", "11", "--json"]
    code1, out1, _ = run(capsys, args)
    code2, out2, _ = run(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True
    assert all(p["passed"] for p in report["properties"])


def test_verify_corrupted_multiplication_fails(capsys, monkeypatch):
    """Harness self-test: a deliberately broken product must surface as an
    exit-1 failure with a counterexample, not as a silent pass."""
    true_mul = clifford.CliffordElement.__mul__

    def corrupt(self, other):
        out = true_mul(self, other)
        if isinstance(other, clifford.CliffordElement):
            for key in out.terms:
                if key.bit_count() == 2:
                    out.terms[key] = -out.terms[key]
                    break
        return out

    monkeypatch.setattr(clifford.CliffordElement, "__mul__", corrupt)
    code, out, _ = run(capsys, ["verify", "--samples", "10", "--seed", "1",
                                "--json"])
    assert code == 1
    report = json.loads(out)
    assert not report["passed"]
    failing = [p for p in report["properties"] if not p["passed"]]
    assert failing and all(p["counterexample"] for p in failing)


def test_verify_malformed_space_is_config_error(capsys):
    code, _, err = run(capsys, ["verify", "--space", "{not json"])
    assert code == 2
    assert "malformed" in err


def _bad_space(capsys, space):
    code, out, err = run(capsys, ["verify", "--samples", "1",
                                  "--space", space])
    assert code == 2 and not out
    assert err.startswith("error: bad space:")
    return err


def test_space_top_level_not_object(capsys):
    assert "JSON object" in _bad_space(capsys, "[1, 2]")


def test_space_qdiag_not_list(capsys):
    assert "lists" in _bad_space(capsys, '{"field": "Q", "qdiag": "12"}')


def test_space_pairs_not_list(capsys):
    assert "lists" in _bad_space(
        capsys, '{"field": "Q", "qdiag": ["1", "1"], "pairs": "0,1,1"}')


def test_space_reserved_labels(capsys):
    for name in ("sigma", "rho", "e", "f"):
        space = json.dumps({"field": "Q", "qdiag": ["1"],
                            "labels": {name: 0}})
        assert "reserved" in _bad_space(capsys, space)


def test_space_labels_out_of_range(capsys):
    for index in (7, -1, "0", 0.0):
        space = json.dumps({"field": "Q", "qdiag": ["1"],
                            "labels": {"a": index}})
        assert "basis index" in _bad_space(capsys, space)


def test_space_pair_index_float(capsys):
    assert "integers" in _bad_space(
        capsys, '{"field": "Q", "qdiag": ["1", "-1"], '
                '"pairs": [[0.9, 1, "1"]]}')


def test_space_pair_index_string(capsys):
    assert "integers" in _bad_space(
        capsys, '{"field": "Q", "qdiag": ["1", "-1"], '
                '"pairs": [["0", 1, "1"]]}')


def test_space_dim_bool(capsys):
    assert "dim" in _bad_space(
        capsys, '{"field": "Q", "dim": true, "qdiag": ["1"]}')


def test_space_dim_float(capsys):
    assert "dim" in _bad_space(
        capsys, '{"field": "Q", "dim": 2.0, "qdiag": ["1", "-1"]}')


def test_space_repeated_pair(capsys):
    assert "given once" in _bad_space(
        capsys, '{"field": "Q", "qdiag": ["1", "-1"], '
                '"pairs": [[0, 1, "1"], [0, 1, "2"]]}')


def test_verify_bad_field_and_flags(capsys):
    assert run(capsys, ["verify", "--field", "F9"])[0] == 2
    assert run(capsys, ["verify", "--field", "F2"])[0] == 2
    assert run(capsys, ["verify", "--samples", "0"])[0] == 2
    assert run(capsys, ["verify", "--c", "x"])[0] == 2
    # past the bound of the exact primality test
    assert run(capsys, ["verify", "--field", f"F{PRIME_BOUND + 2}"])[0] == 2
    # a --field that contradicts the space JSON
    code, out, err = run(capsys, ["verify", "--field", "F5", "--space",
                                  '{"field": "Q", "qdiag": ["1", "-1"]}'])
    assert code == 2 and not out and "conflicts" in err


def test_enumerate(capsys):
    code, out, _ = run(capsys, ["enumerate", "--field", "F3", "--space",
                                SPACE_F3_X2, "--kind", "vector", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["condition_sets_equal"] is True
    assert report["T_star_invariant"] is True
    assert report["counts"]["condition3"] == 96


def test_enumerate_guards(capsys):
    code, _, err = run(capsys, ["enumerate"])  # default space is over Q
    assert code == 2
    assert "finite field" in err
    code, _, err = run(capsys, ["enumerate", "--space",
                                '{"field": "F7", "qdiag": ["1", "1"]}'])
    assert code == 2
    assert "exceed" in err


def test_act_translation(capsys):
    code, out, _ = run(capsys, ["act", "--matrix", TRANSLATION,
                                "--point", SIGMA_POINT, "--cross-check",
                                "--json"])
    assert code == 0
    result = json.loads(out)
    assert result["result"] == {"kind": "regular", "v": ["1", "0"],
                                "t": "1", "c": "1", "model": "vector"}
    assert result["paths_agree"] is True


def test_act_weyl_to_boundary(capsys):
    weyl = json.dumps({
        "a": [], "b": [{"indices": [], "coeff": "-1"}],
        "c": [{"indices": [], "coeff": "1"}], "d": [],
    })
    iso_point = json.dumps({"kind": "regular", "v": ["1", "0"], "t": "1",
                            "c": "1", "model": "vector"})
    code, out, _ = run(capsys, ["act", "--matrix", weyl, "--point",
                                iso_point, "--json"])
    assert code == 0
    assert json.loads(out)["result"]["kind"] == "boundary"


def test_act_non_vahlen_names_clause(capsys):
    bad = json.dumps({
        "a": [{"indices": [], "coeff": "1"}],
        "b": [{"indices": [], "coeff": "1"}],  # scalar beta: not in V
        "c": [],
        "d": [{"indices": [], "coeff": "1"}],
    })
    code, _, err = run(capsys, ["act", "--matrix", bad, "--point",
                                SIGMA_POINT])
    assert code == 1
    assert "conj(alpha)*beta not in V" in err


def _bad_act(capsys, matrix, point):
    code, out, err = run(capsys, ["act", "--matrix", matrix,
                                  "--point", point])
    assert code == 2 and not out
    assert err.startswith("error: bad matrix or point:")
    return err


def test_act_matrix_not_object(capsys):
    assert "a, b, c, d" in _bad_act(capsys, "[1,2]", "{}")


def test_act_matrix_entry_not_list(capsys):
    assert "a, b, c, d" in _bad_act(capsys, '{"a":1}', SIGMA_POINT)
    entry = json.dumps({"a": 1, "b": [], "c": [], "d": []})
    assert "list of terms" in _bad_act(capsys, entry, SIGMA_POINT)
    term = json.dumps({"a": [{"indices": [[0]], "coeff": "1"}],
                       "b": [], "c": [], "d": []})
    assert "is not" in _bad_act(capsys, term, SIGMA_POINT)


def test_act_negative_monomial_index(capsys):
    """A negative index is refused, not read as the last generator."""
    matrix = json.dumps({"a": [{"indices": [], "coeff": "1"}],
                         "b": [{"indices": [-1], "coeff": "1"}],
                         "c": [], "d": [{"indices": [], "coeff": "1"}]})
    err = _bad_act(capsys, matrix, '{"kind":"regular","v":["0","0"],"t":"1"}')
    assert "bad monomial indices (-1,)" in err and "Traceback" not in err


def test_act_point_not_object(capsys):
    assert "JSON object" in _bad_act(capsys, TRANSLATION, "[1]")


def test_act_point_part_not_list(capsys):
    point = '{"kind":"regular","v":5,"t":"1"}'
    assert "list of coordinates" in _bad_act(capsys, TRANSLATION, point)


def test_orbit(capsys):
    code, out, _ = run(capsys, ["orbit", "--field", "F3", "--space",
                                SPACE_F3_X2, "--c", "1", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["transitive"] and report["predictions_ok"]
    code, out, _ = run(capsys, ["orbit", "--field", "F3", "--space",
                                SPACE_F3_DEGEN, "--c", "0", "--kind",
                                "paravector", "--group", "full", "--json"])
    assert code == 0


def test_orbit_prediction_mutation_fails(capsys, monkeypatch):
    """Harness self-test: a mutated K-set count must flip the exit code."""
    monkeypatch.setattr(HalfSpace, "k_set", lambda self: [])
    code, out, _ = run(capsys, ["orbit", "--field", "F3", "--space",
                                SPACE_F3_X2, "--c", "1", "--json"])
    assert code == 1
    assert json.loads(out)["counts_match_k"] is False


def test_orbit_oversize(capsys):
    code, _, err = run(capsys, ["orbit", "--space",
                                '{"field": "F5", "qdiag": '
                                '["1","1","1","1","1","1","1","1"]}'])
    assert code == 2


def test_space_and_matrix_from_files(capsys, tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text(SPACE_F3_X2)
    code, out, _ = run(capsys, ["enumerate", "--space", str(space_file),
                                "--json"])
    assert code == 0
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(TRANSLATION)
    code, out, _ = run(capsys, ["act", "--matrix", str(matrix_file),
                                "--point", SIGMA_POINT, "--json"])
    assert code == 0
    assert json.loads(out)["result"]["v"] == ["1", "0"]
    code, _, err = run(capsys, ["act", "--matrix",
                                str(tmp_path / "missing.json"),
                                "--point", SIGMA_POINT])
    assert code == 2


def test_orbit_byte_identical_reports(capsys):
    args = ["orbit", "--field", "F5", "--space",
            '{"field": "F5", "qdiag": []}', "--c", "1", "--json"]
    out1 = run(capsys, args)
    out2 = run(capsys, args)
    assert out1 == out2


def test_verify_solve_past_bound_exits_2(capsys, monkeypatch):
    """A refused linear solve inside a suite is a size error (exit 2), not
    a property failure and not a skipped sample."""
    monkeypatch.setattr(clifford, "MAX_SOLVE_DIM", 2)
    code, out, err = run(capsys, [
        "verify", "--samples", "4", "--seed", "1", "--json",
        "--space", '{"field": "Q", "qdiag": ["1", "-1", "2"]}'])
    assert code == 2 and not out
    assert err.startswith("error:") and "linear solve" in err


def _old_boundary_parts(hs, limit=6):
    """The listing search boundary_parts replaced, as its reference."""
    field = hs.field
    if isinstance(field, PrimeField):
        alphabet = list(field.elements())
    else:
        alphabet = [field.element(v)
                    for v in (0, 1, -1, 2, -2, Fraction(1, 2))]
    found = []
    for part in itertools.product(alphabet, repeat=hs.part_len):
        if hs.part_q(part) == hs.c:
            found.append(part)
            if len(found) >= limit:
                break
    return found


def test_boundary_parts_keep_their_order():
    """Streaming the candidates finds the same parts in the same order."""
    cases = [(Q, [1, -1], {}), (Q, [1, -1, 2, 0], {(0, 1): 1}),
             (PrimeField(3), [1, 0, 1], {}),
             (PrimeField(5), [1, 0], {(0, 1): 1}), (PrimeField(7), [2], {})]
    for field, qdiag, pairs in cases:
        space = QuadraticSpace(field, qdiag, pairs)
        for c in (1, 0, -1, 2):
            for kind in ("vector", "paravector"):
                hs = HalfSpace(space, c, kind)
                for limit in (6, 10 ** 6):
                    assert boundary_parts(hs, limit) == \
                        _old_boundary_parts(hs, limit)


def test_verify_huge_prime_field_stays_bounded():
    """verify over GF(2^61 - 1) neither lists the field nor its part
    tuples.  It runs in a child process whose address space is capped, so
    a listing search fails this test instead of exhausting memory."""
    cap = 1 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(vahlen.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from vahlen.cli import main; "
                               "sys.exit(main(sys.argv[1:]))",
         "verify", "--field", "F2305843009213693951", "--samples", "1",
         "--gen-length", "1"],
        capture_output=True, text=True, timeout=120, preexec_fn=limit_memory,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "all properties passed" in proc.stdout


def test_boundary_parts_past_the_budget_solve_for_a_coordinate():
    """Over GF(2^61 - 1) a numeral scan sees only parts with leading zeros
    and finds none of these; solving for one coordinate does, and each
    found part has q-value c."""
    field = PrimeField(2 ** 61 - 1)
    cases = [([1, 1], -1), ([1, -1, 2, 0], 1), ([1, -1, 2, 0], -1),
             ([0, 0], 0), ([0, 0], 1)]
    for qdiag, c in cases:
        for kind in ("vector", "paravector"):
            hs = HalfSpace(QuadraticSpace(field, qdiag), c, kind)
            found = boundary_parts(hs)
            assert all(hs.part_q(part) == hs.c for part in found)
            assert len(set(found)) == len(found)
            if qdiag != [0, 0]:
                assert len(found) == 6
    # q vanishes on V: the only boundary parts of H^1 are paravectors
    assert boundary_parts(HalfSpace(QuadraticSpace(field, [0, 0]), 1,
                                    "vector")) == []
    # a nonzero pairing and no square term: the coordinate is linear
    hs = HalfSpace(QuadraticSpace(field, [0, 0], {(0, 1): 1}), 3, "vector")
    found = boundary_parts(hs, limit=4)
    assert len(found) == 4 and all(hs.part_q(x) == hs.c for x in found)


def test_closed_pipe_exits_2_without_traceback():
    """A reader that closed stdout before the first line is not an error
    the harness reports with a traceback."""
    src = str(Path(vahlen.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "vahlen.cli", "enumerate", "--field",
             "F3", "--space", SPACE_F3_X2, "--kind", "vector"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Error" not in proc.stderr


def test_orbit_over_q_is_a_config_error(capsys):
    code, out, err = run(capsys, ["orbit", "--field", "Q", "--json"])
    assert code == 2 and not out
    assert err.startswith("error:") and "finite field" in err


def test_orbit_past_the_census_guard_exits_2_promptly():
    """Both spaces pass a guard on the point count alone, and both
    censuses ran for more than 15 s before the guard bounded the points
    times the generators."""
    src = str(Path(vahlen.__file__).resolve().parents[1])
    for space in ('{"field": "F9973", "qdiag": []}',
                  '{"field": "F997", "qdiag": ["1"]}'):
        proc = subprocess.run(
            [sys.executable, "-m", "vahlen.cli", "orbit", "--space", space,
             "--c", "1"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr.startswith("error:") and "guard" in proc.stderr


ONE_OVER_ZERO = json.dumps({"a": [{"indices": [], "coeff": "1/0"}],
                            "b": [], "c": [],
                            "d": [{"indices": [], "coeff": "1"}]})


@pytest.mark.parametrize("argv", [
    ["verify", "--space", '{"field": "Q", "qdiag": ["1/0"]}'],
    ["verify", "--space", '{"field": "Q", "qdiag": ["1", "1"], '
                          '"pairs": [[0, 1, "1/0"]]}'],
    ["act", "--matrix", ONE_OVER_ZERO, "--point", SIGMA_POINT],
    ["act", "--matrix", TRANSLATION, "--point",
     '{"kind": "regular", "v": ["0", "0"], "t": "1/0"}'],
    ["act", "--matrix", TRANSLATION, "--point",
     '{"kind": "regular", "v": ["0", "0"], "t": "1", "c": "1/0"}'],
    ["act", "--space", '{"field": "F3", "qdiag": ["1"]}', "--matrix",
     TRANSLATION, "--point", '{"kind": "regular", "v": ["0"], "t": "1/3"}'],
], ids=["space-qdiag", "pair-value", "matrix-coefficient", "point-coordinate",
        "point-c", "gf3-one-third"])
def test_zero_denominator_exits_2(capsys, argv):
    """A scalar whose denominator is zero in the field is a config error."""
    code, out, err = run(capsys, argv)
    assert code == 2 and not out
    assert err.startswith("error:") and "zero denominator" in err
    assert "Traceback" not in err


def test_enumerate_past_the_matrix_guard_exits_2_promptly():
    """GF(7) [1] (5.76e6 matrices) and GF(53) [] (7.9e6) are refused at
    once; unguarded, each would run for minutes.  GF(5) [1] (390,625) is
    admitted."""
    assert 5 ** 8 <= MAX_EXHAUSTIVE_MATRICES < 7 ** 8
    src = str(Path(vahlen.__file__).resolve().parents[1])
    for space in ('{"field": "F7", "qdiag": ["1"]}',
                  '{"field": "F53", "qdiag": []}'):
        proc = subprocess.run(
            [sys.executable, "-m", "vahlen.cli", "enumerate", "--space",
             space], capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr.startswith("error:") and "guard" in proc.stderr


def test_json_identical_across_hash_seeds():
    """String hashing varies between processes; the reports do not."""
    src = str(Path(vahlen.__file__).resolve().parents[1])
    space = json.dumps({"field": "Q", "dim": 4,
                        "qdiag": ["1", "-1", "2", "0"],
                        "pairs": [[0, 1, "1"], [2, 3, "1/2"]]})
    runs = [["verify", "--space", space, "--kind", "paravector", "--seed",
             "7", "--samples", "20", "--gen-length", "3", "--json"]]
    runs += [["orbit", "--space", '{"field": "F5", "qdiag": ["1", "0"]}',
              "--group", group, "--json"] for group in ("special", "full")]
    for argv in runs:
        outs = [subprocess.run(
            [sys.executable, "-m", "vahlen.cli"] + argv,
            capture_output=True, text=True, timeout=120, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        ).stdout for seed in ("0", "1")]
        assert outs[0] == outs[1] and json.loads(outs[0])
