import json
import math
import os
import stat

import numpy as np
import pytest

from qmultitest import cli, random_density
from qmultitest.errors import ScenarioParseError
from qmultitest.scenario import load_scenario, scenario_document, scenario_from_dict


def write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def strict_json(text):
    """Parse RFC 8259 JSON: ``NaN`` and ``Infinity`` are rejected."""

    def reject(constant):
        raise ValueError(f"non-finite constant {constant} in report")

    return json.loads(text, parse_constant=reject)


def two_state_doc():
    return {
        "version": 1,
        "dim": 2,
        "states": [
            {"type": "random", "rank": 2, "seed": 5},
            {"type": "random", "rank": 2, "seed": 6},
        ],
    }


def append_mix(**fields):
    """A mutation that appends a mix of the two states, with ``fields``
    overriding its entries."""
    spec = {"type": "mix", "base": 0, "other": 1, "epsilon": 0.5, **fields}
    return lambda doc: doc["states"].append(spec)


def orthogonal_triple_doc():
    return {
        "version": 1,
        "dim": 3,
        "states": [
            {"type": "pure", "amplitudes": [[1, 0], [0, 0], [0, 0]]},
            {"type": "pure", "amplitudes": [[0, 0], [1, 0], [0, 0]]},
            {"type": "pure", "amplitudes": [[0, 0], [0, 0], [1, 0]]},
        ],
        "labels": ["a", "b", "c"],
    }


class TestScenarioParsing:
    def test_all_spec_kinds(self, tmp_path):
        doc = {
            "version": 1,
            "dim": 2,
            "states": [
                {"type": "matrix", "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
                {"type": "pure", "amplitudes": [[1, 0], [0, 0]]},
                {"type": "classical", "probabilities": [0.2, 0.8]},
                {"type": "random", "rank": 2, "seed": 7},
                {"type": "mix", "base": 0, "other": 1, "epsilon": 0.25},
            ],
        }
        ensemble = load_scenario(write_doc(tmp_path / "s.json", doc))
        assert ensemble.r == 5
        np.testing.assert_allclose(ensemble.states[0].matrix, np.eye(2) / 2)
        expected_mix = 0.75 * np.eye(2) / 2 + 0.25 * np.diag([1.0, 0.0])
        np.testing.assert_allclose(ensemble.states[4].matrix, expected_mix)

    def test_inline_mix_spec(self):
        doc = {
            "version": 1,
            "dim": 2,
            "states": [
                {"type": "random", "rank": 2, "seed": 1},
                {
                    "type": "mix",
                    "base": 0,
                    "other": {"type": "random", "rank": 2, "seed": 2},
                    "epsilon": 0.5,
                },
            ],
        }
        ensemble = scenario_from_dict(doc)
        rho = random_density(2, 2, 1)
        sigma = random_density(2, 2, 2)
        np.testing.assert_allclose(
            ensemble.states[1].matrix,
            0.5 * rho.matrix + 0.5 * sigma.matrix,
        )

    def test_random_specs_reproduce_bit_exactly(self):
        a = scenario_from_dict(two_state_doc())
        b = scenario_from_dict(two_state_doc())
        for x, y in zip(a.states, b.states):
            assert x.matrix.tobytes() == y.matrix.tobytes()

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(version=2), "version"),
            (lambda d: d.update(dim="x"), "dim"),
            (lambda d: d.update(states=[]), "states"),
            (lambda d: d["states"].__setitem__(0, {"type": "bogus"}), r"states\[0\]"),
            (
                lambda d: d["states"].__setitem__(
                    0, {"type": "mix", "base": 1, "other": 0, "epsilon": 0.5}
                ),
                "base",
            ),
            # JSON booleans are not integers, though Python's bool is one.
            (lambda d: d.update(version=True), r"^version: .* got True$"),
            (lambda d: d.update(dim=True), r"^dim: .* got True$"),
            (lambda d: d["states"][0].update(rank=True), r"states\[0\]\.rank"),
            (lambda d: d["states"][0].update(seed=True), r"states\[0\]\.seed"),
            (append_mix(base=False), r"states\[2\]\.base"),
            (append_mix(other=True), r"states\[2\]\.other"),
            (
                append_mix(
                    other={"type": "random", "rank": 2, "seed": 9}, epsilon=True
                ),
                r"states\[2\]\.epsilon",
            ),
        ],
    )
    def test_parse_errors_carry_context(self, mutate, fragment):
        doc = two_state_doc()
        mutate(doc)
        with pytest.raises(ScenarioParseError, match=fragment):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("value", [None, "0.5", True, math.nan, math.inf])
    @pytest.mark.parametrize(
        "field,spec",
        [
            (
                "entries",
                {"type": "matrix", "entries": [[[1, 0], [0, 0]], [[0, 0], ["X", 0]]]},
            ),
            ("amplitudes", {"type": "pure", "amplitudes": [[1, 0], ["X", 0]]}),
            ("probabilities", {"type": "classical", "probabilities": ["X", 0.5]}),
        ],
    )
    def test_non_finite_numbers_are_parse_errors(self, field, spec, value):
        # json.loads reads NaN and Infinity; NumPy reads null as NaN and a
        # numeric string as its number.  Each is refused, naming the field.
        doc = two_state_doc()
        text = json.dumps(value)
        doc["states"][1] = json.loads(json.dumps(spec).replace('"X"', text))
        with pytest.raises(ScenarioParseError) as info:
            scenario_from_dict(doc)
        kind = "finite number" if isinstance(value, float) else "number"
        assert str(info.value) == f"states[1].{field}: {text} is not a {kind}"

    def test_probability_past_the_float_range_is_a_parse_error(self):
        doc = two_state_doc()
        doc["states"][1] = {"type": "classical", "probabilities": [10**400, 0]}
        with pytest.raises(ScenarioParseError) as info:
            scenario_from_dict(doc)
        assert str(info.value).startswith("states[1].probabilities: 1000")

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioParseError):
            load_scenario(path)

    def test_write_and_reload(self, tmp_path):
        ensemble = load_scenario(write_doc(tmp_path / "out.json", two_state_doc()))
        assert ensemble.dim == 2 and ensemble.r == 2


class TestChernoffCommand:
    def test_two_state_report(self, tmp_path, capsys):
        path = write_doc(tmp_path / "s.json", two_state_doc())
        assert cli.main(["chernoff", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["r"] == 2
        assert len(report["pairs"]) == 1
        assert report["pairs"][0]["i"] == 0 and report["pairs"][0]["j"] == 1
        assert report["condition"] is None
        assert report["least_favorable"]["pair"] == [0, 1]

    def test_equidistant_condition_fails(self, tmp_path, capsys):
        assert cli.main(["gen", "equidistant-classical", "--r", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        path = write_doc(tmp_path / "eq.json", doc)
        assert cli.main(["chernoff", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["condition"]["holds"] is False
        first = report["pairs"][0]["exponent"]
        last = report["pairs"][2]["exponent"]
        assert abs(first - last) <= 1e-9

    def test_generated_condition_holds(self, tmp_path, capsys):
        out = tmp_path / "cond.json"
        assert cli.main(
            ["gen", "condition-satisfying", "--seed", "7", "--out", str(out)]
        ) == 0
        assert cli.main(["chernoff", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["condition"]["holds"] is True
        assert report["condition"]["margin"] > 0

    def test_orthogonal_report_is_strict_json(self, tmp_path, capsys):
        path = write_doc(tmp_path / "o.json", orthogonal_triple_doc())
        assert cli.main(["chernoff", path]) == 0
        report = strict_json(capsys.readouterr().out)
        for pair in report["pairs"]:
            assert pair["exponent"] is None and pair["f_min"] == 0.0
        assert report["least_favorable"]["exponent"] is None
        condition = report["condition"]
        assert condition["holds"] is True
        for key in ("pair_distance", "others_min", "threshold", "margin"):
            assert condition[key] is None

    def test_each_pair_computed_once(self, tmp_path, chernoff_calls):
        doc = {
            "version": 1,
            "dim": 2,
            "states": [
                {"type": "random", "rank": 2, "seed": 20 + k} for k in range(4)
            ],
        }
        path = write_doc(tmp_path / "four.json", doc)
        assert cli.main(["chernoff", path, "--out", str(tmp_path / "c.json")]) == 0
        assert len(chernoff_calls) == 6

    def test_report_bytes_stable_on_reload(self, tmp_path, capsys):
        src = write_doc(tmp_path / "s.json", two_state_doc())
        first_out = tmp_path / "r1.json"
        assert cli.main(["chernoff", src, "--out", str(first_out)]) == 0
        doc = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))
        copy = tmp_path / "copy.json"
        write_doc(copy, scenario_document(doc["dim"], doc["states"]))
        second_out = tmp_path / "r2.json"
        assert cli.main(["chernoff", str(copy), "--out", str(second_out)]) == 0
        assert first_out.read_bytes() == second_out.read_bytes()


@pytest.mark.parametrize("labels", [["rho", "sigma"], None])
def test_labels_reach_both_reports(tmp_path, capsys, labels):
    # An unlabeled scenario writes null.
    doc = two_state_doc()
    if labels is not None:
        doc["labels"] = labels
    path = write_doc(tmp_path / "s.json", doc)
    assert cli.main(["chernoff", path]) == 0
    assert strict_json(capsys.readouterr().out)["labels"] == labels
    assert cli.main(["run", path, "--n-max", "3", "--format", "json"]) == 0
    assert strict_json(capsys.readouterr().out)["labels"] == labels


class TestRunCommand:
    def test_csv_header_and_binary_consistency(self, tmp_path, capsys):
        path = write_doc(tmp_path / "s.json", two_state_doc())
        assert cli.main(["run", path, "--n-min", "1", "--n-max", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == (
            "n,n1,n2,err_sm,err_avg,rate,binary_bound,"
            "reference_level,overall_rhs,lemma_holds,overall_holds"
        )
        assert len(lines) == 5
        from qmultitest import chernoff_distance, holevo_helstrom
        from qmultitest.detectors import misses

        pair = load_scenario(path).states
        xi = chernoff_distance(*pair).exponent
        for n, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            err = sum(misses(pair, holevo_helstrom(*pair, n)))
            assert int(cells[0]) == n
            assert cells[1] == "" and cells[2] == ""
            assert float(cells[3]) == pytest.approx(err, abs=1e-12)
            assert float(cells[6]) == pytest.approx(math.exp(-n * xi), abs=1e-12)
            assert cells[8] == "" and cells[9] == "" and cells[10] == ""

    def test_orthogonal_triple_all_zero(self, tmp_path, capsys):
        path = write_doc(tmp_path / "o.json", orthogonal_triple_doc())
        assert cli.main(["run", path, "--n-min", "2", "--n-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        for line in lines[1:]:
            cells = line.split(",")
            assert abs(float(cells[3])) <= 1e-9
            assert cells[5] == ""  # no rate for a zero row

    def test_orthogonal_csv_writes_inf(self, tmp_path, capsys):
        # CSV cells are Python float reprs, so the infinite reference
        # level reads ``inf`` where the JSON table writes ``null``.
        path = write_doc(tmp_path / "o.json", orthogonal_triple_doc())
        assert cli.main(["run", path, "--n-min", "2", "--n-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split(",")[7] for line in lines[1:]] == ["inf", "inf"]

    def test_byte_stable_output(self, tmp_path):
        path = write_doc(tmp_path / "s.json", two_state_doc())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["run", path, "--n-max", "4", "--out", str(out1)]) == 0
        assert cli.main(["run", path, "--n-max", "4", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path, capsys):
        path = write_doc(tmp_path / "s.json", two_state_doc())
        assert cli.main(["run", path, "--n-max", "5", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r"] == 2
        assert len(doc["rows"]) == 4
        assert doc["fitted_slope"] is not None
        assert doc["fitted_slope"] >= doc["pair_exponent"] - 1e-9
        assert "slope_exceeds_bottleneck" in doc

    def test_orthogonal_json_table_is_strict_json(self, tmp_path, capsys):
        path = write_doc(tmp_path / "o.json", orthogonal_triple_doc())
        argv = ["run", path, "--n-min", "2", "--n-max", "3", "--format", "json"]
        assert cli.main(argv) == 0
        doc = strict_json(capsys.readouterr().out)
        for key in ("pair_exponent", "others_min", "reference_level"):
            assert doc[key] is None
        assert doc["least_favorable"]["exponent"] is None
        assert doc["condition"]["margin"] is None
        assert all(pair["exponent"] is None for pair in doc["pairwise"])
        assert [row["binary_bound"] for row in doc["rows"]] == [0.0, 0.0]

    def test_out_of_memory_exit_code(self, tmp_path, monkeypatch, capsys):
        path = write_doc(tmp_path / "s.json", two_state_doc())

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 256. MiB")

        monkeypatch.setattr(cli, "run_experiment", exhausted)
        assert cli.main(["run", path, "--n-max", "4"]) == 3
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 256. MiB\n"

    def test_lemma_and_overall_flags_for_triple(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "dim": 2,
            "states": [
                {"type": "random", "rank": 2, "seed": 30},
                {"type": "random", "rank": 2, "seed": 31},
                {"type": "random", "rank": 2, "seed": 32},
            ],
        }
        path = write_doc(tmp_path / "t.json", doc)
        assert cli.main(["run", path, "--n-min", "2", "--n-max", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[9] == "true" and cells[10] == "true"
            assert cells[1] != "" and cells[2] != ""

    def test_nearly_singular_pgm_sub_detectors_compose(self, tmp_path, capsys):
        # Seed 1508's PGM sub-detectors have a nearly singular average state.
        # Built on spin blocks, their elements are exactly invariant, so the
        # composition takes every partial and each bound holds.
        path = str(tmp_path / "c.json")
        gen = ["gen", "condition-satisfying", "--r", "3", "--d", "2"]
        assert cli.main([*gen, "--seed", "1508", "--out", path]) == 0
        capsys.readouterr()
        run = ["run", path, "--n-max", "10", "--sub", "pgm", "--format", "json"]
        assert cli.main(run) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = strict_json(captured.out)["rows"]
        assert [row["n"] for row in rows] == list(range(2, 11))
        assert all(row["lemma_holds"] is True for row in rows)
        assert all(row["overall_holds"] is True for row in rows)

    def test_bad_range_is_validation_error(self, tmp_path):
        path = write_doc(tmp_path / "s.json", two_state_doc())
        assert cli.main(["run", path, "--n-min", "3", "--n-max", "2"]) == 1

    def test_unsplittable_budget_is_validation_error(self, tmp_path):
        doc = {
            "version": 1,
            "dim": 2,
            "states": [
                {"type": "random", "rank": 2, "seed": 40 + k} for k in range(3)
            ],
        }
        path = write_doc(tmp_path / "s.json", doc)
        assert cli.main(["run", path, "--n-min", "1", "--n-max", "3"]) == 1

    def test_cap_exit_code(self, tmp_path):
        path = write_doc(tmp_path / "s.json", two_state_doc())
        assert cli.main(["run", path, "--n-max", "13"]) == 3

    def test_cap_names_first_copy_count_past_it(
        self, tmp_path, capsys, chernoff_calls
    ):
        path = write_doc(tmp_path / "s.json", two_state_doc())
        assert cli.main(["run", path, "--n-max", "14"]) == 3
        err = capsys.readouterr().err
        assert err == "error: n = 13 needs dim 8192 > cap 4096\n"
        assert chernoff_calls == []  # refused before any work

    @pytest.mark.parametrize("d, n", [(2, 14285), (3, 100000000)])
    def test_cap_far_past_it_is_a_cap_refusal(
        self, tmp_path, capsys, chernoff_calls, d, n
    ):
        # 2^14285 has more digits than an int converts to a string, and
        # 3^100000000 takes minutes to compute: neither is formed.
        doc = {
            "version": 1,
            "dim": d,
            "states": [{"type": "random", "rank": d, "seed": 5 + k} for k in range(2)],
        }
        path = write_doc(tmp_path / "s.json", doc)
        assert cli.main(["run", path, "--n-min", str(n), "--n-max", str(n)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: n = {n} needs dim {d}^{n} > cap 4096\n"
        assert chernoff_calls == []

    @pytest.mark.parametrize("k_fit", ["0", "1"])
    def test_short_fit_window_exit_code(self, tmp_path, capsys, k_fit):
        path = write_doc(tmp_path / "s.json", two_state_doc())
        out = tmp_path / "t.json"
        args = ["run", path, "--n-max", "5", "--k-fit", k_fit, "--format", "json"]
        assert cli.main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: k_fit must be at least 2, got {k_fit}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("r", ["2", "3"])
    @pytest.mark.parametrize("w1", ["1.5", "1", "0", "-0.25", "nan"])
    def test_weight_outside_unit_interval_refused(
        self, tmp_path, capsys, chernoff_calls, r, w1
    ):
        path = str(tmp_path / "s.json")
        gen = ["gen", "random", "--r", r, "--d", "2", "--seed", "3", "--out", path]
        assert cli.main(gen) == 0
        chernoff_calls.clear()
        out = tmp_path / "t.json"
        args = ["run", path, "--w1", w1, "--format", "json", "--out", str(out)]
        assert cli.main(args) == 1
        assert capsys.readouterr().err == (
            f"error: w1 must lie in (0, 1), got {float(w1)}\n"
        )
        assert chernoff_calls == []  # refused before any work
        assert not out.exists()

    @pytest.mark.parametrize(
        "n_min,message",
        [
            ("1", "need n >= 2 copies to split, got 1"),
            ("2", "weight 0.3 leaves an empty part: n1=0, n2=2"),
            ("3", "weight 0.3 leaves an empty part: n1=0, n2=3"),
        ],
    )
    def test_empty_split_refused_before_any_work(
        self, tmp_path, capsys, chernoff_calls, n_min, message
    ):
        # n1 = floor(n * w1) never decreases in n, so the rows that leave a
        # part empty come first; every row is checked before the pairwise
        # table is built.
        path = str(tmp_path / "s.json")
        gen = ["gen", "condition-satisfying", "--r", "5", "--seed", "7", "--out", path]
        assert cli.main(gen) == 0
        chernoff_calls.clear()
        out = tmp_path / "t.json"
        args = ["run", path, "--w1", "0.3", "--n-min", n_min, "--n-max", "6"]
        assert cli.main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert chernoff_calls == []
        assert not out.exists()

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert cli.main(["chernoff", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["run", "chernoff"])
    def test_null_probability_is_a_parse_error(self, command, tmp_path, capsys):
        # Read as NaN, it once passed every check of the state.
        doc = two_state_doc()
        doc["states"][0] = {"type": "classical", "probabilities": [None, 1.0]}
        path = write_doc(tmp_path / "s.json", doc)
        assert cli.main([command, path]) == 2
        assert capsys.readouterr().err == (
            "error: states[0].probabilities: null is not a number\n"
        )

    def test_invalid_state_is_validation_error(self, tmp_path):
        doc = {
            "version": 1,
            "dim": 2,
            "states": [
                {"type": "matrix", "entries": [[[0.9, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
                {"type": "random", "rank": 2, "seed": 1},
            ],
        }
        path = write_doc(tmp_path / "s.json", doc)
        assert cli.main(["chernoff", path]) == 1


class TestFileErrors:
    """A scenario that cannot be read is a parse error naming its path
    (exit 2), and an ``--out`` that cannot be written a one-line error
    (exit 1); neither ends in a traceback."""

    @staticmethod
    def scenario(tmp_path):
        return write_doc(tmp_path / "s.json", two_state_doc())

    @pytest.mark.parametrize("command", ["run", "chernoff"])
    @pytest.mark.parametrize(
        "name,reason", [("missing.json", "No such file"), ("dir", "Is a directory")]
    )
    def test_unreadable_scenario_is_a_parse_error(
        self, command, name, reason, tmp_path, capsys
    ):
        (tmp_path / "dir").mkdir()
        path = tmp_path / name
        assert cli.main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cannot read ({reason}")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "chernoff"])
    def test_scenario_that_is_not_utf8_is_a_parse_error(
        self, command, tmp_path, capsys
    ):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(two_state_doc()).encode() + b" \xff")
        assert cli.main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 (")
        assert err.count("\n") == 1 and "byte 0xff" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "{scenario}", "--n-max", "2"],
            ["chernoff", "{scenario}"],
            ["gen", "random", "--r", "2"],
        ],
    )
    def test_unwritable_out_is_a_one_line_error(self, args, tmp_path, capsys):
        scenario = self.scenario(tmp_path)
        out = tmp_path / "missing" / "out.txt"
        argv = [a.format(scenario=scenario) for a in args] + ["--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out} (No such file or directory)\n"
        assert not out.parent.exists()

    def test_missing_scenario_in_a_subprocess(self, tmp_path):
        import subprocess
        import sys

        done = subprocess.run(
            [sys.executable, "-m", "qmultitest.cli", "run", str(tmp_path / "x.json")],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ") and done.stdout == ""


class TestOutFileMode:
    """An ``--out`` file gets the mode a plain ``open(path, "w")`` gives it,
    and the bytes the command prints without ``--out``."""

    COMMANDS = [
        ["run", "{scenario}", "--n-max", "3"],
        ["run", "{scenario}", "--n-max", "3", "--format", "json"],
        ["gen", "random", "--r", "2"],
        ["chernoff", "{scenario}"],
    ]

    @pytest.fixture(autouse=True)
    def umask_022(self):
        previous = os.umask(0o022)
        yield
        os.umask(previous)

    @staticmethod
    def written(args, out, tmp_path, capsys):
        """Run once to stdout and once to ``out``; return the printed text."""
        scenario = write_doc(tmp_path / "s.json", two_state_doc())
        argv = [a.format(scenario=scenario) for a in args]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == printed.encode("utf-8")
        return printed

    @pytest.mark.parametrize("args", COMMANDS)
    def test_new_file_follows_the_umask(self, args, tmp_path, capsys):
        out = tmp_path / "out.txt"
        self.written(args, out, tmp_path, capsys)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    @pytest.mark.parametrize("args", COMMANDS)
    def test_replaced_file_keeps_its_mode(self, args, tmp_path, capsys):
        out = tmp_path / "out.txt"
        out.write_text("old\n", encoding="utf-8")
        out.chmod(0o640)
        self.written(args, out, tmp_path, capsys)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640


class TestReportsAgree:
    """Each CSV cell is the JSON table's value for its column, and the
    ``chernoff`` report and the JSON table give the same pairs and
    condition: a qubit split table, a binary table from one copy, and the
    orthogonal triple, whose infinite exponents are ``null``."""

    CASES = {
        "split": ("2", "6"),
        "binary": ("1", "5"),
        "orthogonal": ("2", "3"),
    }

    @staticmethod
    def scenario(case, tmp_path):
        if case == "binary":
            return write_doc(tmp_path / "s.json", two_state_doc())
        if case == "orthogonal":
            return write_doc(tmp_path / "s.json", orthogonal_triple_doc())
        path = str(tmp_path / "s.json")
        argv = ["gen", "condition-satisfying", "--r", "3", "--d", "2", "--seed", "7"]
        assert cli.main(argv + ["--out", path]) == 0
        return path

    @staticmethod
    def output(argv, capsys):
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    def table_argv(self, case, sub, tmp_path):
        n_min, n_max = self.CASES[case]
        path = self.scenario(case, tmp_path)
        return path, ["run", path, "--n-min", n_min, "--n-max", n_max, "--sub", sub]

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_csv_cells_are_the_json_values(self, case, sub, tmp_path, capsys):
        _, argv = self.table_argv(case, sub, tmp_path)
        lines = self.output(argv + ["--format", "csv"], capsys).splitlines()
        table = strict_json(self.output(argv + ["--format", "json"], capsys))
        names = lines[0].split(",")
        assert "reference_level" in names
        for line, row in zip(lines[1:], table["rows"], strict=True):
            row = {**row, "reference_level": table["reference_level"]}
            for name, cell in zip(names, line.split(","), strict=True):
                value = row[name]
                if cell in ("", "inf"):
                    assert value is None, (name, cell)
                elif cell in ("true", "false"):
                    assert value is (cell == "true"), (name, cell)
                else:
                    assert not isinstance(value, bool)
                    assert float(cell) == value, (name, cell)

    @pytest.mark.parametrize("sub", ["pgm", "recursive"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_chernoff_and_run_reports_agree(self, case, sub, tmp_path, capsys):
        path, argv = self.table_argv(case, sub, tmp_path)
        report = strict_json(self.output(["chernoff", path], capsys))
        table = strict_json(self.output(argv + ["--format", "json"], capsys))
        assert table["least_favorable"] == report["least_favorable"]

        def searches(pairs):
            return [(p["i"], p["j"], p["exponent"], p["s_opt"]) for p in pairs]

        assert searches(table["pairwise"]) == searches(report["pairs"])
        if case == "binary":
            assert table["condition"] is report["condition"] is None
        else:
            condition = table["condition"]
            for key in ("pair", "pair_distance", "others_min", "margin", "holds"):
                assert condition[key] == report["condition"][key], key
            assert condition["overall_min"] == condition["pair_distance"]
        r = table["r"]
        for row in table["rows"]:
            assert row["err_avg"] == row["err_sm"] / r
            assert row["succ_sm"] == r - row["err_sm"]


class TestVerifyCommand:
    def test_zero_trials_vacuous_pass(self, capsys):
        assert cli.main(["verify", "--trials", "0"]) == 0
        out = capsys.readouterr().out
        assert "all suites passed" in out

    def test_negative_trials_exit_code(self, capsys):
        assert cli.main(["verify", "--trials", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need trials >= 0, got -3\n"

    def test_small_run_passes(self, capsys):
        assert cli.main(["verify", "--trials", "5", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 5

    def test_self_test_detects_corruption(self, capsys):
        assert cli.main(["verify", "--trials", "2", "--self-test"]) == 0
        assert "self-test" in capsys.readouterr().out


class TestGenCommand:
    def test_random_scenario_round_trip(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert cli.main(
            ["gen", "random", "--r", "4", "--d", "2", "--seed", "3", "--out", str(out)]
        ) == 0
        assert load_scenario(out).r == 4

    def test_condition_scenario_round_trip(self, tmp_path):
        out = tmp_path / "c.json"
        assert cli.main(
            ["gen", "condition-satisfying", "--seed", "3", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["states"][1]["type"] == "mix"
        assert 0.0 < doc["states"][1]["epsilon"] < 1.0
        from qmultitest import attainability_condition

        assert attainability_condition(load_scenario(out)).holds

    def test_calibration_computes_fixed_pairs_once(self, tmp_path, chernoff_calls):
        out = tmp_path / "c.json"
        assert cli.main(
            ["gen", "condition-satisfying", "--r", "4", "--d", "2", "--seed", "1",
             "--out", str(out)]
        ) == 0
        assert json.loads(out.read_text())["states"][1]["epsilon"] == 0.125
        # Three halvings: all 6 pairs, then only the 3 pairs with the mixed
        # state, twice.  The written scenario rebuilds the calibrated states,
        # so its condition is not evaluated again.
        assert len(chernoff_calls) == 6 + 3 + 3

    def test_written_file_must_rebuild_the_calibrated_states(
        self, monkeypatch, capsys
    ):
        original = cli._gen_condition_satisfying

        def drifted(r, d, seed):
            doc, calibrated = original(r, d, seed)
            doc["states"][1]["epsilon"] /= 2.0
            return doc, calibrated

        monkeypatch.setattr(cli, "_gen_condition_satisfying", drifted)
        assert cli.main(["gen", "condition-satisfying", "--seed", "3"]) == 1
        assert "does not rebuild its states" in capsys.readouterr().err

    def test_equidistant_requires_three(self):
        assert cli.main(["gen", "equidistant-classical", "--r", "4"]) == 1

    @pytest.mark.parametrize("d", [-1, 0, 1])
    @pytest.mark.parametrize(
        "kind", ["condition-satisfying", "equidistant-classical", "random"]
    )
    def test_dimension_below_two_is_refused(self, tmp_path, capsys, kind, d):
        out = tmp_path / "g.json"
        assert cli.main(["gen", kind, "--d", str(d), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: need d >= 2, got {d}\n"
        assert captured.out == "" and not out.exists()

    def test_generated_files_reparse(self, tmp_path, capsys):
        for kind in ("random", "equidistant-classical", "condition-satisfying"):
            out = tmp_path / f"{kind}.json"
            assert cli.main(["gen", kind, "--seed", "2", "--out", str(out)]) == 0
            load_scenario(out)


def test_console_entry_runs_in_subprocess(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "s.json"
    gen = subprocess.run(
        [sys.executable, "-m", "qmultitest.cli", "gen", "random",
         "--seed", "4", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert gen.returncode == 0, gen.stderr
    chern = subprocess.run(
        [sys.executable, "-m", "qmultitest.cli", "chernoff", str(out)],
        capture_output=True,
        text=True,
    )
    assert chern.returncode == 0, chern.stderr
    assert json.loads(chern.stdout)["r"] == 3
