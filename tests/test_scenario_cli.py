import json
import math

import numpy as np
import pytest

from qmultitest import cli, random_density
from qmultitest.errors import ScenarioParseError
from qmultitest.scenario import (
    load_scenario,
    matrix_spec,
    scenario_from_dict,
    write_scenario,
)


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
        scenario = load_scenario(write_doc(tmp_path / "s.json", doc))
        assert scenario.ensemble.r == 5
        np.testing.assert_allclose(
            scenario.ensemble.states[0].matrix, np.eye(2) / 2
        )
        expected_mix = 0.75 * np.eye(2) / 2 + 0.25 * np.diag([1.0, 0.0])
        np.testing.assert_allclose(
            scenario.ensemble.states[4].matrix, expected_mix
        )

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
        scenario = scenario_from_dict(doc)
        rho = random_density(2, 2, 1)
        sigma = random_density(2, 2, 2)
        np.testing.assert_allclose(
            scenario.ensemble.states[1].matrix,
            0.5 * rho.matrix + 0.5 * sigma.matrix,
        )

    def test_random_specs_reproduce_bit_exactly(self):
        a = scenario_from_dict(two_state_doc()).ensemble
        b = scenario_from_dict(two_state_doc()).ensemble
        for x, y in zip(a.states, b.states):
            assert x.matrix.tobytes() == y.matrix.tobytes()

    def test_matrix_spec_round_trip(self):
        rho = random_density(3, 2, 9)
        doc = {"version": 1, "dim": 3, "states": [matrix_spec(rho), {"type": "random", "rank": 3, "seed": 1}]}
        rebuilt = scenario_from_dict(doc).ensemble.states[0]
        assert rebuilt.matrix.tobytes() == rho.matrix.tobytes()

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
        path = tmp_path / "out.json"
        doc = two_state_doc()
        write_scenario(path, doc["dim"], doc["states"])
        scenario = load_scenario(path)
        assert scenario.dim == 2 and scenario.ensemble.r == 2


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
        scenario = load_scenario(src)
        copy = tmp_path / "copy.json"
        write_scenario(copy, scenario.dim, scenario.specs, scenario.labels)
        second_out = tmp_path / "r2.json"
        assert cli.main(["chernoff", str(copy), "--out", str(second_out)]) == 0
        assert first_out.read_bytes() == second_out.read_bytes()


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
        from qmultitest import binary_chernoff_upper_check
        from qmultitest.scenario import load_scenario as _load

        ens = _load(path).ensemble
        rows = binary_chernoff_upper_check(ens.states[0], ens.states[1], 4)
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            assert int(cells[0]) == row.n
            assert cells[1] == "" and cells[2] == ""
            assert float(cells[3]) == pytest.approx(row.err_sm, abs=1e-12)
            assert float(cells[6]) == pytest.approx(row.bound, abs=1e-12)
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
        scenario = load_scenario(out)
        assert scenario.ensemble.r == 4

    def test_condition_scenario_round_trip(self, tmp_path):
        out = tmp_path / "c.json"
        assert cli.main(
            ["gen", "condition-satisfying", "--seed", "3", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["states"][1]["type"] == "mix"
        assert 0.0 < doc["states"][1]["epsilon"] < 1.0
        from qmultitest import attainability_condition

        assert attainability_condition(load_scenario(out).ensemble).holds

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
