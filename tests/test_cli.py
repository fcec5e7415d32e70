import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bracketforge
from bracketforge import ideals, poly
from bracketforge.cli import main


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out = buf.getvalue()
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_describe_preset():
    code, doc = run(["describe", "--config", "qs"])
    assert code == 0
    assert doc["d"] == 6
    assert [1, 2, 3] in doc["circuits"]


def test_describe_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"d": 4, "lines": [[1, 2, 3]], "loops": [4], "parallel": []}')
    code, doc = run(["describe", "--config", str(path)])
    assert code == 0 and doc["loops"] == [4]


def test_describe_names_a_label_outside_the_ground_set(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"d": 4, "lines": [[1, 2, 5]]}')
    code, doc = run(["describe", "--config", str(path)])
    assert code == 1 and doc == {"error": "line (1, 2, 5) has label 5 outside 1..4"}


def test_circuit_family_of_a_non_simple_file_is_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"d": 4, "lines": [[1, 2, 3]], "loops": [4], "parallel": []}')
    code, doc = run(["generators", "--config", str(path), "--family", "circuit"])
    assert code == 1 and doc == {"error": "requires simple configuration"}


def test_unknown_config_is_error():
    code, doc = run(["describe", "--config", "no-such-thing"])
    assert code == 1 and "error" in doc


def test_usage_error_exit_code():
    code, _ = run(["generators"])  # missing --config
    assert code == 2


def test_generator_counts():
    code, doc = run(["generators", "--config", "pascal", "--count-only"])
    assert code == 0
    fams = doc["families"]
    assert fams["circuit"]["count"] == 7
    assert fams["gc"]["count"] == 7
    assert fams["lifting"]["count"] == 708_588


def test_ordering_and_cactus_check():
    code, doc = run(["ordering", "--config", "cactus14"])
    assert code == 0 and doc["admissible"] and doc["dim"] == 7
    code, doc = run(["cactus-check", "--config", "pappus"])
    assert code == 0 and not doc["is_cactus"]


def test_lift_matrix_text():
    code, doc = run(["lift-matrix", "--config", "qs"])
    assert code == 0
    assert doc["shape"] == [4, 6]
    assert doc["entries"][0][0] == "[23 q]"


def test_lift_matrix_expands_no_polynomial(monkeypatch):
    """The document needs the layout only, not the bracket polynomials."""
    def expand(matrix):
        raise AssertionError("lift-matrix expanded a bracket polynomial")

    monkeypatch.setattr(poly, "_det", expand)
    code, doc = run(["lift-matrix", "--config", "line:30"])
    assert code == 0 and doc["shape"] == [4060, 30]


def test_published_form_mismatch_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(ideals.PASCAL_GC_EXPECTED_TEXT, 4, "[749][361]+[461][739]")
    assert main(["generators", "--config", "pascal", "--family", "gc"]) == 1
    out, err = capsys.readouterr()
    [line] = out.splitlines()
    assert "published form" in json.loads(line)["error"] and err == ""


def test_replay_counterexample():
    code, doc = run(["replay-counterexample"])
    assert code == 0
    assert doc["det_with_integer_representatives"] == "-455"
    assert doc["ok"]


def test_decompose():
    code, doc = run(["decompose", "--config", "pappus"])
    assert code == 0 and doc["count"] == 32
    code, doc = run(["decompose", "--config", "cactus14"])
    assert code == 0 and doc["count"] == 8


@pytest.mark.parametrize("name", ["pascal", "pappus", "qs"])
def test_a_file_holding_a_preset_gets_its_published_data(tmp_path, name):
    """Dispatch is on the configuration: a JSON file equal to a preset, its
    lines listed in another order, gives that preset's documents."""
    cfg = bracketforge.preset(name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"d": cfg.d, "lines": [list(l) for l in reversed(cfg.lines)]}))
    for argv in (["generators", "--count-only"], ["decompose"]):
        code, doc = run(argv + ["--config", name])
        file_code, file_doc = run(argv + ["--config", str(path)])
        assert file_code == code
        if "config" in doc:
            assert file_doc.pop("config") == str(path) and doc.pop("config") == name
        assert file_doc == doc


def test_verify_reports_and_exit_code():
    code, doc = run(["verify", "--samples", "1", "--limit", "2"])
    assert code in (0, 1)
    assert code == (1 if doc["failures"] else 0)
    assert doc["counterexample_replay_ok"]
    assert doc["fixtures"]["pascal"]["circuit"]["nonvanishing"] == 0


def test_verify_rejects_samples_below_one():
    for value in ("0", "-1"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["verify", "--samples", value])
        assert code == 2
        [line] = buf.getvalue().splitlines()
        assert "--samples" in json.loads(line)["error"]


def test_output_deterministic():
    a = run(["describe", "--config", "pascal"])
    b = run(["describe", "--config", "pascal"])
    assert a == b


def test_lifting_count_only_is_json():
    code, doc = run(["generators", "--config", "pascal", "--family", "lifting", "--count-only"])
    assert code == 0
    assert doc == {"config": "pascal", "families": {"lifting": {"count": 708_588}}}


def test_lifting_limit_zero_lists_nothing():
    code, doc = run(["generators", "--config", "pascal", "--family", "lifting", "--limit", "0"])
    assert code == 0 and doc["families"]["lifting"]["descriptors"] == []


BAD_JSON_CONFIGS = {
    "top-level-list": "[[1, 2, 3]]",
    "missing-d": '{"lines": []}',
    "string-label": '{"d": 3, "lines": [[1, 2, "x"]]}',
    "nested-loop": '{"d": 3, "loops": [[1]]}',
    "d-zero": '{"d": 0}',
    "malformed": '{"d": 3,',
    "unknown-key": '{"d": 3, "lnes": [[1, 2, 3]]}',
}


SUBCOMMANDS = ("describe", "cactus-check", "ordering", "lift-matrix", "generators",
               "verify", "decompose", "replay-counterexample")
TAKE_CONFIG = {"describe", "cactus-check", "ordering", "lift-matrix", "generators", "decompose"}
BAD_FLAGS = {
    "negative-limit": ["--limit", "-1"],
    "zero-limit": ["--limit", "0"],
    "negative-depth": ["--depth", "-1"],
    "zero-samples": ["--samples", "0"],
    "seed": ["--seed", "1"],
}
# configuration names that are not usable presets
BAD_NAMES = {
    "unknown-preset": "no-such-thing",
    "non-cactus": "fano",
    "preset:line:x": "line:x",
    "preset:line:": "line:",
    "preset:cycle:3": "cycle:3",
    "preset:line:2": "line:2",
    "preset:cycle:2:3": "cycle:2:3",
}
BAD_INPUTS = (sorted(BAD_NAMES) + [f"json:{n}" for n in sorted(BAD_JSON_CONFIGS)]
              + sorted(BAD_FLAGS))
# combinations where the input is valid for that subcommand
VALID = ({("verify", "seed"), ("generators", "zero-limit")}
         | {(s, "non-cactus") for s in TAKE_CONFIG - {"decompose"}})


@pytest.mark.parametrize(
    "command,bad",
    [(s, b) for s in SUBCOMMANDS for b in BAD_INPUTS if (s, b) not in VALID],
)
def test_cli_contract_bad_input(tmp_path, capsys, command, bad):
    """Every bad input gives one JSON line on stdout, its exit code, and no traceback."""
    if bad.startswith("json:"):
        path = tmp_path / "cfg.json"
        path.write_text(BAD_JSON_CONFIGS[bad[len("json:"):]])
        argv = [command, "--config", str(path)]
    elif bad in BAD_FLAGS:
        argv = [command] + (["--config", "pascal"] if command in TAKE_CONFIG else []) + BAD_FLAGS[bad]
    else:
        argv = [command, "--config", BAD_NAMES[bad]]
    # a configuration that cannot be used is a violated hypothesis; an option
    # out of range, or one the subcommand does not take, is a usage error
    expected = 1 if command in TAKE_CONFIG and bad not in BAD_FLAGS else 2
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == expected
    [line] = out.splitlines()
    assert set(json.loads(line)) == {"error"}
    assert err == ""


@pytest.mark.parametrize("name,reason", [
    ("line:x", "line:<n>"),
    ("line:", "line:<n>"),
    ("cycle:3", "cycle:<k>:<pts-per-line>"),
    ("line:2", "a line needs at least 3 points"),
    ("cycle:2:3", "a cycle needs at least 3 lines"),
])
def test_malformed_preset_name_keeps_its_reason(name, reason):
    code, doc = run(["describe", "--config", name])
    assert code == 1 and reason in doc["error"]


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["describe", "--config", "pappus"],
                                  ["describe", "--config", "no-such-thing"]],
                         ids=["document", "error"])
def test_closed_stdout_exits_1_without_traceback(argv, unbuffered):
    """A reader that closes the pipe before anything is written (as
    `bracketforge describe ... | true` can) gets no traceback on stderr, with
    standard output buffered or not."""
    env = dict(os.environ, PYTHONPATH=str(Path(bracketforge.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    code = "import sys; from bracketforge.cli import main; sys.exit(main())"
    with subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()  # at once: the child is still importing the package
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""
