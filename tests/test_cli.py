"""End-to-end command-line coverage for every documented flag combination."""

import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from abperfect import THEOREM_IDS, SweepReport
from abperfect.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


def test_params_named_json(capsys):
    code, out, _ = run(capsys, "params", "--named", "p4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"omega": 2, "chi": 2, "gamma": 3, "alpha": 3, "psi": 3}


def test_params_g6_text(capsys):
    code, out, _ = run(capsys, "params", "--g6", "Ch")
    assert code == 0
    assert out.strip() == "omega=2  chi=2  gamma=3  alpha=3  psi=3"


def test_params_file_csv(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("Ch\nBw\n")
    code, out, _ = run(capsys, "params", "--file", str(path), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "omega,chi,gamma,alpha,psi"
    assert lines[1] == "2,2,3,3,3"
    assert lines[2] == "3,3,3,3,3"


def stdin_bytes(monkeypatch, data: bytes) -> None:
    """Back ``sys.stdin`` by ``data``, decoded strictly as UTF-8 if read as text."""
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def test_params_stdin(capsys, monkeypatch):
    stdin_bytes(monkeypatch, b"Ch\n")
    code, out, _ = run(capsys, "params", "--file", "-", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"omega": 2, "chi": 2, "gamma": 3, "alpha": 3, "psi": 3}]


def test_params_named_variants(capsys):
    for token, omega in [("k5", 5), ("c5", 2), ("e3", 1), ("k2,3", 2), ("p3+k2", 2), ("3k2", 2)]:
        code, out, _ = run(capsys, "params", "--named", token, "--format", "json")
        assert code == 0
        assert json.loads(out)["omega"] == omega


def test_params_json_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "params", "--named", "c5", "--format", "json")
    _, second, _ = run(capsys, "params", "--named", "c5", "--format", "json")
    assert first == second


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_p4_json(capsys):
    code, out, _ = run(
        capsys, "check", "--a", "omega", "--b", "psi", "--named", "p4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["perfect"] is False
    assert payload["counterexample"]["vertices"] == [0, 1, 2, 3]


def test_check_text_and_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "check", "--a", "omega", "--b", "chi", "--named", "k4")
    assert code == 0 and out.strip() == "omega-chi-perfect"
    path = tmp_path / "in.g6"
    path.write_text("Ch\n")
    code, out, _ = run(
        capsys, "check", "--a", "omega", "--b", "psi", "--file", str(path),
        "--format", "csv",
    )
    assert code == 0
    assert out.strip().splitlines() == [
        "a,b,perfect,vertices,a_value,b_value",
        "omega,psi,False,0 1 2 3,2,3",
    ]


def test_check_rejects_reversed_pair(capsys):
    code, _, err = run(capsys, "check", "--a", "psi", "--b", "omega", "--named", "p4")
    assert code == 2
    assert "precede" in err


# ---------------------------------------------------------------------------
# recognize
# ---------------------------------------------------------------------------


def test_recognize_json(capsys):
    code, out, _ = run(capsys, "recognize", "--named", "k3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "kind": "complete", "m": 3, "children": [], "reason": None,
    }


def test_recognize_text_tree(capsys):
    code, out, _ = run(capsys, "recognize", "--g6", "Bo")  # K1 join (K1 u K1)? P3
    assert code == 0
    assert "join" in out


def test_recognize_csv_rows(capsys):
    code, out, _ = run(capsys, "recognize", "--named", "p4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "depth,kind,m,reason"
    assert lines[1].startswith("0,rejected,,")


# ---------------------------------------------------------------------------
# forbidden
# ---------------------------------------------------------------------------


def test_forbidden_json(capsys):
    code, out, _ = run(
        capsys, "forbidden", "--family", "omega_psi_quartet", "--named", "p4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["free"] is False
    assert payload["witness"] == {"pattern": "P4", "vertices": [0, 1, 2, 3]}


def test_forbidden_text_and_csv(capsys):
    code, out, _ = run(
        capsys, "forbidden", "--family", "odd_holes_and_antiholes", "--named", "c5",
    )
    assert code == 0 and "contains C2k+1" in out
    code, out, _ = run(
        capsys, "forbidden", "--family", "p4_only", "--named", "k4",
        "--format", "csv",
    )
    assert code == 0
    assert out.strip().splitlines()[1] == "P4,True,,"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_json_passes(capsys):
    code, out, _ = run(
        capsys, "sweep", "--theorem", "theorem4", "--max-n", "4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 18 and payload["violations"] == []


def test_sweep_text_and_jobs(capsys):
    code, out, _ = run(
        capsys, "sweep", "--theorem", "eq1_chain", "--max-n", "4",
        "--jobs", "2",
    )
    assert code == 0
    assert "pass" in out


def test_sweep_violations_exit_one(capsys, monkeypatch):
    # No true theorem can fail, so the exit-code mapping is checked with a
    # stubbed report.
    fake = SweepReport("eq1_chain", 4, 18, [("Ch", "synthetic"), ("Bw", 'a "quoted", detail')], 1)
    monkeypatch.setattr("abperfect.cli.sweep", lambda *a, **kw: fake)
    expected = {
        "text": "eq1_chain: checked 18 graphs up to n=4: 2 violation(s) [1 ms]\n"
        '  Ch  synthetic\n  Bw  a "quoted", detail',
        "json": json.dumps(fake.to_dict()),
        "csv": 'graph6,detail\nCh,synthetic\nBw,"a ""quoted"", detail"',
    }
    for fmt, text in expected.items():
        code, out, _ = run(
            capsys, "sweep", "--theorem", "eq1_chain", "--max-n", "4", "--format", fmt
        )
        assert code == 1
        assert out.rstrip("\n") == text


def test_sweep_over_cap_exits_two(capsys):
    code, _, err = run(capsys, "sweep", "--theorem", "theorem4", "--max-n", "9")
    assert code == 2
    assert "capped" in err


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def test_cycles_table(capsys):
    code, out, _ = run(capsys, "cycles", "--max-n", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,alpha,psi,predicted_equal,equal"
    assert lines[1] == "3,3,3,True,True"
    assert lines[2] == "4,2,3,False,False"


def test_cycles_json(capsys):
    code, out, _ = run(capsys, "cycles", "--max-n", "5", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["n"] for row in rows] == [3, 4, 5]


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "params")[0] == 2  # no source
    assert run(capsys, "params", "--named", "wat")[0] == 2
    assert run(capsys, "params", "--g6", "")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "sweep", "--theorem", "bogus", "--max-n", "3")[0] == 2
    for jobs in ("0", "-5"):
        assert run(
            capsys, "sweep", "--theorem", "theorem4", "--max-n", "3", "--jobs", jobs
        )[0] == 2
    assert run(capsys, "params", "--named", "p4", "--format", "yaml")[0] == 2
    # two sources at once
    assert run(capsys, "params", "--named", "p4", "--g6", "Ch")[0] == 2


def test_capacity_exits_two_naming_cap(capsys):
    code, _, err = run(capsys, "params", "--named", "e14")
    assert code == 2
    assert "capped at 13" in err


def test_oversized_named_graph_exits_two_at_once(capsys):
    code, _, err = run(capsys, "params", "--named", "k3000")
    assert code == 2
    assert "vertex count must be in 1..32" in err


def test_odd_hole_cap_exits_two_naming_family(capsys):
    argv = ("forbidden", "--family", "odd_holes_and_antiholes", "--named")
    code, out, err = run(capsys, *argv, "k11")
    assert (code, out) == (2, "")
    assert err == "error: odd_holes_and_antiholes capped at 10 vertices, got 11\n"
    assert run(capsys, *argv, "k9") == (0, "free of (C2k+1, co-C2k+1)\n", "")


def test_file_with_bad_line_exits_two_naming_it(capsys, monkeypatch, tmp_path):
    path = tmp_path / "bad.g6"
    # Non-ASCII bytes are named by their line too, in the header or the bits.
    bad = ((b"Ch\n\nnot graph6 at all\nCh\n", 3), (b"Ch\nB\xc3\xa9\n", 2), (b"Ch\n\xff\n", 2))
    for content, line in bad:
        path.write_bytes(content)
        code, out, err = run(capsys, "params", "--file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: line {line}: ")
        # stdin's bytes are decoded as the file's are, whatever the locale.
        stdin_bytes(monkeypatch, content)
        assert run(capsys, "params", "--file", "-") == (code, out, err)
    stdin_bytes(monkeypatch, b"Ch\n*nope\n")
    code, out, err = run(capsys, "recognize", "--file", "-")
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2: ")


def test_closed_stdin_exits_two_with_one_error_line(capsys, monkeypatch):
    # Python sets sys.stdin to None when the process starts with fd 0 closed.
    monkeypatch.setattr("sys.stdin", None)
    assert run(capsys, "params", "--file", "-") == (2, "", "error: stdin is closed\n")


def test_closed_stdout_pipe_exits_one_quietly():
    # A reader that stops after one line, as `| head -1` does.  The output,
    # 200 kB, overflows the pipe buffer, so the process is still writing
    # when the pipe closes.
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "abperfect.cli", "params", "--file", "-"],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=err,
        )
        proc.stdin.write(b"A_\n" * 5000)
        proc.stdin.close()
        assert proc.stdout.readline() == b"omega=2  chi=2  gamma=2  alpha=2  psi=2\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        err.seek(0)
        assert err.read() == b""


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "params", "--file", "/no/such/file.g6")
    assert code == 2
    assert "error" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_every_flag_combination_smokes(capsys, tmp_path):
    # Cross-coverage: each subcommand against each source kind and format.
    path = tmp_path / "in.g6"
    path.write_text("Ch\n")
    sources = [("--g6", "Bw"), ("--named", "k3"), ("--file", str(path))]
    for fmt in ("text", "json", "csv"):
        for source in sources:
            assert run(capsys, "params", *source, "--format", fmt)[0] == 0
            assert run(
                capsys, "check", "--a", "chi", "--b", "gamma", *source,
                "--format", fmt,
            )[0] == 0
            assert run(capsys, "recognize", *source, "--format", fmt)[0] == 0
            for family in (
                "p4_only", "achro_triple", "omega_psi_quartet",
                "odd_holes_and_antiholes",
            ):
                assert run(
                    capsys, "forbidden", "--family", family, *source,
                    "--format", fmt,
                )[0] == 0
        assert run(
            capsys, "sweep", "--theorem", "lemma2", "--max-n", "6",
            "--format", fmt,
        )[0] == 0
        assert run(capsys, "cycles", "--max-n", "4", "--format", fmt)[0] == 0


# ---------------------------------------------------------------------------
# Golden outputs: stdout, stderr and exit code of every subcommand, each
# in text, json and csv, against ``cli_golden.json``.  Outputs are stored
# with trailing newlines stripped and sweep timings masked.  After an
# intended output change, rewrite the file with
#     PYTHONPATH=src:tests python -c "import test_cli; test_cli.record_golden()"
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).with_name("cli_golden.json")

# P4, K3, C4, C5, P3+K2, 3K2, K1,3, K1 join (K2 u P3 u K1), K2 join (K2 u K3)
GOLDEN_GRAPHS = ("Ch", "Bw", "Cl", "Dhc", "DgC", "E`?G", "Cs", "F{eS?", "F^rMW")
GOLDEN_SOURCES = (("--named", "p4"), ("--file", "{graphs}"), ("--file", "{empty}"))


def golden_invocations() -> list[tuple[str, ...]]:
    calls: list[tuple[str, ...]] = []
    for fmt in ("text", "json", "csv"):
        tail = ("--format", fmt)
        for source in GOLDEN_SOURCES:
            calls.append(("params", *source, *tail))
            for a, b in (("omega", "psi"), ("chi", "alpha")):
                calls.append(("check", "--a", a, "--b", b, *source, *tail))
            calls.append(("recognize", *source, *tail))
            for family in ("omega_psi_quartet", "odd_holes_and_antiholes"):
                calls.append(("forbidden", "--family", family, *source, *tail))
        for theorem in THEOREM_IDS:
            calls.append(("sweep", "--theorem", theorem, "--max-n", "5", *tail))
        calls.append(("cycles", "--max-n", "11", *tail))
        # Errors: usage, capacity, bad graph6 and a missing file.
        calls += [
            ("params", *tail),
            ("sweep", "--theorem", "theorem4", "--max-n", "3", "--jobs", "0", *tail),
            ("params", "--named", "e14", *tail),
            ("check", "--a", "omega", "--b", "psi", "--named", "k11", *tail),
            ("sweep", "--theorem", "theorem4", "--max-n", "9", *tail),
            ("cycles", "--max-n", "13", *tail),
            ("params", "--g6", "*nope", *tail),
            ("recognize", "--file", "{bad}", *tail),
            ("forbidden", "--family", "p4_only", "--file", "{missing}", *tail),
        ]
    return calls


def _golden_paths(directory: Path) -> dict[str, str]:
    paths = {name: directory / f"{name}.g6" for name in ("graphs", "empty", "bad", "missing")}
    paths["graphs"].write_text("".join(f"{g6}\n" for g6 in GOLDEN_GRAPHS))
    paths["empty"].write_text("")
    paths["bad"].write_text("Ch\n*nope\n")
    return {name: str(path) for name, path in paths.items()}


def _golden_run(argv: tuple[str, ...], paths: dict[str, str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.format(**paths) for arg in argv])
    stdout = re.sub(r"\[\d+ ms\]", "[* ms]", out.getvalue())
    stdout = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": "*"', stdout)
    stderr = err.getvalue().replace(paths["missing"], "{missing}")
    return {"code": code, "stdout": stdout.rstrip("\n"), "stderr": stderr.rstrip("\n")}


def _golden_outputs(directory: Path) -> dict[str, dict]:
    paths = _golden_paths(directory)
    return {" ".join(argv): _golden_run(argv, paths) for argv in golden_invocations()}


def record_golden() -> None:
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as directory:
        outputs = _golden_outputs(Path(directory))
    GOLDEN.write_text(json.dumps(outputs, indent=1, ensure_ascii=False) + "\n")


def test_cli_output_matches_golden(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(GOLDEN.read_text())
    got = _golden_outputs(tmp_path)
    assert list(got) == list(expected)
    for key, outcome in got.items():
        assert outcome == expected[key], key


def test_shared_parser_keeps_no_state(capsys, monkeypatch, tmp_path):
    # ``main`` reuses one parser per process: a usage error leaves nothing
    # behind for the next call, and help reads the terminal width each time.
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "check", "--a", "size", "--b", "psi", "--named", "p4")
    assert (code, out) == (2, "")
    assert "invalid choice: 'size'" in err
    expected = json.loads(GOLDEN.read_text())
    paths = _golden_paths(tmp_path)
    for fmt in ("text", "json", "csv"):
        argv = ("check", "--a", "omega", "--b", "psi", "--named", "p4", "--format", fmt)
        assert _golden_run(argv, paths) == expected[" ".join(argv)]
    helps = []
    for columns in ("60", "100", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = run(capsys, "check", "--help")
        assert code == 0
        helps.append(out)
    widths = [max(len(line) for line in text.splitlines()) for text in helps]
    assert helps[0] == helps[2] and widths[0] < widths[1]
