"""Command line front-end: output formats, flags, and exit codes."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

from fracbp._rational import rat
from fracbp.cli import build_parser, main
from fracbp.core import format_matrix, kronecker, parse_matrix, domino

DOMINO_TEXT = "110\n111\n011\n"


def run_cli(*argv):
    import contextlib

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def as_rat(pair):
    return rat(pair["num"], pair["den"])


# ---------------------------------------------------------------------------
# bpf
# ---------------------------------------------------------------------------

def test_bpf_domino_text():
    code, out, _ = run_cli("bpf", "domino")
    assert code == 0
    assert "value = 5/2 = 2.500000" in out
    assert "(converged)" in out


def test_bpf_domino_json_schema():
    code, out, _ = run_cli("bpf", "domino", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"matrix_hash", "kind", "value", "decimal",
                            "iterations", "converged", "lower_bound",
                            "support", "timings"}
    assert payload["kind"] == "bpf"
    assert as_rat(payload["value"]) == rat(5, 2)
    assert payload["decimal"] == "2.500000"
    assert payload["converged"] is True
    assert as_rat(payload["lower_bound"]) == rat(5, 2)
    total = rat(0)
    for entry in payload["support"]:
        assert entry["rows"] and entry["cols"]
        weight = as_rat(entry["weight"])
        assert weight > 0
        total += weight
    assert total == rat(5, 2)
    assert "total" in payload["timings"]


def test_bpf_csv_lists_iteration_records():
    code, out, _ = run_cli("bpf", "domino", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["iteration", "objective", "alpha", "lower_bound",
                       "pool_size", "added", "pruned"]
    assert rows[1][0] == "1" and rows[1][1] == "5/2"
    assert len(rows) == 2


def test_bpf_power_two(tmp_path):
    out_file = tmp_path / "result.json"
    code, out, _ = run_cli("bpf", "domino", "--power", "2",
                           "--format", "json", "--out", str(out_file))
    assert code == 0
    assert out == ""
    payload = json.loads(out_file.read_text(encoding="ascii"))
    assert as_rat(payload["value"]) == rat(6)
    assert payload["decimal"] == "6.000000"


def test_bpf_power_two_text_names_the_root():
    code, out, _ = run_cli("bpf", "domino", "--power", "2")
    assert code == 0
    assert "value = 6 = 6.000000" in out
    assert "2-th root = 2.449490" in out


def test_bpf_reports_nonconvergence_with_exit_two(one_inner_round):
    code, out, _ = run_cli("bpf", "crown5", "--init", "stars",
                           "--max-iters", "1", "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["converged"] is False
    # One float round leaves the first certified basis above bp_f = 10/3.
    assert as_rat(payload["value"]) == rat(5)
    assert as_rat(payload["lower_bound"]) <= rat(10, 3) <= as_rat(payload["value"])


def test_bpf_rejects_kron_init():
    with pytest.raises(SystemExit) as info:
        run_cli("bpf", "domino", "--init", "kron")
    assert info.value.code == 64


def test_bpf_rejects_malformed_epsilon():
    code, _, err = run_cli("bpf", "domino", "--epsilon", "fast")
    assert code == 64
    assert "--epsilon" in err


def test_bpf_matrix_file_round_trip(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(DOMINO_TEXT, encoding="ascii")
    code, out, _ = run_cli("bpf", str(path))
    assert code == 0
    assert "value = 5/2" in out


def test_threads_flag_changes_nothing():
    _, one, _ = run_cli("bpf", "domino", "--threads", "1", "--format", "json")
    _, two, _ = run_cli("bpf", "domino", "--threads", "2", "--format", "json")
    a, b = json.loads(one), json.loads(two)
    a.pop("timings"), b.pop("timings")
    assert a == b


def test_threads_default_to_serial():
    assert build_parser().parse_args(["bpf", "domino"]).threads == 1


def test_bpf_runs_are_deterministic():
    _, first, _ = run_cli("bpf", "crown5", "--format", "json")
    _, second, _ = run_cli("bpf", "crown5", "--format", "json")
    a, b = json.loads(first), json.loads(second)
    a.pop("timings"), b.pop("timings")
    assert a == b


# ---------------------------------------------------------------------------
# bcf / bp / bc
# ---------------------------------------------------------------------------

def test_bcf_domino():
    code, out, _ = run_cli("bcf", "domino")
    assert code == 0
    assert "value = 2 = 2.000000" in out


def test_bcf_crown_json():
    code, out, _ = run_cli("bcf", "crown5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "bcf"
    assert as_rat(payload["value"]) == rat(10, 3)


def test_bcf_csv_single_row():
    code, out, _ = run_cli("bcf", "domino", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "kind"
    assert rows[1][:4] == ["bcf", "2", "1", "2.000000"]


def test_integer_partition_command():
    code, out, _ = run_cli("bp", "domino")
    assert code == 0
    assert "value = 3 = 3.000000" in out


def test_integer_cover_command():
    code, out, _ = run_cli("bc", "domino", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert as_rat(payload["value"]) == rat(2)
    assert len(payload["support"]) == 2


def test_node_cap_refusal_exits_three():
    code, _, err = run_cli("bp", "crown5", "--node-cap", "1")
    assert code == 3
    assert err


def test_node_cap_refusal_reports_its_bounds():
    # The row stars give 5 before the root; the root LP gives 10/3.
    code, _, err = run_cli("bp", "crown5", "--node-cap", "1")
    assert code == 3
    assert "best found 5" in err and "root LP bound 10/3" in err


def test_nonpositive_node_cap_exits_sixty_four():
    for command in ("bp", "bc"):
        for cap in ("0", "-5"):
            code, out, err = run_cli(command, "domino", "--node-cap", cap)
            assert code == 64 and out == ""
            assert "node cap" in err and "exceeded" not in err


def test_cli_import_loads_no_symmetry_module():
    # Every command starts by importing fracbp.cli; symmetry and orbits
    # load only when a power or a branch and bound needs them.
    import fracbp

    src = os.path.dirname(os.path.dirname(fracbp.__file__))
    code = ("import sys, fracbp.cli; print([m for m in "
            "('fracbp.symmetry', 'fracbp.orbits') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_table_with_inline_uppers():
    code, out, _ = run_cli("bounds", "domino",
                           "--upper", "2=6", "--upper", "3=2059/149")
    assert code == 0
    assert "fooling set size = 2" in out
    assert "fractional cover = 2 = 2.000000" in out
    assert "fractional partition = 5/2 = 2.500000" in out
    assert "asymptotic interval: [2, 2.399699]" in out


def test_bounds_json_rows():
    code, out, _ = run_cli("bounds", "domino", "--format", "json",
                           "--upper", "2=6")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "bounds"
    assert payload["fooling"] == 2
    assert [row["k"] for row in payload["rows"]] == [1, 2]
    assert payload["rows"][1]["upper_root"] == "2.449490"
    assert payload["interval"]["lower"] == {"num": 2, "den": 1}
    assert payload["interval"]["upper"] == "2.449490"


def test_bounds_csv():
    code, out, _ = run_cli("bounds", "domino", "--format", "csv",
                           "--upper", "2=6", "--kmax", "3")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert rows[0] == ["k", "lower_root", "upper_value", "upper_root",
                       "best_upper_root"]
    assert len(rows) == 4
    assert rows[2][2] == "6/1"
    assert rows[3][3] == ""


def test_bounds_upper_values_file(tmp_path):
    path = tmp_path / "uppers.json"
    path.write_text(json.dumps({"2": "6", "3": "2059/149"}), encoding="ascii")
    code, out, _ = run_cli("bounds", "domino", "--upper-values", str(path))
    assert code == 0
    assert "asymptotic interval: [2, 2.399699]" in out


def test_bounds_inline_upper_overrides_file(tmp_path):
    path = tmp_path / "uppers.json"
    path.write_text(json.dumps({"2": "13/2"}), encoding="ascii")
    code, out, _ = run_cli("bounds", "domino", "--format", "json",
                           "--upper-values", str(path), "--upper", "2=6")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][1]["upper_value"] == {"num": 6, "den": 1}


def test_bounds_rejects_bad_upper_syntax():
    code, _, err = run_cli("bounds", "domino", "--upper", "six")
    assert code == 64 and "--upper" in err
    code, _, _ = run_cli("bounds", "domino", "--upper", "2=six")
    assert code == 64


@pytest.mark.parametrize("upper, named", [
    ("2=1", "k=2"),     # below cover^2 = 4
    ("2=-6", "k=2"),    # not positive
    ("3=9", "k=3"),     # below the power lower bound 10
    ("1=3/2", "k=1"),   # below the cover value 2
    ("0=7", "k=0"),     # no power
])
def test_bounds_rejects_impossible_upper_values(upper, named):
    code, out, err = run_cli("bounds", "domino", "--upper", upper)
    assert code == 64 and out == ""
    assert err.startswith("fracbp: ") and named in err and "internal" not in err


def test_bounds_rejects_bad_upper_file(tmp_path):
    code, _, _ = run_cli("bounds", "domino",
                         "--upper-values", str(tmp_path / "absent.json"))
    assert code == 65
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="ascii")
    code, _, _ = run_cli("bounds", "domino", "--upper-values", str(path))
    assert code == 65
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"2": "6\xe9"}')
    code, _, err = run_cli("bounds", "domino", "--upper-values", str(path))
    assert code == 65 and err.count("\n") == 1


# ---------------------------------------------------------------------------
# kron
# ---------------------------------------------------------------------------

def test_kron_power_one_round_trips():
    code, out, _ = run_cli("kron", "domino", "--power", "1")
    assert code == 0
    assert out == DOMINO_TEXT


def test_kron_power_two_matches_library(tmp_path):
    out_file = tmp_path / "power.txt"
    code, _, _ = run_cli("kron", "domino", "-k", "2", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text(encoding="ascii")
    d = domino()
    assert text == format_matrix(kronecker(d, d))
    assert parse_matrix(text).num_edges == 49


# ---------------------------------------------------------------------------
# Error exits
# ---------------------------------------------------------------------------

def test_unknown_matrix_file_exits_sixty_five():
    code, _, err = run_cli("bpf", "/no/such/matrix.txt")
    assert code == 65
    assert err


def test_malformed_matrix_file_exits_sixty_five(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("10\n2\n", encoding="ascii")
    code, _, _ = run_cli("bpf", str(path))
    assert code == 65
    path.write_bytes(b"1\xe9\n11\n")
    code, _, err = run_cli("bcf", str(path))
    assert code == 65 and err.count("\n") == 1


def test_a_matrix_with_no_ones_exits_sixty_five(tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("00\n00\n", encoding="ascii")
    for command in ("bpf", "bcf", "bp", "bc", "bounds"):
        code, out, err = run_cli(command, str(path))
        assert (code, out, err) == (65, "", "fracbp: matrix has no ones\n"), command
    code, out, _ = run_cli("kron", str(path), "-k", "2")
    assert (code, out) == (0, "0000\n0000\n0000\n0000\n")


def test_corrupt_checkpoint_exits_seventy_four(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text("{broken", encoding="ascii")
    code, _, _ = run_cli("bpf", "domino", "--checkpoint", str(path))
    assert code == 74
    path.write_bytes(b'{"version": 1, "matrix_hash": "\xe9"}')
    code, _, err = run_cli("bpf", "domino", "--checkpoint", str(path))
    assert code == 74 and err.count("\n") == 1


def test_unwritable_out_file_exits_seventy_four(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    code, out, err = run_cli("bcf", "domino", "--out", str(target))
    assert code == 74 and out == ""
    assert err.startswith("fracbp: cannot write ") and err.count("\n") == 1
    assert not target.exists()


def test_usage_errors_exit_sixty_four():
    with pytest.raises(SystemExit) as info:
        run_cli("bpf", "domino", "--format", "yaml")
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        run_cli("frobnicate", "domino")
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        run_cli()
    assert info.value.code == 64


def test_one_parser_serves_every_call_unchanged():
    # The parser is built once per process.  A call that appends to a
    # list option and one that ends in a usage error leave nothing
    # behind: the next call prints what it prints in a fresh process.
    argv = ("bounds", "domino", "--format", "json")
    build_parser.cache_clear()
    fresh = run_cli(*argv)
    assert build_parser() is build_parser()
    code, out, _ = run_cli("bounds", "domino", "--upper", "2=6", "--format", "json")
    assert code == 0 and out != fresh[1]
    with pytest.raises(SystemExit) as info:
        run_cli("bounds", "domino", "--upper", "2=6", "--kmax")
    assert info.value.code == 64
    assert run_cli(*argv) == fresh
