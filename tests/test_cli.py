"""Command line front-end: output formats, flags, and exit codes."""

import csv
import io
import json

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


def test_bpf_reports_nonconvergence_with_exit_two():
    code, out, _ = run_cli("bpf", "crown5", "--init", "stars",
                           "--max-iters", "1", "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["converged"] is False
    assert as_rat(payload["value"]) == rat(10, 3)
    assert as_rat(payload["lower_bound"]) <= rat(10, 3)


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
    code, _, err = run_cli("bp", "domino", "--node-cap", "1")
    assert code == 3
    assert err


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


def test_bounds_rejects_bad_upper_file(tmp_path):
    code, _, _ = run_cli("bounds", "domino",
                         "--upper-values", str(tmp_path / "absent.json"))
    assert code == 65
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="ascii")
    code, _, _ = run_cli("bounds", "domino", "--upper-values", str(path))
    assert code == 65


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


def test_corrupt_checkpoint_exits_seventy_four(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text("{broken", encoding="ascii")
    code, _, _ = run_cli("bpf", "domino", "--checkpoint", str(path))
    assert code == 74


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
