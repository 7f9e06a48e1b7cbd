"""Command-line interface: subcommands, formats, determinism, exit codes."""

import argparse
import csv
import importlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qttf.cli
from qttf import (
    Pom,
    build_basis,
    haar_mse_sweep,
    load_pom,
    measurement_matrices,
    qttf_monte_carlo,
    random_pom,
    save_pom,
)
from qttf.cli import (
    EXIT_BUDGET,
    EXIT_NOT_IC,
    EXIT_OK,
    EXIT_USAGE,
    KAPPA_TIE_TOL,
    _build_parser,
    bootstrap_ci,
    main,
    run_fig1,
    search_counterexample_pair,
)
from qttf.errors import BudgetExceededError, SearchTimeoutError
from qttf.fisher import TomographyMatrices
from qttf.transfer import QttfEstimate, _quartic_bytes

DATA = Path(__file__).parent / "data"


def _make(tmp_path, *argv):
    """Run the entry point in process and return (exit code, stdout text)."""
    import contextlib

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def _csv_rows(text):
    lines = text.splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: ") :])
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    return config, list(reader)


# ---------------------------------------------------------------- pom


def test_pom_builtin_writes_valid_file(tmp_path):
    out = tmp_path / "sic2.json"
    code, _ = _make(tmp_path, "pom", "builtin", "sic2", "--out", str(out))
    assert code == EXIT_OK
    pom = load_pom(out)
    assert pom.dim == 2 and pom.n_outcomes == 4
    # writing the loaded measurement again is byte identical
    again = tmp_path / "again.json"
    save_pom(pom, again)
    assert out.read_bytes() == again.read_bytes()


def test_pom_builtin_stdout_is_json(tmp_path):
    code, out = _make(tmp_path, "pom", "builtin", "mub2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["dim"] == 2 and len(data["outcomes"]) == 6


def test_pom_builtin_rejects_unknown_name(tmp_path):
    code, _ = _make(tmp_path, "pom", "builtin", "sic7")
    assert code == EXIT_USAGE


def test_pom_random_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _ = _make(
            tmp_path, "pom", "random", "--dim", "2", "--m", "8", "--rank", "1",
            "--seed", "7", "--out", str(out),
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    pom = load_pom(a)
    assert pom.n_outcomes == 8
    np.testing.assert_allclose(pom.outcomes.sum(axis=0), np.eye(2), atol=1e-10)


def test_pom_transform_duplicate_uses_one_based_numbers(tmp_path):
    src = tmp_path / "sic2.json"
    _make(tmp_path, "pom", "builtin", "sic2", "--out", str(src))
    out = tmp_path / "dup.json"
    code, _ = _make(
        tmp_path, "pom", "transform", str(src),
        "--duplicate", "4", "--weights", "0.5,0.5", "--out", str(out),
    )
    assert code == EXIT_OK
    dup = load_pom(out)
    assert dup.n_outcomes == 5
    assert "dup(4" in dup.label
    base = load_pom(src)
    np.testing.assert_allclose(dup.outcomes[3], 0.5 * base.outcomes[3], atol=1e-15)


def test_pom_transform_validates_flags(tmp_path):
    src = tmp_path / "sic2.json"
    _make(tmp_path, "pom", "builtin", "sic2", "--out", str(src))
    assert _make(tmp_path, "pom", "transform", str(src))[0] == EXIT_USAGE
    assert (
        _make(tmp_path, "pom", "transform", str(src), "--duplicate", "4")[0] == EXIT_USAGE
    )  # missing weights
    assert (
        _make(tmp_path, "pom", "transform", str(src), "--duplicate", "5", "--weights", "0.5,0.5")[0]
        == EXIT_USAGE
    )  # out of range
    assert (
        _make(tmp_path, "pom", "transform", str(src), "--epsilon", "-0.2")[0] == EXIT_USAGE
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["builtin", "sic2"],
        ["builtin", "sic3"],
        ["builtin", "mub2"],
        ["builtin", "mub3"],
        ["random", "--dim", "3", "--m", "18", "--seed", "7"],
        ["transform", "{src}", "--duplicate", "2", "--weights", "0.25,0.75", "--epsilon", "0.1"],
    ],
    ids=["sic2", "sic3", "mub2", "mub3", "random", "transform"],
)
def test_pom_prints_the_text_it_writes(tmp_path, argv):
    src = _builtin_file(tmp_path, "mub2")
    argv = ["pom", *(arg.format(src=src) for arg in argv)]
    out = tmp_path / "out.json"
    code, printed = _make(tmp_path, *argv)
    assert code == EXIT_OK
    assert _make(tmp_path, *argv, "--out", str(out)) == (EXIT_OK, "")
    assert printed.encode("utf-8") == out.read_bytes()
    assert list(json.loads(printed)) == ["dim", "outcomes", "label"]


def test_pom_transform_noise(tmp_path):
    src = tmp_path / "mub2.json"
    _make(tmp_path, "pom", "builtin", "mub2", "--out", str(src))
    out = tmp_path / "noisy.json"
    code, _ = _make(tmp_path, "pom", "transform", str(src), "--epsilon", "0.05", "--out", str(out))
    assert code == EXIT_OK
    noisy = load_pom(out)
    assert "noise(0.05)" in noisy.label
    for outcome in noisy.outcomes:
        assert np.linalg.eigvalsh(outcome)[0] > 1e-4  # full rank after admixture


def test_missing_input_file_is_usage_error(tmp_path):
    code, _ = _make(tmp_path, "qttf", str(tmp_path / "missing.json"))
    assert code == EXIT_USAGE


def test_corrupt_input_file_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2}', encoding="utf-8")
    code, _ = _make(tmp_path, "qttf", str(bad))
    assert code == EXIT_USAGE


def test_input_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    assert _make(tmp_path, "qttf", str(bad)) == (EXIT_USAGE, "")
    assert capsys.readouterr().err.startswith("error: invalid measurement file: not valid UTF-8")


# argv templates of commands given a path they cannot read or write: "{dir}"
# is a directory, "{none}" a directory that does not exist, "{pom}" a
# measurement file; the search is refused before its first attempt
PATH_FAILURES = {
    "pom transform, input a directory": ["pom", "transform", "{dir}", "--epsilon", "0.1"],
    "qttf, input a directory": ["qttf", "{dir}"],
    "compare, input a directory": ["compare", "{pom}", "{dir}"],
    "fig2, input a directory": ["fig2", "{dir}", "{pom}"],
    "pom --out": ["pom", "builtin", "sic2", "--out", "{none}/out.json"],
    "qttf --out": ["qttf", "{pom}", "--out", "{none}/out.json"],
    "compare --out": ["compare", "{pom}", "{pom}", "--out", "{none}/out.txt"],
    "fig1 --out": [
        "fig1", "--mus", "2", "--n-poms", "1", "--n-haar", "20", "--out", "{none}/out.csv",
    ],
    "fig2 --out": [
        "fig2", "{pom}", "{pom}", "--states", "2", "--trials", "4", "--shots", "200",
        "--samples", "100", "--out", "{none}/out.csv",
    ],
    "fig2 --search --out": [
        "fig2", "{dir}/p1.json", "{dir}/p2.json", "--search", "--dim", "2",
        "--out", "{none}/out.csv",
    ],
    "fig2 --search, first pair path": [
        "fig2", "{none}/p1.json", "{dir}/p2.json", "--search", "--dim", "2",
    ],
    "fig2 --search, second pair path": [
        "fig2", "{dir}/p1.json", "{none}/p2.json", "--search", "--dim", "2",
    ],
    "fig2 --search, pair path a directory": [
        "fig2", "{dir}", "{dir}/p2.json", "--search", "--dim", "2",
    ],
}


@pytest.mark.parametrize("case", sorted(PATH_FAILURES))
def test_unreadable_or_unwritable_path_is_usage_error(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(qttf.cli, "random_pom", _no_attempt)
    pom = _builtin_file(tmp_path, "sic2")
    folder, missing = tmp_path / "folder", tmp_path / "missing"
    folder.mkdir()
    template = PATH_FAILURES[case]
    bad = next(arg for arg in template if arg.startswith("{none}") or arg == "{dir}")
    argv = [arg.format(dir=folder, none=missing, pom=pom) for arg in template]
    capsys.readouterr()
    assert _make(tmp_path, *argv) == (EXIT_USAGE, "")
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(bad.format(dir=folder, none=missing)) in err
    assert sorted(os.listdir(folder)) == [] and not missing.exists()


# ---------------------------------------------------------------- qttf


def _builtin_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    _make(tmp_path, "pom", "builtin", name, "--out", str(path))
    return path


def test_qttf_auto_reports_closed_form(tmp_path):
    path = _builtin_file(tmp_path, "sic2")
    code, out = _make(tmp_path, "qttf", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["value"] - 4.0) < 1e-9
    assert payload["method"] == "closed_minimal"
    assert set(payload) == {"value", "method", "params", "std_error", "config", "seed"}
    assert payload["config"]["command"] == "qttf"
    assert payload["seed"] == 0


def test_qttf_auto_mub3_uses_bases_form(tmp_path):
    path = _builtin_file(tmp_path, "mub3")
    code, out = _make(tmp_path, "qttf", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["value"] - 8.0) < 1e-9
    assert payload["method"] == "closed_minimal_bases"


@pytest.mark.parametrize("entry", ["x", 0.5])
def test_qttf_refuses_a_malformed_measurement_file(tmp_path, capsys, entry):
    path = tmp_path / "bad.json"
    save_pom(random_pom(2, 6, 1, rng=150), path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["outcomes"][1][1][1] = entry  # a string or a scalar in place of [re, im]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["qttf", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: invalid measurement file: outcome 1")


def test_qttf_closed_fails_cleanly_without_structure(tmp_path, capsys):
    # the count of dim + 1 bases without the bases, and a count no closed form takes
    for m in (6, 5):
        pom_file = tmp_path / f"rand{m}.json"
        _make(tmp_path, "pom", "random", "--dim", "2", "--m", str(m), "--rank", "2",
              "--seed", "3", "--out", str(pom_file))
        code, _ = _make(tmp_path, "qttf", str(pom_file), "--method", "closed")
        assert code == EXIT_USAGE
        assert "no closed form applies" in capsys.readouterr().err


def test_qttf_series_matches_closed_form_for_mub(tmp_path):
    path = _builtin_file(tmp_path, "mub2")
    code, out = _make(tmp_path, "qttf", str(path), "--method", "series", "--order", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["value"] - 3.0) < 1e-9
    assert payload["params"]["order"] == 2


def test_qttf_series_beyond_convergence_radius_keeps_stderr_empty(tmp_path):
    # alpha = 1 lies beyond alpha0 for this measurement; the JSON record
    # carries both numbers, and nothing is printed on stderr
    pom_file = tmp_path / "r.json"
    _make(tmp_path, "pom", "random", "--dim", "2", "--m", "6", "--rank", "1",
          "--seed", "3", "--out", str(pom_file))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "qttf.cli", "qttf", str(pom_file), "--method", "series",
         "--order", "4"],
        capture_output=True, text=True, check=False, env=env,
    )
    assert result.returncode == EXIT_OK
    assert result.stderr == ""
    params = json.loads(result.stdout)["params"]
    assert params["alpha"] > params["alpha0"]


def test_qttf_mc_is_reproducible(tmp_path):
    pom_file = tmp_path / "rand.json"
    _make(tmp_path, "pom", "random", "--dim", "2", "--m", "20", "--rank", "1",
          "--seed", "5", "--out", str(pom_file))
    runs = [
        _make(tmp_path, "qttf", str(pom_file), "--method", "mc", "--samples", "2000",
              "--seed", "11")
        for _ in range(2)
    ]
    assert runs[0][0] == EXIT_OK
    assert runs[0][1] == runs[1][1]
    payload = json.loads(runs[0][1])
    assert payload["method"] == "monte_carlo"
    assert payload["std_error"] > 0
    assert payload["params"]["variance_reduction"] >= 1.0


@pytest.mark.parametrize(
    "command,builtins,flags",
    [("qttf", ["sic2"], ["--method", "mc"]), ("compare", ["sic2", "mub2"], [])],
)
def test_too_few_samples_is_a_usage_error(tmp_path, capsys, command, builtins, flags):
    files = [str(_builtin_file(tmp_path, name)) for name in builtins]
    capsys.readouterr()
    code, out = _make(tmp_path, command, *files, *flags, "--samples", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err == "error: --samples must be >= 2, got 1\n"


def test_qttf_non_ic_exit_code(tmp_path):
    trivial = tmp_path / "trivial.json"
    save_pom(Pom(np.eye(2)[None], label="trivial"), trivial)
    code, _ = _make(tmp_path, "qttf", str(trivial))
    assert code == EXIT_NOT_IC
    # the series call reports plain ValueErrors as usage errors, but not this one
    code, _ = _make(tmp_path, "qttf", str(trivial), "--method", "series")
    assert code == EXIT_NOT_IC


def test_qttf_closed_on_an_incomplete_measurement_is_a_non_ic_exit(tmp_path, capsys):
    # three outcomes suit no closed form, but the measurement is refused
    # first: diagonal outcomes see no coherences, so no model of it exists
    z_split = tmp_path / "z_split.json"
    outcomes = np.array([np.diag([0.5, 0.0]), np.diag([0.5, 0.0]), np.diag([0.0, 1.0])])
    save_pom(Pom(outcomes, label="z split"), z_split)
    capsys.readouterr()
    code, out = _make(tmp_path, "qttf", str(z_split), "--method", "closed")
    assert code == EXIT_NOT_IC
    assert out == ""
    assert "rank deficient" in capsys.readouterr().err


def test_qttf_budget_exit_code(tmp_path, capsys, monkeypatch):
    # only thousands of outcomes overflow the default budget; a refusing chunk
    # sizer stands in for such a file
    def refuse(m, dim, memory_budget):
        raise BudgetExceededError(f"needs more than {memory_budget} bytes")

    monkeypatch.setattr(qttf.transfer, "_quartic_chunk", refuse)
    pom_file = _builtin_file(tmp_path, "sic2")
    capsys.readouterr()
    code, out = _make(tmp_path, "qttf", str(pom_file), "--method", "series", "--order", "4")
    assert (code, out) == (EXIT_BUDGET, "")
    assert capsys.readouterr().err == "error: needs more than 1073741824 bytes\n"


def test_qttf_takes_no_memory_budget(tmp_path, capsys):
    # qttf_series(memory_budget=) is the one place to set the order-4 budget
    assert not any(
        "--memory-budget" in action.option_strings for _, action in _arguments(_build_parser())
    )
    pom_file = _builtin_file(tmp_path, "sic2")
    capsys.readouterr()
    code, out = _make(
        tmp_path, "qttf", str(pom_file), "--method", "series", "--order", "4",
        "--memory-budget", "1",
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "error: unrecognized arguments: --memory-budget 1\n"


def test_qttf_order_four_series_reports_its_quartic_chunk(tmp_path):
    pom_file = tmp_path / "rand.json"
    _make(tmp_path, "pom", "random", "--dim", "2", "--m", "8", "--rank", "1",
          "--seed", "2", "--out", str(pom_file))
    code, out = _make(tmp_path, "qttf", str(pom_file), "--method", "series", "--order", "4")
    assert code == EXIT_OK
    params = json.loads(out)["params"]
    assert params["quartic_chunk"] == 8  # every d of the 8 outcomes in one chunk
    assert params["quartic_bytes"] == _quartic_bytes(8, 2, 8)
    _, lower = _make(tmp_path, "qttf", str(pom_file), "--method", "series", "--order", "3")
    assert "quartic_chunk" not in json.loads(lower)["params"]


# ---------------------------------------------------------------- compare


def test_compare_flags_better_measurement(tmp_path):
    sic = _builtin_file(tmp_path, "sic2")
    mub = _builtin_file(tmp_path, "mub2")
    code, out = _make(tmp_path, "compare", str(sic), str(mub))
    assert code == EXIT_OK
    assert "best by qttf: mub2 (3.0000)" in out


def test_compare_flags_conditioning_inversion(tmp_path):
    sic = _builtin_file(tmp_path, "sic2")
    dup = tmp_path / "dup.json"
    _make(tmp_path, "pom", "transform", str(sic), "--duplicate", "4",
          "--weights", "0.5,0.5", "--out", str(dup))
    code, out = _make(tmp_path, "compare", str(sic), str(dup))
    assert code == EXIT_OK
    # the split worsens the conditioning but keeps the exact qttf of 4: the
    # note calls the pair equal, not an inversion
    assert "equal: sic2 and sic2+dup(4;0.5,0.5) have equal qttf (4.0000 vs 4.0000)" in out
    assert "inversion" not in out
    assert "conditioning is not a tomographic ranking" in out


def test_compare_inversion_names_the_better_conditioned_first(tmp_path):
    # the split MUB is listed first but is the worse conditioned, so the note swaps
    # the pair; both values are exact (closed form and order-2 series)
    mub = _builtin_file(tmp_path, "mub2")
    sic = _builtin_file(tmp_path, "sic2")
    split = tmp_path / "split.json"
    _make(tmp_path, "pom", "transform", str(mub), "--duplicate", "1",
          "--weights", "0.5,0.5", "--out", str(split))
    code, out = _make(tmp_path, "compare", str(split), str(sic), "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [row["qttf_stderr"] for row in payload["rows"]] == [0, 0]
    assert payload["notes"][1:] == [
        "inversion: sic2 (kappa=1.7321) is better conditioned than mub2+dup(1;0.5,0.5) "
        "(kappa=1.9663) but tomographically worse (qttf 4.0000 vs 3.0000)"
    ]


def test_compare_calls_exact_values_within_the_floor_equal(tmp_path):
    # splitting an outcome of the MUB worsens its conditioning but keeps its
    # qttf of 3; both values are exact (bars of 0), so the pair is equal
    mub = _builtin_file(tmp_path, "mub2")
    split = tmp_path / "split.json"
    _make(tmp_path, "pom", "transform", str(mub), "--duplicate", "1",
          "--weights", "0.5,0.5", "--out", str(split))
    code, out = _make(tmp_path, "compare", str(split), str(mub), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["notes"][1:] == [
        "equal: mub2 and mub2+dup(1;0.5,0.5) have equal qttf (3.0000 vs 3.0000) despite "
        "kappa 1.7321 vs 1.9663; conditioning is not a tomographic ranking"
    ]


@pytest.mark.parametrize("gap,note", [(0.1, "inversion: "), (0.03, None), (0.005, None)])
def test_compare_notes_a_sampled_pair_only_beyond_five_sigma(tmp_path, monkeypatch, gap, note):
    # two rows with bars of 0.01: an inversion needs a gap above 5 combined
    # bars, as the search does, and sampled values are never called equal
    sic = _builtin_file(tmp_path, "sic2")
    dup = tmp_path / "dup.json"
    _make(tmp_path, "pom", "transform", str(sic), "--duplicate", "4",
          "--weights", "0.5,0.5", "--out", str(dup))

    def sampled(model, n_samples, rng):  # the better conditioned SIC is worse by gap
        value = 4.0 + (gap if model.n_outcomes == 4 else 0.0)
        return QttfEstimate(value=value, method="monte_carlo", std_error=0.01)

    monkeypatch.setattr(qttf.cli, "_auto", sampled)
    code, out = _make(tmp_path, "compare", str(sic), str(dup), "--format", "json")
    assert code == EXIT_OK
    notes = json.loads(out)["notes"][1:]
    assert [text[: len(note)] for text in notes] == ([note] if note else [])
    assert not any("equal qttf" in text for text in notes)


def test_compare_json_format(tmp_path):
    sic = _builtin_file(tmp_path, "sic2")
    mub = _builtin_file(tmp_path, "mub2")
    code, out = _make(tmp_path, "compare", str(sic), str(mub), "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {"rows", "notes", "config"}
    assert [row["label"] for row in payload["rows"]] == ["sic2", "mub2"]
    row = payload["rows"][0]
    assert set(row) == {
        "label", "m", "kappa_c", "kappa_c_tilde", "tr_fbar_inv",
        "qttf", "qttf_stderr", "qttf_method", "aqttf",
    }
    assert abs(row["tr_fbar_inv"] - 4.5) < 1e-9
    assert abs(row["kappa_c_tilde"] - np.sqrt(3.0)) < 1e-9


def test_compare_csv_format(tmp_path):
    sic = _builtin_file(tmp_path, "sic2")
    mub = _builtin_file(tmp_path, "mub2")
    code, out = _make(tmp_path, "compare", str(sic), str(mub), "--format", "csv")
    assert code == EXIT_OK
    config, rows = _csv_rows(out)
    assert config["command"] == "compare"
    assert len(rows) == 2
    assert float(rows[1]["qttf"]) == pytest.approx(3.0, abs=1e-9)


def test_compare_usage_errors(tmp_path):
    sic = _builtin_file(tmp_path, "sic2")
    assert _make(tmp_path, "compare", str(sic))[0] == EXIT_USAGE
    sic3 = _builtin_file(tmp_path, "sic3")
    assert _make(tmp_path, "compare", str(sic), str(sic3))[0] == EXIT_USAGE


# ---------------------------------------------------------------- fig1


def test_fig1_csv_is_deterministic(tmp_path):
    args = (
        "fig1", "--dims", "2,3", "--mus", "2", "--ranks", "1", "--epsilon", "0",
        "--n-poms", "3", "--n-haar", "100", "--seed", "3",
    )
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert _make(tmp_path, *args, "--out", str(first))[0] == EXIT_OK
    assert _make(tmp_path, *args, "--out", str(second))[0] == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    config, rows = _csv_rows(first.read_text(encoding="utf-8"))
    assert config["command"] == "fig1"
    assert [row["D"] for row in rows] == ["2", "3"]
    columns = {"D", "mu", "rank", "epsilon", "halved_rel_err", "ci_lo", "ci_hi", "limit"}
    for row, limit in zip(rows, (0.25, 0.3)):
        assert set(row) == columns
        assert float(row["limit"]) == pytest.approx(limit)
        assert float(row["ci_lo"]) <= float(row["halved_rel_err"]) <= float(row["ci_hi"])


def test_fig1_empty_run_emits_header_only(tmp_path):
    code, out = _make(tmp_path, "fig1", "--n-poms", "0")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("# config:")
    assert lines[1].split(",")[0] == "D"


def test_fig1_rejects_fractional_outcome_counts(tmp_path):
    code, _ = _make(tmp_path, "fig1", "--dims", "2", "--mus", "1.3", "--n-poms", "1")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--n-haar", "1", "--n-haar must be >= 2, got 1"),
        ("--n-poms", "-1", "--n-poms must be >= 0, got -1"),
        ("--epsilon", "-0.1", "--epsilon must be >= 0, got -0.1"),
        ("--dims", "2,x", "expected a comma-separated integer list, got '2,x'"),
        ("--dims", "", "expected a comma-separated integer list, got ''"),
        ("--mus", ",", "expected a comma-separated number list, got ','"),
        ("--mus", "1.5,nan", "mu must be finite, got nan"),
        ("--mus", "inf", "mu must be finite, got inf"),
        ("--epsilon", "nan", "--epsilon must be >= 0, got nan"),
    ],
)
def test_fig1_refuses_bad_flags(tmp_path, capsys, flag, value, message):
    code, out = _make(tmp_path, "fig1", "--mus", "2", "--n-haar", "20", flag, value)
    assert code == EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--dims", "2,3", "--mus", "2,1.25"],
            "mu=1.25 gives non-integral outcome count for dim=3 "
            "(mu dim**2 is more than 1e-09 from an integer)",
        ),
        (["--dims", "2", "--ranks", "1,3", "--mus", "1.5,2"], "rank must lie in [1, 2], got 3"),
    ],
    ids=["mu", "rank"],
)
def test_fig1_refuses_a_bad_cell_before_any_cell_runs(tmp_path, capsys, monkeypatch, argv, message):
    # the cells before the bad one used to run first and be thrown away
    drawn = []

    def counted(*args, **kwargs):
        drawn.append(args)
        return random_pom(*args, **kwargs)

    monkeypatch.setattr(qttf.cli, "random_pom", counted)
    code, out = _make(tmp_path, "fig1", *argv, "--n-poms", "2", "--n-haar", "20")
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert len(drawn) == 0


@pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
def test_run_fig1_refuses_a_non_finite_mu(mu):
    with pytest.raises(ValueError, match=f"mu must be finite, got {mu}"):
        run_fig1([2], [1.5, mu], [1], 0.0, n_poms=1, n_haar=20, seed=0)


def test_fig1_takes_no_memory_budget(tmp_path):
    # fig1 runs only the order-2 series, which no memory budget bounds
    code, out = _make(tmp_path, "fig1", "--n-poms", "1", "--memory-budget", "1")
    assert code == EXIT_USAGE
    assert out == ""


def test_fig1_pairs_measurements_across_epsilon():
    clean = run_fig1([2], [2.0], [1], 0.0, n_poms=4, n_haar=60, seed=9)
    noisy = run_fig1([2], [2.0], [1], 0.05, n_poms=4, n_haar=60, seed=9)
    assert len(clean) == len(noisy) == 1
    assert len(clean[0]["values"]) == len(noisy[0]["values"]) == 4
    # paired draws: the noise admixture is the only difference per index, so
    # per-measurement values correlate far more than independent redraws would
    paired_spread = np.std(np.array(clean[0]["values"]) - np.array(noisy[0]["values"]))
    assert paired_spread < np.std(clean[0]["values"])


# ---------------------------------------------------------------- fig2


def test_fig2_reports_stored_pair(tmp_path):
    out = tmp_path / "fig2.csv"
    code, _ = _make(
        tmp_path, "fig2", str(DATA / "discordant_a.json"), str(DATA / "discordant_b.json"),
        "--states", "4", "--shots", "2000", "--trials", "12", "--samples", "1500",
        "--seed", "4", "--out", str(out),
    )
    assert code == EXIT_OK
    config, rows = _csv_rows(out.read_text(encoding="utf-8"))
    assert len(rows) == 2
    assert list(rows[0]) == [
        "label", "m", "kappa_c_tilde", "qttf_mc", "qttf_mc_stderr", "aqttf", "scaled_mse",
        "scaled_mse_stderr",
    ]
    assert float(rows[0]["kappa_c_tilde"]) < float(rows[1]["kappa_c_tilde"])
    assert float(rows[0]["qttf_mc"]) > float(rows[1]["qttf_mc"])
    # the MSE and its bar are the sweep's own, row i drawn from the seed [4, 71, i]
    for index, name in enumerate(("discordant_a", "discordant_b")):
        pom = load_pom(DATA / f"{name}.json")
        sweep = haar_mse_sweep(
            pom, build_basis(pom.dim), 0.99, 4, 2000, 12, np.random.default_rng([4, 71, index]),
            n_qttf_samples=1500,
        )
        assert float(rows[index]["scaled_mse"]) == sweep.mean_scaled_mse
        assert float(rows[index]["scaled_mse_stderr"]) == sweep.scaled_mse_stderr > 0


def test_fig2_search_requires_dim(tmp_path):
    code, _ = _make(tmp_path, "fig2", "a.json", "b.json", "--search")
    assert code == EXIT_USAGE


def test_fig2_search_persists_discordant_pair(tmp_path):
    first = tmp_path / "p1.json"
    second = tmp_path / "p2.json"
    out = tmp_path / "fig2.csv"
    code, _ = _make(
        tmp_path, "fig2", str(first), str(second), "--search", "--dim", "2",
        "--m", "6,8", "--rank", "1", "--attempts", "60", "--samples", "2000",
        "--states", "3", "--shots", "1500", "--trials", "8", "--seed", "5",
        "--out", str(out),
    )
    assert code == EXIT_OK
    pom1, pom2 = load_pom(first), load_pom(second)
    basis = build_basis(2)
    k1 = measurement_matrices(pom1, basis).kappa_c_tilde
    k2 = measurement_matrices(pom2, basis).kappa_c_tilde
    assert k1 < k2
    # independent redraw: the persisted pair must hold up, not just the
    # search-time estimates (winner's curse shrinks marginal gaps)
    e1 = qttf_monte_carlo(pom1, basis, 20000, np.random.default_rng(100))
    e2 = qttf_monte_carlo(pom2, basis, 20000, np.random.default_rng(101))
    assert e1.value - e2.value > 3 * np.hypot(e1.std_error, e2.std_error)
    config, _ = _csv_rows(out.read_text(encoding="utf-8"))
    assert config["search_info"]["attempts_used"] >= 1
    # the header names the search that found the pair
    assert {key: config[key] for key in ("dim", "m", "rank", "attempts")} == {
        "dim": 2, "m": "6,8", "rank": 1, "attempts": 60,
    }


def test_fig2_search_timeout_writes_no_pair(tmp_path, capsys):
    first, second = tmp_path / "p1.json", tmp_path / "p2.json"
    code, out = _make(
        tmp_path, "fig2", str(first), str(second), "--search", "--dim", "2",
        "--attempts", "1", "--samples", "200",
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err == (
        "error: no conditioning/accuracy counterexample found in 1 attempts\n"
    )
    assert not first.exists() and not second.exists()


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--shots", "0"), ("--shots", "-5"), ("--trials", "1"), ("--states", "0"),
        ("--states", "1"),
        ("--samples", "1"), ("--attempts", "0"), ("--attempts", "-1"),
    ],
)
def test_fig2_rejects_bad_counts_before_searching(tmp_path, capsys, flag, value):
    first, second = tmp_path / "p1.json", tmp_path / "p2.json"
    code, _ = _make(
        tmp_path, "fig2", str(first), str(second), "--search", "--dim", "2",
        "--attempts", "5", "--samples", "200", flag, value,
    )
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {flag} must be >= ")
    assert not first.exists() and not second.exists()


def test_fig2_search_refuses_outcome_counts_below_dim_squared(tmp_path, capsys, monkeypatch):
    first, second = tmp_path / "p1.json", tmp_path / "p2.json"
    monkeypatch.setattr(qttf.cli, "random_pom", _no_attempt)
    code, out = _make(
        tmp_path, "fig2", str(first), str(second), "--search", "--dim", "2", "--m", "6,3",
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err == (
        "error: outcome counts [3] are below dim**2 = 4: "
        "no such measurement is informationally complete\n"
    )
    assert not first.exists() and not second.exists()
    with pytest.raises(ValueError, match="below dim\\*\\*2 = 9"):
        search_counterexample_pair(3, [12, 8], 1, attempts=5, n_samples=100, seed=0)
    with pytest.raises(ValueError, match="needs at least one outcome count"):
        search_counterexample_pair(2, [], 1, 3, 100, 0)


def _no_attempt(*args, **kwargs):
    raise AssertionError("the search drew a measurement")


def test_fig2_search_refuses_an_empty_count_list(tmp_path, capsys):
    first, second = tmp_path / "p1.json", tmp_path / "p2.json"
    code, out = _make(
        tmp_path, "fig2", str(first), str(second), "--search", "--dim", "2", "--m", "",
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err == "error: expected a comma-separated integer list, got ''\n"
    assert not first.exists() and not second.exists()


def test_fig2_search_refuses_the_purity_before_searching(tmp_path, capsys):
    first, second = tmp_path / "p1.json", tmp_path / "p2.json"
    code, out = _make(
        tmp_path, "fig2", str(first), str(second), "--search", "--dim", "2", "--purity", "1.5",
    )
    assert code == EXIT_USAGE
    assert out == ""
    err = capsys.readouterr().err
    assert err == "error: target purity must lie in [1/dim, 1) = [0.5, 1), got 1.5\n"
    assert "found pair" not in err
    assert not first.exists() and not second.exists()


@pytest.mark.parametrize(
    "command,flags,message",
    [
        ("qttf", ["--method", "series", "--alpha", "-1"], "alpha must be positive, got -1.0"),
        (
            "fig2",
            ["--purity", "1.5", "--states", "2", "--trials", "4", "--shots", "200"],
            "target purity must lie in [1/dim, 1) = [0.5, 1), got 1.5",
        ),
        ("qttf", ["--method", "series", "--alpha", "inf"], "alpha must be finite, got inf"),
    ],
)
def test_library_refusals_of_flag_values_are_usage_errors(
    tmp_path, capsys, command, flags, message
):
    files = [str(_builtin_file(tmp_path, "sic2"))] * (1 if command == "qttf" else 2)
    capsys.readouterr()
    code, out = _make(tmp_path, command, *files, *flags)
    assert code == EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def _arguments(parser, path=()):
    """(command path, action) of every argument of parser and its subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _arguments(sub, (*path, name))
        else:
            yield path, action


def _float_flags(parser):
    """(command path, flag) of every type=float argument of parser and its subcommands."""
    for path, action in _arguments(parser):
        if action.type is float:
            yield (*path, action.option_strings[0])


# argv templates for every float argument, "{v}" standing for its value and
# "{pom}" for a measurement file; --mus and --weights are float lists
FLOAT_ARGUMENTS = {
    ("pom", "transform", "--epsilon"): ["pom", "transform", "{pom}", "--epsilon", "{v}"],
    ("pom", "transform", "--weights"): [
        "pom", "transform", "{pom}", "--duplicate", "1", "--weights", "{v},{v}",
    ],
    ("qttf", "--alpha"): ["qttf", "{pom}", "--method", "series", "--alpha", "{v}"],
    ("fig1", "--epsilon"): [
        "fig1", "--mus", "2", "--n-poms", "1", "--n-haar", "20", "--epsilon", "{v}",
    ],
    ("fig1", "--mus"): ["fig1", "--mus", "{v}", "--n-poms", "1", "--n-haar", "20"],
    ("fig2", "--purity"): [
        "fig2", "{pom}", "{pom}", "--purity", "{v}", "--states", "2", "--trials", "4",
        "--shots", "200", "--samples", "100",
    ],
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argument", sorted(FLOAT_ARGUMENTS), ids=" ".join)
def test_no_float_argument_ends_in_a_traceback(tmp_path, capsys, argument, value):
    float_lists = {("pom", "transform", "--weights"), ("fig1", "--mus")}
    assert set(_float_flags(_build_parser())) | float_lists == set(FLOAT_ARGUMENTS)
    pom = _builtin_file(tmp_path, "sic2")
    argv = [arg.format(v=value, pom=pom) for arg in FLOAT_ARGUMENTS[argument]]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _make(tmp_path, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err.startswith("error:")


# argv templates for every command with a --seed, "{pom}" standing for a
# measurement file; each command would draw from its seed
SEED_COMMANDS = {
    ("pom", "random"): ["pom", "random", "--dim", "2", "--m", "4"],
    ("qttf",): ["qttf", "{pom}", "--method", "mc", "--samples", "100"],
    ("compare",): ["compare", "{pom}", "{pom}", "--samples", "100"],
    ("fig1",): ["fig1", "--mus", "2", "--n-poms", "1", "--n-haar", "20"],
    ("fig2",): [
        "fig2", "{pom}", "{pom}", "--states", "2", "--trials", "4", "--shots", "200",
        "--samples", "100",
    ],
}


@pytest.mark.parametrize("command", sorted(SEED_COMMANDS), ids=" ".join)
def test_negative_seed_is_refused_when_parsed(tmp_path, capsys, command):
    seeded = {path for path, action in _arguments(_build_parser()) if action.dest == "seed"}
    assert seeded == set(SEED_COMMANDS)
    pom = tmp_path / "rand.json"  # M > 4 D**2: compare takes the Monte Carlo route
    _make(tmp_path, "pom", "random", "--dim", "2", "--m", "20", "--out", str(pom))
    argv = [arg.format(pom=pom) for arg in SEED_COMMANDS[command]]
    capsys.readouterr()
    assert _make(tmp_path, *argv, "--seed", "-1") == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


def test_fig2_mixed_dimensions_rejected(tmp_path):
    sic2 = _builtin_file(tmp_path, "sic2")
    sic3 = _builtin_file(tmp_path, "sic3")
    code, _ = _make(tmp_path, "fig2", str(sic2), str(sic3), "--states", "2",
                    "--trials", "4", "--shots", "200")
    assert code == EXIT_USAGE


def test_compare_and_fig2_refuse_mixed_dimensions_alike(tmp_path, capsys):
    sic2 = _builtin_file(tmp_path, "sic2")
    sic3 = _builtin_file(tmp_path, "sic3")
    capsys.readouterr()
    for command in ("compare", "fig2"):
        assert _make(tmp_path, command, str(sic3), str(sic2))[0] == EXIT_USAGE
        assert capsys.readouterr().err == "error: measurements have mixed dimensions [2, 3]\n"


# ---------------------------------------------------------------- kappa ties


def _squeeze_kappa(monkeypatch, scale):
    """Replace kappa(C-tilde), which compare and the search both read, by
    2 + scale kappa: the order of the measurements is kept, their gaps scaled."""
    kappa = TomographyMatrices.kappa_c_tilde.fget
    monkeypatch.setattr(
        TomographyMatrices, "kappa_c_tilde", property(lambda model: 2.0 + scale * kappa(model))
    )


def test_compare_and_search_order_a_pair_by_a_small_kappa_gap_alike(tmp_path, monkeypatch):
    # a gap in (KAPPA_TIE_TOL, 1e-6]: the search takes the pair, and compare
    # reports the same pair as an inversion; the values are exact closed forms
    _squeeze_kappa(monkeypatch, 1e-8)
    pom1, pom2, info = search_counterexample_pair(2, [4], 1, attempts=60, n_samples=2000, seed=0)
    assert KAPPA_TIE_TOL < info["kappa_2"] - info["kappa_1"] <= 1e-6
    first, second = tmp_path / "p1.json", tmp_path / "p2.json"
    save_pom(pom1, first)
    save_pom(pom2, second)
    code, out = _make(tmp_path, "compare", str(second), str(first), "--format", "json")
    assert code == EXIT_OK
    notes = json.loads(out)["notes"]
    assert len(notes) == 2
    assert notes[1].startswith(
        f"inversion: {pom1.label} (kappa=2.0000) is better conditioned than {pom2.label} "
    )
    assert "but tomographically worse" in notes[1]


def test_compare_and_search_order_no_pair_on_a_kappa_tie(tmp_path, monkeypatch):
    _squeeze_kappa(monkeypatch, 0.0)
    with pytest.raises(SearchTimeoutError):
        search_counterexample_pair(2, [4], 1, attempts=8, n_samples=200, seed=0)
    sic = _builtin_file(tmp_path, "sic2")
    mub = _builtin_file(tmp_path, "mub2")
    code, out = _make(tmp_path, "compare", str(sic), str(mub), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["notes"] == ["best by qttf: mub2 (3.0000)"]


# ---------------------------------------------------------------- config


@pytest.mark.parametrize("command", ["qttf", "compare", "fig1", "fig2 --search"])
def test_config_holds_every_parsed_argument_but_out(tmp_path, command):
    sic = str(_builtin_file(tmp_path, "sic2"))
    mub = str(_builtin_file(tmp_path, "mub2"))
    out = tmp_path / "result"
    argv = {
        "qttf": ["qttf", sic, "--method", "series", "--seed", "3"],
        "compare": ["compare", sic, mub, "--format", "json", "--samples", "500"],
        "fig1": ["fig1", "--mus", "2", "--n-poms", "1", "--n-haar", "20"],
        "fig2 --search": [
            "fig2", str(tmp_path / "p1.json"), str(tmp_path / "p2.json"), "--search",
            "--dim", "2", "--attempts", "60", "--samples", "500", "--states", "2",
            "--shots", "200", "--trials", "4", "--seed", "1",
        ],
    }[command] + ["--out", str(out)]
    assert _make(tmp_path, *argv)[0] == EXIT_OK
    text = out.read_text(encoding="utf-8")
    config = json.loads(text)["config"] if text.startswith("{") else _csv_rows(text)[0]
    config.pop("search_info", None)  # the search's result, not an argument
    parsed = vars(_build_parser().parse_args(argv))
    del parsed["out"]
    assert config == parsed


# ---------------------------------------------------------------- one parser, one model


def test_one_parser_serves_a_sequence_of_calls(tmp_path, capsys):
    sic = str(_builtin_file(tmp_path, "sic2"))
    mub = str(_builtin_file(tmp_path, "mub2"))
    pair = [str(DATA / "discordant_a.json"), str(DATA / "discordant_b.json")]
    fig2_flags = ["--states", "2", "--shots", "300", "--trials", "4", "--samples", "200"]
    calls = [
        ["compare", sic, mub, "--samples", "300", "--seed", "2", "--format", "json"],
        ["fig2", *pair, "--purity", "1.5", *fig2_flags],
        ["fig2", *pair, *fig2_flags, "--seed", "3"],
        ["fig1", "--mus", "2", "--n-poms", "2", "--n-haar", "30", "--seed", "4"],
    ]

    def run(argv, out):
        code, stdout = _make(tmp_path, *argv, "--out", str(out))
        return code, stdout, capsys.readouterr().err, out.read_bytes() if out.exists() else None

    parser = _build_parser()
    in_sequence = [run(argv, tmp_path / f"seq{i}") for i, argv in enumerate(calls)]
    assert _build_parser() is parser
    one_at_a_time = []
    for i, argv in enumerate(calls):
        _build_parser.cache_clear()  # a fresh parser, as a new process would build
        one_at_a_time.append(run(argv, tmp_path / f"alone{i}"))
    assert [result[0] for result in in_sequence] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]
    assert in_sequence[1][2].startswith("error: target purity")
    assert in_sequence == one_at_a_time
    assert _build_parser() is _build_parser()


@pytest.fixture
def model_count(monkeypatch):
    """Count measurement_matrices calls, patched in every module that binds it."""
    original = qttf.fisher.measurement_matrices
    calls = []

    def counted(pom, basis):
        calls.append(pom.label)
        return original(pom, basis)

    for module in (qttf, qttf.fisher, qttf.transfer, qttf.estimation, qttf.cli):
        if getattr(module, "measurement_matrices", None) is original:
            monkeypatch.setattr(module, "measurement_matrices", counted)
    return calls


def test_compare_builds_one_model_per_file(tmp_path, model_count):
    files = [_builtin_file(tmp_path, name) for name in ("sic2", "mub2")]
    for k, m in ((2, 8), (3, 20)):  # the series and the Monte Carlo route of qttf_auto
        files.append(tmp_path / f"random{k}.json")
        save_pom(random_pom(2, m, 1, k), files[-1])
    model_count.clear()
    code, _ = _make(tmp_path, "compare", *map(str, files), "--samples", "300")
    assert code == EXIT_OK
    assert len(model_count) == len(files) == 4


@pytest.mark.parametrize("method", ["auto", "closed", "series", "mc"])
def test_qttf_builds_one_model_per_method(tmp_path, model_count, method):
    path = _builtin_file(tmp_path, "mub2")
    model_count.clear()
    code, _ = _make(tmp_path, "qttf", str(path), "--method", method, "--samples", "300")
    assert code == EXIT_OK
    assert len(model_count) == 1


def test_mse_sweep_builds_one_model(model_count):
    haar_mse_sweep(random_pom(2, 8, 1, 5), build_basis(2), 0.9, 2, 200, 4, 1, n_qttf_samples=50)
    assert len(model_count) == 1


def test_fig1_builds_one_model_per_measurement(tmp_path, model_count):
    code, _ = _make(
        tmp_path, "fig1", "--mus", "1.5,2", "--n-poms", "3", "--n-haar", "30", "--seed", "1",
    )
    assert code == EXIT_OK
    assert len(model_count) == 2 * 3


def test_fig2_search_builds_one_model_per_attempt_and_per_member(tmp_path, model_count):
    out = tmp_path / "fig2.csv"
    code, _ = _make(
        tmp_path, "fig2", str(tmp_path / "p1.json"), str(tmp_path / "p2.json"), "--search",
        "--dim", "2", "--attempts", "60", "--samples", "500", "--states", "2",
        "--shots", "200", "--trials", "4", "--seed", "1", "--out", str(out),
    )
    assert code == EXIT_OK
    attempts = _csv_rows(out.read_text(encoding="utf-8"))[0]["search_info"]["attempts_used"]
    assert attempts >= 2
    assert len(model_count) == attempts + 2


# ---------------------------------------------------------------- helpers


# arguments that run each runner through its checks to its first draw
RUNNER_ARGS = {
    search_counterexample_pair: dict(
        dim=2, m_choices=[6], rank=1, attempts=5, n_samples=100, seed=0
    ),
    run_fig1: dict(dims=[2], mus=[2.0], ranks=[1], epsilon=0.0, n_poms=1, n_haar=20, seed=0),
}


# each used to get past the runner into a draw, a TypeError from range, a NaN
# row or a SearchTimeoutError
@pytest.mark.parametrize(
    "runner, name, value, message",
    [
        (search_counterexample_pair, "attempts", 1.0, "must be an integer, got 1.0"),
        (search_counterexample_pair, "attempts", 0, "must be >= 1, got 0"),
        (search_counterexample_pair, "n_samples", 1, "must be >= 2, got 1"),
        (search_counterexample_pair, "n_samples", True, "must be an integer, got True"),
        (run_fig1, "n_poms", 1.0, "must be an integer, got 1.0"),
        (run_fig1, "n_poms", -1, "must be >= 0, got -1"),
        (run_fig1, "n_haar", True, "must be an integer, got True"),
        (run_fig1, "n_haar", 1, "must be >= 2, got 1"),
    ],
    ids=lambda arg: arg.__name__ if callable(arg) else repr(arg),
)
def test_experiment_runners_check_their_counts_before_any_draw(
    monkeypatch, runner, name, value, message
):
    monkeypatch.setattr(qttf.cli, "random_pom", _no_attempt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refused:
            runner(**{**RUNNER_ARGS[runner], name: value})
    assert type(refused.value) is ValueError
    assert str(refused.value) == f"{name} {message}"


def test_bootstrap_ci_behaviour():
    rng = np.random.default_rng(6)
    values = rng.normal(loc=3.0, scale=0.5, size=400)
    lo, hi = bootstrap_ci(values, np.random.default_rng(7))
    assert lo < values.mean() < hi
    lo2, hi2 = bootstrap_ci(values, np.random.default_rng(7))
    assert (lo, hi) == (lo2, hi2)
    single = bootstrap_ci(np.array([2.5]), np.random.default_rng(8))
    assert single == (2.5, 2.5)
    # a seed serves as its generator, as everywhere in the library
    assert bootstrap_ci(values, 0) == bootstrap_ci(values, np.random.default_rng(0))


def test_no_arguments_is_usage_error(tmp_path):
    assert _make(tmp_path, )[0] == EXIT_USAGE


def test_console_script_runs_end_to_end(tmp_path):
    # the subprocess imports qttf from the source tree, as an install would provide it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "qttf.cli", "pom", "builtin", "sic2"],
        capture_output=True, text=True, check=False, env=env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["dim"] == 2


def test_installed_script_entry_point_resolves():
    # the qttf command that an install puts on PATH runs this callable;
    # a regex, since tomllib needs Python 3.11
    path = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = path.read_text(encoding="utf-8").split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    entry = re.fullmatch(r'\s*qttf = "([\w.]+):(\w+)"\s*', scripts)
    assert entry is not None
    module, name = entry.groups()
    target = getattr(importlib.import_module(module), name)
    assert callable(target)
    assert target is qttf.cli.console_main


def test_csv_round_trips_doubles_exactly(tmp_path):
    sic = _builtin_file(tmp_path, "sic2")
    mub = _builtin_file(tmp_path, "mub2")
    code, csv_out = _make(tmp_path, "compare", str(sic), str(mub), "--format", "csv")
    assert code == EXIT_OK
    code, json_out = _make(tmp_path, "compare", str(sic), str(mub), "--format", "json")
    assert code == EXIT_OK
    _, csv_rows_ = _csv_rows(csv_out)
    json_rows = json.loads(json_out)["rows"]
    for csv_row, json_row in zip(csv_rows_, json_rows):
        for key in ("kappa_c", "kappa_c_tilde", "tr_fbar_inv", "qttf", "aqttf"):
            assert float(csv_row[key]) == json_row[key]  # no precision lost in CSV
    assert "\r" not in csv_out
