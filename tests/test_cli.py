import argparse
import json
import math
import os
import subprocess
import sys

import pytest

from spherelab.cli import _SUBCOMMANDS, _doubling_ks, _parse_q, build_parser, main


def test_parse_q():
    assert _parse_q("4") == 4.0
    assert _parse_q("inf") == math.inf
    assert _parse_q("Infinity") == math.inf
    with pytest.raises(ValueError):
        _parse_q("two")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_q("nan")


def test_doubling_ks():
    assert _doubling_ks(8, 64) == [8, 16, 32, 64]
    assert _doubling_ks(5, 5) == [5]
    with pytest.raises(ValueError):
        _doubling_ks(0, 8)
    with pytest.raises(ValueError):
        _doubling_ks(16, 8)


def test_verify_exits_clean(capsys):
    code = main(["verify", "--k-max", "8", "--points", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 4


def test_verify_zero_points_is_usage_error(capsys):
    code = main(["verify", "--points", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "points" in captured.err
    assert "zero-size" not in captured.err


def test_norms_prints_table(capsys):
    code = main(["norms", "--k", "1", "--q", "4", "--q", "inf"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Z_1" in out and "Q_1" in out
    # the degree-1 quartic norms are elementary
    assert f"{(9 / (20 * math.pi)) ** 0.25:.10g}" in out
    assert f"{(3 / (10 * math.pi)) ** 0.25:.10g}" in out


def test_norms_with_order(capsys):
    code = main(["norms", "--k", "3", "--m", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Y_3_2" in out


def test_random_onb_gate_and_csv(tmp_path, capsys):
    out1 = tmp_path / "mc1.csv"
    out2 = tmp_path / "mc2.csv"
    code = main(
        ["random-onb", "--k", "8", "--trials", "6", "--seed", "11", "--out", str(out1)]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "mean lambda4" in text and "+-" in text and "[PASS]" in text
    main(["random-onb", "--k", "8", "--trials", "6", "--seed", "11", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "trial,k,lambda4,seed"


def test_random_onb_json_output(tmp_path, capsys):
    path = tmp_path / "mc.json"
    code = main(
        [
            "random-onb", "--k", "8", "--trials", "4", "--seed", "2",
            "--out", str(path), "--format", "json",
        ]
    )
    capsys.readouterr()
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["record"]["name"] == "random-onb"
    assert payload["record"]["seed"] == 2
    assert len(payload["rows"]) == 4
    assert payload["columns"] == ["trial", "k", "lambda4", "seed"]


def test_random_onb_refused_allocation_is_usage_error(capsys):
    # 2^45 trials need 256 TiB for the per-trial values alone, beyond a
    # 47-bit address space, so the allocation fails under any overcommit policy.
    code = main(["random-onb", "--k", "1", "--trials", str(2**45)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_random_onb_negative_seed_is_usage_error(capsys):
    code = main(["random-onb", "--k", "1", "--trials", "2", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: seed must be a non-negative int, got -1\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--k-max", "2", "--points", "2", "--seed", "-1"],
    ["beams", "--seed", "-1", "--k", "8", "--delta", "0.5", "--j", "2"],
], ids=["verify", "beams"])
def test_negative_seed_is_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: seed must be a non-negative int, got -1\n"


def test_cli_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg costs tens of milliseconds of every command's start-up.
    probe = "import sys, spherelab.cli; print('scipy.linalg' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"


def test_avg_l4_small_sweep(capsys):
    code = main(["avg-l4", "--k-min", "8", "--k-max", "32"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out


def test_avg_l4_without_a_degree_of_two_is_usage_error(capsys):
    code = main(["avg-l4", "--k-min", "1", "--k-max", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "k >= 2" in captured.err


def test_avg_l4_degree_cap_is_usage_error(capsys):
    code = main(["avg-l4", "--k-min", "1048577", "--k-max", "1048577"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "1048576" in captured.err


def test_avg_l4_has_no_oversample_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["avg-l4", "--oversample", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --oversample" in capsys.readouterr().err


def test_scaling_gate(capsys):
    code = main(["scaling", "--family", "highest-weight", "--q", "4",
                 "--k-min", "16", "--k-max", "128"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exponent" in out
    assert out.count("[PASS]") == 2


def test_scaling_zonal_low_q_is_usage_error(capsys):
    code = main(["scaling", "--family", "zonal", "--q", "4",
                 "--k-min", "16", "--k-max", "128"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_superlevel_gate_failure(capsys):
    # a tiny threshold makes the scaled measure sqrt(lam) * 4 pi >> 1
    code = main(["superlevel", "--k-min", "16", "--k-max", "16", "--c", "0.0001"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out


def test_beams_flag_conflict(capsys):
    code = main(["beams", "--k", "8", "--j", "2", "--exponent", "0.5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_beams_small_run(capsys):
    code = main(["beams", "--k", "8", "--delta", "0.5", "--j", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out


def test_beams_k_max_without_k_min_is_usage_error(capsys):
    code = main(["beams", "--k-max", "128"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--k-min" in captured.err



@pytest.mark.parametrize("j", ["0", "-3"])
def test_beams_fixed_count_below_one_is_usage_error(capsys, monkeypatch, j):
    import spherelab.beams as beams

    def no_beam_work(*args, **kwargs):
        raise AssertionError("beam work started")

    monkeypatch.setattr(beams, "build_grid", no_beam_work)
    monkeypatch.setattr(beams, "place_separated_axes", no_beam_work)
    code = main(["beams", "--k", "8", "--j", j])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "beam count" in captured.err


# (argv at small settings, gates the subcommand reports)
_EVERY_SUBCOMMAND = [
    (["norms", "--k", "4", "--q", "4", "--q", "inf"], 0),
    (["avg-l4", "--k-min", "8", "--k-max", "32"], 2),
    (["scaling", "--k-min", "16", "--k-max", "128"], 2),
    (["pointwise", "--k-min", "8", "--k-max", "32"], 1),
    (["random-onb", "--k", "8", "--trials", "6", "--seed", "11"], 1),
    (["beams", "--k", "8", "--delta", "0.5", "--j", "2"], 1),
    (["tube-ratio", "--k-min", "8", "--k-max", "8"], 1),
    (["superlevel", "--k-min", "16", "--k-max", "16"], 1),
    (["verify", "--k-max", "4", "--points", "10"], 4),
]


@pytest.mark.parametrize(
    "argv, n_gates", _EVERY_SUBCOMMAND, ids=[argv[0] for argv, _ in _EVERY_SUBCOMMAND]
)
def test_every_subcommand_writes_a_json_record(tmp_path, capsys, argv, n_gates):
    path = tmp_path / "run.json"
    code = main(argv + ["--out", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    # the gates printed are the gates the subcommand's result reports
    args = build_parser().parse_args(argv)
    result, _, _ = _SUBCOMMANDS[args.command].run(args)
    assert len(result.gates) == n_gates
    assert out.count("[PASS]") == n_gates
    assert "[FAIL]" not in out
    payload = json.loads(path.read_text())
    record = payload["record"]
    assert record["name"] == argv[0]
    assert {"params", "grid", "seed", "outputs"} <= set(record)
    assert len(payload["rows"]) == len(result.rows)


def test_every_subcommand_is_in_the_json_record_test():
    assert sorted(_SUBCOMMANDS) == sorted(argv[0] for argv, _ in _EVERY_SUBCOMMAND)


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["norms"])  # missing required --k
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-subcommand"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_float_flags_are_usage_errors(capsys, value):
    argvs = [
        ["norms", "--k", "2", "--oversample", value],
        ["beams", "--k", "8", "--delta", value],
        ["beams", "--k", "8", f"--exponent={value}"],
        ["superlevel", "--k-min", "16", "--k-max", "16", f"--c={value}"],
    ]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
    with pytest.raises(SystemExit) as exc:
        main(["norms", "--k", "2", "--q", "nan"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "spherelab" in capsys.readouterr().out
