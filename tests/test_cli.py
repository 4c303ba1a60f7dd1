import argparse
import hashlib
import inspect
import json
import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

import spherelab.experiments as xp
from spherelab._version import __version__
from spherelab.beams import PackingInfeasibleError, RankDeficiencyError
from spherelab.cli import (
    _SUBCOMMANDS,
    _doubling_ks,
    _emit,
    _parse_q,
    _plain_json,
    build_parser,
    main,
)
from spherelab.experiments import ExperimentRun
from spherelab.quadrature import GridResolutionError


def test_parse_q():
    assert _parse_q("4") == 4.0
    assert _parse_q("inf") == math.inf
    assert _parse_q("Infinity") == math.inf
    with pytest.raises(argparse.ArgumentTypeError, match="got 'two'"):
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


# (subcommand.parameter) for each library default a subcommand passes at its flag defaults
_DEFAULTS_PASSED = [
    "norms.qs", "norms.m", "norms.oversample",
    "scaling.oversample",
    "beams.j", "beams.exponent", "beams.method", "beams.seed",
    "tube-ratio.oversample",
    "superlevel.c_grid", "superlevel.oversample",
    "verify.k_max", "verify.points", "verify.seed",
]


def test_verify_defaults_are_the_library_defaults(monkeypatch):
    # each subcommand, at its flag defaults, passes every defaulted parameter
    # of its experiment its library default (a fallback list as the tuple's items)
    calls = []
    for name in xp.__all__:
        function = getattr(xp, name)
        if inspect.isfunction(function):
            def record(*args, _function=function, **kwargs):
                calls.append(inspect.signature(_function).bind(*args, **kwargs))
                return ExperimentRun([])

            monkeypatch.setattr(xp, name, record)
    checked = []
    for command in _SUBCOMMANDS:
        argv = [command, "--k", "4"] if command == "norms" else [command]
        _SUBCOMMANDS[command].run(build_parser().parse_args(argv))
        (bound,) = calls
        calls.clear()
        for param in bound.signature.parameters.values():
            if param.default is not param.empty:
                passed = bound.arguments.get(param.name, param.default)
                default = param.default
                if isinstance(default, tuple):
                    passed, default = list(passed), list(default)
                assert passed == default, f"{command}.{param.name}"
                checked.append(f"{command}.{param.name}")
    assert checked == _DEFAULTS_PASSED


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


def _write(path, command, columns, run, params=None, seed=None, elapsed=0.0, fmt="json"):
    args = argparse.Namespace(out=str(path), format=fmt, command=command)
    _emit(args, columns, run, params, seed, elapsed)


def test_write_csv_deterministic(tmp_path, capsys):
    rows = [
        {"k": 4, "value": 0.1 + 0.2, "flag": True},
        {"k": np.int64(8), "value": np.float64(1.5), "flag": False},
    ]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    _write(p1, "demo", ("k", "value", "flag"), ExperimentRun(rows), fmt="csv")
    _write(p2, "demo", ("k", "value", "flag"), ExperimentRun(rows), fmt="csv")
    assert capsys.readouterr().out == f"wrote {p1}\nwrote {p2}\n"
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "k,value,flag"
    assert lines[1] == "4,0.30000000000000004,true"
    assert lines[2] == "8,1.5,false"


def test_write_json_round_trip(tmp_path):
    run = ExperimentRun(
        [{"k": 4, "value": 1.25}],
        certificate={"band": 4},
        outputs={"value": np.float64(2.5), "flags": np.array([1, 2])},
    )
    params = {"k": np.int64(4), "q": 4.0}
    path, again = tmp_path / "out.json", tmp_path / "again.json"
    _write(path, "demo", ("k", "value"), run, params, seed=0, elapsed=0.5)
    loaded = json.loads(path.read_text())
    assert loaded["record"]["name"] == "demo"
    assert loaded["record"]["params"]["k"] == 4
    assert loaded["record"]["outputs"]["value"] == 2.5
    assert loaded["record"]["outputs"]["flags"] == [1, 2]
    assert loaded["record"]["wall_clock_s"] == 0.5
    assert loaded["columns"] == ["k", "value"]
    assert loaded["rows"] == [{"k": 4, "value": 1.25}]
    # serialization is stable
    _write(again, "demo", ("k", "value"), run, params, seed=0, elapsed=0.5)
    assert path.read_bytes() == again.read_bytes()
    assert loaded["record"]["version"] == __version__


def test_write_json_matches_a_json_round_trip_of_the_record(tmp_path):
    # integer keys sort numerically before conversion and as text after it;
    # the file must carry the order a json round trip of the record gives
    record = {
        "name": "scaling",
        "params": {"ks": [8, 16, 32]},
        "grid": {"bands": {8: 8, 16: 16, 32: 32}, "norms": {8: 0.5, 16: 0.25, 32: 0.125}},
        "seed": None,
        "outputs": {"k_range": (8, 32), "value": np.float64(2.5), "nan": float("nan")},
        "wall_clock_s": 0.25,
        "version": __version__,
    }
    run = ExperimentRun([{"k": 8}], certificate=record["grid"], outputs=record["outputs"])
    path = tmp_path / "out.json"
    _write(path, "scaling", ("k",), run, record["params"], None, 0.25)
    payload = {
        "record": json.loads(json.dumps(_plain_json(record), sort_keys=True)),
        "columns": ["k"],
        "rows": [{"k": 8}],
    }
    assert path.read_text() == json.dumps(payload, sort_keys=True, indent=1) + "\n"
    assert _plain_json(record)["grid"]["bands"] == {"8": 8, "16": 16, "32": 32}


def test_random_onb_has_no_oversample_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["random-onb", "--oversample", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --oversample" in capsys.readouterr().err


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
    ["beams", "--seed", "-1", "--k-min", "8", "--delta", "0.5", "--j", "2"],
], ids=["verify", "beams"])
def test_negative_seed_is_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: seed must be a non-negative int, got -1\n"


# A fresh process's modules of scipy, numpy.random and numpy.polynomial beyond
# those that `import numpy` alone loads (numpy 1.x loads the latter two itself).
_LOADED_SINCE_NUMPY = """
import contextlib, io, json, sys
import numpy
bare = set(sys.modules)
def loaded():
    new = set(sys.modules) - bare
    return sorted(m for m in new if m.split(".")[0] == "scipy"
                  or m.startswith(("numpy.random", "numpy.polynomial")))
"""


def _fresh_process(script):
    """What script prints on its last line, as JSON, run in a new interpreter on this path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; importing it would cost every command
    # about 0.2 s and 20 MB of start-up.  numpy.random (6 MB with the libcrypto
    # its seeding loads) waits for a command's first draw, and numpy.polynomial
    # for a grid built where numpy's OpenBLAS has no int64 dsterf.
    script = _LOADED_SINCE_NUMPY + "import spherelab, spherelab.cli\nprint(json.dumps(loaded()))"
    assert _fresh_process(script) == []


def test_numpy_random_loads_only_for_commands_that_draw():
    script = _LOADED_SINCE_NUMPY + """
import spherelab.cli as cli
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))
seen = {}
for argv in (["tube-ratio", "--k-min", "8", "--k-max", "8"], ["beams", "--k-min", "8", "--k-max", "8"],
             ["norms", "--k", "8"]):
    seen[argv[0]] = [run(*argv), [m for m in loaded() if m.startswith("numpy.random")]]
# The probe can see numpy.random load: a Haar trial draws.
seen["random-onb"] = [run("random-onb", "--k", "8", "--trials", "4"), "numpy.random" in sys.modules]
print(json.dumps(seen))
"""
    assert _fresh_process(script) == {
        "tube-ratio": [0, []], "beams": [0, []], "norms": [0, []], "random-onb": [0, True],
    }


def test_library_refusals_are_the_one_usage_error_type():
    # grid, packing and rank refusals exit 2 as ValueErrors, so cli names none of them
    import spherelab.cli as cli

    assert cli._USAGE_ERRORS == (ValueError, MemoryError, OverflowError)
    for error in (GridResolutionError, PackingInfeasibleError, RankDeficiencyError):
        assert issubclass(error, ValueError)
    layers = ("spherelab.beams", "spherelab.quadrature")
    assert not [name for name, v in vars(cli).items() if getattr(v, "__module__", None) in layers]


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
    code = main(["beams", "--k-min", "8", "--j", "2", "--exponent", "0.5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_beams_small_run(capsys):
    code = main(["beams", "--k-min", "8", "--delta", "0.5", "--j", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out


def test_beams_k_max_alone_sweeps_from_the_default_k_min(capsys):
    code = main(["beams", "--k-max", "128", "--delta", "0.5", "--j", "1"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == ",".join(xp.BEAM_EXPERIMENT_COLUMNS)
    assert [line.split(",")[0] for line in lines[1:3]] == ["64", "128"]
    assert lines[3].startswith("[PASS]")


def test_beams_retired_k_flag_is_usage_error(capsys):
    # --k is now a prefix of --k-min and --k-max, which argparse refuses as ambiguous
    with pytest.raises(SystemExit) as exc:
        main(["beams", "--k", "8"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == ["spherelab beams: error: ambiguous option: --k could match --k-min, --k-max"]



@pytest.mark.parametrize("j", ["0", "-3"])
def test_beams_fixed_count_below_one_is_usage_error(capsys, monkeypatch, j):
    import spherelab.experiments as experiments

    def no_beam_work(*args, **kwargs):
        raise AssertionError("beam work started")

    monkeypatch.setattr(experiments, "build_grid", no_beam_work)
    monkeypatch.setattr(experiments, "place_separated_axes", no_beam_work)
    code = main(["beams", "--k-min", "8", "--j", j])
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
    (["beams", "--k-min", "8", "--delta", "0.5", "--j", "2"], 1),
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
    # the gates printed are the gates of the subcommand's run
    args = build_parser().parse_args(argv)
    result, _, _ = _SUBCOMMANDS[args.command].run(args)
    assert isinstance(result, ExperimentRun)
    assert len(result.gates) == n_gates
    assert out.count("[PASS]") == n_gates
    assert "[FAIL]" not in out
    payload = json.loads(path.read_text())
    record = payload["record"]
    assert record["name"] == argv[0]
    assert {"params", "grid", "seed", "outputs"} <= set(record)
    assert len(payload["rows"]) == len(result.rows)


# sha256 of stdout (the --out path read as <out>), of the CSV file and of the
# JSON payload for each argv above, recorded when the subcommands still built
# their results in four shapes.  The JSON payload is hashed with sorted keys,
# without wall_clock_s and without avg-l4's outputs.band_spread, which was
# added later; random-onb's params.oversample left with its flag.  The norms
# CSV and JSON digests were re-recorded when q = inf became the exact node
# max |N(k, m, t_i)|: the one changed cell is Q_4 at inf, 0.44253269244498233
# before and 0.4425326924449823 after.  The tube-ratio CSV and JSON digests were
# re-recorded when the beam's arc masses became bincounts over the arc ids: the
# one changed cell is the beam_tilted sup_arc_mass, 0.13732450135005494 (the
# dense-mask pairwise sum) before and 0.13732450135005492 after.  They were
# re-recorded again when the beam became its closed-form density
# c_k^2 (1 - (x . a)^2)^k; the three beam_tilted cells moved, l4
# 0.6619872779856195 -> 0.6619872779856193, sup_arc_mass 0.13732450135005492
# -> 0.1373245013500549 and ratio 0.31415384246873396 -> 0.31415384246873385,
# toward the oracles test_tube_ratio_beam_l4_is_rotation_invariant and
# test_tube_ratio_beam_density_matches_mpmath; stdout did not change.
_GOLDEN = {
    "norms": (
        "e9549189a32e288a8982d45f129c8a75bb659a98508f2a7f4820e006b0c62b1a",
        "1cb3309977ffc2532b6932d04204a4338184af0793a8b840270dcd88f87c3acb",
        "a29c84691cfbd850f5ef7166f83654c6f6da542f1e2e73794a2323c4153a34f2",
    ),
    "avg-l4": (
        "57b4634d3e8f194e0fd61c47e1e59ed3b5c28420e63696fcfee2341623213369",
        "cd5d29396a217c28653ffcfaedef6866df1f01ec6a9b53e0421d1ef08ae65aea",
        "865c960bc615885b0c1462ae47a406ec6be61f56e8cb1804bf77f060604917c8",
    ),
    "scaling": (
        "37fc71f1edd29f9b990916c74445c5639b9782d739987a82d62a8c37b7add1d0",
        "f820e0db236141659ce62e84731e48338ec920859f4703d8b46dc5cb891c087d",
        "967557ea2195b4a5ae3c31040d7e8180a1f36833da5290ce322797fc7ef468a9",
    ),
    "pointwise": (
        "f944485d5396b0f3c26a5c2f61e8b1dc3e2e3afcf7bbea7d77adb678dbab4ee4",
        "415168c90dd7d0bed545b104cf793a233f4149477a6e277cb33c5c22329682b9",
        "812de41e45dab43f3dc46c7da83ddde45efb3d9015a83ef4b67503df4d209afc",
    ),
    "random-onb": (
        "ea59f3d98b6ed7d44a84d03dbc7909a972867bf8314681e5c315127351301ca1",
        "737640d5c0d1931e6963d8e19bf84bff5f5beda53d3b6849baf24f21a841d746",
        "67d91a303fc9120e265191b4c62880b54207977306c89a05f5a3b5c874647e81",
    ),
    "beams": (
        "de267e1a07239d38425f65e13c76a967d80f399b5976ecd223700bea2949c599",
        "590acf28a406d24d6787b6da0a0f2085155456ee448d61ec841342496e5dba76",
        "46f127b2daf3c2da073d8cea4cd5b48d5e021a9c64e157261d664e979de1b279",
    ),
    "tube-ratio": (
        "d590b88f656476fda24f26ed31c51410490392c6588d272bf5fff1c9831b995d",
        "432dc9959a309d4e08b95f68298a21b571bc8c76cdabfd19830ef4c97cc06fc5",
        "4101b97457a72e5e03f8bab008439ade43079bb7b564b76d1ad433ce6e1c33a6",
    ),
    "superlevel": (
        "6d3d1165462f71e17a1f9bda34f959856a87aec210c869fc1beed5da47201460",
        "a2e809eb261f6594466d7f5768a3b5a1821790217afbfe79de8804bef99de93b",
        "1c7166761e4066e92460c9ef4110e5fb3107a597894c8b2e455ce8fa1ca14bd8",
    ),
    "verify": (
        "9440fbdb516c688535a13dd85471a8d9d2c4809cb1ac1b610dcbbcd556720d9b",
        "55d46cda9da0bf22bbf216824fc019141ce8d7b715e47ab8240e1443e4cf9cb2",
        "77c89d143098898e4b28438172bb1b9ba0a5cc9699b3206243be4e052dfc51c8",
    ),
}


@pytest.mark.parametrize(
    "argv", [argv for argv, _ in _EVERY_SUBCOMMAND], ids=[argv[0] for argv, _ in _EVERY_SUBCOMMAND]
)
def test_every_subcommand_output_is_unchanged(tmp_path, capsys, argv):
    csv_path, json_path = tmp_path / "run.csv", tmp_path / "run.json"
    assert main(argv + ["--out", str(csv_path)]) == 0
    stdout = capsys.readouterr().out.replace(str(csv_path), "<out>")
    assert main(argv + ["--out", str(json_path), "--format", "json"]) == 0
    capsys.readouterr()
    payload = json.loads(json_path.read_text())
    record = payload["record"]
    del record["wall_clock_s"]
    if argv[0] == "avg-l4":
        del record["outputs"]["band_spread"]
    if argv[0] == "random-onb":
        assert "oversample" not in record["params"]
    blobs = (stdout.encode(), csv_path.read_bytes(), json.dumps(payload, sort_keys=True).encode())
    assert tuple(hashlib.sha256(blob).hexdigest() for blob in blobs) == _GOLDEN[argv[0]]


def test_every_subcommand_is_in_the_json_record_test():
    assert sorted(_SUBCOMMANDS) == sorted(argv[0] for argv, _ in _EVERY_SUBCOMMAND)


def test_readme_commands_parse():
    # every `spherelab ...` line of README.md's sh blocks parses, so a flag
    # retired from the command line cannot survive in the README's examples
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        blocks = fh.read().split("```")[1::2]
    lines = [line for block in blocks if block.startswith("sh\n") for line in block.splitlines()]
    argvs = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("spherelab ")]
    assert sorted({argv[0] for argv in argvs}) == sorted(_SUBCOMMANDS)
    parser = build_parser()
    for argv in argvs:
        assert parser.parse_args(argv).command == argv[0]


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
        ["beams", "--k-min", "8", "--delta", value],
        ["beams", "--k-min", "8", f"--exponent={value}"],
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
