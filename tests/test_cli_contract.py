"""Generated-input contract of the command line: run, fail a gate, or refuse cleanly.

Each generated run must exit 0, 1 or 2 and never raise.  Exit 1 comes only
with a [FAIL] gate line; exit 2 only with a plain ``error:`` line on stderr.
"""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import spherelab.experiments as experiments
from spherelab.beams import _MAX_LATTICE_AXES, _MIN_SEPARATION
from spherelab.cli import main
from spherelab.experiments import AVERAGE_L4_MAX_DEGREE
from spherelab.quadrature import MAX_GRID_POINTS

_CONTRACT = settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Small degrees, negative ones, degrees at the cap, and degrees far beyond it.
_DEGREES = st.one_of(
    st.integers(-3, 40),
    st.integers(AVERAGE_L4_MAX_DEGREE - 2, AVERAGE_L4_MAX_DEGREE + 2),
    st.integers(AVERAGE_L4_MAX_DEGREE + 1, 2**80),
    st.integers(-(2**80), -4),
)


def _check_contract(code, captured):
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
    if code == 1:
        assert "[FAIL]" in captured.out and captured.err == ""
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _no_work_spy(calls):
    """Stands in for avg-l4's one allocating step and records the degrees it sees."""
    terms = experiments._zonal_3j_squares

    def spy(k):
        calls.append(k)
        return terms(k)

    return spy


@_CONTRACT
@given(k_min=_DEGREES, k_max=_DEGREES)
@example(k_min=8, k_max=AVERAGE_L4_MAX_DEGREE)  # the widest sweep that passes
@example(k_min=1, k_max=AVERAGE_L4_MAX_DEGREE)  # A_2/log 2 widens the band to 5.5: exit 1
@example(k_min=AVERAGE_L4_MAX_DEGREE, k_max=AVERAGE_L4_MAX_DEGREE + 1)
@example(k_min=AVERAGE_L4_MAX_DEGREE + 1, k_max=AVERAGE_L4_MAX_DEGREE + 1)
@example(k_min=3, k_max=2**80)
@example(k_min=-1, k_max=8)
def test_avg_l4_degree_range_contract(capsys, k_min, k_max):
    largest = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_zonal_3j_squares", _no_work_spy(largest))
        code = main(["avg-l4", "--k-min", str(k_min), "--k-max", str(k_max)])
    _check_contract(code, capsys.readouterr())
    # no degree beyond the cap ever reaches the allocating sum
    assert max(largest, default=0) <= AVERAGE_L4_MAX_DEGREE
    if code == 2:
        assert largest == []
    if 8 <= k_min <= k_max <= AVERAGE_L4_MAX_DEGREE:
        assert code == 0


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_is_refused_before_the_experiment_runs(capsys, tmp_path, target):
    out = tmp_path if target == "directory" else tmp_path / "absent" / "x.csv"
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_zonal_3j_squares", _no_work_spy(calls))
        code = main(["avg-l4", "--out", str(out)])
    captured = capsys.readouterr()
    _check_contract(code, captured)
    assert code == 2 and calls == []
    assert captured.err.startswith(f"error: --out {out} ")
    assert not (tmp_path / "absent").exists()


# Any --format but csv and json, values argparse takes for flags among them.
_FORMATS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["CSV", "Json", "csv ", "xml", "-x", "--json", "c"]),
).filter(lambda fmt: fmt not in ("csv", "json"))


@_CONTRACT
@given(fmt=_FORMATS)
@example(fmt="")
@example(fmt="-1")
def test_format_contract(capsys, fmt):
    # argparse refuses it: exit 2, its usage, then one error: line, before any work
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_zonal_3j_squares", _no_work_spy(calls))
        with pytest.raises(SystemExit) as exc:
            main(["avg-l4", "--k-max", "8", "--format", fmt])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and calls == []
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.rstrip("\n").split("\n")
    assert lines[0].startswith("usage: spherelab avg-l4 ")
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert lines[-1].startswith("spherelab avg-l4: error: argument --format: ")


# --out names: printable ones, NUL and line breaks among them, and names at and
# past the usual 255-byte file-name limit.
_OUT_NAMES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/"), min_size=1,
            max_size=10),
    st.integers(250, 300).map(lambda n: "x" * n),
)


@_CONTRACT
@given(
    where=st.sampled_from(["directory", "missing-directory", "file-as-directory", "itself"]),
    name=_OUT_NAMES,
    slash=st.booleans(),
    fmt=st.sampled_from(["csv", "json"]),
)
@example(where="directory", name="x" * 256, slash=False, fmt="csv")  # over the name limit
@example(where="directory", name="run.csv", slash=True, fmt="csv")  # a trailing slash
@example(where="directory", name="a\nb", slash=False, fmt="json")
@example(where="missing-directory", name="a\nb", slash=False, fmt="csv")
@example(where="directory", name="a\x00b", slash=False, fmt="csv")
@example(where="itself", name=".", slash=False, fmt="csv")
def test_out_path_contract(capsys, tmp_path, where, name, slash, fmt):
    # The run writes the path, or exits 2 with one error: --out line before any
    # work and leaves nothing behind; a refused path is one that open() refuses too.
    root = tempfile.mkdtemp(dir=tmp_path)
    if where == "file-as-directory":
        open(os.path.join(root, "file"), "w").close()
    parent = {"directory": root, "missing-directory": os.path.join(root, "absent"),
              "file-as-directory": os.path.join(root, "file"), "itself": root}[where]
    out = parent if where == "itself" else os.path.join(parent, name)
    out += "/" if slash else ""
    before = sorted(os.listdir(root))
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_zonal_3j_squares", _no_work_spy(calls))
        code = main(["avg-l4", "--k-max", "8", "--out", out, "--format", fmt])
    captured = capsys.readouterr()
    _check_contract(code, captured)
    if code == 0:
        assert calls == [8] and os.path.isfile(out) and os.path.getsize(out) > 0
        return
    assert code == 2 and calls == []
    assert captured.err.startswith("error: --out ")
    assert sorted(os.listdir(root)) == before
    with pytest.raises((OSError, ValueError)):
        open(out, "w").close()


@_CONTRACT
@given(seed=st.one_of(st.integers(-(2**70), 2**70), st.integers(-2, 2)))
def test_verify_seed_contract(capsys, seed):
    code = main(["verify", "--k-max", "2", "--points", "2", "--seed", str(seed)])
    captured = capsys.readouterr()
    _check_contract(code, captured)
    assert code == (0 if seed >= 0 else 2)
    if seed < 0:
        assert captured.err == f"error: seed must be a non-negative int, got {seed}\n"


# Exponents from below 1 to large, and the non-finite and overflowing edges.
_EXPONENTS = st.one_of(
    st.floats(-10.0, 40.0),
    st.sampled_from([1e300, 1e308, -1e308, math.inf, -math.inf]),
)


@_CONTRACT
@given(k=st.integers(-3, 12), m=st.one_of(st.none(), st.integers(-14, 14)), q=_EXPONENTS)
@example(k=4, m=None, q=1e308)  # q k overflows the band rule
@example(k=4, m=2, q=math.inf)
@example(k=4, m=None, q=0.0)
@example(k=4, m=-3, q=-3.0)
def test_norms_order_and_exponent_contract(capsys, k, m, q):
    argv = ["norms", "--k", str(k), f"--q={q!r}"] + ([] if m is None else ["--m", str(m)])
    code = main(argv)
    captured = capsys.readouterr()
    _check_contract(code, captured)
    assert code != 1  # norms has no gate
    if k >= 0 and (m is None or abs(m) <= k) and (q == math.inf or 1.0 <= q <= 40.0):
        assert code == 0
    if k == 4 and q == 1e308 and (m is None or abs(m) <= k):  # the order is checked first
        assert "--q" in captured.err


@_CONTRACT
@given(family=st.sampled_from(["zonal", "highest-weight"]), q=_EXPONENTS)
@example(family="highest-weight", q=1e308)
@example(family="zonal", q=math.inf)
@example(family="highest-weight", q=0.0)
@example(family="highest-weight", q=-3.0)
def test_scaling_exponent_contract(capsys, family, q):
    code = main(["scaling", "--family", family, f"--q={q!r}", "--k-min", "4", "--k-max", "32"])
    captured = capsys.readouterr()
    _check_contract(code, captured)
    if q < 2.0 or q in (1e300, 1e308):
        assert code == 2
    if q == 1e308:
        assert "--q" in captured.err


def test_beams_greedy_placement_short_of_the_clamp_is_usage_error(capsys):
    # 40 beams are within the clamp packing_bound(0.316) // 2 = 40, but the
    # greedy placement cannot reach them
    code = main(["beams", "--k", "64", "--delta", "0.316", "--j", "40"])
    captured = capsys.readouterr()
    _check_contract(code, captured)
    assert code == 2
    assert "greedy search exhausted" in captured.err


@_CONTRACT
@given(
    k=st.integers(0, 16),
    j=st.one_of(st.none(), st.integers(-2, 40)),
    exponent=st.one_of(st.none(), st.floats(-0.5, 1.5)),
    delta=st.one_of(st.floats(0.25, 2.0), st.floats(-1.0, 4e-3)),
    method=st.sampled_from(["symmetric", "sequential"]),
)
@example(k=16, j=None, exponent=None, delta=0.5, method="symmetric")
@example(k=8, j=16, exponent=None, delta=0.5, method="symmetric")  # ill-conditioned
@example(k=0, j=5, exponent=None, delta=0.25, method="sequential")  # rank one
@example(k=16, j=None, exponent=0.0, delta=0.25, method="symmetric")
@example(k=4, j=2, exponent=0.5, delta=1.0, method="symmetric")
@example(k=4, j=None, exponent=1.5, delta=1.0, method="symmetric")
# below the smallest separation, refused before any lattice is built
@example(k=4, j=None, exponent=None, delta=1e-3, method="symmetric")
@example(k=4, j=None, exponent=None, delta=1e-10, method="symmetric")
@example(k=4, j=None, exponent=None, delta=1e-300, method="symmetric")
@example(k=4, j=None, exponent=None, delta=1.6, method="symmetric")  # above pi/2
def test_beams_flag_contract(capsys, k, j, exponent, delta, method):
    argv = ["beams", "--k", str(k), f"--delta={delta!r}", "--method", method]
    argv += [] if j is None else ["--j", str(j)]
    argv += [] if exponent is None else [f"--exponent={exponent!r}"]
    code = main(argv)
    captured = capsys.readouterr()
    _check_contract(code, captured)
    if j is not None and exponent is not None:
        assert code == 2 and "not both" in captured.err
    elif j is not None and j < 1:
        assert code == 2 and "beam count" in captured.err
    elif exponent is not None and not 0.0 <= exponent <= 1.0:
        assert code == 2 and "exponent" in captured.err
    elif not delta >= _MIN_SEPARATION:  # nan included
        assert code == 2 and "separation must lie in" in captured.err
        assert f"more than {_MAX_LATTICE_AXES} lattice axes" in captured.err
    elif delta > math.pi / 2 + 1e-12:
        assert code == 2 and "separation must lie in" in captured.err
        assert "lattice" not in captured.err
    elif code == 2:
        # a valid count that the degree or the packing cannot carry
        assert "Gram" in captured.err or "axes" in captured.err, captured.err


@_CONTRACT
@given(k_min=st.integers(-3, 64), k_max=st.integers(-3, 64))
@example(k_min=1, k_max=8)  # the envelope starts at k = 2
@example(k_min=2, k_max=2)
def test_pointwise_degree_range_contract(capsys, k_min, k_max):
    code = main(["pointwise", "--k-min", str(k_min), "--k-max", str(k_max)])
    _check_contract(code, capsys.readouterr())
    assert (code == 2) == (k_min < 2 or k_max < k_min)


_POINTWISE_MAX_DEGREE = MAX_GRID_POINTS // 402 - 1  # a (402, k+1) envelope table


@pytest.mark.parametrize("k", [_POINTWISE_MAX_DEGREE, _POINTWISE_MAX_DEGREE + 1, 10**20])
def test_pointwise_refuses_an_envelope_table_beyond_the_grid_cap(capsys, k):
    seen = []

    def spy(degree, t, p):  # stands in for the table, 400 MB at the cap
        seen.append(degree)
        return np.ones(len(t))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "ell_p_profile", spy)
        code = main(["pointwise", "--k-min", str(k), "--k-max", str(k)])
    captured = capsys.readouterr()
    _check_contract(code, captured)
    if k <= _POINTWISE_MAX_DEGREE:
        assert seen == [k]
    else:
        assert code == 2 and seen == []
        assert captured.err.startswith("error: pointwise envelope table would need ")
        assert f"cap is {MAX_GRID_POINTS}" in captured.err
        assert f"degrees above {_POINTWISE_MAX_DEGREE} are refused" in captured.err


def test_avg_l4_refusal_counts_the_digits_of_a_long_degree(capsys):
    huge = str(10**300)
    code = main(["avg-l4", "--k-min", huge, "--k-max", huge])
    captured = capsys.readouterr()
    _check_contract(code, captured)
    assert code == 2
    assert captured.err == (f"error: avg-l4 degrees must lie in 0..{AVERAGE_L4_MAX_DEGREE} "
                            "(AVERAGE_L4_MAX_DEGREE), got a 301-digit degree\n")


@_CONTRACT
@given(cs=st.lists(st.floats(-2.0, 1e308), min_size=1, max_size=3))
@example(cs=[0.0])  # the whole sphere: the gate fails
@example(cs=[1e308])  # the threshold overflows to inf: an empty set
@example(cs=[-1e-300, 1.0])
def test_superlevel_threshold_contract(capsys, cs):
    argv = ["superlevel", "--k-min", "4", "--k-max", "8"] + [f"--c={c!r}" for c in cs]
    code = main(argv)
    _check_contract(code, capsys.readouterr())
    assert (code == 2) == (min(cs) < 0.0)


@_CONTRACT
@given(k_min=st.integers(-3, 16), k_max=st.integers(-3, 16))
@example(k_min=1, k_max=16)
@example(k_min=0, k_max=1)
def test_tube_ratio_degree_range_contract(capsys, k_min, k_max):
    code = main(["tube-ratio", "--k-min", str(k_min), "--k-max", str(k_max)])
    _check_contract(code, capsys.readouterr())
    assert (code == 2) == (k_min < 1 or k_max < k_min)


@_CONTRACT
@given(k_min=st.integers(-3, 64), k_max=st.integers(-3, 64))
@example(k_min=1, k_max=8)  # four degrees whose fit misses its target: exit 1
@example(k_min=1, k_max=4)  # three degrees are too few for a fit
@example(k_min=0, k_max=8)
def test_scaling_degree_range_contract(capsys, k_min, k_max):
    code = main(["scaling", "--k-min", str(k_min), "--k-max", str(k_max)])
    _check_contract(code, capsys.readouterr())
    # the doubling sweep k_min, 2 k_min, ... <= k_max needs four degrees
    assert (code == 2) == (k_min < 1 or k_max < 8 * k_min)


@_CONTRACT
@given(k_min=st.integers(-3, 64), k_max=st.integers(-3, 64))
@example(k_min=0, k_max=16)
@example(k_min=1, k_max=1)
def test_superlevel_degree_range_contract(capsys, k_min, k_max):
    code = main(["superlevel", "--k-min", str(k_min), "--k-max", str(k_max)])
    _check_contract(code, capsys.readouterr())
    assert (code == 2) == (k_min < 1 or k_max < k_min)


@_CONTRACT
@given(
    k_min=st.one_of(st.none(), st.integers(-3, 64)),
    k_max=st.one_of(st.none(), st.integers(-3, 64)),
    seed=st.one_of(st.integers(-2, 2), st.integers(2**62, 2**70)),
)
@example(k_min=1, k_max=4, seed=-1)
@example(k_min=None, k_max=4, seed=0)  # a range end without its start
@example(k_min=2, k_max=1, seed=0)
@example(k_min=1, k_max=64, seed=0)
def test_beams_degree_range_and_seed_contract(capsys, k_min, k_max, seed):
    argv = ["beams", "--seed", str(seed)]
    argv += [] if k_min is None else ["--k-min", str(k_min)]
    argv += [] if k_max is None else ["--k-max", str(k_max)]
    code = main(argv)
    _check_contract(code, capsys.readouterr())
    if k_min is None:
        valid = k_max is None  # the default single degree
    else:
        valid = 1 <= k_min <= (k_min if k_max is None else k_max)
    assert (code == 2) == (not valid or seed < 0)


@_CONTRACT
@given(
    k=st.integers(-2, 4),
    trials=st.integers(-2, 20),
    seed=st.one_of(st.integers(-2, 2), st.integers(2**62, 2**70)),
)
@example(k=0, trials=2, seed=0)
@example(k=4, trials=1, seed=0)  # one trial has no standard error
@example(k=-1, trials=2, seed=0)
def test_random_onb_contract(capsys, k, trials, seed):
    argv = ["random-onb", "--k", str(k), "--trials", str(trials), "--seed", str(seed)]
    code = main(argv)
    _check_contract(code, capsys.readouterr())
    assert (code == 2) == (k < 0 or trials < 2 or seed < 0)


@_CONTRACT
@given(k_max=st.one_of(st.integers(-2, 6), st.just(1025)), points=st.integers(-2, 5))
@example(k_max=1, points=1)
@example(k_max=0, points=2)
@example(k_max=1025, points=1)  # beyond the upward sweep's range
@example(k_max=2, points=0)
def test_verify_size_contract(capsys, k_max, points):
    code = main(["verify", "--k-max", str(k_max), "--points", str(points)])
    _check_contract(code, capsys.readouterr())
    assert code == (0 if 1 <= k_max <= 1024 and points >= 1 else 2)


# One line per subcommand whose degree is beyond the double range; the
# refusal names the first flag given.
_HUGE_DEGREE = "9" * 320
_OVERFLOW_RUNS = {
    "norms": ["norms", "--k", _HUGE_DEGREE],
    "tube-ratio": ["tube-ratio", "--k-min", _HUGE_DEGREE, "--k-max", _HUGE_DEGREE],
    "random-onb": ["random-onb", "--k", _HUGE_DEGREE],
    "beams": ["beams", "--k", _HUGE_DEGREE],
    "superlevel": ["superlevel", "--k-min", _HUGE_DEGREE, "--k-max", _HUGE_DEGREE],
    "pointwise": ["pointwise", "--k-min", _HUGE_DEGREE, "--k-max", _HUGE_DEGREE],
}


@pytest.mark.parametrize("command", sorted(_OVERFLOW_RUNS))
def test_degree_beyond_the_double_range_is_usage_error(capsys, command):
    argv = _OVERFLOW_RUNS[command]
    code = main(argv)
    captured = capsys.readouterr()
    _check_contract(code, captured)
    assert code == 2
    assert captured.err.startswith(f"error: {argv[1]} is beyond the double range")


def test_tube_ratio_refuses_the_grid_before_lambda_overflows(capsys):
    # k (k + 1) leaves the double range from k ~ 1e154 on, far below the flag check
    huge = str(10**200)
    code = main(["tube-ratio", "--k-min", huge, "--k-max", huge])
    captured = capsys.readouterr()
    _check_contract(code, captured)
    assert code == 2
    assert captured.err.startswith("error: grid would need ")


@pytest.mark.parametrize(
    "argv",
    [
        ["beams", "--k", "8", "--j", "16", "--delta", "0.5"],
        ["beams", "--k", "4", "--j", "9", "--delta", "0.35"],
    ],
)
def test_ill_conditioned_beam_family_names_the_gram_condition(capsys, argv):
    # the Gram spectrum clears the 1e-10 floor, but not by enough for an
    # orthonormal result in double precision
    code = main(argv)
    captured = capsys.readouterr()
    _check_contract(code, captured)
    assert code == 2
    assert captured.err.startswith("error: Gram condition number ")


# Small runs of every subcommand with --oversample; each passes its gates at
# oversample 1 and 1.5.
_OVERSAMPLE_RUNS = {
    "norms": ["norms", "--k", "8"],
    "scaling": ["scaling", "--k-min", "4", "--k-max", "32"],
    "superlevel": ["superlevel", "--k-min", "16", "--k-max", "32"],
    "tube-ratio": ["tube-ratio", "--k-min", "8", "--k-max", "8"],
}


@pytest.mark.parametrize("oversample", ["1", "1.5", "1e300", "1e308"])
@pytest.mark.parametrize("command", sorted(_OVERSAMPLE_RUNS))
def test_oversample_contract(capsys, command, oversample):
    # a grid count beyond a double is refused with its %.3g form, never formed as an int
    code = main(_OVERSAMPLE_RUNS[command] + ["--oversample", oversample])
    captured = capsys.readouterr()
    _check_contract(code, captured)
    if float(oversample) < 2.0:
        assert code == 0
    else:
        assert code == 2
        assert captured.err == "error: grid would need inf points, cap is 50000000\n"


@pytest.mark.parametrize(
    "argv, reason",
    [
        # the band q k / 4 fits a double, the band's grid count does not
        (["norms", "--k", "1", "--q", "1e308"], "grid would need inf points"),
        # |Q_4|^2000 and |Z_0|^1000 underflow to zero on every ring
        (["norms", "--k", "4", "--q", "2000"], "q = 2000 is out of range"),
        (["norms", "--k", "0", "--q", "1000"], "q = 1000 is out of range"),
    ],
)
def test_out_of_range_runs_exit_2_with_one_short_error_line(capsys, argv, reason):
    code = main(argv)
    captured = capsys.readouterr()
    _check_contract(code, captured)
    assert code == 2
    assert reason in captured.err and len(captured.err) < 200


@pytest.mark.parametrize(
    "k, qs, code",
    [
        (4, ["2000"], 2),
        (4, ["4", "2000"], 2),  # no grid for the q that runs either
        (0, ["1000"], 2),
        # the largest integer q that ran before the check still runs
        (4, ["867"], 0),
        (0, ["561"], 0),
    ],
)
def test_norms_refuses_an_underflowing_q_before_any_grid(capsys, k, qs, code):
    built = []
    build_grid = experiments.build_grid

    def spy(band, oversample):
        built.append(band)
        return build_grid(band, oversample)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "build_grid", spy)
        got = main(["norms", "--k", str(k)] + [f"--q={q}" for q in qs])
    captured = capsys.readouterr()
    _check_contract(got, captured)
    assert got == code
    if code == 2:
        assert built == []
        assert f"q = {qs[-1]} is out of range" in captured.err
    else:
        assert built == [max(k, math.ceil(int(qs[0]) * k / 4))]


@pytest.mark.parametrize(
    "family, q, reason",
    [
        # |Q_4|^2000 underflows at the first degree; its band-2000 rule took a second
        ("highest-weight", "2000", "q = 2000 is out of range: the integral of |Q_4|^q"),
        # the band-16000 grid of k = 32 is over the cap; k = 4, 8 and 16 were built first
        ("zonal", "2000", "grid would need 1.28e+08 points"),
    ],
)
def test_scaling_refuses_a_hopeless_q_before_any_grid(capsys, family, q, reason):
    built = []
    build_grid = experiments.build_grid

    def spy(band, oversample):
        built.append(band)
        return build_grid(band, oversample)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "build_grid", spy)
        code = main(["scaling", "--family", family, "--q", q, "--k-min", "4", "--k-max", "32"])
    captured = capsys.readouterr()
    _check_contract(code, captured)
    assert code == 2 and built == []
    assert reason in captured.err


@pytest.mark.parametrize("command", ["norms", "beams", "random-onb"])
def test_negative_degree_names_the_flag(capsys, command):
    code = main([command, "--k", "-1"])
    captured = capsys.readouterr()
    _check_contract(code, captured)
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --k must be >= 0\n"
