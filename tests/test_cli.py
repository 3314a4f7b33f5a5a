import contextlib
import io
import json
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbl.cli import run
from dbl.fixtures import chain_space, glued_pairs
from dbl.spaces import FiniteSpace


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = run(argv)
    out, err = capsys.readouterr()
    report = json.loads(out)
    return code, report, err


def test_mahler_pairing_command(capsys):
    code, report, err = run_cli(capsys, ["mahler", "--pairing", "--max", "12"])
    assert code == 0
    assert report["schema"] == "2"
    assert report["status"] == "pass"
    assert report["verdicts"][0]["cases"] == 169
    assert "[PASS]" in err


def test_quiet_suppresses_summary(capsys):
    code, report, err = run_cli(capsys, ["--quiet", "mahler", "--pairing"])
    assert code == 0 and err == ""


def test_cech_exhaustive_small(capsys):
    code, report, _ = run_cli(
        capsys,
        ["cech", "--exhaustive", "--max-points", "3", "--max-sets", "2", "--ring", "IntInf"],
    )
    assert code == 0
    assert report["verdicts"][0]["pass"]


def test_cech_json_input(capsys, monkeypatch):
    payload = {
        "space": {"points": 3, "opens": [[], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]},
        "family": [[0, 1], [1, 2]],
        "ring": "IntInf",
    }
    code, report, _ = run_cli(
        capsys, ["cech"], stdin_text=json.dumps(payload), monkeypatch=monkeypatch
    )
    assert code == 0
    assert report["verdicts"][0]["exact"]


def test_space_command(capsys, monkeypatch):
    payload = {"space": glued_pairs().to_json()}
    code, report, _ = run_cli(
        capsys, ["space"], stdin_text=json.dumps(payload), monkeypatch=monkeypatch
    )
    assert code == 0
    v = report["verdicts"][0]
    assert v["banaschewski_points"] == 2
    assert v["quasi_components"] == [[0, 1], [2, 3]]
    assert v["basis"] == [[0, 1], [2, 3]]


@pytest.mark.parametrize("argv", [["space"], ["spectrum", "--ring", "IntInf"], ["cech"]])
@pytest.mark.parametrize(
    "space", [FiniteSpace.discrete(32), chain_space(32)], ids=["discrete", "chain"]
)
def test_commands_answer_at_32_points(capsys, monkeypatch, argv, space):
    # the whole space and the closed half {16..31} cover either space
    payload = {"space": space.to_json(), "family": [list(range(32)), list(range(16, 32))]}
    started = time.perf_counter()
    code, report, _ = run_cli(
        capsys, argv, stdin_text=json.dumps(payload), monkeypatch=monkeypatch
    )
    assert time.perf_counter() - started < 2
    assert code == 0
    v = report["verdicts"][0]
    if argv == ["space"]:
        assert v["points"] == 32 and v["basis"] == payload["space"]["opens"]
    elif argv[0] == "spectrum":
        assert v["space_components"] == len(space.quasi_components)
    else:
        assert v["exact"] and v["space"] == payload["space"]


def test_sw_command_default_trace(capsys, monkeypatch):
    code, report, _ = run_cli(capsys, ["sw"], stdin_text="", monkeypatch=monkeypatch)
    assert code == 0
    v = report["verdicts"][0]
    assert v["a_U"] == 16 and v["evaluation"] == [0, 16, 0]


def test_sw_command_json_input(capsys, monkeypatch):
    payload = {
        "space": {"points": 2, "opens": [[], [0], [1], [0, 1]]},
        "gens": [[0, 3]],
        "clopen": [1],
    }
    code, report, _ = run_cli(
        capsys, ["sw"], stdin_text=json.dumps(payload), monkeypatch=monkeypatch
    )
    assert code == 0
    assert report["verdicts"][0]["a_U"] == 9


def test_sw_non_separating_exits_2(capsys, monkeypatch):
    payload = {
        "space": {"points": 2, "opens": [[], [0], [1], [0, 1]]},
        "gens": [[1, 1]],
        "clopen": [1],
    }
    code, report, _ = run_cli(
        capsys, ["sw"], stdin_text=json.dumps(payload), monkeypatch=monkeypatch
    )
    assert code == 2
    assert report["error"].startswith("NonSeparating")


def discrete_sw_request(n: int, gen: list) -> str:
    space = {"points": n, "opens": [[x] for x in range(n)]}
    return json.dumps({"space": space, "gens": [gen], "clopen": [1]})


@pytest.mark.parametrize(
    "n, gen",
    [
        (8, [10**600 * i + i for i in range(8)]),
        (32, [i * 10**4 for i in range(32)]),
        (32, [i * 10**4000 + i for i in range(32)]),
    ],
    ids=["8-points-600-digits", "32-points-5-digits", "32-points-4000-digits"],
)
def test_sw_scale_past_the_digit_limit_exits_2_quickly(capsys, monkeypatch, n, gen):
    # a_U would have more digits than int-to-str conversion allows
    monkeypatch.setattr("sys.stdin", io.StringIO(discrete_sw_request(n, gen)))
    started = time.perf_counter()
    code = run(["--quiet", "sw"])
    assert time.perf_counter() - started < 2.0
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out)["error"].startswith("SizeExceeded")


def test_sw_scale_under_the_digit_limit_answers(capsys, monkeypatch):
    code, report, _ = run_cli(
        capsys, ["sw"], stdin_text=discrete_sw_request(32, list(range(32))), monkeypatch=monkeypatch
    )
    v = report["verdicts"][0]
    assert code == 0 and v["pass"] and len(str(v["a_U"])) == 1427
    assert v["evaluation"] == [v["a_U"] if x == 1 else 0 for x in range(32)]


SIERPINSKI = {"points": 2, "opens": [[], [1], [0, 1]]}


@pytest.mark.parametrize(
    "command, request_, error",
    [
        # {0} is closed but not open in the Sierpinski space
        ("sw", {"space": SIERPINSKI, "gens": [[1, 1]], "clopen": [0]}, "NotClopen"),
        # a generator that is not constant on the quasi-component {0, 1}
        ("sw", {"space": SIERPINSKI, "gens": [[0, 1]], "clopen": [0, 1]}, "SpaceMismatch"),
        # a family set with a point outside the space
        ("cech", {"space": {"points": 2, "opens": [[0], [1]]}, "family": [[0, 1, -3]]}, "ValueError"),
        # one value for a space of two points
        ("sw", {"space": SIERPINSKI, "gens": [[1]], "ring": "IntInf"}, "SpaceMismatch"),
    ],
)
def test_input_errors_exit_2(capsys, monkeypatch, command, request_, error):
    code, report, _ = run_cli(
        capsys, [command], stdin_text=json.dumps(request_), monkeypatch=monkeypatch
    )
    assert code == 2
    assert report["error"].startswith(error)


def test_bad_ring_exits_2(capsys):
    code, report, _ = run_cli(capsys, ["spectrum", "--ring", "NumberField(7)"])
    assert code == 2
    assert "error" in report


@pytest.mark.parametrize(
    "ring, code",
    [
        (f"FpTriv({2**61 - 1})", 2),
        (f"ZmodTriv({2**61 - 1})", 2),
        (f"ZmodQuot({1000000007 * 998244353})", 2),
        ("FpTriv(4294967291)", 0),
    ],
)
def test_ring_moduli_above_the_cap_exit_2_quickly(capsys, monkeypatch, ring, code):
    request_ = {"space": TWO_POINTS, "family": [[0], [1]], "ring": ring}
    started = time.perf_counter()
    got, report, _ = run_cli(
        capsys, ["cech"], stdin_text=json.dumps(request_), monkeypatch=monkeypatch
    )
    assert time.perf_counter() - started < 1.0
    assert got == code
    if code == 2:
        assert report["error"].startswith("UnsupportedRing")
    else:
        assert report["verdicts"][0]["pass"]


@pytest.mark.parametrize(
    "ring, code", [("FpTriv(65521)", 0), ("FpTriv(1000003)", 2), ("FpTriv(4294967291)", 2)]
)
def test_spectrum_rings_above_max_elements_exit_2_quickly(capsys, monkeypatch, ring, code):
    started = time.perf_counter()
    got, report, _ = run_cli(
        capsys, ["spectrum", "--ring", ring], stdin_text="", monkeypatch=monkeypatch
    )
    assert got == code
    if code == 2:
        assert time.perf_counter() - started < 1.0
        assert report["error"].startswith("SizeExceeded")
    else:
        assert report["verdicts"][0]["recovered_classes"] == [0, 1]


def test_malformed_json_exits_2(capsys, monkeypatch):
    code, report, _ = run_cli(
        capsys, ["cech"], stdin_text="{not json", monkeypatch=monkeypatch
    )
    assert code == 2
    # no request at all is an input error too, not a property violation
    code, report, _ = run_cli(capsys, ["cech"], stdin_text="", monkeypatch=monkeypatch)
    assert code == 2
    assert report["error"] == "ValueError: cech needs JSON input or --exhaustive"


def test_spectrum_command(capsys, monkeypatch):
    code, report, _ = run_cli(
        capsys,
        ["spectrum", "--ring", "IntInf"],
        stdin_text="",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert report["verdicts"][0]["space_components"] == 2


def test_spectrum_disconnected_ring_exits_2(capsys, monkeypatch):
    code, report, _ = run_cli(
        capsys,
        ["spectrum", "--ring", "ZmodTriv(6)"],
        stdin_text="",
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert report["error"].startswith("DisconnectedSpectrum")


def test_spectrum_reads_the_request_ring(capsys, monkeypatch):
    # the request's "ring" wins over --ring, as for cech and sw
    request_ = {"space": TWO_POINTS, "ring": "ZmodTriv(6)"}
    code, report, _ = run_cli(
        capsys, ["spectrum"], stdin_text=json.dumps(request_), monkeypatch=monkeypatch
    )
    assert code == 2
    assert report["error"].startswith("DisconnectedSpectrum")
    request_ = {"space": TWO_POINTS, "ring": {"kind": "IntInf"}}
    code, report, _ = run_cli(
        capsys,
        ["spectrum", "--ring", "ZmodTriv(6)"],
        stdin_text=json.dumps(request_),
        monkeypatch=monkeypatch,
    )
    assert code == 0  # under ZmodTriv(6) it would exit 2


@pytest.mark.parametrize("ring", [{"kind": "IntInf", "p": 7}, {"kind": "FpTriv", "p": 7, "n": 3}])
def test_ring_with_a_parameter_its_kind_does_not_use_exits_2(capsys, monkeypatch, ring):
    request_ = {"space": TWO_POINTS, "family": [[0], [1]], "ring": ring}
    code, report, _ = run_cli(
        capsys, ["cech"], stdin_text=json.dumps(request_), monkeypatch=monkeypatch
    )
    assert code == 2
    assert report["error"].startswith("UnsupportedRing")


def test_cech_non_embedding_family_exits_2(capsys, monkeypatch):
    # {0, 2} has two quasi-components inside the one quasi-component of the
    # 3-point chain: the family is outside the theorem's hypotheses
    request_ = {"space": {"points": 3, "opens": [[0, 1], [1, 2]]}, "family": [[0, 2]]}
    code, report, _ = run_cli(
        capsys, ["cech"], stdin_text=json.dumps(request_), monkeypatch=monkeypatch
    )
    assert code == 2
    assert report["error"] == (
        "NotEmbedding: inclusion of [0, 2] merges quasi-components (0, 1)"
    )


NINES = "9" * 4300  # the most digits str() and int() convert by default


@pytest.mark.parametrize(
    "argv, error",
    [
        (["mahler", "--pairing", "--max", "128"], None),
        (["mahler", "--pairing", "--max", "129"], "SizeExceeded"),
        (["mahler", "--pairing", "--max", "-5"], "ValueError"),
        (["mahler", "--coeffs", ",".join(["7"] * 1024)], None),
        (["mahler", "--coeffs", ",".join(["7"] * 1025)], "SizeExceeded"),
        (["basis", "--seeds", "100"], None),
        (["basis", "--seeds", "101"], "SizeExceeded"),
        (["basis", "--seeds", "-1"], "ValueError"),
        (["tensor", "--max-n", "31"], None),
        (["tensor", "--max-n", "32"], "SizeExceeded"),
        (["tensor", "--max-n", "-1"], "ValueError"),
        # each value has 4300 digits, but a_1 = -2 * value has 4301
        (["mahler", "--coeffs", f"{NINES},-{NINES}"], "SizeExceeded"),
        (["mahler", "--coeffs", ",".join([NINES, "-" + NINES] * 512)], "SizeExceeded"),
    ],
)
def test_mahler_and_basis_answer_within_their_caps(capsys, argv, error):
    started = time.perf_counter()
    code, report, _ = run_cli(capsys, argv)
    seconds = time.perf_counter() - started
    if error is None:
        assert code == 0 and seconds < 2.0
    else:
        assert code == 2 and report["error"].startswith(error) and seconds < 1.0


def test_basis_command(capsys):
    code, report, _ = run_cli(capsys, ["basis", "--p", "2", "--k", "2"])
    assert code == 0
    v = report["verdicts"][0]
    assert v["det"] in (1, -1)
    assert v["family"]["clopens"] == [[0, 1, 2, 3], [1, 3], [2], [3]]


def test_basis_command_at_25_points(capsys):
    code, report, _ = run_cli(capsys, ["basis", "--p", "5", "--k", "2"])
    assert code == 0
    assert report["verdicts"][0]["det"] == 1


def test_space_command_rejects_non_object_exits_2(capsys, monkeypatch):
    code, report, _ = run_cli(
        capsys, ["space"], stdin_text="[1,2]", monkeypatch=monkeypatch
    )
    assert code == 2
    assert report["error"].startswith("ValueError")


@pytest.mark.parametrize("command", ["spectrum", "cech", "sw"])
def test_non_object_request_exits_2(capsys, monkeypatch, command):
    code, report, _ = run_cli(
        capsys, [command], stdin_text="[1]", monkeypatch=monkeypatch
    )
    assert code == 2
    assert report["error"].startswith("ValueError")


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--p", "3", "--k", "30000000"], "SizeExceeded"),
        (["--p", "2", "--k", "-1"], "ValueError"),
    ],
)
def test_basis_level_out_of_range_exits_2(capsys, argv, error):
    code, report, _ = run_cli(capsys, ["basis", *argv])
    assert code == 2
    assert report["error"].startswith(error)


@pytest.mark.parametrize("given, missing", [("--p", "--k"), ("--k", "--p")])
def test_basis_level_needs_both_flags(capsys, given, missing):
    code, report, _ = run_cli(capsys, ["basis", given, "2"])
    assert code == 2 and report["error"] == f"ValueError: {given} needs {missing}"


def test_mahler_pairing_and_coeffs_exclude_each_other(capsys):
    assert run(["mahler", "--pairing", "--coeffs", "1,2,4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument --pairing" in err


def test_mahler_coeffs_command(capsys):
    code, report, _ = run_cli(capsys, ["mahler", "--coeffs", "0,1,4,9"])
    assert code == 0
    assert report["verdicts"][0]["coefficients"] == [0, 1, 2, 0]


def test_tensor_command(capsys):
    code, report, _ = run_cli(capsys, ["tensor", "--max-n", "4"])
    assert code == 0
    assert report["verdicts"][0]["growth_cases"] == 4


def test_reports_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, ["mahler", "--pairing"])
    _, second, _ = run_cli(capsys, ["mahler", "--pairing"])
    first.pop("elapsed_s")
    second.pop("elapsed_s")
    assert first == second


# every command's default report, and a small cech request with a witness:
# case id -> (argv, stdin)
PINNED = {
    "space": (["space"], ""),
    "spectrum": (["spectrum"], ""),
    "cech": (
        ["cech"],
        json.dumps({"space": glued_pairs().to_json(), "family": [[0, 1]], "ring": "IntInf"}),
    ),
    "cech-exhaustive": (["cech", "--exhaustive"], ""),
    "tensor": (["tensor"], ""),
    "basis": (["basis"], ""),
    "basis-p2-k2": (["basis", "--p", "2", "--k", "2"], ""),
    "mahler": (["mahler"], ""),
    "mahler-pairing": (["mahler", "--pairing"], ""),
    "mahler-coeffs": (["mahler", "--coeffs", "1,2,3"], ""),
    "sw": (["sw"], ""),
    "suite": (["suite"], ""),
}
PINNED_REPORTS = Path(__file__).parent / "data" / "cli_reports.json"


@pytest.mark.parametrize("case", PINNED)
def test_reports_match_the_pinned_ones(capsys, monkeypatch, case):
    # the pinned file holds each report without elapsed_s, in print order;
    # a change that means to alter a report edits its entry there
    argv, stdin_text = PINNED[case]
    code, report, _ = run_cli(capsys, argv, stdin_text, monkeypatch)
    assert code == 0
    report.pop("elapsed_s")
    want = json.loads(PINNED_REPORTS.read_text(encoding="utf-8"))[case]
    assert json.dumps(report, indent=2) == json.dumps(want, indent=2)


def test_cech_exhaustive_case_count(capsys):
    code, report, _ = run_cli(
        capsys,
        ["cech", "--exhaustive", "--max-points", "2", "--max-sets", "2", "--ring", "IntInf"],
    )
    assert code == 0
    assert report["verdicts"][0]["cases"] == 13  # 3 families on 1 point + 10 on 2


@pytest.mark.parametrize(
    "points, sets, error",
    [
        ("7", "3", "SizeExceeded"),  # 3 * 399,669 cases
        ("1000000000", "1", "SizeExceeded"),
        ("2", "1000000000", None),  # 3 + 15 families: none has more than 4 sets
        ("13", "1", None),  # over IntInf: 16,382 cases, under the case cap
        ("-3", "0", "ValueError"),
        ("0", "3", "ValueError"),
        ("4", "0", "ValueError"),
    ],
)
def test_cech_exhaustive_is_bounded_before_it_runs(capsys, points, sets, error):
    argv = ["cech", "--exhaustive", "--max-points", points, "--max-sets", sets]
    cases, seconds = (16_382, 5.0) if points == "13" else (3 * 18, 1.0)
    if points == "13":
        argv += ["--ring", "IntInf"]
    started = time.perf_counter()
    code, report, _ = run_cli(capsys, argv)
    assert time.perf_counter() - started < seconds
    if error is None:
        assert code == 0 and report["verdicts"][0]["cases"] == cases
    else:
        assert code == 2 and report["error"].startswith(error)


def test_cech_request_without_ring_uses_int_inf(capsys, monkeypatch):
    payload = {
        "space": {"points": 2, "opens": [[], [0], [1], [0, 1]]},
        "family": [[0]],
    }
    code, report, _ = run_cli(
        capsys, ["cech"], stdin_text=json.dumps(payload), monkeypatch=monkeypatch
    )
    assert code == 0
    v = report["verdicts"][0]
    assert v["ring"] == "IntInf" and not v["exact"]


TWO_POINTS = {"points": 2, "opens": [[], [0], [1], [0, 1]]}


@pytest.mark.parametrize(
    "command, request_",
    [
        ("cech", {"space": TWO_POINTS, "family": 5, "ring": "IntInf"}),
        ("cech", {"space": TWO_POINTS, "family": [0, 1], "ring": "IntInf"}),
        ("cech", {"space": TWO_POINTS, "family": [[0]], "ring": 5}),
        ("cech", {"space": TWO_POINTS, "family": [[0]], "ring": {"kind": "FpTriv", "p": "3"}}),
        ("sw", {"space": TWO_POINTS, "gens": 5, "clopen": [1]}),
        ("sw", {"space": TWO_POINTS, "gens": [["0", 3]], "clopen": [1]}),
        ("sw", {"space": TWO_POINTS, "gens": [[0, 3]], "clopen": 1}),
        ("sw", {"space": TWO_POINTS, "gens": [[0, 3]], "clopen": [[1]]}),
    ],
)
def test_request_fields_of_the_wrong_type_exit_2(capsys, monkeypatch, command, request_):
    code, report, _ = run_cli(
        capsys, [command], stdin_text=json.dumps(request_), monkeypatch=monkeypatch
    )
    assert code == 2
    assert report["error"].startswith("ValueError")


# -- fuzzing -------------------------------------------------------------------

any_json = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=6),
    ),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.dictionaries(st.text(max_size=6), kids, max_size=4)
    ),
    max_leaves=10,
)
point_lists = st.lists(st.integers(min_value=0, max_value=5), max_size=6)
ring_names = ["IntInf", "IntTriv", "FpTriv(2)", "ZmodTriv(4)", "ZmodQuot(6)"]
spaces_json = st.one_of(
    st.sampled_from([SIERPINSKI, TWO_POINTS, glued_pairs().to_json()]),
    st.fixed_dictionaries(
        {"points": st.integers(min_value=0, max_value=6), "opens": st.lists(point_lists, max_size=5)}
    ),
)
# The fields of a well-formed request to each command.
command_fields = {
    "space": {"space": spaces_json},
    "spectrum": {"space": spaces_json},
    "cech": {
        "space": spaces_json,
        "family": st.lists(point_lists, min_size=1, max_size=3),
        "ring": st.sampled_from(ring_names),
    },
    "sw": {
        "space": spaces_json,
        "gens": st.lists(point_lists, min_size=1, max_size=3),
        "clopen": point_lists,
        "ring": st.sampled_from(ring_names),
    },
}
moduli = st.one_of(st.integers(-2, 9), st.integers(10, 2**64))
bad_fields = st.one_of(
    any_json,
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["IntInf", "FpTriv", "ZmodTriv", "ZmodQuot", "Q"])},
        optional={"p": moduli, "n": moduli},
    ),
    st.sampled_from(["FpTriv(4)", "Q", "ZmodTriv(0)", "ZmodQuot(-1)"]),
)


@st.composite
def cli_calls(draw):
    """argv and stdin for space, spectrum, cech or sw: a well-formed call
    (its values still arbitrary) with at most one part of it spoilt; or a
    small cech --exhaustive sweep over any ring name, good or bad."""
    if draw(st.integers(0, 4)) == 0:
        argv = ["cech", "--exhaustive", "--max-points", str(draw(st.integers(1, 3)))]
        argv += ["--max-sets", str(draw(st.integers(1, 2)))]
        if draw(st.booleans()):
            argv += ["--ring", draw(st.sampled_from([*ring_names, "all", "FpTriv(4)", "Q"]))]
        return argv, ""
    command = draw(st.sampled_from(sorted(command_fields)))
    fields = command_fields[command]
    request = {k: draw(strategy) for k, strategy in fields.items()}
    argv = [command]
    spoil = draw(st.sampled_from(["none", "drop", "field", "request", "text", "argv"]))
    if spoil == "drop":
        del request[draw(st.sampled_from(sorted(request)))]
    elif spoil == "field":
        request[draw(st.sampled_from(sorted(request)))] = draw(bad_fields)
    elif spoil == "request":
        request = draw(any_json)
    elif spoil == "argv":
        extra = ["--quiet", "--json", "--bogus", "--ring", "--k", "x", *ring_names]
        argv += draw(st.lists(st.sampled_from(extra), min_size=1, max_size=2))
    text = draw(st.text(max_size=20)) if spoil == "text" else json.dumps(request)
    return argv, text


@given(cli_calls())
@settings(max_examples=300, deadline=None)
def test_cli_answers_any_request_quickly(call):
    argv, stdin_text = call
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with mock.patch("sys.stdin", io.StringIO(stdin_text)), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        code = run(argv)
    assert time.perf_counter() - started < 2.0
    assert code in ((0, 2) if "--exhaustive" in argv else (0, 1, 2))
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue())
