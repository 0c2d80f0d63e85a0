import json
import math
from pathlib import Path

import pytest

from obcast import broadcast, cli, discrimination, moe, qpv
from obcast.cli import main
from obcast.ensembles import (
    GopEnsemble,
    PostInfoEnsemble,
    from_json_dict,
    gallery,
    gallery_names,
    gen_bb84_angle,
    to_json_dict,
)
from obcast.errors import InternalInconsistency, SolverFailure
from obcast.reproduce import run_reproduce


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gallery_listing(capsys):
    code, out, _ = run(capsys, "gallery")
    assert code == 0
    assert "bb84" in out and "thm1-pairs" in out and "gen-bb84(<theta>)" in out


def test_gallery_dump_round_trips(capsys):
    code, out, _ = run(capsys, "gallery", "prop1-povm")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "povm"


def test_gallery_unknown_name(capsys):
    code, _, err = run(capsys, "gallery", "nope")
    assert code == 1
    assert "unknown gallery name" in err


def test_bound_postinfo(capsys):
    code, out, _ = run(capsys, "bound", "--gallery", "bb84", "--method", "postinfo")
    assert code == 0
    record = json.loads(out)
    assert record["computed"] == pytest.approx((2 + math.sqrt(2)) / 4, abs=1e-6)
    assert record["gap"] <= 1e-7


def test_bound_postinfo_below_one_for_three_settings(capsys):
    code, out, _ = run(capsys, "bound", "--gallery", "thm1-pairs", "--method", "postinfo")
    assert code == 0
    assert json.loads(out)["computed"] < 1


def test_bound_disk(capsys):
    code, out, _ = run(capsys, "bound", "--gallery", "obb", "--method", "disk")
    assert code == 0
    record = json.loads(out)
    assert record["computed"] == pytest.approx(0.603553, abs=1e-6)
    assert record["certificate"] == "analytic"


def test_bound_thm4_and_prop4(capsys):
    code, out, _ = run(capsys, "bound", "--gallery", "gen-bb84(pi/2)", "--method", "thm4")
    assert code == 0
    assert json.loads(out)["computed"] == pytest.approx((2 - math.sqrt(2)) / 4, abs=1e-9)
    code, out, _ = run(capsys, "bound", "--gallery", "bb84", "--method", "prop4")
    assert code == 0
    assert json.loads(out)["computed"] == pytest.approx((2 + math.sqrt(2)) / 4, abs=1e-6)


def test_bound_unsupported_combination(capsys):
    code, _, err = run(capsys, "bound", "--gallery", "bb84", "--method", "disk")
    assert code == 1 and "disk" in err


METHODS = ("postinfo", "thm4", "prop4", "disk", "moe")
# the fixed gallery names and the rotated family at four angles
ENTRIES = tuple(n for n in gallery_names() if "<" not in n) + tuple(
    f"gen-bb84({theta})" for theta in ("0.1", "pi/3", "pi/2", "1.5707963267948966")
)

# every (method, entry) pair that ``bound`` serves, with the record it prints
BOUND_RECORDS = {
    ("disk", "obb"): '{"certificate": "analytic", "computed": 0.6035533905932737, "id": "disk:obb"}',
    ("disk", "qq"): '{"certificate": "analytic", "computed": 0.7803300858899106, "id": "disk:qq"}',
    ("disk", "qq-tilde"): '{"certificate": "analytic", "computed": 0.7803300858899106, "id": "disk:qq-tilde"}',
    ("moe", "bb84"): '{"certificate": "exact", "computed": 0.8535533905932737, "id": "moe:bb84"}',
    ("moe", "gen-bb84(1.5707963267948966)"): (
        '{"certificate": "exact", "computed": 0.8535533905932737, "id": "moe:gen-bb84(1.5707963267948966)"}'
    ),
    ("moe", "gen-bb84(pi/2)"): '{"certificate": "exact", "computed": 0.8535533905932737, "id": "moe:gen-bb84(pi/2)"}',
    ("moe", "obb"): '{"certificate": "exact", "computed": 1.0000000000000002, "id": "moe:obb"}',
    ("postinfo", "bb84"): (
        '{"certificate": "dual-certified", "computed": 0.8535532989364552, "gap": 9.165681857936647e-08, '
        '"id": "postinfo:bb84"}'
    ),
    ("postinfo", "cor4-six"): (
        '{"certificate": "dual-certified", "computed": 0.9330126993378958, "gap": 3.4057646702834177e-09, '
        '"id": "postinfo:cor4-six"}'
    ),
    ("postinfo", "cq"): (
        '{"certificate": "dual-certified", "computed": 0.8535533804107354, "gap": 1.30916351093191e-08, '
        '"id": "postinfo:cq"}'
    ),
    ("postinfo", "gen-bb84(0.1)"): (
        '{"certificate": "dual-certified", "computed": 0.9993751281905614, "gap": 2.006921739905465e-09, '
        '"id": "postinfo:gen-bb84(0.1)"}'
    ),
    ("postinfo", "gen-bb84(1.5707963267948966)"): (
        '{"certificate": "dual-certified", "computed": 0.8535532989364549, "gap": 9.165681880141108e-08, '
        '"id": "postinfo:gen-bb84(1.5707963267948966)"}'
    ),
    ("postinfo", "gen-bb84(pi/2)"): (
        '{"certificate": "dual-certified", "computed": 0.8535532989364549, "gap": 9.165681880141108e-08, '
        '"id": "postinfo:gen-bb84(pi/2)"}'
    ),
    ("postinfo", "gen-bb84(pi/3)"): (
        '{"certificate": "dual-certified", "computed": 0.9330126841105599, "gap": 1.778165947818877e-08, '
        '"id": "postinfo:gen-bb84(pi/3)"}'
    ),
    ("postinfo", "minimal-qutrit"): (
        '{"certificate": "dual-certified", "computed": 0.9999999359886957, "gap": 6.401130470123917e-08, '
        '"id": "postinfo:minimal-qutrit"}'
    ),
    ("postinfo", "obb"): (
        '{"certificate": "dual-certified", "computed": 0.8342793169550935, "gap": 1.472509847388892e-08, '
        '"id": "postinfo:obb"}'
    ),
    ("postinfo", "thm1-pairs"): (
        '{"certificate": "dual-certified", "computed": 0.9330126993378958, "gap": 2.5543234194458364e-09, '
        '"id": "postinfo:thm1-pairs"}'
    ),
    ("postinfo", "thm2-eight"): (
        '{"certificate": "dual-certified", "computed": 0.9497594837025856, "gap": 7.119430467383836e-08, '
        '"id": "postinfo:thm2-eight"}'
    ),
    ("prop4", "bb84"): '{"certificate": "heuristic", "computed": 0.853553390593274, "id": "prop4:bb84"}',
    ("prop4", "gen-bb84(0.1)"): '{"certificate": "heuristic", "computed": 0.9993751301974831, "id": "prop4:gen-bb84(0.1)"}',
    ("prop4", "gen-bb84(1.5707963267948966)"): (
        '{"certificate": "heuristic", "computed": 0.853553390593274, "id": "prop4:gen-bb84(1.5707963267948966)"}'
    ),
    ("prop4", "gen-bb84(pi/2)"): '{"certificate": "heuristic", "computed": 0.853553390593274, "id": "prop4:gen-bb84(pi/2)"}',
    ("prop4", "gen-bb84(pi/3)"): '{"certificate": "heuristic", "computed": 0.9330127018922194, "id": "prop4:gen-bb84(pi/3)"}',
    ("thm4", "bb84"): '{"certificate": "analytic", "computed": 0.14644660946214572, "id": "thm4:bb84"}',
    ("thm4", "gen-bb84(0.1)"): '{"certificate": "analytic", "computed": 0.00042946357280015945, "id": "thm4:gen-bb84(0.1)"}',
    ("thm4", "gen-bb84(1.5707963267948966)"): (
        '{"certificate": "analytic", "computed": 0.14644660946214572, "id": "thm4:gen-bb84(1.5707963267948966)"}'
    ),
    ("thm4", "gen-bb84(pi/2)"): '{"certificate": "analytic", "computed": 0.14644660946214572, "id": "thm4:gen-bb84(pi/2)"}',
    ("thm4", "gen-bb84(pi/3)"): '{"certificate": "analytic", "computed": 0.05409709381638095, "id": "thm4:gen-bb84(pi/3)"}',
    ("thm4", "shifts"): '{"certificate": "analytic", "computed": 0.0002782088704407215, "id": "thm4:shifts"}',
}


@pytest.mark.parametrize("method, name", sorted(BOUND_RECORDS))
def test_bound_prints_the_reference_record_of_each_served_pair(capsys, method, name):
    assert run(capsys, "bound", "--gallery", name, "--method", method) == (0, BOUND_RECORDS[method, name] + "\n", "")


@pytest.mark.parametrize("method", METHODS)
def test_every_pair_bound_does_not_serve_is_an_input_error(capsys, method):
    for name in ENTRIES:
        if (method, name) in BOUND_RECORDS:
            continue
        code, out, err = run(capsys, "bound", "--gallery", name, "--method", method)
        assert (code, out) == (1, ""), name
        if method == "postinfo":  # every entry has the route; these have no post-information view
            no_classical_side = "error: no classical side to reduce on; provide a post-information ensemble\n"
            assert err == _NOT_AN_ENSEMBLE.get(name, no_classical_side)
        else:
            assert err == f"error: no {method} bound is known for {name!r}\n"


@pytest.mark.parametrize("theta", ["0.1", "pi/3"])
def test_the_game_route_serves_the_rotated_family_only_at_pi_over_2(capsys, theta):
    name = f"gen-bb84({theta})"
    code, out, err = run(capsys, "bound", "--gallery", name, "--method", "moe")
    assert (code, out) == (1, "")
    assert err == f"error: no moe bound is known for {name!r}\n"
    # the two-basis game value is no bound here: an explicit attack and the certified value both beat it
    game = moe.classical_copy_permutation_bound(moe.game_bb84())
    assert qpv.breidbart_lower(gen_bb84_angle(name)) > game
    code, out, _ = run(capsys, "bound", "--gallery", name, "--method", "postinfo")
    assert code == 0 and json.loads(out)["computed"] > game
    code, out, _ = run(capsys, "bound", "--gallery", "gen-bb84(pi/2)", "--method", "moe")
    assert code == 0 and json.loads(out)["computed"] == game
    code, out, _ = run(capsys, "bound", "--gallery", "bb84", "--method", "moe")
    assert code == 0 and json.loads(out)["computed"] == game


def test_bound_from_file(tmp_path, capsys):
    path = tmp_path / "bb84.json"
    path.write_text(json.dumps(to_json_dict(gallery("bb84"))))
    code, out, _ = run(capsys, "bound", "--file", str(path), "--method", "postinfo")
    assert code == 0
    assert json.loads(out)["computed"] == pytest.approx((2 + math.sqrt(2)) / 4, abs=1e-6)


REPOSITORY = Path(__file__).parent.parent
SIX_BASES = Path("tests/data/qubit-six-bases.json")  # 64 answer rows on a qubit, from the repository root
QUQUART = Path("tests/data/ququart-five-settings.json")  # 1,024 answer rows on d = 4, from the repository root

# the record ``bound --method postinfo`` prints for each file of more than 2 d^2 rows, run from the repository root
FILE_RECORDS = {
    (SIX_BASES, "1e-7"): (
        '{"certificate": "dual-certified", "computed": 0.8219752636831233, "gap": 2.1295952001842977e-08, '
        '"id": "postinfo:tests/data/qubit-six-bases.json"}'
    ),
    (SIX_BASES, "1e-12"): (
        '{"certificate": "dual-certified", "computed": 0.8219752754296895, "gap": 6.227240945122503e-13, '
        '"id": "postinfo:tests/data/qubit-six-bases.json"}'
    ),
    (QUQUART, "1e-7"): (
        '{"certificate": "dual-certified", "computed": 0.7132679742241844, "gap": 1.8634137233242143e-08, '
        '"id": "postinfo:tests/data/ququart-five-settings.json"}'
    ),
    (QUQUART, "1e-10"): (
        '{"certificate": "dual-certified", "computed": 0.7132679919591364, "gap": 2.7830182602883724e-11, '
        '"id": "postinfo:tests/data/ququart-five-settings.json"}'
    ),
}


def test_a_file_of_more_than_two_d_squared_rows_is_certified_on_a_grown_working_set(barrier_rounds, monkeypatch, capsys):
    monkeypatch.chdir(REPOSITORY)
    records = []
    for tol in ("1e-7", "1e-12"):
        barrier_rounds.clear()
        code, out, err = run(capsys, "bound", "--file", str(SIX_BASES), "--method", "postinfo", "--tol-gap", tol)
        assert (code, out, err) == (0, FILE_RECORDS[SIX_BASES, tol] + "\n", "")
        records.append(json.loads(out))
        assert records[-1]["certificate"] == "dual-certified" and records[-1]["gap"] <= float(tol)
        assert barrier_rounds == [(1, 8), (1, 12)]  # the first working set misses rows, so a second round runs
    loose, tight = records
    assert tight["computed"] <= loose["computed"] + loose["gap"] + 1e-12
    assert loose["computed"] <= tight["computed"] + tight["gap"] + 1e-12


def test_a_file_of_a_thousand_rows_validates_at_both_gaps(monkeypatch, capsys):
    # five Haar-random orthonormal bases of C^4 (numpy default_rng(23)) at a uniform prior
    monkeypatch.chdir(REPOSITORY)
    ens = from_json_dict(json.loads(QUQUART.read_text()))
    target = discrimination.merged_row_targets(ens)
    assert len(target.operators) == 1024 and target.dim == 4
    records = []
    for tol in ("1e-7", "1e-10"):
        code, out, err = run(capsys, "bound", "--file", str(QUQUART), "--method", "postinfo", "--tol-gap", tol)
        assert (code, out, err) == (0, FILE_RECORDS[QUQUART, tol] + "\n", "")
        records.append(json.loads(out))
        assert records[-1]["certificate"] == "dual-certified" and records[-1]["gap"] <= float(tol)
        result = discrimination.p_postinfo(ens, discrimination.SolverSettings(gap_tol=float(tol)))
        result.certificate.validate(target, result.povm, gap_tol=float(tol))
        assert (result.value, result.certificate.gap) == (records[-1]["computed"], records[-1]["gap"])
    loose, tight = records
    assert tight["computed"] <= loose["computed"] + loose["gap"] + 1e-12
    assert loose["computed"] <= tight["computed"] + tight["gap"] + 1e-12


SLOW_FIXED_POINT = Path(__file__).parent / "data" / "qubit-slow-fixed-point.json"  # four rows on a qubit


def test_a_small_file_whose_fixed_point_map_runs_out_is_certified_by_the_barrier(barrier_rounds, capsys):
    # trial 1554 of the seed-42 brute-force draws: the map alone ends at a gap of 4.7e-7 after 100,000 iterations,
    # so the barrier takes over once the stream's budget of STREAM_BUDGET iterations is spent
    code, out, err = run(capsys, "bound", "--file", str(SLOW_FIXED_POINT), "--method", "postinfo")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["certificate"] == "dual-certified" and record["gap"] == 2.1018260909499986e-08 <= 1e-7
    assert record["computed"] == 0.9956300372336087
    assert barrier_rounds == [(1, 4)]


SIXTY_FOUR = Path(__file__).parent / "data" / "qubit-64-settings.json"  # 2^64 answer rows on a qubit
CQ_SWAPPED = Path(__file__).parent / "data" / "cq-swapped.json"  # the gallery's cq set with its factors swapped


def first_settings(count: int) -> dict:
    """The document of ``SIXTY_FOUR``'s first ``count`` settings, with a uniform prior."""
    payload = json.loads(SIXTY_FOUR.read_text())
    for key in ("settings", "states"):
        payload[key] = payload[key][:count]
    payload["prior"] = [[1 / (2 * count)] * 2 for _ in range(count)]
    return payload


@pytest.mark.parametrize("count", [13, 24, 63, 64])
def test_more_answer_rows_than_the_cap_is_an_input_error_before_any_is_listed(tmp_path, capsys, count):
    # the count is exact: a numpy product of 64 twos is 0 and of 63 is -2^63, and 2^24 kill patterns take minutes
    path = str(SIXTY_FOUR) if count == 64 else _write(tmp_path, first_settings(count))
    message = f"error: index-set product {2**count} exceeds {discrimination.MAX_ROW_TARGETS}\n"
    for argv in (("check", "--file", path), ("bound", "--file", path, "--method", "postinfo")):
        assert run(capsys, *argv) == (1, "", message)


def test_the_row_cap_admits_its_own_count_of_kill_patterns():
    ens = from_json_dict(first_settings(12))
    assert len(broadcast.kill_pattern_certificate(ens).kernel_dims) == 2**12 == discrimination.MAX_ROW_TARGETS



@pytest.mark.parametrize("file_name, entry", [("shifts", "bb84"), ("obb", "obb")])
def test_a_file_reaches_the_postinfo_route_only_whatever_its_path(tmp_path, monkeypatch, capsys, file_name, entry):
    monkeypatch.chdir(tmp_path)  # the path is then the bare gallery name
    path = file_name
    (tmp_path / file_name).write_text(json.dumps(to_json_dict(gallery(entry))))
    for method in METHODS:
        if method != "postinfo":  # the other routes take gallery names, and a path names none
            assert run(capsys, "bound", "--file", path, "--method", method) == (
                1,
                "",
                f"error: no {method} bound is known for {path!r}\n",
            )
    code, out, err = run(capsys, "bound", "--file", path, "--method", "postinfo")
    assert (code, err) == (0, "")
    assert json.loads(out) == {**json.loads(BOUND_RECORDS["postinfo", entry]), "id": f"postinfo:{path}"}

def test_check_feasible_gallery(capsys):
    code, out, _ = run(capsys, "check", "--gallery", "minimal-qutrit")
    assert code == 0
    assert "inconclusive" in out
    assert "feasible" in out


def test_check_six_state_set(capsys):
    code, out, _ = run(capsys, "check", "--gallery", "cor4-six")
    assert code == 0
    assert "quantum-communication protocol (cor4-isometry): verified" in out
    assert "infeasible" in out


def test_check_three_setting_pairs(capsys):
    code, out, _ = run(capsys, "check", "--gallery", "thm1-pairs")
    assert code == 0
    assert "thm1-isometry): verified" in out
    assert "kill-pattern certificate: infeasible" in out


# two product states on the same first factor whose second factors overlap by 1/sqrt(2)
VIOLATING = {
    "kind": "gop",
    "dims": [2, 2],
    "prior": [0.5, 0.5],
    "states": [
        [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        [[[1.0, 0.0], [0.0, 0.0]], [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]],
    ],
}


def test_check_flags_orthogonality_violation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(VIOLATING))
    code, out, _ = run(capsys, "check", "--file", str(path))
    assert code == 3
    assert out == "orthogonality: VIOLATED at pair (0, 1) (deviation 7.071e-01)\n"


def test_a_document_with_several_faults_reports_the_first_the_constructor_finds(tmp_path, capsys):
    # bound reports the violation as an input error; check reports it as a failed check
    path = _write(tmp_path, VIOLATING)
    message = "error: not globally orthogonal: pair (0, 1) deviates by 7.071e-01\n"
    assert run(capsys, "bound", "--file", path, "--method", "postinfo") == (1, "", message)
    # the prior is checked before orthogonality, so a bad prior is an input error under both commands
    path = _write(tmp_path, {**VIOLATING, "prior": [0.5, 0.6]})
    for argv in (("check", "--file", path), ("bound", "--file", path, "--method", "postinfo")):
        assert run(capsys, *argv) == (1, "", "error: prior sums to 1.1, not 1\n")


# the gallery product sets with exactly one classical factor
ONE_CLASSICAL_FACTOR = ("thm2-eight", "cor4-six", "obb", "cq", "gen-bb84(0.1)", "gen-bb84(pi/2)")


def swapped(name: str) -> dict:
    """The document of the gallery product set ``name`` with the two factors of every state swapped."""
    payload = to_json_dict(gallery(name))
    return {**payload, "dims": payload["dims"][::-1], "states": [[b, a] for a, b in payload["states"]]}


@pytest.mark.parametrize("name", ONE_CLASSICAL_FACTOR)
def test_check_and_bound_reduce_a_swapped_set_on_its_classical_factor(tmp_path, capsys, name):
    path = _write(tmp_path, swapped(name))

    def factor_free(text):
        # the form line reads the first factor, and a protocol is routed by gallery name, which a file has not
        return [line for line in text.splitlines() if not line.startswith(("qubit-qudit form:", "quantum-communication"))]

    code, out, err = run(capsys, "check", "--file", path)
    assert (code, err) == (0, "")
    assert factor_free(out) == factor_free(CHECK_OUTPUT[name]) and len(factor_free(out)) == 3
    code, out, err = run(capsys, "bound", "--file", path, "--method", "postinfo")
    assert (code, err) == (0, "")
    assert json.loads(out) == {**json.loads(BOUND_RECORDS["postinfo", name]), "id": f"postinfo:{path}"}


def test_the_checked_in_swapped_cq_file_checks_as_the_gallery_set(capsys):
    code, out, err = run(capsys, "check", "--file", str(CQ_SWAPPED))
    assert (code, out, err) == (0, CHECK_OUTPUT["cq"], "")
    assert json.loads(run(capsys, "bound", "--file", str(CQ_SWAPPED), "--method", "postinfo")[1]) == {
        **json.loads(BOUND_RECORDS["postinfo", "cq"]),
        "id": f"postinfo:{CQ_SWAPPED}",
    }
    assert json.loads(CQ_SWAPPED.read_text()) == swapped("cq")


@pytest.mark.parametrize("document", ["[1, 2]", "3", '"gop"', "null"])
def test_a_document_that_is_not_a_json_object_is_an_input_error(tmp_path, capsys, document):
    path = tmp_path / "ensemble.json"
    path.write_text(document)
    for argv in (("check", "--file", str(path)), ("bound", "--file", str(path), "--method", "postinfo")):
        assert run(capsys, *argv) == (1, "", "error: an ensemble document must be a JSON object\n")


def test_check_builds_the_kill_pattern_certificate_once(monkeypatch, capsys):
    calls = []
    certificate = broadcast.kill_pattern_certificate

    def counted(ensemble):
        calls.append(ensemble)
        return certificate(ensemble)

    monkeypatch.setattr(broadcast, "kill_pattern_certificate", counted)
    for name in ("cq", "gen-bb84(0.1)", "thm2-eight"):
        calls.clear()
        assert run(capsys, "check", "--gallery", name) == (0, CHECK_OUTPUT[name], "")
        assert len(calls) == 1, name


def _second_setting_emptied() -> dict:
    """``bb84`` without the states of its second setting, its whole prior on the first."""
    payload = to_json_dict(gallery("bb84"))
    payload["states"][1] = []
    payload["prior"] = [[0.5, 0.5], []]
    return payload


EMPTY = {
    "postinfo-without-settings": (
        {"kind": "postinfo", "dims": [2], "settings": [], "prior": [], "states": []},
        "post-information ensemble has no settings",
    ),
    "postinfo-setting-without-states": (_second_setting_emptied(), "setting '1' has no states"),
    "gop-without-states": ({"kind": "gop", "dims": [2, 2], "prior": [], "states": []}, "product ensemble has no states"),
}


@pytest.mark.parametrize("case", sorted(EMPTY))
def test_an_empty_ensemble_is_an_input_error_that_names_what_is_empty(tmp_path, capsys, case):
    payload, message = EMPTY[case]
    path = _write(tmp_path, payload)
    for argv in (("check", "--file", path), ("bound", "--file", path, "--method", "postinfo")):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")



@pytest.mark.parametrize("side", [0, 1])
def test_check_rejects_factor_kets_of_unequal_length_by_field(tmp_path, capsys, side):
    payload = to_json_dict(gallery("obb"))
    n = len(payload["states"][0][side])
    payload["states"][1][side].append([0.0, 0.0])  # one amplitude more than the first pair's ket
    code, out, err = run(capsys, "check", "--file", _write(tmp_path, payload))
    factor = ("first", "second")[side]
    assert (code, out) == (1, "")
    assert err == f"error: malformed 'states' field of a gop document: {factor} factor kets differ in length: [{n}, {n + 1}]\n"

_ORTHOGONAL = "orthogonality: ok (max deviation 2.220e-16)\n"
_BB84_TAIL = (
    "qubit-qudit form: fits\n"
    "kill-pattern certificate: infeasible (4 patterns, all kernels trivial)\n"
    "classical broadcast: infeasible (optimal value 0.853553299 < 1)\n"
)
_NO_CLASSICAL_SIDE = "classical reduction: no classical side; stopping at the form check\n"
# the input error of ``check`` and ``bound --method postinfo`` on each gallery entry that is no ensemble
_NOT_AN_ENSEMBLE = {
    name: f"error: {type(obj).__name__} is not an ensemble; provide a post-information or product ensemble\n"
    for name in ENTRIES
    if not isinstance(obj := gallery(name), (GopEnsemble, PostInfoEnsemble))
}
# the text ``check`` prints for each gallery entry it accepts
CHECK_OUTPUT = {
    "bb84": (
        "kill-pattern certificate: infeasible (4 patterns, all kernels trivial)\n"
        "classical broadcast: infeasible (optimal value 0.853553299 < 1)\n"
    ),
    "cor4-six": _ORTHOGONAL
    + "qubit-qudit form: first factor has dimension 3, not 2\n"
    "quantum-communication protocol (cor4-isometry): verified\n"
    "kill-pattern certificate: infeasible (8 patterns, all kernels trivial)\n"
    "classical broadcast: infeasible (optimal value 0.933012699 < 1)\n",
    "cq": _ORTHOGONAL
    + "qubit-qudit form: first factor has dimension 3, not 2\n"
    "kill-pattern certificate: infeasible (12 patterns, all kernels trivial)\n"
    "classical broadcast: infeasible (optimal value 0.871153736 < 1)\n",
    "gen-bb84(0.1)": "orthogonality: ok (max deviation 1.015e-16)\n"
    "qubit-qudit form: fits\n"
    "kill-pattern certificate: infeasible (4 patterns, all kernels trivial)\n"
    "classical broadcast: infeasible (optimal value 0.999375128 < 1)\n",
    "gen-bb84(1.5707963267948966)": "orthogonality: ok (max deviation 1.997e-16)\n" + _BB84_TAIL,
    "gen-bb84(pi/2)": "orthogonality: ok (max deviation 1.997e-16)\n" + _BB84_TAIL,
    "gen-bb84(pi/3)": "orthogonality: ok (max deviation 6.295e-17)\n"
    "qubit-qudit form: fits\n"
    "kill-pattern certificate: infeasible (4 patterns, all kernels trivial)\n"
    "classical broadcast: infeasible (optimal value 0.933012684 < 1)\n",
    "minimal-qutrit": (
        "kill-pattern certificate: inconclusive (4 patterns with nontrivial kernels)\n"
        "classical broadcast: feasible (value 0.999999936, witness violation 3.20e-08)\n"
    ),
    "obb": _ORTHOGONAL
    + "qubit-qudit form: first factor has dimension 3, not 2\n"
    "kill-pattern certificate: infeasible (12 patterns, all kernels trivial)\n"
    "classical broadcast: infeasible (optimal value 0.832632440 < 1)\n",
    "qq": _ORTHOGONAL + "qubit-qudit form: first factor has dimension 3, not 2\n" + _NO_CLASSICAL_SIDE,
    "qq-tilde": _ORTHOGONAL + "qubit-qudit form: first factor has dimension 3, not 2\n" + _NO_CLASSICAL_SIDE,
    "shifts": "orthogonality: ok (max deviation 4.441e-16)\n"
    "qubit-qudit form: first factor has dimension 4, not 2\n" + _NO_CLASSICAL_SIDE,
    "thm1-pairs": (
        "quantum-communication protocol (thm1-isometry): verified\n"
        "kill-pattern certificate: infeasible (8 patterns, all kernels trivial)\n"
        "classical broadcast: infeasible (optimal value 0.933012699 < 1)\n"
    ),
    "thm2-eight": _ORTHOGONAL
    + "qubit-qudit form: first factor has dimension 5, not 2\n"
    "quantum-communication protocol (thm2-isometry): verified\n"
    "kill-pattern certificate: inconclusive (8 patterns with nontrivial kernels)\n"
    "classical broadcast: infeasible (optimal value 0.949759484 < 1)\n",
}


@pytest.mark.parametrize("name", ENTRIES)
def test_check_prints_the_reference_text_for_each_gallery_entry(capsys, name):
    if name in CHECK_OUTPUT:
        assert run(capsys, "check", "--gallery", name) == (0, CHECK_OUTPUT[name], "")
    else:
        assert run(capsys, "check", "--gallery", name) == (1, "", _NOT_AN_ENSEMBLE[name])


@pytest.mark.parametrize("name", ["thm1-isometry", "prop1-povm"])
@pytest.mark.parametrize("command", [("bound", "--method", "postinfo"), ("check",)])
def test_bound_and_check_give_one_error_for_an_object_that_is_no_ensemble(capsys, command, name):
    kind = {"thm1-isometry": "Isometry", "prop1-povm": "Povm"}[name]
    message = f"error: {kind} is not an ensemble; provide a post-information or product ensemble\n"
    assert run(capsys, command[0], "--gallery", name, *command[1:]) == (1, "", message)


def test_check_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", "--file", str(path))
    assert code == 1


def _write(tmp_path, payload) -> str:
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _scaled(payload: dict, factor: float) -> dict:
    """The document with every amplitude of every ket multiplied by ``factor``."""
    def scale(node):
        return [scale(x) for x in node] if isinstance(node, list) else factor * node

    return {**payload, "states": scale(payload["states"])}


@pytest.mark.parametrize("gallery_name", ["minimal-qutrit", "bb84"])
def test_files_with_kets_that_are_not_unit_vectors_are_input_errors(tmp_path, capsys, gallery_name):
    doubled = _write(tmp_path, _scaled(to_json_dict(gallery(gallery_name)), 2.0))
    for argv in (("bound", "--file", doubled, "--method", "postinfo"), ("check", "--file", doubled)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: state vector has squared norm 4.0")
    gop = to_json_dict(gallery("obb"))
    for k, factor in ((0, 2.0), (1, 0.5)):
        gop["states"][0][k] = [[factor * re, factor * im] for re, im in gop["states"][0][k]]
    code, out, err = run(capsys, "check", "--file", _write(tmp_path, gop))
    assert (code, out) == (1, "") and "squared norm 4.0" in err


@pytest.mark.parametrize("kind", ["postinfo", "gop"])
def test_files_with_a_non_finite_prior_are_input_errors(tmp_path, capsys, kind):
    payload = to_json_dict(gallery("bb84" if kind == "postinfo" else "obb"))
    if kind == "postinfo":
        payload["prior"][0][0] = float("nan")
    else:
        payload["prior"][0] = float("nan")
    code, out, err = run(capsys, "check", "--file", _write(tmp_path, payload))
    assert code == 1 and "classical broadcast" not in out
    assert "prior entries must be finite and nonnegative" in err


@pytest.mark.parametrize(
    "gallery_name, field",
    [("bb84", "prior"), ("bb84", "states"), ("bb84", "settings"), ("obb", "prior"), ("obb", "states")],
)
def test_documents_with_a_missing_field_are_input_errors(tmp_path, capsys, gallery_name, field):
    payload = to_json_dict(gallery(gallery_name))
    del payload[field]
    path = _write(tmp_path, payload)
    for argv in (("bound", "--file", path, "--method", "postinfo"), ("check", "--file", path)):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and repr(field) in err


def test_documents_with_a_malformed_field_are_input_errors(tmp_path, capsys):
    payload = to_json_dict(gallery("obb"))
    payload["states"][0] = [None, None]
    code, _, err = run(capsys, "check", "--file", _write(tmp_path, payload))
    assert code == 1 and "malformed 'states' field" in err


def _set(path, value):
    """An edit of a gallery document that puts ``value`` at the key or index ``path``."""
    def edit(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return edit


# values that Python's float() and complex() would take, but that are not JSON numbers or a list of strings
@pytest.mark.parametrize(
    "name, field, edit, message",
    [
        ("bb84", "settings", _set(("settings",), "01"), "expected a list of strings, got '01'"),
        ("bb84", "settings", _set(("settings", 1), 1), "expected a list of strings, got ['0', 1]"),
        ("bb84", "prior", _set(("prior", 0, 0), "0.25"), "expected a number, got '0.25'"),
        ("bb84", "prior", _set(("prior", 1, 1), True), "expected a number, got True"),
        ("bb84", "prior", _set(("prior", 0, 1), 10**400), "int too large to convert to float"),
        ("obb", "prior", _set(("prior", 2), "0.1"), "expected a number, got '0.1'"),
        ("bb84", "states", _set(("states", 0, 0, 0, 0), True), "expected a number, got True"),
        ("bb84", "states", _set(("states", 1, 0, 1, 1), "0"), "expected a number, got '0'"),
        ("obb", "states", _set(("states", 0, 1, 0, 0), False), "expected a number, got False"),
    ],
    ids=["settings-string", "settings-number", "prior-string", "prior-bool", "prior-huge", "gop-prior-string", "ket-bool", "ket-string", "gop-ket-bool"],
)
def test_a_field_that_is_not_of_its_json_type_is_an_input_error(tmp_path, capsys, name, field, edit, message):
    payload = to_json_dict(gallery(name))
    edit(payload)
    path = _write(tmp_path, payload)
    for argv in (("check", "--file", path), ("bound", "--file", path, "--method", "postinfo")):
        assert run(capsys, *argv) == (1, "", f"error: malformed {field!r} field of a {payload['kind']} document: {message}\n")


@pytest.mark.parametrize("flag", ["false", "true", 1, 0, None])
def test_an_orthogonal_flag_that_is_not_a_json_boolean_is_an_input_error(tmp_path, capsys, flag):
    payload = to_json_dict(gallery("bb84"))
    payload["orthogonal"] = flag
    path = _write(tmp_path, payload)
    for argv in (("bound", "--file", path, "--method", "postinfo"), ("check", "--file", path)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: malformed 'orthogonal' field of a postinfo document: expected true or false, got {flag!r}")


def test_an_orthogonal_flag_of_json_false_turns_the_check_off(tmp_path, capsys):
    # equal second-setting states: the set is not orthogonal, and the flag says so
    payload = to_json_dict(gallery("bb84"))
    payload["states"][1][1] = payload["states"][1][0]
    payload["orthogonal"] = False
    code, out, _ = run(capsys, "bound", "--file", _write(tmp_path, payload), "--method", "postinfo")
    assert code == 0 and json.loads(out)["computed"] == pytest.approx(0.75, abs=1e-6)


def test_moe_subcommand(capsys):
    code, out, _ = run(capsys, "moe", "--game", "obb")
    assert code == 0
    assert "overlap constant: 1.0" in out
    code, out, _ = run(capsys, "moe", "--game", "bb84")
    assert code == 0
    assert repr(0.5 * (1 + 1 / math.sqrt(2)))[:12] in out


def test_ur_test_subcommand(capsys):
    code, out, _ = run(capsys, "ur-test", "--seed", "3", "--trials", "50")
    assert code == 0
    assert "PASS" in out


def test_ur_test_prints_the_pair_soundness_case(capsys):
    code, out, _ = run(capsys, "ur-test", "--seed", "42")
    assert code == 0
    (report,) = run_reproduce(seed=42, only="prop-ur-pair-soundness")
    assert out.strip() == f"pair relation: 1000 trials, max(lhs - rhs) = {report.computed:.3e} -> PASS"


@pytest.mark.parametrize(
    "argv",
    [
        ("reproduce", "--only", "prop-ur-pair", "--trials", "0", "--out", "report.json"),
        ("reproduce", "--only", "prop-ur-pair", "--trials", "-5", "--out", "report.json"),
        ("ur-test", "--trials", "0"),
    ],
)
def test_nonpositive_trials_rejected(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "trials must be at least 1" in err
    assert "pair relation" not in out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [("reproduce", "--seed", "-1"), ("ur-test", "--seed", "-1")])
def test_negative_seed_rejected(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: seed must be non-negative, got -1\n"
    assert list(tmp_path.iterdir()) == []


def test_usage_errors(capsys):
    assert run(capsys, "bound", "--gallery", "bb84")[0] == 1  # missing --method
    assert run(capsys, "bogus")[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("moe", "--game", "obb", "--trials", "0", "--tol-gap", "5", "--seed", "-1"),
        ("moe", "--game", "bb84", "--seed", "1"),
        ("bound", "--gallery", "obb", "--method", "disk", "--trials", "-3"),
        ("bound", "--gallery", "bb84", "--method", "postinfo", "--seed", "7"),
        ("check", "--gallery", "minimal-qutrit", "--trials", "5"),
        ("ur-test", "--tol-gap", "1e-5"),
        ("ur-test", "--tol-eig", "1e-9"),
    ],
)
def test_options_a_subcommand_does_not_read_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (("bound", "--gallery", "bb84", "--method", "postinfo", "--tol-gap", "0"), "gap_tol"),
        (("bound", "--gallery", "bb84", "--method", "postinfo", "--tol-gap", "nan"), "gap_tol"),
        (("check", "--gallery", "minimal-qutrit", "--tol-eig=-1e-10"), "psd_tol"),
        (("reproduce", "--only", "bb84-postinfo", "--tol-gap", "-1", "--out", "report.json"), "gap_tol"),
    ],
)
def test_invalid_tolerances_are_usage_errors(tmp_path, monkeypatch, capsys, argv, field):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"error: {field} must be" in err
    assert list(tmp_path.iterdir()) == []


def test_environment_variables_set_no_flag(monkeypatch, capsys):
    unset = run(capsys, "ur-test", "--trials", "5")
    assert unset[0] == 0
    assert run(capsys, "ur-test", "--trials", "5", "--seed", "7") != unset  # the seed shows in the output
    for value in ("abc", "7"):
        monkeypatch.setenv("OBCAST_SEED", value)
        assert run(capsys, "ur-test", "--trials", "5") == unset


def test_solver_failure_is_an_internal_error(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise SolverFailure("no certificate")

    monkeypatch.setattr(cli, "p_postinfo", fail)
    code, out, err = run(capsys, "bound", "--gallery", "bb84", "--method", "postinfo")
    assert code == 2
    assert out == ""
    assert "internal error: no certificate" in err


def test_internal_inconsistency_is_an_internal_error(monkeypatch, capsys):
    def disagree(*args, **kwargs):
        raise InternalInconsistency("routes disagree")

    monkeypatch.setattr(broadcast, "perfect_classical_broadcast_decision", disagree)
    code, _, err = run(capsys, "check", "--gallery", "minimal-qutrit")
    assert code == 2
    assert "internal error: routes disagree" in err


def test_an_infeasible_disk_point_is_an_internal_error(monkeypatch, capsys):
    # past the fixed point a variable exceeds the cap its partner allows
    monkeypatch.setattr(qpv, "DISK_FIXED_POINT", 0.9)
    code, out, err = run(capsys, "bound", "--gallery", "obb", "--method", "disk")
    assert code == 2
    assert out == ""
    assert "internal error: symmetric point infeasible (slack -1.000e-01)" in err


@pytest.mark.parametrize("name", ["minimal-qutrit", "bb84", "thm1-pairs", "obb", "cq"])
def test_postinfo_at_zero_eigenvalue_tolerance_allows_rounding(capsys, name):
    code, out, err = run(capsys, "bound", "--gallery", name, "--method", "postinfo", "--tol-eig", "0")
    assert code == 0, err
    assert json.loads(out)["certificate"] == "dual-certified"


def test_reproduce_subset_json_and_csv(tmp_path, capsys):
    out_json = tmp_path / "r.json"
    code, stdout, _ = run(
        capsys,
        "reproduce",
        "--only",
        "prop1",
        "--out",
        str(out_json),
        "--seed",
        "42",
    )
    assert code == 0
    records = json.loads(out_json.read_text())
    assert {r["id"] for r in records} == {"prop1-outcome-table", "prop1-povm-spectra", "prop1-povm-sum"}
    assert all(r["pass"] for r in records)
    assert "PASS prop1-povm-sum" in stdout

    out_csv = tmp_path / "r.csv"
    code, _, _ = run(
        capsys,
        "reproduce",
        "--only",
        "prop1",
        "--format",
        "csv",
        "--out",
        str(out_csv),
        "--quiet",
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("id,paper_ref,computed")
    assert len(lines) == 1 + len(records)


def test_an_only_filter_that_selects_no_case_is_an_input_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (("--out", "none.json"), ("--quiet",)):
        code, out, err = run(capsys, "reproduce", "--only", "no-such-case", *argv)
        assert (code, out) == (1, "")
        assert err == "error: --only 'no-such-case' selects no case\n"
    assert list(tmp_path.iterdir()) == []


def test_an_out_path_that_cannot_be_written_fails_before_the_report_is_computed(tmp_path, monkeypatch, capsys):
    def refused(*args, **kwargs):
        raise AssertionError("run_reproduce ran for an --out path that cannot be written")

    monkeypatch.setattr(cli, "run_reproduce", refused)
    missing = tmp_path / "no" / "such" / "r.json"
    code, out, err = run(capsys, "reproduce", "--only", "prop-postinfo-bruteforce", "--trials", "2000", "--out", str(missing))
    assert (code, out, err) == (1, "", f"error: --out {missing}: no directory {missing.parent}\n")
    code, out, err = run(capsys, "reproduce", "--quiet", "--out", str(tmp_path))
    assert (code, out, err) == (1, "", f"error: --out {tmp_path} is a directory\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("theta", ["pi/0", "3*pi/0.0", "inf", "-inf", "nan", "1e400"])
def test_a_gen_bb84_angle_that_is_not_a_finite_number_is_an_input_error(capsys, theta):
    message = f"error: angle {theta!r} is not a finite number\n"
    assert run(capsys, "bound", "--gallery", f"gen-bb84({theta})", "--method", "thm4") == (1, "", message)


@pytest.mark.parametrize("theta", ["1e5", "1e8", "3.2", "-0.1", "2*pi"])
def test_a_gen_bb84_angle_outside_zero_to_pi_is_an_input_error(capsys, theta):
    # at 1e5 the set was built, then failed its own orthogonality check: theta - pi rounds
    message = f"error: angle {theta!r} is outside [0, pi]\n"
    for method in ("postinfo", "thm4", "prop4"):
        assert run(capsys, "bound", "--gallery", f"gen-bb84({theta})", "--method", method) == (1, "", message)
    assert run(capsys, "check", "--gallery", f"gen-bb84({theta})") == (1, "", message)


def test_the_ends_of_the_gen_bb84_domain_are_served(capsys):
    for theta in ("0", "pi"):
        code, out, err = run(capsys, "bound", "--gallery", f"gen-bb84({theta})", "--method", "postinfo")
        assert (code, err) == (0, "") and json.loads(out)["certificate"] == "dual-certified"


def test_reproduce_seed_determinism_on_a_random_case(tmp_path, capsys):
    paths = []
    for k in range(2):
        out = tmp_path / f"t{k}.json"
        code, _, _ = run(
            capsys,
            "reproduce",
            "--only",
            "moe-transpose",
            "--seed",
            "7",
            "--out",
            str(out),
            "--quiet",
        )
        assert code == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_feasibility_is_decided_at_the_gap_in_force(tmp_path, capsys):
    out = tmp_path / "loose.json"
    code, stdout, _ = run(
        capsys, "reproduce", "--only", "minimal-qutrit-feasible", "--tol-gap", "1e-5", "--out", str(out)
    )
    assert code == 0
    assert "PASS minimal-qutrit-feasible" in stdout
    [record] = json.loads(out.read_text())
    assert record["tolerance"] == pytest.approx(1e-5)


@pytest.mark.parametrize(
    "name, dims, kets",
    [("cq", [7, 1], [3, 3]), ("bb84", [5], [2]), ("cq", [3], [3, 3]), ("bb84", 2, [2])],
)
def test_a_dims_field_that_disagrees_with_the_kets_is_an_input_error(tmp_path, capsys, name, dims, kets):
    payload = {**to_json_dict(gallery(name)), "dims": dims}
    path = _write(tmp_path, payload)
    message = f"error: malformed 'dims' field of a {payload['kind']} document: {dims!r}, but the kets have dimensions {kets}\n"
    for argv in (("check", "--file", path), ("bound", "--file", path, "--method", "postinfo")):
        assert run(capsys, *argv) == (1, "", message)


@pytest.mark.parametrize("name", ["cq", "bb84"])
def test_a_missing_dims_field_is_read_from_the_kets(tmp_path, capsys, name):
    payload = to_json_dict(gallery(name))
    del payload["dims"]
    path = _write(tmp_path, payload)
    assert run(capsys, "check", "--file", path) == (0, CHECK_OUTPUT[name], "")
    code, out, err = run(capsys, "bound", "--file", path, "--method", "postinfo")
    assert (code, err) == (0, "")
    assert json.loads(out) == {**json.loads(BOUND_RECORDS["postinfo", name]), "id": f"postinfo:{path}"}


@pytest.mark.parametrize("path", sorted((Path(__file__).parent / "data").glob("*.json")), ids=lambda p: p.name)
def test_every_data_file_carries_the_dims_of_its_kets(path):
    document = json.loads(path.read_text())
    assert to_json_dict(from_json_dict(document))["dims"] == document["dims"]


# gen-bb84 angles from nearly parallel states to clearly distinct ones: the kill-pattern certificate is
# inconclusive at the first two, and proves infeasibility at the rest, where at 1e-9 to 1e-6 the
# certified window of the value still reaches one
NEAR_FEASIBLE_VERDICTS = {
    "1e-11": "classical broadcast: feasible (value 0.999999999, witness violation 1.43e-09)",
    "1e-10": "classical broadcast: feasible (value 0.999999999, witness violation 1.43e-09)",
    "1e-9": "classical broadcast: infeasible by the kill-pattern certificate (certified window [0.999999998570, 1.000000000000] reaches 1)",
    "1e-8": "classical broadcast: infeasible by the kill-pattern certificate (certified window [0.999999998570, 1.000000000000] reaches 1)",
    "1e-6": "classical broadcast: infeasible by the kill-pattern certificate (certified window [0.999999998570, 1.000000000000] reaches 1)",
    "1e-4": "classical broadcast: infeasible (optimal value 0.999999998 < 1)",
    "5e-4": "classical broadcast: infeasible (optimal value 0.999999983 < 1)",
    "1e-3": "classical broadcast: infeasible (optimal value 0.999999936 < 1)",
    "2e-3": "classical broadcast: infeasible (optimal value 0.999999749 < 1)",
    "1e-2": "classical broadcast: infeasible (optimal value 0.999993749 < 1)",
}


@pytest.mark.parametrize("theta", list(NEAR_FEASIBLE_VERDICTS))
def test_a_near_feasible_set_gets_the_verdict_of_its_certificate_and_no_internal_error(capsys, theta):
    code, out, err = run(capsys, "check", "--gallery", f"gen-bb84({theta})")
    assert (code, err) == (0, "")
    *_, certificate, verdict = out.splitlines()
    assert verdict == NEAR_FEASIBLE_VERDICTS[theta]
    proved = certificate.startswith("kill-pattern certificate: infeasible")
    assert proved == (float(theta) >= 1e-9)
    assert proved == verdict.startswith("classical broadcast: infeasible")
