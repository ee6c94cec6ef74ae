import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricglsm
from toricglsm import cli, jsonio
from toricglsm.cli import main
from toricglsm.fan import Fan
from toricglsm.glsm import SolveReport, kempf_ness_solve


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fan_check_builtin(capsys):
    code, out, err = run(capsys, "fan-check", "P2")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["smooth"] is True
    assert payload["complete"] is True
    assert payload["nef_proxy"] is True


def test_fan_check_text(capsys):
    code, out, _ = run(capsys, "fan-check", "F1", "--format", "text")
    assert code == 0
    assert "valid: yes" in out
    assert "convexity proxy (all prime divisors nef): no" in out


def test_fan_check_invalid_fan_still_exits_zero(capsys, tmp_path):
    # an invalid fan is a successful validation run reporting valid: false
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]]}))
    code, out, _ = run(capsys, "fan-check", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is False
    assert any("primitive" in i for i in payload["issues"])


def test_cox_p2(capsys):
    code, out, _ = run(capsys, "cox", "P2")
    assert code == 0
    payload = json.loads(out)
    assert payload["pic_rank"] == 1
    assert payload["charge_matrix"] in ([[1, 1, 1]], [[-1, -1, -1]])
    assert payload["primitive_collections"] == [[0, 1, 2]]


def test_cox_incomplete_fan_is_domain_error(capsys, tmp_path):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}))
    code, out, err = run(capsys, "cox", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_unknown_builtin_name_is_domain_error(capsys):
    code, _, err = run(capsys, "cox", "NotAFan")
    assert code == 1 and "error:" in err


def test_missing_file_is_domain_error(capsys):
    code, _, err = run(capsys, "fan-check", "no/such/file.json")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize(
    "argv, document, message",
    [
        (["fan-check", "P2", "-o", "{tmp}/missing/x.json"], None,
         "error: {tmp}/missing/x.json: No such file or directory\n"),
        (["delta-check", "{tmp}/in.json"],
         {"main": {"fan": "P1", "degrees": [1, 1], "sections": ["z0", "z1"]}, "attachments": []},
         "error: {tmp}/in.json: missing field 'fan'\n"),
        (["cox", "NotAFan"], None, "error: NotAFan: unknown fan name 'NotAFan'\n"),
        (["moduli-dim", "P2", "--degree", "1,x"], None,
         "error: P2: bad degree vector '1,x': expected comma-separated integers\n"),
        (["glsm-phase", "{tmp}/in.json"], b"\xff\xfe", "error: {tmp}/in.json: 'utf-8' codec"),
        (["delta-check", "{tmp}/in.json"],
         {"fan": "P1", "degrees": [1, 1], "sections": ["2/0*z0", "z1"]},
         "error: {tmp}/in.json: sections[0]: zero denominator (at position 0)\n"),
        (["delta-check", "{tmp}/in.json"],
         {"fan": "P1", "degrees": [1, 1], "sections": ["z1", "2/0*z0"]},
         "error: {tmp}/in.json: sections[1]: zero denominator (at position 0)\n"),
    ],
    ids=["unwritable-output", "missing-field", "unknown-name", "bad-degree", "not-utf8",
         "zero-denominator", "zero-denominator-second-section"],
)
def test_one_error_line(capsys, tmp_path, argv, document, message):
    path = tmp_path / "in.json"
    if isinstance(document, bytes):
        path.write_bytes(document)
    elif document is not None:
        path.write_text(json.dumps(document))
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith(message.format(tmp=tmp_path))
    assert err.count("\n") == 1


def test_closed_stdout_is_one_error_line(capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["cox", "P2"])
    assert code == 1
    assert capsys.readouterr().err == "error: stdout: Broken pipe\n"


def test_malformed_json_is_domain_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "fan-check", str(path))
    assert code == 1 and "line 1" in err


@pytest.mark.parametrize(
    "cmd", ["fan-check", "cox", "delta-check", "collapse", "glsm-solve", "glsm-phase"]
)
def test_deeply_nested_json_is_domain_error(capsys, tmp_path, cmd):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, cmd, str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: JSON nested too deeply\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["moduli-dim", "P2"])  # missing required --degree
    assert exc.value.code == 2


def test_moduli_dim(capsys):
    code, out, _ = run(capsys, "moduli-dim", "P2", "--degree", "1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["y_dim"] == 6
    assert payload["g_dim"] == 1
    assert payload["w_dim"] == 5


def test_moduli_dim_sample_deterministic(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = main(
            ["moduli-dim", "P2", "--degree", "2,2,2", "--sample", "--seed", "5",
             "--bound", "4", "-o", str(path)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert len(payload["sample"]["sections"]) == 3


def test_moduli_dim_bad_degree(capsys):
    code, _, err = run(capsys, "moduli-dim", "P2", "--degree", "1,x,1")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "moduli-dim", "P2", "--degree", "1,1,2")
    assert code == 1 and "inadmissible" in err


def test_delta_check(capsys, tmp_path):
    path = tmp_path / "coll.json"
    path.write_text(
        json.dumps(
            {
                "fan": "P2",
                "degrees": [2, 2, 2],
                "sections": ["z0^2", "z0*z1", "z0^2 + z0*z1"],
            }
        )
    )
    code, out, _ = run(capsys, "delta-check", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["nonvanishing"] is True
    assert payload["nondegenerate"] is False
    assert payload["base_divisor"] == "z0"
    assert payload["in_excluded_locus"] is False


def test_collapse_command(capsys, tmp_path):
    path = tmp_path / "map.json"
    path.write_text(
        json.dumps(
            {
                "main": {
                    "fan": "P1",
                    "degrees": [1, 1],
                    "sections": ["z0", "z1"],
                },
                "attachments": [{"point": ["1", "0"], "degree": [2, 2]}],
            }
        )
    )
    code, out, _ = run(capsys, "collapse", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["total_degree"] == [3, 3]
    assert payload["collection"]["sections"] == ["z0*z1^2", "z1^3"]


def test_glsm_solve_and_phase(capsys, tmp_path):
    path = tmp_path / "glsm.json"
    path.write_text(
        json.dumps(
            {
                "charges": [[1, 1, 1]],
                "fi": ["1"],
                "amplitudes": ["1", "1", "1"],
            }
        )
    )
    code, out, _ = run(capsys, "glsm-solve", str(path), "--tol", "1e-10")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "Converged"
    assert abs(payload["t"][0] + 0.5493061443340549) < 1e-9
    assert payload["gradient_norm"] < 1e-10

    code, out, _ = run(capsys, "glsm-phase", str(path))
    assert code == 0
    assert json.loads(out)["minimal_unstable_sets"] == [[0, 1, 2]]


def test_glsm_solve_unstable(capsys, tmp_path):
    path = tmp_path / "glsm.json"
    path.write_text(
        json.dumps(
            {
                "charges": [[1, 1, 1]],
                "fi": ["-1"],
                "amplitudes": ["1", "1", "1"],
            }
        )
    )
    code, out, _ = run(capsys, "glsm-solve", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "Unstable"
    assert payload["recession_direction"] is not None


@pytest.mark.parametrize(
    "problem,direction",
    [
        ({"charges": [[1, 1, 1]], "fi": ["-1"], "amplitudes": ["1", "1", "1"]}, "-1.0"),
        ({"charges": [[1, 0, 1, 2], [0, 1, 0, 1]], "fi": ["-5", "3/2"],
          "amplitudes": ["1", "1", "1", "1"]}, "-0.2,\n    0.0"),
        ({"charges": [[2, -1, 1], [1, 3, -2]], "fi": ["-7/3", "5"],
          "amplitudes": ["1", "1/2", "2"]}, "-1.5,\n    -0.5"),
    ],
    ids=["P2", "F2", "mixed-sign"],
)
def test_glsm_solve_certificate_bytes(capsys, tmp_path, problem, direction):
    # the exact Fourier-Motzkin certificate, as printed
    path = tmp_path / "glsm.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "glsm-solve", str(path))
    assert code == 0
    assert out == (
        '{\n  "gradient_norm": null,\n  "iterations": 0,\n  "recession_direction": [\n    '
        + direction + '\n  ],\n  "status": "Unstable",\n  "t": null\n}\n'
    )


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize(
    "problem, flags",
    [
        ({"charges": [[1, 1, 1]], "fi": ["1"], "amplitudes": ["1", "1", "1"]}, ["--tol", "1e-10"]),
        ({"charges": [[1, 1, 1]], "fi": ["-1"], "amplitudes": ["1", "1", "1"]}, []),
        ({"charges": [[1, 0, 1, 2], [0, 1, 0, 1]], "fi": ["-5", "3/2"],
          "amplitudes": ["1", "1", "1", "1"]}, []),
        ({"charges": [[2, -1, 1], [1, 3, -2]], "fi": ["-7/3", "5"],
          "amplitudes": ["1", "1/2", "2"]}, []),
        ({"charges": [], "fi": [], "amplitudes": []}, []),
        ({"charges": [[300]], "fi": ["300000000"], "amplitudes": ["1"]}, []),
        ({"charges": [[300]], "fi": ["300000000"], "amplitudes": ["1"]}, ["--max-iter", "1"]),
    ],
    ids=["converged", "unstable", "F2-unstable", "mixed-sign-unstable", "no-charges",
         "overflowing-exponent", "iteration-limit"],
)
def test_glsm_solve_prints_strict_json(capsys, tmp_path, problem, flags):
    path = tmp_path / "glsm.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "glsm-solve", str(path), *flags)
    assert code == 0
    json.loads(out, parse_constant=_no_constant)


def test_glsm_solve_infinite_gradient_prints_null(capsys, tmp_path, monkeypatch):
    # an IterationLimit report after an overflow may carry an infinite norm
    report = SolveReport(status="IterationLimit", gradient_norm=float("inf"), iterations=3)
    monkeypatch.setattr(cli.glsm_mod, "kempf_ness_solve", lambda *a, **k: report)
    path = tmp_path / "glsm.json"
    path.write_text(json.dumps(_GLSM))
    code, out, _ = run(capsys, "glsm-solve", str(path))
    assert code == 0
    assert json.loads(out, parse_constant=_no_constant)["gradient_norm"] is None


def test_glsm_solve_without_charge_rows(capsys, tmp_path):
    path = tmp_path / "glsm.json"
    path.write_text(json.dumps({"charges": [], "fi": [], "amplitudes": []}))
    code, out, _ = run(capsys, "glsm-solve", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "Converged" and payload["t"] == []


def test_glsm_solve_overflowing_exponent(capsys, tmp_path):
    path = tmp_path / "glsm.json"
    path.write_text(json.dumps({"charges": [[300]], "fi": ["300000000"], "amplitudes": ["1"]}))
    code, out, err = run(capsys, "glsm-solve", str(path))
    assert code == 0 and err == ""
    assert json.loads(out)["status"] in ("Converged", "IterationLimit")


def test_glsm_runs_without_numpy(tmp_path):
    path = tmp_path / "glsm.json"
    path.write_text(json.dumps(_GLSM))
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from toricglsm.cli import main\n"
        "sys.exit(main(['glsm-solve', sys.argv[1]]) or main(['glsm-phase', sys.argv[1]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(toricglsm.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    rep = kempf_ness_solve(jsonio.glsm_from_dict(_GLSM))
    assert rep.status == "Converged"
    assert all(type(x) is float for x in rep.t)


def test_cli_import_skips_dataclasses_and_inspect():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import toricglsm.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(toricglsm.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_fan_json_roundtrip(tmp_path, golden_fans):
    for f in golden_fans:
        d = jsonio.fan_to_dict(f)
        again = jsonio.fan_from_dict(json.loads(json.dumps(d)))
        assert again == f
        assert jsonio.fan_to_dict(again) == d


def test_collection_json_roundtrip(p2):
    from fractions import Fraction

    from toricglsm.delta import WeakDeltaCollection
    from toricglsm.forms import parse_form

    c = WeakDeltaCollection(
        p2,
        (1, 1, 1),
        (parse_form("1/2*z0"), parse_form("z1"), parse_form("z0 - 2/3*z1")),
        trivializations=(Fraction(2, 5), Fraction(-1)),
    )
    d = jsonio.collection_to_dict(c)
    assert d["trivializations"] == ["2/5", "-1"]
    assert jsonio.collection_from_dict(json.loads(json.dumps(d))) == c


def test_stable_map_json_roundtrip(p2):
    from toricglsm.collapse import Attachment, GenusZeroStableMapData
    from toricglsm.delta import WeakDeltaCollection
    from toricglsm.forms import parse_form

    data = GenusZeroStableMapData(
        main=WeakDeltaCollection(
            p2, (1, 1, 1), (parse_form("z0"), parse_form("z1"), parse_form("z0 + z1"))
        ),
        attachments=(Attachment(("1/2", "1"), (1, 1, 1)),),
    )
    d = jsonio.stable_map_to_dict(data)
    assert jsonio.stable_map_from_dict(json.loads(json.dumps(d))) == data


def test_glsm_json_roundtrip():
    from toricglsm.glsm import GLSMProblem
    from toricglsm.lattice import IntMatrix

    p = GLSMProblem(
        charges=IntMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]]),
        fi=("1/3", "2"),
        amplitudes=("0", "1", "2", "1/2"),
    )
    d = jsonio.glsm_to_dict(p)
    assert jsonio.glsm_from_dict(json.loads(json.dumps(d))) == p


def test_output_byte_determinism(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["cox", "F1", "-o", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].endswith(b"\n")


# P1xP1xP2 with its rays and cones out of the built-in order
_P1XP1XP2_SHUFFLED = {
    "rays": [[0, 0, 1, 0], [-1, 0, 0, 0], [0, 0, -1, -1], [0, 1, 0, 0],
             [1, 0, 0, 0], [0, 0, 0, 1], [0, -1, 0, 0]],
    "max_cones": [[2, 1, 6, 5], [3, 4, 2, 0], [0, 2, 1, 6], [5, 1, 3, 2], [3, 5, 4, 2], [4, 5, 0, 6],
                  [5, 0, 1, 3], [3, 0, 5, 4], [2, 0, 1, 3], [6, 0, 4, 2], [2, 4, 5, 6], [0, 1, 6, 5]],
}
_YES = "valid: yes\nsmooth: yes\ncomplete: yes\n"


def _fan_check_json(per_divisor):
    return {"complete": True, "issues": [], "nef_per_divisor": per_divisor,
            "nef_proxy": all(per_divisor), "smooth": True, "valid": True}


@pytest.mark.parametrize(
    "cmd,source,json_payload,text",
    [
        ("fan-check", "P5", _fan_check_json([True] * 6),
         _YES + "convexity proxy (all prime divisors nef): yes\n"),
        ("cox", "P5",
         {"charge_matrix": [[1, 1, 1, 1, 1, 1]], "irrelevant_generators": [[5], [4], [3], [2], [1], [0]],
          "pic_rank": 1, "primitive_collections": [[0, 1, 2, 3, 4, 5]]},
         "Picard rank: 1\ncharge matrix:\n     1    1    1    1    1    1\n"
         "irrelevant-ideal generator supports: {5} {4} {3} {2} {1} {0}\n"
         "primitive collections: {0,1,2,3,4,5}\n"),
        ("fan-check", "F3", _fan_check_json([True, False, True, True]),
         _YES + "convexity proxy (all prime divisors nef): no\n"),
        ("cox", "F3",
         {"charge_matrix": [[1, -3, 1, 0], [0, 1, 0, 1]], "irrelevant_generators": [[2, 3], [0, 3], [0, 1], [1, 2]],
          "pic_rank": 2, "primitive_collections": [[0, 2], [1, 3]]},
         "Picard rank: 2\ncharge matrix:\n     1   -3    1    0\n     0    1    0    1\n"
         "irrelevant-ideal generator supports: {2,3} {0,3} {0,1} {1,2}\n"
         "primitive collections: {0,2} {1,3}\n"),
        ("fan-check", _P1XP1XP2_SHUFFLED, _fan_check_json([True] * 7),
         _YES + "convexity proxy (all prime divisors nef): yes\n"),
        ("cox", _P1XP1XP2_SHUFFLED,
         {"charge_matrix": [[0, 1, 0, 0, 1, 0, 0], [1, 0, 1, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0, 1]],
          "irrelevant_generators": [[0, 3, 4], [1, 5, 6], [3, 4, 5], [0, 4, 6], [0, 1, 6], [1, 2, 3],
                                    [2, 4, 6], [1, 2, 6], [4, 5, 6], [1, 3, 5], [0, 1, 3], [2, 3, 4]],
          "pic_rank": 3, "primitive_collections": [[1, 4], [3, 6], [0, 2, 5]]},
         "Picard rank: 3\ncharge matrix:\n"
         "     0    1    0    0    1    0    0\n     1    0    1    0    0    1    0\n"
         "     0    0    0    1    0    0    1\n"
         "irrelevant-ideal generator supports: {0,3,4} {1,5,6} {3,4,5} {0,4,6} {0,1,6} {1,2,3} "
         "{2,4,6} {1,2,6} {4,5,6} {1,3,5} {0,1,3} {2,3,4}\n"
         "primitive collections: {1,4} {3,6} {0,2,5}\n"),
    ],
    ids=["fan-check-P5", "cox-P5", "fan-check-F3", "cox-F3", "fan-check-P1xP1xP2", "cox-P1xP1xP2"],
)
def test_fan_check_and_cox_stdout_bytes(capsys, tmp_path, cmd, source, json_payload, text):
    if not isinstance(source, str):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(source))
        source = str(path)
    assert run(capsys, cmd, source) == (0, json.dumps(json_payload, sort_keys=True, indent=2) + "\n", "")
    assert run(capsys, cmd, source, "--format", "text") == (0, text, "")


_FAN = {"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [0, 2], [1, 2]]}
_GLSM = {"charges": [[1, 1, 1]], "fi": ["1"], "amplitudes": ["1", "1", "1"]}
_COLLECTION = {"fan": "P2", "degrees": [1, 1, 1], "sections": ["z0", "z1", "z0 + z1"]}
_UNSTABLE = {"charges": [[2, -1, 1], [1, 3, -2]], "fi": ["-7/3", "5"], "amplitudes": ["1", "1/2", "2"]}


@pytest.mark.parametrize(
    "cmd, problem, fmt, stdout",
    [
        ("glsm-solve", _GLSM, "text",
         "status: Converged\nt: -0.549306144327\ngradient sup-norm: 2.644e-11\niterations: 5\n"),
        ("glsm-solve", _GLSM, "json",
         '{\n  "gradient_norm": 2.6437518840793928e-11,\n  "iterations": 5,\n'
         '  "recession_direction": null,\n  "status": "Converged",\n'
         '  "t": [\n    -0.5493061443274454\n  ]\n}\n'),
        ("glsm-phase", _GLSM, "text", "minimal unstable zero-sets: {0,1,2}\n"),
        ("glsm-solve", _UNSTABLE, "text", "status: Unstable\niterations: 0\n"),
        ("glsm-phase", _UNSTABLE, "text", "minimal unstable zero-sets: {}\n"),
    ],
    ids=["solve-text", "solve-json", "phase-text", "unstable-solve-text", "unstable-phase-text"],
)
def test_glsm_stdout_bytes(capsys, tmp_path, cmd, problem, fmt, stdout):
    path = tmp_path / "glsm.json"
    path.write_text(json.dumps(problem))
    assert run(capsys, cmd, str(path), "--format", fmt) == (0, stdout, "")


@pytest.mark.parametrize(
    "cmd, payload, message",
    [
        ("fan-check", dict(_FAN, rays=[[1.5, 0], [0, 1], [-1, -1]]), "integers, got 1.5"),
        ("cox", dict(_FAN, max_cones=[[0, True], [0, 2], [1, 2]]), "integers, got True"),
        ("glsm-phase", dict(_GLSM, charges=[[1, 1, 1.5]]), "integers, got 1.5"),
        ("delta-check", dict(_COLLECTION, degrees=[1, True, 1]), "integers, got True"),
        ("fan-check", dict(_FAN, rays=5), "rays must be a list"),
        ("glsm-solve", dict(_GLSM, fi="1"), "fi must be a list"),
        ("delta-check", [1], "collection must be an object, got list"),
        ("delta-check", dict(_COLLECTION, sections=[1, 2, 3]), "strings, got 1"),
        ("collapse", {"main": dict(_COLLECTION, fan=dict(_FAN, name=[1])), "attachments": []},
         "fan name must be a string, got list"),
    ],
    ids=["float-ray", "bool-cone", "float-charge", "bool-degree", "scalar-rays", "string-fi",
         "list-document", "int-sections", "list-name"],
)
def test_strict_json_input(capsys, tmp_path, cmd, payload, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, cmd, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-iter", "-5"], "max_iter must be nonnegative, got -5"),
        (["--tol", "inf"], "tol must be positive and finite, got inf"),
        (["--tol", "nan"], "tol must be positive and finite, got nan"),
    ],
    ids=["negative-max-iter", "inf-tol", "nan-tol"],
)
def test_glsm_solve_bad_controls(capsys, tmp_path, flags, message):
    path = tmp_path / "glsm.json"
    path.write_text(json.dumps(_GLSM))
    code, out, err = run(capsys, "glsm-solve", str(path), *flags)
    assert code == 1 and out == ""
    assert err == f"error: {path}: {message}\n"


def test_moduli_sample_negative_bound(capsys):
    code, out, err = run(capsys, "moduli-dim", "P2", "--degree", "1,1,1", "--sample",
                         "--bound", "-1")
    assert code == 1 and out == ""
    assert err == "error: P2: coefficient bound -1 is negative\n"


def test_glsm_solve_overflowing_fi(capsys, tmp_path):
    path = tmp_path / "glsm.json"
    path.write_text(json.dumps(dict(_GLSM, fi=["1e400"])))
    code, out, err = run(capsys, "glsm-solve", str(path))
    assert code == 1 and out == ""
    assert "too large" in err


def test_cox_ray_cap_before_validation(capsys):
    # P40 has 41 rays: the 16-ray cap must refuse it before the fan is validated
    code, out, err = run(capsys, "cox", "P40")
    assert code == 1 and out == ""
    assert "limited to 16 rays" in err


_P1XP1_AS_F1 = {"name": "F1", "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                "max_cones": [[0, 2], [0, 3], [1, 2], [1, 3]]}


@pytest.mark.parametrize("fan, degrees", [
    (_P1XP1_AS_F1, [1, 1, 1, 1]),  # a catalog name on another fan of its dimension
    (dict(_FAN, name="P99999"), [1, 1, 1]),  # a catalog name of another dimension
    (dict(_FAN, name="mine"), [1, 1, 1]),  # not a catalog name
])
def test_collection_with_foreign_fan_name_roundtrips(fan, degrees):
    from toricglsm.delta import WeakDeltaCollection
    from toricglsm.forms import parse_form

    f = jsonio.fan_from_dict(fan)
    c = WeakDeltaCollection(f, tuple(degrees), tuple(parse_form(f"z{i % 2}") for i in degrees))
    d = jsonio.collection_to_dict(c)
    assert d["fan"] == fan  # the full object, never a name that reads back as another fan
    assert jsonio.collection_from_dict(json.loads(json.dumps(d))) == c


def test_catalog_fan_written_by_name(golden_fans):
    from toricglsm.delta import WeakDeltaCollection
    from toricglsm.forms import parse_form

    for f in golden_fans:
        c = WeakDeltaCollection(f, (0,) * f.n_rays, (parse_form("1"),) * f.n_rays)
        assert jsonio.collection_to_dict(c)["fan"] == f.name


def test_collapse_output_feeds_delta_check(capsys, tmp_path):
    # P1xP1's rays and cones labelled "F1": the collapsed collection must
    # read back as P1xP1, not as the Hirzebruch surface F1
    path = tmp_path / "map.json"
    path.write_text(json.dumps({
        "main": {"fan": _P1XP1_AS_F1, "degrees": [1, 1, 1, 1], "sections": ["z0", "z1", "z0", "z1"]},
        "attachments": [{"point": ["1", "1"], "degree": [1, 1, 0, 0]}],
    }))
    out_path = tmp_path / "coll.json"
    code, _, err = run(capsys, "collapse", str(path), "-o", str(out_path))
    assert code == 0 and err == ""
    collection = json.loads(out_path.read_text())["collection"]
    assert collection["fan"] == _P1XP1_AS_F1
    out_path.write_text(json.dumps(collection))
    code, out, err = run(capsys, "delta-check", str(out_path))
    assert code == 0 and err == ""
    assert json.loads(out)["base_divisor"] == "z0 - z1"
