import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hjflow.cli as cli
from hjflow import viscosity
from hjflow.cli import main, run_experiment
from hjflow.config import ConfigError, config_from_dict, default_config, load_config
from hjflow.cylinders import Affine
from hjflow.evi import evi_residual
from hjflow.hamiltonians import build_chain_pair, build_cyl_pair
from hjflow.reporting import CSV_HEADER, Report, write_csv, write_json
from hjflow.spaces import euclidean_space, quadratic_potential
from hjflow.tataru import HCurve, psi_eps, psi_eps_prime, tataru_batch
from hjflow.viscosity import solve_resolvent

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "schema": 1,
    "seed": 99,
    "evi": {"instances": 3},
    "tataru": {"instances": 3},
    "laplace": {"m_list": [10, 200], "concentration_m": 1000,
                "refine_n": [10, 40]},
    "ham_chain": {"link": "1to2", "samples": 3},
    "resolvent": {"dx": 0.02, "dt_factor": 20},
    "comparison": {"pairs": 1, "dx": 0.02},
}


def test_default_config_builds_space():
    cfg = default_config()
    space = cfg.space.build()
    assert space.kind == "euclidean"
    assert space.kappa == 1.0


def test_negative_epsilon_names_field():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"laplace": {"epsilon": -0.5}})
    assert err.value.path == "laplace.epsilon"
    assert "laplace.epsilon" in str(err.value)


def test_removed_tataru_epsilon_is_unknown(tmp_path, capsys):
    # the tataru suite has no epsilon; an old config that sets it is rejected
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps({"tataru": {"epsilon": 0.01}}))
    code = main(["tataru", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err.strip() == "config error: tataru.epsilon: unknown field"


def test_unknown_fields_are_rejected():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"tataru": {"epsilonn": 0.5}})
    assert err.value.path == "tataru.epsilonn"
    with pytest.raises(ConfigError):
        config_from_dict({"not_a_section": {}})


def test_double_well_kappa_validation():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"space": {"potential": "double_well", "kappa": 1.0}})
    assert err.value.path == "space.kappa"


def test_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY))
    cfg = load_config(path)
    assert cfg.seed == 99
    assert cfg.laplace.m_list == (10, 200)


def test_unknown_check_name(tmp_path):
    cfg = default_config()
    with pytest.raises(ConfigError, match="unknown check name"):
        run_experiment("frobnicate", cfg, tmp_path)


def test_empty_report_writes_header_only(tmp_path):
    rep = Report(name="empty")
    path = write_csv(rep, tmp_path / "empty.csv")
    assert path.read_text() == ",".join(CSV_HEADER) + "\n"


def test_empty_report_fails():
    rep = Report(name="empty")
    assert not rep.passed
    assert "FAIL: 0/0" in rep.summary_line()


def test_json_roundtrips(tmp_path):
    rep = Report(name="demo", config_echo={"seed": 1}, version="0.1.0")
    rep.check("check_a", 0, 1.0, 2.0)
    path = write_json(rep, tmp_path / "demo.json")
    data = json.loads(path.read_text())
    assert data["suite"] == "demo"
    assert data["rows"][0]["check"] == "check_a"
    assert data["summary"]["passed"] == 1


def _strict_json(text: str):
    """json.loads that refuses the non-standard constants Infinity, -Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(text, parse_constant=refuse)


def test_json_writes_non_finite_numbers_as_the_csv_strings(tmp_path):
    rep = Report(name="demo")
    rep.check("check_a", 0, math.inf, -math.inf)
    rep.check("check_b", 0, math.inf, math.inf)
    rep.diagnostics["worst"] = {"residual": -math.inf, "xs": [1.5, math.nan]}
    data = _strict_json(write_json(rep, tmp_path / "demo.json").read_text())
    cells = [[row["value"], row["bound"], row["violation"]] for row in data["rows"]]
    assert cells == [list(r.as_csv()[2:5]) for r in rep.rows]
    assert cells == [["inf", "-inf", "inf"], ["inf", "inf", "nan"]]
    assert data["summary"]["max_violation"] == {"check_a": "inf", "check_b": "nan"}
    assert data["diagnostics"]["worst"] == {"residual": "-inf", "xs": [1.5, "nan"]}


def test_cli_laplace_json_is_strict(tmp_path):
    # the first riemann_refinement row has no previous gap: its bound is inf
    out = tmp_path / "lj"
    assert main(["laplace-converge", "--out", str(out), "--format", "json"]) == 0
    data = _strict_json((out / "laplace_converge.json").read_text())
    first = next(r for r in data["rows"] if r["check"] == "riemann_refinement")
    assert first["bound"] == "inf"


def test_cli_runs_and_is_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    code1 = main(["evi-check", "--config", str(cfg_path), "--out", str(out1)])
    code2 = main(["evi-check", "--config", str(cfg_path), "--out", str(out2)])
    assert code1 == 0 and code2 == 0
    b1 = (out1 / "evi_check.csv").read_bytes()
    b2 = (out2 / "evi_check.csv").read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == ",".join(CSV_HEADER)


def test_cli_json_format(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY, "ham_chain": {"link": "4to5", "samples": 2}}))
    out = tmp_path / "oj"
    code = main(["ham-chain", "--config", str(cfg_path), "--out", str(out),
                 "--format", "json"])
    assert code == 0
    data = json.loads((out / "ham_chain.json").read_text())
    assert data["config"]["ham_chain"]["link"] == "4to5"
    assert all(r["pass"] for r in data["rows"])


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"laplace": {"epsilon": -1}}))
    code = main(["laplace-converge", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("content", [None, b'{"seed": 1', b'{"seed": "\xff"}'],
                         ids=["missing", "invalid_json", "not_utf8"])
def test_cli_unreadable_config_file_is_a_config_error(tmp_path, capsys, content):
    cfg_path = tmp_path / "bad.json"
    if content is not None:
        cfg_path.write_bytes(content)
    code = main(["tataru", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --config: cannot read {cfg_path}: ")
    assert err.count("\n") == 1 and "internal error" not in err
    assert not (tmp_path / "x").exists()


def test_cli_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def broken(cfg, out_dir):
        raise ZeroDivisionError("float division\nby zero")

    monkeypatch.setitem(cli.SUITES, "tataru", broken)
    code = main(["tataru", "--out", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "internal error: ZeroDivisionError: float division by zero\n"


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    outa, outb, outc = (tmp_path / s for s in ("a", "b", "c"))
    main(["ham-chain", "--config", str(cfg_path), "--out", str(outa)])
    main(["ham-chain", "--config", str(cfg_path), "--out", str(outb), "--seed", "1234"])
    main(["ham-chain", "--config", str(cfg_path), "--out", str(outc), "--seed", "99"])
    a = (outa / "ham_chain.csv").read_bytes()
    b = (outb / "ham_chain.csv").read_bytes()
    c = (outc / "ham_chain.csv").read_bytes()
    assert a != b          # different seed, different instances
    assert a == c          # explicit seed equal to the config seed


def test_console_entry_point(tmp_path):
    res = subprocess.run([sys.executable, "-m", "hjflow.cli", "--version"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "hjflow" in res.stdout


def test_import_leaves_out_scipy_special():
    # scipy.special costs about a third of the start-up; the package does not need it
    code = "import sys, hjflow.cli; print('scipy.special' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def _workload_config(tmp_path, name: str) -> tuple[Path, list]:
    """The perfbench workload's config file at seed 7 and its suites; the quantile
    workload gets sorted uniform Tataru points in [-2, 2], as perfbench gives it."""
    workload = json.loads((ROOT / "perfbench" / "workloads" / f"{name}.json").read_text())
    config = workload["config"]
    if workload.get("generate_tataru_points"):
        rng = np.random.default_rng(7)
        for key in ("pi", "mu"):
            config["tataru"][key] = np.sort(rng.uniform(-2.0, 2.0, 64)).tolist()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**config, "seed": 7}))
    return path, workload["suites"]


def test_scipy_sparse_loads_only_on_a_wide_policy_band(tmp_path):
    # import and the solver workload's suites load no scipy module at all: dgbsv
    # comes from numpy's OpenBLAS; the quartic's feet reach past _MAX_BAND cells,
    # so its resolvent loads scipy.sparse for SuperLU
    if viscosity.dgbsv.__module__ != "hjflow.viscosity":
        pytest.skip("numpy links no OpenBLAS of its own, so dgbsv is scipy's")
    solver, _ = _workload_config(tmp_path, "solver")
    quartic = tmp_path / "quartic.json"
    quartic.write_text(json.dumps({"space": {"potential": "quartic"},
                                   "resolvent": {"dx": 0.05, "n_controls": 33}}))
    code = (
        "import sys, hjflow.cli\n"
        "def scipy():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "def run(suite, cfg):\n"
        "    assert hjflow.cli.main([suite, '--config', cfg, '--out', sys.argv[3]]) == 0\n"
        "    return scipy()\n"
        "loaded = [scipy()] + [run(s, sys.argv[1]) for s in ('resolvent', 'comparison')]\n"
        "print(loaded, 'scipy.sparse' in run('resolvent', sys.argv[2]))\n"
    )
    res = subprocess.run([sys.executable, "-c", code, str(solver), str(quartic),
                          str(tmp_path / "out")], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[[], [], []] True"


@pytest.mark.parametrize("workload", ["solver", "closed_form", "curved_flows"])
def test_suites_load_no_module_that_import_did_not(tmp_path, workload):
    # a module loaded on first use inside a suite is paid for in every fresh verdict,
    # as numpy 2.4's lazy numpy.random and numpy.ma were.  The one exception is
    # argparse's: its gettext loads locale when a parser is built, so the baseline
    # builds one
    config, suites = _workload_config(tmp_path, workload)
    code = (
        "import argparse, sys, hjflow.cli\n"
        "argparse.ArgumentParser()\n"
        "before = set(sys.modules)\n"
        "for suite in sys.argv[3:]:\n"
        "    args = [suite, '--config', sys.argv[1], '--out', sys.argv[2]]\n"
        "    assert hjflow.cli.main(args) == 0\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    res = subprocess.run([sys.executable, "-c", code, str(config), str(tmp_path / "out"),
                          *suites], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("path, value", [
    ("resolvent.dx", -0.01),
    ("resolvent.control_bound", float("nan")),
    ("resolvent.tol", 0),
    ("resolvent.n_controls", 1),
    # an even control grid leaves out c = 0
    ("resolvent.n_controls", 2),
    ("resolvent.n_controls", 64),
    ("comparison.dx", "abc"),
    ("comparison.lam", float("inf")),
])
def test_solver_field_validation(tmp_path, capsys, path, value):
    section, key = path.split(".")
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"schema": 1, section: {key: value}}))
    code = main([section, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"config error: {path}" in capsys.readouterr().err


def test_resolvent_uses_configured_controls(tmp_path):
    # the constant and shifted solves must use the configured control set,
    # or shift_equivariance compares solutions of two different schemes
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"schema": 1, "resolvent": {"dx": 0.05, "n_controls": 33, "h": "fourier"}}))
    assert main(["resolvent", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0


NAN = float("nan")


@pytest.mark.parametrize("command, data, path", [
    ("evi-check", {"space": {"kappa": NAN}}, "space.kappa"),
    ("evi-check", {"space": {"potential": "double_well", "kappa": NAN}}, "space.kappa"),
    ("evi-check", {"space": {"box": NAN}}, "space.box"),
    ("evi-check", {"space": {"size": "2"}}, "space.size"),
    ("evi-check", {"evi": {"delta": NAN}}, "evi.delta"),
    ("evi-check", {"evi": {"instances": "abc"}}, "evi.instances"),
    ("evi-check", {"seed": -1}, "seed"),
    ("tataru", {"tataru": {"epsilon": NAN}}, "tataru.epsilon"),
    ("tataru", {"tataru": {"instances": 0}}, "tataru.instances"),
    ("tataru", {"space": {"size": 2}}, "tataru.pi"),
    ("tataru", {"tataru": {"mu": ["abc"]}}, "tataru.mu"),
    ("laplace-converge", {"laplace": {"epsilon": NAN}}, "laplace.epsilon"),
    ("laplace-converge", {"laplace": {"m_list": []}}, "laplace.m_list"),
    ("laplace-converge", {"laplace": {"refine_n": ["a"]}}, "laplace.refine_n"),
    ("laplace-converge", {"laplace": {"refine_m": "a"}}, "laplace.refine_m"),
    ("laplace-converge", {"laplace": {"concentration_epsilon": NAN}},
     "laplace.concentration_epsilon"),
    ("laplace-converge", {"laplace": {"concentration_mass": NAN}},
     "laplace.concentration_mass"),
    ("laplace-converge", {"space": {"size": 2}}, "laplace.pi"),
    ("laplace-converge", {"space": {"kind": "quantile", "size": 2},
                          "laplace": {"pi": [0.0, 0.0], "mu": [1.0, 0.0]}}, "laplace.mu"),
    ("ham-chain", {"ham_chain": {"samples": "abc"}}, "ham_chain.samples"),
    ("resolvent", {"resolvent": {"dt_factor": NAN}}, "resolvent.dt_factor"),
    ("resolvent", {"resolvent": {"h_param": NAN}}, "resolvent.h_param"),
    ("tataru", {"tataru": {"dump_objective": "x"}}, "tataru.dump_objective"),
    ("evi-check", {"out": 5}, "out"),
    # a config point is a list of finite numbers, one per coordinate: no
    # scalar, no bool (which would run as 1.0) and no nested list
    ("tataru", {"tataru": {"pi": 0.0}}, "tataru.pi"),
    ("tataru", {"tataru": {"pi": [True]}}, "tataru.pi"),
    ("tataru", {"tataru": {"mu": [[3.0]]}}, "tataru.mu"),
    ("laplace-converge", {"laplace": {"pi": 0.0}}, "laplace.pi"),
    ("laplace-converge", {"laplace": {"mu": [False]}}, "laplace.mu"),
    ("laplace-converge", {"laplace": {"pi": [[0.0]]}}, "laplace.pi"),
    ("tataru", {"tataru": {"pi": []}}, "tataru.pi"),
    ("tataru", {"tataru": {"mu": [NAN]}}, "tataru.mu"),
    # an integer beyond the float range is not finite either
    ("tataru", {"tataru": {"pi": [10**400]}}, "tataru.pi"),
    ("evi-check", {"space": {"kappa": 10**400}}, "space.kappa"),
    # nor is an integer field beyond int64, which numpy could not take
    ("evi-check", {"space": {"size": 10**400}}, "space.size"),
    ("evi-check", {"seed": 2**63}, "seed"),
    ("ham-chain", {"ham_chain": {"samples": 2**64}}, "ham_chain.samples"),
    ("laplace-converge", {"laplace": {"m_list": [10, 10**400]}}, "laplace.m_list"),
    # varadhan_monotone compares the first and last m, and every riemann_refinement
    # row the gap at n with the one at the previous, smaller n
    ("laplace-converge", {"laplace": {"m_list": [100]}}, "laplace.m_list"),
    ("laplace-converge", {"laplace": {"refine_n": [40, 10]}}, "laplace.refine_n"),
    ("laplace-converge", {"laplace": {"refine_n": [10, 10]}}, "laplace.refine_n"),
    # the solver suites run on the euclidean 1-d space: the error names the
    # field that is off
    ("resolvent", {"space": {"size": 2}}, "space.size"),
    ("comparison", {"space": {"size": 2}}, "space.size"),
    ("resolvent", {"space": {"kind": "quantile", "size": 1}}, "space.kind"),
    # finite coordinates whose distance D(pi, mu) is not
    ("tataru", {"tataru": {"pi": [1e200]}}, "tataru.pi"),
    ("laplace-converge", {"laplace": {"pi": [1e200]}}, "laplace.pi"),
])
def test_config_probe_errors(tmp_path, capsys, command, data, path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"schema": 1, **data}))
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"config error: {path}" in capsys.readouterr().err


@pytest.mark.parametrize("command, section", [("tataru", "tataru"),
                                              ("laplace-converge", "laplace")])
def test_overflowing_distance_is_one_config_error_line(tmp_path, command, section):
    # d^2(pi, mu) overflows: no numpy warning goes to stderr before the error line
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"schema": 1, section: {"pi": [1e200]}}))
    res = subprocess.run([sys.executable, "-m", "hjflow.cli", command, "--config",
                          str(cfg_path), "--out", str(tmp_path / "x")],
                         capture_output=True, text=True)
    assert res.returncode == 2
    assert res.stderr.splitlines() == [f"config error: {section}.pi: D(pi, mu) must be finite"]


@pytest.mark.parametrize("where, sub, path", [
    ("flag", "", "--out"),  # an existing file
    ("flag", "sub", "--out"),  # a directory below an existing file
    ("config", "", "out"),
    ("config", "sub", "out"),
])
def test_unusable_out_is_a_config_error(tmp_path, capsys, where, sub, path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / sub) if sub else str(blocker)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": 1, "ham_chain": {"samples": 3},
                                    **({"out": out} if where == "config" else {})}))
    argv = ["ham-chain", "--config", str(cfg_path)]
    code = main(argv + (["--out", out] if where == "flag" else []))
    assert code == 2
    assert f"config error: {path}: " in capsys.readouterr().err


def test_cli_seed_flag_is_validated(tmp_path, capsys):
    code = main(["evi-check", "--seed", "-1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "config error: seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["evi-check", "--seed", "abc"],
    ["evi-check", "--format", "xml"],
    # ham-chain's link and samples are set in the config only
    ["ham-chain", "--link", "0to1"],
    ["no-such-check"],
    [],
], ids=["seed_not_int", "unknown_format", "removed_link_flag", "unknown_command", "no_command"])
def test_malformed_flags_are_config_errors(tmp_path, capsys, argv):
    code = main(argv + (["--out", str(tmp_path / "x")] if argv else []))
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()



_SPACE = euclidean_space(quadratic_potential(1.0))
_P, _Q = np.array([0.0]), np.array([1.0])
_CHAIN = {"a": 1.0, "b": 1.0, "c": 0.0, "eps": 0.1, "m": 2, "n": 2, "rho": _P, "mu": _Q}
# one call per library entry point with a positivity guard, NaN in the guarded
# argument and valid values elsewhere
NAN_CALLS = {
    "psi_eps.eps": lambda: psi_eps(NAN, 1.0),
    "psi_eps_prime.eps": lambda: psi_eps_prime(NAN, 1.0),
    "tataru_batch.eps": lambda: tataru_batch(_SPACE, [_P], [_Q], eps=NAN),
    "tataru_batch.eps[i]": lambda: tataru_batch(_SPACE, [_P, _P], [_Q, _Q], eps=[0.1, NAN]),
    "HCurve.eps": lambda: HCurve(_SPACE, _P, _Q, NAN),
    "evi_residual.delta": lambda: evi_residual(_SPACE, _P, _Q, 0.5, NAN),
    "solve_resolvent.lam": lambda: solve_resolvent(_SPACE, NAN, lambda x: 0.0 * x),
    "build_cyl_pair.a": lambda: build_cyl_pair(_SPACE, "dagger", NAN, Affine([1.0]),
                                               _P, [_Q]),
    "build_chain_pair.a": lambda: build_chain_pair(_SPACE, 2, "dagger", {**_CHAIN, "a": NAN}),
    "build_chain_pair.b": lambda: build_chain_pair(_SPACE, 4, "dagger", {**_CHAIN, "b": NAN}),
    "build_chain_pair.level6.a": lambda: build_chain_pair(_SPACE, 6, "dagger",
                                                          {**_CHAIN, "a": NAN}),
    "build_chain_pair.level5.b": lambda: build_chain_pair(_SPACE, 5, "dagger",
                                                          {**_CHAIN, "b": NAN}),
}


@pytest.mark.parametrize("name", sorted(NAN_CALLS))
def test_library_positivity_guards_reject_nan(name):
    # the guards read ``not x > 0``: ``x <= 0`` is False for NaN and let it through
    with pytest.raises(ValueError, match="positive"):
        NAN_CALLS[name]()
