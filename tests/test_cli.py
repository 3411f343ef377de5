import io
import json
import sys

import numpy as np
import pytest

from outagebf import model, solvers
from outagebf.cli import main
from outagebf.reductions import (
    beamformers_from_assignment,
    powers_from_cut,
    reduce_3sat,
    reduce_maxcut,
)

EDGE_GRAPH = "c single edge\np edge 2 1\ne 1 2 1.0\n"
CNF_TEXT = "p cnf 4 2\n1 2 3 0\n2 -3 -4 0\n"


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    return rc, json.loads(out), err


@pytest.fixture
def inst_file(tmp_path, two_user_instance):
    path = tmp_path / "inst.json"
    path.write_text(model.dumps(two_user_instance))
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "edge.graph"
    path.write_text(EDGE_GRAPH)
    return str(path)


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "two.cnf"
    path.write_text(CNF_TEXT)
    return str(path)


def power_file(tmp_path, p, name="p.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"type": "PowerVector", "version": 1, "p": list(p)}))
    return str(path)


# -- basic envelope ----------------------------------------------------------

def test_zeta_reports_root(capsys):
    rc, env, err = run_json(
        capsys, "zeta", "--sigma2", "0.1", "--rho", "0.95", "--terms", "1.0"
    )
    assert rc == 0
    assert env["subcommand"] == "zeta"
    assert env["verdict"] == "ok"
    assert env["report"]["zeta"] == pytest.approx(0.04762983335018944, rel=1e-12)
    assert env["report"]["dzeta_dp"] < 0
    assert env["report"]["zeta"] < env["report"]["upper_bound"]
    assert err.startswith("elapsed_s=")


def test_zeta_non_finite_root_exits_2(capsys):
    rc, out, err = run(capsys, "zeta", "--sigma2", "1e-310", "--rho", "1e-300")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


def test_timing_goes_to_stderr_not_stdout(capsys):
    rc, out, err = run(capsys, "zeta", "--sigma2", "0.5", "--rho", "0.9")
    assert "elapsed" not in out
    assert "elapsed_s=" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--sigma2", "0.1"])  # --rho missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_human_rendering(capsys):
    rc, out, err = run(
        capsys, "zeta", "--sigma2", "0.1", "--rho", "0.95", "--human"
    )
    assert rc == 0
    assert not out.lstrip().startswith("{")
    assert 'verdict: "ok"' in out


def test_out_file_duplicates_envelope(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    rc, env, _ = run_json(
        capsys, "zeta", "--sigma2", "0.2", "--rho", "0.8", "--out", str(out_path)
    )
    assert rc == 0
    assert json.loads(out_path.read_text()) == env


# -- eval-outage -------------------------------------------------------------

def test_eval_outage_feasible(capsys, tmp_path, inst_file):
    sol = power_file(tmp_path, [0.2, 0.2])
    rc, env, _ = run_json(capsys, "eval-outage", inst_file, sol, "--rates", "0.05,0.05")
    assert rc == 0
    assert env["verdict"] == "feasible"
    assert env["report"]["satisfied"] == [True, True]
    assert set(env["inputs"]) == {inst_file, sol}
    assert all(len(h) == 64 for h in env["inputs"].values())


def test_eval_outage_infeasible_exit_1(capsys, tmp_path, inst_file):
    sol = power_file(tmp_path, [0.2, 0.2])
    rc, env, _ = run_json(capsys, "eval-outage", inst_file, sol, "--rates", "2.0,2.0")
    assert rc == 1
    assert env["verdict"] == "infeasible"
    assert any(not s for s in env["report"]["satisfied"])


def test_eval_outage_monte_carlo_block(capsys, tmp_path, inst_file):
    sol = power_file(tmp_path, [0.3, 0.3])
    rc, env, _ = run_json(
        capsys, "eval-outage", inst_file, sol,
        "--rates", "0.05,0.05", "--samples", "20000", "--seed", "4",
    )
    assert rc == 0
    mc = env["report"]["mc"]
    assert [row["user"] for row in mc] == [0, 1]
    for row in mc:
        assert 0.0 <= row["estimate"] <= 1.0
        assert row["stderr"] > 0
        assert row["closed_form"] in (pytest.approx(0.1), pytest.approx(0.15))
        # constraints hold strictly, so outage cannot exceed the allowance
        assert row["estimate"] <= row["closed_form"] + 4 * row["stderr"]


def test_eval_outage_rejects_powers_for_miso(capsys, tmp_path):
    rng = np.random.default_rng(0)
    from outagebf.sampling import random_miso_instance

    inst = random_miso_instance(rng, K=2, Nt=2)
    ipath = tmp_path / "miso.json"
    ipath.write_text(model.dumps(inst))
    sol = power_file(tmp_path, [0.5, 0.5])
    rc, out, err = run(capsys, "eval-outage", str(ipath), sol, "--rates", "0.1,0.1")
    assert rc == 2
    assert "BeamformerSet" in err


def test_missing_input_file_exits_2(capsys, tmp_path):
    sol = power_file(tmp_path, [0.1])
    rc, out, err = run(capsys, "eval-outage", "/nonexistent.json", sol, "--rates", "0.1")
    assert rc == 2
    assert "error:" in err


def test_malformed_json_exits_2(capsys, tmp_path, inst_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, out, err = run(capsys, "eval-outage", inst_file, str(bad), "--rates", "0.1,0.1")
    assert rc == 2
    assert "invalid JSON" in err


def test_bad_rates_list_exits_2(capsys, tmp_path, inst_file):
    sol = power_file(tmp_path, [0.1, 0.1])
    rc, out, err = run(capsys, "eval-outage", inst_file, sol, "--rates", "0.1,x")
    assert rc == 2


# -- solvers -----------------------------------------------------------------

def test_solve_mmf_matches_library(capsys, inst_file):
    rc, env, _ = run_json(
        capsys, "solve-mmf-siso", inst_file, "--delta", "1e-6", "--trace"
    )
    assert rc == 0
    rep = env["report"]
    assert rep["R"] == pytest.approx(0.23503278502250963, rel=1e-9)
    assert rep["iterations"] == 19
    assert rep["binding_users"] == [0, 1]
    assert rep["solution"]["type"] == "PowerVector"
    assert max(rep["residuals"]) <= 1e-9
    lo, hi = rep["trace"][-1]
    assert hi - lo < 1e-6


def test_solve_balancing_matches_library(capsys, inst_file):
    rc, env, _ = run_json(
        capsys, "solve-balancing", inst_file, "--rates", "0.1,0.1", "--tol", "1e-8"
    )
    assert rc == 0
    assert env["report"]["rho_star"] == pytest.approx(0.9423789978027344, abs=1e-6)


def test_solve_mmf_rejects_miso(capsys, tmp_path):
    from outagebf.sampling import random_miso_instance

    inst = random_miso_instance(np.random.default_rng(1), K=2, Nt=2)
    path = tmp_path / "m.json"
    path.write_text(model.dumps(inst))
    rc, out, err = run(capsys, "solve-mmf-siso", str(path))
    assert rc == 2
    assert "SisoInstance" in err


def test_solve_mmf_rejects_invalid_instance(capsys, tmp_path, two_user_instance):
    d = model.to_json_dict(two_user_instance)
    d["P"][0] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    rc, out, err = run(capsys, "solve-mmf-siso", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: invalid instance: P[0] = -1 must be > 0")


def test_solve_mmf_sweep_cap_exits_2(capsys, inst_file, monkeypatch):
    # a feasibility test cut off by the sweep cap has no verdict to bisect on
    monkeypatch.setattr(solvers, "_SWEEP_CAP", 2)
    rc, out, err = run(capsys, "solve-mmf-siso", inst_file)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "no fixed point within 2 sweeps" in err


# -- reductions and certificates --------------------------------------------

def test_reduce_maxcut_bundle_shape(capsys, graph_file):
    rc, env, _ = run_json(capsys, "reduce-maxcut", graph_file)
    assert rc == 0
    rep = env["report"]
    assert rep["kind"] == "maxcut"
    assert rep["K"] == 6
    assert rep["instance"]["type"] == "SisoInstance"
    assert rep["source"]["type"] == "WeightedGraph"


def test_reduce_pipe_into_verify(capsys, graph_file, monkeypatch):
    rc, out, _ = run(capsys, "reduce-maxcut", graph_file)
    assert rc == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    rc, env, _ = run_json(capsys, "verify", "maxcut-equiv", "--trials", "2")
    assert rc == 0
    assert env["verdict"] == "pass"
    # a piped bundle replaces the random trials entirely
    assert env["report"]["instances"] == 1


def test_verify_bundle_via_flag(capsys, tmp_path, graph_file):
    bundle = tmp_path / "bundle.json"
    rc, out, _ = run(capsys, "reduce-maxcut", graph_file, "--out", str(bundle))
    assert rc == 0
    rc, env, _ = run_json(
        capsys, "verify", "maxcut-equiv", "--in", str(bundle), "--trials", "2"
    )
    assert rc == 0
    assert env["verdict"] == "pass"


def test_verify_certificate_maxcut_pass(capsys, tmp_path, graph_file):
    bundle = tmp_path / "bundle.json"
    run(capsys, "reduce-maxcut", graph_file, "--out", str(bundle))
    graph = model.read_graph_dimacs(EDGE_GRAPH)
    gadget = reduce_maxcut(graph)
    cert = power_file(tmp_path, powers_from_cut((1,), gadget).tolist(), "cut.json")
    rc, env, _ = run_json(capsys, "verify-certificate", str(bundle), cert)
    assert rc == 0
    assert env["verdict"] == "pass"
    assert env["report"]["cut"] == [1]
    assert env["report"]["cutweight"] == 1.0
    assert env["report"]["identity_gap"] <= 1e-9


def test_verify_certificate_maxcut_rejects_non_pattern(capsys, tmp_path, graph_file):
    bundle = tmp_path / "bundle.json"
    run(capsys, "reduce-maxcut", graph_file, "--out", str(bundle))
    cert = power_file(tmp_path, [0.5, 0.0, 0.0, 1.0, 0.7, 0.7], "bad.json")
    rc, env, _ = run_json(capsys, "verify-certificate", str(bundle), cert)
    assert rc == 1
    assert env["verdict"] == "fail"
    assert "error" in env["report"]


def test_verify_certificate_maxcut_scores_decoded_pattern(capsys, tmp_path, graph_file):
    # 1e-7 off the pattern of cut [2]: inside the decoder's 1e-6, far outside
    # the identity's 1e-9 had the supplied powers been scored
    bundle = tmp_path / "bundle.json"
    run(capsys, "reduce-maxcut", graph_file, "--out", str(bundle))
    cert = power_file(tmp_path, [0.9999999, 0.0, 0.0, 1.0, 0.7, 0.7], "near.json")
    rc, env, _ = run_json(capsys, "verify-certificate", str(bundle), cert)
    assert rc == 0
    assert env["verdict"] == "pass"
    assert env["report"]["cut"] == [2]
    assert env["report"]["identity_gap"] <= 1e-9


def test_verify_certificate_3sat_roundtrip(capsys, tmp_path, cnf_file):
    bundle = tmp_path / "bundle.json"
    rc, env, _ = run_json(capsys, "reduce-3sat", cnf_file, "--out", str(bundle))
    assert rc == 0 and env["report"]["K"] == 22
    cnf = model.read_cnf_dimacs(CNF_TEXT)
    gadget = reduce_3sat(cnf)

    good = tmp_path / "sat.json"
    good.write_text(model.dumps(beamformers_from_assignment((0, 0, 1, 0), gadget)))
    rc, env, _ = run_json(capsys, "verify-certificate", str(bundle), str(good))
    assert rc == 0
    assert env["verdict"] == "feasible"
    assert env["report"]["assignment"] == [0, 0, 1, 0]

    bad = tmp_path / "unsat.json"
    bad.write_text(model.dumps(beamformers_from_assignment((0, 0, 0, 0), gadget)))
    rc, env, _ = run_json(capsys, "verify-certificate", str(bundle), str(bad))
    assert rc == 1
    assert env["verdict"] == "infeasible"
    assert env["report"]["max_constraint_violation"] > 1e-3


MAXCUT_BUNDLE = {
    "report": {"kind": "maxcut", "source": model.to_json_dict(model.read_graph_dimacs(EDGE_GRAPH))}
}
SAT_BUNDLE = {
    "report": {"kind": "3sat", "source": model.to_json_dict(model.read_cnf_dimacs(CNF_TEXT))}
}
CUT_CERT = {"type": "PowerVector", "version": 1, "p": [1.0, 0.0, 0.0, 1.0, 0.7, 0.7]}
NO_P = {"type": "PowerVector", "version": 1}


@pytest.mark.parametrize(
    "argv,files",
    [
        (["verify-certificate", "a.json", "b.json"], {"a.json": {"kind": "maxcut"}, "b.json": CUT_CERT}),
        (["verify-certificate", "a.json", "b.json"], {"a.json": [MAXCUT_BUNDLE], "b.json": CUT_CERT}),
        (["verify-certificate", "a.json", "b.json"], {"a.json": MAXCUT_BUNDLE, "b.json": [CUT_CERT]}),
        (["verify-certificate", "a.json", "b.json"], {"a.json": MAXCUT_BUNDLE, "b.json": NO_P}),
        (["eval-outage", "inst.json", "b.json", "--rates", "0.1,0.1"], {"b.json": NO_P}),
        (["verify", "sat-equiv", "--in", "a.json"], {"a.json": MAXCUT_BUNDLE}),
        (["verify", "maxcut-equiv", "--in", "a.json"], {"a.json": SAT_BUNDLE}),
    ],
    ids=[
        "bundle-without-source",
        "bundle-is-list",
        "certificate-is-list",
        "power-vector-without-p",
        "eval-outage-power-vector-without-p",
        "sat-equiv-given-maxcut-bundle",
        "maxcut-equiv-given-3sat-bundle",
    ],
)
def test_malformed_json_input_exits_2(capsys, tmp_path, inst_file, argv, files):
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    paths = {"inst.json": inst_file, "a.json": str(tmp_path / "a.json"), "b.json": str(tmp_path / "b.json")}
    rc, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "bundle",
    [
        [1, 2],
        {"kind": "maxcut"},
        SAT_BUNDLE,
        {"kind": "maxcut", "source": SAT_BUNDLE["report"]["source"]},
    ],
    ids=["list", "no-source", "3sat-bundle", "maxcut-kind-with-cnf-source"],
)
def test_malformed_piped_bundle_exits_2(capsys, monkeypatch, bundle):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(bundle)))
    rc, out, err = run(capsys, "verify", "maxcut-equiv")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_certificate_rejects_foreign_bundle(capsys, tmp_path):
    bundle = tmp_path / "junk.json"
    bundle.write_text(json.dumps({"report": {"hello": 1}}))
    cert = power_file(tmp_path, [1.0])
    rc, out, err = run(capsys, "verify-certificate", str(bundle), cert)
    assert rc == 2
    assert "reduction bundle" in err


# -- verify modes and constants ---------------------------------------------

@pytest.mark.parametrize(
    "mode,extra",
    [
        ("lemma2", ["--step", "0.1"]),
        ("lemma3", ["--trials", "3"]),
        ("lemma5", []),
        ("maxcut-equiv", ["--trials", "2"]),
        ("sat-equiv", ["--trials", "2"]),
        ("algorithm1", ["--trials", "2"]),
    ],
)
def test_verify_modes_pass(capsys, mode, extra):
    rc, env, _ = run_json(capsys, "verify", mode, "--seed", "1", *extra)
    assert rc == 0
    assert env["verdict"] == "pass"
    assert env["report"]["mode"] == mode


def test_verify_deterministic_output(capsys):
    argv = ["verify", "maxcut-equiv", "--trials", "2", "--seed", "5"]
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_paper_constants_pass(capsys):
    rc, env, _ = run_json(capsys, "paper-constants")
    assert rc == 0
    assert env["verdict"] == "pass"
    consts = env["report"]["constants"]
    assert len(consts) == 6
    for entry in consts.values():
        assert abs(entry["computed"] - entry["reference"]) <= 5e-4
