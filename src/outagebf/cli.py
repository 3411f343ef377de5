"""Command-line interface.

Every subcommand prints one JSON report to stdout; reports are deterministic
given the input files and --seed (wall time goes to stderr).  Exit codes:
0 = success / feasible / pass, 1 = infeasible / fail, 2 = usage or input
errors.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
import time

import numpy as np

from . import model, sampling
from .model import BeamformerSet, CnfFormula, ParseError, SisoInstance, WeightedGraph
from .outage import LHS_SLACK, mc_outage, outage_lhs_all
from .reductions import (
    EDGE_BUDGET,
    GADGET_RHO,
    GADGET_SIGMA2,
    CertificateError,
    assignment_from_beamformers,
    beamformers_from_assignment,
    check_feasibility_certificate,
    cut_from_powers,
    gadget_constants,
    powers_from_cut,
    reduce_3sat,
    reduce_maxcut,
    srm_value_identity,
)
from .solvers import (
    mmf_bisection,
    mmf_modulus_bound,
    outage_balancing_siso,
    single_user_objective_F,
    single_user_objective_f,
    srm_rates_from_powers,
)
from .oracles import (
    GridSpec,
    discrete_srm_search,
    exhaustive_3sat,
    exhaustive_maxcut,
    gadget_grid_objective,
    grid_search,
    sign_pattern,
)
from .zeta import ZetaContext, dzeta_e_dp, dzeta_v_dp, solve_zeta, zeta_upper_bound

_CONST_TOL = 5e-4
_IDENTITY_TOL = 1e-9


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_object(text: str, source: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{source}: invalid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{source}: expected a JSON object")
    return obj


def _load_json(path: str) -> dict:
    return _parse_object(_read_text(path), path)


def _power_vector(d: dict) -> np.ndarray:
    try:
        return np.array([float(v) for v in d["p"]])
    except (KeyError, TypeError, ValueError):
        raise ParseError("a PowerVector needs a list of numbers 'p'") from None


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ParseError(f"{flag} expects a comma-separated float list, got {text!r}") from None


def _emit(args, subcommand: str, inputs: dict, report: dict, verdict: str, t0: float) -> int:
    out = {
        "subcommand": subcommand,
        "seed": args.seed,
        "inputs": {p: _sha256(p) for p in inputs.values()},
        "verdict": verdict,
        "report": report,
    }
    text = _human(out) if args.human else json.dumps(out, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(out, indent=2) + "\n")
    print(f"elapsed_s={time.perf_counter() - t0:.3f}", file=sys.stderr)
    return {"pass": 0, "feasible": 0, "ok": 0, "fail": 1, "infeasible": 1}[verdict]


def _human(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(_human(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {json.dumps(v)}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(f"{pad}- {json.dumps(v)}" for v in obj)
    return f"{pad}{json.dumps(obj)}"


def _round_list(x, nd: int = 12):
    return [round(float(v), nd) for v in np.asarray(x).ravel()]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval_outage(args, t0):
    instance = model.from_json_dict(_load_json(args.instance))
    sol = _load_json(args.solution)
    rates = np.array(_parse_floats(args.rates, "--rates"))
    if isinstance(instance, SisoInstance):
        if sol.get("type") == "PowerVector":
            x = _power_vector(sol)
        else:
            decoded = model.from_json_dict(sol)
            if not (isinstance(decoded, BeamformerSet) and decoded.Nt == 1):
                raise ParseError(
                    "SISO instances take PowerVector or single-antenna BeamformerSet solutions"
                )
            x = decoded.powers()
        miso = instance.to_miso()
        beams = model.beams_from_powers(x)
    else:
        if sol.get("type") == "PowerVector":
            raise ParseError("MISO instances need a BeamformerSet solution")
        beams = model.from_json_dict(sol)
        if not isinstance(beams, BeamformerSet):
            raise ParseError("solution must be a PowerVector or BeamformerSet")
        x = beams
        miso = instance
    lhs = outage_lhs_all(instance, x, rates)
    report = {
        "lhs": _round_list(lhs),
        "satisfied": [bool(v <= 1.0 + LHS_SLACK) for v in lhs],
    }
    if args.samples:
        mc = []
        for i in range(instance.K):
            est, se = mc_outage(miso, beams, float(rates[i]), i, args.samples, args.seed)
            mc.append(
                {
                    "user": i,
                    "estimate": est,
                    "stderr": se,
                    "closed_form": 1.0 - float(instance.rho[i]) if report["satisfied"][i] else None,
                }
            )
        report["mc"] = mc
        report["samples"] = args.samples
    verdict = "feasible" if all(report["satisfied"]) else "infeasible"
    return _emit(
        args, "eval-outage", {"instance": args.instance, "solution": args.solution},
        report, verdict, t0,
    )


def cmd_zeta(args, t0):
    terms = tuple(_parse_floats(args.terms, "--terms")) if args.terms else ()
    ctx = ZetaContext(sigma2=args.sigma2, rho=args.rho, terms=terms)
    z, res, its = solve_zeta(ctx, tol=args.tol, full_output=True)
    report = {
        "sigma2": args.sigma2,
        "rho": args.rho,
        "terms": list(terms),
        "zeta": z,
        "rate": math.log1p(z) / math.log(2.0),
        "upper_bound": zeta_upper_bound(ctx),
        "log_psi_residual": res,
        "iterations": its,
    }
    if len(terms) == 1:
        report["dzeta_dp"] = dzeta_v_dp(terms[0], ctx)
    elif len(terms) == 2:
        report["dzeta_dp"] = [
            dzeta_e_dp(terms[0], terms[1], ctx),
            dzeta_e_dp(terms[1], terms[0], ctx),
        ]
    return _emit(args, "zeta", {}, report, "ok", t0)


def cmd_solve_mmf(args, t0):
    instance = model.from_json_dict(_load_json(args.instance))
    if not isinstance(instance, SisoInstance):
        raise ParseError("solve-mmf-siso requires a SisoInstance")
    sol = mmf_bisection(instance, args.delta)
    lhs = outage_lhs_all(instance, sol.p, instance.alpha * sol.R) if sol.R > 0 else None
    report = {
        "R": sol.R,
        "delta": args.delta,
        "iterations": sol.iterations,
        "binding_users": list(sol.binding_users),
        "solution": {"type": "PowerVector", "version": model.SCHEMA_VERSION, "p": _round_list(sol.p, 15)},
        "residuals": _round_list(lhs - 1.0) if lhs is not None else None,
    }
    if args.trace:
        report["trace"] = [[lo, hi] for lo, hi in sol.trace]
    return _emit(args, "solve-mmf-siso", {"instance": args.instance}, report, "ok", t0)


def cmd_solve_balancing(args, t0):
    instance = model.from_json_dict(_load_json(args.instance))
    if not isinstance(instance, SisoInstance):
        raise ParseError("solve-balancing requires a SisoInstance")
    targets = _parse_floats(args.rates, "--rates")
    rho_star, p = outage_balancing_siso(instance, targets, tol=args.tol)
    report = {
        "rho_star": rho_star,
        "tol": args.tol,
        "targets": targets,
        "solution": {"type": "PowerVector", "version": model.SCHEMA_VERSION, "p": _round_list(p, 15)},
    }
    return _emit(args, "solve-balancing", {"instance": args.instance}, report, "ok", t0)


def cmd_reduce_maxcut(args, t0):
    graph = model.read_graph_dimacs(_read_text(args.graph))
    gadget = reduce_maxcut(graph)
    report = {
        "kind": "maxcut",
        "K": gadget.usermap.K,
        "source": model.to_json_dict(graph),
        "instance": model.to_json_dict(gadget.instance),
        "usermap": model.to_json_dict(gadget.usermap),
    }
    return _emit(args, "reduce-maxcut", {"graph": args.graph}, report, "ok", t0)


def cmd_reduce_3sat(args, t0):
    cnf = model.read_cnf_dimacs(_read_text(args.cnf))
    gadget = reduce_3sat(cnf)
    report = {
        "kind": "3sat",
        "K": gadget.usermap.K,
        "rbar": gadget.rbar,
        "source": model.to_json_dict(cnf),
        "instance": model.to_json_dict(gadget.instance),
        "usermap": model.to_json_dict(gadget.usermap),
    }
    return _emit(args, "reduce-3sat", {"cnf": args.cnf}, report, "ok", t0)


def _load_reduction(bundle: dict, kinds=("maxcut", "3sat")):
    body = bundle.get("report", bundle)
    body = body if isinstance(body, dict) else {}
    kind = bundle.get("kind") or body.get("kind")
    if kind not in kinds or "source" not in body:
        raise ParseError(f"not a reduction bundle (needs kind {'|'.join(kinds)} and a source)")
    source = model.from_json_dict(body["source"])
    if not isinstance(source, WeightedGraph if kind == "maxcut" else CnfFormula):
        raise ParseError(f"{kind} reduction bundle has a {type(source).__name__} source")
    return reduce_maxcut(source) if kind == "maxcut" else reduce_3sat(source)


def _identity_gap(gadget, S):
    """Weighted sum rate at the power pattern of cut S, the identity's value, their gap."""
    p = powers_from_cut(S, gadget)
    direct = float(gadget.instance.alpha @ srm_rates_from_powers(gadget.instance, p))
    predicted = srm_value_identity(gadget.graph, S, gadget)
    return direct, predicted, abs(direct - predicted)


def cmd_verify_certificate(args, t0):
    gadget = _load_reduction(_load_json(args.reduction))
    cert = _load_json(args.certificate)
    inputs = {"reduction": args.reduction, "certificate": args.certificate}
    if hasattr(gadget, "graph"):
        if cert.get("type") != "PowerVector":
            raise ParseError("max-cut certificates are PowerVector JSON")
        p = _power_vector(cert)
        try:
            S = cut_from_powers(p, gadget)
        except CertificateError as e:
            return _emit(
                args, "verify-certificate", inputs,
                {"kind": "maxcut", "error": str(e)}, "fail", t0,
            )
        # scored at the decoded pattern: the decoder accepts powers within
        # 1e-6 of it, far outside the identity's 1e-9
        direct, predicted, gap = _identity_gap(gadget, S)
        report = {
            "kind": "maxcut",
            "cut": list(S),
            "cutweight": gadget.graph.cut_weight(S),
            "weighted_sum_rate": direct,
            "identity_value": predicted,
            "identity_gap": gap,
        }
        verdict = "pass" if gap <= _IDENTITY_TOL else "fail"
        return _emit(args, "verify-certificate", inputs, report, verdict, t0)
    if cert.get("type") != "BeamformerSet":
        raise ParseError("3-SAT certificates are BeamformerSet JSON")
    beams = model.from_json_dict(cert)
    rep = check_feasibility_certificate(gadget, beams)
    report = {
        "kind": "3sat",
        "feasible": rep.feasible,
        "max_constraint_violation": rep.max_constraint_violation,
        "max_power_violation": rep.max_power_violation,
        "lhs": _round_list(rep.lhs),
    }
    try:
        report["assignment"] = list(assignment_from_beamformers(beams, gadget))
    except CertificateError as e:
        report["assignment"] = None
        report["decode_error"] = str(e)
    return _emit(
        args, "verify-certificate", inputs, report,
        "feasible" if rep.feasible else "infeasible", t0,
    )


def cmd_paper_constants(args, t0):
    table = gadget_constants()
    report = {"tolerance": _CONST_TOL, "constants": {}}
    ok = True
    for name, (computed, reference) in table.items():
        delta = computed - reference
        ok &= abs(delta) <= _CONST_TOL
        report["constants"][name] = {
            "computed": computed,
            "reference": reference,
            "delta": delta,
        }
    return _emit(args, "paper-constants", {}, report, "pass" if ok else "fail", t0)


# ---------------------------------------------------------------------------
# verify modes
# ---------------------------------------------------------------------------

def _verify_lemma2(args):
    graph = WeightedGraph(V=2, edges=((1, 2, 1.0),))
    gadget = reduce_maxcut(graph)
    grid, objective = gadget_grid_objective(gadget, args.step)
    best_point, best_val = grid_search(objective, grid)
    try:
        cut_from_powers(best_point, gadget)
        at_pattern = True
    except CertificateError:
        at_pattern = False
    # users v10, v11, v20, v21, e12, e21; a vertex at (0, 0) or (1, 1) is degenerate
    pats = ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0))
    degenerate = [
        a + b + (EDGE_BUDGET,) * 2
        for a, b in itertools.product(pats, repeat=2)
        if a[0] == a[1] or b[0] == b[1]
    ]
    worst_bad = float(np.max(objective(np.array(degenerate))))
    detail = {
        "step": args.step,
        "grid_points": grid.n_points(),
        "best_value": best_val,
        "best_point": _round_list(best_point),
        "argmax_is_discrete_pattern": at_pattern,
        "best_degenerate_value": worst_bad,
    }
    return at_pattern and worst_bad < best_val, detail


def _verify_lemma3(args):
    rng = np.random.default_rng(args.seed)
    h = 1e-5
    worst_fd = 0.0
    bad_patterns = 0
    grid = GridSpec(lower=(0.0,), upper=(1.0,), step=(1e-3,))
    for _ in range(args.trials):
        ctx = sampling.random_vertex_slice(rng)
        for p in rng.uniform(0.02, 0.98, size=3):
            fd = (
                single_user_objective_F(p + h, ctx) - single_user_objective_F(p - h, ctx)
            ) / (2 * h)
            f = single_user_objective_f(p, ctx)
            # relative above 1, absolute below: f crosses zero inside the slice
            err = abs(f - fd) / max(abs(f), abs(fd), 1.0)
            worst_fd = max(worst_fd, err)
        pat = sign_pattern(lambda x: single_user_objective_f(x, ctx), grid)
        if pat.minus_to_plus > 1 or pat.plus_to_minus > 0:
            bad_patterns += 1
    detail = {
        "trials": args.trials,
        "worst_fd_rel_error": worst_fd,
        "bad_sign_patterns": bad_patterns,
    }
    return worst_fd <= 1e-5 and bad_patterns == 0, detail


def _verify_lemma5(args):
    ps = np.arange(0.0, 2.0 + 1e-12, 0.01)
    violations = 0
    for pbar in (0.0, 0.5, 1.0, 2.0):
        zs = [solve_zeta(ZetaContext(GADGET_SIGMA2, GADGET_RHO, (p, pbar))) for p in ps]
        prods = [p * z for p, z in zip(ps, zs)]
        violations += sum(1 for a, b in zip(zs, zs[1:]) if not b < a)
        violations += sum(1 for a, b in zip(prods, prods[1:]) if not b > a)
    detail = {"grid": [0.0, 2.0, 0.01], "violations": violations}
    return violations == 0, detail


def _verify_maxcut_equiv(args, bundle=None):
    rng = np.random.default_rng(args.seed)
    if bundle is not None:
        gadgets = [_load_reduction(bundle, ("maxcut",))]
    else:
        gadgets = [
            reduce_maxcut(sampling.random_connected_graph(rng, int(rng.integers(2, 7))))
            for _ in range(args.trials)
        ]
    worst_gap = 0.0
    ok = True
    for gadget in gadgets:
        graph = gadget.graph
        S_opt, w_opt = exhaustive_maxcut(graph)
        p_best, val = discrete_srm_search(gadget)
        S_rec = cut_from_powers(p_best, gadget)
        ok &= graph.cut_weight(S_rec) == w_opt
        for mask in range(1 << graph.V):
            S = [v for v in range(1, graph.V + 1) if (mask >> (v - 1)) & 1]
            gap = _identity_gap(gadget, S)[2]
            worst_gap = max(worst_gap, gap)
        ok &= worst_gap <= _IDENTITY_TOL
    detail = {"instances": len(gadgets), "worst_identity_gap": worst_gap}
    return ok, detail


def _verify_sat_equiv(args, bundle=None):
    rng = np.random.default_rng(args.seed)
    if bundle is not None:
        gadgets = [_load_reduction(bundle, ("3sat",))]
    else:
        gadgets = []
        for _ in range(args.trials):
            N = int(rng.integers(3, 6))
            M = int(rng.integers(1, 8))
            gadgets.append(reduce_3sat(sampling.random_3cnf(rng, N, M)))
    ok = True
    for gadget in gadgets:
        sat, _ = exhaustive_3sat(gadget.cnf)
        # x_1 most significant, the order of exhaustive_3sat
        found = any(
            check_feasibility_certificate(gadget, beamformers_from_assignment(a, gadget)).feasible
            for a in itertools.product((0, 1), repeat=gadget.cnf.N)
        )
        ok &= found == sat
    detail = {"instances": len(gadgets)}
    return ok, detail


def _verify_algorithm1(args):
    rng = np.random.default_rng(args.seed)
    ok = True
    worst = 0.0
    for _ in range(args.trials):
        K = int(rng.integers(1, 4))
        inst = sampling.random_siso_instance(rng, K)
        sol = mmf_bisection(inst, args.delta)
        feas_mids = [m for m, f in sol.tested if f]
        infeas_mids = [m for m, f in sol.tested if not f]
        if feas_mids and infeas_mids:
            ok &= max(feas_mids) < min(infeas_mids)
        step = 0.05
        # per-axis steps of at most `step` whose lattice ends exactly at P_i
        axis_steps = tuple(P / math.ceil(P / step) for P in inst.P)
        grid = GridSpec(lower=(0.0,) * K, upper=tuple(inst.P), step=axis_steps)
        _, r_grid = grid_search(
            lambda pts: np.min(srm_rates_from_powers(inst, pts) / inst.alpha, axis=1), grid
        )
        band = args.delta + mmf_modulus_bound(inst, step)
        ok &= r_grid - args.delta <= sol.R <= r_grid + band
        worst = max(worst, abs(sol.R - r_grid))
    detail = {"trials": args.trials, "delta": args.delta, "worst_grid_gap": worst}
    return ok, detail


def cmd_verify(args, t0):
    bundle = None
    inputs = {}
    if args.in_path:
        bundle = _load_json(args.in_path)
        inputs["in"] = args.in_path
    elif args.mode in ("maxcut-equiv", "sat-equiv"):
        try:
            if not sys.stdin.isatty():
                text = sys.stdin.read().strip()
                if text:
                    bundle = _parse_object(text, "stdin")
        except OSError:
            pass  # no usable stdin (e.g. under a capturing test runner)
    runner = {
        "lemma2": lambda: _verify_lemma2(args),
        "lemma3": lambda: _verify_lemma3(args),
        "lemma5": lambda: _verify_lemma5(args),
        "maxcut-equiv": lambda: _verify_maxcut_equiv(args, bundle),
        "sat-equiv": lambda: _verify_sat_equiv(args, bundle),
        "algorithm1": lambda: _verify_algorithm1(args),
    }[args.mode]
    ok, detail = runner()
    report = {"mode": args.mode, **detail}
    return _emit(args, "verify", inputs, report, "pass" if ok else "fail", t0)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    common.add_argument("--human", action="store_true", help="key/value text instead of JSON")
    common.add_argument("--out", default=None, help="also write the JSON report to this path")

    parser = argparse.ArgumentParser(
        prog="outagebf",
        description="Outage-constrained coordinated beamforming: solvers, reductions, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-outage", parents=[common], help="evaluate outage constraints for a solution")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--rates", required=True, help="comma-separated per-user rates")
    p.add_argument("--samples", type=int, default=0, help="Monte-Carlo samples per user (0 = skip)")
    p.set_defaults(func=cmd_eval_outage)

    p = sub.add_parser("zeta", parents=[common], help="solve the implicit interference equation")
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--terms", default="", help="comma-separated interference powers")
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("solve-mmf-siso", parents=[common], help="max-min-fair rate by bisection")
    p.add_argument("instance")
    p.add_argument("--delta", type=float, default=1e-5)
    p.add_argument("--trace", action="store_true", help="include the bisection trace")
    p.set_defaults(func=cmd_solve_mmf)

    p = sub.add_parser("solve-balancing", parents=[common], help="largest common outage floor for fixed rates")
    p.add_argument("instance")
    p.add_argument("--rates", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_solve_balancing)

    p = sub.add_parser("reduce-maxcut", parents=[common], help="graph -> sum-rate gadget instance")
    p.add_argument("graph", help="DIMACS-like edge list ('p edge V E', 'e i j w')")
    p.set_defaults(func=cmd_reduce_maxcut)

    p = sub.add_parser("reduce-3sat", parents=[common], help="3-CNF -> feasibility gadget instance")
    p.add_argument("cnf", help="DIMACS CNF file")
    p.set_defaults(func=cmd_reduce_3sat)

    p = sub.add_parser("verify-certificate", parents=[common], help="audit a certificate against a reduction")
    p.add_argument("reduction", help="reduction bundle JSON (output of reduce-*)")
    p.add_argument("certificate", help="PowerVector or BeamformerSet JSON")
    p.set_defaults(func=cmd_verify_certificate)

    p = sub.add_parser("verify", parents=[common], help="self-contained correctness checks")
    p.add_argument(
        "mode",
        choices=["lemma2", "lemma3", "lemma5", "maxcut-equiv", "sat-equiv", "algorithm1"],
    )
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=1e-4)
    p.add_argument("--in", dest="in_path", default=None, help="reduction bundle JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("paper-constants", parents=[common], help="recompute hard-coded reference constants")
    p.set_defaults(func=cmd_paper_constants)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        return args.func(args, t0)
    except (ParseError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CertificateError as e:
        print(f"certificate rejected: {e}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
