"""Command-line front end: one subcommand per procedure, JSON reports out.

Exit codes: 0 on success, 1 on usage errors (bad flags, unreadable inputs),
2 when a checked property fails: an exhausted certificate search, a stable
lottery that misses its threshold, or a schedule inequality that does not
hold.  Reports are printed to stdout (or --out) with a leading timestamp
field; everything after the timestamp is a pure function of flags and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from .distortion import (
    BiasedMetricSpec,
    biased_distortion,
    biased_report,
    lp_distortion,
)
from .elections import (
    Lottery,
    election_from_file,
    election_to_json,
)
from .generators import FAMILIES, generate_election
from .lotteries import StableLotteryError, maximal_lottery, stable_k_lottery
from .mixing import (
    SampleScaleError,
    appendix_b_checks,
    flatten_to_uniform,
    mix_params,
    mixing_requirements,
    mixing_rule,
    multiset_search,
)
from .pruning import (
    build_threshold_digraph,
    dump_digraph,
    is_theta_regular,
    quasi_kernel,
    repapx_pruned_lottery,
    restrict_election,
)
from .sampling import RepApxSamplingError, sample_until_repapx
from .sweep import RULES, SweepConfig, jsonable, run_sweep

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 (default is 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _emit(payload: dict, out: str | None) -> None:
    body = {"timestamp": datetime.now(timezone.utc).isoformat()} | payload
    text = json.dumps(jsonable(body), indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _scalar(v):
    """Bias/weight scalar from JSON: {num, den}, int, float, or '2/3' string."""
    if isinstance(v, dict):
        return Fraction(v["num"], v["den"])
    if isinstance(v, bool):
        raise ValueError("boolean is not a scalar")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return v
    if isinstance(v, str):
        return Fraction(v)
    raise ValueError(f"unsupported scalar {v!r}")


def _load_spec(path: str) -> BiasedMetricSpec:
    with open(path) as fh:
        obj = json.load(fh)
    return BiasedMetricSpec({c: _scalar(v) for c, v in obj["x"].items()},
                            obj["i_star"])


def _load_lottery(path: str) -> Lottery:
    with open(path) as fh:
        return Lottery.from_json(json.load(fh))


def _cmd_generate(args) -> int:
    e = generate_election(args.family, args.n, args.m, args.seed,
                          path=args.path)
    text = json.dumps(election_to_json(e), indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_solve_ml(args) -> int:
    e = election_from_file(args.election)
    d = maximal_lottery(e)
    _emit({"lottery": d, "support": list(d.support()),
           "game_value": Fraction(1, 2)}, args.out)
    return 0


def _cmd_solve_sl(args) -> int:
    e = election_from_file(args.election)
    try:
        pair = stable_k_lottery(e, args.k, tol_eq=args.tol_eq)
    except StableLotteryError as err:
        _emit({"error": str(err),
               "best_achieved": float(err.achieved_value),
               "best": err.best}, args.out)
        return 2
    _emit({"lottery": pair.attacker, "k": pair.k,
           "achieved_value": pair.achieved_value,
           "threshold": Fraction(1, pair.k + 1)}, args.out)
    return 0


def _cmd_sample(args) -> int:
    e = election_from_file(args.election)
    if args.base == "ml":
        base = maximal_lottery(e)
    else:
        base = stable_k_lottery(e, args.k).attacker
    try:
        cert = sample_until_repapx(e, base, args.k, args.epsilon, args.gamma,
                                   args.seed, max_attempts=args.max_attempts,
                                   q=args.q)
    except RepApxSamplingError as err:
        _emit({"error": str(err), "best": err.best.to_json()}, args.out)
        return 2
    _emit(cert.to_json(), args.out)
    return 0


def _cmd_prune(args) -> int:
    e = election_from_file(args.election)
    g = build_threshold_digraph(e, args.theta)
    kernel = quasi_kernel(g)
    restricted = restrict_election(e, kernel.members)
    payload = {
        "theta": g.theta,
        "edges": dump_digraph(g).splitlines(),
        "quasi_kernel": list(kernel.members),
        "restriction_theta_regular": is_theta_regular(restricted, args.theta),
    }
    code = 0
    if args.epsilon is not None:
        try:
            out = repapx_pruned_lottery(e, args.epsilon, args.k, args.theta,
                                        args.seed, gamma=args.gamma)
            payload["cert"] = out["cert"].to_json()
        except RepApxSamplingError as err:
            payload["error"] = str(err)
            payload["best"] = err.best.to_json()
            code = 2
    _emit(payload, args.out)
    return code


def _cmd_mix(args) -> int:
    params = mix_params(args.k)
    if args.practical_eps1 is None:
        _emit({"requirements": mixing_requirements(params),
               "note": "sampling not run; pass --practical-eps1"}, args.out)
        return 0
    if args.election is None:
        sys.stderr.write("mix: --election is required with --practical-eps1\n")
        return 1
    e = election_from_file(args.election)
    try:
        out = mixing_rule(e, params, args.seed,
                          practical_eps1=args.practical_eps1,
                          practical_eps2=args.practical_eps2)
    except SampleScaleError as err:
        _emit({"error": str(err), "requirements": err.requirements}, args.out)
        return 1
    flat = flatten_to_uniform(out["lottery"])
    _emit({
        "lottery": out["lottery"],
        "mu_used": out["mu_used"],
        "pruned": list(out["pruned"]),
        "components": {name: c.to_json()
                       for name, c in out["components"].items()},
        "roster": {"counts": dict(flat.roster.counts),
                   "size": flat.roster.size},
    }, args.out)
    return 0


def _cmd_distortion(args) -> int:
    e = election_from_file(args.election)
    d = _load_lottery(args.lottery)
    if args.method == "lp":
        report = lp_distortion(e, d, args.mode)
        _emit({"report": report.to_json()}, args.out)
        return 0
    if args.spec is None:
        sys.stderr.write("distortion: --method biased requires --spec\n")
        return 1
    spec = _load_spec(args.spec)
    detail = biased_distortion(e, spec, d)
    report = biased_report(e, spec, d, detail=detail)
    _emit({"report": report.to_json(),
           "L": detail["L"], "R": detail["R"],
           "degenerate": detail["degenerate"]}, args.out)
    return 0


def _cmd_search_multiset(args) -> int:
    e = election_from_file(args.election)
    found = multiset_search(e, args.epsilon, args.max_size, mode=args.mode,
                            workers=args.workers)
    if found is None:
        _emit({"found": False, "max_size": args.max_size,
               "target": 3 - args.epsilon}, args.out)
        return 0
    _emit({
        "found": True,
        "roster": {"counts": dict(found["roster"].roster.counts),
                   "size": found["roster"].roster.size},
        "distortion": float(found["distortion"]),
        "reference": found["report"].reference_candidate,
    }, args.out)
    return 0


def _cmd_appendix_check(args) -> int:
    report = appendix_b_checks(args.k_min, args.k_max)
    _emit(report, args.out)
    return 0 if report["all_ok"] else 2


def _cmd_sweep(args) -> int:
    rule_params = {}
    for name in ("k", "epsilon", "theta", "gamma", "tol_eq",
                 "practical_eps1", "practical_eps2"):
        val = getattr(args, name)
        if val is not None:
            rule_params[name] = val
    cfg = SweepConfig(
        generator=args.generator,
        n_range=(args.n_min, args.n_max),
        m_range=(args.m_min, args.m_max),
        trials=args.trials,
        seed=args.seed,
        rule=args.rule,
        rule_params=rule_params,
        distortion_method=args.method,
        csv_path=args.csv,
        json_path=args.json,
        corpus_path=args.corpus,
        workers=args.workers,
    )
    result = run_sweep(cfg)
    errors = sum(1 for r in result["rows"] if r["status"] != "ok")
    _emit({"trials": len(result["rows"]), "errors": errors,
           "aggregates": result["aggregates"]}, args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="lotdist",
                     description="Lottery voting rules and their distortion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit one election as JSON")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--path", help="directory for file-corpus")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve-ml", help="exact maximal lottery")
    p.add_argument("--election", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve_ml)

    p = sub.add_parser("solve-sl", help="stable k-lottery")
    p.add_argument("--election", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol-eq", type=float, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve_sl)

    p = sub.add_parser("sample", help="resample until a certificate holds")
    p.add_argument("--election", required=True)
    p.add_argument("--base", choices=("ml", "sl"), default="ml")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q", type=int)
    p.add_argument("--max-attempts", type=int, default=1000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("prune", help="threshold digraph and quasi-kernel")
    p.add_argument("--election", required=True)
    p.add_argument("--theta", required=True,
                   help="threshold in (1/2, 1], e.g. 0.6 or 3/5")
    p.add_argument("--epsilon", type=float,
                   help="also certify a sampled stable lottery on the kernel")
    p.add_argument("--k", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("mix", help="two-component mixture rule")
    p.add_argument("--k", type=int, default=7)
    p.add_argument("--election")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--practical-eps1", type=float)
    p.add_argument("--practical-eps2", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mix)

    p = sub.add_parser("distortion", help="worst-case distortion of a lottery")
    p.add_argument("--election", required=True)
    p.add_argument("--lottery", required=True)
    p.add_argument("--mode", choices=("float", "exact"), default="float")
    p.add_argument("--method", choices=("lp", "biased"), default="lp")
    p.add_argument("--spec", help="bias vector JSON for --method biased")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_distortion)

    p = sub.add_parser("search-multiset",
                       help="smallest roster beating 3 - epsilon")
    p.add_argument("--election", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--mode", choices=("float", "exact"), default="float")
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search_multiset)

    p = sub.add_parser("appendix-check",
                       help="re-verify the parameter schedule inequalities")
    p.add_argument("--k-min", type=int, default=7)
    p.add_argument("--k-max", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_appendix_check)

    p = sub.add_parser("sweep", help="batch trials over a generator grid")
    p.add_argument("--generator", required=True, choices=FAMILIES)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--m-min", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rule", required=True, choices=RULES)
    p.add_argument("--method", choices=("float", "exact", "none"),
                   default="float")
    p.add_argument("--k", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--theta")
    p.add_argument("--gamma", type=float)
    p.add_argument("--tol-eq", dest="tol_eq", type=float)
    p.add_argument("--practical-eps1", dest="practical_eps1", type=float)
    p.add_argument("--practical-eps2", dest="practical_eps2", type=float)
    p.add_argument("--csv")
    p.add_argument("--json")
    p.add_argument("--corpus")
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # _Parser.error raises with code 1
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, TypeError, RuntimeError,
            json.JSONDecodeError) as err:
        sys.stderr.write(f"lotdist: error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
