"""Command-line front end.

Loads a JSON config, dispatches one solver command, prints a short console
summary (normalized powers to 2 decimals, utilities to 3), and writes
machine-readable artifacts <command>.json / <command>.csv into the output
directory.  Exit codes: 0 success, 2 validation error, 3 solver
non-convergence, 4 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import ConfigError, RunConfig, default_config_path, load_config
from .continuous import (PricingConfig, SolveReport, br_dynamics, priced_responder,
                         trace_csv_rows)
from .efficiency import (UtilityPoint, fairness_projection, grid_csv_rows,
                         nash_bargaining, pareto_frontier, social_optimum,
                         utility_grid, utility_point)
from .finite import (FiniteGame, JointDistribution, is_correlated_equilibrium,
                     iterated_dominance, payoff, pure_nash)
from .network import NetworkModel
from .repeated import (DiscountSpec, TriggerPolicy, min_discount,
                       simulate_trigger, trigger_csv_rows)

__all__ = ["main"]


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _fmt_vec(values: Sequence[float], decimals: int) -> str:
    return "[" + ", ".join(f"{v:.{decimals}f}" for v in values) + "]"


class Output(NamedTuple):
    """What a command produced, for ``main`` to write: ``<name>.json`` holding
    ``data`` and, if ``csv`` (a header and the body text) is given,
    ``<name>.csv``.  With no ``name`` nothing is written; a ``failure``
    message makes the run exit 3.  Commands write no file themselves."""

    name: Optional[str] = None
    data: object = None
    csv: Optional[tuple[list[str], Sequence[str]]] = None
    failure: Optional[str] = None


def _table(header: list[str], rows: list[list]) -> tuple[list[str], list[str]]:
    """A CSV header and rows as the header and body text ``Output`` takes."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return header, [buf.getvalue()]


def _write(outdir: Path, out: Output) -> list[Path]:
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / f"{out.name}.json"]
    paths[0].write_text(json.dumps(out.data, indent=2) + "\n", encoding="utf-8")
    if out.csv is not None:
        header, body = out.csv
        paths.append(outdir / f"{out.name}.csv")
        with paths[1].open("w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(body)
    return paths


def _report_lines(args, cfg: RunConfig, report: SolveReport, label: str) -> None:
    norm_powers = report.solution.normalized(cfg.model.noise_power)
    _say(args, f"{label}/σ² = {_fmt_vec(norm_powers, 2)}")
    _say(args, f"σ²u/t = {_fmt_vec(report.normalized_utilities, 3)}")
    _say(args, f"γ = {_fmt_vec(report.sinrs, 2)}  "
               f"({report.iterations} iterations, residual {report.residual:.2e})")


def _unconverged(report: SolveReport) -> Optional[str]:
    if report.converged:
        return None
    return (f"best-response dynamics did not converge "
            f"(residual {report.residual:.3e} > tol {report.tolerance:.1e})")


def _dynamics(cfg: RunConfig, alpha: Optional[float] = None) -> SolveReport:
    """Best-response dynamics of the unpriced game, or priced at ``alpha``."""
    responder = None if alpha is None else priced_responder(PricingConfig(alpha))
    return br_dynamics(cfg.model, responder=responder, tol=cfg.search.br_tol,
                       max_iter=cfg.search.max_iter)


def _grid_n(cfg: RunConfig, args) -> int:
    return cfg.search.n_per_axis if args.n is None else args.n


def _point_row(pt: UtilityPoint) -> list[float]:
    return [*pt.profile.powers, *pt.utilities, *pt.normalized]


def _point_dict(pt: UtilityPoint) -> dict:
    return {"profile": list(pt.profile.powers),
            "utilities": list(pt.utilities),
            "normalized": list(pt.normalized)}


_POINT_HEADER = ["s1", "s2", "u1", "u2", "u1_norm", "u2_norm"]


# -- finite ------------------------------------------------------------

def _matrix_lines(game: FiniteGame) -> list[str]:
    s1, s2 = game.strategies
    lines = ["payoffs (player 1 rows, player 2 columns):"]
    lines.append(" " * 10 + "".join(f"{f's2={v:.2f}':>18}" for v in s2))
    for i, a in enumerate(s1):
        cells = ""
        for j in range(len(s2)):
            u = payoff(game, (i, j))
            cells += f"{'(' + ', '.join(f'{v:.2f}' for v in u) + ')':>18}"
        lines.append(f"{f's1={a:.2f}':>10}" + cells)
    return lines


def cmd_finite(cfg: RunConfig, args) -> Output:
    if cfg.finite is None:
        raise ConfigError("finite: section missing from config (required by this command)")
    scenario = args.scenario or cfg.finite.scenario
    game = cfg.finite.build(cfg.model, scenario)
    reduced, log = iterated_dominance(game)
    nash = sorted(pure_nash(game))

    _say(args, f"scenario: {scenario} (on/off power level {game.strategies[0][-1]:.2f})")
    for line in _matrix_lines(game):
        _say(args, line)
    if log:
        for e in log:
            _say(args, f"round {e.round}: player {e.player + 1} drops s={e.strategy:.2f} "
                       f"(dominated by s={e.dominator:.2f})")
        survivors = " x ".join("{" + ", ".join(f"{v:.2f}" for v in row) + "}"
                               for row in reduced.strategies)
        _say(args, f"iterated dominance leaves {survivors}")
    else:
        _say(args, "no strictly dominated strategies")
    for joint in nash:
        _say(args, f"pure NE: {_fmt_vec(game.profile_values(joint), 2)}")
    if not nash:
        _say(args, "no pure NE")

    correlated = None
    if scenario == "ic" or args.ce_uniform:
        if nash:
            shape = [len(s) for s in game.strategies]
            dist = JointDistribution.uniform_over(shape, nash)
            holds, worst = is_correlated_equilibrium(game, dist)
            verdict = "holds" if holds else "fails"
            _say(args, f"uniform mixture over the {len(nash)} pure NE(s): "
                       f"correlated equilibrium {verdict} (worst slack {worst:.2e})")
            correlated = {"checked": True, "holds": holds, "worst_slack": worst,
                          "distribution": dist.probabilities.tolist()}
        else:
            _say(args, "no pure NE; skipping the uniform-mixture check")
            correlated = {"checked": False}

    artifact = {
        "scenario": scenario,
        "strategies": [list(r) for r in game.strategies],
        "payoffs": game.payoffs.tolist(),
        "eliminations": [{"round": e.round, "player": e.player,
                          "strategy": e.strategy, "dominator": e.dominator}
                         for e in log],
        "reduced_strategies": [list(r) for r in reduced.strategies],
        "pure_nash": [list(game.profile_values(j)) for j in nash],
        "correlated": correlated,
    }
    return Output("finite", artifact)


# -- continuous --------------------------------------------------------

def cmd_ne(cfg: RunConfig, args) -> Output:
    report = _dynamics(cfg)
    _report_lines(args, cfg, report, "s*")
    return Output("ne", report.to_dict(), _table(*trace_csv_rows(cfg.model, report)),
                  _unconverged(report))


def _resolve_alpha(cfg: RunConfig, args) -> float:
    if args.alpha is not None:
        if args.alpha < 0:
            raise ConfigError("--alpha must be >= 0")
        return args.alpha
    if cfg.pricing is None:
        raise ConfigError("pricing: no alpha configured; pass --alpha or add a "
                          "pricing section")
    return cfg.pricing.alpha


def _parse_sweep(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--sweep expects lo:hi:steps, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--sweep expects lo:hi:steps, got {text!r}") from exc
    if steps < 1 or lo < 0 or hi < lo:
        raise ConfigError("--sweep needs 0 <= lo <= hi and steps >= 1")
    return np.linspace(lo, hi, steps)


def cmd_pricing(cfg: RunConfig, args) -> Output:
    if args.sweep:
        runs = []
        for alpha in map(float, _parse_sweep(args.sweep)):
            report = _dynamics(cfg, alpha)
            runs.append((alpha, report))
            norm_powers = report.solution.normalized(cfg.model.noise_power)
            _say(args, f"α = {alpha:.4g}: s̃*/σ² = {_fmt_vec(norm_powers, 2)}, "
                       f"σ²u/t = {_fmt_vec(report.normalized_utilities, 3)}")
        header = ["alpha", "s_1", "s_2", "u_1", "u_2", "u1_norm", "u2_norm",
                  "iterations", "converged"]
        rows = [[alpha, *r.solution.powers, *r.utilities, *r.normalized_utilities,
                 r.iterations, int(r.converged)] for alpha, r in runs]
        artifact = [{"alpha": alpha, **r.to_dict()} for alpha, r in runs]
        bad = [f"{alpha:.4g}" for alpha, r in runs if not r.converged]
        return Output("pricing_sweep", artifact, _table(header, rows),
                      f"no convergence at alpha = {', '.join(bad)}" if bad else None)

    alpha = _resolve_alpha(cfg, args)
    report = _dynamics(cfg, alpha)
    _say(args, f"α = {alpha:.4g}")
    _report_lines(args, cfg, report, "s̃*")
    return Output("pricing", {"alpha": alpha, **report.to_dict()},
                  _table(*trace_csv_rows(cfg.model, report)), _unconverged(report))


# -- efficiency --------------------------------------------------------

def cmd_pareto(cfg: RunConfig, args) -> Output:
    n = _grid_n(cfg, args)
    points = utility_grid(cfg.model, n)
    frontier = pareto_frontier(points)
    artifact = {"n_per_axis": n,
                "frontier": [_point_dict(pt) for pt in frontier]}
    _say(args, f"sampled {len(points)} profiles on a {n} x {n} grid; "
               f"frontier holds {len(frontier)} points")
    lo, hi = frontier[0].normalized, frontier[-1].normalized
    _say(args, f"frontier runs from σ²u/t = {_fmt_vec(lo, 3)} to {_fmt_vec(hi, 3)}")
    return Output("pareto", artifact, grid_csv_rows(points, frontier))


def cmd_social(cfg: RunConfig, args) -> Output:
    so = social_optimum(cfg.model, cfg.weights, _grid_n(cfg, args), cfg.search.refine_tol)
    _say(args, f"š/σ² = {_fmt_vec(so.profile.normalized(cfg.model.noise_power), 2)}")
    _say(args, f"σ²u/t = {_fmt_vec(so.normalized, 3)}")
    return Output("social", {"weights": list(cfg.weights.w), **_point_dict(so)},
                  _table(_POINT_HEADER, [_point_row(so)]))


def cmd_nbs(cfg: RunConfig, args) -> Output:
    ne = _dynamics(cfg)
    if not ne.converged:
        return Output(failure=_unconverged(ne))
    n = _grid_n(cfg, args)
    disagreement = utility_point(cfg.model, ne.solution.powers)
    nbs = nash_bargaining(cfg.model, disagreement, n, cfg.search.refine_tol)
    artifact = {"disagreement": _point_dict(disagreement), "solution": _point_dict(nbs)}
    rows = [_point_row(nbs)]
    _say(args, f"ṡ/σ² = {_fmt_vec(nbs.profile.normalized(cfg.model.noise_power), 2)}")
    _say(args, f"σ²u/t = {_fmt_vec(nbs.normalized, 3)}")
    if args.fairness:
        fair = fairness_projection(cfg.model, disagreement, n, cfg.search.refine_tol)
        artifact["fairness"] = _point_dict(fair)
        rows.append(_point_row(fair))
        _say(args, f"equal-gain point: σ²u/t = {_fmt_vec(fair.normalized, 3)}")
    return Output("nbs", artifact, _table(_POINT_HEADER, rows))


# -- repeated ----------------------------------------------------------

def cmd_repeated(cfg: RunConfig, args) -> Output:
    ne = _dynamics(cfg)
    if not ne.converged:
        return Output(failure=_unconverged(ne))
    so = social_optimum(cfg.model, cfg.weights, _grid_n(cfg, args), cfg.search.refine_tol)
    policy = TriggerPolicy(cooperate_profile=so.profile, punish_profile=ne.solution)
    dmin = min_discount(cfg.model, policy)

    if args.deviant is not None and not 1 <= args.deviant <= cfg.model.num_players:
        raise ConfigError(f"--deviant must be a player number in "
                          f"1..{cfg.model.num_players}")
    if args.stages < 0:
        raise ConfigError("--stages must be >= 0")
    if args.deviate_at < 0:
        raise ConfigError("--deviate-at must be >= 0")
    deviant = None if args.deviant is None else args.deviant - 1
    delta = args.delta if args.delta is not None else (
        dmin + 0.05 if dmin + 0.05 < 1.0 else 0.5 * (1.0 + dmin))
    if not 0.0 <= delta < 1.0:
        raise ConfigError("--delta must be in [0, 1)")
    spec = DiscountSpec(delta=delta)
    payoffs = simulate_trigger(cfg.model, policy, spec, deviant, args.deviate_at)

    scale = cfg.model.noise_power / cfg.model.rate_scale
    norm = lambda vals: [v * scale for v in vals]
    _say(args, f"δ̲ = {dmin:.3f}")
    _say(args, f"cooperate σ²u/t = {_fmt_vec(norm(so.utilities), 3)}, "
               f"punish σ²u/t = {_fmt_vec(norm(ne.utilities), 3)}")
    _say(args, f"δ = {delta:.3f}: discounted σ²u/t = {_fmt_vec(norm(payoffs), 3)}"
               + ("" if deviant is None else
                  f" (player {args.deviant} deviates at stage {args.deviate_at})"))
    if deviant is not None:
        gain = payoffs[deviant] - so.utilities[deviant]
        verdict = "profitable" if gain > 0 else "unprofitable"
        _say(args, f"deviation is {verdict} (gain {gain * scale:+.4f} in σ²u/t)")

    artifact = {
        "min_discount": dmin,
        "delta": delta,
        "deviant": args.deviant,
        "deviate_at": args.deviate_at,
        "cooperate_profile": list(policy.cooperate_profile.powers),
        "punish_profile": list(policy.punish_profile.powers),
        "u_cooperate": list(so.utilities),
        "u_punish": list(ne.utilities),
        "discounted": list(payoffs),
        "normalized_discounted": norm(payoffs),
    }
    return Output("repeated", artifact, _table(*trigger_csv_rows(
        cfg.model, policy, spec, deviant, args.deviate_at, args.stages)))


# -- driver ------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icpower",
        description="Game-theoretic power control on the two-transmitter "
                    "interference channel.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config file (default: bundled reference network)")
    parser.add_argument("--out", metavar="DIR",
                        help="artifact directory (default: from config)")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON artifact to stdout")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the console summary")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("finite", help="on/off transmission games: payoffs, "
                                       "dominance, pure NE, CE check")
    sp.add_argument("--scenario", choices=("nfe", "ic"),
                    help="which finite scenario (default: from config)")
    sp.add_argument("--ce-uniform", action="store_true",
                    help="also check the uniform mixture over pure NEs")
    sp.set_defaults(func=cmd_finite)

    sp = sub.add_parser("ne", help="continuous-power Nash equilibrium via "
                                   "best-response dynamics")
    sp.set_defaults(func=cmd_ne)

    sp = sub.add_parser("pricing", help="equilibrium under a linear power surcharge")
    sp.add_argument("--alpha", type=float, help="surcharge per watt "
                                                "(default: from config)")
    sp.add_argument("--sweep", metavar="LO:HI:STEPS",
                    help="run a range of surcharge levels")
    sp.set_defaults(func=cmd_pricing)

    sp = sub.add_parser("pareto", help="sample the utility plane and extract "
                                       "the Pareto frontier")
    sp.add_argument("--n", type=int, help="grid points per axis (default: from config)")
    sp.set_defaults(func=cmd_pareto)

    sp = sub.add_parser("social", help="maximize weighted sum utility")
    sp.add_argument("--n", type=int, help="grid points per axis (default: from config)")
    sp.set_defaults(func=cmd_social)

    sp = sub.add_parser("nbs", help="Nash bargaining solution against the NE")
    sp.add_argument("--n", type=int, help="grid points per axis (default: from config)")
    sp.add_argument("--fairness", action="store_true",
                    help="also report the equal-gain frontier point")
    sp.set_defaults(func=cmd_nbs)

    sp = sub.add_parser("repeated", help="grim-trigger analysis: minimum "
                                         "discount factor and trigger paths")
    sp.add_argument("--delta", type=float, help="discount factor for the "
                                                "simulated path (default: δ̲+0.05)")
    sp.add_argument("--deviant", type=int, metavar="PLAYER",
                    help="player number (1-based) that deviates once")
    sp.add_argument("--deviate-at", type=int, default=0, metavar="STAGE",
                    help="stage of the deviation (default: 0)")
    sp.add_argument("--stages", type=int, default=20,
                    help="stages to export in the CSV trace (default: 20)")
    sp.add_argument("--n", type=int, help="grid points per axis for the "
                                          "cooperative point (default: from config)")
    sp.set_defaults(func=cmd_repeated)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config if args.config else default_config_path())
        out = args.func(cfg, args)
        if out.name is not None:
            paths = _write(Path(args.out or cfg.output.directory), out)
            _say(args, "wrote " + ", ".join(str(p) for p in paths))
            if args.json:
                print(json.dumps(out.data, indent=2))
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if out.failure is not None:
        print(f"error: {out.failure}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
