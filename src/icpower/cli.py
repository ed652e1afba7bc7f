"""Command-line front end.

Loads a JSON config, dispatches one solver command, prints a short console
summary (normalized powers to 2 decimals, utilities to 3), and writes
machine-readable artifacts <command>.json / <command>.csv into the output
directory.  Exit codes: 0 success, 2 validation error (bad config or
flags), 3 a solver outcome on a valid config (the dynamics of ne or pricing
did not converge, or cooperation is not rational for repeated), 4 I/O error.
The parser is built once per process, at import; ``main`` only parses.
At import this module loads only ``config`` and ``network``: each command
imports the solver modules it runs when it runs, so a process compiles and
executes only those.  Only pareto builds arrays, and only it imports numpy,
through the functions of efficiency that build the utility plane.  finite
solves its 2 x 2 games in plain floats, and social, nbs and repeated search
the frontier's pieces in plain floats; nbs and repeated run no dynamics.
A command's JSON artifact is its data encoded by ``json.dumps(indent=2)``,
except pareto's: its data is that encoding's text already, set from the
CSV's own texts of the frontier's values, so that no float is formatted
twice.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .config import (SCENARIOS, ConfigError, PricingConfig, RunConfig, default_config_path,
                     load_config)
from .network import SolverOutcomeError

if TYPE_CHECKING:
    from .continuous import SolveReport
    from .efficiency import UtilityPoint
    from .finite import FiniteGame

__all__ = ["main"]


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _fmt_vec(values: Sequence[float], decimals: int) -> str:
    return "[" + ", ".join(f"{v:.{decimals}f}" for v in values) + "]"


class Output(NamedTuple):
    """What a command produced, for ``main`` to write: ``<name>.json`` holding
    ``data``, encoded with ``json.dumps(indent=2)``, or written as is where
    ``data`` is that encoding's text already, and, if ``csv`` (a header and
    the body text) is given, ``<name>.csv``.  A ``failure`` message makes
    the run exit 3 once the files are written; a command that has nothing to
    write raises instead.  Commands write no file themselves."""

    name: str
    data: object
    csv: Optional[tuple[list[str], Sequence[str]]] = None
    failure: Optional[str] = None


def _table(header: list[str], rows: list[list]) -> tuple[list[str], list[str]]:
    """A header and rows of ints and floats as ``Output`` takes them: each value
    is its ``repr``, as ``csv.writer`` and ``grid_csv_rows`` write it."""
    return header, ["".join(",".join(map(repr, row)) + "\n" for row in rows)]


def _write(outdir: Path, out: Output) -> tuple[list[Path], str]:
    """Write the artifacts; return their paths and the JSON text."""
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / f"{out.name}.json"]
    text = out.data if isinstance(out.data, str) else json.dumps(out.data, indent=2) + "\n"
    paths[0].write_text(text, encoding="utf-8")
    if out.csv is not None:
        header, body = out.csv
        paths.append(outdir / f"{out.name}.csv")
        with paths[1].open("w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(body)
    return paths, text


def _report_lines(args, cfg: RunConfig, report: SolveReport, label: str) -> None:
    norm_powers = report.solution.normalized(cfg.model.noise_power)
    _say(args, f"{label}/σ² = {_fmt_vec(norm_powers, 2)}")
    _say(args, f"σ²u/t = {_fmt_vec(report.normalized_utilities, 3)}")
    _say(args, f"γ = {_fmt_vec(report.sinrs, 2)}  "
               f"({report.iterations} iterations, residual {report.residual:.2e})")


def _cause(report: SolveReport) -> str:
    """Why unconverged dynamics stopped, e.g. 'period-4 cycle after 8 sweeps'."""
    if report.termination == "cycle":
        return f"period-{report.period} cycle after {report.iterations} sweeps"
    r, tol = report.residual, report.tolerance
    step = max(abs(a - b) for a, b in zip(*report.trace[-2:]))
    what = f"residual {r:.3e}" if r > tol else f"last step {step:.3e}"  # one is past tol
    return f"{what} > tol {tol:.1e} after {report.iterations} sweeps"


def _unconverged(report: SolveReport) -> Optional[str]:
    if report.converged:
        return None
    return f"best-response dynamics did not converge ({_cause(report)})"


def _dynamics(cfg: RunConfig, alpha: Optional[float] = None) -> SolveReport:
    """Best-response dynamics of the unpriced game, or priced at ``alpha``."""
    from .continuous import br_dynamics, priced_responder
    responder = None if alpha is None else priced_responder(PricingConfig(alpha))
    return br_dynamics(cfg.model, responder=responder, tol=cfg.search.br_tol,
                       max_iter=cfg.search.max_iter)


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
    for a, row in zip(s1, game.payoffs):
        cells = "".join(f"{'(' + ', '.join(f'{v:.2f}' for v in u) + ')':>18}" for u in row)
        lines.append(f"{f's1={a:.2f}':>10}" + cells)
    return lines


def cmd_finite(cfg: RunConfig, args) -> Output:
    from .finite import (JointDistribution, is_correlated_equilibrium, iterated_dominance,
                         pure_nash)
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
    # nash is never empty: alone, each player clears the threshold (ic: both on it;
    # nfe: the weak one on it, the strong one above), and t - c > 0 > -c, so each
    # transmits against silence, and against a transmitter iff it still succeeds.
    # (p, p) is an NE if both succeed together; else one fails, and the other alone is.
    for joint in nash:
        _say(args, f"pure NE: {_fmt_vec(game.profile_values(joint), 2)}")

    correlated = None
    if scenario == "ic" or args.ce_uniform:
        shape = [len(s) for s in game.strategies]
        dist = JointDistribution.uniform_over(shape, nash)
        holds, worst = is_correlated_equilibrium(game, dist)
        verdict = "holds" if holds else "fails"
        _say(args, f"uniform mixture over the {len(nash)} pure NE(s): "
                   f"correlated equilibrium {verdict} (worst slack {worst:.2e})")
        correlated = {"checked": True, "holds": holds, "worst_slack": worst,
                      "distribution": [list(r) for r in dist.probabilities]}

    artifact = {
        "scenario": scenario,
        **game.to_json_dict(),
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
    from .continuous import trace_csv_rows
    report = _dynamics(cfg)
    _report_lines(args, cfg, report, "s*")
    return Output("ne", report.to_dict(), _table(*trace_csv_rows(cfg.model, report)),
                  _unconverged(report))


def _resolve_alpha(cfg: RunConfig, args) -> float:
    if args.alpha is not None:
        if not math.isfinite(args.alpha):
            raise ConfigError("--alpha must be finite")
        if args.alpha < 0:
            raise ConfigError("--alpha must be >= 0")
        return args.alpha
    if cfg.pricing is None:
        raise ConfigError("pricing: no alpha configured; pass --alpha or add a "
                          "pricing section")
    return cfg.pricing.alpha


def _parse_sweep(text: str) -> list[float]:
    try:  # a wrong field count fails the unpacking
        lo_text, hi_text, steps_text = text.split(":")
        lo, hi, steps = float(lo_text), float(hi_text), int(steps_text)
    except ValueError as exc:
        raise ConfigError(f"--sweep expects lo:hi:steps, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"--sweep bounds must be finite, got {text!r}")
    if steps < 1 or lo < 0 or hi < lo:
        raise ConfigError("--sweep needs 0 <= lo <= hi and steps >= 1")
    # np.linspace(lo, hi, steps) bit for bit; a subnormal step scales i first
    div, delta = max(steps - 1, 1), hi - lo
    step = delta / div
    alphas = [(i / div * delta if step == 0 else i * step) + lo for i in range(steps)]
    return alphas[:-1] + [hi] if steps > 1 else alphas


def cmd_pricing(cfg: RunConfig, args) -> Output:
    from .continuous import trace_csv_rows
    if args.sweep:
        runs = []
        for alpha in _parse_sweep(args.sweep):
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
        bad = [f"{alpha:.4g} ({_cause(r)})" for alpha, r in runs if not r.converged]
        return Output("pricing_sweep", artifact, _table(header, rows),
                      f"no convergence at alpha = {', '.join(bad)}" if bad else None)

    alpha = _resolve_alpha(cfg, args)
    report = _dynamics(cfg, alpha)
    _say(args, f"α = {alpha:.4g}")
    _report_lines(args, cfg, report, "s̃*")
    return Output("pricing", {"alpha": alpha, **report.to_dict()},
                  _table(*trace_csv_rows(cfg.model, report)), _unconverged(report))


# -- efficiency --------------------------------------------------------

def _pareto_json(n: int, texts: list[tuple[str, ...]]) -> str:
    """pareto.json's text: ``json.dumps(indent=2)`` of ``{"n_per_axis": n,
    "frontier": [...]}`` byte for byte, with each frontier point's values
    taken from its CSV line's texts (s1, s2, u1, u2, u1_norm, u2_norm), not
    formatted again.  json.dumps lays out the document and one point around
    placeholders.  A finite float's ``repr`` is its JSON text, and every
    value is finite: at L >= 2 no utility exceeds the model's finite bound.
    The frontier is never empty, since a plane holds at least one cell."""
    doc = json.dumps({"n_per_axis": n, "frontier": ["@"]}, indent=2)
    point = json.dumps(dict.fromkeys(("profile", "utilities", "normalized"), ["%s", "%s"]),
                       indent=2).replace('"%s"', "%s").replace("\n", "\n    ")
    frontier = ",\n    ".join(point % t for t in texts)
    return doc.replace('"@"', frontier) + "\n"


def cmd_pareto(cfg: RunConfig, args) -> Output:
    """The plane at ``--n`` or the config's n_per_axis; one that cannot fit in
    memory exits 2 naming n's source."""
    from .efficiency import grid_csv_rows, pareto_frontier, utility_grid
    n = cfg.search.n_per_axis if args.n is None else args.n
    source = "search.n_per_axis" if args.n is None else "--n"
    if n < 2:  # the config rejects n_per_axis < 2, so only --n gets here
        raise ConfigError(f"{source}: n_per_axis must be >= 2")
    plane = None
    if n * n <= sys.maxsize:  # numpy indexes no larger plane
        try:
            plane = utility_grid(cfg.model, n)
        except MemoryError:
            pass
    if plane is None:
        raise ConfigError(f"{source}: the utility plane at n = {n} does not fit in memory")
    cells = pareto_frontier(plane).tolist()
    header, body, texts = grid_csv_rows(plane, cells)
    _say(args, f"sampled {n * n} profiles on a {n} x {n} grid; "
               f"frontier holds {len(cells)} points")
    lo, hi = plane.point(cells[0]).normalized, plane.point(cells[-1]).normalized
    _say(args, f"frontier runs from σ²u/t = {_fmt_vec(lo, 3)} to {_fmt_vec(hi, 3)}")
    return Output("pareto", _pareto_json(n, texts), (header, body))


def cmd_social(cfg: RunConfig, args) -> Output:
    from .efficiency import social_optimum
    so = social_optimum(cfg.model, cfg.weights)
    _say(args, f"š/σ² = {_fmt_vec(so.profile.normalized(cfg.model.noise_power), 2)}")
    _say(args, f"σ²u/t = {_fmt_vec(so.normalized, 3)}")
    return Output("social", {"weights": list(cfg.weights.w), **_point_dict(so)},
                  _table(_POINT_HEADER, [_point_row(so)]))


def cmd_nbs(cfg: RunConfig, args) -> Output:
    from .efficiency import bargaining_points, nash_bargaining, nash_equilibrium
    disagreement = nash_equilibrium(cfg.model)
    nbs, fair = (bargaining_points(cfg.model, disagreement) if args.fairness
                 else (nash_bargaining(cfg.model, disagreement), None))
    artifact = {"disagreement": _point_dict(disagreement), "solution": _point_dict(nbs)}
    rows = [_point_row(nbs)]
    _say(args, f"ṡ/σ² = {_fmt_vec(nbs.profile.normalized(cfg.model.noise_power), 2)}")
    _say(args, f"σ²u/t = {_fmt_vec(nbs.normalized, 3)}")
    if fair is not None:
        artifact["fairness"] = _point_dict(fair)
        rows.append(_point_row(fair))
        _say(args, f"equal-gain point: σ²u/t = {_fmt_vec(fair.normalized, 3)}")
    return Output("nbs", artifact, _table(_POINT_HEADER, rows))


# -- repeated ----------------------------------------------------------

def cmd_repeated(cfg: RunConfig, args) -> Output:
    from .efficiency import nash_equilibrium, social_optimum
    from .repeated import (DiscountSpec, TriggerPolicy, min_discount, simulate_trigger,
                           trigger_csv_rows)
    if args.deviant not in (None, 1, 2):
        raise ConfigError("--deviant must be a player number in 1..2")
    if args.stages < 0:
        raise ConfigError("--stages must be >= 0")
    if args.deviate_at < 0:
        raise ConfigError("--deviate-at must be >= 0")
    if args.delta is not None and not 0.0 <= args.delta < 1.0:
        raise ConfigError("--delta must be in [0, 1)")
    ne = nash_equilibrium(cfg.model)
    so = social_optimum(cfg.model, cfg.weights)
    policy = TriggerPolicy(cooperate_profile=so.profile, punish_profile=ne.profile)
    dmin = min_discount(cfg.model, policy)
    deviant = None if args.deviant is None else args.deviant - 1
    # min_discount returns δ̲ < 1, so the default lies in (δ̲, 1)
    delta = args.delta if args.delta is not None else (
        dmin + 0.05 if dmin + 0.05 < 1.0 else 0.5 * (1.0 + dmin))
    spec = DiscountSpec(delta=delta)
    payoffs = simulate_trigger(cfg.model, policy, spec, deviant, args.deviate_at)

    scale = cfg.model.utility_scale
    norm = lambda vals: [v * scale for v in vals]
    _say(args, f"δ̲ = {dmin:.3f}")
    _say(args, f"cooperate σ²u/t = {_fmt_vec(so.normalized, 3)}, "
               f"punish σ²u/t = {_fmt_vec(ne.normalized, 3)}")
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
    sp.add_argument("--scenario", choices=SCENARIOS,
                    help="which finite scenario (default: from config)")
    sp.add_argument("--ce-uniform", action="store_true",
                    help="also check the uniform mixture over pure NEs")
    sp.set_defaults(func=cmd_finite)

    sp = sub.add_parser("ne", help="continuous-power Nash equilibrium via "
                                   "best-response dynamics")
    sp.set_defaults(func=cmd_ne)

    sp = sub.add_parser("pricing", help="equilibrium under a linear power surcharge")
    level = sp.add_mutually_exclusive_group()
    level.add_argument("--alpha", type=float, help="surcharge per watt "
                                                   "(default: from config)")
    level.add_argument("--sweep", metavar="LO:HI:STEPS",
                       help="run a range of surcharge levels")
    sp.set_defaults(func=cmd_pricing)

    sp = sub.add_parser("pareto",
                        help="sample the utility plane and extract the Pareto frontier")
    sp.add_argument("--n", type=int, help="grid points per axis (default: from config)")
    sp.set_defaults(func=cmd_pareto)

    sp = sub.add_parser("social", help="maximize weighted sum utility")
    sp.set_defaults(func=cmd_social)

    sp = sub.add_parser("nbs", help="Nash bargaining solution against the NE")
    sp.add_argument("--fairness", action="store_true",
                    help="also report the equal-gain frontier point")
    sp.set_defaults(func=cmd_nbs)

    sp = sub.add_parser("repeated", help="grim-trigger analysis: "
                        "minimum discount factor and trigger paths")
    sp.add_argument("--delta", type=float, help="discount factor for the "
                                                "simulated path (default: δ̲+0.05)")
    sp.add_argument("--deviant", type=int, metavar="PLAYER",
                    help="player number (1-based) that deviates once")
    sp.add_argument("--deviate-at", type=int, default=0, metavar="STAGE",
                    help="stage of the deviation (default: 0)")
    sp.add_argument("--stages", type=int, default=20,
                    help="stages to export in the CSV trace (default: 20)")
    sp.set_defaults(func=cmd_repeated)
    return parser


_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config if args.config else default_config_path())
        out = args.func(cfg, args)
        paths, text = _write(Path(args.out or cfg.output.directory), out)
        _say(args, "wrote " + ", ".join(str(p) for p in paths))
        if args.json:
            print(text, end="")
        if out.failure is not None:  # the artifacts are written first
            raise SolverOutcomeError(out.failure)
    except SolverOutcomeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
