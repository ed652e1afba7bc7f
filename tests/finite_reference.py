"""Brute-force reference for the finite-game solvers.

Loop implementations that walk every joint profile with ``itertools`` and
read payoffs from nested lists, one cell at a time.  They share no code with
``icpower.finite`` beyond the ``FiniteGame`` container and serve as the
oracle for its array versions.
"""
from __future__ import annotations

import itertools
import math


def _cell(game, joint):
    node = game.payoffs
    for i in joint:
        node = node[i]
    return node


def _insert(opp, k, value):
    opp = tuple(opp)
    return opp[:k] + (value,) + opp[k:]


def _opponents(sizes, k):
    return itertools.product(*(range(n) for j, n in enumerate(sizes) if j != k))


def _sizes(game):
    return [len(s) for s in game.strategies]


def strictly_dominated(game, k, i):
    """(dominated, first dominating index or None) over all opponent profiles."""
    for alt in range(len(game.strategies[k])):
        if alt != i and all(
                _cell(game, _insert(opp, k, alt))[k] > _cell(game, _insert(opp, k, i))[k]
                for opp in _opponents(_sizes(game), k)):
            return True, alt
    return False, None


def iterated_dominance(game):
    """(surviving index sets, log of (round, player, removed, dominator) indices).

    Each round removes the first dominated strategy found, scanning players,
    then strategies, then dominators in index order within the active sets.
    """
    active = [list(range(n)) for n in _sizes(game)]
    log = []
    rnd = 0
    while True:
        rnd += 1
        found = None
        for k in range(len(active)):
            opp_sets = [active[j] for j in range(len(active)) if j != k]
            for pos, idx in enumerate(active[k]):
                for alt in active[k]:
                    if alt != idx and all(
                            _cell(game, _insert(opp, k, alt))[k]
                            > _cell(game, _insert(opp, k, idx))[k]
                            for opp in itertools.product(*opp_sets)):
                        found = (k, pos, alt)
                        break
                if found:
                    break
            if found:
                break
        if found is None:
            return active, log
        k, pos, alt = found
        log.append((rnd, k, active[k].pop(pos), alt))


def best_responses(game, k, opp):
    values = [_cell(game, _insert(opp, k, i))[k] for i in range(len(game.strategies[k]))]
    top = max(values)
    return {i for i, v in enumerate(values) if v == top}


def pure_nash(game):
    return {joint for joint in itertools.product(*(range(n) for n in _sizes(game)))
            if all(joint[k] in best_responses(game, k, joint[:k] + joint[k + 1:])
                   for k in range(len(joint)))}


def ce_check(game, q, tol=1e-9):
    """(holds, worst slack) of the obedience inequalities of ``q``."""
    worst = math.inf
    for k, row in enumerate(game.strategies):
        for rec in range(len(row)):
            for alt in range(len(row)):
                if alt == rec:
                    continue
                slack = 0.0
                for opp in _opponents(_sizes(game), k):
                    weight = q
                    for i in _insert(opp, k, rec):
                        weight = weight[i]
                    slack += weight * (_cell(game, _insert(opp, k, rec))[k]
                                       - _cell(game, _insert(opp, k, alt))[k])
                worst = min(worst, slack)
    if math.isinf(worst):
        worst = 0.0
    return worst >= -tol, worst
