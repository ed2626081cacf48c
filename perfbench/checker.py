"""Independent output checks, in plain Fraction arithmetic.

Nothing here imports ltumatch: every output is re-checked against the
benchmark's own copy of the market, so a bug shared by the solver and its
own self-checks still shows. Each function returns None when the output is
right and a one-line reason when it is not.
"""
from __future__ import annotations

import json
from fractions import Fraction

from gen import Market

ZERO = Fraction(0)
ONE = Fraction(1)


def _rational(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not a rational: {value!r}")
    return Fraction(value)


def _vector(raw, length: int) -> tuple[Fraction, ...]:
    if not isinstance(raw, list) or len(raw) != length:
        raise ValueError(f"expected a list of {length} rationals")
    return tuple(_rational(v) for v in raw)


def _outcome(market: Market, raw) -> tuple:
    mu_raw = raw["mu"]
    if not isinstance(mu_raw, list) or len(mu_raw) != market.nx:
        raise ValueError("mu has the wrong number of rows")
    mu = tuple(_vector(row, market.ny) for row in mu_raw)
    return mu, _vector(raw["u"], market.nx), _vector(raw["v"], market.ny)


def stability(market: Market, mu, u, v) -> str | None:
    """The seven stability conditions, with zero reservation utilities."""
    nx, ny = market.nx, market.ny
    if any(w < 0 for row in mu for w in row) or any(w < 0 for w in u + v):
        return "condition 0: a negative mass or utility"
    for x in range(nx):
        for y in range(ny):
            lam = market.lam[x][y]
            split = lam * u[x] + (ONE - lam) * v[y]
            half = market.phi[x][y] / 2
            if split < half:
                return f"condition 1: pair ({x},{y}) blocks"
            if mu[x][y] > 0 and split != half:
                return f"condition 4: matched pair ({x},{y}) does not split exactly"
    for x in range(nx):
        used = sum(mu[x])
        if used > market.n[x]:
            return f"condition 2: worker type {x} is overmatched"
        if u[x] > 0 and used != market.n[x]:
            return f"condition 5: earning worker type {x} is not saturated"
    for y in range(ny):
        used = sum(mu[x][y] for x in range(nx))
        if used > market.m[y]:
            return f"condition 3: job type {y} is overmatched"
        if v[y] > 0 and used != market.m[y]:
            return f"condition 6: earning job type {y} is not saturated"
    return None


def hide_and_seek(market: Market):
    """Loss and payoff matrices: rows are pairs (x, y) in row-major order,
    columns are the worker types and then the job types."""
    nx, ny = market.nx, market.ny
    loss, payoff = [], []
    for x in range(nx):
        for y in range(ny):
            lam, phi = market.lam[x][y], market.phi[x][y]
            lrow = [ZERO] * (nx + ny)
            prow = [ZERO] * (nx + ny)
            lrow[x] = lam / (market.n[x] * phi)
            lrow[nx + y] = (ONE - lam) / (market.m[y] * phi)
            prow[x] = ONE / (2 * market.n[x] * phi)
            prow[nx + y] = ONE / (2 * market.m[y] * phi)
            loss.append(lrow)
            payoff.append(prow)
    return loss, payoff


def equilibrium(loss, payoff, p, q) -> str | None:
    """Both sides are distributions and neither has a profitable pure deviation."""
    if len(p) != len(loss) or len(q) != len(loss[0]):
        return "profile has the wrong shape"
    if any(w < 0 for w in p + q) or sum(p) != 1 or sum(q) != 1:
        return "profile is not a pair of distributions"
    row_loss = [sum(l * w for l, w in zip(row, q)) for row in loss]
    col_gain = [sum(payoff[i][j] * p[i] for i in range(len(p))) for j in range(len(q))]
    level = sum(w * l for w, l in zip(p, row_loss))
    if min(row_loss) < level:
        return "the hider has a pure deviation with lower loss"
    if max(col_gain) > sum(w * g for w, g in zip(q, col_gain)):
        return "the seeker has a pure deviation with higher payoff"
    return None


def solve_output(market: Market, label: int | None, text: str) -> str | None:
    """`solve --json`: a stable outcome, an equilibrium profile of the market's
    game, and the two value identities that tie them together."""
    try:
        raw = json.loads(text)
        if label is not None and raw["label"] != label:
            return f"label {raw['label']} echoed for requested label {label}"
        mu, u, v = _outcome(market, raw["outcome"])
        loss, payoff = hide_and_seek(market)
        p = _vector(raw["profile"]["p"], len(loss))
        q = _vector(raw["profile"]["q"], len(loss[0]))
        hider_loss = _rational(raw["hider_loss"])
        seeker_payoff = _rational(raw["seeker_payoff"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed solve output: {exc!r}"
    reason = stability(market, mu, u, v) or equilibrium(loss, payoff, p, q)
    if reason:
        return reason
    total = sum(a * b for a, b in zip(market.n, u)) + sum(a * b for a, b in zip(market.m, v))
    weight = sum(
        market.phi[x][y] * mu[x][y] for x in range(market.nx) for y in range(market.ny)
    )
    if 2 * hider_loss * total != 1:
        return "hider loss is not 1 / (2 (n.u + m.v))"
    if 2 * seeker_payoff * weight != 1:
        return "seeker payoff is not 1 / (2 sum(phi mu))"
    return None


def check_tu_output(market: Market, text: str) -> str | None:
    """`check-tu --json` on a factorizable market: it must factorize, with
    odds lambda / (1 - lambda) equal to worker_scale[x] / job_scale[y]."""
    try:
        raw = json.loads(text)
        if raw["factorizes"] is not True:
            return "a factorizable market was reported as not factorizing"
        ws = _vector(raw["worker_scale"], market.nx)
        js = _vector(raw["job_scale"], market.ny)
        for x in range(market.nx):
            for y in range(market.ny):
                lam = market.lam[x][y]
                if lam / (ONE - lam) != ws[x] / js[y]:
                    return f"scales do not reproduce the odds at ({x},{y})"
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed check-tu output: {exc!r}"
    return None


def oracle_output(market: Market, text: str) -> str | None:
    """`oracle --json`: at least one outcome, all distinct, all stable."""
    try:
        raw = json.loads(text)
        outcomes = [_outcome(market, o) for o in raw["outcomes"]]
        count = raw["count"]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed oracle output: {exc!r}"
    if not outcomes:
        return "no stable outcome found"
    if count != len(outcomes):
        return f"count {count} for {len(outcomes)} outcomes"
    if len(set(outcomes)) != len(outcomes):
        return "an outcome is listed twice"
    for k, (mu, u, v) in enumerate(outcomes):
        reason = stability(market, mu, u, v)
        if reason:
            return f"outcome {k}: {reason}"
    return None


def support_output(market: Market, profiles) -> str | None:
    """Support enumeration: at least one profile, each an equilibrium of the
    market's game. `profiles` is a sequence of (p, q) tuples."""
    if not profiles:
        return "no equilibrium found"
    loss, payoff = hide_and_seek(market)
    for k, (p, q) in enumerate(profiles):
        reason = equilibrium(loss, payoff, tuple(p), tuple(q))
        if reason:
            return f"profile {k}: {reason}"
    return None
