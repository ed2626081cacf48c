import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import reference_oracle
import test_oracle_differential as oracle_corpus
from ltumatch import (
    CapExceeded,
    DimensionMismatch,
    FuzzConfig,
    LTUProblem,
    enumerate_stable,
    induced_pattern,
    is_equilibrium,
    linear_feasibility,
    oracle,
    outcome_to_equilibrium,
    random_problem,
    solve_stable,
    to_game,
    verify_stable,
)
from ltumatch._simplex import certificate_refutes, integer_row
from ltumatch.model import Outcome
from ltumatch.oracle import ComplementarityPattern, _bits, _matching_system, _split_rows, _split_system


def split_system(problem, pattern):
    return _split_system(problem, *oracle_corpus.masks_of(problem, pattern))


def matching_system(problem, pattern):
    return _matching_system(problem, *oracle_corpus.masks_of(problem, pattern))


def test_uneven2x2_enumeration(uneven2x2, black, white):
    outcomes = enumerate_stable(uneven2x2)
    assert black in outcomes
    assert white in outcomes
    for outcome in outcomes:
        assert verify_stable(uneven2x2, outcome).ok
    # representatives are deduplicated and sorted, hence reproducible
    assert outcomes == enumerate_stable(uneven2x2)
    assert len(outcomes) == len(set(outcomes))


def test_every_representative_maps_to_an_equilibrium(uneven2x2):
    game = to_game(uneven2x2)
    for outcome in enumerate_stable(uneven2x2):
        profile = outcome_to_equilibrium(uneven2x2, outcome)
        assert is_equilibrium(game, profile).ok


def test_forward_solution_appears(uneven2x2):
    outcome, _ = solve_stable(uneven2x2)
    assert outcome in enumerate_stable(uneven2x2)


def test_induced_pattern_round_trip(uneven2x2, black):
    pattern = induced_pattern(uneven2x2, black)
    assert pattern.cells == ((0, 0), (1, 1))
    assert pattern.pos_u == (0, 1)
    assert pattern.pos_v == ()
    result = linear_feasibility(uneven2x2, pattern)
    assert result is not None
    assert verify_stable(uneven2x2, result.outcome).ok


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 1)], ids=["short", "wide", "narrow"])
def test_induced_pattern_refuses_a_wrong_shape(uneven2x2, shape):
    nx, ny = shape
    outcome = Outcome(((F(1),) * ny,) * nx, (F(0),) * nx, (F(1),) * ny)
    with pytest.raises(DimensionMismatch, match=f"{nx}x{ny} outcome, 2x2 market"):
        induced_pattern(uneven2x2, outcome)


def test_infeasible_pattern_has_checkable_certificate(uneven2x2):
    # everyone matched on the diagonal yet nobody may be paid: blocked
    pattern = ComplementarityPattern(cells=((0, 0), (1, 1)), pos_u=(), pos_v=())
    result = linear_feasibility(uneven2x2, pattern)
    assert result.outcome is None
    assert result.split_certificate is not None
    assert certificate_refutes(split_system(uneven2x2, pattern), result.split_certificate)
    # every type is held: the system has no variable, one inequality
    # 0 <= -phi / 2 per unmatched cell, and a certificate with one
    # multiplier per cell
    assert split_system(uneven2x2, pattern).nvars == 0
    assert len(result.split_certificate.eq_num + result.split_certificate.ineq_num) == 4


def test_the_empty_pattern(uneven2x2):
    """No cell may match and no type earns: both halves have no variable.
    On uneven2x2, whose outputs are positive, the split half is refuted by
    any unmatched cell's 0 <= -phi / 2, and the full form's refutation
    (with u = v = 0 as rows) follows by filling in the unit rows. A market
    whose only output is negative has the zero outcome there."""
    empty = ComplementarityPattern((), (), ())
    result = linear_feasibility(uneven2x2, empty)
    assert result.outcome is None and result.matching_certificate is None
    cert = result.split_certificate
    assert certificate_refutes(split_system(uneven2x2, empty), cert)
    full = oracle_corpus.filled_split(uneven2x2, empty, cert)
    assert certificate_refutes(reference_oracle._split_system(uneven2x2, empty), full)
    assert matching_system(uneven2x2, empty).nvars == 0

    negative = LTUProblem(("w",), ("j",), (F(1),), (F(1),), ((F(1, 2),),), ((F(-1),),))
    result = linear_feasibility(negative, empty)
    assert result.outcome.mu == ((F(0),),) and result.outcome.u == (F(0),) and result.outcome.v == (F(0),)
    assert result == reference_oracle.linear_feasibility(negative, empty)


@pytest.mark.parametrize(
    "field, pattern",
    [
        ("cells", ComplementarityPattern(((5, 5),), (7,), (-1,))),
        ("cells", ComplementarityPattern(((0, 2),), (0,), ())),
        ("cells", ComplementarityPattern(((0, 0), (0, 0)), (0,), ())),
        ("pos_u", ComplementarityPattern(((0, 0),), (2,), ())),
        ("pos_u", ComplementarityPattern(((0, 0),), (0, 0), ())),
        ("pos_v", ComplementarityPattern(((0, 1),), (), (-1,))),
        ("pos_v", ComplementarityPattern(((0, 1),), (), (1, 1))),
    ],
    ids=["issue", "cell-out", "cell-twice", "u-out", "u-twice", "v-out", "v-twice"],
)
def test_linear_feasibility_refuses_bad_indices(uneven2x2, field, pattern):
    # uneven2x2 is 2x2: each pattern names an index outside it or one twice
    with pytest.raises(DimensionMismatch, match=f"pattern {field} "):
        linear_feasibility(uneven2x2, pattern)


def test_negative_output_pairs_never_match():
    problem = LTUProblem(
        ("w",), ("j",), (F(1),), (F(1),), ((F(1, 2),),), ((F(-1),),)
    )
    outcomes = enumerate_stable(problem)
    assert len(outcomes) == 1
    only = outcomes[0]
    assert only.mu == ((F(0),),)
    assert only.u == (F(0),) and only.v == (F(0),)


def test_caps_are_enforced():
    """At most 9 cells and 8 types: 3x3 and 1x7 are enumerated, and one
    more cell (2x5) or one more type (1x8) is refused."""
    def market(nx, ny):
        return random_problem(random.Random(nx * 10 + ny), FuzzConfig(max_workers=nx, max_jobs=ny), nx, ny)

    for nx, ny in ((3, 3), (1, 7), (7, 1)):
        assert enumerate_stable(market(nx, ny))
    for nx, ny in ((2, 5), (1, 8), (8, 1), (5, 4)):
        with pytest.raises(CapExceeded, match="caps are 9 and 8"):
            enumerate_stable(market(nx, ny))


# The three-mask tests that the word rule replaces: whether a split
# refutation, a matching refutation or a box, given by its three masks,
# applies to pattern (smask, pumask, pvmask).
MASK_TESTS = {
    "split": lambda positive, umask, vmask, smask, pumask, pvmask: not (
        positive & ~smask or umask & pumask or vmask & pvmask
    ),
    "matching": lambda zmask, negu, negv, smask, pumask, pvmask: not (
        zmask & smask or negu & ~pumask or negv & ~pvmask
    ),
    "box": lambda tight, umask, vmask, smask, pumask, pvmask: not (
        smask & ~tight or umask & ~pumask or vmask & ~pvmask
    ),
}
WORDS = {"split": oracle_corpus.split_word, "matching": oracle_corpus.matching_word, "box": oracle_corpus.box_word}


@pytest.mark.parametrize("nx, ny", [(2, 2), (2, 3)])
def test_the_word_rule_is_the_three_mask_tests(nx, ny):
    """On every pattern of the shape, a pool of one refutation or box
    applies by the word rule exactly where its three mask tests pass, for
    random masks of each kind, each mask as likely sparse as dense."""
    rng = random.Random(10 * nx + ny)
    swords, uwords, vwords = oracle._pattern_words(nx, ny)
    patterns = [(s, u, v) for s in range(1 << nx * ny) for u in range(1 << nx) for v in range(1 << ny)]

    def draw(width):
        return rng.getrandbits(width) & rng.getrandbits(width) if rng.random() < 0.5 else rng.getrandbits(width)

    for kind, test in MASK_TESTS.items():
        verdicts = set()
        for _ in range(12):
            masks = draw(nx * ny), draw(nx), draw(ny)
            entry = WORDS[kind](nx, ny, *masks)
            for smask, pumask, pvmask in patterns:
                word = swords[smask] | uwords[pumask] | vwords[pvmask]
                expected = test(*masks, smask, pumask, pvmask)
                assert oracle._applies([entry], word) is expected, (kind, masks, smask, pumask, pvmask)
                verdicts.add(expected)
        assert verdicts == {True, False}, kind


def test_oracle_agrees_with_pipeline_on_random_instances():
    rng = random.Random(31)
    cfg = FuzzConfig(max_workers=2, max_jobs=2)
    game_count = 0
    for _ in range(25):
        problem = random_problem(rng, cfg)
        outcomes = enumerate_stable(problem)
        assert outcomes, "a stable outcome always exists"
        for outcome in outcomes:
            assert verify_stable(problem, outcome).ok
        forward, _ = solve_stable(problem)
        assert forward in outcomes
        game_count += len(outcomes)
    assert game_count >= 25


def _scaled_correctly(row, form):
    """The integer row `form` holds the Fraction row `row` times its scale,
    the lcm of the row's denominators."""
    (coeffs, rhs), (nonzeros, int_rhs, scale) = row, form
    assert scale > 0
    assert scale == math.lcm(rhs.denominator, *(c.denominator for c in coeffs))
    dense = [0] * len(coeffs)
    for i, c in nonzeros:
        assert c != 0
        dense[i] = c
    assert [i for i, _ in nonzeros] == sorted({i for i, _ in nonzeros})
    assert dense == [c * scale for c in coeffs]
    assert int_rhs == rhs * scale


@pytest.mark.parametrize("name", oracle_corpus.NAMES)
def test_split_rows_hold_each_row_times_its_scale(name):
    problem = oracle_corpus.CORPUS[name]
    nx, ny = problem.nx, problem.ny
    cells, lines = _split_rows(problem)
    assert len(cells) == nx * ny
    assert len(lines) == nx + ny
    coefficients = [{} for _ in range(nx + ny)]
    for i, (eq, ineq) in enumerate(cells):
        x, y = divmod(i, ny)
        lam = problem.lam[x][y]
        coeffs = [F(0)] * (nx + ny)
        coeffs[x], coeffs[nx + y] = lam, 1 - lam
        rhs = problem.phi[x][y] / 2
        _scaled_correctly((tuple(coeffs), rhs), eq)
        _scaled_correctly((tuple(-c for c in coeffs), -rhs), ineq)
        coefficients[x][i], coefficients[nx + y][i] = lam, 1 - lam
    # each variable's line holds its coefficients over one positive scale
    for k, line in enumerate(lines):
        assert [i for i, _ in line] == sorted(coefficients[k])
        scales = {F(c) / coefficients[k][i] for i, c in line}
        assert len(scales) == 1 and scales.pop() > 0
    # a split system is assembled from the table's integer rows, in order,
    # over the earning types' variables: a held type's terms are left out
    every = tuple(range(nx)), tuple(range(ny))
    keys = tuple(divmod(i, ny) for i in range(nx * ny))
    for pattern in (
        ComplementarityPattern(keys, (), ()),
        ComplementarityPattern((), (0,), ()),
        ComplementarityPattern(keys[1::2], *every),
        ComplementarityPattern((), (), (ny - 1,)),
    ):
        smask, pumask, pvmask = oracle_corpus.masks_of(problem, pattern)
        system = _split_system(problem, smask, pumask, pvmask)
        columns = _bits(pumask | pvmask << nx)
        assert columns == (*pattern.pos_u, *(nx + y for y in pattern.pos_v))
        assert system.nvars == len(columns) and system.nonneg == (True,) * len(columns)
        full = reference_oracle._split_system(problem, pattern)
        assert system.eqs == tuple((tuple(row[k] for k in columns), rhs) for row, rhs in full.eqs[:system.neq])
        assert system.ineqs == tuple((tuple(row[k] for k in columns), rhs) for row, rhs in full.ineqs)
        restricted = [eq for cell, (eq, _) in zip(keys, cells) if cell in pattern.cells]
        restricted += [ineq for cell, (_, ineq) in zip(keys, cells) if cell not in pattern.cells]
        assert system.neq == len(pattern.cells)
        for row, form in zip(system.rows, restricted, strict=True):
            assert row[1:] == form[1:]


SPLIT_ROW_CORPORA = {
    "differential": lambda: list(oracle_corpus.CORPUS.values()),
    "half-lambda": oracle_corpus._half_lambda_corpus,
    "seed-5 pool": lambda: oracle_corpus._pool(5),
}


@pytest.mark.parametrize("corpus", list(SPLIT_ROW_CORPORA))
def test_split_rows_are_integer_row_of_each_cell(corpus, monkeypatch):
    """The split rows, read off lam's and phi's numerators and denominators,
    are the (nonzeros, rhs, scale) triples of `integer_row` on each cell's
    zero-filled Fraction row, scale included."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    for problem in SPLIT_ROW_CORPORA[corpus]():
        nx, ny = problem.nx, problem.ny
        cells, _ = _split_rows(problem)
        for i, (eq, ineq) in enumerate(cells):
            x, y = divmod(i, ny)
            row = [F(0)] * (nx + ny)
            row[x], row[nx + y] = problem.lam[x][y], 1 - problem.lam[x][y]
            rhs = problem.phi[x][y] / 2
            assert eq == integer_row(tuple(row), rhs), (problem, i)
            assert ineq == integer_row(tuple(-c for c in row), -rhs), (problem, i)


def _matching_rows(problem, pattern):
    """The matching system's rows as Fraction rows (coeffs, rhs) over the
    pattern's cells in row-major order, equalities then inequalities, built
    cell by cell."""
    nx, ny = problem.nx, problem.ny

    def row(cells, rhs):
        return tuple(F(int(cell in cells)) for cell in sorted(pattern.cells)), rhs

    eqs = []
    ineqs = []
    for x in range(nx):
        (eqs if x in pattern.pos_u else ineqs).append(row({(x, y) for y in range(ny)}, problem.n[x]))
    for y in range(ny):
        (eqs if y in pattern.pos_v else ineqs).append(row({(x, y) for x in range(nx)}, problem.m[y]))
    return eqs, ineqs


@pytest.mark.parametrize("name", oracle_corpus.NAMES)
def test_matching_rows_hold_each_row_times_its_scale(name):
    problem = oracle_corpus.CORPUS[name]
    nx, ny = problem.nx, problem.ny
    every = tuple((x, y) for x in range(nx) for y in range(ny))
    for pattern in (
        ComplementarityPattern(every, tuple(range(nx)), tuple(range(ny))),
        ComplementarityPattern((), (), ()),
        ComplementarityPattern(every[::2], (0,), (ny - 1,)),
        ComplementarityPattern(every[::-3], (), tuple(range(ny))),
    ):
        smask, _, _ = masks = oracle_corpus.masks_of(problem, pattern)
        system = _matching_system(problem, *masks)
        assert system.nvars == len(pattern.cells)
        assert _bits(smask) == tuple(x * ny + y for x, y in sorted(pattern.cells))
        eqs, ineqs = _matching_rows(problem, pattern)
        assert (system.eqs, system.ineqs) == (tuple(eqs), tuple(ineqs))
        assert system.neq == len(eqs)
        for row, form in zip(eqs + ineqs, system.rows, strict=True):
            _scaled_correctly(row, form)
