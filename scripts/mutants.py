"""Mutation check: every named mutant of `src/` must fail the tests named for it.

Each mutant is one exact snippet of one file under src/ltumatch, a
replacement, and the tests that must catch it. The script copies `src/`,
`tests/`, `data/`, `perfbench/` (whose market draws a test reads) and
`pyproject.toml` into a temporary directory once, then
checks that all the named tests pass there unmutated. Then for each mutant
in turn it puts the replacement in place of the snippet, runs only the
named tests (one pytest subprocess at a time, stopping at the first
failure) and restores the file. A mutant survives when those tests pass. A
snippet that does not occur exactly once is an error too, so the table
cannot go stale without notice.

    python scripts/mutants.py             # every mutant
    python scripts/mutants.py NAME ...    # only these
    python scripts/mutants.py --list      # names and files

Exit status 0 when every mutant is killed, 1 otherwise. Needs pytest and
hypothesis, as the tests do.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/ltumatch
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids or files, relative to the root


ORACLE_MASKS = "tests/test_oracle_differential.py::test_the_mask_tests_refuse_a_corrupted_refutation"
ORACLE_CARRIED = "tests/test_oracle_differential.py::test_carried_certificates_refute_their_patterns"
ORACLE_MATCHING = "tests/test_oracle_differential.py::test_carried_matching_certificates_refute_their_patterns"
ORACLE_BOXES = "tests/test_oracle_differential.py::test_box_points_satisfy_the_patterns_they_cover"
ORACLE_BOX_MASKS = "tests/test_oracle_differential.py::test_boxes_hold_their_points_tight_cells_and_supports"
ORACLE_FULL_FORM = "tests/test_oracle_differential.py::test_free_variable_systems_agree_with_the_full_form"
ORACLE_PRUNES = "tests/test_oracle_differential.py::test_prunes_are_active"
GAME_ROWS = "tests/test_game_rows.py::"
EDGES = "tests/test_integer_edges.py::"
LH = (
    "tests/test_lh_differential.py::test_uneven2x2",
    "tests/test_lh_differential.py::test_seed11_random_corpus",
)
LH_SLACKS = (
    "tests/test_lh_slacks.py::test_uneven2x2",
    "tests/test_lh_slacks.py::test_general_seven_by_seven",
)
LH_WORK = "tests/test_lh_work.py::test_hider_rows_hold_at_most_n_plus_one_integers"
STABILITY = (
    "tests/test_stability_differential.py::test_random_small_problems",
    "tests/test_stability_differential.py::test_perturbed_outcomes_hit_each_condition",
)

MUTANTS = (
    # the one hide-and-seek reduction of both market kinds
    Mutant(
        "one-to-one backward map with s = 1",
        "reduction.py",
        "_flat(problem.phi), problem.n + problem.m, 2",
        "_flat(problem.phi), problem.n + problem.m, 1",
        (
            "tests/test_reduction.py::test_maps_are_mutually_inverse",
            "tests/test_reduction.py::test_round_trips_on_random_problems",
        ),
    ),
    Mutant(
        "loss entry from the payoff count",
        "reduction.py",
        "a, b = wn * num, wd * den",
        "a, b = count * num, den",
        (
            "tests/test_reduction.py::test_game_matrices",
            "tests/test_reduction.py::test_roommates_game_matrices",
        ),
    ),
    Mutant(
        "seeker distribution over the phi mu total",
        "reduction.py",
        "tuple(x / total for x in seeking)",
        "tuple(x / weight for x in seeking)",
        (
            "tests/test_reduction.py::test_black_outcome_maps_to_known_profile",
            "tests/test_reduction.py::test_roommates_maps",
        ),
    ),
    # the game's integer rows, built once by the reduction
    Mutant(
        "column scale dropped from the shared loss rows",
        "reduction.py",
        "tuple(tuple((c, a * (lscale[c] // b)) for c, a, b in lrow) for lrow in losses)",
        "tuple(tuple((c, a) for c, a, b in lrow) for lrow in losses)",
        (GAME_ROWS + "test_to_game_gives_the_formula_games",),
    ),
    Mutant(
        "row scale dropped from the shared payoff rows",
        "reduction.py",
        "tuple((c, a * (scale // b)) for c, a, b in prow)",
        "tuple((c, a) for c, a, b in prow)",
        (GAME_ROWS + "test_to_game_gives_the_formula_games",),
    ),
    # the seeker's tableau on per-cell row scales
    Mutant(
        "row scale d_i dropped",
        "gamesolve.py",
        "d = math.lcm(t, *(scale[j] // math.gcd(e, scale[j]) for j, e in row))",
        "d = t",
        (GAME_ROWS + "test_tableaux_start_from_the_dense_integers", *LH),
    ),
    Mutant(
        "crow taken without the d_i/t factor",
        "gamesolve.py",
        "self.lrows.append((d // t, ",
        "self.lrows.append((1, ",
        (GAME_ROWS + "test_tableaux_start_from_the_dense_integers", *LH),
    ),
    Mutant(
        "hider tableau column left at the game's scale",
        "gamesolve.py",
        "[(j, -e * (t // s)) for j, e in row]",
        "[(j, -e) for j, e in row]",
        (GAME_ROWS + "test_tableaux_start_from_the_dense_integers",),
    ),
    Mutant(
        "hider deviation test < loosened to <=",
        "gamesolve.py",
        "if l * pd < loss:",
        "if l * pd <= loss:",
        (GAME_ROWS + "test_check_accepts_the_pivot_equilibria",),
    ),
    Mutant(
        "seeker deviation test read without the q denominator",
        "gamesolve.py",
        "if c * qd > payoff:",
        "if c > payoff:",
        (GAME_ROWS + "test_check_agrees_when_the_hider_mix_moves_and_the_seeker_deviates",),
    ),
    # an integer-native side system
    Mutant(
        "side level with the wrong sign",
        "gamesolve.py",
        "(k, -scale))",
        "(k, scale))",
        (
            "tests/test_support_differential.py::test_bos",
            "tests/test_gamesolve.py::test_side_rows_hold_each_row_times_its_scale",
        ),
    ),
    Mutant(
        "fraction view without the scale",
        "_simplex.py",
        "coeffs[i] = Fraction(c, scale)",
        "coeffs[i] = Fraction(c)",
        ("tests/test_simplex.py::test_integer_rows_at_any_scale_give_the_same_system",),
    ),
    # certificate_refutes sums in integers, on integer certificates
    Mutant(
        "row scale left out of the common multiple",
        "_simplex.py",
        "common = math.lcm(*(scale for _, (_, _, scale) in terms))",
        "common = 1",
        ("tests/test_simplex.py::test_certificate_refutes_weighs_each_row_by_its_own_scale",),
    ),
    Mutant(
        "D for D // s",
        "_simplex.py",
        "k = y * (common // scale)",
        "k = y * common",
        ("tests/test_simplex.py::test_certificate_refutes_agrees_with_the_dense_sum_on_random_systems",),
    ),
    Mutant(
        "certificate denominator left negative",
        "_simplex.py",
        "if den < 0:",
        "if False:",
        (
            "tests/test_simplex.py::test_integer_forms_over_other_denominators_are_one_value",
            "tests/test_simplex.py::test_solver_is_sound_either_way",
        ),
    ),
    # the oracle in index space
    Mutant(
        "inequality multiplier read without its sign flip",
        "oracle.py",
        "z = [next(eq_mult) if smask >> i & 1 else -next(ineq_mult) for i in range(nx * ny)]",
        "z = [next(eq_mult) if smask >> i & 1 else next(ineq_mult) for i in range(nx * ny)]",
        (ORACLE_MASKS, ORACLE_FULL_FORM),
    ),
    Mutant(
        "held multiplier tested for > 0 instead of != 0",
        "oracle.py",
        "umask = sum(1 << x for x in range(nx) if used[x] and not pumask >> x & 1)",
        "umask = sum(1 << x for x in range(nx) if used[x] < 0 and not pumask >> x & 1)",
        (ORACLE_MASKS, ORACLE_FULL_FORM),
    ),
    Mutant(
        "cell bits dropped from the split refutation's word",
        "oracle.py",
        "return _word(nx, ny, (0, umask, vmask), (positive, 0, 0))",
        "return _word(nx, ny, (0, umask, vmask), (0, 0, 0))",
        (ORACLE_MASKS, ORACLE_CARRIED),
    ),
    Mutant(
        "worker bits dropped from the split refutation's word",
        "oracle.py",
        "return _word(nx, ny, (0, umask, vmask), (positive, 0, 0))",
        "return _word(nx, ny, (0, 0, vmask), (positive, 0, 0))",
        (ORACLE_MASKS, ORACLE_CARRIED),
    ),
    Mutant(
        "job bits dropped from the split refutation's word",
        "oracle.py",
        "return _word(nx, ny, (0, umask, vmask), (positive, 0, 0))",
        "return _word(nx, ny, (0, umask, 0), (positive, 0, 0))",
        (ORACLE_MASKS, ORACLE_CARRIED),
    ),
    # the oracle's point boxes and matching refutations
    Mutant(
        "loose test with > for !=",
        "oracle.py",
        "if sum(c * num[k] for k, c in nonzeros) != rhs * den:",
        "if sum(c * num[k] for k, c in nonzeros) > rhs * den:",
        (ORACLE_BOXES,),
    ),
    Mutant(
        "loose test against rhs for rhs * den",
        "oracle.py",
        "if sum(c * num[k] for k, c in nonzeros) != rhs * den:",
        "if sum(c * num[k] for k, c in nonzeros) != rhs:",
        (ORACLE_BOX_MASKS,),
    ),
    Mutant(
        "box word with its tight cells for its loose ones",
        "oracle.py",
        "if sum(c * num[k] for k, c in nonzeros) != rhs * den:",
        "if sum(c * num[k] for k, c in nonzeros) == rhs * den:",
        (ORACLE_BOX_MASKS, ORACLE_BOXES),
    ),
    Mutant(
        "supp u left out of the box's word",
        "oracle.py",
        "return _word(nx, ny, (loose, 0, 0), (0, umask, vmask))",
        "return _word(nx, ny, (loose, 0, 0), (0, 0, vmask))",
        (ORACLE_BOXES,),
    ),
    Mutant(
        "matching line multiplier read with the wrong sign",
        "oracle.py",
        "negu = sum(1 << x for x in range(nx) if line[x] < 0)",
        "negu = sum(1 << x for x in range(nx) if line[x] > 0)",
        (ORACLE_MASKS, ORACLE_MATCHING),
    ),
    Mutant(
        "zero-row cells dropped from the matching refutation's word",
        "oracle.py",
        "return _word(nx, ny, (zmask, 0, 0), (0, negu, negv))",
        "return _word(nx, ny, (0, 0, 0), (0, negu, negv))",
        (ORACLE_MASKS, ORACLE_MATCHING),
    ),
    # the oracle's halves over their free variables, and its pool scans
    Mutant(
        "held worker type's multiplier dropped from umask",
        "oracle.py",
        "umask = sum(1 << x for x in range(nx) if used[x] and not pumask >> x & 1)",
        "umask = 0",
        (ORACLE_MASKS, ORACLE_FULL_FORM),
    ),
    Mutant(
        "held job type's multiplier dropped from vmask",
        "oracle.py",
        "vmask = sum(1 << y for y in range(ny) if used[nx + y] and not pvmask >> y & 1)",
        "vmask = 0",
        (ORACLE_MASKS, ORACLE_FULL_FORM),
    ),
    Mutant(
        "off-pattern cell's multiplier read from one line only",
        "oracle.py",
        "if not smask >> i & 1 and line[i // ny] + line[nx + i % ny])",
        "if not smask >> i & 1 and line[i // ny])",
        (ORACLE_MASKS, ORACLE_FULL_FORM),
    ),
    Mutant(
        "pool scan stops after its first entry",
        "oracle.py",
        "for entry in pool:",
        "for entry in pool[:1]:",
        (ORACLE_PRUNES,),
    ),
    Mutant(
        "job types' complement dropped from the pattern's word",
        "oracle.py",
        "tuple(_word(nx, ny, (0, 0, v), (0, 0, every_v ^ v)) for v in range(every_v + 1))",
        "tuple(_word(nx, ny, (0, 0, v), (0, 0, 0)) for v in range(every_v + 1))",
        ("tests/test_oracle.py::test_the_word_rule_is_the_three_mask_tests", ORACLE_PRUNES),
    ),
    # the oracle's patterns as masks, and its once-per-outcome check
    Mutant(
        "binding cell's row taken from the inequality list",
        "oracle.py",
        "binds = smask >> i & 1",
        "binds = not smask >> i & 1",
        (ORACLE_FULL_FORM, "tests/test_oracle.py::test_split_rows_hold_each_row_times_its_scale"),
    ),
    Mutant(
        "earning type's line built as an inequality",
        "oracle.py",
        "(eqs if earns else ineqs).append(",
        "ineqs.append(",
        (ORACLE_FULL_FORM, "tests/test_oracle.py::test_matching_rows_hold_each_row_times_its_scale"),
    ),
    Mutant(
        "new outcome kept without verify_stable",
        "oracle.py",
        "found[mu, uv] = _outcome(problem, uv, mu)",
        "found[mu, uv] = Outcome(tuple(mu[x * ny:x * ny + ny] for x in range(nx)), uv[:nx], uv[nx:])",
        (
            "tests/test_oracle_differential.py::test_each_distinct_outcome_is_verified_once",
            "tests/test_oracle_differential.py::test_the_benchmark_pool_verifies_each_distinct_outcome_once",
        ),
    ),
    # the sign rule: a cell with positive output needs one of its two types
    # earning, bound or not; and the split rows read off lam and phi
    Mutant(
        "sign rule on phi >= 0, pruning zero-output cells",
        "oracle.py",
        "positive = sum(1 << i for i, f in enumerate(phi) if f > 0)",
        "positive = sum(1 << i for i, f in enumerate(phi) if f >= 0)",
        ("tests/test_oracle_differential.py::test_identical_tuple",),
    ),
    Mutant(
        "sign rule on binding cells only",
        "oracle.py",
        "need = needed[pumask]",
        "need = sum(1 << y for y in range(ny) if any("
        "(smask & positive) >> x * ny + y & 1 and not pumask >> x & 1 for x in range(nx)))",
        (ORACLE_PRUNES,),
    ),
    Mutant(
        "phi / 2 left unreduced in the split rows",
        "oracle.py",
        "half = math.gcd(phi.numerator, 2)",
        "half = 1",
        ("tests/test_oracle.py::test_split_rows_are_integer_row_of_each_cell",),
    ),
    Mutant(
        "induced_pattern shape guard removed",
        "oracle.py",
        "if (len(outcome.u), len(outcome.v)) != (problem.nx, problem.ny):",
        "if False:",
        ("tests/test_oracle.py::test_induced_pattern_refuses_a_wrong_shape",),
    ),
    # the revised Lemke-Howson tableau
    Mutant(
        "lexicographic tie-break reversed",
        "gamesolve.py",
        "self._entry(k, c, cache) * di\n            if lhs != rhs:\n                return lhs < rhs",
        "self._entry(k, c, cache) * di\n            if lhs != rhs:\n                return lhs > rhs",
        LH,
    ),
    Mutant(
        "tie decided by the wrong row's slack",
        "gamesolve.py",
        "return stop == sk if stop < self.nslack else i < k",
        "return stop == si if stop < self.nslack else i < k",
        LH,
    ),
    Mutant(
        "slack row built with the wrong sign",
        "gamesolve.py",
        "row[v] -= l * prev",
        "row[v] += l * prev",
        LH,
    ),
    Mutant(
        "row of c^T z <= 1 left unpivoted",
        "gamesolve.py",
        "        self.crow = t[-2]\n",
        "",
        LH,
    ),
    Mutant(
        "zero pivot-column entry allowed to leave",
        "gamesolve.py",
        "d += l * vd[j]\n            if d <= 0:",
        "d += l * vd[j]\n            if d < 0:",
        LH,
    ),
    # the slack numbering both tableaux share, read by `_lex_less`
    Mutant(
        "free appended instead of kept sorted",
        "gamesolve.py",
        "bisect.insort(self.free, k)",
        "self.free.append(k)",
        (*LH, *LH_SLACKS),
    ),
    Mutant(
        "own[row] not reset when a strategy enters",
        "gamesolve.py",
        "self.own[row] = self.nslack",
        "pass",
        LH_SLACKS,
    ),
    Mutant(
        "entering slack left in free",
        "gamesolve.py",
        "self.free.remove(k)",
        "pass",
        LH_SLACKS,
    ),
    # the hider's tableau held by its slack block
    Mutant(
        "c_i rhs term dropped from an entering column",
        "gamesolve.py",
        "col = [c * tr[-1] for tr in rows] if c else [0] * self.n",
        "col = [0] * self.n",
        (
            # reduction games need no shift, so c is 0 there
            "tests/test_lh_differential.py::test_negative_payoff_keeps_the_shift",
            "tests/test_lh_differential.py::test_zero_payoff_row_keeps_the_shift",
        ),
    ),
    Mutant(
        "leaving slack's column stored as +d",
        "gamesolve.py",
        "            at[k], where[leaving - m] = leaving - m, k\n",
        "            at[k], where[leaving - m] = leaving - m, k\n"
        "            for r, (tr, d) in enumerate(zip(rows, col)):\n"
        "                if r != row:\n"
        "                    tr[k] = d\n",
        (*LH, LH_WORK),
    ),
    Mutant(
        "basic slack's implicit column read at the wrong row",
        "gamesolve.py",
        "col[~k] -= l * self.prev",
        "col[k] -= l * self.prev",
        (*LH, LH_WORK),
    ),
    # verify_stable decides in integers
    Mutant(
        "factor 2 dropped from the split",
        "stability.py",
        "split = 2 * phi.denominator * (",
        "split = phi.denominator * (",
        STABILITY,
    ),
    Mutant(
        "binding test != loosened to <",
        "stability.py",
        "elif mun[x][y] > 0 and split != half:",
        "elif mun[x][y] > 0 and split < half:",
        STABILITY,
    ),
    Mutant(
        "column sum read from a row",
        "stability.py",
        "zip(problem.jobs, problem.m, zip(*mun))",
        "zip(problem.jobs, problem.m, mun)",
        STABILITY,
    ),
    # check_tu decided on integer odds
    Mutant(
        "one factor of the cross product swapped",
        "tu.py",
        "num, den = a00 * axy * bx0 * b0y, ax0 * a0y * b00 * bxy",
        "num, den = a00 * axy * bx0 * a0y, ax0 * b0y * b00 * bxy",
        ("tests/test_tu.py::test_check_tu_agrees_with_the_fraction_odds",),
    ),
    # support enumeration's dominance sweep
    Mutant(
        "flipped dominance direction in the sweep",
        "gamesolve.py",
        "larger = [[b | 1 << j for j in range(nother) if not b >> j & 1] for b in range(1 << nother)]",
        "larger = [[b ^ 1 << j for j in range(nother) if b >> j & 1] for b in range(1 << nother)]",
        ("tests/test_support_differential.py::test_prune_is_active",),
    ),
    Mutant(
        "dropped neighbour check in the sweep",
        "gamesolve.py",
        "for d in larger[b]:",
        "for d in ():",
        ("tests/test_support_differential.py::test_prune_is_active",),
    ),
    # the fixed enumeration limits
    Mutant(
        "oracle cell cap refuses 9 cells",
        "oracle.py",
        "if ncells > MAX_CELLS or",
        "if ncells >= MAX_CELLS or",
        ("tests/test_oracle.py::test_caps_are_enforced",),
    ),
    Mutant(
        "oracle type cap refuses 8 types",
        "oracle.py",
        "or nx + ny > MAX_TYPES:",
        "or nx + ny >= MAX_TYPES:",
        ("tests/test_oracle.py::test_caps_are_enforced",),
    ),
    # each push into the relative interior starts from its sweep's result
    Mutant(
        "hider push solves its system again",
        "gamesolve.py",
        ", base=hider_solved[b, a])",
        ")",
        ("tests/test_support_differential.py::test_pushes_start_from_the_sweeps_results",),
    ),
    Mutant(
        "handed-in base used unchecked",
        "_simplex.py",
        "if base is not None and not (base.feasible and satisfies(system, base.point)):",
        "if False:",
        ("tests/test_simplex.py::test_relative_interior_point_starts_from_a_handed_in_base",),
    ),
    # the LP's early return at the basic point of its equalities
    Mutant(
        "early return without the inequality check",
        "_simplex.py",
        "if lhs > rhs * prev:",
        "if False:",
        ("tests/test_lp_integers.py::test_solve_is_the_full_pivot_path_in_every_integer",),
    ),
    Mutant(
        "early return without the sign check",
        "_simplex.py",
        "if v < 0 and nonneg[x]:",
        "if False:",
        ("tests/test_lp_integers.py::test_solve_is_the_full_pivot_path_in_every_integer",),
    ),
    Mutant(
        "first elimination step not replayed on the inequality rows",
        "_simplex.py",
        "for col, base, piv, prev in steps:",
        "for col, base, piv, prev in steps[1:]:",
        ("tests/test_simplex_differential.py::test_support_enumeration_bos",),
    ),
    # phase 1 of the LP
    Mutant(
        "artificial's cost not divided by its slack's scale",
        "_simplex.py",
        "cost[basis[i]] = big // scale[slack]",
        "cost[basis[i]] = big",
        ("tests/test_simplex.py::test_integer_rows_at_any_scale_give_the_same_system",),
    ),
    Mutant(
        "Bland's tie key reversed",
        "_simplex.py",
        "lhs == rhs and key[basis[i]] < key[basis[row]]",
        "lhs == rhs and key[basis[i]] > key[basis[row]]",
        ("tests/test_lp_integers.py::test_lp_integers_are_pinned",),
    ),
    Mutant(
        "support-pair budget check dropped",
        "gamesolve.py",
        "if total > SUPPORT_PAIR_BUDGET:",
        "if False:",
        ("tests/test_gamesolve.py::test_enumerate_equilibria_budget",),
    ),
    # blocking pairs only of an outcome of the problem's shape
    Mutant(
        "blocking_pairs shape guard removed",
        "stability.py",
        "if (len(outcome.u), len(outcome.v)) != (problem.nx, problem.ny):",
        "if False:",
        ("tests/test_stability.py::test_blocking_pairs_refuses_a_wrong_shape",),
    ),
    # an equilibrium's two values, summed once by is_equilibrium
    Mutant(
        "closing values read in swapped order",
        "gamesolve.py",
        'return vars(profile)["_values"]',
        'return vars(profile)["_values"][::-1]',
        (
            "tests/test_cli.py::test_solve_json",
            "tests/test_cli.py::test_solve_values_are_the_game_values",
        ),
    ),
    Mutant(
        "expected_values returning its two values swapped",
        "gamesolve.py",
        "return report.hider_loss, report.seeker_payoff",
        "return report.seeker_payoff, report.hider_loss",
        ("tests/test_gamesolve.py::test_expected_values_on_uneven2x2_game",),
    ),
    # type ids at the JSON edge, and the solve flags
    Mutant(
        "a JSON id of any type accepted",
        "model.py",
        "if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):",
        "if True:",
        (
            "tests/test_model.py::test_json_ids_are_strings_or_integers",
            "tests/test_cli.py::test_solve_refuses_ids_that_are_not_strings_or_integers",
        ),
    ),
    Mutant(
        "duplicate ids accepted at the JSON edge",
        "model.py",
        "if tid in ids:",
        "if False:",
        ("tests/test_model.py::test_json_ids_that_print_alike_are_duplicates",),
    ),
    # the input checks, the backward map and the rendering, on integers
    Mutant(
        "lambda check with <= at its upper end",
        "model.py",
        "if not 0 < lam.numerator < lam.denominator:",
        "if not 0 < lam.numerator <= lam.denominator:",
        (EDGES + "test_problem_checks_agree_on_boundary_and_malformed_inputs",),
    ),
    Mutant(
        "mass check accepting 0",
        "model.py",
        "if mass.numerator <= 0:",
        "if mass.numerator < 0:",
        (EDGES + "test_problem_checks_agree_on_boundary_and_malformed_inputs",),
    ),
    Mutant(
        "weight read upside down in the backward map",
        "reduction.py",
        "Fraction(num * w.denominator * top, w.numerator * bottom)",
        "Fraction(num * w.numerator * top, w.denominator * bottom)",
        (EDGES + "test_edges_agree_with_the_fraction_versions_on_the_corpora",),
    ),
    Mutant(
        "render pass skipping fmt inside lists",
        "cli.py",
        "return [fmt(v) if type(v) is Fraction else _shown(v, fmt) for v in value]",
        "return [str(v) if type(v) is Fraction else _shown(v, fmt) for v in value]",
        (EDGES + "test_render_is_byte_identical_on_every_transcript_payload",),
    ),
    Mutant(
        "--label accepted with --all-labels",
        "cli.py",
        "labels = p.add_mutually_exclusive_group()",
        "labels = p",
        ("tests/test_cli.py::test_solve_label_and_all_labels_exclude_each_other",),
    ),
)


def pytest(work: Path, tests) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)  # pyproject.toml puts the copy's src first
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=work,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def run(mutant: Mutant, work: Path) -> str | None:
    """Apply the mutant in `work`, run its tests, restore the file. Returns
    why it is not killed, or None when it is."""
    path = work / "src" / "ltumatch" / mutant.file
    original = path.read_text(encoding="utf-8")
    count = original.count(mutant.snippet)
    if count != 1:
        return f"its snippet occurs {count} times in src/ltumatch/{mutant.file}"
    path.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    try:
        done = pytest(work, mutant.tests)
    finally:
        path.write_text(original, encoding="utf-8")
    if done.returncode == 0:
        return "survived: its tests pass"
    if done.returncode != 1:  # 1 is "tests failed"; anything else is no verdict
        return f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}"
    return None


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for mutant in MUTANTS:
            print(f"{mutant.file}: {mutant.name}")
        return 0
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failures = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ltumatch-mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "data", "perfbench"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        clean = pytest(work, sorted({test for m in chosen for test in m.tests}))
        if clean.returncode != 0:
            print(f"the named tests fail without any mutant:\n{clean.stdout[-2000:]}")
            return 1
        for mutant in chosen:
            t0 = time.perf_counter()
            problem = run(mutant, work)
            status = "killed" if problem is None else f"NOT KILLED, {problem}"
            print(f"{mutant.file}: {mutant.name}: {status} ({time.perf_counter() - t0:.1f} s)", flush=True)
            failures += problem is not None
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
