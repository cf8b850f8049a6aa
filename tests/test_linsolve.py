"""Fourier-Motzkin elimination: soundness, witnesses, strictness."""

import random
from fractions import Fraction
from typing import Optional

import pytest

from hav.linsolve import LinearSystem, Solution
from hav.minsky import encode, encoded_run_path, parse_program
from hav.semantics import PathQuery, path_feasible
from helpers import reference_solve


def random_system(rng: random.Random, nvars: int, rows: int) -> LinearSystem:
    system = LinearSystem(nvars)
    for _ in range(rows):
        coeffs = {i: Fraction(rng.randint(-3, 3)) for i in range(nvars)
                  if rng.random() < 0.8}
        op = rng.choice(["<=", "<", "=", ">=", ">"])
        system.add(coeffs, op, Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
    return system


def test_feasible_witness_satisfies_exactly():
    rng = random.Random(61)
    feasible = 0
    for _ in range(300):
        system = random_system(rng, rng.randint(1, 4), rng.randint(1, 6))
        solution = system.solve()
        if solution is not None:
            feasible += 1
            assert system.satisfied_by(solution.values)
    assert feasible > 50  # the generator must actually exercise both outcomes


def test_infeasible_verdicts_survive_dense_sampling():
    rng = random.Random(62)
    checked = 0
    while checked < 5:
        system = random_system(rng, rng.randint(1, 4), rng.randint(2, 6))
        if system.solve() is not None:
            continue
        checked += 1
        for _ in range(10 ** 5 // 5):
            sample = [Fraction(rng.randint(-40, 40), rng.randint(1, 8))
                      for _ in range(system.nvars)]
            assert not system.satisfied_by(sample)


def test_equalities_become_zero_width_intervals():
    system = LinearSystem(2)
    system.add({0: Fraction(1)}, "=", 3)
    system.add({0: Fraction(1), 1: Fraction(1)}, "=", 5)
    solution = system.solve()
    assert solution.values == [3, 2]
    assert solution.unique()


def test_midpoint_witness():
    system = LinearSystem(1)
    system.add({0: Fraction(1)}, ">=", 2)
    system.add({0: Fraction(1)}, "<=", 6)
    assert system.solve().values == [4]


def test_strict_bounds_nudged():
    system = LinearSystem(1)
    system.add({0: Fraction(1)}, ">", 2)
    system.add({0: Fraction(1)}, "<", 6)
    values = system.solve().values
    assert values == [4]
    # one-sided strict bound: nudged by a unit
    system = LinearSystem(1)
    system.add({0: Fraction(1)}, ">", 2)
    assert system.solve().values == [3]


def test_strictness_is_contagious():
    system = LinearSystem(1)
    system.add({0: Fraction(1)}, "<", 1)
    system.add({0: Fraction(1)}, ">=", 1)
    assert system.solve() is None
    system = LinearSystem(1)
    system.add({0: Fraction(1)}, "<=", 1)
    system.add({0: Fraction(1)}, ">=", 1)
    assert system.solve().values == [1]


def test_contradictory_constants():
    system = LinearSystem(1)
    system.add({}, "=", 1)
    assert system.solve() is None


def test_unconstrained_variable_defaults_to_zero():
    system = LinearSystem(2)
    system.add({0: Fraction(1)}, "=", 7)
    solution = system.solve()
    assert solution.values == [7, 0]


# ----------------------------------------- occurrence index against the oracle

def chained_system(rng: random.Random) -> LinearSystem:
    """At most 5 variables and 7 rows, most of them equalities, so that one
    substitution feeds the next; Fourier-Motzkin without redundancy removal
    grows too fast beyond that."""
    nvars = rng.randint(1, 5)
    system = LinearSystem(nvars)
    for _ in range(rng.randint(1, 7)):
        coeffs = {i: Fraction(rng.randint(-3, 3)) for i in range(nvars)
                  if rng.random() < 0.6}
        op = rng.choice(["=", "=", "=", "<=", "<", ">=", ">"])
        system.add(coeffs, op, Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
    return system


def same_solution(system: LinearSystem) -> Optional[Solution]:
    solution = system.solve()
    expected = reference_solve(system)
    if expected is None:
        assert solution is None
    else:
        assert solution.values == expected.values
        assert solution.intervals == expected.intervals
    return solution


def test_matches_substitution_into_every_row():
    rng = random.Random(63)
    feasible = 0
    for _ in range(3000):
        feasible += same_solution(chained_system(rng)) is not None
    assert 300 < feasible < 2700  # both outcomes, many times


MINSKY_PROGRAMS = [
    "INC c1 -> 1\nINC c1 -> 2\nDEC c1 ? 2 : 3\nHALT",
    "INC c1 -> 1\nDEC c1 ? 1 : 2\nHALT",
    "DEC c2 ? 1 : 1\nINC c1 -> 2\nINC c1 -> 3\nDEC c1 ? 3 : 4\nHALT",
]


@pytest.mark.parametrize("text", MINSKY_PROGRAMS)
def test_matches_oracle_on_halting_paths(text, monkeypatch):
    enc = encode(parse_program(text))
    edges, _, _ = encoded_run_path(enc, 40)
    free = path_feasible(enc.automaton, PathQuery(tuple(edges)))
    assert free.feasible
    nudged = list(free.delays)
    nudged[-1] += Fraction(1, 3)
    queries = [PathQuery(tuple(edges)),
               PathQuery(tuple(edges), tuple(enumerate(free.delays))),
               PathQuery(tuple(edges), tuple(enumerate(nudged)))]
    results = [path_feasible(enc.automaton, q) for q in queries]
    monkeypatch.setattr(LinearSystem, "solve", reference_solve)
    expected = [path_feasible(enc.automaton, q) for q in queries]
    assert results == expected
    assert results[1].delays == free.delays


def test_substitution_cancels_a_variable_out_of_an_inequality():
    system = LinearSystem(2)
    system.add({0: Fraction(1), 1: Fraction(1)}, "<=", 5)
    system.add({1: Fraction(1)}, "<=", 4)
    system.add({0: Fraction(1), 1: Fraction(1)}, "=", 3)  # x1 := 3 - x0
    # row 0 is now 0 <= 2 (x0 cancelled), row 1 is -x0 <= 1 (x0 brought in)
    system.add({0: Fraction(1)}, "=", 2)
    solution = same_solution(system)
    assert solution.values == [2, 1]


def test_equality_that_empties_is_dropped():
    system = LinearSystem(2)
    system.add({0: Fraction(1), 1: Fraction(1)}, "=", 3)
    system.add({0: Fraction(2), 1: Fraction(2)}, "=", 6)  # 0 = 0 after x1 := 3 - x0
    system.add({0: Fraction(1)}, ">=", 1)
    system.add({0: Fraction(1)}, "<=", 2)
    solution = same_solution(system)
    assert solution.values == [Fraction(3, 2), Fraction(3, 2)]


def test_equality_that_empties_to_a_contradiction():
    system = LinearSystem(2)
    system.add({0: Fraction(1)}, ">=", 0)
    system.add({0: Fraction(1), 1: Fraction(1)}, "=", 3)
    system.add({0: Fraction(1), 1: Fraction(1)}, "=", 4)  # 0 = 1 after x1 := 3 - x0
    assert same_solution(system) is None


def test_solve_twice_leaves_constraints_alone():
    rng = random.Random(64)
    for _ in range(200):
        system = chained_system(rng)
        before = list(system.constraints)
        first, second = system.solve(), system.solve()
        assert first == second
        assert system.constraints == before
