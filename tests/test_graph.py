"""The search core: searches that ask for successors only as they go."""

from hav import mcheck
from hav.graph import accepting_lasso, explore
from hav.mcheck import check_timed, synchronized_product
from hav.textfmt import parse_ltl
from helpers import load_model


def count_up_or_back(n):
    """n -> 0 and n -> n + 1: infinitely many nodes, every one on a cycle."""
    return [(0, "back"), (n + 1, "up")]


def test_accepting_lasso_finds_lasso_in_infinite_graph():
    lasso = accepting_lasso([0], count_up_or_back, [{0}])
    assert lasso == ([0], [], [0], ["back"])


def test_accepting_lasso_stem_reaches_accepting_self_loop():
    lasso = accepting_lasso([0], lambda n: [(n, "stay"), (n + 1, "up")], [{3}])
    assert lasso == ([0, 1, 2, 3], ["up", "up", "up"], [3], ["stay"])


def test_accepting_lasso_loop_meets_every_set():
    # either cycle through 0 meets one set; only their union meets both
    graph = {0: [(1, "a"), (2, "b")], 1: [(0, "back1")], 2: [(0, "back2")]}
    lasso = accepting_lasso([0], graph.__getitem__, [{1}, {2}])
    assert lasso == ([0], [], [0, 1, 0, 2], ["a", "back1", "b", "back2"])
    assert accepting_lasso([0], graph.__getitem__, [{1}, {2}, {3}]) is None


def test_accepting_lasso_without_sets_takes_any_cycle():
    def chain_back_to_one(n):
        return [(n + 1, "up")] if n < 3 else [(1, "back")]

    lasso = accepting_lasso([0], chain_back_to_one, [])
    assert lasso == ([0, 1], ["up"], [1, 2, 3], ["up", "up", "back"])
    assert accepting_lasso([0], lambda n: [(n + 1, "up")] if n < 3 else [], []) is None


def test_explore_stops_at_depth_cap():
    found = explore([0], count_up_or_back, depth=3)
    assert found.nodes == [0, 1, 2, 3]
    assert found.edges == [(0, "back", 0), (0, "up", 1), (1, "back", 0), (1, "up", 2),
                           (2, "back", 0), (2, "up", 3)]
    assert found.open


def test_explore_closes_finite_graph():
    found = explore([2], lambda n: [((n + 1) % 3, "next")])
    assert found.nodes == [2, 0, 1]
    assert not found.open


def test_check_expands_part_of_reachable_product(monkeypatch):
    built = []

    def recording_product(k, b):
        built.append(synchronized_product(k, b))
        return built[-1]

    monkeypatch.setattr(mcheck, "synchronized_product", recording_product)
    login = load_model("login").automata[0]
    assert not check_timed(login, parse_ltl("G F standby")).holds
    (g,) = built
    expanded = len(g.adjacency)
    reachable = explore(g.initial, g.successors).nodes
    assert 0 < expanded < len(reachable)
