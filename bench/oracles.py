"""Independent answers the benchmark checks the program's outputs against.

None of these reuse the code they check: fair-cycle detection is Tarjan
over the region Kripke structure instead of a Büchi product with nested
DFS, the Minsky machine runs on its own interpreter, the timing of an
encoded run is derived from the encoding's module durations, and
bisimulation blocks come from a plain signature refinement.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

from hav.kripke import STUTTER_ACTION
from hav.ltl import Lasso, eval_lasso
from hav.minsky import counter_representations
from hav.model import mode_text
from hav.semantics import simulate

# ------------------------------------------------------------ graph helpers

def reachable(initial, successors) -> set:
    seen = set(initial)
    stack = list(initial)
    while stack:
        s = stack.pop()
        for t in successors(s):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def strongly_connected(nodes, successors) -> list[set]:
    """Iterative Tarjan over `nodes`, following only edges inside `nodes`."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    out: list[set] = []
    for root in sorted(nodes):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter([t for t in successors(root) if t in nodes]))]
        while work:
            node, it = work[-1]
            pushed = False
            for t in it:
                if t not in index:
                    index[t] = low[t] = len(index)
                    stack.append(t)
                    on_stack.add(t)
                    work.append((t, iter([u for u in successors(t) if u in nodes])))
                    pushed = True
                    break
                if t in on_stack:
                    low[node] = min(low[node], index[t])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.add(member)
                    if member == node:
                        break
                out.append(comp)
    return out


def kripke_successors(kripke) -> dict:
    succ: dict = {s: set() for s in kripke.states}
    for t in kripke.transitions:
        succ[t.source].add(t.target)
    return succ


# ------------------------------------------------------------ check-fair

def fairness_violated(kripke, assumptions: list[str], goal: str) -> bool:
    """Whether (G F a1 && ... && G F am) -> G F goal fails on some path.

    It fails iff a reachable cycle avoids `goal` and visits every a_i: a
    nontrivial SCC of the reachable goal-free states that meets each a_i.
    """
    succ = kripke_successors(kripke)
    live = reachable(kripke.initial, succ.__getitem__)
    free = {s for s in live if goal not in kripke.labels[s]}
    for comp in strongly_connected(free, succ.__getitem__):
        if len(comp) == 1:
            s = next(iter(comp))
            if s not in succ[s]:
                continue
        if all(any(a in kripke.labels[s] for s in comp) for a in assumptions):
            return True
    return False


def replays(automaton, run) -> bool:
    """A concrete run must replay step by step through `simulate`."""
    again = simulate(automaton, [(s.delay, s.edge) for s in run.steps], start=run.start)
    return again.configurations == run.configurations


# ------------------------------------------------------------ check-net

def parse_check_stdout(text: str):
    """("HOLDS", None) or ("VIOLATED", counterexample JSON) from `hav check`."""
    first, _, rest = text.partition("\n")
    if first == "HOLDS" and not rest:
        return "HOLDS", None
    if first == "VIOLATED":
        return "VIOLATED", json.loads(rest)
    raise ValueError(f"unexpected check output {first!r}")


def counterexample_lasso(payload) -> Lasso:
    return Lasso.of([s["labels"] for s in payload["stem"]],
                    [s["labels"] for s in payload["loop"]])


def check_json_counterexample(automaton, phi, payload) -> str:
    """Problems with a printed counterexample; "" when there are none.

    Its trace must falsify phi, and when it carries delays its steps must
    replay through `simulate` with the printed entry valuations.
    """
    if eval_lasso(phi, counterexample_lasso(payload)):
        return "counterexample trace satisfies the formula"
    steps = payload["stem"] + payload["loop"]
    if not all("delay" in s for s in steps):
        return ""
    modes = {mode_text(m): m for m in automaton.modes}
    script = []
    for i, step in enumerate(steps):
        if step["action"] == STUTTER_ACTION:
            continue
        following = i + 1 if i + 1 < len(steps) else len(payload["stem"])
        source, target = modes[step["mode"]], modes[steps[following]["mode"]]
        edges = [t for t in automaton.edges_from(source)
                 if t.action == step["action"] and t.target == target]
        if len(edges) != 1:
            return f"step {i}: {len(edges)} edges match {step['action']}"
        script.append((i, Fraction(step["delay"]), edges[0]))
    run = simulate(automaton, [(d, e) for _, d, e in script])
    for (i, _, _), config in zip(script, run.configurations):
        printed = {k: Fraction(v) for k, v in steps[i]["valuation"].items()}
        if dict(config.valuation) != printed:
            return f"step {i}: replayed valuation differs from the printed one"
    return ""


# ------------------------------------------------------------ regions-full

def region_count_bound(modes: int, clocks: int, k: int) -> int:
    """|M| * |X|! * 2^|X| * (2k+2)^|X|, recomputed from the formula."""
    return modes * factorial(clocks) * 2 ** clocks * (2 * k + 2) ** clocks


def bisimulation_blocks(kripke) -> int:
    """Coarsest bisimulation size by plain signature refinement."""
    succ = kripke_successors(kripke)
    names: dict = {}
    block = {s: names.setdefault(kripke.labels[s], len(names)) for s in kripke.states}
    count = len(names)
    while True:
        names = {}
        block = {s: names.setdefault((block[s], frozenset(block[t] for t in succ[s])),
                                     len(names))
                 for s in kripke.states}
        if len(names) == count:
            return count
        count = len(names)


# ------------------------------------------------------------ fm-paths

def interpret(code: tuple, max_steps: int = 100_000) -> list[tuple[int, int, int]]:
    """(pc, c1, c2) before every executed instruction, ending at HALT."""
    pc, counters = 0, [0, 0, 0]
    trace = []
    for _ in range(max_steps):
        trace.append((pc, counters[1], counters[2]))
        inst = code[pc]
        if inst[0] == "HALT":
            return trace
        if inst[0] == "INC":
            counters[inst[1]] += 1
            pc = inst[2]
        elif counters[inst[1]] > 0:
            counters[inst[1]] -= 1
            pc = inst[2]
        else:
            pc = inst[3]
    raise RuntimeError("program did not halt")


def encoded_schedule(code: tuple, trace, entries) -> list[tuple[str, Fraction]]:
    """(action, delay) for every edge of the encoded halting run.

    Within a module, increments of counter c fire i_a, i_b and i_exit at
    times 1 - x_c, 1 - x_c/2 and 1; positive decrements fire i_a, i_b, i_c,
    i_exit at 0, 1 - x_c, 2 - 2 x_c and 2; a zero test fires i_zero at 0.
    The other counter's clock wraps whenever it reaches 1, before any
    module edge at the same instant. `entries[i]` holds the clock values
    on entry to the i-th executed module.
    """
    out = []
    for (pc, c1, c2), entry in zip(trace, entries):
        inst = code[pc]
        if inst[0] == "HALT":
            break
        op, other = ("x1", "x2") if inst[1] == 1 else ("x2", "x1")
        v_op, v_other = entry[op], entry[other]
        if inst[0] == "DEC" and (c1, c2)[inst[1] - 1] == 0:
            out.append((f"i{pc}_zero", Fraction(0)))
            continue
        if inst[0] == "INC":
            events = [(1 - v_op, f"i{pc}_a"), (1 - v_op / 2, f"i{pc}_b"),
                      (Fraction(1), f"i{pc}_exit")]
            duration = 1
        else:
            events = [(Fraction(0), f"i{pc}_a"), (1 - v_op, f"i{pc}_b"),
                      (2 - 2 * v_op, f"i{pc}_c"), (Fraction(2), f"i{pc}_exit")]
            duration = 2
        timeline = [(t, 1, k, name) for k, (t, name) in enumerate(events)]
        if v_other <= 1:
            t = 1 - v_other
            while t <= duration:
                timeline.append((t, 0, len(timeline), f"wrap_{other}"))
                t += 1
        now = Fraction(0)
        for t, _, _, name in sorted(timeline):
            out.append((name, t - now))
            now = t
    return out


def drifted_operand(code: tuple, trace, entries) -> bool:
    """Whether an instruction starts with its counter encoded as 0.

    A zero counter may drift from 1 to 0 while the other counter's modules
    run. Incrementing or zero-testing it from there leaves the encoding's
    domain, so the encoded path of such a halting program is infeasible.
    """
    for (pc, _, _), entry in zip(trace, entries):
        inst = code[pc]
        if inst[0] != "HALT" and entry["x1" if inst[1] == 1 else "x2"] == 0:
            return True
    return False


def exits_represent(trace, exits) -> bool:
    """Each module exit must encode the interpreter's counters."""
    for (_, c1, c2), valuation in zip(trace[1:], exits):
        if valuation["x1"] not in counter_representations(c1):
            return False
        if valuation["x2"] not in counter_representations(c2):
            return False
    return True
