"""Two-counter Minsky machines: interpreter, hybrid encoding, bounded oracle.

The encoding stores counter c as x1 = 1/2^c and d as x2 = 1/2^d. Increment
modules halve the operand in exactly one time unit; test-and-decrement
modules double it in exactly two, so the other counter survives through its
wrap self-loops (x=1 ? x:=0). Wraps falling on an edge instant are taken
*before* the module edge; as a consequence a counter sitting at zero may be
re-encoded as x = 0 rather than x = 1 after a module runs, which is the
"preserved modulo wrap" reading. Operating on a counter while it is in that
drifted zero representation leaves the construction's domain and is
infeasible by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import BudgetExceeded, HavError
from .ltl import And, Eventually, LtlFormula, Prop
from .model import (
    AtomicConstraint, HybridAutomaton, JumpPredicate, Predicate, RateConst,
    Transition, Valuation,
)
from .semantics import PathQuery, path_feasible

VARIABLES = ("x1", "x2", "y", "z", "z1", "u")


@dataclass(frozen=True)
class Inc:
    counter: int
    goto: int

    def __str__(self):
        return f"INC c{self.counter} -> {self.goto}"


@dataclass(frozen=True)
class TestDec:
    __test__ = False  # keep pytest collection away from the Test* name

    counter: int
    goto_positive: int
    goto_zero: int

    def __str__(self):
        return f"DEC c{self.counter} ? {self.goto_positive} : {self.goto_zero}"


@dataclass(frozen=True)
class Halt:
    def __str__(self):
        return "HALT"


Instruction = Union[Inc, TestDec, Halt]


@dataclass(frozen=True)
class MinskyMachine:
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        if not self.instructions or not isinstance(self.instructions[-1], Halt):
            raise ValueError("the final instruction must be HALT")
        for i, inst in enumerate(self.instructions):
            if isinstance(inst, Halt):
                if i != len(self.instructions) - 1:
                    raise ValueError("only the final instruction may be HALT")
                continue
            targets = ([inst.goto] if isinstance(inst, Inc)
                       else [inst.goto_positive, inst.goto_zero])
            if isinstance(inst, (Inc, TestDec)) and inst.counter not in (1, 2):
                raise ValueError(f"instruction {i}: counter must be 1 or 2")
            for t in targets:
                if not 0 <= t < len(self.instructions):
                    raise ValueError(f"instruction {i}: target {t} out of range")


@dataclass(frozen=True)
class MinskyConfig:
    pc: int
    c1: int
    c2: int

    def __post_init__(self):
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("counters are naturals")

    def counter(self, which: int) -> int:
        return self.c1 if which == 1 else self.c2

    def with_counter(self, which: int, value: int, pc: int) -> "MinskyConfig":
        if which == 1:
            return MinskyConfig(pc, value, self.c2)
        return MinskyConfig(pc, self.c1, value)


INITIAL_CONFIG = MinskyConfig(0, 0, 0)


def step(m: MinskyMachine, cfg: MinskyConfig) -> Optional[MinskyConfig]:
    """Deterministic successor; None once the machine has halted."""
    inst = m.instructions[cfg.pc]
    if isinstance(inst, Halt):
        return None
    if isinstance(inst, Inc):
        return cfg.with_counter(inst.counter, cfg.counter(inst.counter) + 1, inst.goto)
    value = cfg.counter(inst.counter)
    if value > 0:
        return cfg.with_counter(inst.counter, value - 1, inst.goto_positive)
    return cfg.with_counter(inst.counter, value, inst.goto_zero)


@dataclass(frozen=True)
class BoundedRun:
    halted: bool
    steps: int
    config: MinskyConfig


def run_bounded(m: MinskyMachine, max_steps: int) -> BoundedRun:
    """Simulate from (l0, 0, 0): halting step count or the frontier config."""
    cfg = INITIAL_CONFIG
    for executed in range(max_steps + 1):
        nxt = step(m, cfg)
        if nxt is None:
            return BoundedRun(True, executed, cfg)
        if executed == max_steps:
            break
        cfg = nxt
    return BoundedRun(False, max_steps, cfg)


def parse_program(text: str) -> MinskyMachine:
    """One instruction per line: `INC c1 -> 3`, `DEC c2 ? 4 : 5`, `HALT`."""
    instructions: list[Instruction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace("->", " -> ").replace("?", " ? ").replace(":", " : ").split()
        try:
            if parts[0] == "HALT" and len(parts) == 1:
                instructions.append(Halt())
            elif parts[0] == "INC" and parts[2] == "->" and len(parts) == 4:
                instructions.append(Inc(_counter(parts[1]), int(parts[3])))
            elif parts[0] == "DEC" and parts[2] == "?" and parts[4] == ":" and len(parts) == 6:
                instructions.append(TestDec(_counter(parts[1]), int(parts[3]), int(parts[5])))
            else:
                raise ValueError("unrecognized instruction")
        except (IndexError, ValueError) as exc:
            raise HavError(f"line {lineno}: cannot parse {line!r} ({exc})") from exc
    return MinskyMachine(tuple(instructions))


def _counter(text: str) -> int:
    if text not in ("c1", "c2"):
        raise ValueError(f"bad counter {text!r}")
    return 1 if text == "c1" else 2


# ------------------------------------------------------------------ encoding


@dataclass
class ModuleShape:
    """Edge handles for one instruction's gadget."""

    kind: str  # "inc" | "dec" | "halt"
    modes: list[str]
    edges: dict  # name -> Transition ("e1".."e4", "zero")
    wraps: dict  # mode -> wrap Transition


@dataclass
class EncodedMachine:
    machine: MinskyMachine
    automaton: HybridAutomaton
    formula: LtlFormula
    modules: dict


def _rect(var, op, c):
    return AtomicConstraint(var, op, c)


def _diag(var, var2, op, c):
    return AtomicConstraint(var, op, c, var2)


def encode(m: MinskyMachine) -> EncodedMachine:
    """The hybrid Kripke structure of the undecidability reduction.

    Rates are 1 for x1, x2, y, z, u and 2 for z1 in every mode. Instruction i
    owns mode L{i} (labeled l{i}); increments add A{i}, B{i}, decrements add
    A{i}, B{i}, C{i} with a fresh helper clock u. The halt mode is labeled
    HALT, and the returned formula is l0 && F HALT.
    """
    modes: list[str] = []
    transitions: list[Transition] = []
    labels: dict[str, frozenset] = {}
    modules: dict[int, ModuleShape] = {}

    def operand(counter: int) -> tuple[str, str]:
        return ("x1", "x2") if counter == 1 else ("x2", "x1")

    def add_mode(name: str, label=frozenset()):
        modes.append(name)
        labels[name] = frozenset(label)

    def add_wraps(shape: ModuleShape, other: str):
        for mode in shape.modes:
            wrap = Transition(mode, Predicate.of(_rect(other, "=", 1)),
                              f"wrap_{other}", JumpPredicate.of({other: 0}), mode)
            transitions.append(wrap)
            shape.wraps[mode] = wrap

    for i, inst in enumerate(m.instructions):
        if isinstance(inst, Halt):
            add_mode(f"L{i}", {f"l{i}", "HALT"})
            modules[i] = ModuleShape("halt", [f"L{i}"], {}, {})
            continue
        if isinstance(inst, Inc):
            op, other = operand(inst.counter)
            li, ai, bi = f"L{i}", f"A{i}", f"B{i}"
            add_mode(li, {f"l{i}"})
            add_mode(ai)
            add_mode(bi)
            e1 = Transition(li, Predicate.of(_rect(op, "=", 1)),
                            f"i{i}_a", JumpPredicate.of({"z": 0}), ai)
            e2 = Transition(ai, Predicate.of(_rect(op, ">", 1), _rect(other, "<", 1),
                                             _rect("y", "<", 1)),
                            f"i{i}_b", JumpPredicate.of({op: 0, "z1": 0}), bi)
            e3 = Transition(bi, Predicate.of(_diag("z", "z1", "=", 0), _rect("y", "=", 1),
                                             _rect(other, "<", 1)),
                            f"i{i}_exit", JumpPredicate.of({"y": 0}), f"L{inst.goto}")
            transitions.extend([e1, e2, e3])
            shape = ModuleShape("inc", [li, ai, bi], {"e1": e1, "e2": e2, "e3": e3}, {})
            add_wraps(shape, other)
            modules[i] = shape
            continue
        assert isinstance(inst, TestDec)
        op, other = operand(inst.counter)
        li, ai, bi, ci = f"L{i}", f"A{i}", f"B{i}", f"C{i}"
        add_mode(li, {f"l{i}"})
        add_mode(ai)
        add_mode(bi)
        add_mode(ci)
        zero = Transition(li, Predicate.of(_rect("y", "=", 0), _rect(op, "=", 1)),
                          f"i{i}_zero", JumpPredicate.of({}), f"L{inst.goto_zero}")
        e1 = Transition(li, Predicate.of(_rect("y", "=", 0), _rect(op, "<", 1)),
                        f"i{i}_a", JumpPredicate.of({"u": 0}), ai)
        e2 = Transition(ai, Predicate.of(_rect(op, "=", 1)),
                        f"i{i}_b", JumpPredicate.of({"z1": 0}), bi)
        e3 = Transition(bi, Predicate.of(_diag("z1", "u", "=", 0)),
                        f"i{i}_c", JumpPredicate.of({op: 0}), ci)
        e4 = Transition(ci, Predicate.of(_rect("y", "=", 2)),
                        f"i{i}_exit", JumpPredicate.of({"y": 0}), f"L{inst.goto_positive}")
        transitions.extend([zero, e1, e2, e3, e4])
        shape = ModuleShape("dec", [li, ai, bi, ci],
                            {"zero": zero, "e1": e1, "e2": e2, "e3": e3, "e4": e4}, {})
        add_wraps(shape, other)
        modules[i] = shape

    rates = {var: RateConst(1) for var in VARIABLES}
    rates["z1"] = RateConst(2)
    automaton = HybridAutomaton(
        name="minsky",
        modes=tuple(modes),
        initial_modes=frozenset({"L0"}),
        variables=frozenset(VARIABLES),
        transitions=tuple(transitions),
        invariants={mode: Predicate.true() for mode in modes},
        flows={mode: dict(rates) for mode in modes},
        init=Predicate(tuple(AtomicConstraint(v, "=", 1 if v in ("x1", "x2") else 0)
                             for v in sorted(VARIABLES))),
        labels=labels,
    )
    formula = And(Prop("l0"), Eventually(Prop("HALT")))
    return EncodedMachine(m, automaton, formula, modules)


def initial_encoding_valuation() -> Valuation:
    return Valuation({v: Fraction(1 if v in ("x1", "x2") else 0) for v in VARIABLES})


_RATES = {v: Fraction(2 if v == "z1" else 1) for v in VARIABLES}


class _Replay:
    """Exact timeline replay used to place wrap self-loops."""

    def __init__(self, valuation: Valuation):
        self.values = {v: Fraction(valuation[v]) for v in VARIABLES}
        self.now = Fraction(0)
        self.edges: list[Transition] = []

    def fire(self, at: Fraction, edge: Transition) -> None:
        dt = at - self.now
        assert dt >= 0, "events must be replayed in order"
        for v in VARIABLES:
            self.values[v] += _RATES[v] * dt
        self.now = at
        for var, value in edge.jump.assignments:
            self.values[var] = Fraction(value)
        self.edges.append(edge)

    def valuation(self) -> Valuation:
        return Valuation(self.values)


def _wrap_times(entry: Fraction, duration: int) -> list[Fraction]:
    """Times in [0, duration] at which a unit-rate wrap clock hits 1."""
    if entry > 1:
        return []  # already past the wrap guard; it can never fire again
    out = []
    t = 1 - entry
    while t <= duration:
        out.append(t)
        t += 1
    return out


def module_path(enc: EncodedMachine, index: int, entry: Valuation) -> tuple[list[Transition], Valuation]:
    """Edge sequence (wraps placed exactly) through instruction `index`'s module.

    Wraps tie-break before module edges at equal instants. Returns the edges
    and the exit valuation under the forced schedule.
    """
    inst = enc.machine.instructions[index]
    shape = enc.modules[index]
    if isinstance(inst, Halt):
        return [], entry
    op, other = ("x1", "x2") if inst.counter == 1 else ("x2", "x1")
    v_op = Fraction(entry[op])
    v_other = Fraction(entry[other])
    replay = _Replay(entry)

    if isinstance(inst, TestDec) and v_op in (Fraction(1), Fraction(0)):
        # zero branch: zero dwell, no wraps
        replay.fire(Fraction(0), shape.edges["zero"])
        return replay.edges, replay.valuation()

    if isinstance(inst, Inc):
        module_events = [
            (1 - v_op, shape.edges["e1"]),
            (1 - v_op / 2, shape.edges["e2"]),
            (Fraction(1), shape.edges["e3"]),
        ]
        duration = 1
    else:
        module_events = [
            (Fraction(0), shape.edges["e1"]),
            (1 - v_op, shape.edges["e2"]),
            (2 - 2 * v_op, shape.edges["e3"]),
            (Fraction(2), shape.edges["e4"]),
        ]
        duration = 2

    events = [(t, 1, k, edge) for k, (t, edge) in enumerate(module_events)]
    for w, t in enumerate(_wrap_times(v_other, duration)):
        events.append((t, 0, w, None))  # wrap priority 0: before edges at ties
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    current_mode = shape.modes[0]
    for t, _, _, edge in events:
        if edge is None:
            replay.fire(t, shape.wraps[current_mode])
        else:
            replay.fire(t, edge)
            current_mode = edge.target
    return replay.edges, replay.valuation()


def encoded_run_path(enc: EncodedMachine, max_steps: int) -> tuple[list[Transition], Valuation, list[Valuation]]:
    """Full edge sequence for the interpreter run (must halt within budget).

    Returns (edges, final valuation, module-exit valuations).
    """
    result = run_bounded(enc.machine, max_steps)
    if not result.halted:
        raise BudgetExceeded(
            f"machine still running after {max_steps} steps at {result.config}")
    edges: list[Transition] = []
    exits: list[Valuation] = []
    valuation = initial_encoding_valuation()
    cfg = INITIAL_CONFIG
    while not isinstance(enc.machine.instructions[cfg.pc], Halt):
        module_edges, valuation = module_path(enc, cfg.pc, valuation)
        edges.extend(module_edges)
        exits.append(valuation)
        cfg = step(enc.machine, cfg)
    return edges, valuation, exits


def halting_path_check(m: MinskyMachine, max_steps: int) -> bool:
    """Bounded oracle: the interpreter halts and its induced encoded path
    (with exact wrap placement) is feasible in the hybrid encoding."""
    enc = encode(m)
    edges, _, _ = encoded_run_path(enc, max_steps)
    if not edges:
        return True  # the empty program: L0 is already the halt mode
    feasibility = path_feasible(enc.automaton, PathQuery(tuple(edges)))
    return feasibility.feasible


def counter_representations(value: int, drifted_ok: bool = True) -> set[Fraction]:
    """Valid encodings of a counter value: 1/2^v, plus 0 for v = 0 after drift."""
    reps = {Fraction(1, 2 ** value)}
    if value == 0 and drifted_ok:
        reps.add(Fraction(0))
    return reps
