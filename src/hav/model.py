"""Automaton, predicate, valuation and labeling types, plus class validation.

Mode identifiers are strings for parsed automata and tuples of strings for
network products; anything hashable works.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Hashable, Optional, Union

from .errors import UnknownVariable, WrongClass

ModeId = Hashable

RELOPS = ("<", "<=", "=", ">=", ">")

_CMP = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}

FLIPPED = {"<": ">", "<=": ">=", "=": "=", ">=": "<=", ">": "<"}


def mode_text(mode: ModeId) -> str:
    """Printable form of a mode id (tuples render as "(a,b,c)")."""
    if isinstance(mode, tuple):
        return "(" + ",".join(mode_text(m) for m in mode) + ")"
    return str(mode)


class Valuation(Mapping):
    """Immutable variable -> rational mapping, hashable by content."""

    __slots__ = ("_data", "_key")

    def __init__(self, values: Mapping[str, Fraction | int] | Iterable[tuple[str, Fraction | int]]):
        items = values.items() if isinstance(values, Mapping) else values
        self._data = {name: Fraction(v) for name, v in items}
        self._key = tuple(sorted(self._data.items()))

    def __getitem__(self, name: str) -> Fraction:
        try:
            return self._data[name]
        except KeyError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __hash__(self) -> int:
        return hash(self._key)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Valuation):
            return self._key == other._key
        if isinstance(other, Mapping):
            return self._data == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v}" for k, v in self._key)
        return "{" + body + "}"

    def updated(self, changes: Mapping[str, Fraction | int]) -> "Valuation":
        data = dict(self._data)
        data.update({k: Fraction(v) for k, v in changes.items()})
        return Valuation(data)


@dataclass(frozen=True)
class AtomicConstraint:
    """x ~ c (rectangular) or x - y ~ c (diagonal) with an integer constant."""

    var: str
    op: str
    const: int
    var2: Optional[str] = None  # set for diagonal atoms x - var2 ~ const

    def __post_init__(self):
        if self.op not in RELOPS:
            raise ValueError(f"bad relational operator {self.op!r}")
        if self.var2 == self.var:
            raise ValueError("diagonal atom needs two distinct variables")

    @property
    def diagonal(self) -> bool:
        return self.var2 is not None

    def variables(self) -> frozenset[str]:
        return frozenset((self.var, self.var2)) if self.var2 else frozenset((self.var,))

    def holds(self, v: Mapping[str, Fraction]) -> bool:
        lhs = v[self.var]
        if self.var2 is not None:
            lhs = lhs - v[self.var2]
        return _CMP[self.op](lhs, self.const)

    def __str__(self) -> str:
        lhs = self.var if self.var2 is None else f"{self.var} - {self.var2}"
        return f"{lhs} {self.op} {self.const}"


@dataclass(frozen=True)
class Predicate:
    """Conjunction of atomic constraints; the empty conjunction is true."""

    conjuncts: tuple[AtomicConstraint, ...] = ()

    @staticmethod
    def true() -> "Predicate":
        return Predicate(())

    @staticmethod
    def of(*atoms: AtomicConstraint) -> "Predicate":
        return Predicate(tuple(atoms))

    @property
    def is_true(self) -> bool:
        return not self.conjuncts

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for atom in self.conjuncts:
            out |= atom.variables()
        return frozenset(out)

    def conjoin(self, other: "Predicate") -> "Predicate":
        return Predicate(self.conjuncts + other.conjuncts)

    def holds(self, v: Mapping[str, Fraction]) -> bool:
        return all(atom.holds(v) for atom in self.conjuncts)

    def __str__(self) -> str:
        if not self.conjuncts:
            return "true"
        return " && ".join(str(a) for a in self.conjuncts)


@dataclass(frozen=True)
class JumpPredicate:
    """Constant assignments x' = c; unassigned variables keep their value."""

    assignments: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(sorted(self.assignments)))
        if len({name for name, _ in self.assignments}) != len(self.assignments):
            raise ValueError("variable assigned twice in one jump")

    @staticmethod
    def of(assignments: Mapping[str, int] | None = None) -> "JumpPredicate":
        return JumpPredicate(tuple((assignments or {}).items()))

    @property
    def reset(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.assignments)

    def value_of(self, var: str) -> Optional[int]:
        for name, value in self.assignments:
            if name == var:
                return value
        return None

    def apply(self, v: Valuation) -> Valuation:
        if not self.assignments:
            return v
        return v.updated({name: Fraction(value) for name, value in self.assignments})

    def __str__(self) -> str:
        return ", ".join(f"{n} := {c}" for n, c in self.assignments)


@dataclass(frozen=True)
class RateConst:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class RateInterval:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty rate interval [{self.lo},{self.hi}]")

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True)
class RateAffine:
    """Rate equal to the current value of another variable (x' = var).

    Only used to *represent* automata like the bouncing ball; no engine
    integrates it, and the text format cannot express it.
    """

    var: str

    def __str__(self) -> str:
        return self.var


Rate = Union[RateConst, RateInterval, RateAffine]


@dataclass(frozen=True)
class Transition:
    source: ModeId
    guard: Predicate
    action: str
    jump: JumpPredicate
    target: ModeId

    def __str__(self) -> str:
        parts = [f"{mode_text(self.source)} -> {mode_text(self.target)} on {self.action}"]
        if not self.guard.is_true:
            parts.append(f"when {self.guard}")
        if self.jump.assignments:
            parts.append(f"reset {self.jump}")
        return " ".join(parts)


@dataclass(frozen=True)
class Configuration:
    mode: ModeId
    valuation: Valuation

    def __str__(self) -> str:
        return f"({mode_text(self.mode)}, {self.valuation})"


@dataclass(eq=True)
class HybridAutomaton:
    """Finite-mode automaton with constant/interval rate flows.

    `init` is the initial-valuation predicate V0 (a conjunction; all-zero by
    convention for the decidable classes). `labels` maps every mode to its
    atomic-proposition set.
    """

    name: str
    modes: tuple[ModeId, ...]
    initial_modes: frozenset
    variables: frozenset[str]
    transitions: tuple[Transition, ...]
    invariants: dict = field(default_factory=dict)
    flows: dict = field(default_factory=dict)
    init: Predicate = Predicate.true()
    labels: dict = field(default_factory=dict)

    def __post_init__(self):
        modeset = set(self.modes)
        if not self.initial_modes:
            raise ValueError(f"automaton {self.name!r} has no initial mode")
        if not self.initial_modes <= modeset:
            raise ValueError("initial modes must be declared modes")
        self._edges: dict[ModeId, list[Transition]] = {}
        for t in self.transitions:
            if t.source not in modeset or t.target not in modeset:
                raise ValueError(f"transition endpoint not a declared mode: {t}")
            self._check_vars(t.guard.variables(), f"guard of {t}")
            self._check_vars(t.jump.reset, f"jump of {t}")
            self._edges.setdefault(t.source, []).append(t)
        for mode in self.modes:
            self.invariants.setdefault(mode, Predicate.true())
            self._check_vars(self.invariants[mode].variables(), f"invariant of {mode_text(mode)}")
            flow = self.flows.setdefault(mode, {})
            for var in self.variables:
                flow.setdefault(var, RateConst(1))
            self.labels.setdefault(mode, frozenset({mode_text(mode)}))
        self._check_vars(self.init.variables(), "initial predicate")

    def _check_vars(self, used: Iterable[str], where: str) -> None:
        extra = set(used) - self.variables
        if extra:
            raise UnknownVariable(f"undeclared variable(s) {sorted(extra)} in {where}")

    @property
    def actions(self) -> frozenset[str]:
        return frozenset(t.action for t in self.transitions)

    @property
    def propositions(self) -> frozenset[str]:
        out: set[str] = set()
        for props in self.labels.values():
            out |= props
        return frozenset(out)

    def rate(self, mode: ModeId, var: str) -> Rate:
        return self.flows[mode][var]

    def invariant(self, mode: ModeId) -> Predicate:
        return self.invariants[mode]

    def edges_from(self, mode: ModeId) -> list[Transition]:
        """The transitions leaving `mode`, in declaration order (a fresh list)."""
        return list(self._edges.get(mode, ()))

    def initial_valuation(self) -> Valuation:
        """The unique valuation pinned by V0 equalities; unpinned variables are 0."""
        values = {var: Fraction(0) for var in self.variables}
        for atom in self.init.conjuncts:
            if atom.op != "=" or atom.diagonal:
                raise ValueError("initial predicate does not pin a unique valuation")
            values[atom.var] = Fraction(atom.const)
        v = Valuation(values)
        if not self.init.holds(v):
            raise ValueError("initial predicate unsatisfiable")
        return v


class AutomatonClass(Enum):
    GENERAL = "general"
    RECTANGULAR = "rect"
    MULTIRATE = "multirate"
    TIMED = "timed"


# orderings for "at least as restrictive" checks
_CLASS_RANK = {
    AutomatonClass.GENERAL: 0,
    AutomatonClass.RECTANGULAR: 1,
    AutomatonClass.MULTIRATE: 2,
    AutomatonClass.TIMED: 3,
}


@dataclass
class ClassReport:
    klass: AutomatonClass
    initialized: bool
    violations: list[tuple[str, str]] = field(default_factory=list)

    def at_least(self, other: AutomatonClass) -> bool:
        return _CLASS_RANK[self.klass] >= _CLASS_RANK[other]

    def __str__(self) -> str:
        init = "initialized" if self.initialized else "not initialized"
        return f"{self.klass.value}, {init}"


def _predicate_violations(a: HybridAutomaton, allow_diag: bool) -> list[tuple[str, str]]:
    """Guard/invariant shape violations relative to the timed/rectangular grammars."""
    out = []

    def check(pred: Predicate, where: str):
        for atom in pred.conjuncts:
            if atom.diagonal and not allow_diag:
                out.append((where, f"diagonal atom {atom} not rectangular"))
            if atom.const < 0:
                out.append((where, f"negative constant in {atom}"))

    for t in a.transitions:
        check(t.guard, str(t))
    for mode in a.modes:
        check(a.invariants[mode], f"inv({mode_text(mode)})")
    return out


def _initialization_witness(a: HybridAutomaton) -> Optional[tuple[Transition, str]]:
    for t in a.transitions:
        for var in sorted(a.variables):
            if a.rate(t.source, var) != a.rate(t.target, var) and var not in t.jump.reset:
                return t, var
    return None


def _timed_violations(a: HybridAutomaton) -> list[tuple[str, str]]:
    out = _predicate_violations(a, allow_diag=True)
    for m in a.modes:
        for x in sorted(a.variables):
            r = a.rate(m, x)
            if not (isinstance(r, RateConst) and r.value == 1):
                out.append((f"flow({mode_text(m)})", f"rate of {x} is {r}, not 1"))
    for t in a.transitions:
        for var, value in t.jump.assignments:
            if value != 0:
                out.append((str(t), f"reset {var} := {value} is not a reset to zero"))
    try:
        if any(v != 0 for v in a.initial_valuation().values()):
            out.append(("init", "initial valuation is not all-zeros"))
    except ValueError as exc:
        out.append(("init", str(exc)))
    return out


def classify(a: HybridAutomaton) -> ClassReport:
    """Report the tightest syntactic class and initializedness.

    Timed: unit rates, resets to zero, octagonal natural-constant guards and
    invariants, V0 all zeros. Multi-rate: constant integer rates, rectangular
    natural-constant guards, integer resets. Rectangular additionally allows
    interval rates. Anything else (affine rates in particular) is general.
    The violations list explains why no tighter class applies.
    """
    rates = [a.rate(m, x) for m in a.modes for x in sorted(a.variables)]
    affine = [("flow", f"affine rate {r}") for r in rates if isinstance(r, RateAffine)]
    if affine:
        return ClassReport(AutomatonClass.GENERAL, _initialization_witness(a) is None, affine)

    witness = _initialization_witness(a)
    initialized = witness is None
    all_const = all(isinstance(r, RateConst) for r in rates)
    rect_viols = _predicate_violations(a, allow_diag=False)

    if all_const:
        timed_viols = _timed_violations(a)
        if not timed_viols:
            return ClassReport(AutomatonClass.TIMED, True)
        if not rect_viols:
            return ClassReport(AutomatonClass.MULTIRATE, initialized, timed_viols)
        return ClassReport(AutomatonClass.GENERAL, initialized, rect_viols)
    if not rect_viols:
        return ClassReport(AutomatonClass.RECTANGULAR, initialized)
    return ClassReport(AutomatonClass.GENERAL, initialized, rect_viols)


def is_initialized(a: HybridAutomaton) -> tuple[bool, Optional[tuple[Transition, str]]]:
    """Whether every rate-changing transition resets the affected variable.

    Returns (True, None) or (False, (transition, variable)). Raises WrongClass
    for general automata, where rates are not even comparable constants.
    """
    report = classify(a)
    if report.klass == AutomatonClass.GENERAL:
        raise WrongClass("is_initialized requires a rectangular or multi-rate automaton")
    witness = _initialization_witness(a)
    return witness is None, witness


def max_constant(a: HybridAutomaton) -> int:
    """Largest absolute constant over guards and invariants (0 if none)."""
    best = 0
    preds = [t.guard for t in a.transitions] + [a.invariants[m] for m in a.modes]
    for pred in preds:
        for atom in pred.conjuncts:
            best = max(best, abs(atom.const))
    return best
