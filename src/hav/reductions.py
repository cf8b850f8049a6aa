"""Decidability reductions: initialized rectangular -> multi-rate -> timed.

Interval-rate variables are bracketed by a lower/upper tracking pair with
guard atoms split into clamp cases; constant-rate variables then rescale to
unit-rate clocks with guard constants adjusted and a global integer rescale.
Both directions preserve path feasibility (tested through the symbolic path
engine).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import EntryValueAmbiguous, HavError, NotInitialized, WrongClass
from .model import (
    _CMP, AtomicConstraint, AutomatonClass, FLIPPED, HybridAutomaton, JumpPredicate,
    Predicate, RateConst, RateInterval, Transition, classify, is_initialized,
    mode_text,
)
from .rational import format_rational


def split_names(var: str) -> tuple[str, str]:
    """Names of the lower/upper tracking variables for an interval variable."""
    return f"{var}_l", f"{var}_u"


def _clamp_cases(atom: AtomicConstraint, lo: str, up: str):
    """Case family replacing a rectangular atom over a bracketed variable.

    Each case is (atoms, clamps): extra guard atoms plus clamp resets pulling
    the crossed tracking bound back to the constant.
    """
    c = atom.const
    if atom.op == "<=":
        return [([AtomicConstraint(up, "<=", c)], {}),
                ([AtomicConstraint(lo, "<=", c), AtomicConstraint(up, ">", c)], {up: c})]
    if atom.op == "<":
        return [([AtomicConstraint(up, "<", c)], {}),
                ([AtomicConstraint(lo, "<", c), AtomicConstraint(up, ">=", c)], {up: c})]
    if atom.op == ">=":
        return [([AtomicConstraint(lo, ">=", c)], {}),
                ([AtomicConstraint(up, ">=", c), AtomicConstraint(lo, "<", c)], {lo: c})]
    if atom.op == ">":
        return [([AtomicConstraint(lo, ">", c)], {}),
                ([AtomicConstraint(up, ">", c), AtomicConstraint(lo, "<=", c)], {lo: c})]
    assert atom.op == "="
    return [([AtomicConstraint(lo, "<=", c), AtomicConstraint(up, ">=", c)],
             {lo: c, up: c})]


def _bracket_invariant_atom(atom: AtomicConstraint, lo: str, up: str) -> AtomicConstraint:
    """The convex in-mode residual of an invariant atom on a bracketed variable."""
    if atom.op in ("<=", "<"):
        return AtomicConstraint(lo, atom.op, atom.const)
    if atom.op in (">=", ">"):
        return AtomicConstraint(up, atom.op, atom.const)
    raise HavError(f"equality invariant {atom} cannot bracket an interval variable")


def rect_to_multirate(a: HybridAutomaton) -> HybridAutomaton:
    """Replace every interval-rate variable x by a (x_l, x_u) bracket pair.

    Guards on x split transitions into clamp cases (a guard x <= c becomes
    either x_u <= c, or x_l <= c with x_u clamped to c); resets set both
    halves; invariants keep their convex bound inside the mode and apply the
    clamp cases on entering edges.
    """
    report = classify(a)
    if not report.at_least(AutomatonClass.RECTANGULAR):
        raise WrongClass(f"need an initialized rectangular automaton, got {report.klass.value}")
    ok, witness = is_initialized(a)
    if not ok:
        edge, var = witness
        raise NotInitialized(f"variable {var!r} changes rate on {edge} without a reset")

    split = sorted({
        var for mode in a.modes for var in a.variables
        if isinstance(a.rate(mode, var), RateInterval)
    })
    if not split:
        return a
    fresh = {}
    taken = set(a.variables)
    for var in split:
        lo, up = split_names(var)
        if lo in taken or up in taken or lo == up:
            raise HavError(f"fresh names {lo}/{up} collide with declared variables")
        taken |= {lo, up}
        fresh[var] = (lo, up)
    variables = (a.variables - set(split)) | {n for pair in fresh.values() for n in pair}

    def split_rate(rate, which):
        if isinstance(rate, RateInterval):
            return RateConst(rate.lo if which == 0 else rate.hi)
        return rate

    flows = {}
    invariants = {}
    for mode in a.modes:
        flow = {}
        for var in a.variables:
            rate = a.rate(mode, var)
            if var in fresh:
                lo, up = fresh[var]
                flow[lo] = split_rate(rate, 0)
                flow[up] = split_rate(rate, 1)
            else:
                flow[var] = rate
        flows[mode] = flow
        atoms = []
        for atom in a.invariant(mode).conjuncts:
            if atom.var in fresh:
                atoms.append(_bracket_invariant_atom(atom, *fresh[atom.var]))
            else:
                atoms.append(atom)
        invariants[mode] = Predicate(tuple(atoms))

    init_atoms = []
    for atom in a.init.conjuncts:
        if atom.var in fresh:
            lo, up = fresh[atom.var]
            init_atoms.append(AtomicConstraint(lo, atom.op, atom.const))
            init_atoms.append(AtomicConstraint(up, atom.op, atom.const))
        else:
            init_atoms.append(atom)

    transitions = []
    for t in a.transitions:
        plain_atoms = []
        case_families = []
        for atom in t.guard.conjuncts:
            if atom.var in fresh:
                case_families.append(_clamp_cases(atom, *fresh[atom.var]))
            else:
                plain_atoms.append(atom)
        # entry normalization: target-invariant atoms on bracketed variables
        # not reset by this edge get the same clamp treatment
        for atom in a.invariant(t.target).conjuncts:
            if atom.var in fresh and atom.var not in t.jump.reset:
                case_families.append(_clamp_cases(atom, *fresh[atom.var]))
        base_resets = {}
        for var, value in t.jump.assignments:
            if var in fresh:
                lo, up = fresh[var]
                base_resets[lo] = value
                base_resets[up] = value
            else:
                base_resets[var] = value
        for combo in itertools.product(*case_families):
            atoms = list(plain_atoms)
            resets = {}
            for case_atoms, clamps in combo:
                atoms.extend(case_atoms)
                resets.update(clamps)
            resets.update(base_resets)  # explicit resets win over clamps
            transitions.append(Transition(
                t.source, Predicate(tuple(atoms)), t.action,
                JumpPredicate.of(resets), t.target))

    return HybridAutomaton(
        name=a.name,
        modes=a.modes,
        initial_modes=a.initial_modes,
        variables=frozenset(variables),
        transitions=tuple(transitions),
        invariants=invariants,
        flows=flows,
        init=Predicate(tuple(sorted(init_atoms, key=lambda at: at.var))),
        labels={m: a.labels[m] for m in a.modes},
    )


@dataclass
class ScaleCertificate:
    """Per (mode, variable) affine maps back to the original values.

    The original value of `var` while in `mode`, at rescaled clock value tau,
    is entry + rate * tau / l_factor. A feasible multi-rate delay vector d
    corresponds to the timed delay vector l_factor * d on the mapped path.
    """

    l_factor: int
    entries: dict = field(default_factory=dict)  # (mode, var) -> Fraction
    rates: dict = field(default_factory=dict)    # (mode, var) -> Fraction
    edge_map: list = field(default_factory=list)  # original index -> new index | None

    def timed_delays(self, delays) -> list[Fraction]:
        return [Fraction(d) * self.l_factor for d in delays]

    def original_delays(self, delays) -> list[Fraction]:
        return [Fraction(d) / self.l_factor for d in delays]

    def map_path(self, a: HybridAutomaton, timed: HybridAutomaton, edges) -> list:
        index = {t: i for i, t in enumerate(a.transitions)}
        out = []
        for edge in edges:
            new = self.edge_map[index[edge]]
            if new is None:
                raise HavError(f"edge {edge} was statically infeasible after rescaling")
            out.append(timed.transitions[new])
        return out

    def to_json(self) -> str:
        payload = {
            "l_factor": self.l_factor,
            "maps": [
                {"mode": mode_text(mode), "var": var,
                 "entry": format_rational(self.entries[(mode, var)]),
                 "rate": format_rational(self.rates[(mode, var)])}
                for (mode, var) in sorted(self.entries, key=lambda k: (mode_text(k[0]), k[1]))
            ],
        }
        return json.dumps(payload, indent=2)


#: last-reset value merged from incompatible paths; an error only when read
_AMBIGUOUS = object()


def multirate_to_timed(a: HybridAutomaton) -> tuple[HybridAutomaton, ScaleCertificate]:
    """Rescale every variable to a unit-rate clock, adjusting the constraints.

    A variable with rate r and last-reset value c in mode m satisfies
    x = c + r*t, so an atom x ~ k becomes t ~ (k-c)/r (relation flipped for
    r < 0, decided statically for r = 0). All constants are then multiplied
    by the lcm of their denominators so the result carries integers.
    """
    report = classify(a)
    if report.klass not in (AutomatonClass.MULTIRATE, AutomatonClass.TIMED):
        raise WrongClass(f"need an initialized multi-rate automaton, got {report.klass.value}")
    ok, witness = is_initialized(a)
    if not ok:
        edge, var = witness
        raise NotInitialized(f"variable {var!r} changes rate on {edge} without a reset")

    initial_values = a.initial_valuation()
    entries: dict[tuple, object] = {}
    worklist = []
    for mode in sorted(a.initial_modes, key=mode_text):
        for var in a.variables:
            entries[(mode, var)] = initial_values[var]
        worklist.append(mode)
    # forward dataflow on the lattice (unset < constant < AMBIGUOUS); a merge
    # of two constants is only an error if some atom later reads the value
    while worklist:
        mode = worklist.pop()
        for t in a.edges_from(mode):
            changed = False
            for var in a.variables:
                reset = t.jump.value_of(var)
                value = Fraction(reset) if reset is not None else entries[(mode, var)]
                key = (t.target, var)
                old = entries.get(key)
                joined = value if (old is None or old is value or old == value) \
                    else _AMBIGUOUS
                if joined is not old and joined != old:
                    entries[key] = joined
                    changed = True
            if changed:
                worklist.append(t.target)
    for mode in a.modes:  # unreachable modes keep a vacuous entry of 0
        for var in a.variables:
            entries.setdefault((mode, var), Fraction(0))

    rates = {(mode, var): Fraction(a.rate(mode, var).value)
             for mode in a.modes for var in a.variables}

    def rewrite_atom(mode, atom) -> Optional[object]:
        """Rewritten atom as (var, op, Fraction) or True/False when static."""
        c = entries[(mode, atom.var)]
        if c is _AMBIGUOUS:
            raise EntryValueAmbiguous(
                f"{atom.var!r} is read in mode {mode_text(mode)} but its last-reset "
                "value differs between incoming paths")
        r = rates[(mode, atom.var)]
        k = Fraction(atom.const)
        if r == 0:
            return _CMP[atom.op](c, k)
        op = atom.op if r > 0 else FLIPPED[atom.op]
        bound = (k - c) / r
        if bound < 0:
            # clocks are nonnegative: t >= negative is vacuous, t <= negative is absurd
            return op in (">=", ">")
        return (atom.var, op, bound)

    def rewrite_pred(mode, pred) -> Optional[list]:
        """List of (var, op, Fraction) atoms, or None when statically false."""
        out = []
        for atom in pred.conjuncts:
            got = rewrite_atom(mode, atom)
            if got is True:
                continue
            if got is False:
                return None
            out.append(got)
        return out

    new_invariants = {}
    dead_modes = set()
    for mode in a.modes:
        atoms = rewrite_pred(mode, a.invariant(mode))
        if atoms is None:
            dead_modes.add(mode)
            new_invariants[mode] = None
        else:
            new_invariants[mode] = atoms
    if a.initial_modes & dead_modes and a.initial_modes <= dead_modes:
        raise HavError("every initial mode has a statically false invariant")

    new_guards: list[Optional[list]] = []
    for t in a.transitions:
        if t.source in dead_modes or t.target in dead_modes:
            new_guards.append(None)
            continue
        new_guards.append(rewrite_pred(t.source, t.guard))

    constants = []
    for atoms in new_invariants.values():
        constants.extend(bound for _, _, bound in atoms or [])
    for atoms in new_guards:
        constants.extend(bound for _, _, bound in atoms or [])
    l_factor = lcm(*(f.denominator for f in constants)) if constants else 1

    def scale(atoms) -> Predicate:
        out = []
        for var, op, bound in atoms:
            scaled = bound * l_factor
            if scaled.denominator != 1:
                raise AssertionError(f"{var} {op} {bound} does not scale to an integer")
            out.append(AtomicConstraint(var, op, int(scaled)))
        return Predicate(tuple(out))

    certificate = ScaleCertificate(l_factor, entries, rates)
    transitions = []
    for t, atoms in zip(a.transitions, new_guards):
        if atoms is None:
            certificate.edge_map.append(None)
            continue
        certificate.edge_map.append(len(transitions))
        resets = JumpPredicate.of({var: 0 for var in t.jump.reset})
        transitions.append(Transition(t.source, scale(atoms), t.action, resets, t.target))

    unsat = AtomicConstraint(sorted(a.variables)[0], "<", 0) if a.variables else None
    invariants = {}
    for mode in a.modes:
        if mode in dead_modes:
            invariants[mode] = Predicate((unsat,)) if unsat else Predicate.true()
        else:
            invariants[mode] = scale(new_invariants[mode])

    timed = HybridAutomaton(
        name=a.name,
        modes=a.modes,
        initial_modes=frozenset(m for m in a.initial_modes if m not in dead_modes),
        variables=a.variables,
        transitions=tuple(transitions),
        invariants=invariants,
        flows={m: {x: RateConst(1) for x in a.variables} for m in a.modes},
        init=Predicate(tuple(AtomicConstraint(x, "=", 0) for x in sorted(a.variables))),
        labels={m: a.labels[m] for m in a.modes},
    )
    return timed, certificate
