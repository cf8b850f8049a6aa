"""Textual model language (.hav), LTL grammar, DOT export, counterexample JSON.

Model grammar (EBNF, `#` starts a line comment):

    model     := (automaton | network)+
    automaton := "automaton" NAME "{" item* "}"
    item      := "vars" ":" names? ";" | "class" ":" NAME ";"
               | "init" NAME "=" INT ("," NAME "=" INT)* ";"
               | mode | edge
    mode      := "mode" NAME "{" modeitem* "}"
    modeitem  := "init" ";" | "inv" conj ";" | "label" names? ";"
               | "rate" NAME ("=" INT | "in" "[" INT "," INT "]") ";"
    edge      := "edge" NAME "->" NAME "on" NAME
                 ("when" conj)? ("reset" reset ("," reset)*)? ";"
    reset     := NAME (":=" INT)?          # bare reset means := 0
    conj      := atom ("&&" atom)*
    atom      := "true" | NAME REL INT | NAME "-" NAME REL INT
    network   := "network" NAME "{" names? "}"

Missing rate clauses default to 1, missing label clauses to {mode name},
missing init clauses to all-zeros. Constants are integers only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .buchi import BuchiAutomaton
from .compose import Network, reachable_modes
from .errors import HavError
from .kripke import FiniteKripke
from .ltl import (
    Always, And, Eventually, FalseConst, Implies, LtlFormula, Next, Not, Or,
    Prop, TrueConst, Until, fold,
)
from .mcheck import Counterexample
from .model import (
    AtomicConstraint, AutomatonClass, HybridAutomaton, JumpPredicate,
    Predicate, RateConst, RateInterval, Transition, classify, mode_text,
)
from .rational import format_rational

CLASS_NAMES = {
    "timed": AutomatonClass.TIMED,
    "multirate": AutomatonClass.MULTIRATE,
    "rect": AutomatonClass.RECTANGULAR,
    "general": AutomatonClass.GENERAL,
}


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(HavError):
    def __init__(self, message: str, span: SourceSpan):
        self.span = span
        super().__init__(f"{span}: {message}")


class SemanticError(ParseError):
    pass


@dataclass(eq=True)
class ModelDocument:
    automata: tuple[HybridAutomaton, ...]
    networks: dict = field(default_factory=dict)

    def automaton(self, name: str) -> HybridAutomaton:
        for a in self.automata:
            if a.name == name:
                return a
        raise HavError(f"no automaton named {name!r}")

    def network(self, name: str) -> Network:
        if name not in self.networks:
            raise HavError(f"no network named {name!r}")
        return Network(tuple(self.automaton(n) for n in self.networks[name]))


_SYMBOLS = ["->", ":=", "<=", ">=", "&&", "||",
            "{", "}", "(", ")", "[", "]", ":", ";", ",", "=", "<", ">", "!", "-"]


def _shown(tok: _Token) -> str:
    return repr(tok.text) if tok.text else "end of input"


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | int | sym | eof
    text: str
    span: SourceSpan


def _tokenize(text: str, filename: str) -> list[_Token]:
    tokens = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        span = SourceSpan(filename, line, col)
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], SourceSpan(filename, line, col, j - i)))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], SourceSpan(filename, line, col, j - i)))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token("sym", sym, SourceSpan(filename, line, col, len(sym))))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", span)
    tokens.append(_Token("eof", "", SourceSpan(filename, line, col, 0)))
    return tokens


class _Parser:
    def __init__(self, text: str, filename: str):
        self.tokens = _tokenize(text, filename)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.text == text and tok.kind in ("sym", "ident")

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if not self.at(text):
            raise ParseError(f"expected {text!r}, found {_shown(tok)}", tok.span)
        return self.advance()

    def ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, found {_shown(tok)}", tok.span)
        return self.advance()

    def integer(self) -> int:
        negative = False
        if self.at("-"):
            self.advance()
            negative = True
        tok = self.peek()
        if tok.kind != "int":
            raise ParseError(f"expected integer, found {_shown(tok)}", tok.span)
        self.advance()
        value = int(tok.text)
        return -value if negative else value


def _parse_conj(p: _Parser) -> list:
    """Conjunction as a list of (atom, span) pairs; `true` contributes nothing."""
    atoms = []
    while True:
        if p.eat("true"):
            pass
        else:
            var = p.ident("variable")
            var2 = None
            if p.eat("-"):
                var2 = p.ident("variable").text
            op_tok = p.peek()
            if op_tok.text not in ("<", "<=", "=", ">=", ">"):
                raise ParseError(f"expected relational operator, found {op_tok.text!r}",
                                 op_tok.span)
            p.advance()
            const = p.integer()
            atoms.append((AtomicConstraint(var.text, op_tok.text, const, var2), var.span))
        if not p.eat("&&"):
            break
    return atoms


class _AutomatonBuilder:
    def __init__(self, name: str, span: SourceSpan):
        self.name = name
        self.span = span
        self.variables: list[str] = []
        self.declared_class: Optional[str] = None
        self.init_values: list[tuple[str, int, SourceSpan]] = []
        self.modes: list[str] = []
        self.mode_spans: dict[str, SourceSpan] = {}
        self.initial: list[str] = []
        self.rates: dict[str, dict] = {}
        self.invariants: dict[str, list] = {}
        self.labels: dict[str, Optional[list[str]]] = {}
        self.edges: list[tuple] = []
        self.var_uses: list[tuple[str, SourceSpan]] = []
        self.mode_uses: list[tuple[str, SourceSpan]] = []


def parse_model(text: str, filename: str = "<input>") -> ModelDocument:
    """Parse a .hav document; raises ParseError / SemanticError with positions."""
    p = _Parser(text, filename)
    automata: list[HybridAutomaton] = []
    networks: dict[str, tuple[str, ...]] = {}
    net_uses: list[tuple[str, SourceSpan]] = []
    names: set[str] = set()

    first = p.peek()
    if first.kind == "eof":
        raise ParseError("expected 'automaton' or 'network'", first.span)
    while p.peek().kind != "eof":
        tok = p.peek()
        if p.eat("automaton"):
            automata.append(_parse_automaton(p, names))
        elif p.eat("network"):
            name_tok = p.ident("network name")
            if name_tok.text in names or name_tok.text in networks:
                raise SemanticError(f"duplicate name {name_tok.text!r}", name_tok.span)
            p.expect("{")
            members = []
            if not p.at("}"):
                while True:
                    member = p.ident("automaton name")
                    members.append(member.text)
                    net_uses.append((member.text, member.span))
                    if not p.eat(","):
                        break
            p.expect("}")
            networks[name_tok.text] = tuple(members)
        else:
            raise ParseError(f"expected 'automaton' or 'network', found {tok.text!r}",
                             tok.span)

    known = {a.name for a in automata}
    for member, span in net_uses:
        if member not in known:
            raise SemanticError(f"network references unknown automaton {member!r}", span)
    return ModelDocument(tuple(automata), networks)


def _parse_automaton(p: _Parser, names: set[str]) -> HybridAutomaton:
    name_tok = p.ident("automaton name")
    if name_tok.text in names:
        raise SemanticError(f"duplicate name {name_tok.text!r}", name_tok.span)
    names.add(name_tok.text)
    b = _AutomatonBuilder(name_tok.text, name_tok.span)
    p.expect("{")
    while not p.at("}"):
        tok = p.peek()
        if p.eat("vars"):
            p.expect(":")
            if not p.at(";"):
                while True:
                    var = p.ident("variable name")
                    if var.text in b.variables:
                        raise SemanticError(f"duplicate variable {var.text!r}", var.span)
                    b.variables.append(var.text)
                    if not p.eat(","):
                        break
            p.expect(";")
        elif p.eat("class"):
            p.expect(":")
            cls = p.ident("class name")
            if cls.text not in CLASS_NAMES:
                raise SemanticError(
                    f"unknown class {cls.text!r} (timed|multirate|rect|general)", cls.span)
            b.declared_class = cls.text
            p.expect(";")
        elif p.eat("init"):
            while True:
                var = p.ident("variable name")
                p.expect("=")
                b.init_values.append((var.text, p.integer(), var.span))
                b.var_uses.append((var.text, var.span))
                if not p.eat(","):
                    break
            p.expect(";")
        elif p.eat("mode"):
            _parse_mode(p, b)
        elif p.eat("edge"):
            _parse_edge(p, b)
        else:
            raise ParseError(
                f"expected 'vars', 'class', 'init', 'mode' or 'edge', found {tok.text!r}",
                tok.span)
    p.expect("}")
    return _finish_automaton(b)


def _parse_mode(p: _Parser, b: _AutomatonBuilder) -> None:
    name = p.ident("mode name")
    if name.text in b.mode_spans:
        raise SemanticError(f"duplicate mode {name.text!r}", name.span)
    b.modes.append(name.text)
    b.mode_spans[name.text] = name.span
    b.rates[name.text] = {}
    b.invariants[name.text] = []
    b.labels[name.text] = None
    p.expect("{")
    while not p.at("}"):
        tok = p.peek()
        if p.eat("init"):
            b.initial.append(name.text)
            p.expect(";")
        elif p.eat("rate"):
            var = p.ident("variable name")
            b.var_uses.append((var.text, var.span))
            if p.eat("="):
                b.rates[name.text][var.text] = RateConst(p.integer())
            else:
                p.expect("in")
                p.expect("[")
                lo = p.integer()
                p.expect(",")
                hi = p.integer()
                p.expect("]")
                if lo > hi:
                    raise SemanticError(f"empty rate interval [{lo},{hi}]", var.span)
                b.rates[name.text][var.text] = RateInterval(lo, hi)
            p.expect(";")
        elif p.eat("inv"):
            atoms = _parse_conj(p)
            b.invariants[name.text].extend(atoms)
            b.var_uses.extend((a.var, s) for a, s in atoms)
            b.var_uses.extend((a.var2, s) for a, s in atoms if a.var2)
            p.expect(";")
        elif p.eat("label"):
            labels = []
            if not p.at(";"):
                while True:
                    labels.append(p.ident("proposition").text)
                    if not p.eat(","):
                        break
            existing = b.labels[name.text]
            b.labels[name.text] = (existing or []) + labels
            p.expect(";")
        else:
            raise ParseError(
                f"expected 'init', 'rate', 'inv' or 'label', found {tok.text!r}", tok.span)
    p.expect("}")


def _parse_edge(p: _Parser, b: _AutomatonBuilder) -> None:
    src = p.ident("mode name")
    p.expect("->")
    dst = p.ident("mode name")
    p.expect("on")
    action = p.ident("action name")
    b.mode_uses.append((src.text, src.span))
    b.mode_uses.append((dst.text, dst.span))
    guard_atoms: list = []
    resets: list[tuple[str, int]] = []
    if p.eat("when"):
        guard_atoms = _parse_conj(p)
        b.var_uses.extend((a.var, s) for a, s in guard_atoms)
        b.var_uses.extend((a.var2, s) for a, s in guard_atoms if a.var2)
    if p.eat("reset"):
        while True:
            var = p.ident("variable name")
            b.var_uses.append((var.text, var.span))
            value = 0
            if p.eat(":="):
                value = p.integer()
            resets.append((var.text, value))
            if not p.eat(","):
                break
    p.expect(";")
    b.edges.append((src.text, tuple(a for a, _ in guard_atoms), action.text,
                    tuple(resets), dst.text))


def _finish_automaton(b: _AutomatonBuilder) -> HybridAutomaton:
    declared_vars = set(b.variables)
    for var, span in b.var_uses:
        if var not in declared_vars:
            raise SemanticError(f"undeclared variable {var!r}", span)
    declared_modes = set(b.modes)
    for mode, span in b.mode_uses:
        if mode not in declared_modes:
            raise SemanticError(f"undeclared mode {mode!r}", span)
    if not b.modes:
        raise SemanticError(f"automaton {b.name!r} declares no modes", b.span)
    if not b.initial:
        raise SemanticError(f"automaton {b.name!r} marks no initial mode", b.span)

    init_map = {var: 0 for var in b.variables}
    for var, value, span in b.init_values:
        init_map[var] = value
    init = Predicate(tuple(AtomicConstraint(var, "=", init_map[var])
                           for var in sorted(b.variables)))

    labels = {}
    for mode in b.modes:
        given = b.labels[mode]
        labels[mode] = frozenset(given) if given is not None else frozenset({mode})

    automaton = HybridAutomaton(
        name=b.name,
        modes=tuple(b.modes),
        initial_modes=frozenset(b.initial),
        variables=frozenset(b.variables),
        transitions=tuple(
            Transition(src, Predicate(guard), action, JumpPredicate(resets), dst)
            for src, guard, action, resets, dst in b.edges),
        invariants={m: Predicate(tuple(a for a, _ in b.invariants[m])) for m in b.modes},
        flows={m: dict(b.rates[m]) for m in b.modes},
        init=init,
        labels=labels,
    )
    if b.declared_class is not None:
        wanted = CLASS_NAMES[b.declared_class]
        report = classify(automaton)
        if not report.at_least(wanted):
            detail = "; ".join(f"{w}: {r}" for w, r in report.violations[:3])
            raise SemanticError(
                f"automaton {b.name!r} declared {b.declared_class} but is "
                f"{report.klass.value} ({detail})", b.span)
    return automaton


def print_model(doc: ModelDocument) -> str:
    """Inverse printer: parse_model(print_model(doc)) is structurally equal to doc."""
    out = []
    for a in doc.automata:
        out.append(f"automaton {a.name} {{")
        if a.variables:
            out.append(f"  vars: {', '.join(sorted(a.variables))};")
        nonzero = [(atom.var, atom.const) for atom in a.init.conjuncts if atom.const != 0]
        if nonzero:
            out.append("  init " + ", ".join(f"{v} = {c}" for v, c in sorted(nonzero)) + ";")
        for mode in a.modes:
            out.append(f"  mode {mode} {{")
            if mode in a.initial_modes:
                out.append("    init;")
            for var in sorted(a.variables):
                rate = a.rate(mode, var)
                if isinstance(rate, RateConst):
                    if rate.value != 1:
                        out.append(f"    rate {var} = {rate.value};")
                elif isinstance(rate, RateInterval):
                    out.append(f"    rate {var} in [{rate.lo}, {rate.hi}];")
                else:
                    raise HavError(f"rate {rate} has no textual form")
            inv = a.invariant(mode)
            if not inv.is_true:
                out.append(f"    inv {inv};")
            labels = a.labels[mode]
            if labels != frozenset({mode}):
                out.append(f"    label {', '.join(sorted(labels))};" if labels
                           else "    label;")
            out.append("  }")
        for t in a.transitions:
            line = f"  edge {t.source} -> {t.target} on {t.action}"
            if not t.guard.is_true:
                line += f" when {t.guard}"
            if t.jump.assignments:
                parts = [var if value == 0 else f"{var} := {value}"
                         for var, value in t.jump.assignments]
                line += " reset " + ", ".join(parts)
            out.append(line + ";")
        out.append("}")
    for name, members in doc.networks.items():
        out.append(f"network {name} {{ {', '.join(members)} }}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------- LTL surface

_LTL_UNARY = {"!": Not, "X": Next, "F": Eventually, "G": Always}

#: Deepest nesting `parse_ltl` accepts, in operators and parentheses around
#: any point of the text and in operator levels of the syntax tree. At this
#: depth `hav check` needs at most about 620 frames (100 parentheses, each
#: six parser calls deep), within Python's default recursion limit of
#: 1000. NNF, the tableau's passes and printing run on `ltl.fold` and add
#: no frames; hashing a formula adds one per level.
MAX_LTL_DEPTH = 100


def parse_ltl(text: str, filename: str = "<formula>") -> LtlFormula:
    """Parse the LTL surface grammar.

    Precedence: unary (!, X, F, G) over U over && over || over ->;
    U and -> associate to the right. X, F, G, U are reserved words.
    Nesting deeper than MAX_LTL_DEPTH is a ParseError.
    """
    p = _Parser(text, filename)
    depth = 0

    def too_deep(span: SourceSpan) -> ParseError:
        return ParseError(f"formula nests deeper than {MAX_LTL_DEPTH} levels", span)

    def nested(parse) -> LtlFormula:
        nonlocal depth
        if depth == MAX_LTL_DEPTH:
            raise too_deep(p.peek().span)
        depth += 1
        node = parse()
        depth -= 1
        return node

    def parse_implies() -> LtlFormula:
        left = parse_or()
        if p.eat("->"):
            return Implies(left, nested(parse_implies))
        return left

    def parse_or() -> LtlFormula:
        node = parse_and()
        while p.eat("||"):
            node = Or(node, parse_and())
        return node

    def parse_and() -> LtlFormula:
        node = parse_until()
        while p.eat("&&"):
            node = And(node, parse_until())
        return node

    def parse_until() -> LtlFormula:
        left = parse_unary()
        if p.eat("U"):
            return Until(left, nested(parse_until))
        return left

    def parse_unary() -> LtlFormula:
        tok = p.peek()
        if tok.kind == "sym" and tok.text == "!":
            p.advance()
            return Not(nested(parse_unary))
        if tok.kind == "ident" and tok.text in ("X", "F", "G"):
            p.advance()
            return _LTL_UNARY[tok.text](nested(parse_unary))
        if p.eat("("):
            node = nested(parse_implies)
            p.expect(")")
            return node
        if tok.kind == "ident":
            p.advance()
            if tok.text == "true":
                return TrueConst()
            if tok.text == "false":
                return FalseConst()
            if tok.text == "U":
                raise ParseError("'U' is an operator, not a proposition", tok.span)
            return Prop(tok.text)
        raise ParseError(f"expected a formula, found {_shown(tok)}",
                         tok.span)

    first = p.peek()
    node = parse_implies()
    tail = p.peek()
    if tail.kind != "eof":
        raise ParseError(f"unexpected trailing input {tail.text!r}", tail.span)
    # && and || chains nest to the left in a loop, so only the tree shows it
    if fold(node, lambda f, kids: 1 + max(kids) if kids else 0) > MAX_LTL_DEPTH:
        raise too_deep(first.span)
    return node


def print_ltl(phi: LtlFormula) -> str:
    return str(phi)


# ------------------------------------------------------------------- exports


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _label_set(props) -> str:
    return "{" + ",".join(sorted(props)) + "}"


def emit_dot(graph) -> str:
    """DOT rendering of a FiniteKripke, Büchi automaton, or (product) automaton.

    Output is deterministic: identical inputs give byte-identical text.
    """
    if isinstance(graph, FiniteKripke):
        lines = ["digraph kripke {", "  rankdir=LR;", "  node [shape=box];"]
        for s in graph.states:
            label = _dot_escape(f"{graph.display[s]}\n{_label_set(graph.labels[s])}")
            shape = ' peripheries=2' if s in graph.initial else ""
            lines.append(f'  n{s} [label="{label}"{shape}];')
        for t in sorted(set(graph.transitions), key=lambda t: (t.source, t.target, t.action)):
            lines.append(f'  n{t.source} -> n{t.target} [label="{_dot_escape(t.action)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(graph, BuchiAutomaton):
        return _emit_dot_buchi(graph)
    if isinstance(graph, HybridAutomaton):
        return _emit_dot_automaton(graph)
    raise HavError(f"cannot render {type(graph).__name__} as DOT")


def _emit_dot_buchi(b: BuchiAutomaton) -> str:
    lines = ["digraph buchi {", "  rankdir=LR;"]
    for s in b.states:
        shape = "doublecircle" if s in b.accepting else "circle"
        extra = " style=bold" if s in b.initial else ""
        name = _dot_escape(b.display.get(s, str(s)))
        lines.append(f'  n{s} [shape={shape} label="{name}"{extra}];')
    for t in sorted(b.transitions, key=lambda t: (t.source, t.target, str(t.guard))):
        lines.append(f'  n{t.source} -> n{t.target} [label="{_dot_escape(str(t.guard))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_dot_automaton(a: HybridAutomaton) -> str:
    reachable = sorted(reachable_modes(a), key=mode_text)
    lines = ["digraph automaton {", "  rankdir=TB;", "  node [shape=box];"]
    index = {m: i for i, m in enumerate(reachable)}
    for m in reachable:
        label = _dot_escape(f"{mode_text(m)}\n{_label_set(a.labels[m])}")
        shape = ' peripheries=2' if m in a.initial_modes else ""
        lines.append(f'  n{index[m]} [label="{label}"{shape}];')
    edges = [t for t in a.transitions if t.source in index and t.target in index]
    for t in sorted(edges, key=lambda t: (index[t.source], index[t.target], t.action)):
        text = t.action
        if not t.guard.is_true:
            text += f"\n{t.guard}"
        if t.jump.assignments:
            text += f"\n{t.jump}"
        lines.append(f'  n{index[t.source]} -> n{index[t.target]} '
                     f'[label="{_dot_escape(text)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_counterexample(cx: Counterexample) -> str:
    """Lasso counterexample as JSON: {"stem": [step...], "loop": [step...]}.

    Steps carry mode, labels, action, and, when a concrete run exists, the
    exact delay and entry valuation as "p/q" strings.
    """
    if not cx.loop:
        raise HavError("counterexample loop must be nonempty")

    def encode(step) -> dict:
        out = {"mode": step.mode, "labels": sorted(step.labels), "action": step.action}
        if step.delay is not None:
            out["delay"] = format_rational(step.delay)
        if step.valuation is not None:
            out["valuation"] = {k: format_rational(v)
                                for k, v in sorted(step.valuation.items())}
        return out

    payload = {"stem": [encode(s) for s in cx.stem], "loop": [encode(s) for s in cx.loop]}
    return json.dumps(payload, indent=2)
