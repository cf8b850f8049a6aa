"""Command-line front end.

Exit codes: 0 success (or property Holds), 1 property Violated (or a rejected
simulation script), 2 usage/parse errors, 3 unsupported automaton class.
Results go to stdout (or -o files); diagnostics go to stderr. Identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from . import textfmt
from .bisim import coarsest_quotient
from .compose import flatten_modes, product
from .errors import (
    DiagonalUnsupported, HavError, NotInitialized, WrongClass,
)
from .mcheck import check_timed
from .minsky import encode, parse_program
from .model import AutomatonClass, classify, max_constant, mode_text
from .rational import format_rational, parse_rational
from .regions import region_graph
from .reductions import multirate_to_timed, rect_to_multirate
from .semantics import bouncing_ball, simulate, total_time
from .textfmt import (
    ModelDocument, ParseError, SourceSpan, parse_ltl, parse_model, print_model,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_model(path: str) -> ModelDocument:
    return parse_model(_read(path), filename=path)


def _script_steps(path: str) -> list[tuple]:
    """(delay, action, target or None) per step of a JSON simulation script.

    A script is a list of objects, each with an "action" string, an optional
    "delay" (default 0) and an optional "target" mode.
    """
    span = SourceSpan(path, 1, 1)
    try:
        steps = json.loads(_read(path))
    except RecursionError:
        raise ParseError("script nested too deeply", span) from None
    if not isinstance(steps, list):
        raise ParseError("a script is a JSON list of steps", span)
    out = []
    for i, raw in enumerate(steps):
        if not isinstance(raw, dict) or not isinstance(raw.get("action"), str):
            raise ParseError(f'step {i}: expected an object with an "action" string', span)
        if not isinstance(raw.get("target", ""), str):
            raise ParseError(f'step {i}: "target" must be a mode name string', span)
        try:
            delay = parse_rational(str(raw.get("delay", "0")))
        except ValueError:
            raise ParseError(f"step {i}: bad delay {raw['delay']!r}", span) from None
        out.append((delay, raw["action"], raw.get("target")))
    return out


def _pick_automaton(doc: ModelDocument, args) -> "object":
    network = getattr(args, "network", None)
    if network:
        return product(doc.network(network))
    name = getattr(args, "automaton", None)
    if name:
        return doc.automaton(name)
    if len(doc.automata) == 1:
        return doc.automata[0]
    raise HavError("model declares several automata: pass --automaton or --network")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hav", description="hybrid automata verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def model_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help=".hav model file")
        p.add_argument("--automaton", help="automaton name (for multi-automaton files)")
        return p

    p = model_command("classify", "report automaton class and initializedness")

    p = model_command("check", "LTL model checking via the region pipeline")
    p.add_argument("--formula", required=True, help="LTL formula text")
    p.add_argument("--network", help="check the product of this network")
    p.add_argument("--json", dest="json_out", help="write the counterexample JSON here")
    p.add_argument("--dot", action="store_true", help="also print the region graph DOT")

    p = model_command("simulate", "replay a (delay, action) script")
    p.add_argument("--script", required=True, help="JSON script file")

    p = model_command("regions", "region graph construction")
    p.add_argument("--network", help="use the product of this network")
    p.add_argument("--dot", action="store_true", help="print the region graph DOT")
    p.add_argument("--stats", action="store_true", help="print state count and bound")
    p.add_argument("-k", type=int, default=None, help="clock constant override (>= max constant)")

    p = sub.add_parser("compose", help="materialize a network product")
    p.add_argument("model", help=".hav model file")
    p.add_argument("--network", required=True)
    p.add_argument("-o", dest="out", help="output .hav path (default stdout)")

    p = model_command("quotient", "coarsest bisimulation quotient")
    p.add_argument("--network", help="use the product of this network")
    p.add_argument("--pipeline", choices=["regions"], default="regions")
    p.add_argument("--dot", action="store_true", help="print the quotient DOT")

    p = model_command("reduce", "class reductions (rectangular/multi-rate to timed)")
    p.add_argument("--to", dest="target", choices=["multirate", "timed"], required=True)
    p.add_argument("-o", dest="out", help="output .hav path (default stdout)")
    p.add_argument("--certificate", help="write the rescaling certificate JSON here")

    p = sub.add_parser("ltl2buchi", help="LTL to Büchi translation")
    p.add_argument("formula", help="LTL formula text")
    p.add_argument("--dot", action="store_true", help="print the automaton DOT")

    p = sub.add_parser("encode-minsky", help="encode a two-counter program")
    p.add_argument("program", help=".mm program file")
    p.add_argument("-o", dest="out", help="output .hav path (default stdout)")
    p.add_argument("--formula-out", help="write the halting formula here")

    p = sub.add_parser("ball", help="bouncing-ball impact times and Zeno analysis")
    p.add_argument("--l", dest="height", required=True, help="drop height (exact rational)")
    p.add_argument("--g", dest="gravity", required=True, help="gravity (exact rational)")
    p.add_argument("--c", dest="restitution", required=True, help="restitution in [0,1]")
    p.add_argument("--n", dest="bounces", type=int, default=10, help="impacts to list")
    return parser


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (WrongClass, NotInitialized, DiagonalUnsupported) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (HavError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    command = args.command
    if command == "classify":
        doc = _load_model(args.model)
        targets = [doc.automaton(args.automaton)] if args.automaton else list(doc.automata)
        for a in targets:
            report = classify(a)
            line = str(report)
            if report.klass == AutomatonClass.TIMED:
                line += f", K={max_constant(a)}"
            if len(targets) > 1:
                line = f"{a.name}: {line}"
            print(line)
        return 0

    if command == "check":
        doc = _load_model(args.model)
        automaton = _pick_automaton(doc, args)
        phi = parse_ltl(args.formula)
        rg = region_graph(automaton)
        verdict = check_timed(automaton, phi, rg=rg)
        if args.dot:
            sys.stdout.write(textfmt.emit_dot(rg.kripke))
        if verdict.holds:
            print("HOLDS")
            return 0
        print("VIOLATED")
        payload = textfmt.emit_counterexample(verdict.counterexample)
        if args.json_out:
            _write(args.json_out, payload + "\n")
        else:
            print(payload)
        if verdict.counterexample.concrete is not None:
            print(f"total time: {format_rational(total_time(verdict.counterexample.concrete))}",
                  file=sys.stderr)
        return 1

    if command == "simulate":
        doc = _load_model(args.model)
        automaton = _pick_automaton(doc, args)
        script = []
        mode = None
        for i, (delay, action, target) in enumerate(_script_steps(args.script)):
            source = mode
            if source is None:
                candidates = [t for t in automaton.transitions
                              if t.action == action and t.source in automaton.initial_modes]
            else:
                candidates = [t for t in automaton.edges_from(source) if t.action == action]
            if target is not None:
                candidates = [t for t in candidates if mode_text(t.target) == target]
            if len(candidates) != 1:
                raise HavError(
                    f"step {i}: action {action!r} matches {len(candidates)} edges "
                    "(disambiguate with \"target\")")
            script.append((delay, candidates[0]))
            mode = candidates[0].target
        try:
            run = simulate(automaton, script)
        except HavError as exc:
            print(f"rejected: {exc}", file=sys.stderr)
            return 1
        payload = {
            "start": {"mode": mode_text(run.start.mode),
                      "valuation": {k: format_rational(v)
                                    for k, v in sorted(run.start.valuation.items())}},
            "steps": [
                {"delay": format_rational(s.delay), "action": s.edge.action,
                 "mode": mode_text(s.config.mode),
                 "valuation": {k: format_rational(v)
                               for k, v in sorted(s.config.valuation.items())}}
                for s in run.steps
            ],
            "total_time": format_rational(total_time(run)),
        }
        print(json.dumps(payload, indent=2))
        return 0

    if command == "regions":
        doc = _load_model(args.model)
        automaton = _pick_automaton(doc, args)
        rg = region_graph(automaton, k=args.k)
        if args.stats or not args.dot:
            print(f"states: {len(rg.states)}")
            print(f"bound: {rg.bound}")
            print(f"deadlocks: {len(rg.deadlocks)}")
        if args.dot:
            sys.stdout.write(textfmt.emit_dot(rg.kripke))
        return 0

    if command == "compose":
        doc = _load_model(args.model)
        flat = flatten_modes(product(doc.network(args.network)))
        _write(args.out, print_model(ModelDocument((flat,), {})))
        return 0

    if command == "quotient":
        doc = _load_model(args.model)
        automaton = _pick_automaton(doc, args)
        rg = region_graph(automaton)
        quotient, partition = coarsest_quotient(rg)
        print(f"states: {len(rg.states)}")
        print(f"blocks: {partition.size}")
        if args.dot:
            sys.stdout.write(textfmt.emit_dot(quotient))
        return 0

    if command == "reduce":
        doc = _load_model(args.model)
        automaton = _pick_automaton(doc, args)
        if args.target == "multirate":
            reduced = rect_to_multirate(automaton)
            certificate = None
        else:
            report = classify(automaton)
            staged = rect_to_multirate(automaton) \
                if report.klass == AutomatonClass.RECTANGULAR else automaton
            reduced, certificate = multirate_to_timed(staged)
        _write(args.out, print_model(ModelDocument((reduced,), {})))
        if args.certificate:
            if certificate is None:
                raise HavError("--certificate applies only to --to timed")
            _write(args.certificate, certificate.to_json() + "\n")
        return 0

    if command == "ltl2buchi":
        from .buchi import translate_to_buchi
        automaton = translate_to_buchi(parse_ltl(args.formula))
        print(f"states: {len(automaton.states)}")
        print(f"transitions: {len(automaton.transitions)}")
        sizes = ", ".join(str(len(acc)) for acc in automaton.accepting)
        print(f"acceptance sets: {len(automaton.accepting)}"
              f" ({f'{sizes} states' if sizes else 'every cycle accepts'})")
        if args.dot:
            sys.stdout.write(textfmt.emit_dot(automaton))
        return 0

    if command == "encode-minsky":
        machine = parse_program(_read(args.program))
        enc = encode(machine)
        _write(args.out, print_model(ModelDocument((enc.automaton,), {})))
        if args.formula_out:
            _write(args.formula_out, textfmt.print_ltl(enc.formula) + "\n")
        return 0

    assert command == "ball"
    trajectory = bouncing_ball(parse_rational(args.height), parse_rational(args.restitution),
                               parse_rational(args.gravity), args.bounces)
    payload = {
        "t1": format_rational(trajectory.first_impact),
        "exact": trajectory.exact,
        "impacts": [format_rational(t) for t in trajectory.impact_times],
        "zeno_time": (None if trajectory.zeno_time is None
                      else format_rational(trajectory.zeno_time)),
        "verdict": trajectory.verdict,
    }
    print(json.dumps(payload, indent=2))
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
