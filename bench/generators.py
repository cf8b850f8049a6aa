"""Seeded input generators for the benchmark workloads.

Everything here is produced from a `random.Random` and plain text, so the
same seed gives the same inputs. The seed picks names, orders and which
counter a program uses; the amount of work per run is fixed by the tables
below, so runs with different seeds measure the same load.
"""

from __future__ import annotations

import random
import string

def copy_tags(rng: random.Random, n: int) -> list[str]:
    """n distinct suffixes such as "_qz", one per login copy, in sorted
    order, so that names sort the same way whatever the seed."""
    tags: set[str] = set()
    while len(tags) < n:
        tags.add("_" + "".join(rng.choice(string.ascii_lowercase) for _ in range(2)))
    return sorted(tags)


def login_automaton(tag: str, limit: int, backoff: int) -> str:
    """models/login.hav with every name suffixed by `tag` and its two
    constants (60 and 10) replaced by `limit` and `backoff`."""
    x = f"x{tag}"
    return f"""automaton login{tag} {{
  vars: {x};
  class: timed;
  mode standby{tag} {{ init; }}
  mode valid{tag} {{}}
  mode delay{tag} {{}}
  mode error{tag} {{}}
  mode connect{tag} {{}}
  edge standby{tag} -> valid{tag} on user_name{tag} reset {x};
  edge valid{tag} -> standby{tag} on restart{tag} when {x} > {limit};
  edge valid{tag} -> error{tag} on pw_fail{tag} when {x} < {limit};
  edge valid{tag} -> connect{tag} on pw_match{tag} when {x} < {limit};
  edge error{tag} -> delay{tag} on log_error{tag} reset {x};
  edge delay{tag} -> standby{tag} on restart{tag} when {x} >= {backoff};
}}
"""


def login_network(tags: list[str], limit: int, backoff: int) -> str:
    """A model file holding one renamed login copy per tag and the
    network `all` of them; copies share no action, so they interleave."""
    parts = [login_automaton(tag, limit, backoff) for tag in tags]
    members = ", ".join(f"login{tag}" for tag in tags)
    parts.append(f"network all {{ {members} }}\n")
    return "\n".join(parts)


# ------------------------------------------------------- fairness formulas

#: (G F A1 && ... && G F Am) -> G F B over two login copies, two for each
#: m = 2..5. Each atom is (mode, copy index). The rows were drawn at random
#: once and kept so that both verdicts occur and a pass takes a few
#: seconds. The seed only renames the copies and orders the cases: the
#: order of the conjuncts shapes the Büchi automaton, so it stays fixed.
FAIRNESS_TEMPLATES = (
    ((("valid", 0), ("standby", 0)), ("delay", 0)),
    ((("connect", 0), ("standby", 0)), ("delay", 1)),
    ((("delay", 0), ("valid", 0), ("connect", 1)), ("standby", 1)),
    ((("connect", 1), ("valid", 0), ("valid", 1)), ("error", 0)),
    ((("connect", 0), ("error", 1), ("delay", 0), ("error", 0)), ("standby", 1)),
    ((("error", 0), ("connect", 1), ("delay", 1), ("connect", 0)), ("standby", 1)),
    ((("standby", 0), ("connect", 0), ("error", 0), ("connect", 1), ("delay", 0)),
     ("valid", 1)),
    ((("connect", 0), ("error", 1), ("standby", 0), ("standby", 1), ("delay", 0)),
     ("connect", 1)),
)


def fairness_formulas(rng: random.Random, tags: list[str]) -> list[tuple[list[str], str]]:
    """One (assumption propositions, goal proposition) pair per template."""
    out = [([f"{mode}{tags[copy]}" for mode, copy in assumptions], f"{goal[0]}{tags[goal[1]]}")
           for assumptions, goal in FAIRNESS_TEMPLATES]
    rng.shuffle(out)
    return out


def fairness_text(assumptions: list[str], goal: str) -> str:
    body = " && ".join(f"G F {p}" for p in assumptions)
    return f"({body}) -> G F {goal}"


# ---------------------------------------------------------- Minsky programs

#: increments per program rise smoothly from SMALLEST to LARGEST, most of
#: the programs being small; with the drain loops a program of n increments
#: runs about 11 n encoded edges, so the programs span about 100 to 650 edges.
SMALLEST, LARGEST = 9, 58
#: every DEFECT_EVERY-th program ends by operating on its second counter
#: while that counter is encoded as a drifted zero, which the encoding
#: cannot do (see oracles.drifted_operand).
DEFECT_EVERY = 4


def minsky_programs(rng: random.Random, count: int) -> list[tuple]:
    """`count` halting two-counter programs as instruction tuples.

    Instructions are ("INC", c, goto), ("DEC", c, goto_positive, goto_zero)
    and ("HALT",). Each program zero-tests its second counter, then fills
    its main counter in one to three rounds and drains it with a decrement
    loop after each round. A quarter of the programs then increment or
    zero-test the second counter once more before HALT.
    """
    programs = []
    for i in range(count):
        size = round(SMALLEST * (LARGEST / SMALLEST) ** ((i / max(count - 1, 1)) ** 3))
        rounds = 1 + i % 3
        main = rng.choice((1, 2))
        other = 3 - main
        code: list[tuple] = [("DEC", other, 1, 1)]
        for r in range(rounds):
            for _ in range(size // rounds + (1 if r < size % rounds else 0)):
                code.append(("INC", main, len(code) + 1))
            here = len(code)
            code.append(("DEC", main, here, here + 1))
        if i % DEFECT_EVERY == DEFECT_EVERY - 1:
            here = len(code)
            code.append(("INC", other, here + 1) if i % 2 else ("DEC", other, here + 1, here + 1))
        code.append(("HALT",))
        programs.append(tuple(code))
    rng.shuffle(programs)
    return programs


def program_text(code: tuple) -> str:
    lines = []
    for inst in code:
        if inst[0] == "INC":
            lines.append(f"INC c{inst[1]} -> {inst[2]}")
        elif inst[0] == "DEC":
            lines.append(f"DEC c{inst[1]} ? {inst[2]} : {inst[3]}")
        else:
            lines.append("HALT")
    return "\n".join(lines) + "\n"
