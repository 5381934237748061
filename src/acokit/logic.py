"""Ground normal logic programs with locally stratified negation.

Provides stratification discovery, the one-step consequence operator, the
stratum-depth ultrametric on interpretations, perfect-model computation
(cross-checked against an independent stratum-by-stratum evaluation), and
a per-atom processor decomposition for asynchronous runs.
"""

from __future__ import annotations

import io
import re
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

# numpy is imported inside each function that uses it: most commands run
# no numpy pass and start faster without it

from .errors import PreconditionError, SemanticsError, SizeLimitError
from .iteration import DecomposedOperator
from .ultrametric import (
    ContractionReport,
    FiniteUltrametricSpace,
    ProductSpace,
    RadiusScale,
    classify_contraction,
)
from .util import json_object, refuse_assignment, typed

_CLASSIFY_MAX_ATOMS = 12
_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class Literal(NamedTuple):
    atom: str
    positive: bool


class Clause(NamedTuple):
    head: str
    body: tuple[Literal, ...]


class GroundProgram:
    """Clauses over a finite atom base; facts are clauses with empty body."""

    atoms: tuple[str, ...]
    clauses: tuple[Clause, ...]
    declared_strata: tuple[tuple[str, int], ...] | None

    def __init__(self, atoms, clauses, declared_strata=None):
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "declared_strata", declared_strata)

    __setattr__ = refuse_assignment

    @cached_property
    def consequence_rule(self) -> tuple:
        """The consequence operator as ``(head, pos, neg)`` masks, one
        triple per clause, with atom k as bit ``n - 1 - k``, so a mask is
        the interpretation's index in :func:`interpretation_space`.  A
        clause derives its head exactly when every atom in ``pos`` is held
        and none in ``neg`` is; a fact has ``pos = neg = 0``."""
        bit = {a: 1 << k for k, a in enumerate(reversed(self.atoms))}
        return tuple((bit[c.head], *(
            sum({bit[lit.atom] for lit in c.body if lit.positive == sign})
            for sign in (True, False))) for c in self.clauses)


def program_from_clauses(clauses, extra_atoms=(),
                         declared_strata=None) -> GroundProgram:
    clauses = tuple(clauses)
    atoms = set(extra_atoms)
    for clause in clauses:
        atoms.add(clause.head)
        for lit in clause.body:
            atoms.add(lit.atom)
    for atom in atoms:
        if not _ATOM_RE.match(atom):
            raise ValueError(f"bad atom name {atom!r}")
    declared = None
    if declared_strata is not None:
        declared = tuple(sorted(declared_strata.items()))
        for a, v in declared:
            if a not in atoms:
                raise ValueError(f"strata pragma names unknown atom {a!r}")
            if v < 0:
                raise ValueError(f"stratum of {a!r} must be non-negative")
    return GroundProgram(tuple(sorted(atoms)), clauses, declared)


def parse_program(text: str) -> GroundProgram:
    """Parse the one-clause-per-line program format.

    ``head :- lit, not lit.`` with ``head.`` for facts; ``%`` starts a
    comment; an optional ``% strata: {"atom": level}`` pragma supplies the
    stratification explicitly.
    """
    clauses = []
    declared = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%"):
            pragma = line[1:].strip()
            if pragma.startswith("strata:"):
                text = io.StringIO(pragma[len("strata:"):].strip())
                with json_object(text, f"line {lineno}: bad strata pragma",
                                 ValueError) as declared:
                    for level in declared.values():
                        typed(level, int, "a stratum must be an integer")
            continue
        if not line.endswith("."):
            raise ValueError(f"line {lineno}: clause must end with a period")
        line = line[:-1].strip()
        if ":-" in line:
            head_text, body_text = line.split(":-", 1)
        else:
            head_text, body_text = line, ""
        head = head_text.strip()
        if not _ATOM_RE.match(head):
            raise ValueError(f"line {lineno}: bad head atom {head!r}")
        body = []
        if body_text.strip():
            for token in body_text.split(","):
                token = token.strip()
                positive = True
                if token.startswith("not "):
                    positive = False
                    token = token[4:].strip()
                if not _ATOM_RE.match(token):
                    raise ValueError(f"line {lineno}: bad body atom {token!r}")
                body.append(Literal(token, positive))
        clauses.append(Clause(head, tuple(body)))
    return program_from_clauses(clauses, declared_strata=declared)


def load_program(path) -> GroundProgram:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read())


class Stratification:
    levels: tuple[tuple[str, int], ...]

    def __init__(self, levels):
        object.__setattr__(self, "levels", levels)

    __setattr__ = refuse_assignment

    @cached_property
    def mapping(self) -> dict:
        return dict(self.levels)

    def of(self, atom: str) -> int:
        return self.mapping[atom]

    @property
    def max_level(self) -> int:
        return max((v for _, v in self.levels), default=0)


class StratificationResult(NamedTuple):
    stratification: Stratification | None
    witness: tuple | None = None  # atom cycle through a negative edge

    @property
    def ok(self) -> bool:
        return self.stratification is not None


def _check_levels(program: GroundProgram, levels: dict):
    for clause in program.clauses:
        head_level = levels[clause.head]
        for lit in clause.body:
            if lit.positive and head_level < levels[lit.atom]:
                return clause, lit
            if not lit.positive and head_level <= levels[lit.atom]:
                return clause, lit
    return None


def find_stratification(program: GroundProgram) -> StratificationResult:
    """Assign minimal strata, or report a negative dependency cycle.

    Positive body atoms may share the head's stratum; negated ones must sit
    strictly below.  When the program declares strata they are validated
    and used as-is.

    Otherwise one iterative Tarjan pass over head -> body-atom dependencies
    emits each strongly connected component (SCC) after every SCC it
    depends on, and sets its stratum then: the largest level of a body atom
    outside it, plus one where that literal is negated.  A negated literal
    inside its head's SCC refutes stratification.  The witness goes through
    the first such literal (body atoms in atom order, then heads in the
    order the clauses first use that atom): a shortest walk from the head
    to the body atom along body -> head edges, closed with the head.
    """
    if program.declared_strata is not None:
        levels = dict(program.declared_strata)
        missing = [a for a in program.atoms if a not in levels]
        if missing:
            raise ValueError(f"strata pragma misses atom {missing[0]!r}")
        bad = _check_levels(program, levels)
        if bad is not None:
            clause, lit = bad
            raise ValueError(
                f"declared strata violate clause for {clause.head!r} "
                f"at literal {lit.atom!r}")
        return StratificationResult(
            Stratification(tuple(sorted(levels.items()))))

    body_of = {atom: [] for atom in program.atoms}
    for clause in program.clauses:
        body_of[clause.head].extend(clause.body)
    index, low, pending, level = {}, {}, {}, {}  # level: once emitted
    stack, negative_inside = [], set()  # (body atom, head) pairs
    for root in program.atoms:
        work = [] if root in index else [root]
        while work:
            atom = work[-1]
            if atom not in index:
                index[atom] = low[atom] = len(index)
                stack.append(atom)
                pending[atom] = iter(body_of[atom])
            for lit in pending[atom]:
                if lit.atom not in index:
                    work.append(lit.atom)
                    break
            else:  # every dependency of atom is done
                work.pop()
                for lit in body_of[atom]:
                    if lit.atom not in level:  # still on the stack
                        low[atom] = min(low[atom], low[lit.atom])
                if low[atom] < index[atom]:
                    continue
                members = [stack.pop()]
                while members[-1] != atom:
                    members.append(stack.pop())
                stratum = 0
                for m in members:
                    for lit in body_of[m]:
                        if lit.atom in level:  # in an SCC emitted earlier
                            stratum = max(stratum,
                                          level[lit.atom] + (not lit.positive))
                        elif not lit.positive:
                            negative_inside.add((lit.atom, m))
                level.update(dict.fromkeys(members, stratum))

    if not negative_inside:
        return StratificationResult(
            Stratification(tuple(sorted(level.items()))))
    first_use: dict = {}  # (body atom, head) -> rank of its first clause
    for clause in program.clauses:
        for lit in clause.body:
            first_use.setdefault((lit.atom, clause.head), len(first_use))
    body, head = min(negative_inside, key=lambda e: (e[0], first_use[e]))
    previous, queue = {body: None}, [body]
    for atom in queue:  # breadth first: the loop reads what it appends
        for lit in body_of[atom]:
            if lit.atom not in previous:
                previous[lit.atom] = atom
                queue.append(lit.atom)
    walk = [head]
    while walk[-1] != body:
        walk.append(previous[walk[-1]])
    return StratificationResult(None, (*walk, head))


def immediate_consequence(program: GroundProgram, interp) -> frozenset:
    """Heads of clauses whose bodies the interpretation satisfies; atoms
    outside the base are ignored."""
    return tuple_to_interp(program, _consequence_on_bits(program)(
        interp_to_tuple(program, interp)))


def interpretation_distance(strat: Stratification, left, right) -> Fraction:
    """Distance between interpretations from the shallowest disagreement:
    ``2**-s`` where ``s`` is the least stratum in the symmetric difference,
    so agreement on deeper strata means closer."""
    delta = frozenset(left) ^ frozenset(right)
    if not delta:
        return Fraction(0)
    return Fraction(1, 2 ** min(strat.of(a) for a in delta))


def interpretation_scale(strat: Stratification) -> RadiusScale:
    top = strat.max_level
    return RadiusScale(tuple(
        [Fraction(0)] + [Fraction(1, 2 ** s) for s in range(top, -1, -1)]))


def interpretation_space(program: GroundProgram,
                         strat: Stratification) -> ProductSpace:
    """Per-atom product space whose max-distance equals
    :func:`interpretation_distance` on the full interpretation lattice."""
    scale = interpretation_scale(strat)
    components = []
    for atom in program.atoms:
        radius = Fraction(1, 2 ** strat.of(atom))
        components.append(FiniteUltrametricSpace(
            (False, True), scale,
            lambda m, n, r=radius: Fraction(0) if m == n else r))
    return ProductSpace(components)


def interp_to_tuple(program: GroundProgram, interp) -> tuple:
    interp = frozenset(interp)
    return tuple(a in interp for a in program.atoms)


def tuple_to_interp(program: GroundProgram, bits) -> frozenset:
    return frozenset(a for a, b in zip(program.atoms, bits) if b)


def perfect_model_by_strata(program: GroundProgram,
                            strat: Stratification) -> frozenset:
    """Independent oracle: close each stratum in ascending order.

    Within a stratum only positive same-level dependencies remain, so a
    monotone fixpoint per level suffices; lower levels are already final.
    """
    model: set = set()
    for lvl in sorted({v for _, v in strat.levels}):
        level_clauses = [
            c for c in program.clauses if strat.of(c.head) == lvl]
        changed = True
        while changed:
            changed = False
            for clause in level_clauses:
                if clause.head in model:
                    continue
                if all((lit.atom in model) == lit.positive
                       for lit in clause.body):
                    model.add(clause.head)
                    changed = True
    return frozenset(model)


class PerfectModelResult(NamedTuple):
    model: frozenset | None
    trajectory: tuple[frozenset, ...]
    status: str  # "converged" | "cycle"
    stratification: Stratification

    @property
    def steps(self) -> int:
        return len(self.trajectory) - 1


def _require_stratification(program: GroundProgram) -> Stratification:
    result = find_stratification(program)
    if not result.ok:
        raise PreconditionError(
            f"program is not locally stratified; negative cycle "
            f"{' -> '.join(result.witness)}", witness=result.witness)
    return result.stratification


def compute_perfect_model(program: GroundProgram) -> PerfectModelResult:
    """Iterate the consequence operator from the empty interpretation.

    The fixed point is cross-checked against the stratum-by-stratum
    oracle; disagreement raises :class:`SemanticsError` since it means a
    bug, not bad input.
    """
    strat = _require_stratification(program)
    current = frozenset()
    trajectory = [current]
    seen = {current: 0}
    for step in range(1, 2 ** len(program.atoms) + 2):
        nxt = immediate_consequence(program, current)
        trajectory.append(nxt)
        if nxt == current:
            oracle = perfect_model_by_strata(program, strat)
            if oracle != nxt:
                raise SemanticsError(
                    f"iterated fixed point {sorted(nxt)} disagrees with the "
                    f"stratified oracle {sorted(oracle)}")
            return PerfectModelResult(nxt, tuple(trajectory), "converged", strat)
        if nxt in seen:
            return PerfectModelResult(None, tuple(trajectory), "cycle", strat)
        seen[nxt] = step
        current = nxt
    return PerfectModelResult(None, tuple(trajectory), "cycle", strat)


def classify_tp_contraction(program: GroundProgram) -> ContractionReport:
    """Classify the consequence operator on the interpretation space.

    The verdict is whatever the exhaustive check over all pairs finds;
    nothing is assumed about it.  Requires a stratification and a
    desk-scale base.
    """
    if len(program.atoms) > _CLASSIFY_MAX_ATOMS:
        raise SizeLimitError(
            f"{len(program.atoms)} atoms; classification enumerates "
            f"2**n interpretations and is capped at {_CLASSIFY_MAX_ATOMS}")
    space = interpretation_space(program, _require_stratification(program))
    return classify_contraction(space, _consequence_images(program))


def decompose_program(program: GroundProgram) -> DecomposedOperator:
    """One boolean processor per atom of the base."""
    if not program.atoms:
        raise PreconditionError("program has an empty atom base")
    domains = tuple((False, True) for _ in program.atoms)
    return DecomposedOperator(domains, _consequence_on_bits(program))


def _consequence_images(program: GroundProgram) -> np.ndarray:
    """The consequence operator's image of every interpretation, indexed
    as in :func:`interpretation_space`, in one pass per clause."""
    import numpy as np
    masks = np.arange(1 << len(program.atoms))
    sig = np.zeros_like(masks)
    for head, pos, neg in program.consequence_rule:
        sig[((masks & pos) == pos) & ((masks & neg) == 0)] |= head
    return sig


def _consequence_on_bits(program: GroundProgram):
    """The consequence operator on tuples of per-atom truth values."""
    rule, shifts = program.consequence_rule, range(len(program.atoms))[::-1]

    def step(bits):
        mask = out = 0
        for held in bits:
            mask = mask << 1 | held
        for head, pos, neg in rule:
            if mask & pos == pos and not mask & neg:
                out |= head
        return tuple(out >> s & 1 == 1 for s in shifts)
    return step
