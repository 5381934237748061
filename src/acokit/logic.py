"""Ground normal logic programs with locally stratified negation.

Provides stratification discovery, the one-step consequence operator, the
stratum-depth ultrametric on interpretations, perfect-model computation
(cross-checked against an independent stratum-by-stratum evaluation), and
a per-atom processor decomposition for asynchronous runs.
"""

from __future__ import annotations

import io
import re
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .errors import PreconditionError, SemanticsError
from .iteration import BitRules, DecomposedOperator, rule_operator
from .util import json_object, refuse_assignment, typed

# fractions is imported inside each function that builds a Fraction, and
# ultrametric inside each function that builds or classifies a space: most
# commands do neither and start faster without them
if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

    from .ultrametric import ContractionReport, ProductSpace, RadiusScale

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
    def atom_bit(self) -> dict:
        """Atom k as bit ``n - 1 - k``, so a mask is the interpretation's
        index in :func:`interpretation_space`."""
        n = len(self.atoms)
        return {a: 1 << (n - 1 - k) for k, a in enumerate(self.atoms)}

    @cached_property
    def consequence_rule(self) -> BitRules:
        """The consequence operator as a rule table over :attr:`atom_bit`,
        one rule ``(head, pos, neg)`` per clause.  A clause derives its
        head exactly when every atom in ``pos`` is held and none in
        ``neg`` is; a fact has ``pos = neg = 0``."""
        bit = self.atom_bit
        return BitRules(len(bit), tuple((bit[c.head], *(
            sum({bit[lit.atom] for lit in c.body if lit.positive == sign})
            for sign in (True, False))) for c in self.clauses))


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
    bit = program.atom_bit
    out = program.consequence_rule.step(
        sum(bit.get(a, 0) for a in frozenset(interp)))
    return frozenset(a for a, b in bit.items() if out & b)


def interpretation_distance(strat: Stratification, left, right) -> Fraction:
    """Distance between interpretations from the shallowest disagreement:
    ``2**-s`` where ``s`` is the least stratum in the symmetric difference,
    so agreement on deeper strata means closer."""
    from fractions import Fraction
    delta = frozenset(left) ^ frozenset(right)
    if not delta:
        return Fraction(0)
    return Fraction(1, 2 ** min(strat.of(a) for a in delta))


def interpretation_scale(strat: Stratification) -> RadiusScale:
    from fractions import Fraction

    from .ultrametric import RadiusScale
    top = strat.max_level
    return RadiusScale(tuple(
        [Fraction(0)] + [Fraction(1, 2 ** s) for s in range(top, -1, -1)]))


def interpretation_space(program: GroundProgram,
                         strat: Stratification) -> ProductSpace:
    """Per-atom product space whose max-distance equals
    :func:`interpretation_distance` on the full interpretation lattice.

    The atoms of one stratum share one component space, so its table and
    ball labels are built once."""
    from fractions import Fraction

    from .ultrametric import FiniteUltrametricSpace, ProductSpace
    scale = interpretation_scale(strat)
    levels = {level: FiniteUltrametricSpace(
        (False, True), scale,
        lambda m, n, r=Fraction(1, 2 ** level): Fraction(0) if m == n else r)
        for level in {strat.of(atom) for atom in program.atoms}}
    return ProductSpace(levels[strat.of(atom)] for atom in program.atoms)


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


def interpretation_labels(program: GroundProgram,
                          strat: Stratification) -> np.ndarray:
    """The ball labels of :func:`interpretation_space`, read off the masks.

    An interpretation's index in the space is its mask (atom k is bit
    ``n - 1 - k``, :attr:`GroundProgram.atom_bit`), and two
    interpretations that differ at an atom of stratum ``s`` lie
    ``2**-s`` apart, index ``top - s + 1`` of
    :func:`interpretation_scale`.  So at radius index ``r`` the ball's
    smallest mask, its label, keeps only the bits of the atoms at a
    greater index."""
    import numpy as np
    top = strat.max_level
    keep = [0] * (top + 2)
    for atom, bit in program.atom_bit.items():
        keep[top - strat.of(atom)] |= bit  # the greatest index below its own
    for r in range(top, -1, -1):  # and every smaller one
        keep[r] |= keep[r + 1]
    return (np.arange(1 << len(program.atoms), dtype=np.int64)
            & np.array(keep, dtype=np.int64)[:, None])


def classify_tp_contraction(program: GroundProgram) -> ContractionReport:
    """Classify the consequence operator on the interpretation space.

    The verdict is whatever the exhaustive check over all pairs finds;
    nothing is assumed about it.  The check reads its ball labels off the
    interpretation masks (:func:`interpretation_labels`), so no space is
    built.  Requires a nonempty atom base, a stratification and a
    desk-scale base: more than
    :data:`~acokit.iteration.IMAGES_MAX_WIDTH` atoms raise
    :class:`SizeLimitError` before any other work.
    """
    from .ultrametric import _classify
    if not program.atoms:
        raise PreconditionError("program has an empty atom base")
    images = program.consequence_rule.images()  # checks the size cap
    labels = interpretation_labels(program, _require_stratification(program))
    shifts = range(len(program.atoms) - 1, -1, -1)
    return _classify(lambda mask: tuple(bool(int(mask) >> b & 1)
                                        for b in shifts), images, labels)


def decompose_program(program: GroundProgram) -> DecomposedOperator:
    """One boolean processor per atom of the base, evaluated on bit masks
    (:func:`~acokit.iteration.rule_operator`)."""
    if not program.atoms:
        raise PreconditionError("program has an empty atom base")
    return rule_operator(program.consequence_rule, [
        {False: 0, True: bit} for bit in program.atom_bit.values()])
