"""Finite automata over edge labels.

A regular path query is evaluated by simulating a finite automaton over
the edge labels of graph paths.  This module builds a Thompson NFA from
the parsed path expression and optionally determinises it (subset
construction).  Transitions are labeled either with a concrete label
string or with the wildcard :data:`~repro.rpq.regex.ANY_LABEL`.

The automata here are deliberately small and dictionary-based — query
expressions are tiny compared to graphs, so clarity beats compactness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.rpq.regex import (
    ANY_LABEL,
    Concat,
    Label,
    RegexNode,
    Repeat,
    Union,
    parse_path_expression,
)

#: Epsilon (empty) transition marker.
EPSILON = ""


@dataclass
class NFA:
    """A nondeterministic finite automaton with epsilon transitions."""

    start: int
    accept: int
    #: ``transitions[state][symbol] -> set of next states``; the symbol is
    #: a label string, :data:`ANY_LABEL`, or :data:`EPSILON`.
    transitions: Dict[int, Dict[str, Set[int]]] = field(default_factory=dict)

    @property
    def num_states(self) -> int:
        """Number of states mentioned by the transition table."""
        states = {self.start, self.accept}
        for state, arcs in self.transitions.items():
            states.add(state)
            for targets in arcs.values():
                states.update(targets)
        return len(states)

    def epsilon_closure(self, states: Set[int]) -> Set[int]:
        """All states reachable from ``states`` via epsilon transitions."""
        closure = set(states)
        stack = list(states)
        while stack:
            state = stack.pop()
            for target in self.transitions.get(state, {}).get(EPSILON, ()):  # pragma: no branch
                if target not in closure:
                    closure.add(target)
                    stack.append(target)
        return closure

    def step(self, states: Set[int], label: str) -> Set[int]:
        """States reachable by consuming one edge with ``label``."""
        next_states: Set[int] = set()
        for state in states:
            arcs = self.transitions.get(state, {})
            next_states.update(arcs.get(label, ()))
            if label != EPSILON:
                next_states.update(arcs.get(ANY_LABEL, ()))
        return self.epsilon_closure(next_states)

    def initial_states(self) -> Set[int]:
        """Epsilon closure of the start state."""
        return self.epsilon_closure({self.start})

    def is_accepting(self, states: Set[int]) -> bool:
        """Whether any of ``states`` is the accept state."""
        return self.accept in states

    def alphabet(self) -> Set[str]:
        """Concrete labels mentioned by the automaton (wildcard excluded)."""
        labels: Set[str] = set()
        for arcs in self.transitions.values():
            for symbol in arcs:
                if symbol not in (EPSILON, ANY_LABEL):
                    labels.add(symbol)
        return labels

    def matches(self, labels: List[str]) -> bool:
        """Whether the label sequence ``labels`` is accepted (testing aid)."""
        states = self.initial_states()
        for label in labels:
            states = self.step(states, label)
            if not states:
                return False
        return self.is_accepting(states)


class _NFABuilder:
    """Thompson construction with a monotonically increasing state counter."""

    def __init__(self) -> None:
        self._next_state = 0
        self.transitions: Dict[int, Dict[str, Set[int]]] = {}

    def new_state(self) -> int:
        state = self._next_state
        self._next_state += 1
        return state

    def add(self, src: int, symbol: str, dst: int) -> None:
        self.transitions.setdefault(src, {}).setdefault(symbol, set()).add(dst)

    # Each build method returns a (start, accept) fragment.
    def build(self, node: RegexNode) -> Tuple[int, int]:
        if isinstance(node, Label):
            start, accept = self.new_state(), self.new_state()
            symbol = ANY_LABEL if node.is_wildcard else node.name
            self.add(start, symbol, accept)
            return start, accept
        if isinstance(node, Concat):
            start, accept = None, None
            for part in node.parts:
                part_start, part_accept = self.build(part)
                if start is None:
                    start = part_start
                else:
                    self.add(accept, EPSILON, part_start)
                accept = part_accept
            assert start is not None and accept is not None
            return start, accept
        if isinstance(node, Union):
            start, accept = self.new_state(), self.new_state()
            for option in node.options:
                option_start, option_accept = self.build(option)
                self.add(start, EPSILON, option_start)
                self.add(option_accept, EPSILON, accept)
            return start, accept
        if isinstance(node, Repeat):
            return self._build_repeat(node)
        raise TypeError(f"unknown regex node {node!r}")

    def _build_repeat(self, node: Repeat) -> Tuple[int, int]:
        start, accept = self.new_state(), self.new_state()
        previous = start
        # Mandatory copies.
        for _ in range(node.minimum):
            fragment_start, fragment_accept = self.build(node.inner)
            self.add(previous, EPSILON, fragment_start)
            previous = fragment_accept
        if node.maximum is None:
            # Unbounded tail: one more copy looping on itself.
            loop_start, loop_accept = self.build(node.inner)
            self.add(previous, EPSILON, accept)
            self.add(previous, EPSILON, loop_start)
            self.add(loop_accept, EPSILON, loop_start)
            self.add(loop_accept, EPSILON, accept)
        else:
            # Optional copies up to the maximum.
            for _ in range(node.maximum - node.minimum):
                fragment_start, fragment_accept = self.build(node.inner)
                self.add(previous, EPSILON, accept)
                self.add(previous, EPSILON, fragment_start)
                previous = fragment_accept
            self.add(previous, EPSILON, accept)
        return start, accept


def build_nfa(expression) -> NFA:
    """Build a Thompson NFA from a path expression (string or AST)."""
    node = (
        parse_path_expression(expression)
        if isinstance(expression, str)
        else expression
    )
    builder = _NFABuilder()
    start, accept = builder.build(node)
    return NFA(start=start, accept=accept, transitions=builder.transitions)


@dataclass
class DFA:
    """A deterministic automaton produced by subset construction.

    The DFA keeps wildcard transitions explicit: each state has a
    ``default`` target used when the consumed label has no dedicated arc.
    """

    start: int
    accepting: Set[int]
    #: ``transitions[state][label] -> state`` for concrete labels.
    transitions: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: ``default[state] -> state`` for labels without a dedicated arc.
    default: Dict[int, int] = field(default_factory=dict)

    @property
    def num_states(self) -> int:
        """Number of DFA states."""
        states = {self.start} | set(self.accepting)
        states.update(self.transitions)
        states.update(self.default)
        for arcs in self.transitions.values():
            states.update(arcs.values())
        states.update(self.default.values())
        return len(states)

    def step(self, state: int, label: str) -> Optional[int]:
        """Next state after consuming ``label`` (``None`` = reject)."""
        arcs = self.transitions.get(state, {})
        if label in arcs:
            return arcs[label]
        return self.default.get(state)

    def is_accepting(self, state: int) -> bool:
        """Whether ``state`` accepts."""
        return state in self.accepting

    def matches(self, labels: List[str]) -> bool:
        """Whether the label sequence is accepted (testing aid)."""
        state: Optional[int] = self.start
        for label in labels:
            state = self.step(state, label)
            if state is None:
                return False
        return state in self.accepting


def determinize(nfa: NFA) -> DFA:
    """Subset construction with explicit wildcard handling."""
    alphabet = sorted(nfa.alphabet())
    initial = frozenset(nfa.initial_states())
    state_ids: Dict[FrozenSet[int], int] = {initial: 0}
    worklist: List[FrozenSet[int]] = [initial]
    dfa = DFA(start=0, accepting=set())
    if nfa.is_accepting(set(initial)):
        dfa.accepting.add(0)

    def intern(subset: FrozenSet[int]) -> int:
        if subset not in state_ids:
            state_ids[subset] = len(state_ids)
            worklist.append(subset)
            if nfa.is_accepting(set(subset)):
                dfa.accepting.add(state_ids[subset])
        return state_ids[subset]

    while worklist:
        subset = worklist.pop()
        subset_id = state_ids[subset]
        # Wildcard-only step: what happens on a label not in the alphabet.
        default_target = frozenset(nfa.step(set(subset), "\uFFFFunseen-label"))
        if default_target:
            dfa.default[subset_id] = intern(default_target)
        for label in alphabet:
            target = frozenset(nfa.step(set(subset), label))
            if target:
                dfa.transitions.setdefault(subset_id, {})[label] = intern(target)
    return dfa


def minimize_dfa(dfa: DFA) -> DFA:
    """Moore partition refinement with an implicit dead (reject) state.

    Subset construction routinely emits distinguishable-looking but
    equivalent states (e.g. ``a/c|b/c`` yields separate "after a" and
    "after b" states).  The product-graph frontier carries one item per
    ``(node, state)`` pair, so merging equivalent states shrinks every
    downstream frontier and the DFA-aware fixpoint bound.

    The reject case (``step`` returning ``None``) is modeled as a
    constant dead block that never splits; it is never materialised in
    the output.  Block numbering is deterministic: the start state's
    block is 0, the rest follow in order of their smallest original
    state id, so minimizing the same DFA always yields the same object.
    """
    # Restrict to states reachable from the start; unreachable states
    # must not influence the partition (and would survive as garbage).
    reachable: Set[int] = {dfa.start}
    stack = [dfa.start]
    while stack:
        state = stack.pop()
        targets = list(dfa.transitions.get(state, {}).values())
        if state in dfa.default:
            targets.append(dfa.default[state])
        for target in targets:
            if target not in reachable:
                reachable.add(target)
                stack.append(target)
    states = sorted(reachable)
    alphabet = sorted({
        label
        for state in states
        for label in dfa.transitions.get(state, {})
    })

    DEAD = -1  # signature marker for the implicit reject state
    block: Dict[int, int] = {
        state: (1 if state in dfa.accepting else 0) for state in states
    }
    while True:
        signatures: Dict[int, Tuple[int, ...]] = {}
        for state in states:
            default_target = dfa.default.get(state)
            signature = [
                block[state],
                block[default_target] if default_target is not None else DEAD,
            ]
            for label in alphabet:
                target = dfa.step(state, label)
                signature.append(block[target] if target is not None else DEAD)
            signatures[state] = tuple(signature)
        renumber: Dict[Tuple[int, ...], int] = {}
        refined = {}
        for state in states:
            refined[state] = renumber.setdefault(
                signatures[state], len(renumber)
            )
        if len(renumber) == len(set(block.values())):
            break
        block = refined

    # Deterministic block ids: start first, then by smallest member.
    members: Dict[int, List[int]] = {}
    for state in states:
        members.setdefault(block[state], []).append(state)
    ordered = sorted(
        members.values(),
        key=lambda group: (dfa.start not in group, min(group)),
    )
    new_id = {block[group[0]]: index for index, group in enumerate(ordered)}

    minimized = DFA(start=new_id[block[dfa.start]], accepting=set())
    for group in ordered:
        representative = min(group)
        group_id = new_id[block[representative]]
        if representative in dfa.accepting:
            minimized.accepting.add(group_id)
        default_target = dfa.default.get(representative)
        default_block = None
        if default_target is not None:
            default_block = block[default_target]
            minimized.default[group_id] = new_id[default_block]
        for label in alphabet:
            target = dfa.step(representative, label)
            if target is None:
                continue
            if default_block is not None and block[target] == default_block:
                continue  # the default arc already covers this label
            minimized.transitions.setdefault(group_id, {})[label] = (
                new_id[block[target]]
            )
    return minimized


def build_dfa(expression) -> DFA:
    """Parse, build the NFA, determinise and minimize in one call."""
    return minimize_dfa(determinize(build_nfa(expression)))
