"""Module-wide control-flow graph over basic blocks.

Every analysis in :mod:`repro.verify` runs on this graph rather than a
per-function one, for the same reason the lr-liveness fix did: branch
labels resolve *across* function boundaries.  Cross-jumping deliberately
creates shared tails that several functions branch into, and leaf-style
returns thread ``lr`` through those tails — a per-function view would
simply not see the edges that made the rijndael miscompile possible.

Nodes are :data:`BlockKey` pairs ``(function_name, block_index)``.  Edges
follow the block-splitting contract of :mod:`repro.binary.blocks`:

* a non-call branch adds an edge to its target block (wherever in the
  module that label lives),
* a conditional branch additionally falls through,
* an unconditional terminator (return, ``b``, pc write) ends the path,
* plain fall-through continues at the next block *of the same function*
  — function boundaries are hard; code that runs off the end of a
  function is a lint finding, not an implicit edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Set, Tuple

from repro.binary.program import BasicBlock, Module

#: One basic block, addressed as (function name, block index).
BlockKey = Tuple[str, int]


@dataclass
class ModuleCFG:
    """The module-wide block graph plus the maps the analyses need."""

    #: every block key, in module order
    keys: List[BlockKey] = field(default_factory=list)
    #: key -> the block object itself
    blocks: Dict[BlockKey, BasicBlock] = field(default_factory=dict)
    #: label name -> the block it addresses (function names included)
    label_to_block: Dict[str, BlockKey] = field(default_factory=dict)
    succ: Dict[BlockKey, List[BlockKey]] = field(default_factory=dict)
    pred: Dict[BlockKey, List[BlockKey]] = field(default_factory=dict)
    #: entry block of every function (the dataflow boundary nodes)
    entries: List[BlockKey] = field(default_factory=list)
    _components: Optional[List["Component"]] = field(
        default=None, init=False, repr=False, compare=False)

    def exits(self) -> List[BlockKey]:
        """Blocks with no successors (returns, exits, dead tails)."""
        return [key for key in self.keys if not self.succ[key]]

    def reachable(self, roots: List[BlockKey] = None) -> Set[BlockKey]:
        """Blocks reachable from *roots* (default: all function entries)."""
        stack = list(self.entries if roots is None else roots)
        seen: Set[BlockKey] = set(stack)
        while stack:
            key = stack.pop()
            for nxt in self.succ[key]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def components(self) -> List["Component"]:
        """The weakly-connected components, in module order.

        Branch and fall-through edges join blocks; ``bl`` is not an
        edge, so a module has about one component per function
        (cross-jump shared tails keep their functions together).  No
        dataflow fact crosses a component, so each analysis may solve
        them one by one.  Split once per graph, on first use.
        """
        if self._components is None:
            self._components = _split(self)
        return self._components


class ComponentContent:
    """A component's content as a memo key, hashed once.

    Hashing the nested tuple of instructions is the expensive part of a
    memo lookup, so it happens here, when the component is split off.
    """

    __slots__ = ("items", "_hash")

    def __init__(self, items: Tuple[object, ...]) -> None:
        self.items = items
        self._hash = hash(items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComponentContent):
            return NotImplemented
        return self._hash == other._hash and self.items == other.items


@dataclass
class Component:
    """One weakly-connected component of a :class:`ModuleCFG`."""

    #: the component's blocks and edges only (no label map)
    cfg: ModuleCFG
    #: every ``bl`` target, in first-occurrence order
    callees: Tuple[str, ...]
    #: block keys in module order, labels, instructions, successors:
    #: everything an intraprocedural fixpoint depends on
    content: ComponentContent

    @property
    def functions(self) -> List[str]:
        """The functions whose entry block lies in the component."""
        return [name for name, __ in self.cfg.entries]


def _split(cfg: ModuleCFG) -> List[Component]:
    position = {key: index for index, key in enumerate(cfg.keys)}
    entries = set(cfg.entries)
    seen: Set[BlockKey] = set()
    components: List[Component] = []
    for root in cfg.keys:
        if root in seen:
            continue
        seen.add(root)
        keys = [root]
        stack = [root]
        while stack:
            key = stack.pop()
            for nxt in chain(cfg.succ[key], cfg.pred[key]):
                if nxt not in seen:
                    seen.add(nxt)
                    keys.append(nxt)
                    stack.append(nxt)
        keys.sort(key=position.__getitem__)
        blocks = {key: cfg.blocks[key] for key in keys}
        callees: Dict[str, None] = {}
        for key in keys:
            for insn in blocks[key].instructions:
                target = insn.label_target
                if insn.mnemonic == "bl" and target is not None:
                    callees[target] = None
        components.append(Component(
            cfg=ModuleCFG(
                keys=keys,
                blocks=blocks,
                succ={key: cfg.succ[key] for key in keys},
                pred={key: cfg.pred[key] for key in keys},
                entries=[key for key in keys if key in entries],
            ),
            callees=tuple(callees),
            content=ComponentContent(tuple(
                (key, tuple(blocks[key].labels),
                 tuple(blocks[key].instructions), tuple(cfg.succ[key]))
                for key in keys
            )),
        ))
    return components


def build_module_cfg(module: Module) -> ModuleCFG:
    """Build the module-wide CFG (labels resolve across functions)."""
    cfg = ModuleCFG()
    ordered: List[Tuple[BlockKey, BasicBlock]] = []
    for func in module.functions:
        for bi, block in enumerate(func.blocks):
            key = (func.name, bi)
            ordered.append((key, block))
            cfg.keys.append(key)
            cfg.blocks[key] = block
            if bi == 0:
                cfg.label_to_block.setdefault(func.name, key)
                cfg.entries.append(key)
            for label in block.labels:
                cfg.label_to_block[label] = key

    for index, (key, block) in enumerate(ordered):
        targets: List[BlockKey] = []
        falls_through = True
        for insn in block.instructions:
            if insn.is_branch and not insn.is_call:
                target = insn.label_target
                if target is not None and target in cfg.label_to_block:
                    targets.append(cfg.label_to_block[target])
                if not insn.is_conditional:
                    falls_through = False
            elif insn.is_terminator and not insn.is_conditional:
                falls_through = False  # return / pc write: no successor
        if falls_through and index + 1 < len(ordered):
            next_key, __ = ordered[index + 1]
            if next_key[0] == key[0]:
                targets.append(next_key)
        cfg.succ[key] = targets

    cfg.pred = {key: [] for key in cfg.keys}
    for key, targets in cfg.succ.items():
        for target in targets:
            cfg.pred[target].append(key)
    return cfg
