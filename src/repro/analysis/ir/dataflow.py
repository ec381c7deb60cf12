"""A small worklist dataflow engine over :mod:`repro.analysis.ir.cfg`.

Generic forward fixpoint: callers supply a transfer function over
blocks and a join for merge points.  States must be comparable with
``==`` and treated as immutable (transfer returns a *new* state).
The engine iterates to a fixpoint, so loop-carried facts converge: a
value that becomes tainted on iteration N is tainted at the loop
header on iteration N+1.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, TypeVar

from repro.analysis.ir.cfg import CFG, Block

S = TypeVar("S")

#: Safety valve: no realistic function needs more block visits.
MAX_VISITS = 100_000


class FixpointDiverged(RuntimeError):
    """The transfer function kept producing new states (non-monotone
    transfer or an unbounded lattice)."""


def solve_forward(
    cfg: CFG,
    transfer: Callable[[Block, S], S],
    entry_state: S,
    join: Callable[[S, S], S],
) -> tuple[dict[int, S], dict[int, S]]:
    """Run a forward analysis to fixpoint.

    Returns ``(in_states, out_states)`` keyed by block id.  Blocks
    unreachable from the entry are absent -- callers decide what an
    unvisited block means (for taint: the empty environment).
    """
    in_states: dict[int, S] = {}
    out_states: dict[int, S] = {}
    work: deque[Block] = deque([cfg.entry])
    visits = 0
    while work:
        visits += 1
        if visits > MAX_VISITS:
            raise FixpointDiverged(
                f"no fixpoint after {MAX_VISITS} block visits"
            )
        block = work.popleft()
        if block is cfg.entry:
            ins = entry_state
            preds_known = True
        else:
            pred_outs = [
                out_states[p.id] for p in block.preds if p.id in out_states
            ]
            if not pred_outs:
                continue  # not yet reachable
            ins = pred_outs[0]
            for other in pred_outs[1:]:
                ins = join(ins, other)
            preds_known = True
        already = block.id in out_states
        if already and in_states.get(block.id) == ins:
            continue
        in_states[block.id] = ins
        outs = transfer(block, ins)
        if not already or out_states[block.id] != outs:
            out_states[block.id] = outs
            work.extend(block.succs)
        else:
            out_states[block.id] = outs
    return in_states, out_states


def union_join(a: dict, b: dict) -> dict:
    """Key-wise set union -- the join for taint-style environments."""
    if a == b:
        return a
    merged = dict(a)
    for key, value in b.items():
        have = merged.get(key)
        merged[key] = value if have is None else (have | value)
    return merged
