"""The Alignment Manager's five-state FSM (Table 1 of the paper).

The FSM runs per incoming queue of a consumer thread.  It receives two kinds
of events: the local thread started a *new frame computation*, or a *pop*
returned a data unit — which the AM classifies against the thread's
``active-fc`` counter as a regular item, the *correct* header (ID ==
active-fc), a *past* header (ID < active-fc) or a *future* header (ID >
active-fc).

States (names follow Table 1):

========  =====================================================
RcvCmp    receiving and computing on items of the active frame
ExpHdr    new frame computation started, expecting a header
DiscFr    discarding whole frames from the queue (AE_FE)
Disc      discarding items and frames from the queue (AE_IE, AE_FE)
Pdg       padding the thread's pops to cover lost data (AE_IL, AE_FL)
========  =====================================================

Table 1 does not list an exit event for ``Disc``; the only reading
consistent with its activity column ("discarding items and frames ... until
the misalignment is resolved") is that, like ``DiscFr``, it returns to
``RcvCmp`` on the correct header.  DESIGN.md §3 records this completion.
"""

from __future__ import annotations

import enum


class AlignmentState(enum.Enum):
    """AM FSM states of Table 1."""

    # Members are singletons, so identity hashing is exact; it keeps the
    # per-frame transition lookup off Enum's Python-level name hash.
    __hash__ = object.__hash__

    RCV_CMP = "RcvCmp"
    EXP_HDR = "ExpHdr"
    DISC_FR = "DiscFr"
    DISC = "Disc"
    PDG = "Pdg"


class AlignmentEvent(enum.Enum):
    """AM FSM input events of Table 1."""

    __hash__ = object.__hash__

    NEW_FRAME_COMPUTATION = "new frame computation started"
    RECEIVED_ITEM = "received item"
    RECEIVED_CORRECT_HEADER = "received correct header"
    RECEIVED_PAST_HEADER = "received past header"
    RECEIVED_FUTURE_HEADER = "received future header"
    FC_MATCHED_HEADER = "new frame computation matched header"


_S = AlignmentState
_E = AlignmentEvent

#: Transition table.  Missing (state, event) pairs keep the current state —
#: e.g. RcvCmp consuming regular items, or Disc discarding items.
_TRANSITIONS: dict[tuple[AlignmentState, AlignmentEvent], AlignmentState] = {
    (_S.RCV_CMP, _E.NEW_FRAME_COMPUTATION): _S.EXP_HDR,
    (_S.RCV_CMP, _E.RECEIVED_FUTURE_HEADER): _S.PDG,
    (_S.RCV_CMP, _E.RECEIVED_PAST_HEADER): _S.DISC,
    (_S.EXP_HDR, _E.RECEIVED_CORRECT_HEADER): _S.RCV_CMP,
    (_S.EXP_HDR, _E.RECEIVED_ITEM): _S.DISC_FR,
    (_S.EXP_HDR, _E.RECEIVED_PAST_HEADER): _S.DISC_FR,
    (_S.EXP_HDR, _E.RECEIVED_FUTURE_HEADER): _S.PDG,
    (_S.DISC_FR, _E.RECEIVED_CORRECT_HEADER): _S.RCV_CMP,
    (_S.DISC_FR, _E.RECEIVED_FUTURE_HEADER): _S.PDG,
    (_S.DISC, _E.RECEIVED_CORRECT_HEADER): _S.RCV_CMP,
    (_S.DISC, _E.RECEIVED_FUTURE_HEADER): _S.PDG,
    (_S.PDG, _E.FC_MATCHED_HEADER): _S.RCV_CMP,
}

#: States whose activity is discarding data units from the queue.
DISCARDING_STATES = frozenset({_S.DISC_FR, _S.DISC})

#: State whose activity is answering pops with padding instead of queue data.
PADDING_STATE = _S.PDG


def transition(state: AlignmentState, event: AlignmentEvent) -> AlignmentState:
    """Apply one Table 1 transition; unlisted pairs self-loop."""
    return _TRANSITIONS.get((state, event), state)


def is_discarding(state: AlignmentState) -> bool:
    """True when the AM is draining the queue to resolve a misalignment."""
    return state in DISCARDING_STATES


def is_padding(state: AlignmentState) -> bool:
    """True when the AM is padding the local thread's pops."""
    return state is PADDING_STATE
