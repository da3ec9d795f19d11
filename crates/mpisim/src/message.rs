//! Message and receive-request state machines.
//!
//! In-flight message state is split into a sender-side half ([`SendMsg`],
//! stored in the *sending* rank's arena) and a receiver-side half
//! ([`DstMsg`], stored in the *destination* rank's arena). Everything a
//! handler mutates lives on the rank the event targets, and the two halves
//! only communicate through wire events, which carry what the other side
//! needs.

use crate::bufpool::Payload;
use crate::types::{RankId, Tag};
use simcore::SimTime;

/// Wire protocol chosen for a message, by size and transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Payload is pushed immediately; buffered at the receiver if no
    /// matching receive is posted yet. Progresses without CPU involvement.
    Eager,
    /// Request-to-send / clear-to-send handshake; the payload only moves
    /// after both sides have entered the progress engine.
    Rendezvous,
}

/// Sender-side lifecycle of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendState {
    /// Posted; payload (eager) or RTS (rendezvous) injected.
    Posted,
    /// Rendezvous only: CTS has arrived at the sender but the sender has not
    /// yet entered the progress engine to start the payload transfer.
    CtsArrived(SimTime),
    /// Rendezvous only: payload transfer started (CTS acted upon).
    DataInFlight,
    /// Local completion: the source buffer is reusable.
    Drained(SimTime),
}

/// Receiver-side lifecycle of a message, *after* matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvState {
    /// Posted, not yet matched to an incoming message.
    Posted,
    /// Matched to an incoming message, payload not yet fully delivered.
    Matched,
    /// Payload fully delivered at the given time.
    Complete(SimTime),
}

/// The sender-side half of one in-flight point-to-point message, stored in
/// the sending rank's arena (`SendHandle.idx` indexes it).
#[derive(Debug, Clone)]
pub struct SendMsg {
    pub dst: RankId,
    pub tag: Tag,
    pub bytes: usize,
    pub protocol: Protocol,
    /// Per-(src, dst) channel sequence number; envelopes are delivered to
    /// the matching logic in this order (MPI non-overtaking).
    pub seq: u64,
    /// Local time at which the sender posted this message (start of its
    /// lifecycle span in trace exports).
    pub posted_at: SimTime,
    pub send_state: SendState,
    /// Retransmissions performed so far (fault injection only; stays 0 on
    /// the healthy path).
    pub attempts: u32,
    /// The payload handle riding on this message, if the sender staged one.
    /// On the healthy path it is *moved* into the wire event (O(1)); with a
    /// fault model armed each transmission carries a clone so retransmission
    /// can resend it. Timing never depends on it — `bytes` alone drives the
    /// network model.
    pub payload: Option<Payload>,
    /// Eager only: earliest lower-bound arrival among the transmissions
    /// injected so far that were not dropped (`None` while every copy was
    /// lost). The retry engine reads this as its acknowledgement signal —
    /// it is computed entirely from sender-side knowledge (tx drain +
    /// latency + jitter), so the sender never peeks at receiver state.
    pub best_arrival: Option<SimTime>,
    /// Rendezvous only: the destination-side record (index into the
    /// receiver's [`DstMsg`] arena), learned from the CTS. The payload wire
    /// event carries it back so delivery needs no receiver-side lookup.
    pub peer_dmid: Option<u32>,
}

impl SendMsg {
    /// A freshly posted send.
    pub fn new(
        dst: RankId,
        tag: Tag,
        bytes: usize,
        protocol: Protocol,
        seq: u64,
        posted_at: SimTime,
    ) -> Self {
        SendMsg {
            dst,
            tag,
            bytes,
            protocol,
            seq,
            posted_at,
            send_state: SendState::Posted,
            attempts: 0,
            payload: None,
            best_arrival: None,
            peer_dmid: None,
        }
    }

    /// True once the sender may reuse its buffer.
    pub fn send_drained(&self) -> Option<SimTime> {
        match self.send_state {
            SendState::Drained(t) => Some(t),
            _ => None,
        }
    }
}

/// The receiver-side half of one in-flight message, created when the first
/// surviving wire event (eager payload or rendezvous RTS) reaches the
/// destination; stored in the destination rank's arena.
#[derive(Debug, Clone)]
pub struct DstMsg {
    pub src: RankId,
    /// Index of the sender-side half in `src`'s send arena.
    pub sidx: u32,
    pub seq: u64,
    pub tag: Tag,
    pub bytes: usize,
    pub protocol: Protocol,
    /// Sender's post time (start of the lifecycle span in trace exports).
    pub posted_at: SimTime,
    /// Index of the matched receive request, once matched.
    pub matched_recv: Option<u32>,
    /// Eager: payload delivery time at the destination (set when the
    /// delivery event fires). Rendezvous: payload arrival after CTS.
    pub data_arrival: Option<SimTime>,
    /// Rendezvous: RTS arrival time at the receiver.
    pub rts_arrival: Option<SimTime>,
    /// Rendezvous: receiver answered RTS (CTS sent).
    pub cts_sent: bool,
    /// Payload handle delivered by the wire, awaiting transfer to the
    /// matched receive at completion.
    pub payload: Option<Payload>,
}

/// One posted receive request, stored in the receiving rank's arena.
#[derive(Debug, Clone)]
pub struct RecvReq {
    pub src: RankId,
    pub tag: Tag,
    pub bytes: usize,
    pub state: RecvState,
    /// The matched message (index into the rank's [`DstMsg`] arena), if any.
    pub msg: Option<u32>,
    /// Delivered payload handle, moved off the message at completion;
    /// collected by the executor via `World::take_recv_payload`.
    pub payload: Option<Payload>,
}

impl RecvReq {
    /// A freshly posted receive.
    pub fn new(src: RankId, tag: Tag, bytes: usize) -> Self {
        RecvReq {
            src,
            tag,
            bytes,
            state: RecvState::Posted,
            msg: None,
            payload: None,
        }
    }

    /// Completion time, if delivered.
    pub fn complete_at(&self) -> Option<SimTime> {
        match self.state {
            RecvState::Complete(t) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_lifecycle_defaults() {
        let m = SendMsg::new(1, Tag(5), 100, Protocol::Eager, 0, SimTime::ZERO);
        assert_eq!(m.send_state, SendState::Posted);
        assert!(m.send_drained().is_none());
        assert!(m.best_arrival.is_none());
        assert!(m.peer_dmid.is_none());
    }

    #[test]
    fn drained_reports_time() {
        let mut m = SendMsg::new(1, Tag(5), 100, Protocol::Rendezvous, 0, SimTime::ZERO);
        m.send_state = SendState::Drained(SimTime::from_micros(9));
        assert_eq!(m.send_drained(), Some(SimTime::from_micros(9)));
    }

    #[test]
    fn recv_completion() {
        let mut r = RecvReq::new(0, Tag(5), 100);
        assert!(r.complete_at().is_none());
        r.state = RecvState::Complete(SimTime::from_nanos(77));
        assert_eq!(r.complete_at(), Some(SimTime::from_nanos(77)));
    }
}
