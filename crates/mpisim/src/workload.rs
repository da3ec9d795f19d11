//! Reusable [`RankBehavior`] workloads.
//!
//! [`NeighborExchange`] is the engine's reference workload: a multi-round
//! ring exchange that mixes eager and rendezvous traffic without any
//! collective or tuner on top. The golden serial-order tests and the
//! `world_scale` engine benchmark drive the event loop through it.

use crate::types::{RankId, RecvHandle, SendHandle, Tag};
use crate::world::{RankBehavior, Step, World};
use simcore::SimTime;

/// Where one rank is inside its current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// About to run the round's compute block.
    Compute,
    /// Compute done; post the send to the right neighbour.
    PostSend,
    /// Send posted; post the receive from the left neighbour.
    PostRecv,
    /// Both posted; poll and wait for completion.
    Wait,
}

/// Per-rank interpreter state.
#[derive(Debug, Clone)]
struct RankProg {
    round: usize,
    phase: Phase,
    sends: Vec<SendHandle>,
    recvs: Vec<RecvHandle>,
    finish: SimTime,
}

impl RankProg {
    fn new() -> Self {
        RankProg {
            round: 0,
            phase: Phase::Compute,
            sends: Vec::new(),
            recvs: Vec::new(),
            finish: SimTime::ZERO,
        }
    }
}

/// A ring neighbour exchange: each round, every rank computes, sends to
/// `(r + 1) % n`, receives from `(r + n - 1) % n`, and waits for both.
/// Rounds alternate between a small (eager) and a large (rendezvous)
/// message size, so one run exercises both protocol paths.
///
/// Tags are `Tag(round)`: every rank derives them from its own round
/// counter instead of the world-global tag counter.
pub struct NeighborExchange {
    nranks: usize,
    rounds: usize,
    small: usize,
    large: usize,
    compute: SimTime,
    progs: Vec<RankProg>,
}

impl NeighborExchange {
    /// `rounds` rounds over `nranks` ranks, alternating `small` (even
    /// rounds) and `large` (odd rounds) message sizes, with 20 µs of
    /// compute per round.
    pub fn new(nranks: usize, rounds: usize, small: usize, large: usize) -> Self {
        NeighborExchange {
            nranks,
            rounds,
            small,
            large,
            compute: SimTime::from_micros(20),
            progs: vec![RankProg::new(); nranks],
        }
    }

    /// Per-rank finish times (valid after a completed run).
    pub fn finish_times(&self) -> Vec<SimTime> {
        self.progs.iter().map(|p| p.finish).collect()
    }
}

impl RankBehavior for NeighborExchange {
    fn step(&mut self, w: &mut World, r: RankId) -> Step {
        let p = &mut self.progs[r];
        loop {
            if p.round >= self.rounds {
                p.finish = w.rank_now(r);
                return Step::Done;
            }
            match p.phase {
                Phase::Compute => {
                    p.phase = Phase::PostSend;
                    return Step::Compute(self.compute);
                }
                Phase::PostSend => {
                    let dst = (r + 1) % self.nranks;
                    let bytes = if p.round.is_multiple_of(2) {
                        self.small
                    } else {
                        self.large
                    };
                    let tag = Tag(p.round as u64);
                    let at = w.rank_now(r) + w.o_send(r, dst);
                    let h = w.isend(r, dst, tag, bytes, at);
                    p.sends.push(h);
                    p.phase = Phase::PostRecv;
                    return Step::Busy(w.o_send(r, dst));
                }
                Phase::PostRecv => {
                    let src = (r + self.nranks - 1) % self.nranks;
                    let bytes = if p.round.is_multiple_of(2) {
                        self.small
                    } else {
                        self.large
                    };
                    let tag = Tag(p.round as u64);
                    let at = w.rank_now(r) + w.o_recv(r, src);
                    let h = w.irecv(r, src, tag, bytes, at);
                    p.recvs.push(h);
                    p.phase = Phase::Wait;
                    return Step::Busy(w.o_recv(r, src));
                }
                Phase::Wait => {
                    let now = w.rank_now(r);
                    w.poll(r, now);
                    let done = p.sends.iter().all(|&h| w.send_done(h, now))
                        && p.recvs.iter().all(|&h| w.recv_done(h, now));
                    if done {
                        p.sends.clear();
                        p.recvs.clear();
                        p.round += 1;
                        p.phase = Phase::Compute;
                        // Fall through: start the next round immediately.
                    } else {
                        return Step::Block;
                    }
                }
            }
        }
    }
}
