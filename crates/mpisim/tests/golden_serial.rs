//! Golden serial event order.
//!
//! The engine's event order is content-keyed — `(time, acting_rank << 40 |
//! per-rank seq)` — and every observable of a run (completion times, RNG
//! draws, metrics, traces) follows from it. These constants pin that order
//! for the reference workload: any change to how events are
//! keyed, scheduled or dispatched moves [`World::event_digest`] and fails
//! here, even when the makespan happens to survive.
//!
//! The reference is `NeighborExchange` (6 rounds alternating 2 KiB eager
//! and 1 MiB rendezvous messages) on an 8-rank round-robin `whale` world,
//! run fault-free, under `FaultConfig::light(42)`, and with segment tracing
//! on.

use mpisim::{FaultConfig, NeighborExchange, NoiseConfig, World};
use netmodel::{Placement, Platform};

const NRANKS: usize = 8;
const ROUNDS: usize = 6;
const SMALL: usize = 2 * 1024;
const LARGE: usize = 1024 * 1024;

/// What one golden case pins: the event digest, the makespan in
/// nanoseconds, and the number of dispatched events.
type Golden = (u64, u64, u64);

const FAULTS_OFF: Golden = (16_869_316_136_371_636_139, 2_431_950, 248);
const LIGHT_42: Golden = (1_848_886_583_758_471_451, 2_548_612, 308);
/// Segment tracing only records, so the traced run keeps the fault-free
/// order; it also pins the recorded segment count and the last segment end.
const TRACED: Golden = FAULTS_OFF;
const TRACED_SEGMENTS: (usize, u64) = (336, 2_431_950);

fn run(faults: Option<FaultConfig>, traced: bool) -> (World, Golden) {
    let mut w = World::new(
        Platform::whale(),
        NRANKS,
        Placement::RoundRobin,
        NoiseConfig::none(),
    );
    if let Some(cfg) = &faults {
        w.set_faults(cfg);
    }
    if traced {
        w.enable_trace();
    }
    let mut b = NeighborExchange::new(NRANKS, ROUNDS, SMALL, LARGE);
    let makespan = w.run(&mut b).expect("reference workload completes");
    let got = (w.event_digest(), makespan.as_nanos(), w.events_processed());
    (w, got)
}

#[test]
fn faults_off_order_is_pinned() {
    let (_, got) = run(None, false);
    assert_eq!(got, FAULTS_OFF);
}

#[test]
fn light_faults_order_is_pinned() {
    let (w, got) = run(Some(FaultConfig::light(42)), false);
    assert!(w.faults_active());
    assert_eq!(got, LIGHT_42);
}

#[test]
fn traced_order_is_pinned() {
    let (w, got) = run(None, true);
    assert_eq!(got, TRACED);
    let trace = w.trace();
    let last_end = trace.iter().map(|s| s.end.as_nanos()).max().unwrap_or(0);
    assert_eq!((trace.len(), last_end), TRACED_SEGMENTS);
}
