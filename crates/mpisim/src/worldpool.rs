//! Thread-local reuse of [`World`] allocations across consecutive
//! simulations.
//!
//! A sweep runs thousands of independent microbenchmarks, and each one used
//! to build a `World` from scratch: rank vectors, envelope-sequencing
//! tables, the event-queue heap and a cold payload pool, all torn down
//! microseconds later. This module keeps a small per-thread cache of
//! recently used worlds keyed on their immutable shape — `(platform,
//! nranks, placement)` — and hands them back through [`World::reset`],
//! which zeroes all logical state while keeping every allocation (and the
//! payload-pool slabs) warm.
//!
//! The cache is strictly thread-local, so it adds no locks to the sweep hot
//! path and composes with the persistent worker pool in `simcore::par`:
//! each pool worker accumulates its own warm worlds across the sweeps it
//! participates in.
//!
//! Determinism: `World::reset` guarantees a reused world is observationally
//! identical to a fresh one (same noise seeds, same fault model from the
//! process-global config, same virtual-time behaviour), so simulation
//! output never depends on which thread ran a point or how many points it
//! ran before — the `jobs`-invariance contract is preserved by
//! construction.

use crate::types::NoiseConfig;
use crate::world::World;
use netmodel::{Placement, Platform};
use std::cell::RefCell;

/// Worlds cached per thread. Sweeps alternate between a handful of shapes
/// (one per platform × rank-count in the sweep grid); beyond that, oldest
/// entries are evicted — a miss only costs what it always cost: `World::new`.
/// Sized for the bench sweep grids (up to 2 platforms × 4 rank counts) so
/// coarse per-worker batches never thrash shapes out mid-sweep.
const MAX_CACHED_PER_THREAD: usize = 8;

struct CachedWorld {
    platform: Platform,
    nranks: usize,
    placement: Placement,
    world: World,
}

thread_local! {
    static CACHE: RefCell<Vec<CachedWorld>> = const { RefCell::new(Vec::new()) };
}

/// Number of worlds cached on the calling thread (test hook).
pub fn cached_on_this_thread() -> usize {
    CACHE.with(|c| c.borrow().len())
}

/// Drop every world cached on the calling thread.
pub fn clear_this_thread() {
    CACHE.with(|c| c.borrow_mut().clear());
}

fn lease(platform: &Platform, nranks: usize, placement: Placement, noise: NoiseConfig) -> World {
    CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        let hit = cache.iter().position(|w| {
            w.nranks == nranks && w.placement == placement && w.platform == *platform
        });
        match hit {
            Some(i) => {
                let mut entry = cache.swap_remove(i);
                entry.world.reset(noise);
                entry.world
            }
            None => World::new(platform.clone(), nranks, placement, noise),
        }
    })
}

fn release(platform: &Platform, nranks: usize, placement: Placement, mut world: World) {
    // Traces must not wait for the cache entry's destructor: pool worker
    // threads never exit, so their thread-local destructors never run.
    world.publish_trace();
    CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        cache.push(CachedWorld {
            platform: platform.clone(),
            nranks,
            placement,
            world,
        });
        if cache.len() > MAX_CACHED_PER_THREAD {
            cache.remove(0); // evict oldest
        }
    });
}

/// Run `f` with a world of the given shape, drawn from (and returned to)
/// the calling thread's cache. The world `f` sees is indistinguishable from
/// a freshly built one; see the module docs for the determinism argument.
///
/// If `f` panics the world is dropped, not recycled.
pub fn with_world<R>(
    platform: &Platform,
    nranks: usize,
    placement: Placement,
    noise: NoiseConfig,
    f: impl FnOnce(&mut World) -> R,
) -> R {
    let mut world = lease(platform, nranks, placement, noise);
    let out = f(&mut world);
    release(platform, nranks, placement, world);
    out
}

/// Populate the calling thread's cache with a warm world of the given
/// shape, pre-warming `payload_slabs` payload slabs of `payload_bytes`'s
/// size class — the untimed pre-build hook for sweep drivers: run this on
/// every thread a sweep will use (e.g. via `simcore::par::on_all_workers`)
/// before the clock starts, and the measured region neither constructs
/// worlds nor faults payload slabs in.
pub fn prewarm(
    platform: &Platform,
    nranks: usize,
    placement: Placement,
    noise: NoiseConfig,
    payload_bytes: usize,
    payload_slabs: usize,
) {
    with_world(platform, nranks, placement, noise, |w| {
        if payload_slabs > 0 {
            w.prewarm_payloads(payload_bytes, payload_slabs);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> (Platform, usize, Placement, NoiseConfig) {
        (
            Platform::whale(),
            4,
            Placement::RoundRobin,
            NoiseConfig::none(),
        )
    }

    #[test]
    fn with_world_caches_and_reuses() {
        let (p, n, pl, noise) = shape();
        clear_this_thread();
        with_world(&p, n, pl, noise, |w| assert_eq!(w.nranks(), 4));
        assert_eq!(cached_on_this_thread(), 1);
        // Second lease of the same shape must not grow the cache.
        with_world(&p, n, pl, noise, |w| assert_eq!(w.events_processed(), 0));
        assert_eq!(cached_on_this_thread(), 1);
        // A different shape coexists.
        with_world(&p, 8, pl, noise, |w| assert_eq!(w.nranks(), 8));
        assert_eq!(cached_on_this_thread(), 2);
        clear_this_thread();
    }

    #[test]
    fn prewarm_populates_cache_and_slabs() {
        let (p, n, pl, noise) = shape();
        clear_this_thread();
        prewarm(&p, n, pl, noise, 64 * 1024, 8);
        assert_eq!(cached_on_this_thread(), 1);
        // The warm world must come back on the next lease with its slabs.
        with_world(&p, n, pl, noise, |w| {
            assert!(
                w.payload_pool().free_slabs() >= 8,
                "prewarmed slabs missing"
            );
        });
        clear_this_thread();
    }

    #[test]
    fn cache_is_bounded() {
        let (p, _, pl, noise) = shape();
        clear_this_thread();
        for n in 2..2 + MAX_CACHED_PER_THREAD + 3 {
            with_world(&p, n, pl, noise, |_| ());
        }
        assert_eq!(cached_on_this_thread(), MAX_CACHED_PER_THREAD);
        clear_this_thread();
    }
}
