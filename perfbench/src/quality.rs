//! Decision quality against the clean fixed-implementation oracle.
//!
//! For each key the oracle runs every implementation of the op's function
//! set with `MicrobenchSpec::run_all_fixed`, in the daemon's probe shape
//! (8 iterations, 8 ms of compute, 4 progress calls, block placement) but
//! without noise. A decision is within 5% when its winner's clean cost is
//! at most 1.05× the best clean cost (the paper's §IV-A rule). The oracle
//! runs only after timing, so it cannot warm the caches a timed phase uses.

use crate::gen::Key;
use autonbc::driver::{CollectiveOp, MicrobenchSpec};
use mpisim::NoiseConfig;
use netmodel::{Placement, Platform};
use simcore::SimTime;

/// The clean probe spec for `key`.
pub fn clean_spec(key: &Key) -> MicrobenchSpec {
    MicrobenchSpec {
        platform: Platform::by_name(key.platform).expect("benchmark platforms are presets"),
        nprocs: key.nprocs,
        op: CollectiveOp::by_name(key.op).expect("benchmark ops are daemon ops"),
        msg_bytes: key.msg,
        iters: 8,
        compute_total: SimTime::from_millis(8),
        num_progress: 4,
        noise: NoiseConfig::none(),
        reps: 2,
        placement: Placement::Block,
        imbalance: adcl::microbench::Imbalance::None,
    }
}

/// Names of the implementations in `key`'s function set.
pub fn function_names(key: &Key) -> Vec<String> {
    let spec = clean_spec(key);
    spec.op
        .fnset(spec.coll_spec())
        .functions
        .iter()
        .map(|f| f.name.clone())
        .collect()
}

/// Result of the quality pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    /// Attempted keys judged.
    pub attempted: usize,
    /// Keys whose winner is within 5% of the oracle (failures are misses).
    pub within_5pct: usize,
    /// Largest winner regret over the oracle, in percent.
    pub regret_max_pct: f64,
}

impl Quality {
    pub fn share(&self) -> f64 {
        self.within_5pct as f64 / self.attempted.max(1) as f64
    }
}

/// Judge `decisions` (key, winner if the request succeeded). Oracles run
/// on `jobs` threads, one key per task.
pub fn judge(decisions: &[(Key, Option<String>)], jobs: usize) -> Quality {
    let decided: Vec<(Key, String)> = decisions
        .iter()
        .filter_map(|(k, w)| w.clone().map(|w| (*k, w)))
        .collect();
    let regrets = simcore::par::par_map(jobs, &decided, |_, (key, winner)| {
        let rows = clean_spec(key).run_all_fixed();
        let best = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        let mine = rows
            .iter()
            .find(|r| &r.0 == winner)
            .map_or(f64::INFINITY, |r| r.1);
        mine / best - 1.0
    });
    Quality {
        attempted: decisions.len(),
        within_5pct: regrets.iter().filter(|&&r| r <= 0.05).count(),
        regret_max_pct: regrets.iter().fold(0.0, |a: f64, &r| a.max(r * 100.0)),
    }
}
