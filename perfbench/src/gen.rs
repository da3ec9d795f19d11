//! Seeded input generation: key sets, request streams and the probe grid.
//!
//! Everything here is a pure function of the `--seed` argument, so the same
//! seed always produces the same request lines. The generator is the
//! benchmark's own SplitMix64, so inputs stay put when the simulator's RNG
//! changes.

use adcld::protocol::render_query;

/// SplitMix64 (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The eight operations the daemon serves.
pub const OPS: [&str; 8] = [
    "ialltoall",
    "ialltoall-ext",
    "ibcast",
    "iallgather",
    "ireduce",
    "iallreduce",
    "igather",
    "iscatter",
];

/// The five platform presets.
pub const PLATFORMS: [&str; 5] = ["crill", "whale", "whale-tcp", "bluegene-p", "synth-hpc"];

/// One tuning query key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    pub op: &'static str,
    pub platform: &'static str,
    pub nprocs: usize,
    pub msg: usize,
}

impl Key {
    /// The NDJSON request line for this key.
    pub fn line(&self, id: u64) -> String {
        render_query(id, self.op, self.platform, self.nprocs, self.msg)
    }
}

fn pow2(lo: usize, hi: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut m = lo;
    while m <= hi {
        v.push(m);
        m *= 2;
    }
    v
}

/// Seed of the fixed primed/new split of the `mixed_serve` keys.
const SPLIT_SEED: u64 = 0x005E_ED0F_0DE5;

/// `cold_tune` keys: every op × platform × nprocs {4, 8, 16, 32} ×
/// power-of-two sizes 256 B..256 KiB (1760 distinct keys), in an order the
/// seed picks. The set itself is the same for every seed, so the keys that
/// fail today (all `ibcast` and `ialltoall-ext` keys, some `ireduce` and
/// `igather` keys) are the same share of every run.
pub fn cold_keys(seed: u64) -> Vec<Key> {
    let mut keys = Vec::new();
    for op in OPS {
        for platform in PLATFORMS {
            for nprocs in [4, 8, 16, 32] {
                for msg in pow2(256, 256 * 1024) {
                    keys.push(Key {
                        op,
                        platform,
                        nprocs,
                        msg,
                    });
                }
            }
        }
    }
    Rng::new(seed, 1).shuffle(&mut keys);
    keys
}

/// The `mixed_serve` inputs.
#[derive(Debug, Clone)]
pub struct MixedPlan {
    /// Keys sent by the priming pass (two platforms per cell), hottest
    /// first: the Zipf ranks of the repeats follow this order.
    pub primed: Vec<Key>,
    /// Keys never primed, in the order the streams introduce them.
    pub fresh: Vec<Key>,
}

/// Requests per client per `mixed_serve` round.
pub const MIXED_PER_CLIENT: usize = 10_000;
/// Zipf exponent of the repeat distribution.
pub const ZIPF_S: f64 = 1.1;

/// `mixed_serve` keys: every op × nprocs {4, 8, 16} × 256 B..16 KiB; per
/// cell one fixed permutation of the platforms puts two in the primed set
/// (336 keys) and three in the new-key pool (504 keys). The seed orders
/// both: which primed keys are hot and when each new key arrives. The sets
/// are the same for every seed, so the new keys that fail today are the
/// same share of every run.
pub fn mixed_plan(seed: u64) -> MixedPlan {
    let mut split = Rng::new(SPLIT_SEED, 2);
    let (mut primed, mut fresh) = (Vec::new(), Vec::new());
    for op in OPS {
        for nprocs in [4, 8, 16] {
            for msg in pow2(256, 16 * 1024) {
                let mut plats = PLATFORMS;
                split.shuffle(&mut plats);
                for (i, &platform) in plats.iter().enumerate() {
                    let k = Key {
                        op,
                        platform,
                        nprocs,
                        msg,
                    };
                    if i < 2 {
                        primed.push(k);
                    } else {
                        fresh.push(k);
                    }
                }
            }
        }
    }
    Rng::new(seed, 2).shuffle(&mut primed);
    Rng::new(seed, 6).shuffle(&mut fresh);
    MixedPlan { primed, fresh }
}

/// One position of a client's `mixed_serve` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Repeat of the primed key with this rank in the Zipf order.
    Repeat(usize),
    /// The `n`th new key (same `n` at the same position in both streams).
    New(usize),
}

/// Both clients' streams. Every one of the `n_fresh` new keys is
/// introduced once, at positions drawn from a stream shared by the two
/// clients, so each new key sits at the same position in both and the two
/// requests coalesce; repeats are drawn per client from a Zipf
/// distribution over `n_repeat` ranks.
pub fn mixed_streams(seed: u64, n_repeat: usize, n_fresh: usize) -> [Vec<Slot>; 2] {
    let mut shared = Rng::new(seed, 3);
    let cdf = zipf_cdf(n_repeat.max(1), ZIPF_S);
    let mut own = [Rng::new(seed, 4), Rng::new(seed, 5)];
    let mut out = [
        Vec::with_capacity(MIXED_PER_CLIENT),
        Vec::with_capacity(MIXED_PER_CLIENT),
    ];
    let mut next_new = 0;
    for pos in 0..MIXED_PER_CLIENT {
        // Selection sampling: exactly `n_fresh` positions, uniformly.
        let left = (MIXED_PER_CLIENT - pos) as f64;
        let is_new = shared.unit() * left < n_fresh.saturating_sub(next_new) as f64;
        for c in 0..2 {
            out[c].push(if is_new {
                Slot::New(next_new)
            } else {
                Slot::Repeat(sample_cdf(&cdf, own[c].unit()))
            });
        }
        if is_new {
            next_new += 1;
        }
    }
    out
}

/// Cumulative Zipf(s) weights over ranks `0..n`.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let w: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    w.iter()
        .map(|x| {
            acc += x / total;
            acc
        })
        .collect()
}

/// Index of the first CDF entry at or above `u`.
pub fn sample_cdf(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// The `probe_sweep` grid: 4 platforms × ranks {8, 16, 32} × msgs
/// {1 KiB, 16 KiB, 256 KiB, 1 MiB}. The grid is fixed; the seed only feeds
/// the FFT kernel's noise.
pub const SWEEP_PLATFORMS: [&str; 4] = ["crill", "whale", "whale-tcp", "bluegene-p"];
pub const SWEEP_RANKS: [usize; 3] = [8, 16, 32];
pub const SWEEP_MSGS: [usize; 4] = [1024, 16 * 1024, 256 * 1024, 1024 * 1024];

/// Daemon keys at the probe grid's points with messages ≤ 16 KiB: the key
/// sample `probe_sweep`'s traced run replays through the daemon layers.
pub fn sweep_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for platform in SWEEP_PLATFORMS {
        for nprocs in SWEEP_RANKS {
            for msg in SWEEP_MSGS.into_iter().filter(|&m| m <= 16 * 1024) {
                for op in OPS {
                    keys.push(Key {
                        op,
                        platform,
                        nprocs,
                        msg,
                    });
                }
            }
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_request_lines() {
        let lines = |seed| -> Vec<String> {
            let mut v: Vec<String> = cold_keys(seed)
                .iter()
                .enumerate()
                .map(|(i, k)| k.line(i as u64))
                .collect();
            let plan = mixed_plan(seed);
            let streams = mixed_streams(seed, plan.primed.len(), plan.fresh.len());
            for s in &streams {
                v.extend(s.iter().map(|slot| format!("{slot:?}")));
            }
            v.extend(plan.primed.iter().map(|k| k.line(0)));
            v
        };
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
    }

    #[test]
    fn cold_set_is_the_full_grid_in_seeded_order() {
        let a = cold_keys(1);
        assert_eq!(a.len(), 8 * 5 * 4 * 11);
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), a.len());
        assert!(a.iter().all(|k| (256..=256 * 1024).contains(&k.msg)));
        // Seeds reorder the set, never change it.
        let b = cold_keys(2);
        assert_ne!(a, b);
        let sorted = |mut v: Vec<Key>| {
            v.sort();
            v
        };
        assert_eq!(sorted(a), sorted(b));
    }

    #[test]
    fn new_keys_share_positions_across_clients() {
        let plan = mixed_plan(3);
        assert_eq!(plan.primed.len(), 336);
        assert_eq!(plan.fresh.len(), 504);
        let [a, b] = mixed_streams(3, 200, plan.fresh.len());
        assert_eq!(a.len(), MIXED_PER_CLIENT);
        let mut news = 0;
        for (x, y) in a.iter().zip(&b) {
            if let Slot::New(n) = x {
                assert_eq!(y, &Slot::New(*n));
                news += 1;
            } else {
                assert!(matches!(y, Slot::Repeat(r) if *r < 200));
            }
        }
        assert_eq!(news, plan.fresh.len());
        let share = news as f64 / a.len() as f64;
        assert!((0.04..0.06).contains(&share), "new share {share}");
        // Seeds reorder the sets, never change them.
        let other = mixed_plan(4);
        assert_ne!(plan.fresh, other.fresh);
        let sorted = |v: &[Key]| {
            let mut v = v.to_vec();
            v.sort();
            v
        };
        assert_eq!(sorted(&plan.primed), sorted(&other.primed));
        assert_eq!(sorted(&plan.fresh), sorted(&other.fresh));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let cdf = zipf_cdf(100, ZIPF_S);
        assert!((cdf[99] - 1.0).abs() < 1e-12);
        let mut rng = Rng::new(9, 0);
        let mut hist = [0usize; 100];
        for _ in 0..20_000 {
            hist[sample_cdf(&cdf, rng.unit())] += 1;
        }
        assert!(hist[0] > hist[1] && hist[1] > hist[10] && hist[10] > hist[90]);
    }
}
