//! Per-layer metrics of a traced run.
//!
//! Three sources feed them:
//!
//! * **Counts** — `simcore::metrics::snapshot()` deltas, `adcl::simmemo`
//!   and `nbc::cache` statistics, and `Service::stats()`, taken around the
//!   traced timed pass.
//! * **Spans** — recorded by the benchmark around its calls into public
//!   entry points (`request`, `isolated.sweep`, `hit.inproc`, `hit.tcp`,
//!   `history.save`, ...); durations are read back from the span log.
//! * **Isolated replays** — each layer's entry point driven alone on the
//!   workload's own keys, after clearing `adcl::simmemo` and `nbc::cache`.
//!
//! Every workload reports every metric. A layer the workload's timed pass
//! does not touch is measured by its replay on the workload's keys, so the
//! value is real but moves none of that workload's end-to-end metrics;
//! README.md maps each metric to the workload whose end-to-end metric it
//! should move.

use crate::daemon::{self, clear_caches, Round, JOBS};
use crate::gen::Key;
use crate::host::Usage;
use crate::quality::{clean_spec, function_names};
use crate::report::{row, Row, RunResult};
use crate::stats::{median, nearest_rank};
use crate::{trace, Ctx};
use adcl::history::{HistoryKey, HistoryStore};
use adcld::protocol::{parse_request, render_ok, Decision, SOURCE_FRESH_SWEEP, SOURCE_HISTORY_HIT};
use adcld::{Query, Service, ServiceConfig};
use netmodel::{NetworkState, Placement, Platform};
use simcore::json::Json;
use simcore::metrics::Reading;
use simcore::{EventQueue, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::io;
use std::time::Instant;

/// A snapshot of the program's counters.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Registry metric → (value or histogram count, histogram sum).
    reg: BTreeMap<&'static str, (u64, u64)>,
    memo: (u64, u64),
    cache: (u64, u64),
}

impl Counters {
    pub fn take() -> Counters {
        let reg = simcore::metrics::snapshot()
            .into_iter()
            .map(|(n, r)| match r {
                Reading::Counter(v) | Reading::Gauge(v) => (n, (v, 0)),
                Reading::Histogram { count, sum, .. } => (n, (count, sum)),
            })
            .collect();
        let m = adcl::simmemo::stats();
        Counters {
            reg,
            memo: (m.hits, m.misses),
            cache: nbc::cache::stats(),
        }
    }

    /// Counter deltas from `before` to `self`.
    pub fn since(&self, before: &Counters) -> Counters {
        let d = |a: (u64, u64), b: (u64, u64)| (a.0.saturating_sub(b.0), a.1.saturating_sub(b.1));
        Counters {
            reg: self
                .reg
                .iter()
                .map(|(n, &v)| (*n, d(v, before.reg.get(n).copied().unwrap_or_default())))
                .collect(),
            memo: d(self.memo, before.memo),
            cache: d(self.cache, before.cache),
        }
    }

    /// JSON for passing counts out of a child process.
    pub fn to_json(&self) -> Json {
        let pair = |(a, b): (u64, u64)| Json::Arr(vec![Json::num(a as f64), Json::num(b as f64)]);
        let reg = self
            .reg
            .iter()
            .map(|(n, &v)| (n.to_string(), pair(v)))
            .collect();
        Json::obj([
            ("reg", Json::Obj(reg)),
            ("memo", pair(self.memo)),
            ("cache", pair(self.cache)),
        ])
    }

    /// Inverse of [`Counters::to_json`]; registry names must be ones this
    /// process knows (every name the layers read is).
    pub fn from_json(doc: &Json) -> Option<Counters> {
        let pair = |j: &Json| -> Option<(u64, u64)> {
            let a = j.as_arr()?;
            Some((a.first()?.as_u64()?, a.get(1)?.as_u64()?))
        };
        let mut reg = BTreeMap::new();
        if let Some(Json::Obj(m)) = doc.get("reg") {
            for (n, v) in m {
                if let Some(name) = REG_NAMES.iter().find(|k| **k == n) {
                    reg.insert(*name, pair(v)?);
                }
            }
        }
        Some(Counters {
            reg,
            memo: pair(doc.get("memo")?)?,
            cache: pair(doc.get("cache")?)?,
        })
    }

    pub fn get(&self, name: &str) -> u64 {
        self.reg.get(name).map_or(0, |v| v.0)
    }

    pub fn sum(&self, name: &str) -> u64 {
        self.reg.get(name).map_or(0, |v| v.1)
    }
}

/// Registry metrics the layer rows read.
const REG_NAMES: [&str; 7] = [
    "mpisim.sim_events",
    "mpisim.polls",
    "mpisim.rdv_stalls",
    "mpisim.unexpected_msgs",
    "simcore.payload_allocs",
    "adcl.sweep.sim_events_per_decision",
    "adcl.sweep.eliminated_candidates",
];

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Simulator, cache and host metrics of one timed pass.
pub fn sim_layers(c: &Counters, u: &Usage, out: &mut Vec<Row>) {
    let events = c.get("mpisim.sim_events");
    let n = events as usize;
    out.extend([
        row("mpisim.sim_events", events as f64, "count", 1),
        row(
            "mpisim.host_ns_per_event",
            u.cpu_s() * 1e9 / events.max(1) as f64,
            "ns",
            n,
        ),
        row(
            "mpisim.polls_per_event",
            ratio(c.get("mpisim.polls"), events),
            "polls",
            n,
        ),
        row(
            "mpisim.rdv_stalls",
            c.get("mpisim.rdv_stalls") as f64,
            "count",
            1,
        ),
        row(
            "mpisim.unexpected_msgs",
            c.get("mpisim.unexpected_msgs") as f64,
            "count",
            1,
        ),
        row(
            "mpisim.payload_allocs_per_kevent",
            ratio(c.get("simcore.payload_allocs") * 1000, events),
            "allocs",
            n,
        ),
        row(
            "adcl.simmemo.hit_ratio",
            ratio(c.memo.0, c.memo.0 + c.memo.1),
            "frac",
            (c.memo.0 + c.memo.1) as usize,
        ),
        row(
            "nbc.cache.hit_ratio",
            ratio(c.cache.0, c.cache.0 + c.cache.1),
            "frac",
            (c.cache.0 + c.cache.1) as usize,
        ),
        row("simcore.par.delivered_parallelism", u.parallelism(), "x", 1),
        row("host.sys_cpu_frac", u.sys_frac(), "frac", 1),
    ]);
}

/// Service-level metrics of one daemon pass whose reply keys index `keys`.
pub fn round_layers(r: &Round, keys: &[Key], out: &mut Vec<Row>) {
    let s = &r.stats;
    let swept = s.requests - s.history_hits - s.coalesced;
    let decided = r.counts.get("adcl.sweep.sim_events_per_decision");
    let candidates: usize = r
        .replies
        .iter()
        .filter(|x| x.outcome.source() == SOURCE_FRESH_SWEEP)
        .map(|x| function_names(&keys[x.key]).len())
        .sum();
    out.extend([
        row(
            "adcld.service.keys_per_admission",
            ratio(swept, s.sweep_admissions),
            "keys",
            s.sweep_admissions as usize,
        ),
        row(
            "adcld.service.coalesced_frac",
            ratio(s.coalesced, s.requests),
            "frac",
            s.requests as usize,
        ),
        row("adcl.history.checkpoints", r.checkpoints as f64, "count", 1),
        row(
            "adcl.decision.sim_events",
            ratio(r.counts.sum("adcl.sweep.sim_events_per_decision"), decided),
            "events",
            decided as usize,
        ),
        row(
            "adcl.decision.eliminated_frac",
            ratio(
                r.counts.get("adcl.sweep.eliminated_candidates"),
                candidates as u64,
            ),
            "frac",
            candidates,
        ),
    ]);
}

/// What the replays need from the workload.
pub struct Input<'a> {
    /// The workload's keys; span and reply key ids index this slice.
    pub keys: &'a [Key],
    /// Winner served for each key, if it succeeded.
    pub decisions: &'a [(Key, Option<String>)],
    /// `(key id, duration ns)` of the cold requests sent over TCP.
    pub tcp_spans: Vec<(u64, u64)>,
    pub regret_max_pct: Option<f64>,
    pub overhead: f64,
}

impl<'a> Input<'a> {
    pub fn new(keys: &'a [Key], decisions: &'a [(Key, Option<String>)]) -> Input<'a> {
        Input {
            keys,
            decisions,
            tcp_spans: Vec::new(),
            regret_max_pct: None,
            overhead: 0.0,
        }
    }
}

/// All per-layer rows of a daemon workload's traced run.
pub fn daemon_layers(
    ctx: &Ctx,
    round: &Round,
    input: &Input<'_>,
    res: &mut RunResult,
) -> io::Result<()> {
    sim_layers(&round.counts, &round.usage, &mut res.layers);
    round_layers(round, input.keys, &mut res.layers);
    res.layers.extend([
        row("adcl.guidelines.probes", 0.0, "count", 1),
        row("adcl.guidelines.probe_replays", 0.0, "count", 1),
    ]);
    let speedup = batch_speedup(&input.keys[..input.keys.len().min(64)])?;
    res.layers
        .push(row("simcore.par.speedup_jobs2", speedup, "x", 2));
    let secs = trace::span("fft3d.kernel", 0, 0, || {
        crate::sweep::kernel_once(ctx.seed).1
    });
    res.layers.push(row("fft3d.kernel_s", secs, "s", 1));
    replay_layers(ctx, input, res)
}

/// Layer replays every workload shares.
pub fn replay_layers(ctx: &Ctx, input: &Input<'_>, res: &mut RunResult) -> io::Result<()> {
    let keys = input.keys;
    isolated_sweeps(input, res)?;
    hits(ctx, keys, &mut res.layers)?;
    res.layers.push(protocol_ns(keys));
    history_layers(ctx, keys, &mut res.layers)?;
    res.layers.push(nbc_build(keys));
    res.layers.push(netmodel_ns(keys));
    res.layers.push(queue_ns(keys));
    res.layers.push(row(
        "adcl.decision.regret_max_pct",
        input.regret_max_pct.unwrap_or(0.0),
        "%",
        input.decisions.iter().filter(|d| d.1.is_some()).count(),
    ));
    res.layers
        .push(row("trace.overhead_frac", input.overhead, "frac", 1));
    Ok(())
}

fn query(k: &Key) -> Query {
    Query {
        op: k.op.into(),
        platform: k.platform.into(),
        nprocs: k.nprocs,
        msg_bytes: k.msg,
    }
}

fn history_key(k: &Key) -> HistoryKey {
    HistoryKey {
        op: k.op.into(),
        platform: k.platform.into(),
        nprocs: k.nprocs,
        msg_bytes: k.msg,
    }
}

fn service(
    jobs: usize,
    history: Option<std::path::PathBuf>,
) -> io::Result<std::sync::Arc<Service>> {
    Service::start(ServiceConfig {
        jobs,
        history_path: history,
        checkpoint_every: 0,
        ..ServiceConfig::default()
    })
}

/// Each key swept alone in-process on cleared caches; the difference to
/// its TCP request time is the time it queued. Also checks that the
/// isolated decision equals the one served over TCP.
fn isolated_sweeps(input: &Input<'_>, res: &mut RunResult) -> io::Result<()> {
    clear_caches();
    let svc = service(JOBS, None)?;
    let mut iso: HashMap<u64, f64> = HashMap::new();
    let mut mismatch = Vec::new();
    for (i, k) in input.keys.iter().enumerate() {
        let t0 = trace::now_ns();
        let got = svc.submit(&query(k)).recv().expect("scheduler alive");
        let t1 = trace::now_ns();
        trace::record("isolated.sweep", 0, trace::next_req(), i as u64, t0, t1);
        iso.insert(i as u64, (t1 - t0) as f64 / 1e3);
        let winner = got.ok().map(|s| s.decision.winner);
        if let Some((_, served)) = input.decisions.get(i) {
            if *served != winner {
                mismatch.push(format!("{k:?}: served {served:?}, isolated {winner:?}"));
            }
        }
    }
    svc.shutdown(false);
    res.check(
        "isolated_matches_served",
        mismatch.is_empty(),
        format!(
            "{} keys {}",
            iso.len(),
            mismatch.first().cloned().unwrap_or_default()
        ),
    );
    let sweeps: Vec<f64> = trace::durations(&trace::snapshot(), "isolated.sweep")
        .into_iter()
        .map(|(_, d)| d as f64 / 1e3)
        .collect();
    let waits: Vec<f64> = input
        .tcp_spans
        .iter()
        .filter_map(|(k, d)| iso.get(k).map(|s| *d as f64 / 1e3 - s))
        .collect();
    let l = &mut res.layers;
    l.push(row(
        "adcld.service.sweep_us_p50",
        nearest_rank(&sweeps, 50.0),
        "us",
        sweeps.len(),
    ));
    l.push(row(
        "adcld.service.sweep_us_p99",
        nearest_rank(&sweeps, 99.0),
        "us",
        sweeps.len(),
    ));
    l.push(row(
        "adcld.service.queue_wait_us_p50",
        nearest_rank(&waits, 50.0),
        "us",
        waits.len(),
    ));
    l.push(row(
        "adcld.service.queue_wait_us_p99",
        nearest_rank(&waits, 99.0),
        "us",
        waits.len(),
    ));
    Ok(())
}

/// Wall time of one batch of cold keys at jobs 1 over jobs 2 (one
/// `submit_batch`, so the daemon admits the whole batch at once).
fn batch_speedup(keys: &[Key]) -> io::Result<f64> {
    let qs: Vec<Query> = keys.iter().map(query).collect();
    let mut wall = [0.0; 2];
    for (slot, jobs) in [(0, 1), (1, 2)] {
        clear_caches();
        let svc = service(jobs, None)?;
        let t = Instant::now();
        let t0 = trace::now_ns();
        for rx in svc.submit_batch(&qs) {
            let _ = rx.recv();
        }
        trace::record(
            if jobs == 1 {
                "batch.jobs1"
            } else {
                "batch.jobs2"
            },
            0,
            0,
            0,
            t0,
            trace::now_ns(),
        );
        wall[slot] = t.elapsed().as_secs_f64();
        svc.shutdown(false);
    }
    Ok(wall[0] / wall[1])
}

/// A history holding a placeholder decision for every key.
fn store_for(keys: &[Key]) -> HistoryStore {
    let mut store = HistoryStore::new();
    store
        .set_context(&mpisim::fault::current().describe())
        .expect("fault context is a valid history context");
    for k in keys {
        store
            .put_decision(history_key(k), "placeholder", 1.0e-3, 0.1)
            .expect("benchmark keys are valid history keys");
    }
    store
}

/// Requests per timing loop of the hit and protocol replays.
const HIT_REQUESTS: usize = 4000;

/// History hits in-process (`Service::submit`) and over TCP on the same
/// store: `hit_us` is the in-process median, `transport_us` the TCP median
/// minus it.
fn hits(ctx: &Ctx, keys: &[Key], out: &mut Vec<Row>) -> io::Result<()> {
    let path = ctx.tmp.join("hits.tsv");
    store_for(keys).save(&path)?;
    let reps = HIT_REQUESTS.div_ceil(keys.len());
    let svc = service(JOBS, Some(path.clone()))?;
    for _ in 0..reps {
        for (i, k) in keys.iter().enumerate() {
            let t0 = trace::now_ns();
            let r = svc.submit(&query(k)).recv();
            trace::record(
                "hit.inproc",
                0,
                trace::next_req(),
                i as u64,
                t0,
                trace::now_ns(),
            );
            black_box(r.ok());
        }
    }
    svc.shutdown(false);
    let (server, _) = daemon::start(&path, 0, JOBS)?;
    let mut conn = crate::client::Conn::open(server.addr())?;
    let lines: Vec<String> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| k.line(i as u64))
        .collect();
    for _ in 0..reps {
        for (i, line) in lines.iter().enumerate() {
            let t0 = trace::now_ns();
            black_box(conn.call_raw(line)?.len());
            trace::record(
                "hit.tcp",
                0,
                trace::next_req(),
                i as u64,
                t0,
                trace::now_ns(),
            );
        }
    }
    drop(conn);
    server.abort();
    let spans = trace::snapshot();
    let us = |name| -> Vec<f64> {
        trace::durations(&spans, name)
            .into_iter()
            .map(|(_, d)| d as f64 / 1e3)
            .collect()
    };
    let (inproc, tcp) = (us("hit.inproc"), us("hit.tcp"));
    out.push(row(
        "adcld.service.hit_us",
        median(&inproc),
        "us",
        inproc.len(),
    ));
    out.push(row(
        "adcld.server.transport_us",
        median(&tcp) - median(&inproc),
        "us",
        tcp.len(),
    ));
    Ok(())
}

/// `parse_request` plus `render_ok` per request line of the workload.
fn protocol_ns(keys: &[Key]) -> Row {
    let lines: Vec<String> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| k.line(i as u64))
        .collect();
    let decision = Decision {
        winner: "placeholder".into(),
        score: 1.234_567_890_123e-3,
        margin: 0.1,
    };
    let reps = (50 * HIT_REQUESTS).div_ceil(lines.len());
    let t0 = trace::now_ns();
    for _ in 0..reps {
        for (i, line) in lines.iter().enumerate() {
            black_box(parse_request(black_box(line)).is_ok());
            black_box(render_ok(&Json::num(i as f64), &decision, SOURCE_HISTORY_HIT).len());
        }
    }
    let t1 = trace::now_ns();
    trace::record("protocol", 0, 0, 0, t0, t1);
    let n = reps * lines.len();
    row(
        "adcld.protocol.ns_per_request",
        (t1 - t0) as f64 / n as f64,
        "ns",
        n,
    )
}

/// Saves and loads timed per repetition.
const HISTORY_REPS: usize = 9;

/// History lookups, saves and loads of a store holding the workload's keys.
fn history_layers(ctx: &Ctx, keys: &[Key], out: &mut Vec<Row>) -> io::Result<()> {
    let mut store = store_for(keys);
    let hkeys: Vec<HistoryKey> = keys.iter().map(history_key).collect();
    let reps = (50 * HIT_REQUESTS).div_ceil(keys.len());
    let t0 = trace::now_ns();
    for _ in 0..reps {
        for k in &hkeys {
            black_box(store.get(black_box(k)).is_some());
        }
    }
    let t1 = trace::now_ns();
    trace::record("history.get", 0, 0, 0, t0, t1);
    let n = reps * hkeys.len();
    out.push(row(
        "adcl.history.get_ns",
        (t1 - t0) as f64 / n as f64,
        "ns",
        n,
    ));
    let path = ctx.tmp.join("history-replay.tsv");
    let mut save = Vec::new();
    let mut load = Vec::new();
    for _ in 0..HISTORY_REPS {
        let t0 = trace::now_ns();
        store.save(&path)?;
        let t1 = trace::now_ns();
        black_box(HistoryStore::load(&path)?.len());
        let t2 = trace::now_ns();
        trace::record("history.save", 0, 0, 0, t0, t1);
        trace::record("history.load", 0, 0, 0, t1, t2);
        save.push((t1 - t0) as f64 / 1e6);
        load.push((t2 - t1) as f64 / 1e6);
    }
    out.push(row("adcl.history.save_ms", median(&save), "ms", save.len()));
    out.push(row("adcl.history.load_ms", median(&load), "ms", load.len()));
    Ok(())
}

/// `MicrobenchSpec::prebuild_schedules` per key on a cleared cache.
fn nbc_build(keys: &[Key]) -> Row {
    nbc::cache::clear();
    let t0 = trace::now_ns();
    for (i, k) in keys.iter().enumerate() {
        trace::span("nbc.prebuild", 0, i as u64, || {
            clean_spec(k).prebuild_schedules()
        });
    }
    let t1 = trace::now_ns();
    row(
        "nbc.build_us_per_key",
        (t1 - t0) as f64 / 1e3 / keys.len() as f64,
        "us",
        keys.len(),
    )
}

/// Distinct `(platform, nprocs, msg)` shapes of the keys.
fn shapes(keys: &[Key]) -> BTreeSet<(&'static str, usize, usize)> {
    keys.iter().map(|k| (k.platform, k.nprocs, k.msg)).collect()
}

/// Rounds of shifted-ring transfers planned per shape.
const NET_ROUNDS: usize = 64;

/// `NetworkState::plan_transfer` replayed on every shape's rank pairs: in
/// round `r` each rank sends `msg` bytes to rank `src + r + 1`, and the
/// next round starts when the last transfer drained.
fn netmodel_ns(keys: &[Key]) -> Row {
    let mut calls = 0usize;
    let t0 = trace::now_ns();
    for (plat, n, msg) in shapes(keys) {
        let platform = Platform::by_name(plat).expect("preset platform");
        let mut net = NetworkState::new(platform, n, Placement::Block);
        let mut now = SimTime::ZERO;
        for r in 0..NET_ROUNDS {
            let mut drained = now;
            for src in 0..n {
                let dst = (src + 1 + r % (n - 1)) % n;
                let plan = net.plan_transfer(now, src, dst, msg);
                drained = drained.max(plan.dst_drain);
                calls += 1;
            }
            now = drained;
        }
        black_box(now);
    }
    let t1 = trace::now_ns();
    trace::record("netmodel.replay", 0, 0, 0, t0, t1);
    row(
        "netmodel.ns_per_transfer",
        (t1 - t0) as f64 / calls as f64,
        "ns",
        calls,
    )
}

/// Pop/push pairs per rank count in the hold model below.
const QUEUE_PAIRS: usize = 200_000;

/// `EventQueue` hold model at each rank count of the workload: four
/// pending events per rank; each step pops the earliest and pushes it back
/// a little later.
fn queue_ns(keys: &[Key]) -> Row {
    let ranks: BTreeSet<usize> = keys.iter().map(|k| k.nprocs).collect();
    let mut rng = crate::gen::Rng::new(ranks.len() as u64, 9);
    let t0 = trace::now_ns();
    for &n in &ranks {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(4 * n);
        for e in 0..4 * n {
            q.push(SimTime(rng.next_u64() % 1000), e as u32);
        }
        for _ in 0..QUEUE_PAIRS {
            let (t, e) = q.pop().expect("hold model keeps the queue full");
            q.push(SimTime(t.0 + 1 + rng.next_u64() % 1000), black_box(e));
        }
    }
    let t1 = trace::now_ns();
    trace::record("queue.hold", 0, 0, 0, t0, t1);
    let n = ranks.len() * QUEUE_PAIRS;
    row(
        "simcore.queue.ns_per_push_pop",
        (t1 - t0) as f64 / n as f64,
        "ns",
        n,
    )
}
