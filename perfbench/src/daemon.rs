//! The two daemon workloads, `cold_tune` and `mixed_serve`: an in-process
//! `adcld::Server` on an ephemeral localhost port, driven over TCP by two
//! closed-loop clients, with `jobs` 2 and a history file under the run's
//! scratch directory.

use crate::client::{self, Conn, Outcome, Reply, Work};
use crate::gen::{self, Key, Slot};
use crate::host::{self, Meter, Usage};
use crate::layers::{self, Counters};
use crate::quality;
use crate::report::{row, RunResult, Val};
use crate::stats::{median, percentile};
use crate::{trace, Ctx};
use adcl::history::HistoryStore;
use adcld::protocol::{render_command, SOURCE_HISTORY_HIT};
use adcld::{Server, ServiceConfig, ServiceStats};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::time::Instant;

pub const JOBS: usize = 2;
pub const CLIENTS: usize = 2;
/// Daemon start-ups measured before the first round for `setup_s`.
pub const SETUP_REPS: usize = 61;
/// Start-ups measured after every round as well, so `setup_s` samples the
/// host over the whole run, not only its first moments.
pub const SETUP_PER_ROUND: usize = 16;
/// `cold_tune` checkpoints after this many new decisions (the default).
const COLD_CHECKPOINT_EVERY: u64 = 8;
/// `mixed_serve` checkpoints often, so saves land during the run.
const MIXED_CHECKPOINT_EVERY: u64 = 4;

/// Drop the simulation memo and the schedule cache, so a round's sweeps
/// start as cold as a fresh daemon's.
pub fn clear_caches() {
    adcl::simmemo::clear();
    nbc::cache::clear();
}

/// Start a daemon on `history` and wait for it to answer a ping. Returns
/// the server and the seconds that took (the set-up time).
pub fn start(history: &Path, checkpoint_every: u64, jobs: usize) -> io::Result<(Server, f64)> {
    let t = Instant::now();
    let server = Server::spawn(
        ServiceConfig {
            jobs,
            history_path: Some(history.to_path_buf()),
            checkpoint_every,
            ..ServiceConfig::default()
        },
        "127.0.0.1:0",
    )?;
    let mut c = Conn::open(server.addr())?;
    c.call_raw(&render_command("ping"))?;
    Ok((server, t.elapsed().as_secs_f64()))
}

/// Saves the history file has seen (its persisted generation).
pub fn generation(path: &Path) -> u64 {
    HistoryStore::load(path).map_or(0, |s| s.generation())
}

/// One timed pass of a daemon workload.
pub struct Round {
    pub replies: Vec<Reply>,
    pub attempted: usize,
    pub usage: Usage,
    pub stats: ServiceStats,
    pub counts: Counters,
    /// Checkpoints written during the pass (the final save excluded).
    pub checkpoints: u64,
    pub setup_s: f64,
    /// Replies of the post-timing repeat pass, by key.
    pub repeats: HashMap<usize, Reply>,
    /// Process peak RSS at the end of the timed pass.
    pub peak_rss_mb: f64,
}

impl Round {
    pub fn ok(&self) -> usize {
        self.replies.iter().filter(|r| r.outcome.is_ok()).count()
    }
}

/// Run one pass: restart the daemon on a copy of `history` (or an empty
/// file), drive `work`, then re-send each key in `repeat` once.
pub fn run_round(
    ctx: &Ctx,
    name: &str,
    history: Option<&[u8]>,
    checkpoint_every: u64,
    work: &Work<'_>,
    repeat: &[(usize, String)],
) -> io::Result<Round> {
    clear_caches();
    let path = ctx.tmp.join(format!("{name}.tsv"));
    let _ = std::fs::remove_file(&path);
    if let Some(bytes) = history {
        std::fs::write(&path, bytes)?;
    }
    let gen0 = generation(&path);
    let (server, setup_s) = start(&path, checkpoint_every, JOBS)?;
    let span = trace::open();
    let c0 = Counters::take();
    let meter = Meter::start();
    let replies = client::drive(server.addr(), work, CLIENTS, span.0);
    let usage = meter.stop();
    let counts = Counters::take().since(&c0);
    trace::close("round", span, 0);
    let peak_rss_mb = host::peak_rss_mb();
    let stats = server.service().stats();
    let repeats = repeat_pass(server.addr(), repeat)?;
    server.shutdown();
    Ok(Round {
        attempted: work.len(),
        replies,
        usage,
        stats,
        counts,
        checkpoints: generation(&path).saturating_sub(gen0 + 1),
        setup_s,
        repeats,
        peak_rss_mb,
    })
}

fn repeat_pass(
    addr: std::net::SocketAddr,
    lines: &[(usize, String)],
) -> io::Result<HashMap<usize, Reply>> {
    let mut conn = Conn::open(addr)?;
    let mut out = HashMap::new();
    for (key, line) in lines {
        let t = Instant::now();
        let outcome = conn.call(line)?;
        out.insert(
            *key,
            Reply {
                key: *key,
                latency_us: t.elapsed().as_secs_f64() * 1e6,
                outcome,
            },
        );
    }
    Ok(out)
}

/// `setup_s` samples: `n` daemon start-ups on `history` (or an empty file).
fn setup_samples(ctx: &Ctx, history: Option<&[u8]>, n: usize) -> io::Result<Vec<f64>> {
    let path = ctx.tmp.join("setup.tsv");
    (0..n)
        .map(|_| {
            let _ = std::fs::remove_file(&path);
            if let Some(bytes) = history {
                std::fs::write(&path, bytes)?;
            }
            let (server, s) = start(&path, 0, JOBS)?;
            server.abort();
            Ok(s)
        })
        .collect()
}

/// Run rounds until `budget_s` has passed (at least one).
fn rounds_for<R>(budget_s: f64, mut one: impl FnMut(usize) -> io::Result<R>) -> io::Result<Vec<R>> {
    let t = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || t.elapsed().as_secs_f64() < budget_s {
        out.push(one(out.len())?);
    }
    Ok(out)
}

fn ok_latencies<'a>(replies: impl IntoIterator<Item = &'a Reply>) -> Vec<f64> {
    replies
        .into_iter()
        .filter(|r| r.outcome.is_ok())
        .map(|r| r.latency_us)
        .collect()
}

/// The end-to-end rows shared by both daemon workloads.
///
/// Goodput and the median latency are medians over rounds, so one round
/// slowed by the host moves them less. `peak_rss_mb` is read after the
/// first round: resident memory keeps growing over repeated rounds in one
/// process, so only the first is the same amount of work in every run.
fn e2e_rows(res: &mut RunResult, rounds: &[Round], setups: &[f64]) {
    let attempted: usize = rounds.iter().map(|r| r.attempted).sum();
    let ok_lat = ok_latencies(rounds.iter().flat_map(|r| &r.replies));
    let ok = ok_lat.len();
    let failed = attempted - ok;
    res.attempted = attempted as u64;
    res.failed = failed as u64;
    let goodput: Vec<f64> = rounds
        .iter()
        .map(|r| r.ok() as f64 / r.usage.wall_s)
        .collect();
    let p50: Option<Vec<f64>> = rounds
        .iter()
        .map(|r| percentile(&ok_latencies(&r.replies), r.attempted, 50.0).value())
        .collect();
    res.notes.push(format!(
        "rounds: goodput {:?} p50_us {:?} cpu_s {:?}",
        goodput.iter().map(|g| g.round()).collect::<Vec<_>>(),
        p50.iter().flatten().map(|p| p.round()).collect::<Vec<_>>(),
        rounds
            .iter()
            .map(|r| (r.usage.cpu_s() * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
    ));
    let p50 = match p50 {
        Some(v) => Val::Num(median(&v)),
        None => percentile(&ok_lat, attempted, 50.0).into(),
    };
    res.e2e.extend([
        row("setup_s", median(setups), "s", setups.len()),
        row("goodput_per_s", median(&goodput), "1/s", attempted),
        row("latency_p50_us", p50, "us", attempted),
        row(
            "latency_p99_us",
            percentile(&ok_lat, attempted, 99.0),
            "us",
            attempted,
        ),
        row(
            "failed_frac",
            failed as f64 / attempted as f64,
            "frac",
            attempted,
        ),
        row(
            "success_frac",
            ok as f64 / attempted as f64,
            "frac",
            attempted,
        ),
        row("peak_rss_mb", rounds[0].peak_rss_mb, "MB", 1),
    ]);
}

/// Every winner must belong to its op's function set.
fn check_winners(res: &mut RunResult, rounds: &[Round], key_of: impl Fn(usize) -> Key) {
    let mut names: HashMap<Key, Vec<String>> = HashMap::new();
    let mut bad = Vec::new();
    let mut n = 0;
    for r in rounds
        .iter()
        .flat_map(|r| r.replies.iter().chain(r.repeats.values()))
    {
        if let Outcome::Ok { winner, .. } = &r.outcome {
            n += 1;
            let key = key_of(r.key);
            let set = names
                .entry(key)
                .or_insert_with(|| quality::function_names(&key));
            if !set.iter().any(|n| n == winner) {
                bad.push(format!("{key:?} -> {winner}"));
            }
        }
    }
    res.check(
        "winner_in_function_set",
        bad.is_empty(),
        format!("{n} decisions {}", bad.first().cloned().unwrap_or_default()),
    );
}

/// Every reply for a key must carry the same decision bytes (or the same
/// error kind) as the key's first reply in the run.
fn check_repeats(res: &mut RunResult, rounds: &[Round], expect: &HashMap<usize, String>) {
    let mut first: HashMap<usize, String> = expect.clone();
    let (mut n, mut bad) = (0, Vec::new());
    for r in rounds
        .iter()
        .flat_map(|r| r.replies.iter().chain(r.repeats.values()))
    {
        if matches!(r.outcome, Outcome::Conn(_)) {
            continue;
        }
        n += 1;
        let fp = r.outcome.fingerprint();
        let want = first.entry(r.key).or_insert_with(|| fp.clone());
        if *want != fp {
            bad.push(format!("key {}: {want} vs {fp}", r.key));
        }
    }
    res.check(
        "repeat_byte_identical",
        bad.is_empty(),
        format!("{n} replies {}", bad.first().cloned().unwrap_or_default()),
    );
}

/// Failed requests by error kind (connection errors included), and the
/// requests never sent because their client's connection died.
fn failure_kinds(rounds: &[Round]) -> String {
    let mut kinds: HashMap<String, usize> = HashMap::new();
    for r in rounds.iter().flat_map(|r| &r.replies) {
        if !r.outcome.is_ok() {
            *kinds.entry(r.outcome.fingerprint()).or_default() += 1;
        }
    }
    let mut v: Vec<_> = kinds.into_iter().collect();
    v.sort();
    let unsent: usize = rounds.iter().map(|r| r.attempted - r.replies.len()).sum();
    format!("failures by kind {v:?}, never sent {unsent}")
}

/// `trace.overhead_frac`: median wall time per attempted request of the
/// traced rounds over that of the untraced ones, minus 1.
fn overhead(base: &[Round], traced: &[Round]) -> f64 {
    let per_op = |rs: &[Round]| {
        let v: Vec<f64> = rs
            .iter()
            .map(|r| r.usage.wall_s / r.attempted as f64)
            .collect();
        median(&v)
    };
    per_op(traced) / per_op(base) - 1.0
}

/// Timed rounds for a run. A traced run alternates untraced and traced
/// rounds, starting untraced, so both kinds see the same warm-up and host
/// drift, and runs at least one of each; tracing stays on afterwards for
/// the layer replays. Returns (untraced, measured).
pub fn timed<R>(
    ctx: &Ctx,
    mut one: impl FnMut(usize) -> io::Result<R>,
) -> io::Result<(Vec<R>, Vec<R>)> {
    if !ctx.traced {
        return Ok((Vec::new(), rounds_for(ctx.seconds, &mut one)?));
    }
    let t = Instant::now();
    let (mut base, mut traced) = (Vec::new(), Vec::new());
    while traced.is_empty() || t.elapsed().as_secs_f64() < ctx.seconds {
        let i = base.len() + traced.len();
        trace::set_enabled(i % 2 == 1);
        let r = one(i)?;
        if i % 2 == 1 {
            traced.push(r);
        } else {
            base.push(r);
        }
    }
    trace::set_enabled(true);
    Ok((base, traced))
}

pub fn cold_tune(ctx: &Ctx) -> io::Result<RunResult> {
    let keys = gen::cold_keys(ctx.seed);
    let lines: Vec<(usize, String)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (i, k.line(i as u64 + 1)))
        .collect();
    let mut res = RunResult::default();
    let mut setups = setup_samples(ctx, None, SETUP_REPS)?;
    let work = Work::Shared(&lines);
    let (base, rounds) = timed(ctx, |i| {
        let r = run_round(
            ctx,
            &format!("cold-{i}"),
            None,
            COLD_CHECKPOINT_EVERY,
            &work,
            &lines,
        )?;
        setups.extend(setup_samples(ctx, None, SETUP_PER_ROUND)?);
        Ok(r)
    })?;
    setups.extend(rounds.iter().map(|r| r.setup_s));
    res.notes.push(format!(
        "cold_tune: {} distinct keys per round, {} rounds, {} clients, jobs {JOBS}",
        keys.len(),
        rounds.len(),
        CLIENTS
    ));
    res.notes.push(failure_kinds(&rounds));
    e2e_rows(&mut res, &rounds, &setups);
    check_winners(&mut res, &rounds, |i| keys[i]);
    check_repeats(&mut res, &rounds, &HashMap::new());

    // Quality pass, after all timing.
    let first = &rounds[0];
    let by_key: HashMap<usize, &Reply> = first.replies.iter().map(|r| (r.key, r)).collect();
    let decisions: Vec<(Key, Option<String>)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let w = by_key.get(&i).and_then(|r| match &r.outcome {
                Outcome::Ok { winner, .. } => Some(winner.clone()),
                _ => None,
            });
            (*k, w)
        })
        .collect();
    let q = trace::span("quality.oracle", 0, 0, || quality::judge(&decisions, JOBS));
    res.e2e
        .push(row("decision_within_5pct", q.share(), "frac", q.attempted));

    if ctx.traced {
        let mut input = layers::Input::new(&keys, &decisions);
        input.tcp_spans = request_spans();
        input.regret_max_pct = Some(q.regret_max_pct);
        input.overhead = overhead(&base, &rounds);
        layers::daemon_layers(ctx, &rounds[0], &input, &mut res)?;
    }
    Ok(res)
}

fn request_spans() -> Vec<(u64, u64)> {
    trace::durations(&trace::snapshot(), "request")
}

pub fn mixed_serve(ctx: &Ctx) -> io::Result<RunResult> {
    let plan = gen::mixed_plan(ctx.seed);
    let mut res = RunResult::default();

    // Priming: send every primed key once, checkpoint, and keep the file.
    let prime_lines: Vec<(usize, String)> = plan
        .primed
        .iter()
        .enumerate()
        .map(|(i, k)| (i, k.line(i as u64 + 1)))
        .collect();
    let prime = run_round(
        ctx,
        "prime",
        None,
        MIXED_CHECKPOINT_EVERY,
        &Work::Shared(&prime_lines),
        &[],
    )?;
    let base_file = std::fs::read(ctx.tmp.join("prime.tsv"))?;
    let mut prime_by: Vec<&Reply> = prime.replies.iter().collect();
    prime_by.sort_by_key(|r| r.key);
    // Primed keys are those the checkpoint holds, in the seeded order.
    let primed: Vec<(Key, &Reply)> = prime_by
        .iter()
        .filter(|r| r.outcome.is_ok())
        .map(|r| (plan.primed[r.key], *r))
        .collect();
    res.notes.push(format!(
        "mixed_serve priming: {} keys sent, {} checkpointed, {}",
        plan.primed.len(),
        primed.len(),
        failure_kinds(std::slice::from_ref(&prime))
    ));

    // Key ids: primed keys 0..P, new keys P.. in introduction order.
    let p = primed.len();
    let key_of = |id: usize| {
        if id < p {
            primed[id].0
        } else {
            plan.fresh[id - p]
        }
    };
    let streams = gen::mixed_streams(ctx.seed, p, plan.fresh.len());
    let mut req_id = 0u64;
    let work_lists: Vec<Vec<(usize, String)>> = streams
        .iter()
        .map(|s| {
            s.iter()
                .map(|slot| {
                    let id = match *slot {
                        Slot::Repeat(r) => r,
                        Slot::New(n) => p + n,
                    };
                    req_id += 1;
                    (id, key_of(id).line(req_id))
                })
                .collect()
        })
        .collect();
    let expect: HashMap<usize, String> = primed
        .iter()
        .enumerate()
        .map(|(i, (_, r))| (i, r.outcome.fingerprint()))
        .collect();

    let mut setups = setup_samples(ctx, Some(&base_file), SETUP_REPS)?;
    let work = Work::PerClient(&work_lists);
    let (base, rounds) = timed(ctx, |i| {
        let r = run_round(
            ctx,
            &format!("mixed-{i}"),
            Some(&base_file),
            MIXED_CHECKPOINT_EVERY,
            &work,
            &[],
        )?;
        setups.extend(setup_samples(ctx, Some(&base_file), SETUP_PER_ROUND)?);
        Ok(r)
    })?;
    setups.extend(rounds.iter().map(|r| r.setup_s));
    let news = streams[0]
        .iter()
        .filter(|s| matches!(s, Slot::New(_)))
        .count();
    res.notes.push(format!(
        "mixed_serve: {} requests per round ({news} new keys, each sent by both clients), {} rounds, checkpoint every {MIXED_CHECKPOINT_EVERY}",
        work.len(),
        rounds.len()
    ));
    res.notes.push(failure_kinds(&rounds));
    e2e_rows(&mut res, &rounds, &setups);
    let hits: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.replies)
        .filter(|r| r.outcome.source() == SOURCE_HISTORY_HIT)
        .map(|r| r.latency_us)
        .collect();
    res.e2e.push(row(
        "hit_latency_p99_us",
        percentile(&hits, hits.len(), 99.0),
        "us",
        hits.len(),
    ));
    check_winners(&mut res, &rounds, key_of);
    check_repeats(&mut res, &rounds, &expect);

    if ctx.traced {
        // The daemon layers replay the keys this workload swept: the
        // primed keys and the new keys its streams introduced.
        let keys: Vec<Key> = (0..p + news).map(key_of).collect();
        let mut served: HashMap<usize, Option<String>> = primed
            .iter()
            .enumerate()
            .map(|(i, (_, r))| (i, winner_of(&r.outcome)))
            .collect();
        for r in rounds[0].replies.iter().filter(|r| r.key >= p) {
            served.entry(r.key).or_insert_with(|| winner_of(&r.outcome));
        }
        let decisions: Vec<(Key, Option<String>)> = (0..p + news)
            .map(|i| (key_of(i), served.get(&i).cloned().flatten()))
            .collect();
        let q = trace::span("quality.oracle", 0, 0, || quality::judge(&decisions, JOBS));
        let mut input = layers::Input::new(&keys, &decisions);
        // Queue wait concerns cold keys only: the new keys' requests.
        input.tcp_spans = request_spans()
            .into_iter()
            .filter(|&(k, _)| k as usize >= p)
            .collect();
        input.regret_max_pct = Some(q.regret_max_pct);
        input.overhead = overhead(&base, &rounds);
        layers::daemon_layers(ctx, &rounds[0], &input, &mut res)?;
    }
    Ok(res)
}

fn winner_of(o: &Outcome) -> Option<String> {
    match o {
        Outcome::Ok { winner, .. } => Some(winner.clone()),
        _ => None,
    }
}
