//! The `probe_sweep` workload: the guideline observatory's fixed-schedule
//! probe table through `adcl::guidelines::run_sweep` at jobs 2, then one
//! window-tiled FFT kernel through `fft3d::patterns::run_fft_kernel`. No
//! tuner and no daemon run in the timed pass.
//!
//! Each round runs in a fresh child process (this binary with
//! `--probe-child`), the way a figure binary runs: the simulator's
//! resident memory grows across repeated large sweeps in one process, so
//! per-process rounds keep `peak_rss_mb` a property of one round and bound
//! the run's memory. The child reports its timings, counters and spans as
//! one JSON line.

use crate::client::Work;
use crate::daemon::{self, clear_caches, Round, JOBS, SETUP_PER_ROUND, SETUP_REPS};
use crate::gen::{self, Key};
use crate::host::{self, Meter, Usage};
use crate::layers::{self, Counters};
use crate::quality;
use crate::report::{row, RunResult};
use crate::stats::{median, percentile};
use crate::{trace, Ctx};
use adcl::guidelines::{run_sweep, SweepConfig, SweepReport};
use adcl::strategy::SelectionLogic;
use fft3d::patterns::{run_fft_kernel, FftKernelConfig, FftMode, FftPattern, FftRunResult};
use mpisim::NoiseConfig;
use netmodel::Platform;
use simcore::json::{self, Json};
use std::io::{self, BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The probe grid (see [`gen::SWEEP_PLATFORMS`]).
pub fn sweep_config() -> SweepConfig {
    SweepConfig {
        mode: "custom",
        platforms: gen::SWEEP_PLATFORMS.iter().map(|s| s.to_string()).collect(),
        ranks: gen::SWEEP_RANKS.to_vec(),
        msgs: gen::SWEEP_MSGS.to_vec(),
    }
}

/// Ranks of the FFT kernel run.
const KERNEL_RANKS: usize = 16;

/// One window-tiled FFT kernel on whale, tuned by brute force, with compute
/// noise seeded from the workload seed. Returns the result and its wall
/// seconds.
pub fn kernel_once(seed: u64) -> (FftRunResult, f64) {
    let cfg = FftKernelConfig {
        n: 128,
        iters: 12,
        ..FftKernelConfig::default()
    };
    let t = Instant::now();
    let r = run_fft_kernel(
        &Platform::whale(),
        KERNEL_RANKS,
        &cfg,
        FftPattern::WindowTiled,
        FftMode::Adcl(SelectionLogic::BruteForce),
        NoiseConfig::light(seed),
    );
    (r, t.elapsed().as_secs_f64())
}

/// FNV-1a of the report's JSON rendering.
pub fn digest(report: &SweepReport) -> u64 {
    report
        .to_json()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// What one child round reports.
#[derive(Debug, Clone)]
pub struct ChildRound {
    pub probes: usize,
    pub probe_replays: usize,
    /// Checks whose probes did not complete.
    pub failed: usize,
    pub digest: String,
    pub kernel: String,
    pub sweep_s: f64,
    pub kernel_s: f64,
    pub usage: Usage,
    pub counts: Counters,
    pub peak_rss_mb: f64,
    /// Spawn to the child's `ready` line.
    pub setup_s: f64,
}

/// Body of `perfbench --probe-child <seed> <jobs> <trace>`: one round,
/// reported as `ready` then one JSON line.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let num = |i: usize| -> Result<u64, String> {
        args.get(i)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("--probe-child argument {i} missing or not a number"))
    };
    let (seed, jobs, traced) = (num(0)?, num(1)? as usize, num(2)? == 1);
    let cfg = sweep_config();
    std::hint::black_box(adcl::guidelines::registry().len());
    simcore::par::on_all_workers(jobs.saturating_sub(1), || {});
    println!("ready");
    if jobs == 0 {
        return Ok(());
    }
    trace::set_enabled(traced);
    let span = trace::open();
    let c0 = Counters::take();
    let meter = Meter::start();
    let t = Instant::now();
    let report = trace::span("guidelines.run_sweep", span.0, 0, || run_sweep(&cfg, jobs));
    let sweep_s = t.elapsed().as_secs_f64();
    // The jobs-1 determinism run needs only the probe table.
    let (kernel, kernel_s) = if jobs == JOBS {
        let (k, s) = trace::span("fft3d.run_fft_kernel", span.0, 0, || kernel_once(seed));
        (format!("{:?}/{:x}", k.winner, k.total_time.to_bits()), s)
    } else {
        (String::new(), 0.0)
    };
    let usage = meter.stop();
    let counts = Counters::take().since(&c0);
    trace::close("round", span, 0);
    let failed = report
        .checks
        .iter()
        .filter(|c| !c.lhs_secs.is_finite() || !c.rhs_secs.is_finite())
        .count()
        .min(report.probes);
    let doc = Json::obj([
        ("probes", Json::num(report.probes as f64)),
        ("probe_replays", Json::num(report.probe_replays as f64)),
        ("failed", Json::num(failed as f64)),
        ("digest", Json::str(format!("{:016x}", digest(&report)))),
        ("kernel", Json::str(kernel)),
        ("sweep_s", Json::num(sweep_s)),
        ("kernel_s", Json::num(kernel_s)),
        ("wall_s", Json::num(usage.wall_s)),
        ("user_s", Json::num(usage.user_s)),
        ("sys_s", Json::num(usage.sys_s)),
        ("counts", counts.to_json()),
        ("peak_rss_mb", Json::num(host::peak_rss_mb())),
        (
            "spans",
            json::parse(&trace::to_json(&trace::snapshot())).map_err(|e| e.to_string())?,
        ),
    ]);
    println!("{}", doc.render());
    Ok(())
}

/// Spawn `perfbench --probe-child <seed> <jobs> <trace>` and wait for it.
/// Returns the seconds until its `ready` line and the line after it.
fn spawn_child(seed: u64, jobs: usize, traced: bool) -> io::Result<(f64, Option<String>)> {
    let t = Instant::now();
    let mut child = Command::new(std::env::current_exe()?)
        .args([
            "--probe-child",
            &seed.to_string(),
            &jobs.to_string(),
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let ready = lines.next().transpose()?;
    let setup_s = t.elapsed().as_secs_f64();
    let body = lines.next().transpose()?;
    let status = child.wait()?;
    if !status.success() || ready.as_deref() != Some("ready") {
        return Err(io::Error::other(format!(
            "probe child exited with {status}"
        )));
    }
    Ok((setup_s, body))
}

/// Run one round in a child process.
fn run_child(seed: u64, jobs: usize, traced: bool) -> io::Result<ChildRound> {
    let bad = |m: String| io::Error::other(format!("probe child: {m}"));
    let parent = trace::open();
    let (setup_s, body) = spawn_child(seed, jobs, traced)?;
    trace::close("probe_child", parent, 0);
    let doc = json::parse(body.as_deref().unwrap_or("")).map_err(|e| bad(e.to_string()))?;
    let f = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| bad(format!("missing {k}")))
    };
    let s = |k: &str| {
        doc.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| bad(format!("missing {k}")))
    };
    trace::adopt(doc.get("spans"), parent);
    Ok(ChildRound {
        probes: f("probes")? as usize,
        probe_replays: f("probe_replays")? as usize,
        failed: f("failed")? as usize,
        digest: s("digest")?,
        kernel: s("kernel")?,
        sweep_s: f("sweep_s")?,
        kernel_s: f("kernel_s")?,
        usage: Usage {
            wall_s: f("wall_s")?,
            user_s: f("user_s")?,
            sys_s: f("sys_s")?,
        },
        counts: doc
            .get("counts")
            .and_then(Counters::from_json)
            .ok_or_else(|| bad("bad counts".into()))?,
        peak_rss_mb: f("peak_rss_mb")?,
        setup_s,
    })
}

fn per_round_wall(rs: &[ChildRound]) -> f64 {
    median(&rs.iter().map(|r| r.usage.wall_s).collect::<Vec<_>>())
}

pub fn probe_sweep(ctx: &Ctx) -> io::Result<RunResult> {
    let mut res = RunResult::default();
    // Extra start-ups after every round (and at the end, up to
    // `SETUP_REPS`) so set-up time is sampled over the whole run.
    let mut setups = Vec::new();
    let (base, rounds) = daemon::timed(ctx, |_| {
        let r = run_child(ctx.seed, JOBS, trace::enabled())?;
        for _ in 0..SETUP_PER_ROUND {
            // `jobs` 0: the child exits once it is ready.
            setups.push(spawn_child(0, 0, false)?.0);
        }
        Ok(r)
    })?;
    setups.extend(rounds.iter().map(|r| r.setup_s));
    while setups.len() < SETUP_REPS {
        // `jobs` 0: the child exits once it is ready.
        setups.push(spawn_child(0, 0, false)?.0);
    }

    let probes: usize = rounds.iter().map(|r| r.probes).sum();
    let failed: usize = rounds.iter().map(|r| r.failed).sum();
    let goodput: Vec<f64> = rounds
        .iter()
        .map(|r| (r.probes - r.failed) as f64 / r.usage.wall_s)
        .collect();
    let lat: Vec<f64> = rounds.iter().map(|r| r.usage.wall_s * 1e6).collect();
    let peak = rounds.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max);
    res.attempted = probes as u64;
    res.failed = failed as u64;
    res.notes.push(format!(
        "probe_sweep: {} probes per round, {} rounds (one child process each), jobs {JOBS}; an operation is a probe point, its latency the wall time of the round that holds it",
        rounds[0].probes,
        rounds.len()
    ));
    res.e2e.extend([
        row("setup_s", median(&setups), "s", setups.len()),
        row("goodput_per_s", median(&goodput), "1/s", probes),
        row(
            "latency_p50_us",
            percentile(&lat, lat.len(), 50.0),
            "us",
            lat.len(),
        ),
        row(
            "latency_p99_us",
            percentile(&lat, lat.len(), 99.0),
            "us",
            lat.len(),
        ),
        row("failed_frac", failed as f64 / probes as f64, "frac", probes),
        row(
            "success_frac",
            (probes - failed) as f64 / probes as f64,
            "frac",
            probes,
        ),
        row("peak_rss_mb", peak, "MB", rounds.len()),
    ]);

    // Correctness, after timing.
    let d0 = &rounds[0].digest;
    res.check(
        "digest_identical_across_rounds",
        rounds.iter().chain(&base).all(|r| &r.digest == d0),
        format!("{} rounds, digest {d0}", rounds.len() + base.len()),
    );
    res.check(
        "kernel_identical_across_rounds",
        rounds
            .iter()
            .chain(&base)
            .all(|r| r.kernel == rounds[0].kernel),
        rounds[0].kernel.clone(),
    );
    let serial = run_child(ctx.seed, 1, false)?;
    res.check(
        "digest_identical_jobs1_vs_jobs2",
        &serial.digest == d0,
        format!("jobs 1 digest {}", serial.digest),
    );

    if ctx.traced {
        sweep_layers(ctx, &base, &rounds, serial.sweep_s, &mut res)?;
    }
    Ok(res)
}

fn sweep_layers(
    ctx: &Ctx,
    base: &[ChildRound],
    rounds: &[ChildRound],
    serial_s: f64,
    res: &mut RunResult,
) -> io::Result<()> {
    let r0 = &rounds[0];
    layers::sim_layers(&r0.counts, &r0.usage, &mut res.layers);
    let sweeps: Vec<f64> = rounds.iter().map(|r| r.sweep_s).collect();
    let kernels: Vec<f64> = rounds.iter().map(|r| r.kernel_s).collect();
    res.layers.extend([
        row("adcl.guidelines.probes", r0.probes as f64, "count", 1),
        row(
            "adcl.guidelines.probe_replays",
            r0.probe_replays as f64,
            "count",
            1,
        ),
        row(
            "simcore.par.speedup_jobs2",
            serial_s / median(&sweeps),
            "x",
            sweeps.len() + 1,
        ),
        row("fft3d.kernel_s", median(&kernels), "s", kernels.len()),
    ]);
    // The daemon layers replay the grid's small-message points as keys:
    // one cold pass over TCP, then the shared isolated replays.
    clear_caches();
    let keys: Vec<Key> = gen::sweep_keys();
    let lines: Vec<(usize, String)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (i, k.line(i as u64 + 1)))
        .collect();
    let before = trace::snapshot().len();
    let pass: Round = daemon::run_round(ctx, "sweep-keys", None, 8, &Work::Shared(&lines), &[])?;
    layers::round_layers(&pass, &keys, &mut res.layers);
    let mut decisions: Vec<(Key, Option<String>)> = keys.iter().map(|k| (*k, None)).collect();
    for r in &pass.replies {
        if let crate::client::Outcome::Ok { winner, .. } = &r.outcome {
            decisions[r.key].1 = Some(winner.clone());
        }
    }
    let q = trace::span("quality.oracle", 0, 0, || quality::judge(&decisions, JOBS));
    let mut input = layers::Input::new(&keys, &decisions);
    input.tcp_spans = trace::durations(&trace::snapshot()[before..], "request");
    input.regret_max_pct = Some(q.regret_max_pct);
    input.overhead = per_round_wall(rounds) / per_round_wall(base) - 1.0;
    layers::replay_layers(ctx, &input, res)
}
