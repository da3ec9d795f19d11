//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_tune|mixed_serve|probe_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the default configuration (every `NBC_*`
//! variable unset), prints every metric with its unit and sample count,
//! runs the correctness checks, and ends with one JSON line. Exits 1 when a
//! check fails or the run cannot finish, 2 on bad arguments. See README.md.

mod client;
mod daemon;
mod gen;
mod host;
mod layers;
mod quality;
mod report;
mod stats;
mod sweep;
mod trace;

use simcore::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// What every workload needs to know about the run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory for history files, inside the working directory.
    pub tmp: PathBuf,
}

/// Where results, traces and scratch files go, relative to the working
/// directory (the checkout the benchmark runs in).
const OUT_DIR: &str = ".perfbench_out";

pub const WORKLOADS: [&str; 3] = ["cold_tune", "mixed_serve", "probe_sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {val:?}: {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&val.as_str()) => workload = Some(val.clone()),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(val.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
    })
}

fn rows_json(rows: &[report::Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                let v = match r.val {
                    report::Val::Num(x) => Json::num(x),
                    report::Val::Unbounded => Json::str("unbounded"),
                    report::Val::TooFew => Json::str("too-few-samples"),
                };
                Json::obj([
                    ("name", Json::str(r.name)),
                    ("value", v),
                    ("unit", Json::str(r.unit)),
                    ("n", Json::num(r.n as f64)),
                ])
            })
            .collect(),
    )
}

/// The full result, with host and configuration context, as JSON.
fn result_doc(a: &Args, r: &report::RunResult, unset: &[String], wall_s: f64) -> String {
    Json::obj([
        ("workload", Json::str(a.workload.clone())),
        ("seed", Json::num(a.seed as f64)),
        ("seconds", Json::num(a.seconds)),
        ("trace", Json::Bool(a.traced)),
        ("host_threads", Json::num(host::host_threads() as f64)),
        (
            "nbc_env_unset",
            Json::Arr(unset.iter().map(|s| Json::str(s.clone())).collect()),
        ),
        ("run_wall_s", Json::num(wall_s)),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::num(r.attempted as f64)),
        ("failed", Json::num(r.failed as f64)),
        ("e2e", rows_json(&r.e2e)),
        ("per_layer", rows_json(&r.layers)),
        (
            "checks",
            Json::Arr(
                r.checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.name)),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Arr(r.notes.iter().map(|n| Json::str(n.clone())).collect()),
        ),
    ])
    .render()
}

fn write(path: &Path, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    // Before any thread starts and before the program reads them.
    let unset = host::unset_nbc_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--probe-child") {
        return match sweep::child_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = Path::new(OUT_DIR);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        tmp: out.join(format!("run-{}", std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.tmp) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.tmp.display());
        return ExitCode::from(1);
    }
    trace::set_enabled(false);
    let t = Instant::now();
    let result = match args.workload.as_str() {
        "cold_tune" => daemon::cold_tune(&ctx),
        "mixed_serve" => daemon::mixed_serve(&ctx),
        _ => sweep::probe_sweep(&ctx),
    };
    let wall_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} host_threads={} nbc_env_unset={:?} run_wall_s={wall_s:.3}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        host::host_threads(),
        unset
    );
    print!("{}", report::human(&args.workload, &r));
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.traced)
    );
    write(
        &out.join(format!("result-{stem}.json")),
        &result_doc(&args, &r, &unset, wall_s),
    );
    if args.traced {
        write(
            &out.join(format!("spans-{}.json", args.workload)),
            &trace::to_json(&trace::snapshot()),
        );
    }
    let wanted: &[(&str, &str)] = if args.traced {
        &report::PER_LAYER
    } else {
        &report::E2E
    };
    match report::json_line(&r, wanted, args.traced) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a correctness check failed");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let p = parse_args(&a("--workload cold_tune --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (p.workload.as_str(), p.seed, p.seconds, p.traced),
            ("cold_tune", 3, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1",
            "--workload cold_tune",
            "--workload cold_tune --seed x",
            "--workload cold_tune --seed 1 --trace 2",
            "--workload cold_tune --seed 1 --seconds 0",
            "--workload cold_tune --seed 1 --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&a(bad)).is_err(), "{bad}");
        }
    }
}
