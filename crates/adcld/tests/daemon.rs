//! End-to-end tests for the `adcld` tuning daemon: protocol robustness,
//! in-flight query coalescing, and checkpoint/restart durability.

use adcld::service::{Query, Service, ServiceConfig};
use adcld::Server;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// One persistent connection: send every line, collect one response per
/// line. The connection must survive the whole exchange.
fn send_lines(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut out = Vec::new();
    for line in lines {
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
        writer.flush().expect("flush");
        let mut resp = String::new();
        let n = reader.read_line(&mut resp).expect("read");
        assert!(n > 0, "daemon dropped the connection after {line:?}");
        out.push(resp.trim_end().to_string());
    }
    out
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adcld-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn malformed_lines_get_typed_errors_on_a_surviving_connection() {
    let server = Server::spawn(ServiceConfig::default(), "127.0.0.1:0").expect("spawn");
    let responses = send_lines(
        server.addr(),
        &[
            "garbage",
            "[1,2,3]",
            r#"{"op":"ibcast"}"#,
            r#"{"op":"ibcast","platform":"whale","nprocs":"many","msg_bytes":64}"#,
            r#"{"op":"warp","platform":"whale","nprocs":4,"msg_bytes":64}"#,
            r#"{"op":"ialltoall","platform":"whale","nprocs":4,"msg_bytes":1536}"#,
            r#"{"cmd":"ping"}"#,
        ],
    );
    let kinds: Vec<Option<String>> = responses
        .iter()
        .map(|r| {
            let doc = simcore::json::parse(r).expect("every response is valid JSON");
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str().map(str::to_string))
        })
        .collect();
    assert_eq!(kinds[0].as_deref(), Some("parse"));
    assert_eq!(kinds[1].as_deref(), Some("parse"));
    assert_eq!(kinds[2].as_deref(), Some("bad-request"));
    assert_eq!(kinds[3].as_deref(), Some("bad-request"));
    assert_eq!(kinds[4].as_deref(), Some("bad-request"), "unknown op");
    // After all that abuse the same connection still serves real queries.
    let ok = simcore::json::parse(&responses[5]).unwrap();
    assert_eq!(ok.get("status").and_then(|v| v.as_str()), Some("ok"));
    assert!(ok.get("decision").is_some(), "{}", responses[5]);
    let pong = simcore::json::parse(&responses[6]).unwrap();
    assert_eq!(pong.get("pong"), Some(&simcore::json::Json::Bool(true)));
    server.shutdown();
}

#[test]
fn duplicate_concurrent_queries_coalesce_to_one_sweep() {
    let svc = Service::start(ServiceConfig::default()).expect("start");
    let query = Query {
        op: "ialltoall".into(),
        platform: "whale".into(),
        nprocs: 4,
        msg_bytes: 3072,
    };
    const N: usize = 8;
    let barrier = Arc::new(Barrier::new(N));
    let mut handles = Vec::new();
    for _ in 0..N {
        let svc = Arc::clone(&svc);
        let query = query.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            svc.submit(&query)
                .recv()
                .expect("response")
                .expect("served")
        }));
    }
    let served: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Exactly one sweep ran; everyone else coalesced onto it or hit the
    // freshly stored history entry — and all N decisions are identical.
    let stats = svc.stats();
    assert_eq!(
        stats.fresh_sweeps + stats.memo_replays,
        1,
        "duplicate queries must share one sweep: {stats:?}"
    );
    assert_eq!(
        stats.coalesced + stats.history_hits,
        (N - 1) as u64,
        "{stats:?}"
    );
    assert_eq!(stats.requests, N as u64);
    for s in &served[1..] {
        assert_eq!(s.decision, served[0].decision);
    }
    svc.shutdown(false);
}

#[test]
fn concurrent_distinct_cold_queries_share_few_pool_admissions() {
    let svc = Service::start(ServiceConfig::default()).expect("start");
    // Primer (served first, leaving the scheduler idle), then 8 distinct
    // cold keys enqueued atomically with submit_batch: one wakeup must
    // drain them into a single batched admission (at most two total).
    let query = |msg_bytes: usize| Query {
        op: "ialltoall".into(),
        platform: "whale".into(),
        nprocs: 4,
        msg_bytes,
    };
    svc.submit(&query(320))
        .recv()
        .expect("primer response")
        .expect("primer served");
    let sizes = [640usize, 1280, 1792, 2304, 2816, 3328, 3840, 4352];
    let queries: Vec<Query> = sizes.iter().map(|&b| query(b)).collect();
    for rx in svc.submit_batch(&queries) {
        rx.recv().expect("response").expect("served");
    }
    let stats = svc.stats();
    assert!(
        stats.sweep_admissions <= 2,
        "8 distinct cold queries must batch into <= 2 pool admissions: {stats:?}"
    );
    assert_eq!(
        stats.fresh_sweeps + stats.memo_replays,
        1 + sizes.len() as u64,
        "every distinct key still gets its own decision: {stats:?}"
    );
    svc.shutdown(false);
}

#[test]
fn cold_query_records_sweep_time_in_microseconds() {
    // The latency histograms record microseconds: a whole-millisecond
    // histogram rounded every sub-ms sweep to 0. The sweep dominates a
    // lone cold query, so its recorded time must be a sizeable share of
    // the query's wall time in the same unit. The registry is
    // process-global, so read the delta across this test's query.
    let sweeps = simcore::metrics::histogram("adcld.sweep_us");
    let (count0, sum0) = (sweeps.count(), sweeps.sum());
    let svc = Service::start(ServiceConfig::default()).expect("start");
    let t0 = Instant::now();
    let reply = svc
        .submit(&Query {
            op: "iallgather".into(),
            platform: "whale".into(),
            nprocs: 4,
            msg_bytes: 1536,
        })
        .recv()
        .expect("response");
    let wall_us = t0.elapsed().as_micros() as u64;
    assert!(reply.is_ok(), "cold query not served: {reply:?}");
    svc.shutdown(false);
    assert!(
        sweeps.count() > count0,
        "no sweep recorded in adcld.sweep_us"
    );
    let swept_us = sweeps.sum() - sum0;
    assert!(
        swept_us > 0 && swept_us * 100 >= wall_us,
        "adcld.sweep_us grew by {swept_us} over a {wall_us} us cold query"
    );
}

#[test]
fn kill_and_restart_resumes_from_checkpoint_with_byte_identical_responses() {
    let dir = tmp_dir("restart");
    let history = dir.join("history.tsv");
    let _ = std::fs::remove_file(&history);
    let cfg = || ServiceConfig {
        history_path: Some(history.clone()),
        checkpoint_every: 1, // checkpoint after every decision
        ..ServiceConfig::default()
    };
    let query = r#"{"id":41,"op":"ialltoall","platform":"whale","nprocs":4,"msg_bytes":2560}"#;

    let server_a = Server::spawn(cfg(), "127.0.0.1:0").expect("spawn A");
    let responses = send_lines(server_a.addr(), &[query, query]);
    let (cold, warm_a) = (&responses[0], &responses[1]);
    let source = |r: &str| {
        simcore::json::parse(r)
            .unwrap()
            .get("source")
            .and_then(|s| s.as_str().map(str::to_string))
    };
    assert_eq!(source(cold).as_deref(), Some("fresh-sweep"), "{cold}");
    assert_eq!(source(warm_a).as_deref(), Some("history-hit"), "{warm_a}");
    // Same decision whether swept or replayed from history.
    let decision = |r: &str| {
        simcore::json::parse(r)
            .unwrap()
            .get("decision")
            .cloned()
            .expect("decision present")
    };
    assert_eq!(decision(cold), decision(warm_a));
    // Simulated kill: no graceful final save — only the periodic
    // checkpoint (checkpoint_every = 1) persisted the decision.
    server_a.abort();
    assert!(history.exists(), "checkpoint file must exist after kill");

    let server_b = Server::spawn(cfg(), "127.0.0.1:0").expect("spawn B");
    assert_eq!(server_b.service().history_len(), 1, "warm start");
    let warm_b = &send_lines(server_b.addr(), &[query])[0];
    assert_eq!(
        warm_b, warm_a,
        "restarted daemon must serve the identical bytes"
    );
    server_b.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_command_stops_the_daemon_and_checkpoints() {
    let dir = tmp_dir("shutdown");
    let history = dir.join("history.tsv");
    let _ = std::fs::remove_file(&history);
    let server = Server::spawn(
        ServiceConfig {
            history_path: Some(history.clone()),
            checkpoint_every: 0, // only the shutdown checkpoint persists
            ..ServiceConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn");
    let responses = send_lines(
        server.addr(),
        &[
            r#"{"op":"ialltoall","platform":"whale","nprocs":4,"msg_bytes":3584}"#,
            r#"{"cmd":"stats"}"#,
            r#"{"cmd":"shutdown"}"#,
        ],
    );
    let stats = simcore::json::parse(&responses[1]).unwrap();
    assert_eq!(
        stats
            .get("stats")
            .and_then(|s| s.get("requests"))
            .and_then(|v| v.as_u64()),
        Some(1)
    );
    let ack = simcore::json::parse(&responses[2]).unwrap();
    assert_eq!(ack.get("shutdown"), Some(&simcore::json::Json::Bool(true)));
    server.wait(); // returns once the remote shutdown completes
    assert!(
        history.exists(),
        "graceful shutdown must write the final checkpoint"
    );
    let store = adcl::history::HistoryStore::load(&history).unwrap();
    assert_eq!(store.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}
