//! In-memory spans recorded by the benchmark around its calls into the
//! program. Spans carry a name, start, end, parent span, the request they
//! belong to, and the key that request asked about; they stay in memory
//! and are written out once, at the end of the run. With tracing off
//! every call is a single atomic load.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// Request id: every span of one request carries it (0 = none).
    pub req: u64,
    /// Key id the request asked about (0 = none).
    pub key: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT: AtomicU64 = AtomicU64::new(1);

fn epoch() -> &'static Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    T0.get_or_init(Instant::now)
}

fn spans() -> &'static Mutex<Vec<Span>> {
    static S: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(Vec::with_capacity(1 << 16)))
}

pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A fresh request id.
pub fn next_req() -> u64 {
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Record a finished span; returns its id (0 when tracing is off).
pub fn record(
    name: &'static str,
    parent: u64,
    req: u64,
    key: u64,
    start_ns: u64,
    end_ns: u64,
) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    spans().lock().expect("span log poisoned").push(Span {
        id,
        parent,
        req,
        key,
        name,
        start_ns,
        end_ns,
    });
    id
}

/// Reserve an id for a span whose children are recorded before it ends.
pub fn open() -> (u64, u64) {
    let id = if enabled() {
        NEXT.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    };
    (id, now_ns())
}

/// Close a span opened with [`open`].
pub fn close(name: &'static str, (id, start_ns): (u64, u64), parent: u64) {
    if id == 0 {
        return;
    }
    let end_ns = now_ns();
    spans().lock().expect("span log poisoned").push(Span {
        id,
        parent,
        req: 0,
        key: 0,
        name,
        start_ns,
        end_ns,
    });
}

/// Time `f` as a span named `name`.
pub fn span<R>(name: &'static str, parent: u64, key: u64, f: impl FnOnce() -> R) -> R {
    let t = now_ns();
    let r = f();
    record(name, parent, 0, key, t, now_ns());
    r
}

/// Span names a child process may report.
const CHILD_NAMES: [&str; 3] = ["round", "guidelines.run_sweep", "fft3d.run_fft_kernel"];

/// Take over the spans a child process reported (its JSON array), under
/// `parent` as returned by [`open`]. Child times count from the child's
/// start, which the parent places at the parent span's start.
pub fn adopt(doc: Option<&simcore::json::Json>, parent: (u64, u64)) {
    let (Some(items), true) = (doc.and_then(|d| d.as_arr()), enabled()) else {
        return;
    };
    let base = NEXT.fetch_add(items.len() as u64 + 1, Ordering::Relaxed);
    let num = |j: &simcore::json::Json, k: &str| j.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let mut log = spans().lock().expect("span log poisoned");
    for (i, s) in items.iter().enumerate() {
        let name = s.get("name").and_then(|v| v.as_str()).unwrap_or("");
        let Some(name) = CHILD_NAMES.iter().find(|n| **n == name) else {
            continue;
        };
        let child_parent = num(s, "parent");
        log.push(Span {
            id: base + i as u64,
            parent: if child_parent == 0 {
                parent.0
            } else {
                items
                    .iter()
                    .position(|o| num(o, "id") == child_parent)
                    .map_or(parent.0, |j| base + j as u64)
            },
            req: 0,
            key: num(s, "key"),
            name,
            start_ns: parent.1 + num(s, "start_ns"),
            end_ns: parent.1 + num(s, "end_ns"),
        });
    }
}

/// Every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    spans().lock().expect("span log poisoned").clone()
}

/// Durations (ns) of every span named `name`, with their key ids.
pub fn durations(all: &[Span], name: &str) -> Vec<(u64, u64)> {
    all.iter()
        .filter(|s| s.name == name)
        .map(|s| (s.key, s.dur_ns()))
        .collect()
}

/// Render spans as a JSON array.
pub fn to_json(all: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in all.iter().enumerate() {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"req\":{},\"key\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{}\n",
            s.id,
            s.parent,
            s.req,
            s.key,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < all.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            key: 0,
            name: "x",
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn trace_json_is_an_array() {
        let doc = simcore::json::parse(&to_json(&[sp(1, 0, 0, 5), sp(2, 1, 1, 2)])).unwrap();
        assert_eq!(doc.as_arr().map(|a| a.len()), Some(2));
    }
}
