//! Result rows, correctness checks, and the output format.
//!
//! Every metric is printed as one line with its unit and sample count. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the
//! metrics are [`E2E`], with `--trace 1` they are [`PER_LAYER`].

/// A metric reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    Num(f64),
    /// A percentile whose rank falls among failed operations.
    Unbounded,
    /// Fewer samples than the percentile rule asks for.
    TooFew,
}

impl From<crate::stats::Pct> for Val {
    fn from(p: crate::stats::Pct) -> Val {
        match p {
            crate::stats::Pct::Value(v) => Val::Num(v),
            crate::stats::Pct::Unbounded => Val::Unbounded,
            crate::stats::Pct::TooFew => Val::TooFew,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub val: Val,
    pub unit: &'static str,
    pub n: usize,
}

pub fn row(name: &'static str, val: impl Into<Val>, unit: &'static str, n: usize) -> Row {
    Row {
        name,
        val: val.into(),
        unit,
        n,
    }
}

impl From<f64> for Val {
    fn from(v: f64) -> Val {
        Val::Num(v)
    }
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// End-to-end rows, including those printed but not in [`E2E`].
    pub e2e: Vec<Row>,
    pub layers: Vec<Row>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form context lines (rounds, priming outcome, ...).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// `(name, unit)` of the end-to-end metrics every workload reports in its
/// `--trace 0` JSON line: the ones that exist on every workload, never
/// read 0, and repeat across runs. The other end-to-end rows are printed.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("goodput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("success_frac", "frac"),
];

/// `(name, unit)` of the per-layer metrics every workload reports in its
/// `--trace 1` JSON line.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("adcld.server.transport_us", "us"),
    ("adcld.protocol.ns_per_request", "ns"),
    ("adcld.service.hit_us", "us"),
    ("adcld.service.sweep_us_p50", "us"),
    ("adcld.service.sweep_us_p99", "us"),
    ("adcld.service.queue_wait_us_p50", "us"),
    ("adcld.service.queue_wait_us_p99", "us"),
    ("adcld.service.keys_per_admission", "keys"),
    ("adcld.service.coalesced_frac", "frac"),
    ("adcl.history.get_ns", "ns"),
    ("adcl.history.save_ms", "ms"),
    ("adcl.history.checkpoints", "count"),
    ("adcl.history.load_ms", "ms"),
    ("adcl.decision.sim_events", "events"),
    ("adcl.decision.eliminated_frac", "frac"),
    ("adcl.decision.regret_max_pct", "%"),
    ("adcl.simmemo.hit_ratio", "frac"),
    ("adcl.guidelines.probes", "count"),
    ("adcl.guidelines.probe_replays", "count"),
    ("nbc.cache.hit_ratio", "frac"),
    ("nbc.build_us_per_key", "us"),
    ("mpisim.sim_events", "count"),
    ("mpisim.host_ns_per_event", "ns"),
    ("mpisim.polls_per_event", "polls"),
    ("mpisim.rdv_stalls", "count"),
    ("mpisim.unexpected_msgs", "count"),
    ("mpisim.payload_allocs_per_kevent", "allocs"),
    ("netmodel.ns_per_transfer", "ns"),
    ("simcore.queue.ns_per_push_pop", "ns"),
    ("simcore.par.delivered_parallelism", "x"),
    ("simcore.par.speedup_jobs2", "x"),
    ("host.sys_cpu_frac", "frac"),
    ("fft3d.kernel_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// A metric name: starts with a letter or digit, at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn show(v: Val) -> String {
    match v {
        Val::Num(x) => format!("{x}"),
        Val::Unbounded => "unbounded".into(),
        Val::TooFew => "too-few-samples".into(),
    }
}

/// The human-readable report: one line per metric and per check.
pub fn human(workload: &str, r: &RunResult) -> String {
    let mut out = String::new();
    for n in &r.notes {
        out.push_str(&format!("# {n}\n"));
    }
    for (kind, rows) in [("e2e", &r.e2e), ("layer", &r.layers)] {
        for m in rows {
            out.push_str(&format!(
                "{kind:5} {workload:11} {:34} {:>22} {:6} n={}\n",
                m.name,
                show(m.val),
                m.unit,
                m.n
            ));
        }
    }
    for c in &r.checks {
        out.push_str(&format!(
            "check {workload:11} {:34} {:>22} {}\n",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        ));
    }
    out
}

/// The final JSON line over the metrics `wanted`. Errors name a wanted
/// metric the run did not produce as a finite number.
pub fn json_line(r: &RunResult, wanted: &[(&str, &str)], trace: bool) -> Result<String, String> {
    let rows = if trace { &r.layers } else { &r.e2e };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        if !valid_name(name) || !valid_unit(unit) {
            return Err(format!("metric {name} ({unit}) breaks the naming rules"));
        }
        let m = rows
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != unit {
            return Err(format!("metric {name} has unit {} not {unit}", m.unit));
        }
        let Val::Num(v) = m.val else {
            return Err(format!("metric {name} reads {}", show(m.val)));
        };
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_use_the_allowed_charset() {
        for (name, unit) in E2E.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        let mut all: Vec<&str> = E2E.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), E2E.len() + PER_LAYER.len(), "names repeat");
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
        assert!(!valid_unit("µs") && valid_unit("1/s") && valid_unit("%"));
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = RunResult {
            e2e: E2E.iter().map(|&(n, u)| row(n, 1.25, u, 3)).collect(),
            attempted: 10,
            failed: 2,
            ..RunResult::default()
        };
        r.check("x", true, "");
        let line = json_line(&r, &E2E, false).unwrap();
        let doc = simcore::json::parse(&line).unwrap();
        let simcore::json::Json::Obj(m) = &doc else {
            panic!()
        };
        let keys: Vec<&str> = m.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let v = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(v.get("value").and_then(|v| v.as_f64()), Some(1.25));
        r.e2e[2].val = Val::Unbounded;
        assert!(json_line(&r, &E2E, false).is_err());
    }
}
