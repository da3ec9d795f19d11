//! Std-only host sampling: process CPU time, peak RSS, hardware threads,
//! and the `NBC_*` environment.

use std::time::Instant;

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which is 100
/// on every architecture the kernel exports to user space.
const TICKS_PER_SEC: f64 = 100.0;

/// Process CPU seconds since start, split user/sys.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

/// Read `utime` and `stime` (fields 14 and 15) from `/proc/self/stat`.
pub fn cpu() -> Cpu {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default()
}

fn parse_stat(stat: &str) -> Option<Cpu> {
    // The command name (field 2) may hold spaces; fields resume after the
    // last ')'. Field 3 is then index 0, so utime/stime are 11 and 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    Some(Cpu {
        user_s: f.get(11)?.parse::<f64>().ok()? / TICKS_PER_SEC,
        sys_s: f.get(12)?.parse::<f64>().ok()? / TICKS_PER_SEC,
    })
}

/// Peak resident set size in MiB (`VmHWM` in `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_hwm_kb(&s))
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Hardware threads the process may use.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Remove every `NBC_*` variable so the program runs its default
/// configuration; returns the names removed (normally none). Must run
/// before any other thread starts and before the program reads them.
pub fn unset_nbc_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NBC_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Wall and CPU time of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
}

impl Usage {
    /// `(user + sys) / wall`: cores the host actually delivered.
    pub fn parallelism(&self) -> f64 {
        (self.user_s + self.sys_s) / self.wall_s.max(1e-9)
    }

    /// Share of CPU time spent in the kernel.
    pub fn sys_frac(&self) -> f64 {
        self.sys_s / (self.user_s + self.sys_s).max(1e-9)
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Measures a phase from construction to [`Meter::stop`].
pub struct Meter {
    t0: Instant,
    c0: Cpu,
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            t0: Instant::now(),
            c0: cpu(),
        }
    }

    pub fn stop(&self) -> Usage {
        let c = cpu();
        Usage {
            wall_s: self.t0.elapsed().as_secs_f64(),
            user_s: c.user_s - self.c0.user_s,
            sys_s: c.sys_s - self.c0.sys_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_spaces_in_the_name() {
        let line = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 3 0";
        let c = parse_stat(line).unwrap();
        assert_eq!(c.user_s, 2.5);
        assert_eq!(c.sys_s, 0.75);
    }

    #[test]
    fn reads_hwm() {
        let status = "Name:\tx\nVmPeak:\t 9 kB\nVmHWM:\t    2048 kB\nVmRSS:\t1 kB\n";
        assert_eq!(parse_hwm_kb(status), Some(2048.0));
        assert!(peak_rss_mb() > 0.0);
    }
}
