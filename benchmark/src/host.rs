//! The host fingerprint and process counters read from outside the
//! toolkit's code.
//!
//! Results from different hosts or builds are not comparable, so every
//! run prints a fingerprint and the `compare` mode refuses to compare
//! results whose fingerprints differ.

use std::path::Path;

/// What a result depends on besides the code under test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub cpus: usize,
    pub rustc: String,
    pub kernel: String,
    /// Filesystem type holding the benchmark's stores.
    pub store_fs: String,
    pub fault_injection: bool,
}

impl Fingerprint {
    /// Fingerprint of this process, with stores kept under `work`.
    pub fn of_host(work: &Path) -> Fingerprint {
        Fingerprint {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("BENCH_RUSTC_VERSION").to_string(),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            store_fs: filesystem_of(work),
            fault_injection: cfg!(feature = "fault-injection"),
        }
    }

    /// One-line JSON form.
    pub fn to_json(&self) -> String {
        use lkmm_service::json::Json;
        Json::obj(vec![
            ("cpus", Json::num(self.cpus as u64)),
            ("rustc", Json::str(&self.rustc)),
            ("kernel", Json::str(&self.kernel)),
            ("store_fs", Json::str(&self.store_fs)),
            ("fault_injection", Json::Bool(self.fault_injection)),
        ])
        .to_string()
    }
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`), or `unknown`.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) this process has used, in seconds.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted in clock ticks of
    // 1/100 s; the command name (field 2) may hold spaces, so split
    // after its closing parenthesis.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_host_has_a_complete_fingerprint() {
        let fp = Fingerprint::of_host(Path::new("."));
        assert!(fp.cpus >= 1);
        assert!(fp.rustc.starts_with("rustc "), "{}", fp.rustc);
        assert_ne!(fp.store_fs, "unknown");
        assert!(!fp.fault_injection);
        assert!(fp.to_json().contains("\"fault_injection\":false"));
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 50 {}
        assert!(cpu_seconds() > 0.0);
    }
}
