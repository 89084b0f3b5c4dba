//! Host facts: process memory and run provenance.

use std::path::Path;

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB, read from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(Path::new("/proc").join(pid).join("status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Where and from what a run came: attached to every result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, or `unknown` when
    /// the working directory is not the top of a git checkout.
    pub git_rev: String,
    /// Workload seed.
    pub seed: u64,
}

impl Provenance {
    /// Collects the provenance of the current process.
    pub fn collect(seed: u64) -> Self {
        // mppm-lint: allow(taint-nondet-to-result): host core count is provenance printed beside the metrics; it selects no input and reaches no checked result
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        // Look in the working directory only: a run must not read above
        // the tree it was started in.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(Path::to_path_buf))
            .unwrap_or_default();
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc,
            cpu,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            git_rev,
            seed,
        }
    }

    /// The provenance as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":{},\"rustc\":{},\"git_rev\":{},\"seed\":{}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.rustc),
            json_str(&self.git_rev),
            self.seed
        )
    }
}

/// A JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("string serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable() {
        let mb = peak_rss_mb("self").expect("/proc/self/status has VmHWM");
        assert!(mb > 0.0);
    }

    #[test]
    fn provenance_serializes_every_field() {
        let p = Provenance::collect(7);
        let json = p.to_json();
        for key in ["nproc", "cpu", "rustc", "git_rev", "seed"] {
            assert!(json.contains(&format!("\"{key}\":")), "{json}");
        }
        assert!(p.nproc >= 1);
    }
}
