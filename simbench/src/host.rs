//! Facts about the host and build that every result is printed with, so
//! that numbers from different hosts or builds are never compared.

use std::path::Path;

pub struct HostFacts {
    pub nproc: usize,
    pub git_sha: String,
    pub profile: &'static str,
    pub features: &'static str,
}

impl HostFacts {
    pub fn collect() -> HostFacts {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            git_sha: git_sha(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            features: if cfg!(feature = "trace") {
                "trace"
            } else {
                "none"
            },
        }
    }
}

/// The commit checked out in the repository whose `.git` is `git_dir`,
/// read from the files directly (no `git` process, and no search of
/// parent directories). `None` outside a git checkout.
fn git_sha(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// Peak resident set size of this process so far, in MB (10⁶ bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 * 1024.0 / 1e6)
}
