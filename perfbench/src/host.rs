//! The run's private temp root, process memory readings, and the host
//! record every result carries.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A private directory for everything the engine writes during one run:
/// database files, spill files, and the `rexa-*` scratch directories the
/// buffer manager creates under the process temp directory. Dropping it
/// deletes it, so the root is gone on success, on error, and on panic.
pub struct TempRoot {
    path: PathBuf,
}

impl TempRoot {
    /// Create `<base>/tmp-<pid>` and point the process temp directory at
    /// it. Call this before any buffer manager exists and before any thread
    /// is spawned: `BufferManagerConfig::with_limit` creates its scratch
    /// directory under `std::env::temp_dir()` even when the spill directory
    /// is overridden afterwards.
    pub fn create(base: &Path) -> std::io::Result<TempRoot> {
        let path = std::path::absolute(base.join(format!("tmp-{}", std::process::id())))?;
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        std::env::set_var("TMPDIR", &path);
        debug_assert_eq!(std::env::temp_dir(), path);
        Ok(TempRoot { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of all regular files under the root.
    pub fn bytes_used(&self) -> u64 {
        dir_bytes(&self.path)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Reset the process's peak resident set to its current size (Linux
/// `clear_refs` mode 5), so a later [`peak_rss_mib`] covers only what
/// follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Return freed heap pages to the operating system, so the memory the
/// correctness oracle used during set-up does not count in the measured
/// phase's resident-set peak.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and is safe to
        // call at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn fs_type(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (_dev, mnt, ty) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, ty)| ty)
}

/// Seed, core count, CPU model, temp filesystem, compiler, and commit.
pub fn record(seed: u64, temp_root: &Path) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("seed", Json::Int(seed as i64)),
        ("nproc", Json::Int(nproc as i64)),
        ("cpu_model", Json::Str(cpu)),
        ("temp_fs", Json::Str(fs_type(temp_root))),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        // Only the working directory's own repository: a checkout that is
        // not one must not report the commit of a repository around it.
        (
            "git_commit",
            Json::Str(command_line(
                "git",
                &["--git-dir=.git", "rev-parse", "HEAD"],
            )),
        ),
    ])
}
