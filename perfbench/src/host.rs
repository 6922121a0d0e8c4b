//! The host block recorded with every result.

use std::process::Command;

/// Flags the daemon is launched with for a cache of `cache` entries,
/// pinned so its configuration does not follow the host's core count.
#[must_use]
pub fn daemon_flags(cache: usize) -> Vec<String> {
    format!("--workers 1 --cache {cache} --queue 64")
        .split(' ')
        .map(str::to_owned)
        .collect()
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fixes the C allocator's mmap and trim thresholds in this process, so
/// that whether a large allocation faults its pages in afresh no longer
/// depends on what was allocated and freed before it.
///
/// By default glibc moves both thresholds as memory is freed, and
/// trims the top of the heap when enough of it is free. Whether the
/// reference request's buffers sat at the top of the heap then decided,
/// once per run, whether each of its samples took about 270 page faults
/// or none, which moved its median by 9% between runs. With an mmap
/// threshold at glibc's largest dynamic value (32 MiB) and trimming off,
/// a freed buffer is reused without faults. The daemon is a process of
/// its own and keeps the defaults.
pub fn fix_malloc_thresholds() -> Result<(), String> {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets allocator parameters; nothing is
    // allocated yet that depends on them.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
    };
    if ok {
        Ok(())
    } else {
        Err("cannot fix the allocator's thresholds".to_owned())
    }
}

/// The CPUs a run could use and the one it was pinned to.
#[derive(Clone, Copy, Debug)]
pub struct Pinned {
    /// CPUs the process could run on before it was pinned.
    pub nproc: usize,
    /// The CPU it runs on now.
    pub cpu: usize,
}

/// Pins the calling thread, and so every thread and process it starts
/// afterwards, to the highest-numbered CPU it may run on. Call it before
/// starting anything.
///
/// On one CPU, the client, the daemon and the reference request take
/// turns instead of waking each other across CPUs, whose cost swings
/// with the load on a shared host, and the reference request runs on
/// the CPU the workload runs on.
pub fn pin_to_one_cpu() -> Result<Pinned, String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: the kernel writes at most `size` bytes to `mask`.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        let e = std::io::Error::last_os_error();
        return Err(format!("cannot read the CPU affinity: {e}"));
    }
    let allowed = |c: usize| mask[c / 64] >> (c % 64) & 1 == 1;
    let nproc = (0..size * 8).filter(|&c| allowed(c)).count();
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| allowed(c))
        .ok_or("the CPU affinity mask is empty")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes from `one`.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        let e = std::io::Error::last_os_error();
        return Err(format!("cannot pin to CPU {cpu}: {e}"));
    }
    Ok(Pinned { nproc, cpu })
}

/// Peak resident set (`VmHWM`) in MiB of process `pid`, which may be
/// `self`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Size of the first CPU's cache at `level` (unified or data).
fn cache_size(level: &str) -> String {
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        if read(&format!("{dir}/level")).as_deref() == Some(level)
            && read(&format!("{dir}/type")).as_deref() != Some("Instruction")
        {
            return read(&format!("{dir}/size")).unwrap_or_default();
        }
    }
    "unknown".to_owned()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit under test as `git` reports it without looking above the
/// working directory; `unknown` outside a git repository.
fn git_commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd
        .parent()
        .map(|p| p.display().to_string())
        .unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host block as one JSON object.
#[must_use]
pub fn block(daemon_flags: &[String], pinned: Pinned) -> String {
    let Pinned { nproc, cpu } = pinned;
    let q = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    format!(
        "{{\"nproc\":{nproc},\"pinned_cpu\":{cpu},\"cpu_model\":{},\"l2\":{},\"l3\":{},\"rustc\":{},\"git_commit\":{},\"daemon_flags\":{}}}",
        q(&cpu_model()),
        q(&cache_size("2")),
        q(&cache_size("3")),
        q(&command_line("rustc", &["--version"])),
        q(&git_commit()),
        q(&daemon_flags.join(" ")),
    )
}
