//! What the benchmark reads about its own process from `/proc`: per-thread
//! CPU time, memory high-water mark, load average and the host fingerprint.
//!
//! The serving stack has no timing instrumentation of its own (ROADMAP item
//! 1), so per-party CPU is measured from outside: the mailroom names its
//! threads (`mailroom-worker-N`, `bank-producer-N`) and the kernel accounts
//! on-CPU nanoseconds per thread in `schedstat`.

use std::fs;
use std::process::Command;

use pretzel_bench::JsonValue;

/// On-CPU nanoseconds of the calling thread so far.
pub fn thread_self_cpu_ns() -> u64 {
    schedstat_cpu_ns("/proc/thread-self/schedstat")
}

fn schedstat_cpu_ns(path: &str) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// On-CPU nanoseconds of the provider's threads, by role.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProviderCpu {
    /// Sum over threads named `mailroom-worker-*`.
    pub workers_ns: u64,
    /// Sum over threads named `bank-producer-*`.
    pub producers_ns: u64,
}

impl ProviderCpu {
    /// Total provider CPU: bank production is charged, not hidden.
    pub fn total_ns(&self) -> u64 {
        self.workers_ns + self.producers_ns
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &ProviderCpu) -> ProviderCpu {
        ProviderCpu {
            workers_ns: self.workers_ns.saturating_sub(earlier.workers_ns),
            producers_ns: self.producers_ns.saturating_sub(earlier.producers_ns),
        }
    }
}

/// Reads the CPU counters of every live provider thread of this process.
/// The kernel truncates thread names to 15 bytes, which is exactly
/// `mailroom-worker` / `bank-producer-N`, so names are matched by prefix.
pub fn provider_cpu() -> ProviderCpu {
    let mut cpu = ProviderCpu::default();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return cpu;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
            continue; // the thread exited between readdir and read
        };
        let ns = schedstat_cpu_ns(&dir.join("schedstat").to_string_lossy());
        if comm.starts_with("mailroom-worker") {
            cpu.workers_ns += ns;
        } else if comm.starts_with("bank-producer") {
            cpu.producers_ns += ns;
        }
    }
    cpu
}

fn status_field_mib(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_field_mib("VmHWM:")
}

/// Current resident set size of this process in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    status_field_mib("VmRSS:")
}

/// The 1-minute load average.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn read_trimmed(path: &str) -> String {
    fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Where a results file was measured. A run that starts on a host already
/// busier than half its cores is labelled `noisy_host` rather than silently
/// recorded.
pub fn host_fingerprint(loadavg_start: f64) -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    JsonValue::obj([
        ("nproc", JsonValue::Int(nproc as u64)),
        ("cpu_model", JsonValue::Str(cpu_model)),
        (
            "kernel",
            JsonValue::Str(read_trimmed("/proc/sys/kernel/osrelease")),
        ),
        (
            "governor",
            JsonValue::Str(read_trimmed(
                "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
            )),
        ),
        ("rustc", JsonValue::Str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            JsonValue::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("loadavg_1m_start", JsonValue::Num(loadavg_start)),
        ("loadavg_1m_end", JsonValue::Num(loadavg_1m())),
        (
            "noisy_host",
            JsonValue::Bool(loadavg_start > 0.5 * nproc as f64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_thread_cpu_advances_with_work() {
        let before = thread_self_cpu_ns();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        // schedstat updates at context switches and ticks; 20M multiplies is
        // several ticks of work.
        assert!(thread_self_cpu_ns() > before);
    }

    #[test]
    fn provider_threads_are_found_by_name() {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let worker = std::thread::Builder::new()
            .name("mailroom-worker-7".into())
            .spawn(move || {
                let mut x = 1u64;
                while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                    x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
                }
            })
            .unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while provider_cpu().workers_ns == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let seen = provider_cpu();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        worker.join().unwrap();
        assert!(seen.workers_ns > 0);
        assert!(peak_rss_mib() > 0.0 && rss_mib() > 0.0);
    }
}
