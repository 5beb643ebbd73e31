//! Process-level readings from `/proc` — peak RSS, CPU time (including
//! warden workers) and run-queue wait — and CPU pinning of the calling
//! thread.

use std::fs;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which is
/// 100 on every mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|r| r.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time consumed so far by this process, its reaped children and its
/// live children (warden workers), ms.
pub fn cpu_ms() -> f64 {
    let mut ticks = stat_fields("/proc/self/stat").map_or(0.0, |f| ticks(&f, 4));
    for pid in children() {
        if let Some(f) = stat_fields(&format!("/proc/{pid}/stat")) {
            ticks += self::ticks(&f, 2);
        }
    }
    ticks / TICKS_PER_S * 1e3
}

/// Live child pids of every thread of this process.
fn children() -> Vec<String> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|e| e.ok())
        .filter_map(|e| fs::read_to_string(e.path().join("children")).ok())
        .flat_map(|list| {
            list.split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The fields of a `/proc/<pid>/stat` after the parenthesised command
/// name: state, ppid, …; utime (field 14) is index 11.
fn stat_fields(path: &str) -> Option<Vec<String>> {
    let stat = fs::read_to_string(path).ok()?;
    let rest = stat.rsplit_once(')')?.1;
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// utime + stime (+ cutime + cstime when `n` is 4), in ticks.
fn ticks(fields: &[String], n: usize) -> f64 {
    fields
        .iter()
        .skip(11)
        .take(n)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum()
}

/// Nanoseconds spent waiting on a run queue, summed over this process's
/// live threads (`/proc/self/task/*/schedstat`, second field).
pub fn runq_wait_ns() -> u64 {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.filter_map(|e| e.ok())
        .filter_map(|e| fs::read_to_string(e.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// Run-queue wait of the calling thread only, ns.
pub fn thread_runq_wait_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// A CPU/run-queue reading taken at the start of a phase.
pub struct Usage {
    cpu_ms: f64,
    runq_ns: u64,
}

impl Usage {
    pub fn now() -> Usage {
        Usage {
            cpu_ms: cpu_ms(),
            runq_ns: runq_wait_ns(),
        }
    }

    /// `(cpu ms, run-queue wait ms)` per op since this reading, adding
    /// `extra_runq_ns` measured by threads that have since exited.
    pub fn per_op(&self, ops: u64, extra_runq_ns: u64) -> (f64, f64) {
        let ops = ops.max(1) as f64;
        let runq = (runq_wait_ns() + extra_runq_ns).saturating_sub(self.runq_ns);
        ((cpu_ms() - self.cpu_ms) / ops, runq as f64 / 1e6 / ops)
    }
}

/// CPU sets as the kernel passes them: room for 1024 CPUs.
type CpuMask = [u64; 16];

extern "C" {
    // glibc's wrappers; `pid` 0 is the calling thread.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Best effort: when the kernel refuses, the thread keeps its current CPU
/// set and the slice still measures correctly, just unpinned.
fn set_affinity(mask: &CpuMask) {
    // SAFETY: `mask` is an initialised buffer of exactly
    // `size_of::<CpuMask>()` bytes that outlives the call, which only
    // reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
}

/// The CPUs the calling thread may run on, for pinning it to each in turn.
pub struct Affinity {
    original: Option<CpuMask>,
    cpus: Vec<usize>,
}

impl Affinity {
    /// The calling thread's current CPU set. When it cannot be read the
    /// result pins nothing and counts one slot.
    pub fn current() -> Affinity {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a writable buffer of exactly
        // `size_of::<CpuMask>()` bytes that outlives the call.
        let ok =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) == 0 };
        let cpus = (0..mask.len() * 64)
            .filter(|c| ok && mask[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        Affinity {
            original: ok.then_some(mask),
            cpus,
        }
    }

    /// Pinning slots per rotation (at least one).
    pub fn count(&self) -> usize {
        self.cpus.len().max(1)
    }

    /// Pin the calling thread to the CPU of `slot`.
    pub fn pin(&self, slot: usize) {
        if let Some(&cpu) = self.cpus.get(slot) {
            let mut mask: CpuMask = [0; 16];
            mask[cpu / 64] |= 1 << (cpu % 64);
            set_affinity(&mask);
        }
    }

    /// Give the calling thread back its original CPU set.
    pub fn restore(&self) {
        if let Some(mask) = &self.original {
            set_affinity(mask);
        }
    }
}
