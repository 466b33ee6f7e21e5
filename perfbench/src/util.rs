//! Shared measurement helpers: order statistics, cold set-up samples,
//! process memory and CPU readings from `/proc`, CPU pinning, the output
//! directory, and the cross-run record of exact counters.

use std::path::PathBuf;
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even lengths); 0 for an
/// empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Interquartile mean of `xs`: the mean of what is left after the
/// lowest and the highest quarter are dropped; 0 when empty. Unlike the
/// median it does not jump between the modes of a two-mode sample, and
/// unlike the mean it ignores a sample that a deschedule stretched.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

/// Mean of `xs`; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `a / b`, or `empty` when `b` is zero.
pub fn ratio(a: f64, b: f64, empty: f64) -> f64 {
    if b == 0.0 {
        empty
    } else {
        a / b
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A binary of the build directory this executable runs from: beside
/// it, or one level up for the test harness, which runs from `deps/`.
pub fn sibling_binary(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("current executable path");
    let beside = exe.with_file_name(name);
    match exe.parent().and_then(|d| d.parent()) {
        Some(up) if !beside.exists() => up.join(name),
        _ => beside,
    }
}

/// Cold set-up samples spread evenly over a run: each sample is a
/// fresh process of this executable run as `--setup-probe WORKLOAD`,
/// which times one set-up on a cold heap, as a user's first run pays
/// it, in reference seconds. Spreading them over the run, rather than taking them in one
/// burst, lets their median see the same host conditions as the rest
/// of the run.
pub struct SetupSamples {
    workload: &'static str,
    reps: usize,
    every_s: f64,
    times: Vec<f64>,
}

impl SetupSamples {
    /// `reps` samples spread over `seconds`.
    pub fn new(workload: &'static str, seconds: f64, reps: usize) -> Self {
        SetupSamples {
            workload,
            reps,
            every_s: seconds / reps as f64,
            times: Vec::with_capacity(reps),
        }
    }

    /// Takes the samples that are due `elapsed_s` into the run.
    pub fn tick(&mut self, elapsed_s: f64) {
        while self.times.len() < self.reps && elapsed_s >= self.times.len() as f64 * self.every_s {
            self.sample();
        }
    }

    fn sample(&mut self) {
        let out = std::process::Command::new(sibling_binary("perfbench"))
            .args(["--setup-probe", self.workload])
            .stderr(std::process::Stdio::inherit())
            .output();
        match out.map(|o| String::from_utf8_lossy(&o.stdout).trim().parse::<f64>()) {
            Ok(Ok(t)) => self.times.push(t),
            _ => {
                eprintln!("perfbench: set-up probe failed");
                self.times.push(f64::NAN);
            }
        }
    }

    /// Takes any samples still missing, then returns them all (NaN for
    /// a probe that failed).
    pub fn samples(mut self) -> Vec<f64> {
        self.tick(f64::INFINITY);
        self.times
    }

    /// The samples' interquartile mean (NaN if a probe failed, which
    /// makes the run incorrect).
    pub fn value(self) -> f64 {
        let times = self.samples();
        if times.iter().any(|t| t.is_nan()) {
            return f64::NAN;
        }
        interquartile_mean(&times)
    }
}

/// Wall time of one host-speed reference run (`host_ref`) on a host of
/// reference speed. Every end-to-end timing is reported in reference
/// seconds: its wall time times `REF_NOMINAL_S` over the reference
/// run's wall time beside it (see `slowdown`).
pub const REF_NOMINAL_S: f64 = 0.010;

/// Steps of one reference run per thread.
const REF_STEPS: usize = 200_000;

/// The reference run's data: a 4 MiB successor table forming a single
/// cycle (Sattolo's shuffle), built once per process from a fixed seed.
fn ref_cycle() -> &'static [u32] {
    static CYCLE: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    CYCLE.get_or_init(|| {
        let n = 1usize << 20;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        next
    })
}

/// Builds the reference run's data, so that no timed region pays for it.
pub fn host_ref_ready() {
    ref_cycle();
}

/// One host-speed reference run: a fixed dependent walk over
/// `ref_cycle` with hashing and branches, code of the benchmark's own
/// that no change to the product touches, on `threads` threads at once
/// (so every core is as busy as during the work it brackets; with more
/// than one, thread `k` runs on the `k`-th allowed CPU). Returns
/// its wall time in seconds. The CPU speed of a shared host drifts by
/// ±20 % from minute to minute; the reference slows with it.
pub fn host_ref(threads: usize) -> f64 {
    let cycle = ref_cycle();
    let t = Instant::now();
    std::thread::scope(|sc| {
        for k in 0..threads.max(1) {
            sc.spawn(move || {
                let cpus = allowed_cpus();
                if threads > 1 && cpus.len() > 1 {
                    pin_to_cpu(cpus[k % cpus.len()]);
                }
                let mut i = k * 1000;
                let mut h = 0u64;
                for _ in 0..REF_STEPS {
                    i = cycle[i] as usize;
                    h = (h ^ i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left(17);
                    if h & 3 == 0 {
                        i = (i + 1) & (cycle.len() - 1);
                    }
                }
                std::hint::black_box(h);
            });
        }
    });
    secs(t)
}

/// How much slower than the reference host the host ran around a timed
/// piece of work, from the reference runs just before and just after
/// it. Divide a wall time by it (multiply a rate) to get reference time.
pub fn slowdown(ref_before_s: f64, ref_after_s: f64) -> f64 {
    (ref_before_s + ref_after_s) / (2.0 * REF_NOMINAL_S)
}

/// A `/proc/<pid>/status` field in kB (`VmHWM`, `VmRSS`, …).
pub fn proc_status_kb(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn self_peak_rss_mb() -> f64 {
    proc_status_kb("self", "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// CPU time (ns) the live threads of process `pid` have run, from
/// `/proc/<pid>/task/*/schedstat` (nanosecond resolution).
pub fn proc_cpu_ns(pid: u32) -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let text = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        total += text.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}

/// Shrinks the calling thread's timer slack to 1 ns so short sleeps in
/// the open-loop generator wake close to their due time (the Linux
/// default slack is 50 µs).
pub fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK only changes this thread's slack value.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process could run on when it started, in order.
pub fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; 16];
        // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes;
        // pid 0 names the calling thread.
        let ok =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } >= 0;
        (0..mask.len() * 64)
            .filter(|&c| ok && mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

/// Restricts the calling thread (and the threads and processes it
/// starts afterwards) to CPU `cpu`. Returns whether the kernel agreed.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the mask outlives the call and its size is passed along;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Directory for the benchmark's own outputs (span dumps, counter
/// records, the scenario handed to `ftserve`): `perfbench-out/` beside
/// the executable, i.e. inside the build directory.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current executable path");
    let dir = exe
        .parent()
        .expect("executable has a parent directory")
        .join("perfbench-out");
    std::fs::create_dir_all(&dir).expect("create perfbench-out directory");
    dir
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Compares this run's exact counters for `key` with the record an
/// earlier run of the same executable left, then stores them. Returns
/// `false` when an earlier record exists and differs.
pub fn exact_counters_repeat(key: &str, counters: &[(&str, u64)]) -> bool {
    static BUILD: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    let build = *BUILD.get_or_init(|| {
        let exe = std::env::current_exe().expect("current executable path");
        std::fs::read(exe).map(|b| fnv1a(&b)).unwrap_or(0)
    });
    let dir = out_dir().join("counters");
    std::fs::create_dir_all(&dir).expect("create counter record directory");
    let path = dir.join(format!("{build:016x}-{key}.txt"));
    let text: String = counters.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev != text => {
            eprintln!(
                "perfbench: exact counters for {key} differ from an earlier run of this build:\n--- earlier\n{prev}--- now\n{text}"
            );
            false
        }
        Ok(_) => true,
        Err(_) => {
            let _ = std::fs::write(&path, text);
            true
        }
    }
}
