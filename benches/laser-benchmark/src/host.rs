//! Facts about the host a result was measured on.

use std::process::Command;
use std::time::Instant;

use serde::json::Value;

/// Hardware threads available to this process. Every result row carries it:
/// a number measured with fewer CPUs than the threads it ran is a
/// time-sharing artefact, not a parallel measurement.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's stdout, or "unknown" when it cannot run.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host facts recorded with a full run's results.
pub fn facts() -> Value {
    Value::object()
        .set("available_parallelism", parallelism())
        .set("cpu_model", cpu_model())
        .set("rustc", first_line("rustc", &["--version"]))
        .set("commit", first_line("git", &["rev-parse", "HEAD"]))
}

/// CPU seconds this thread has run, from `/proc/thread-self/schedstat`
/// (nanosecond resolution; time the hypervisor took from the guest is not in
/// it).
fn thread_cpu_s() -> Result<f64, String> {
    let path = "/proc/thread-self/schedstat";
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let ns: u64 = text
        .split_whitespace()
        .next()
        .and_then(|field| field.parse().ok())
        .ok_or_else(|| format!("{path}: no run time in '{}'", text.trim_end()))?;
    Ok(ns as f64 / 1e9)
}

/// CPU seconds every thread of this process has run, ended threads included:
/// `utime + stime` of `/proc/self/stat`. The kernel prints them in ticks of
/// 1/100 s (`USER_HZ`, which Linux fixes at 100 on every architecture it has
/// not kept at another value for an older ABI); they are scaled from the
/// same nanosecond run time `schedstat` prints, not sampled.
fn process_cpu_s() -> Result<f64, String> {
    const USER_HZ: f64 = 100.0;
    let path = "/proc/self/stat";
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    // The second field is the command in parentheses and may hold spaces;
    // utime and stime are the 14th and 15th fields, the 12th and 13th after it.
    let ticks = |nth: usize| -> Option<u64> {
        let (_, after_command) = text.rsplit_once(')')?;
        after_command.split_whitespace().nth(nth)?.parse().ok()
    };
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / USER_HZ),
        _ => Err(format!("{path}: no utime and stime")),
    }
}

/// CPU seconds of one thread running the calibration kernel on the
/// reference host (2-CPU, 2.1 GHz Xeon) when nothing else runs. Host-time
/// metrics are reported at this host speed.
pub const NOMINAL_CALIBRATION_S: f64 = 0.025;

/// A fixed piece of integer work that touches no library code: a xorshift
/// stream updating a 256 KiB table, with a data-dependent branch — the
/// simulator's instruction mix in miniature. Returns the CPU seconds it took.
fn calibration_kernel() -> f64 {
    const STEPS: u64 = 4_000_000;
    let unreadable = "the CPU clock was readable when the run began";
    let start = thread_cpu_s().expect(unreadable);
    let mut table = vec![0u64; 32_768];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let idx = x as usize & 32_767;
        table[idx] = table[idx].wrapping_add(x ^ i);
        if table[idx] & 1 == 0 {
            acc = acc.wrapping_add(table[(idx * 7) & 32_767]);
        }
    }
    std::hint::black_box(acc);
    thread_cpu_s().expect(unreadable) - start
}

/// A reading of the host's speed right now: CPU seconds the calibration
/// kernel takes, the mean over `threads` threads running it at once (as many
/// as the workload keeps busy, so two busy CPUs slowing each other show in
/// the reading as they show in the workload).
fn calibrate(threads: usize) -> f64 {
    if threads <= 1 {
        return calibration_kernel();
    }
    let total: f64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| scope.spawn(calibration_kernel))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("the calibration kernel does not panic"))
            .sum()
    });
    total / threads as f64
}

/// One timed interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    /// Seconds on the wall clock.
    pub wall_s: f64,
    /// CPU seconds of every thread of the process.
    pub cpu_s: f64,
    /// `cpu_s` at reference host speed.
    pub reference_s: f64,
}

/// Times work in slices, in CPU seconds, each between two host-speed
/// readings.
///
/// Two things make wall time in this sandbox useless as a measure of the
/// program. The hypervisor takes the CPU away for long stretches (measured:
/// a loop needing 0.27 CPU seconds took 1.39 s on the wall, `steal` in
/// `/proc/stat` accounting for the difference), so intervals are measured in
/// CPU seconds of the process, which leave stolen time out. And the CPU's
/// own speed changes by 15–30 % from one second to the next and by a factor
/// of three over an hour (the same fixed loop at 72, 98 and 270 ms of CPU
/// time), which no number of passes inside a 10-second run averages away.
/// That change is multiplicative and hits the calibration kernel as it hits
/// the simulator, so a pass is timed in slices of about 0.1 s — one cell, or
/// a batch of warm reruns — with a 25 ms reading between slices, and each
/// slice is divided by the mean of the readings on either side of it. The
/// sum is the pass's CPU time at reference host speed.
///
/// A single-threaded workload's slices are read from the thread's
/// nanosecond clock. A workload that runs other threads needs the process's
/// clock, which counts ended threads but ticks in hundredths of a second: a
/// pass of six slices is then good to about ±10 ms.
pub struct Clock {
    /// Threads a reading runs on.
    threads: usize,
    /// Whether the work runs threads of its own.
    process_wide: bool,
    last_reading: f64,
    total: Timed,
    readings: Vec<f64>,
}

impl Clock {
    /// A clock for work that keeps `threads` threads busy; its readings run
    /// on as many, but no more than the host has CPUs. Fails where `/proc`
    /// does not give CPU times.
    pub fn new(threads: usize) -> Result<Clock, String> {
        thread_cpu_s()?;
        process_cpu_s()?;
        let reading_threads = threads.min(parallelism());
        Ok(Clock {
            threads: reading_threads,
            process_wide: threads > 1,
            last_reading: calibrate(reading_threads),
            total: Timed::default(),
            readings: Vec::new(),
        })
    }

    fn cpu_s(&self) -> f64 {
        if self.process_wide {
            process_cpu_s()
        } else {
            thread_cpu_s()
        }
        .expect("the CPU clock was readable when the run began")
    }

    /// Time one slice of work and add it to the running total.
    pub fn slice<R>(&mut self, work: impl FnOnce() -> R) -> R {
        let (wall, cpu) = (Instant::now(), self.cpu_s());
        let out = work();
        let cpu_s = self.cpu_s() - cpu;
        let wall_s = wall.elapsed().as_secs_f64();
        let reading = calibrate(self.threads);
        let speed = NOMINAL_CALIBRATION_S * 2.0 / (self.last_reading + reading);
        self.total.wall_s += wall_s;
        self.total.cpu_s += cpu_s;
        self.total.reference_s += cpu_s * speed;
        self.last_reading = reading;
        self.readings.push(reading);
        out
    }

    /// The total of the slices since the last call, which starts a new total.
    pub fn take(&mut self) -> Timed {
        std::mem::take(&mut self.total)
    }

    /// The host's speed over every reading so far relative to the reference
    /// host (1 = as fast; below 1 = slower).
    pub fn host_speed(&self) -> f64 {
        NOMINAL_CALIBRATION_S / crate::stats::median(&self.readings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_agree() {
        let (thread, process) = (thread_cpu_s().unwrap(), process_cpu_s().unwrap());
        let kernel = calibration_kernel();
        let thread = thread_cpu_s().unwrap() - thread;
        let process = process_cpu_s().unwrap() - process;
        assert!(kernel > 0.0 && thread >= kernel);
        // Other tests run on other threads of this process at the same time,
        // so the process clock can only be ahead of this thread's, to within
        // its tick.
        assert!(process >= thread - 0.011, "{process} < {thread}");
    }

    #[test]
    fn a_clock_sums_its_slices_and_starts_over() {
        let mut clock = Clock::new(1).unwrap();
        assert_eq!(clock.slice(|| 7), 7);
        clock.slice(calibration_kernel);
        let total = clock.take();
        assert!(total.cpu_s > 0.0 && total.wall_s >= total.cpu_s * 0.5);
        assert!(total.reference_s > 0.0 && clock.host_speed() > 0.0);
        assert_eq!(clock.take(), Timed::default());
    }
}
