//! Host-speed probe. The reference host's speed for the simulator's kind
//! of work drifts by up to 2× over minutes, so every timed block is also
//! expressed at a fixed reference speed: a fixed kernel that shares no
//! code with the simulator is timed between blocks, and a block's host
//! time is scaled by the reference probe time over the mean of the probe
//! readings on either side of it. See `README.md`, "Host-speed rescaling".

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// The argument that makes the benchmark binary run the probe kernel once
/// and print its time instead of running a workload.
pub const PROBE_FLAG: &str = "--host-probe";

/// The probe kernel's time on the reference host when it is quiet: a block
/// rescaled by [`HostSpeed`] reads in seconds at that speed.
pub const REFERENCE_PROBE_S: f64 = 0.085;

/// Sorts per key count: L2-sized, twice L2 and LLC-sized inputs, since the
/// workloads range from cache-resident to a 110 MB working set.
const SORTS: [(usize, usize); 3] = [(1 << 16, 16), (1 << 18, 4), (1 << 20, 1)];

/// The probe kernel: sorts of pseudo-random `u64` keys (xorshift, fixed
/// seed), in place in one buffer. Returns the seconds spent sorting; the
/// key generation is not timed.
pub fn probe_kernel() -> f64 {
    let mut keys = vec![0u64; SORTS.iter().map(|&(n, _)| n).max().unwrap_or(0)];
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    let mut sorting_s = 0.0;
    for (n, times) in SORTS {
        for _ in 0..times {
            for key in &mut keys[..n] {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *key = state;
            }
            let t0 = Instant::now();
            keys[..n].sort_unstable();
            sorting_s += t0.elapsed().as_secs_f64();
            black_box(keys[n / 2]);
        }
    }
    sorting_s
}

/// Run [`probe_kernel`] once in a child process of `exe`, the benchmark
/// binary, so the probe's memory never counts in this process's peak RSS.
pub fn probe_in_child(exe: &std::path::Path) -> Result<f64, String> {
    let out = Command::new(exe)
        .arg(PROBE_FLAG)
        .output()
        .map_err(|e| format!("host-speed probe did not start: {e}"))?;
    if !out.status.success() {
        return Err(format!("host-speed probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .ok()
        .filter(|s| *s > 0.0 && s.is_finite())
        .ok_or_else(|| "host-speed probe printed no time".to_string())
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin this process to the CPU it is running on, and with it every probe
/// child it starts, since a child inherits its parent's CPU mask. The
/// virtual CPUs of a shared host are slowed by their neighbours
/// independently, so a probe run on another CPU than the workload would
/// not measure the workload's speed. Returns the CPU's number.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond the affinity mask"))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, 128-byte `cpu_set_t` for the call's length.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!("sched_setaffinity to CPU {cpu} failed"))
    }
}

/// Probe readings taken between timed blocks.
#[derive(Debug)]
pub struct HostSpeed {
    exe: std::path::PathBuf,
    last: f64,
    readings: Vec<f64>,
}

impl HostSpeed {
    /// Take the first reading, after one untimed warm-up run of the probe.
    ///
    /// # Panics
    /// When the probe cannot run: no metric would then be meaningful.
    pub fn start() -> Self {
        let exe = std::env::current_exe().expect("the benchmark binary's path is known");
        let reading = || probe_in_child(&exe).unwrap_or_else(|e| panic!("{e}"));
        reading();
        let last = reading();
        HostSpeed {
            last,
            readings: vec![last],
            exe,
        }
    }

    /// Take a reading and return the factor that turns host seconds
    /// measured since the previous reading into reference seconds.
    pub fn rescale(&mut self) -> f64 {
        let now = probe_in_child(&self.exe).unwrap_or_else(|e| panic!("{e}"));
        let factor = rescale_factor(self.last, now);
        self.last = now;
        self.readings.push(now);
        factor
    }

    /// Every reading so far, in seconds.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

/// The factor for a block between probe readings `before` and `after`:
/// the reference probe time over their mean.
pub fn rescale_factor(before: f64, after: f64) -> f64 {
    REFERENCE_PROBE_S / ((before + after) / 2.0)
}
