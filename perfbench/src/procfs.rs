//! `/proc` sampling: peak resident set (VmHWM) and CPU time
//! (utime + stime) of this process and of the spawned replicas.

use std::io;

/// Which process to read: this one, or a child by pid.
#[derive(Debug, Clone, Copy)]
pub enum Proc {
    /// The benchmark process.
    This,
    /// Another process.
    Pid(u32),
}

impl Proc {
    fn path(self, file: &str) -> String {
        match self {
            Proc::This => format!("/proc/self/{file}"),
            Proc::Pid(p) => format!("/proc/{p}/{file}"),
        }
    }
}

/// Peak resident set size in MB (VmHWM of `/proc/<pid>/status`).
pub fn peak_rss_mb(p: Proc) -> io::Result<f64> {
    let status = std::fs::read_to_string(p.path("status"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))?;
    Ok(kb as f64 / 1024.0)
}

/// Adds this process's peak RSS to `r` as `rss_peak_mb`, or fails the
/// report when `/proc` cannot be read.
pub fn report_own_rss(r: &mut crate::Report) {
    match peak_rss_mb(Proc::This) {
        Ok(mb) => r.metric("rss_peak_mb", mb, "MB", 1),
        Err(e) => r.fail(format!("cannot read VmHWM: {e}")),
    }
}

/// User plus system CPU time consumed so far, in µs.
pub fn cpu_us(p: Proc) -> io::Result<f64> {
    let stat = std::fs::read_to_string(p.path("stat"))?;
    // The command name (field 2) may contain spaces; the fields after it
    // start at field 3 (state), so utime (14) and stime (15) are at
    // offsets 11 and 12.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))
    };
    let ticks = tick(11)? + tick(12)?;
    Ok(ticks as f64 * 1e6 / clock_ticks_per_s() as f64)
}

/// `sysconf(_SC_CLK_TCK)`, read from the `AT_CLKTCK` entry of the
/// auxiliary vector; 100 (the Linux default) when it cannot be read.
fn clock_ticks_per_s() -> u64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else {
        return 100;
    };
    auxv.chunks_exact(16)
        .map(|c| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&c[..8]), word(&c[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100, |(_, v)| v.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb(Proc::This).unwrap() > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_us(Proc::This).unwrap() > 0.0);
        assert!(clock_ticks_per_s() >= 1);
    }
}
