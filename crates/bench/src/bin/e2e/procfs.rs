//! Process-level counters of a daemon child, read from `/proc`: the
//! benchmark observes `rlscoped` from outside, so these and the wire
//! are all it sees of the process.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields. Linux
/// fixes `USER_HZ` at 100 on every supported architecture, and reading
/// it properly needs `sysconf`, which needs libc.
const TICKS_PER_SEC: u64 = 100;

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// nanoseconds. The command name (field 2) may itself contain spaces
/// and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ns(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state).
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / TICKS_PER_SEC))
}

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in kB.
pub fn parse_status_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// CPU time consumed so far by process `pid` (all threads, user +
/// system), or `None` once it is gone.
pub fn cpu_ns(pid: u32) -> Option<u64> {
    parse_stat_cpu_ns(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set of process `pid` in kB.
pub fn hwm_kb(pid: u32) -> Option<u64> {
    parse_status_hwm_kb(&fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let plain = "4242 (rlscoped) S 1 4242 4242 0 -1 4194304 906 0 0 0 37 5 0 0 20 0 9 0 \
                     123456 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0";
        assert_eq!(parse_stat_cpu_ns(plain), Some(420_000_000));
        let hostile = plain.replace("(rlscoped)", "(a b) c) d)");
        assert_eq!(parse_stat_cpu_ns(&hostile), Some(420_000_000));
        assert_eq!(parse_stat_cpu_ns("4242 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ns("no parens"), None);
    }

    #[test]
    fn status_hwm_is_found_among_other_lines() {
        let status =
            "Name:\trlscoped\nVmPeak:\t  300000 kB\nVmHWM:\t   45212 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_kb(status), Some(45212));
        assert_eq!(parse_status_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_ns(pid).is_some());
        assert!(hwm_kb(pid).is_some_and(|kb| kb > 0));
    }
}
