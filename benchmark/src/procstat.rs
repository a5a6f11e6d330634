//! Process CPU time and peak resident memory from `/proc` — the two
//! numbers that do not move with the box's wall-clock noise.
//!
//! Everything here degrades to `None` off Linux (no `/proc`): the report
//! then carries `null` for the CPU and memory metrics instead of a guess.

/// Kernel `USER_HZ`: the unit of the `utime`/`stime` fields. It is 100 on
/// every Linux ABI (the value is part of the `/proc` contract, independent
/// of the kernel's internal tick rate).
const USER_HZ: f64 = 100.0;

/// Parses user + system CPU seconds out of a `/proc/<pid>/stat` line.
///
/// The second field (`comm`) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After `comm`: state(3) ppid pgrp session tty_nr tpgid flags minflt
    // cminflt majflt cmajflt utime(14) stime(15).
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Parses a `kB` field (`VmHWM`, `VmRSS`…) of `/proc/<pid>/status` to MiB.
pub fn parse_status_mib(status: &str, field: &str) -> Option<f64> {
    let line =
        status.lines().find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let mut parts = line[field.len() + 1..].split_ascii_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then(|| value as f64 / 1024.0)
}

/// User + system CPU seconds this process (all threads, live and joined)
/// has consumed so far.
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    parse_status_mib(&std::fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (bench (mark) x) S 1 4242 4242 0 -1 4194560 1203 0 3 0 \
                        1234 66 0 0 20 0 3 0 8891 123456789 4321 18446744073709551615";

    #[test]
    fn stat_cpu_is_utime_plus_stime_even_with_hostile_comm() {
        // utime = 1234 ticks, stime = 66 ticks → 13.00 s.
        assert_eq!(parse_stat_cpu_seconds(STAT), Some(13.0));
    }

    #[test]
    fn truncated_or_foreign_stat_is_none() {
        assert_eq!(parse_stat_cpu_seconds(""), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_seconds("no parenthesis at all"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12"), None);
    }

    #[test]
    fn status_field_parses_kib_to_mib() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_mib(status, "VmHWM"), Some(200.0));
        assert_eq!(parse_status_mib(status, "VmRSS"), Some(1.0));
        // A prefix of another field must not match (`VmH` vs `VmHWM`).
        assert_eq!(parse_status_mib(status, "VmH"), None);
        assert_eq!(parse_status_mib(status, "VmSwap"), None);
        assert_eq!(parse_status_mib("VmHWM:\t12 pages\n", "VmHWM"), None);
    }

    #[test]
    fn live_readings_are_sane_or_absent() {
        // On Linux both exist and are positive; elsewhere both are None.
        match (cpu_seconds(), peak_rss_mib()) {
            (Some(cpu), Some(rss)) => {
                assert!(cpu >= 0.0);
                assert!(rss > 0.0);
            }
            (None, None) => {}
            other => panic!("inconsistent /proc availability: {other:?}"),
        }
    }
}
