//! Peak resident set size of the benchmark process over its timed phase.
//!
//! Linux keeps the high-water mark in `VmHWM` of `/proc/self/status`;
//! writing `5` to `/proc/self/clear_refs` resets it to the current RSS, so
//! the peak read after the timed phase excludes input generation. Where
//! `/proc` is missing or read-only the reset fails and the reported peak
//! covers the whole process lifetime; where the status file is missing
//! there is no peak at all.

use std::path::Path;

pub const CLEAR_REFS: &str = "/proc/self/clear_refs";
pub const STATUS: &str = "/proc/self/status";

/// Reset the kernel's peak-RSS mark. Returns whether the reset took
/// effect; `false` means later peaks include everything before this call.
pub fn reset_peak(clear_refs: &Path) -> bool {
    std::fs::write(clear_refs, b"5").is_ok()
}

/// Peak RSS in KiB from a `/proc/<pid>/status` document.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

/// Peak RSS in MiB, or `None` when the status file is unavailable.
pub fn peak_mib(status: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(status).ok()?;
    parse_vm_hwm_kib(&text).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51234));
    }

    #[test]
    fn missing_or_malformed_vm_hwm_is_none() {
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t 4000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn reset_fails_softly_without_proc() {
        let missing = Path::new("/nonexistent-proc-dir/self/clear_refs");
        assert!(!reset_peak(missing));
        assert_eq!(
            peak_mib(Path::new("/nonexistent-proc-dir/self/status")),
            None
        );
    }

    #[test]
    fn reset_then_read_on_this_process() {
        // On Linux the pair works end to end; elsewhere both degrade.
        let proc_present = Path::new(STATUS).exists();
        let reset = reset_peak(Path::new(CLEAR_REFS));
        let peak = peak_mib(Path::new(STATUS));
        assert_eq!(peak.is_some(), proc_present);
        if !proc_present {
            assert!(!reset);
        }
        if let Some(mib) = peak {
            assert!(mib > 0.0);
        }
    }
}
