//! Process-memory sampling for the perf suite and the scale smoke.
//!
//! Linux exposes the high-water mark of the resident set (`VmHWM`) and the
//! current resident set (`VmRSS`) in `/proc/self/status`; both are read
//! with one small file read and no allocation beyond the line buffer. On
//! platforms without procfs the samplers return `None` and callers skip
//! the memory gate instead of failing.
//!
//! Compare the two fields only within one [`rss_sample`]: the kernel
//! computes them together, so `VmHWM >= VmRSS` holds inside one read,
//! while two separate reads can straddle an allocation (by another thread
//! of the process, say) and see the current size above the earlier peak.

/// One snapshot of `/proc/self/status`: the resident-set high-water mark
/// and the current resident set, taken from the same read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssSample {
    /// Peak resident set size in bytes (`VmHWM`).
    pub peak_bytes: u64,
    /// Current resident set size in bytes (`VmRSS`).
    pub current_bytes: u64,
}

/// Reads `VmHWM` and `VmRSS` from one read of `/proc/self/status`, or
/// `None` when procfs is unavailable. Within a sample
/// `peak_bytes >= current_bytes`.
pub fn rss_sample() -> Option<RssSample> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(RssSample {
        peak_bytes: kb_field(&status, "VmHWM:")?,
        current_bytes: kb_field(&status, "VmRSS:")?,
    })
}

/// Peak resident set size of this process in bytes (`VmHWM`), or `None`
/// when procfs is unavailable.
///
/// The kernel only ever raises this value, so sampling it *after* a run
/// captures the worst moment of the run — exactly what a memory gate
/// wants.
pub fn peak_rss_bytes() -> Option<u64> {
    rss_sample().map(|s| s.peak_bytes)
}

/// Current resident set size of this process in bytes (`VmRSS`), or
/// `None` when procfs is unavailable.
pub fn current_rss_bytes() -> Option<u64> {
    rss_sample().map(|s| s.current_bytes)
}

/// Parses a `kB` field out of the text of `/proc/self/status`, in bytes.
fn kb_field(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_read_stays_consistent_while_a_sibling_allocates() {
        if rss_sample().is_none() {
            return;
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        let samples: Vec<Option<RssSample>> = std::thread::scope(|scope| {
            // Grow and drop resident buffers page by page, so the resident
            // set keeps moving between (and during) the samples below.
            scope.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let mut buf = vec![0u8; 4 << 20];
                    for i in (0..buf.len()).step_by(4096) {
                        buf[i] = 1;
                    }
                    std::hint::black_box(&buf);
                }
            });
            let samples = (0..500).map(|_| rss_sample()).collect();
            // Stop the sibling before any assertion: a panic inside the
            // scope would otherwise wait on it forever.
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            samples
        });
        for s in samples {
            let s = s.expect("procfs was readable a moment ago");
            assert!(s.current_bytes > 0);
            assert!(
                s.peak_bytes >= s.current_bytes,
                "high-water {} below current {} in one read",
                s.peak_bytes,
                s.current_bytes
            );
        }
    }

    #[test]
    fn field_parser_reads_kb_lines() {
        let status = "Name:\tx\nVmHWM:\t   2048 kB\nVmRSS:\t    100 kB\n";
        assert_eq!(kb_field(status, "VmHWM:"), Some(2048 * 1024));
        assert_eq!(kb_field(status, "VmRSS:"), Some(100 * 1024));
        assert_eq!(kb_field(status, "VmSwap:"), None);
    }

    #[test]
    fn peak_rises_with_allocation() {
        let Some(before) = peak_rss_bytes() else {
            return;
        };
        // Touch every page so the buffer actually becomes resident.
        let mut big = vec![0u8; 64 << 20];
        for i in (0..big.len()).step_by(4096) {
            big[i] = 1;
        }
        let after = peak_rss_bytes().expect("procfs was readable a moment ago");
        std::hint::black_box(&big);
        assert!(
            after >= before + (32 << 20),
            "peak {after} did not rise past {before} after a 64 MiB allocation"
        );
    }
}
