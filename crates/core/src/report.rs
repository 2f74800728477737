//! Contention reports produced by LASERDETECT.

use laser_isa::program::{Pc, SourceLoc};

/// The type of contention detected on a source line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentionKind {
    /// Distinct bytes of one cache line are contended by different threads.
    FalseSharing,
    /// The same bytes are contended (at least one writer).
    TrueSharing,
    /// Not enough overlapping evidence to decide (e.g. when data-address
    /// accuracy is too low, as for `linear_regression` in the paper).
    Unknown,
}

impl std::fmt::Display for ContentionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContentionKind::FalseSharing => write!(f, "false sharing"),
            ContentionKind::TrueSharing => write!(f, "true sharing"),
            ContentionKind::Unknown => write!(f, "unknown"),
        }
    }
}

/// Contention attributed to one source line.
#[derive(Debug, Clone, PartialEq)]
pub struct LineReport {
    /// The source line.
    pub location: SourceLoc,
    /// HITM records attributed to this line.
    pub hitm_records: u64,
    /// HITM records per second of (dilated) benchmark time.
    pub rate_per_sec: f64,
    /// Sharing events classified as true sharing by the cache-line model.
    pub true_sharing_events: u64,
    /// Sharing events classified as false sharing by the cache-line model.
    pub false_sharing_events: u64,
    /// Overall classification of this line's contention.
    pub kind: ContentionKind,
    /// The PCs that contributed records to this line.
    pub pcs: Vec<Pc>,
}

/// The detector's report for a whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionReport {
    /// Workload name.
    pub workload: String,
    /// Lines whose HITM rate exceeded the reporting threshold, ordered by
    /// descending record count.
    pub lines: Vec<LineReport>,
    /// Total records received from the driver.
    pub total_records: u64,
    /// Records dropped because their PC was outside application/library code.
    pub dropped_non_code: u64,
    /// Records dropped because their data address fell in a thread stack.
    pub dropped_stack: u64,
    /// Benchmark time (seconds, after time dilation) used for rate
    /// computation.
    pub elapsed_seconds: f64,
    /// Whether LASERREPAIR was invoked during the run.
    pub repair_invoked: bool,
    /// Fraction of the run's ground-truth HITM events that crossed a socket
    /// boundary (0.0 on a single-socket topology). Filled in by the session
    /// from machine statistics — the detector itself only sees sampled
    /// records.
    pub remote_hitm_share: f64,
}

impl ContentionReport {
    /// The reported source locations (the lines a programmer would triage).
    pub fn reported_locations(&self) -> Vec<&SourceLoc> {
        self.lines.iter().map(|l| &l.location).collect()
    }

    /// The report entry for a given file/line, if present.
    pub fn line(&self, file: &str, line: u32) -> Option<&LineReport> {
        self.lines
            .iter()
            .find(|l| l.location.file == file && l.location.line == line)
    }

    /// True if any reported line is classified as false sharing.
    pub fn has_false_sharing(&self) -> bool {
        self.lines
            .iter()
            .any(|l| l.kind == ContentionKind::FalseSharing)
    }

    /// True if any reported line is classified as true sharing.
    pub fn has_true_sharing(&self) -> bool {
        self.lines
            .iter()
            .any(|l| l.kind == ContentionKind::TrueSharing)
    }

    /// Render the report as the text a programmer would read.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "LASER contention report for '{}' ({} records, {:.3}s)",
            self.workload, self.total_records, self.elapsed_seconds
        );
        let _ = writeln!(
            out,
            "  dropped: {} non-code PCs, {} stack addresses; repair invoked: {}",
            self.dropped_non_code, self.dropped_stack, self.repair_invoked
        );
        if self.remote_hitm_share > 0.0 {
            let _ = writeln!(
                out,
                "  cross-socket HITM share: {:.1}%",
                self.remote_hitm_share * 100.0
            );
        }
        for l in &self.lines {
            let _ = writeln!(
                out,
                "  {:<28} {:>10} records  {:>12.0} HITM/s  TS={:<8} FS={:<8} => {}",
                l.location.label(),
                l.hitm_records,
                l.rate_per_sec,
                l.true_sharing_events,
                l.false_sharing_events,
                l.kind
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ContentionReport {
        ContentionReport {
            workload: "demo".into(),
            lines: vec![
                LineReport {
                    location: SourceLoc::new("demo.c", 10),
                    hitm_records: 500,
                    rate_per_sec: 25_000.0,
                    true_sharing_events: 3,
                    false_sharing_events: 212,
                    kind: ContentionKind::FalseSharing,
                    pcs: vec![0x40_0010],
                },
                LineReport {
                    location: SourceLoc::new("demo.c", 42),
                    hitm_records: 120,
                    rate_per_sec: 6_000.0,
                    true_sharing_events: 80,
                    false_sharing_events: 1,
                    kind: ContentionKind::TrueSharing,
                    pcs: vec![0x40_0100, 0x40_0104],
                },
            ],
            total_records: 700,
            dropped_non_code: 5,
            dropped_stack: 2,
            elapsed_seconds: 1.5,
            repair_invoked: true,
            remote_hitm_share: 0.0,
        }
    }

    #[test]
    fn lookup_and_predicates() {
        let r = sample_report();
        assert_eq!(r.reported_locations().len(), 2);
        assert!(r.line("demo.c", 10).is_some());
        assert!(r.line("demo.c", 11).is_none());
        assert!(r.has_false_sharing());
        assert!(r.has_true_sharing());
    }

    #[test]
    fn render_mentions_each_line_and_kind() {
        let r = sample_report();
        let text = r.render();
        assert!(text.contains("demo.c:10"));
        assert!(text.contains("demo.c:42"));
        assert!(text.contains("false sharing"));
        assert!(text.contains("true sharing"));
        // Single-socket runs do not mention sockets at all...
        assert!(!text.contains("cross-socket"));
        // ...multi-socket runs surface the share.
        let r = ContentionReport {
            remote_hitm_share: 0.625,
            ..sample_report()
        };
        assert!(r.render().contains("cross-socket HITM share: 62.5%"));
    }

    #[test]
    fn kind_display() {
        assert_eq!(ContentionKind::Unknown.to_string(), "unknown");
    }
}
