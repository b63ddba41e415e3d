//! In-memory span recording and the gate self-test's slowdown injector.
//!
//! Spans are kept per thread (each simulated device lives on exactly one
//! thread at a time), so recording never takes a lock. A span is
//! `(name, start, end, parent)`; a layer's self time is its spans'
//! duration minus the time covered by their child spans.
//!
//! Recording is off unless [`ThreadConfig::record`] is set for the
//! thread, so the untraced runs pay one thread-local read per
//! benchmark-level span and nothing at all inside the program: they use
//! the bare production types, never the seam wrappers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the thread's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Seam or phase name, e.g. `device.put`.
    pub name: &'static str,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A busy-spin added at one seam, sized as a share of the timed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Injection {
    /// The seam whose calls are slowed, e.g. `device.put`.
    pub seam: &'static str,
    /// Throughput the spin removes from a workload that calls the seam
    /// throughout its timed window (0.15 ⇒ rates drop to 85%).
    pub share: f64,
}

impl Injection {
    /// Spin time added per unit of un-spun window time.
    fn spin_per_unit(&self) -> f64 {
        self.share / (1.0 - self.share)
    }
}

/// Per-thread tracing settings; copied into every worker thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadConfig {
    /// Record spans on this thread.
    pub record: bool,
    /// Slow one seam down (gate self-test).
    pub inject: Option<Injection>,
}

#[derive(Debug)]
struct Log {
    config: ThreadConfig,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
    /// End of the last injected spin (or the window start); `None`
    /// outside timed windows, where nothing is injected.
    inject_mark: Option<Instant>,
}

thread_local! {
    static LOG: RefCell<Log> = RefCell::new(Log {
        config: ThreadConfig::default(),
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        counts: BTreeMap::new(),
        inject_mark: None,
    });
}

/// Applies `config` to the calling thread and clears its span log.
pub fn configure(config: ThreadConfig) {
    LOG.with(|log| {
        let mut log = log.borrow_mut();
        log.config = config;
        log.epoch = Instant::now();
        log.spans.clear();
        log.open.clear();
        log.counts.clear();
        log.inject_mark = None;
    });
}

/// The calling thread's settings.
pub fn config() -> ThreadConfig {
    LOG.with(|log| log.borrow().config)
}

/// Takes the calling thread's recorded spans, leaving the log empty.
pub fn take_spans() -> Vec<Span> {
    LOG.with(|log| std::mem::take(&mut log.borrow_mut().spans))
}

/// Adds `n` to the counter `name` when the thread records.
pub fn count(name: &'static str, n: u64) {
    LOG.with(|log| {
        let mut log = log.borrow_mut();
        if log.config.record {
            *log.counts.entry(name).or_default() += n;
        }
    });
}

/// Takes the calling thread's counters, leaving them empty.
pub fn take_counts() -> BTreeMap<&'static str, u64> {
    LOG.with(|log| std::mem::take(&mut log.borrow_mut().counts))
}

/// Runs `f` inside a span named `name` when the thread records;
/// otherwise just runs `f`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = LOG.with(|log| {
        let mut log = log.borrow_mut();
        if !log.config.record {
            return None;
        }
        let index = log.spans.len();
        let start_ns = nanos_since(log.epoch);
        let parent = log.open.last().copied();
        log.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        log.open.push(index);
        Some(index)
    });
    let value = f();
    if let Some(index) = opened {
        LOG.with(|log| {
            let mut log = log.borrow_mut();
            let end_ns = nanos_since(log.epoch);
            if let Some(span) = log.spans.get_mut(index) {
                span.end_ns = end_ns;
            }
            log.open.pop();
        });
    }
    value
}

/// Wraps one seam call: records its span and, when this seam is the
/// injection target inside a timed window, busy-spins before the span
/// closes (so a trace charges the spin to the seam).
pub fn seam<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span(name, || {
        let value = f();
        inject_after(name);
        value
    })
}

/// Marks the start of a timed window: injected spins are measured from
/// here and only happen until [`end_window`].
pub fn start_window() {
    LOG.with(|log| log.borrow_mut().inject_mark = Some(Instant::now()));
}

/// Marks the end of a timed window.
pub fn end_window() {
    LOG.with(|log| log.borrow_mut().inject_mark = None);
}

/// After a call to `seam`, spins for the configured share of the window
/// time elapsed since the previous spin, so the total spin is a fixed
/// share of the window whatever the call rate.
fn inject_after(seam: &'static str) {
    let spin = LOG.with(|log| {
        let log = log.borrow();
        let injection = log.config.inject.filter(|inj| inj.seam == seam)?;
        let mark = log.inject_mark?;
        Some(mark.elapsed().mul_f64(injection.spin_per_unit()))
    });
    if let Some(spin) = spin {
        busy_spin(spin);
        LOG.with(|log| {
            let mut log = log.borrow_mut();
            if log.inject_mark.is_some() {
                log.inject_mark = Some(Instant::now());
            }
        });
    }
}

fn busy_spin(duration: Duration) {
    let until = Instant::now() + duration;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-name totals over a set of spans from one thread's log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Name → summed self time (wall minus child spans), seconds.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Name → every span's wall duration, microseconds (percentiles).
    pub durations_us: BTreeMap<&'static str, Vec<f64>>,
}

impl Attribution {
    /// Folds one thread's spans in. `spans` must be one log's spans
    /// (parents index into the same slice).
    pub fn absorb(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(slot) = span.parent.and_then(|parent| child_ns.get_mut(parent)) {
                *slot += span.duration_ns();
            }
        }
        for (span, children) in spans.iter().zip(&child_ns) {
            let duration = span.duration_ns();
            *self.self_s.entry(span.name).or_default() +=
                duration.saturating_sub(*children) as f64 * 1e-9;
            self.durations_us
                .entry(span.name)
                .or_default()
                .push(duration as f64 * 1e-3);
        }
    }

    /// Calls recorded under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.durations_us.get(name).map_or(0, |d| d.len() as u64)
    }

    /// Self time under `name`, seconds (0 when never recorded).
    pub fn self_time(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// The `q`-quantile of `name`'s span durations, microseconds.
    pub fn quantile_us(&self, name: &str, q: f64) -> f64 {
        self.durations_us
            .get(name)
            .map_or(0.0, |d| crate::stats::quantile(d, q))
    }

    /// Summed self time of every span, seconds.
    pub fn accounted(&self) -> f64 {
        self.self_s.values().sum()
    }
}

/// Writes spans as tab-separated `name start_ns end_ns parent` lines,
/// one block per thread log, each preceded by a `# log <n>` line.
pub fn write_spans(path: &std::path::Path, logs: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (index, spans) in logs.iter().enumerate() {
        writeln!(out, "# log {index}")?;
        for span in spans {
            let parent = span.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}\t{}\t{}\t{}",
                span.name, span.start_ns, span.end_ns, parent
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "outer",
                start_ns: 0,
                end_ns: 1_000,
                parent: None,
            },
            Span {
                name: "inner",
                start_ns: 100,
                end_ns: 400,
                parent: Some(0),
            },
            Span {
                name: "inner",
                start_ns: 500,
                end_ns: 600,
                parent: Some(0),
            },
        ];
        let mut attribution = Attribution::default();
        attribution.absorb(&spans);
        assert_eq!(attribution.calls("inner"), 2);
        assert!((attribution.self_time("outer") - 600e-9).abs() < 1e-15);
        assert!((attribution.self_time("inner") - 400e-9).abs() < 1e-15);
        assert!((attribution.accounted() - 1_000e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_nest_only_when_recording() {
        configure(ThreadConfig::default());
        span("quiet", || ());
        assert!(take_spans().is_empty());
        configure(ThreadConfig {
            record: true,
            inject: None,
        });
        span("outer", || span("inner", || ()));
        let spans = take_spans();
        configure(ThreadConfig::default());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn injection_spins_only_inside_a_window_at_its_seam() {
        configure(ThreadConfig {
            record: false,
            inject: Some(Injection {
                seam: "device.put",
                share: 0.5,
            }),
        });
        let started = Instant::now();
        seam("device.put", || ());
        assert!(
            started.elapsed() < Duration::from_millis(5),
            "spun outside a window"
        );
        start_window();
        busy_spin(Duration::from_millis(2));
        seam("device.get", || ());
        let before = Instant::now();
        seam("device.put", || ());
        let spun = before.elapsed();
        end_window();
        configure(ThreadConfig::default());
        // share 0.5 doubles the window: ≥2 ms of work earns ≥2 ms of spin.
        assert!(spun >= Duration::from_millis(2), "spun only {spun:?}");
    }
}
