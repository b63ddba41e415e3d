//! The four workloads, each in three modes: untraced (the end-to-end
//! metrics, bare production types), traced (per-layer metrics from the
//! seam wrappers, after an untraced reference window) and injected (the
//! gate self-test: wrappers with a busy-spin at one seam).

use crate::cache::{self, BackendAccess, CacheRig, CacheWindow};
use crate::layers::{per_layer_metrics, record_seams, FtlCounts};
use crate::phone::{
    fingerprint, ops, partition_counts, run_blocks, run_crash_days, set_up, sys_lost_objects, Bare,
    CrashWindow, Flavor, Phone, SetupTimes, Wrapped, AGE_DAYS, BLOCK_DAYS,
};
use crate::report::Outcome;
use crate::seams::{Seam, SosAccess};
use crate::stats::{median, quantile, ratio, Fingerprint};
use crate::trace::{self, Attribution, Injection, Span, ThreadConfig};
use sos_bench::{run_tasks, task_seed, FtlCacheBackend};
use sos_classify::Classifier;
use sos_core::SosController;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One aged SOS phone in steady state, 1 thread.
    PhoneLife,
    /// E17's FDP flash cache, 1 thread.
    CacheChurn,
    /// E12's daily power cut and remount on an aged phone, 1 thread.
    CrashRemount,
    /// `nproc` `phone_life` replicas on the runner plus a solo one.
    PhoneFleet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PhoneLife,
        Workload::CacheChurn,
        Workload::CrashRemount,
        Workload::PhoneFleet,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PhoneLife => "phone_life",
            Workload::CacheChurn => "cache_churn",
            Workload::CrashRemount => "crash_remount",
            Workload::PhoneFleet => "phone_fleet",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Steady-state phone days per second of `--seconds` (the reference
/// host runs ≈23 per second).
const PHONE_DAYS_PER_SECOND: f64 = 20.0;
/// Crash days per second of `--seconds`.
const CRASH_DAYS_PER_SECOND: f64 = 20.0;
/// Crash days per device. Under a cut every day the small device stays
/// in a steady regime for 50 to 75 days, then its space accounting tips
/// into an auto-delete storm (see the benchmark doc); the window stops
/// well before that.
const CRASH_DAYS_PER_DEVICE: u32 = 40;
/// Fewest crash devices: 240 crash days leave room above the remounts
/// `remount_ms_p95` needs (a day whose cut stays pending has none).
const MIN_CRASH_DEVICES: u32 = 6;
/// `remount_ms_p95` needs at least this many remounts.
const MIN_P95_REMOUNTS: u64 = 200;
/// Cache days per second of `--seconds`.
const CACHE_DAYS_PER_SECOND: f64 = 5.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// How much work a run does. The amount of simulated work is fixed by
/// `--seconds` alone (never by how fast the host is), so every count
/// and the fingerprint repeat exactly for one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Set-up aging of phones, days.
    pub age_days: u32,
    /// Timed phone blocks of [`BLOCK_DAYS`] days.
    pub phone_blocks: u32,
    /// Timed crash days per device.
    pub crash_days: u32,
    /// Aged devices the crash window runs on, one after another.
    pub crash_devices: usize,
    /// Cache warm-up days.
    pub cache_warm_up: u32,
    /// Timed cache days.
    pub cache_days: u32,
    /// Set-ups per run.
    pub setups: usize,
    /// Phone replicas run concurrently in `phone_fleet`.
    pub replicas: usize,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

impl Params {
    /// The benchmark's sizes for a run of about `seconds` on the
    /// reference host.
    pub fn bench(seed: u64, seconds: u32) -> Params {
        let seconds = f64::from(seconds.max(1));
        let scaled = |per_second: f64| (seconds * per_second).round() as u32;
        Params {
            seed,
            age_days: AGE_DAYS,
            phone_blocks: (scaled(PHONE_DAYS_PER_SECOND) / BLOCK_DAYS).max(3),
            crash_days: CRASH_DAYS_PER_DEVICE,
            crash_devices: (scaled(CRASH_DAYS_PER_SECOND) / CRASH_DAYS_PER_DEVICE)
                .max(MIN_CRASH_DEVICES) as usize,
            cache_warm_up: cache::WARM_UP_DAYS,
            cache_days: scaled(CACHE_DAYS_PER_SECOND).max(3),
            setups: SETUPS,
            replicas: std::thread::available_parallelism().map_or(1, |n| n.get()),
            trace_out: None,
        }
    }
}

/// What a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// End-to-end metrics on the bare production types.
    Untraced,
    /// Per-layer metrics from the seam wrappers.
    Traced,
    /// End-to-end metrics with a busy-spin injected at one seam.
    Injected(Injection),
}

/// Runs one workload.
pub fn run(workload: Workload, params: &Params, mode: Mode) -> Outcome {
    let config = match mode {
        Mode::Injected(injection) => ThreadConfig {
            record: false,
            inject: Some(injection),
        },
        Mode::Untraced | Mode::Traced => ThreadConfig::default(),
    };
    trace::configure(config);
    match (workload, mode) {
        (Workload::PhoneLife, Mode::Untraced) => phone_life::<Bare>(params),
        (Workload::PhoneLife, Mode::Injected(_)) => phone_life::<Wrapped>(params),
        (Workload::PhoneLife, Mode::Traced) => phone_life_traced(params),
        (Workload::CacheChurn, Mode::Untraced) => cache_churn(params, |backend| backend),
        (Workload::CacheChurn, Mode::Injected(_)) => cache_churn(params, Seam),
        (Workload::CacheChurn, Mode::Traced) => cache_churn_traced(params),
        (Workload::CrashRemount, Mode::Untraced) => crash_remount::<Bare>(params, config),
        (Workload::CrashRemount, Mode::Injected(_)) => crash_remount::<Wrapped>(params, config),
        (Workload::CrashRemount, Mode::Traced) => crash_remount_traced(params),
        (Workload::PhoneFleet, Mode::Untraced) => phone_fleet::<Bare>(params, config).outcome,
        (Workload::PhoneFleet, Mode::Injected(_)) => phone_fleet::<Wrapped>(params, config).outcome,
        (Workload::PhoneFleet, Mode::Traced) => phone_fleet_traced(params),
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Every untraced
/// run reports all of them, so each must mean something on every
/// workload: each workload simulates days, and sets up before timing.
pub const END_TO_END: [&str; 3] = ["setup_s", "sim_days_per_s", "peak_rss_mib"];

/// Records the [`END_TO_END`] metrics: the median set-up time, the
/// simulated days per host second of the timed window and peak RSS.
fn end_to_end(outcome: &mut Outcome, setup_s: f64, days_per_s: f64) {
    outcome.metrics.push("setup_s", setup_s, "s");
    outcome.metrics.push("sim_days_per_s", days_per_s, "days/s");
    match crate::stats::peak_rss_mib() {
        Some(mib) => outcome.metrics.push("peak_rss_mib", mib, "MiB"),
        None => outcome
            .problems
            .push("peak RSS unavailable (no /proc/self/status VmHWM)".into()),
    }
}

/// Runs `set_up` `params.setups` times, checking that every set-up of
/// the seed reaches the same simulated state. Returns the last set-up's
/// result and every set-up's host seconds.
fn repeated_set_up<T>(
    params: &Params,
    outcome: &mut Outcome,
    mut set_up: impl FnMut() -> (T, f64),
    digest: impl Fn(&T) -> Fingerprint,
) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut first: Option<Fingerprint> = None;
    let mut last = None;
    for _ in 0..params.setups.max(1) {
        drop(last.take());
        let (value, seconds) = set_up();
        let actual = digest(&value);
        let expected = *first.get_or_insert(actual);
        outcome.check(expected == actual, || {
            format!("set-ups diverged: {} vs {}", expected.hex(), actual.hex())
        });
        times.push(seconds);
        last = Some(value);
    }
    (last.expect("at least one set-up runs"), times)
}

fn phone_life<F: Flavor>(params: &Params) -> Outcome {
    let mut outcome = Outcome::default();
    let (mut phone, setups) = repeated_set_up(
        params,
        &mut outcome,
        || {
            let (phone, setup) = set_up::<F>(params.seed, params.age_days);
            (phone, setup.total())
        },
        fingerprint,
    );
    let before = ops(&phone.stats);
    let window = run_blocks(&mut phone, params.phone_blocks);
    outcome.fingerprint = fingerprint(&phone);
    outcome.attempted = ops(&phone.stats) - before;
    outcome.failed = sys_lost_objects(&phone.device);
    end_to_end(&mut outcome, median(&setups), window.days_per_s());
    outcome
}

/// Exact counts of a phone window, summed over replicas in the fleet.
#[derive(Debug, Clone, Default)]
struct PhoneTrace {
    counts: BTreeMap<&'static str, u64>,
    sys: FtlCounts,
    spare: FtlCounts,
    demotions: u64,
    autodeletes: u64,
}

impl PhoneTrace {
    fn merge(&mut self, other: &PhoneTrace) {
        for (name, n) in &other.counts {
            *self.counts.entry(name).or_default() += n;
        }
        self.sys = self.sys.plus(&other.sys);
        self.spare = self.spare.plus(&other.spare);
        self.demotions += other.demotions;
        self.autodeletes += other.autodeletes;
    }

    fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Per-layer values of the seams, partitions, controller outcomes
    /// and set-up phases.
    fn values(&self, attribution: &Attribution, setup: &SetupTimes) -> BTreeMap<String, f64> {
        let mut values = BTreeMap::new();
        record_seams(attribution, &mut values);
        self.sys.record_ftl(".sys", &mut values);
        self.spare.record_ftl(".spare", &mut values);
        self.sys.plus(&self.spare).record_flash(&mut values);
        for name in [
            "device.failed_ops",
            "device.degraded_reads",
            "device.lost_reads",
        ] {
            values.insert(name.into(), self.count(name) as f64);
        }
        values.insert("device.demotions".into(), self.demotions as f64);
        values.insert("device.autodeletes".into(), self.autodeletes as f64);
        values.insert(
            "classify.spare_ratio".into(),
            ratio(
                self.count("classify.spare") as f64,
                attribution.calls("classify.predict") as f64,
            ),
        );
        values.insert("setup.train_s".into(), setup.train_s);
        values.insert("setup.build_s".into(), setup.build_s);
        values.insert("setup.age_s".into(), setup.age_s);
        values
    }
}

/// Runs `body` on `phone` with the thread configured by `config`, and
/// collects the window's spans and exact counts.
fn observe<D: SosAccess, C: Classifier, T>(
    phone: &mut SosController<D, C>,
    config: ThreadConfig,
    body: impl FnOnce(&mut SosController<D, C>) -> T,
) -> (T, PhoneTrace, Vec<Span>) {
    let [sys_before, spare_before] = partition_counts(&phone.device);
    let stats_before = phone.stats.clone();
    let restore = trace::config();
    trace::configure(config);
    let value = body(phone);
    let spans = trace::take_spans();
    let counts = trace::take_counts();
    trace::configure(restore);
    let [sys_after, spare_after] = partition_counts(&phone.device);
    let observed = PhoneTrace {
        counts,
        sys: sys_after.since(&sys_before),
        spare: spare_after.since(&spare_before),
        demotions: phone.stats.demotions - stats_before.demotions,
        autodeletes: phone.stats.autodeletes - stats_before.autodeletes,
    };
    (value, observed, spans)
}

const RECORD: ThreadConfig = ThreadConfig {
    record: true,
    inject: None,
};

fn write_trace(params: &Params, outcome: &mut Outcome, logs: &[Vec<Span>]) {
    if let Some(path) = &params.trace_out {
        if let Err(error) = trace::write_spans(path, logs) {
            outcome
                .problems
                .push(format!("writing spans to {}: {error}", path.display()));
        }
    }
}

/// Fills the traced outcome's per-layer metrics, adding the window and
/// overhead figures.
fn finish_traced(
    outcome: &mut Outcome,
    mut values: BTreeMap<String, f64>,
    window_s: f64,
    accounted_s: f64,
    untraced_window_s: f64,
) {
    values.insert("trace.window_s".into(), window_s);
    values.insert("trace.unattributed_s".into(), window_s - accounted_s);
    values.insert(
        "trace.overhead".into(),
        ratio(window_s, untraced_window_s) - 1.0,
    );
    values.insert(
        "failed_op_ratio".into(),
        ratio(outcome.failed as f64, outcome.attempted.max(1) as f64),
    );
    outcome.metrics = per_layer_metrics(&values);
}

/// Checks the traced window simulated exactly what the untraced one did.
fn check_same(outcome: &mut Outcome, what: &str, expected: Fingerprint) {
    let actual = outcome.fingerprint;
    outcome.check(expected == actual, || {
        format!(
            "{what}: fingerprint {} differs from the untraced {}",
            actual.hex(),
            expected.hex()
        )
    });
}

fn phone_life_traced(params: &Params) -> Outcome {
    let mut outcome = Outcome::default();
    let (mut bare, _) = set_up::<Bare>(params.seed, params.age_days);
    let reference = run_blocks(&mut bare, params.phone_blocks);
    let expected = fingerprint(&bare);
    drop(bare);

    let (mut phone, setup) = set_up::<Wrapped>(params.seed, params.age_days);
    let before = ops(&phone.stats);
    let (window, observed, spans) = observe(&mut phone, RECORD, |phone| {
        run_blocks(phone, params.phone_blocks)
    });
    outcome.fingerprint = fingerprint(&phone);
    check_same(&mut outcome, "traced phone", expected);
    outcome.attempted = ops(&phone.stats) - before;
    outcome.failed = observed.count("device.failed_ops");
    let mut attribution = Attribution::default();
    attribution.absorb(&spans);
    finish_traced(
        &mut outcome,
        observed.values(&attribution, &setup),
        window.total_s,
        attribution.accounted(),
        reference.total_s,
    );
    write_trace(params, &mut outcome, &[spans]);
    outcome
}

/// One crash round per device: set up an aged phone, then run
/// `params.crash_days` days of E12's schedule with the round's own cut
/// schedule (`task_seed(seed, round)`), observing each round with
/// `config`. Returns the merged window, every set-up and the round
/// traces; set-ups of one seed must agree, as must each round's
/// fingerprint with `expected` when given.
fn crash_rounds<F: Flavor>(
    params: &Params,
    config: ThreadConfig,
    outcome: &mut Outcome,
) -> (CrashWindow, Vec<SetupTimes>, PhoneTrace, Vec<Vec<Span>>) {
    let mut merged = CrashWindow::default();
    let mut setups = Vec::new();
    let mut observed_all = PhoneTrace::default();
    let mut logs = Vec::new();
    let mut aged: Option<Fingerprint> = None;
    let mut digest = Fingerprint::default();
    for round in 0..params.crash_devices.max(1) {
        let (mut phone, setup) = set_up::<F>(params.seed, params.age_days);
        let aged_digest = fingerprint(&phone);
        let first = *aged.get_or_insert(aged_digest);
        outcome.check(first == aged_digest, || {
            format!("set-ups diverged: {} vs {}", first.hex(), aged_digest.hex())
        });
        setups.push(setup);
        let before = ops(&phone.stats);
        let schedule = task_seed(params.seed, round);
        let (window, observed, spans) = observe(&mut phone, config, |phone| {
            run_crash_days(phone, params.crash_days, schedule)
        });
        outcome.attempted += ops(&phone.stats) - before + window.remounts;
        digest.add("phone", &fingerprint(&phone).hex());
        window.fingerprint_into(&mut digest);
        observed_all.merge(&observed);
        logs.push(spans);
        merged.absorb(window);
    }
    outcome.fingerprint = digest;
    outcome.failed += merged.remount_errors + merged.findings.len() as u64;
    outcome.problems.extend(merged.findings.iter().cloned());
    (merged, setups, observed_all, logs)
}

fn crash_remount<F: Flavor>(params: &Params, config: ThreadConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let (window, setups, _, _) = crash_rounds::<F>(params, config, &mut outcome);
    outcome.check(window.remounts >= MIN_P95_REMOUNTS, || {
        format!(
            "only {} remounts; remount_ms_p95 needs {MIN_P95_REMOUNTS}",
            window.remounts
        )
    });
    let totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    end_to_end(&mut outcome, median(&totals), window.days_per_s());
    outcome
}

fn crash_remount_traced(params: &Params) -> Outcome {
    let mut reference = Outcome::default();
    let (untraced, _, _, _) = crash_rounds::<Bare>(params, ThreadConfig::default(), &mut reference);
    let mut outcome = Outcome::default();
    let (window, setups, observed, logs) = crash_rounds::<Wrapped>(params, RECORD, &mut outcome);
    check_same(&mut outcome, "traced crash", reference.fingerprint);
    outcome.failed += observed.count("device.failed_ops");
    let mut attribution = Attribution::default();
    for spans in &logs {
        attribution.absorb(spans);
    }
    let setup = setups.first().copied().unwrap_or_default();
    // Remounts reset the FTL statistics; the window sums them per
    // stretch between remounts instead of one before/after difference.
    let observed = PhoneTrace {
        sys: window.sys.with_flash_of(&observed.sys),
        spare: window.spare.with_flash_of(&observed.spare),
        ..observed
    };
    let mut values = observed.values(&attribution, &setup);
    let remounts = window.remounts.max(1) as f64;
    for (name, value) in [
        ("remounts_per_s", untraced.remounts_per_s()),
        ("remount_ms_p50", median(&untraced.remount_ms)),
        ("remount_ms_p95", quantile(&untraced.remount_ms, 0.95)),
        (
            "recovery.oob_reads_per_remount",
            window.oob_reads as f64 / remounts,
        ),
        ("recovery.torn_pages", window.torn_pages as f64),
        ("recovery.parity_refreshed", window.parity_refreshed as f64),
        (
            "recovery.resurrected_trimmed",
            window.resurrected_trimmed as f64,
        ),
        ("recovery.sys_repaired", window.sys_repaired as f64),
        ("recovery.audit_findings", window.findings.len() as f64),
    ] {
        values.insert(name.into(), value);
    }
    finish_traced(
        &mut outcome,
        values,
        window.timed_s,
        attribution.accounted(),
        untraced.timed_s,
    );
    write_trace(params, &mut outcome, &logs);
    outcome
}

fn cache_churn<B: BackendAccess>(
    params: &Params,
    wrap: impl Fn(FtlCacheBackend) -> B + Copy,
) -> Outcome {
    let mut outcome = Outcome::default();
    let (mut rig, setups) = repeated_set_up(
        params,
        &mut outcome,
        || {
            let (rig, build_s, warm_s) = cache::set_up(params.seed, wrap, params.cache_warm_up);
            (rig, build_s + warm_s)
        },
        CacheRig::fingerprint,
    );
    let window = rig.run_days(params.cache_days);
    cache_outcome(&mut outcome, &rig, &window);
    end_to_end(&mut outcome, median(&setups), window.days_per_s());
    outcome
}

fn cache_outcome<B: BackendAccess>(outcome: &mut Outcome, rig: &CacheRig<B>, window: &CacheWindow) {
    outcome.fingerprint = rig.fingerprint();
    outcome.attempted = window.traffic.gets;
    outcome.failed = rig.errors.len() as u64;
    outcome.problems.extend(
        rig.errors
            .iter()
            .map(|error| format!("cache backend error: {error}")),
    );
}

fn cache_churn_traced(params: &Params) -> Outcome {
    let mut outcome = Outcome::default();
    let (mut bare, _, _) = cache::set_up(params.seed, |b| b, params.cache_warm_up);
    let reference = bare.run_days(params.cache_days);
    let expected = bare.fingerprint();
    drop(bare);

    let (mut rig, build_s, warm_s) = cache::set_up(params.seed, Seam, params.cache_warm_up);
    let before = FtlCounts::of(rig.backend.backend().ftl());
    trace::configure(RECORD);
    let window = rig.run_days(params.cache_days);
    let spans = trace::take_spans();
    trace::configure(ThreadConfig::default());
    cache_outcome(&mut outcome, &rig, &window);
    check_same(&mut outcome, "traced cache", expected);

    let mut attribution = Attribution::default();
    attribution.absorb(&spans);
    let mut values = BTreeMap::new();
    record_seams(&attribution, &mut values);
    let delta = FtlCounts::of(rig.backend.backend().ftl()).since(&before);
    delta.record_ftl("", &mut values);
    delta.record_flash(&mut values);
    let traffic = &window.traffic;
    values.insert("gets_per_s".into(), reference.median_gets_per_s());
    values.insert("cache.hit_ratio".into(), traffic.hit_ratio());
    values.insert("cache.admitted".into(), traffic.admitted as f64);
    values.insert("cache.evicted".into(), traffic.evicted as f64);
    values.insert("cache.updated".into(), traffic.updated as f64);
    values.insert("setup.build_s".into(), build_s);
    values.insert("setup.age_s".into(), warm_s);
    finish_traced(
        &mut outcome,
        values,
        window.total_s,
        attribution.accounted(),
        reference.total_s,
    );
    write_trace(params, &mut outcome, &[spans]);
    outcome
}

/// One fleet replica and what its blocks recorded.
struct Replica<P> {
    phone: P,
    block_s: Vec<f64>,
    attempted: u64,
    observed: PhoneTrace,
    logs: Vec<Vec<Span>>,
}

/// A fleet run: the outcome plus what the traced run needs.
struct Fleet {
    outcome: Outcome,
    /// Median over blocks of fleet rate ÷ (replicas × solo rate).
    efficiency: f64,
    solo_s: f64,
    replica_s: Vec<f64>,
    observed: PhoneTrace,
    logs: Vec<Vec<Span>>,
    threads: usize,
    wall_s: f64,
    busy_s: f64,
    setups: Vec<SetupTimes>,
}

/// `phone_life` on a solo phone and on `params.replicas` concurrent
/// replicas of the same configuration and seed. Blocks alternate: one
/// solo block alone, then one block on every replica at once, so a
/// change in host speed between blocks hits both sides of
/// `parallel_efficiency` alike. `config` applies to every timed block
/// (tracing or injection).
fn phone_fleet<F: Flavor>(params: &Params, config: ThreadConfig) -> Fleet
where
    Phone<F>: Send,
{
    let mut outcome = Outcome::default();
    let quiet = ThreadConfig {
        record: false,
        ..config
    };
    trace::configure(quiet);
    let (mut solo, solo_setup) = set_up::<F>(params.seed, params.age_days);
    let replicas = params.replicas.max(1);
    let tasks: Vec<usize> = (0..replicas).collect();
    let (built, _) = run_tasks(&tasks, replicas, |_, _| {
        trace::configure(quiet);
        set_up::<F>(params.seed, params.age_days)
    });
    let mut setups = vec![solo_setup];
    let mut cells = Vec::new();
    for (phone, setup) in built {
        setups.push(setup);
        cells.push(Mutex::new(Replica {
            phone,
            block_s: Vec::new(),
            attempted: 0,
            observed: PhoneTrace::default(),
            logs: Vec::new(),
        }));
    }

    let solo_before = ops(&solo.stats);
    let mut solo_block_s = Vec::new();
    let mut fleet_block_s = Vec::new();
    let (mut wall_s, mut busy_s, mut threads) = (0.0, 0.0, 1);
    for _ in 0..params.phone_blocks {
        let (window, _, _) = observe(&mut solo, config, |phone| run_blocks(phone, 1));
        solo_block_s.push(window.total_s);
        // Each task locks only its own replica's cell: never contended.
        let (_, runner) = run_tasks(&cells, replicas, |_, cell| {
            let mut replica = cell
                .lock()
                .expect("a replica cell is only ever locked by its own task");
            trace::configure(quiet);
            let before = ops(&replica.phone.stats);
            let (window, observed, spans) =
                observe(&mut replica.phone, config, |phone| run_blocks(phone, 1));
            replica.attempted += ops(&replica.phone.stats) - before;
            replica.block_s.push(window.total_s);
            replica.observed.merge(&observed);
            replica.logs.push(spans);
        });
        fleet_block_s.push(runner.wall_seconds);
        wall_s += runner.wall_seconds;
        busy_s += runner.busy_seconds;
        threads = runner.threads;
    }

    let expected = fingerprint(&solo);
    outcome.fingerprint = expected;
    outcome.attempted = ops(&solo.stats) - solo_before;
    outcome.failed = sys_lost_objects(&solo.device);
    let mut observed = PhoneTrace::default();
    let mut logs = Vec::new();
    let mut replica_s = Vec::new();
    for (index, cell) in cells.into_iter().enumerate() {
        let replica = cell
            .into_inner()
            .expect("replica tasks finished without panicking");
        let digest = fingerprint(&replica.phone);
        outcome.check(digest == expected, || {
            format!(
                "replica {index}: fingerprint {} differs from the solo phone_life {}",
                digest.hex(),
                expected.hex()
            )
        });
        outcome.attempted += replica.attempted;
        outcome.failed += sys_lost_objects(&replica.phone.device);
        observed.merge(&replica.observed);
        logs.extend(replica.logs);
        replica_s.push(replica.block_s.iter().sum());
    }

    let days = f64::from(BLOCK_DAYS) * replicas as f64;
    let rates: Vec<f64> = fleet_block_s.iter().map(|&s| days / s.max(1e-12)).collect();
    let efficiency: Vec<f64> = solo_block_s
        .iter()
        .zip(&fleet_block_s)
        .map(|(&solo_s, &fleet_s)| ratio(solo_s, fleet_s))
        .collect();
    let totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    end_to_end(&mut outcome, median(&totals), median(&rates));
    Fleet {
        outcome,
        efficiency: median(&efficiency),
        solo_s: solo_block_s.iter().sum(),
        replica_s,
        observed,
        logs,
        threads,
        wall_s,
        busy_s,
        setups,
    }
}

fn phone_fleet_traced(params: &Params) -> Outcome {
    let reference = phone_fleet::<Bare>(params, ThreadConfig::default());
    let untraced_s: f64 = reference.replica_s.iter().sum();
    let expected = reference.outcome.fingerprint;
    let efficiency = reference.efficiency;
    drop(reference);
    let fleet = phone_fleet::<Wrapped>(params, RECORD);
    let mut outcome = Outcome {
        metrics: Default::default(),
        ..fleet.outcome
    };
    check_same(&mut outcome, "traced fleet", expected);
    outcome.failed += fleet.observed.count("device.failed_ops");

    let mut attribution = Attribution::default();
    for spans in &fleet.logs {
        attribution.absorb(spans);
    }
    let setup = fleet.setups.first().copied().unwrap_or_default();
    let mut values = fleet.observed.values(&attribution, &setup);
    let window_s: f64 = fleet.replica_s.iter().sum();
    let mean_replica_s = window_s / fleet.replica_s.len().max(1) as f64;
    let budget_s = fleet.wall_s * fleet.threads as f64;
    for (name, value) in [
        ("parallel_efficiency", efficiency),
        ("runner.utilization", ratio(fleet.busy_s, budget_s)),
        ("runner.busy_s", fleet.busy_s),
        ("runner.idle_s", (budget_s - fleet.busy_s).max(0.0)),
        ("runner.task_s_min", quantile(&fleet.replica_s, 0.0)),
        ("runner.task_s_max", quantile(&fleet.replica_s, 1.0)),
        (
            "runner.contention_slowdown",
            ratio(mean_replica_s, fleet.solo_s),
        ),
    ] {
        values.insert(name.into(), value);
    }
    finish_traced(
        &mut outcome,
        values,
        window_s,
        attribution.accounted(),
        untraced_s,
    );
    write_trace(params, &mut outcome, &fleet.logs);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::per_layer_names;

    fn short(seed: u64) -> Params {
        Params {
            seed,
            age_days: 2,
            phone_blocks: 1,
            crash_days: 10,
            crash_devices: 1,
            cache_warm_up: 0,
            cache_days: 1,
            setups: 1,
            replicas: 2,
            trace_out: None,
        }
    }

    #[test]
    fn fleet_replicas_match_phone_life_and_traces_repeat_exactly() {
        let params = short(13);
        let life = run(Workload::PhoneLife, &params, Mode::Untraced);
        let fleet = run(Workload::PhoneFleet, &params, Mode::Untraced);
        assert!(life.problems.is_empty(), "{:?}", life.problems);
        assert!(fleet.problems.is_empty(), "{:?}", fleet.problems);
        assert_eq!(life.fingerprint, fleet.fingerprint);
        let cache = run(Workload::CacheChurn, &params, Mode::Untraced);
        let crash = run(Workload::CrashRemount, &params, Mode::Untraced);
        for outcome in [&life, &fleet, &cache, &crash] {
            let names: Vec<&str> = outcome.metrics.0.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, END_TO_END);
            assert!(outcome.metrics.0.iter().all(|m| m.value > 0.0));
        }

        let traced = run(Workload::PhoneLife, &params, Mode::Traced);
        assert!(traced.problems.is_empty(), "{:?}", traced.problems);
        assert_eq!(traced.fingerprint, life.fingerprint);
        let again = run(Workload::PhoneLife, &params, Mode::Traced);
        for metric in traced.metrics.0.iter().filter(|m| m.unit == "count") {
            assert_eq!(
                again.metrics.get(&metric.name),
                Some(metric.value),
                "{}",
                metric.name
            );
        }
        assert!(traced.metrics.get("device.put_calls").unwrap_or(0.0) > 0.0);
        assert_eq!(traced.metrics.0.len(), per_layer_names().len());
    }
}
