//! The phone workloads: `phone_life` (E11's SOS arm in steady state),
//! `crash_remount` (E12's power-cut schedule on an aged device) and
//! `phone_fleet` (identical `phone_life` replicas on the runner).

use crate::layers::FtlCounts;
use crate::seams::{Seam, SosAccess};
use crate::stats::{median, Fingerprint};
use crate::trace::{self, span};
use sos_analyze::{CoreAuditorSet, RecoveryAuditor};
use sos_classify::{multi_user_corpus, Classifier, FeatureExtractor, LogisticRegression};
use sos_core::{
    CloudConfig, ControllerConfig, ControllerStats, CoreState, ObjectStore, Partition, SosConfig,
    SosController, SosDevice,
};
use sos_flash::{FaultAt, FaultKind, FaultPlan, FlashError};
use sos_ftl::FtlError;
use sos_workload::{DeviceLife, UsageProfile, WorkloadConfig};
use std::time::Instant;

/// Days of set-up aging: past the fill phase, where per-day host cost
/// has levelled off (≈day 40 on seed 77, see the benchmark doc).
pub const AGE_DAYS: u32 = 40;
/// Days per timed block; one block is one maintenance period.
pub const BLOCK_DAYS: u32 = 7;
/// E12's checkpoint interval, days.
pub const CHECKPOINT_DAYS: u32 = 5;

/// Bare production types or seam-wrapped ones.
pub trait Flavor {
    /// The controller's device type.
    type D: SosAccess;
    /// The controller's classifier type.
    type C: Classifier;
    /// Wraps (or not) the device and the trained model.
    fn wrap(device: SosDevice, model: LogisticRegression) -> (Self::D, Self::C);
}

/// `SosController<SosDevice, LogisticRegression>`, as E11 runs it.
#[derive(Debug)]
pub struct Bare;

/// Both controller seams wrapped in [`Seam`].
#[derive(Debug)]
pub struct Wrapped;

impl Flavor for Bare {
    type D = SosDevice;
    type C = LogisticRegression;
    fn wrap(device: SosDevice, model: LogisticRegression) -> (SosDevice, LogisticRegression) {
        (device, model)
    }
}

impl Flavor for Wrapped {
    type D = Seam<SosDevice>;
    type C = Seam<LogisticRegression>;
    fn wrap(
        device: SosDevice,
        model: LogisticRegression,
    ) -> (Seam<SosDevice>, Seam<LogisticRegression>) {
        (Seam(device), Seam(model))
    }
}

/// A phone: the SOS controller over the flavour's types.
pub type Phone<F> = SosController<<F as Flavor>::D, <F as Flavor>::C>;

/// Host time of one set-up, by phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Classifier training.
    pub train_s: f64,
    /// Device, workload and controller construction.
    pub build_s: f64,
    /// Aging the device to steady state.
    pub age_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.train_s + self.build_s + self.age_s
    }
}

/// Builds E11's SOS arm for `seed` (classifier trained on two users,
/// typical usage, no cloud) and ages it `age_days` days.
pub fn set_up<F: Flavor>(seed: u64, age_days: u32) -> (Phone<F>, SetupTimes) {
    let started = Instant::now();
    let extractor = FeatureExtractor::default();
    let corpus = multi_user_corpus(&extractor, 2, seed);
    let mut model = LogisticRegression::default();
    model.train(&corpus.features, &corpus.labels);
    let train_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let device = SosDevice::new(&SosConfig::small(seed));
    let capacity = device.capacity_bytes();
    let life = DeviceLife::new(WorkloadConfig::phone(capacity, UsageProfile::Typical, seed));
    let (device, model) = F::wrap(device, model);
    let mut phone = SosController::new(
        device,
        model,
        extractor,
        life,
        CloudConfig::none(),
        ControllerConfig::default(),
    );
    let build_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    phone.run_days(age_days);
    let age_s = started.elapsed().as_secs_f64();
    (
        phone,
        SetupTimes {
            train_s,
            build_s,
            age_s,
        },
    )
}

/// Digest of everything deterministic about a phone: controller
/// statistics, device counters and both partitions' FTL, placement and
/// flash statistics.
pub fn fingerprint<D: SosAccess, C: Classifier>(phone: &SosController<D, C>) -> Fingerprint {
    let mut digest = Fingerprint::default();
    digest.add("day", &phone.life.day());
    digest.add("files", &phone.life.file_count());
    digest.add("controller", &phone.stats);
    digest.add("device", &phone.device.counters());
    for partition in [Partition::Sys, Partition::Spare] {
        let ftl = &phone.device.sos().partition(partition).ftl;
        digest.add("ftl", ftl.stats());
        digest.add("placement", &ftl.placement_stats());
        digest.add("flash", &ftl.device().stats());
    }
    digest
}

/// Counters of both partitions.
pub fn partition_counts<D: SosAccess>(device: &D) -> [FtlCounts; 2] {
    [Partition::Sys, Partition::Spare].map(|p| FtlCounts::of(&device.sos().partition(p).ftl))
}

/// SYS objects a read found partially lost. A SYS read can only come
/// back lost after the SYS FTL met an uncorrectable or lost page, and
/// such a read marks its object damaged, so the untraced run can count
/// them from the directory without a seam.
pub fn sys_lost_objects<D: SosAccess>(device: &D) -> u64 {
    let sys = device.sos().partition(Partition::Sys).ftl.stats();
    if sys.uncorrectable_reads == 0 && sys.lost_pages == 0 {
        return 0;
    }
    device
        .sos()
        .audit_snapshot()
        .objects
        .iter()
        .filter(|object| object.partition == Partition::Sys && object.damaged)
        .count() as u64
}

/// Operations the controller issued, from its statistics.
pub fn ops(stats: &ControllerStats) -> u64 {
    stats.creates
        + stats.rejected_creates
        + stats.updates
        + stats.reads
        + stats.lost_reads
        + stats.demotions
        + stats.autodeletes
}

/// Host time of a window of steady-state days.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DayWindow {
    /// Host seconds of each [`BLOCK_DAYS`]-day block.
    pub block_s: Vec<f64>,
    /// Host seconds of the whole window.
    pub total_s: f64,
}

impl DayWindow {
    /// Median over blocks of simulated days per host second.
    pub fn days_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .block_s
            .iter()
            .map(|&s| f64::from(BLOCK_DAYS) / s.max(1e-12))
            .collect();
        median(&rates)
    }
}

/// Runs `blocks` blocks of [`BLOCK_DAYS`] days, timing each block.
pub fn run_blocks<D: ObjectStore, C: Classifier>(
    phone: &mut SosController<D, C>,
    blocks: u32,
) -> DayWindow {
    let mut window = DayWindow::default();
    trace::start_window();
    let started = Instant::now();
    for _ in 0..blocks {
        let block_started = Instant::now();
        for _ in 0..BLOCK_DAYS {
            span("controller.day", || phone.run_day());
        }
        window.block_s.push(block_started.elapsed().as_secs_f64());
    }
    window.total_s = started.elapsed().as_secs_f64();
    trace::end_window();
    window
}

/// Tallies of a crash-and-remount window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrashWindow {
    /// Host ms of each `recover_in_place`.
    pub remount_ms: Vec<f64>,
    /// Remounts per timed host second, per block of days.
    pub block_rates: Vec<f64>,
    /// Days per timed host second, per block of days.
    pub block_days_per_s: Vec<f64>,
    /// Timed host seconds: days, remounts and checkpoints; audits and
    /// snapshots excluded.
    pub timed_s: f64,
    /// Power cuts followed by a remount.
    pub remounts: u64,
    /// Checkpoints that completed.
    pub checkpoints: u64,
    /// Remounts that returned an error (the device is then poisoned).
    pub remount_errors: u64,
    /// Auditor findings, rendered.
    pub findings: Vec<String>,
    /// OOB reads the remount scans performed.
    pub oob_reads: u64,
    /// Torn pages the scans discarded.
    pub torn_pages: u64,
    /// Live stripes whose parity was recomputed.
    pub parity_refreshed: u64,
    /// Volatile trims re-trimmed at remount.
    pub resurrected_trimmed: u64,
    /// SYS pages rebuilt from parity.
    pub sys_repaired: u64,
    /// SYS pages declared lost.
    pub sys_lost: u64,
    /// SPARE pages declared lost.
    pub spare_lost: u64,
    /// SYS partition counters over the window. A remount rebuilds the
    /// FTL's statistics from scratch, so they are summed per stretch
    /// between remounts.
    pub sys: FtlCounts,
    /// SPARE partition counters over the window, summed likewise.
    pub spare: FtlCounts,
}

impl CrashWindow {
    /// Adds another device's window.
    pub fn absorb(&mut self, other: CrashWindow) {
        self.remount_ms.extend(other.remount_ms);
        self.block_rates.extend(other.block_rates);
        self.block_days_per_s.extend(other.block_days_per_s);
        self.timed_s += other.timed_s;
        self.remounts += other.remounts;
        self.checkpoints += other.checkpoints;
        self.remount_errors += other.remount_errors;
        self.findings.extend(other.findings);
        self.oob_reads += other.oob_reads;
        self.torn_pages += other.torn_pages;
        self.parity_refreshed += other.parity_refreshed;
        self.resurrected_trimmed += other.resurrected_trimmed;
        self.sys_repaired += other.sys_repaired;
        self.sys_lost += other.sys_lost;
        self.spare_lost += other.spare_lost;
        self.sys = self.sys.plus(&other.sys);
        self.spare = self.spare.plus(&other.spare);
    }

    fn add_counts(&mut self, now: &[FtlCounts; 2], baseline: &[FtlCounts; 2]) {
        self.sys = self.sys.plus(&now[0].since(&baseline[0]));
        self.spare = self.spare.plus(&now[1].since(&baseline[1]));
    }

    /// Median of the block remount rates.
    pub fn remounts_per_s(&self) -> f64 {
        median(&self.block_rates)
    }

    /// Median of the block day rates.
    pub fn days_per_s(&self) -> f64 {
        median(&self.block_days_per_s)
    }

    fn tallies(&self) -> [u64; 11] {
        [
            self.remounts,
            self.checkpoints,
            self.remount_errors,
            self.findings.len() as u64,
            self.oob_reads,
            self.torn_pages,
            self.parity_refreshed,
            self.resurrected_trimmed,
            self.sys_repaired,
            self.sys_lost,
            self.spare_lost,
        ]
    }

    /// Folds the remount tallies into `digest`.
    pub fn fingerprint_into(&self, digest: &mut Fingerprint) {
        digest.add("remounts", &self.tallies());
    }
}

/// Days per block of the crash window's rate samples.
const CRASH_BLOCK_DAYS: u32 = 10;

/// Runs `days` days of E12's schedule: each day a power cut is armed a
/// seed-derived 1..=101 device operations ahead, alternating SYS and
/// SPARE; after a cut the device remounts through
/// `SosDevice::recover_in_place` and is audited (untimed) by the
/// `RecoveryAuditor` and a fresh `CoreAuditorSet`; every
/// [`CHECKPOINT_DAYS`] days a checkpoint is taken.
pub fn run_crash_days<D: SosAccess, C: Classifier>(
    phone: &mut SosController<D, C>,
    days: u32,
    seed: u64,
) -> CrashWindow {
    let mut window = CrashWindow::default();
    let mut auditors = CoreAuditorSet::new();
    let mut target = Partition::Sys;
    let mut rng = seed | 1;
    let mut block_timed = 0.0;
    let mut block_remounts = 0u64;
    let mut baseline = partition_counts(&phone.device);
    trace::start_window();
    for day in 1..=days {
        let pending = phone
            .device
            .sos()
            .partition(target)
            .ftl
            .injector()
            .is_some_and(|injector| !injector.pending().is_empty());
        if !pending {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let at = phone.device.sos().injector_op_count(target) + 1 + rng % 101;
            phone.device.sos_mut().arm_fault(
                target,
                FaultPlan {
                    kind: FaultKind::PowerCut,
                    at: FaultAt::OpCount(at),
                },
                seed.wrapping_add(u64::from(day)),
            );
        }
        let remounts_before = window.remounts;
        let started = Instant::now();
        span("controller.day", || phone.run_day());
        let mut timed = started.elapsed().as_secs_f64();
        if phone.crashed() {
            timed += remount(phone, &mut auditors, &mut window, &mut baseline);
            target = other(target);
        } else {
            let state = phone.device.sos().audit_snapshot();
            window
                .findings
                .extend(auditors.audit(&state).iter().map(|f| f.to_string()));
        }
        if day % CHECKPOINT_DAYS == 0 && window.remount_errors == 0 {
            let started = Instant::now();
            let result = span("device.checkpoint", || phone.device.sos_mut().checkpoint());
            timed += started.elapsed().as_secs_f64();
            match result {
                Ok(()) => window.checkpoints += 1,
                // The cut landed inside the checkpoint write itself.
                Err(FtlError::Device(FlashError::PowerLoss)) => {
                    timed += remount(phone, &mut auditors, &mut window, &mut baseline);
                    target = other(target);
                }
                Err(error) => window.findings.push(format!("checkpoint failed: {error}")),
            }
        }
        window.timed_s += timed;
        block_timed += timed;
        block_remounts += window.remounts - remounts_before;
        if day % CRASH_BLOCK_DAYS == 0 {
            window
                .block_rates
                .push(block_remounts as f64 / block_timed.max(1e-12));
            window
                .block_days_per_s
                .push(f64::from(CRASH_BLOCK_DAYS) / block_timed.max(1e-12));
            block_timed = 0.0;
            block_remounts = 0;
        }
        if window.remount_errors > 0 {
            break;
        }
    }
    trace::end_window();
    window.add_counts(&partition_counts(&phone.device), &baseline);
    window
}

/// The partition the next cut targets after one fired on `partition`.
fn other(partition: Partition) -> Partition {
    match partition {
        Partition::Sys => Partition::Spare,
        Partition::Spare => Partition::Sys,
    }
}

/// One remount after a power cut; returns its timed host seconds.
fn remount<D: SosAccess, C: Classifier>(
    phone: &mut SosController<D, C>,
    auditors: &mut CoreAuditorSet,
    window: &mut CrashWindow,
    baseline: &mut [FtlCounts; 2],
) -> f64 {
    window.add_counts(&partition_counts(&phone.device), baseline);
    let before: CoreState = phone.device.sos().audit_snapshot();
    let started = Instant::now();
    let result = span("recovery", || phone.device.sos_mut().recover_in_place());
    let elapsed = started.elapsed().as_secs_f64();
    window.remount_ms.push(elapsed * 1e3);
    window.remounts += 1;
    let report = match result {
        Ok(report) => report,
        Err(error) => {
            window.remount_errors += 1;
            window.findings.push(format!("remount failed: {error}"));
            return elapsed;
        }
    };
    let after = phone.device.sos().audit_snapshot();
    window.findings.extend(
        RecoveryAuditor::audit_remount(&before, &after, &report)
            .iter()
            .map(|violation| format!("[recovery] {violation}")),
    );
    // Recovery rebuilds wear and GC statistics from scratch, so the
    // stateful auditors restart on the recovered snapshot (as in E12).
    *auditors = CoreAuditorSet::new();
    window
        .findings
        .extend(auditors.audit(&after).iter().map(|f| f.to_string()));
    window.oob_reads += report.sys.scanned_pages + report.spare.scanned_pages;
    window.torn_pages += (report.sys.torn_pages.len() + report.spare.torn_pages.len()) as u64;
    window.parity_refreshed += report.parity_refreshed;
    window.resurrected_trimmed += report.resurrected_trimmed;
    window.sys_repaired += report.sys_repaired;
    window.sys_lost += report.sys_lost.len() as u64;
    window.spare_lost += report.spare_lost.len() as u64;
    phone.clear_crashed();
    *baseline = partition_counts(&phone.device);
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_seams_change_nothing_the_simulation_computes() {
        let (mut bare, _) = set_up::<Bare>(5, 2);
        let (mut wrapped, _) = set_up::<Wrapped>(5, 2);
        let bare_window = run_blocks(&mut bare, 1);
        run_blocks(&mut wrapped, 1);
        assert_eq!(fingerprint(&bare), fingerprint(&wrapped));
        assert_eq!(bare_window.block_s.len(), 1);
        assert_eq!(bare.life.day(), 2 + BLOCK_DAYS);
        assert_eq!(sys_lost_objects(&bare.device), 0);
    }

    #[test]
    fn crash_days_remount_cleanly_and_repeat_exactly() {
        let run = || {
            let (mut phone, _) = set_up::<Bare>(9, 2);
            let window = run_crash_days(&mut phone, CRASH_BLOCK_DAYS, 9);
            let mut digest = fingerprint(&phone);
            window.fingerprint_into(&mut digest);
            (window, digest)
        };
        let (window, digest) = run();
        assert!(window.remounts > 0, "no power cut fired");
        assert_eq!(window.remount_ms.len() as u64, window.remounts);
        assert!(window.findings.is_empty(), "{:?}", window.findings);
        assert_eq!(window.block_rates.len(), 1);
        assert_eq!(run().1, digest);
    }
}
