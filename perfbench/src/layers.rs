//! Per-layer metrics: the names the traced run reports, and the exact
//! counters read from `Ftl::stats`, `Ftl::placement_stats` and
//! `FlashDevice::stats` over a timed window.

use crate::report::Metrics;
use crate::stats::ratio;
use crate::trace::Attribution;
use sos_ftl::Ftl;
use std::collections::BTreeMap;

/// FTL-level counts that differ per partition on the SOS device.
const FTL_COUNTS: [&str; 8] = [
    "ftl.host_writes",
    "ftl.flash_writes",
    "ftl.write_amp",
    "ftl.gc_runs",
    "ftl.gc_page_moves",
    "ftl.trims",
    "ftl.placement.host_fraction",
    "ftl.placement.pages_per_unit_erase",
];

/// Every per-layer metric with its unit, in report order. The traced
/// run prints all of them on every workload; a layer the workload does
/// not exercise reads 0. `gets_per_s`, `remounts_per_s`,
/// `remount_ms_p50`/`_p95` and `parallel_efficiency` are host-time
/// figures of one workload each, taken from the traced run's untraced
/// reference window: an end-to-end metric must mean something on every
/// workload, and these do not.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| names.push((name.to_string(), unit));
    add("controller.self_s", "s");
    add("controller.day_ms_p50", "ms");
    add("controller.day_ms_p90", "ms");
    for op in [
        "put", "get", "update", "migrate", "delete", "maintain", "advance",
    ] {
        add(&format!("device.{op}_calls"), "count");
        add(&format!("device.{op}_s"), "s");
    }
    add("device.checkpoint_calls", "count");
    add("device.checkpoint_s", "s");
    add("device.put_us_p50", "us");
    add("device.put_us_p99", "us");
    add("device.get_us_p50", "us");
    add("device.get_us_p99", "us");
    add("device.update_us_p99", "us");
    add("device.migrate_us_p99", "us");
    for count in [
        "device.failed_ops",
        "device.degraded_reads",
        "device.lost_reads",
        "device.demotions",
        "device.autodeletes",
    ] {
        add(count, "count");
    }
    add("classify.predict_calls", "count");
    add("classify.predict_s", "s");
    add("classify.spare_ratio", "ratio");
    add("cache.self_s", "s");
    add("cache.hit_ratio", "ratio");
    add("cache.admitted", "count");
    add("cache.evicted", "count");
    add("cache.updated", "count");
    add("gets_per_s", "GET/s");
    for op in ["put", "get", "evict"] {
        add(&format!("ftl.{op}_calls"), "count");
        add(&format!("ftl.{op}_s"), "s");
    }
    add("ftl.put_us_p50", "us");
    add("ftl.put_us_p99", "us");
    add("ftl.get_us_p99", "us");
    add("ftl.advance_s", "s");
    for suffix in ["", ".sys", ".spare"] {
        for name in FTL_COUNTS {
            add(&format!("{name}{suffix}"), ftl_unit(name));
        }
    }
    for name in [
        "flash.reads",
        "flash.programs",
        "flash.erases",
        "flash.oob_reads",
        "flash.bit_errors_injected",
    ] {
        add(name, "count");
    }
    add("flash.rber_memo_hit_ratio", "ratio");
    add("flash.busy_sim_s", "s");
    add("ecc.corrected_bits", "count");
    add("ecc.degraded_reads", "count");
    add("ecc.uncorrectable_reads", "count");
    for suffix in ["", ".sys", ".spare"] {
        add(&format!("ecc.corrected_per_kread{suffix}"), "1/kread");
    }
    add("recovery.calls", "count");
    add("recovery.s", "s");
    add("recovery.oob_reads_per_remount", "count");
    for name in [
        "recovery.torn_pages",
        "recovery.parity_refreshed",
        "recovery.resurrected_trimmed",
        "recovery.sys_repaired",
        "recovery.audit_findings",
    ] {
        add(name, "count");
    }
    add("remounts_per_s", "1/s");
    add("remount_ms_p50", "ms");
    add("remount_ms_p95", "ms");
    add("parallel_efficiency", "ratio");
    add("runner.utilization", "ratio");
    add("runner.busy_s", "s");
    add("runner.idle_s", "s");
    add("runner.task_s_min", "s");
    add("runner.task_s_max", "s");
    add("runner.contention_slowdown", "ratio");
    add("setup.train_s", "s");
    add("setup.build_s", "s");
    add("setup.age_s", "s");
    add("trace.window_s", "s");
    add("trace.unattributed_s", "s");
    add("trace.overhead", "ratio");
    add("failed_op_ratio", "ratio");
    names
}

fn ftl_unit(name: &str) -> &'static str {
    if name.ends_with("write_amp") || name.contains("placement") {
        "ratio"
    } else {
        "count"
    }
}

/// Fills every per-layer metric from `values`, 0 where absent.
pub fn per_layer_metrics(values: &BTreeMap<String, f64>) -> Metrics {
    let mut metrics = Metrics::default();
    for (name, unit) in per_layer_names() {
        let value = values.get(&name).copied().unwrap_or(0.0);
        metrics.push(name, value, unit);
    }
    metrics
}

/// Exact FTL, placement and flash counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FtlCounts {
    host_writes: u64,
    flash_writes: u64,
    gc_runs: u64,
    gc_page_moves: u64,
    trims: u64,
    host_reads: u64,
    corrected_bits: u64,
    degraded_reads: u64,
    uncorrectable_reads: u64,
    host_pages: u64,
    reloc_pages: u64,
    units_erased: u64,
    reads: u64,
    programs: u64,
    erases: u64,
    oob_reads: u64,
    bit_errors: u64,
    memo_hits: u64,
    memo_misses: u64,
    busy_us: f64,
}

impl FtlCounts {
    /// Reads the counters of `ftl` and its flash device.
    pub fn of(ftl: &Ftl) -> Self {
        let stats = ftl.stats();
        let placement = ftl.placement_stats();
        let flash = ftl.device().stats();
        FtlCounts {
            host_writes: stats.host_writes,
            flash_writes: stats.flash_writes,
            gc_runs: stats.gc_runs,
            gc_page_moves: stats.gc_page_moves,
            trims: stats.trims,
            host_reads: stats.reads,
            corrected_bits: stats.corrected_bits,
            degraded_reads: stats.degraded_reads,
            uncorrectable_reads: stats.uncorrectable_reads,
            host_pages: placement.host_pages,
            reloc_pages: placement.reloc_pages,
            units_erased: placement.units_erased,
            reads: flash.reads,
            programs: flash.programs,
            erases: flash.erases,
            oob_reads: flash.oob_reads,
            bit_errors: flash.bit_errors_injected,
            memo_hits: flash.rber_cache_hits,
            memo_misses: flash.rber_cache_misses,
            busy_us: flash.busy_us,
        }
    }

    /// What happened between `before` and `self` (0 for a counter a
    /// remount rebuilt from scratch in between).
    pub fn since(&self, before: &FtlCounts) -> FtlCounts {
        FtlCounts {
            host_writes: self.host_writes.saturating_sub(before.host_writes),
            flash_writes: self.flash_writes.saturating_sub(before.flash_writes),
            gc_runs: self.gc_runs.saturating_sub(before.gc_runs),
            gc_page_moves: self.gc_page_moves.saturating_sub(before.gc_page_moves),
            trims: self.trims.saturating_sub(before.trims),
            host_reads: self.host_reads.saturating_sub(before.host_reads),
            corrected_bits: self.corrected_bits.saturating_sub(before.corrected_bits),
            degraded_reads: self.degraded_reads.saturating_sub(before.degraded_reads),
            uncorrectable_reads: self
                .uncorrectable_reads
                .saturating_sub(before.uncorrectable_reads),
            host_pages: self.host_pages.saturating_sub(before.host_pages),
            reloc_pages: self.reloc_pages.saturating_sub(before.reloc_pages),
            units_erased: self.units_erased.saturating_sub(before.units_erased),
            reads: self.reads.saturating_sub(before.reads),
            programs: self.programs.saturating_sub(before.programs),
            erases: self.erases.saturating_sub(before.erases),
            oob_reads: self.oob_reads.saturating_sub(before.oob_reads),
            bit_errors: self.bit_errors.saturating_sub(before.bit_errors),
            memo_hits: self.memo_hits.saturating_sub(before.memo_hits),
            memo_misses: self.memo_misses.saturating_sub(before.memo_misses),
            busy_us: self.busy_us - before.busy_us,
        }
    }

    /// `self`'s FTL and placement counts with `flash`'s flash-device
    /// counts (which, unlike the FTL's, survive a remount).
    pub fn with_flash_of(&self, flash: &FtlCounts) -> FtlCounts {
        FtlCounts {
            reads: flash.reads,
            programs: flash.programs,
            erases: flash.erases,
            oob_reads: flash.oob_reads,
            bit_errors: flash.bit_errors,
            memo_hits: flash.memo_hits,
            memo_misses: flash.memo_misses,
            busy_us: flash.busy_us,
            ..*self
        }
    }

    /// Sum of two devices' counters (the SOS device's two partitions).
    pub fn plus(&self, other: &FtlCounts) -> FtlCounts {
        FtlCounts {
            host_writes: self.host_writes + other.host_writes,
            flash_writes: self.flash_writes + other.flash_writes,
            gc_runs: self.gc_runs + other.gc_runs,
            gc_page_moves: self.gc_page_moves + other.gc_page_moves,
            trims: self.trims + other.trims,
            host_reads: self.host_reads + other.host_reads,
            corrected_bits: self.corrected_bits + other.corrected_bits,
            degraded_reads: self.degraded_reads + other.degraded_reads,
            uncorrectable_reads: self.uncorrectable_reads + other.uncorrectable_reads,
            host_pages: self.host_pages + other.host_pages,
            reloc_pages: self.reloc_pages + other.reloc_pages,
            units_erased: self.units_erased + other.units_erased,
            reads: self.reads + other.reads,
            programs: self.programs + other.programs,
            erases: self.erases + other.erases,
            oob_reads: self.oob_reads + other.oob_reads,
            bit_errors: self.bit_errors + other.bit_errors,
            memo_hits: self.memo_hits + other.memo_hits,
            memo_misses: self.memo_misses + other.memo_misses,
            busy_us: self.busy_us + other.busy_us,
        }
    }

    /// FTL counts and placement ratios under `suffix` (`""`, `.sys`,
    /// `.spare`).
    pub fn record_ftl(&self, suffix: &str, values: &mut BTreeMap<String, f64>) {
        let programmed = (self.host_pages + self.reloc_pages) as f64;
        let entries = [
            ("ftl.host_writes", self.host_writes as f64),
            ("ftl.flash_writes", self.flash_writes as f64),
            (
                "ftl.write_amp",
                ratio(self.flash_writes as f64, self.host_writes as f64),
            ),
            ("ftl.gc_runs", self.gc_runs as f64),
            ("ftl.gc_page_moves", self.gc_page_moves as f64),
            ("ftl.trims", self.trims as f64),
            (
                "ftl.placement.host_fraction",
                ratio(self.host_pages as f64, programmed),
            ),
            (
                "ftl.placement.pages_per_unit_erase",
                ratio(programmed, self.units_erased as f64),
            ),
        ];
        for (name, value) in entries {
            values.insert(format!("{name}{suffix}"), value);
        }
        values.insert(
            format!("ecc.corrected_per_kread{suffix}"),
            ratio(self.corrected_bits as f64 * 1000.0, self.host_reads as f64),
        );
    }

    /// Flash-device and ECC totals (unsuffixed).
    pub fn record_flash(&self, values: &mut BTreeMap<String, f64>) {
        let entries = [
            ("flash.reads", self.reads as f64),
            ("flash.programs", self.programs as f64),
            ("flash.erases", self.erases as f64),
            ("flash.oob_reads", self.oob_reads as f64),
            ("flash.bit_errors_injected", self.bit_errors as f64),
            (
                "flash.rber_memo_hit_ratio",
                ratio(
                    self.memo_hits as f64,
                    (self.memo_hits + self.memo_misses) as f64,
                ),
            ),
            ("flash.busy_sim_s", self.busy_us * 1e-6),
            ("ecc.corrected_bits", self.corrected_bits as f64),
            ("ecc.degraded_reads", self.degraded_reads as f64),
            ("ecc.uncorrectable_reads", self.uncorrectable_reads as f64),
        ];
        for (name, value) in entries {
            values.insert(name.to_string(), value);
        }
    }
}

/// Seam call counts, times and latency percentiles from a trace.
pub fn record_seams(attribution: &Attribution, values: &mut BTreeMap<String, f64>) {
    for op in [
        "put", "get", "update", "migrate", "delete", "maintain", "advance",
    ] {
        let name = format!("device.{op}");
        values.insert(format!("{name}_calls"), attribution.calls(&name) as f64);
        values.insert(format!("{name}_s"), attribution.self_time(&name));
    }
    values.insert(
        "device.checkpoint_calls".into(),
        attribution.calls("device.checkpoint") as f64,
    );
    values.insert(
        "device.checkpoint_s".into(),
        attribution.self_time("device.checkpoint"),
    );
    for (metric, span, q) in [
        ("device.put_us_p50", "device.put", 0.5),
        ("device.put_us_p99", "device.put", 0.99),
        ("device.get_us_p50", "device.get", 0.5),
        ("device.get_us_p99", "device.get", 0.99),
        ("device.update_us_p99", "device.update", 0.99),
        ("device.migrate_us_p99", "device.migrate", 0.99),
        ("ftl.put_us_p50", "ftl.put", 0.5),
        ("ftl.put_us_p99", "ftl.put", 0.99),
        ("ftl.get_us_p99", "ftl.get", 0.99),
    ] {
        values.insert(metric.into(), attribution.quantile_us(span, q));
    }
    for op in ["put", "get", "evict"] {
        let name = format!("ftl.{op}");
        values.insert(format!("{name}_calls"), attribution.calls(&name) as f64);
        values.insert(format!("{name}_s"), attribution.self_time(&name));
    }
    values.insert("ftl.advance_s".into(), attribution.self_time("ftl.advance"));
    values.insert(
        "classify.predict_calls".into(),
        attribution.calls("classify.predict") as f64,
    );
    values.insert(
        "classify.predict_s".into(),
        attribution.self_time("classify.predict"),
    );
    values.insert(
        "controller.self_s".into(),
        attribution.self_time("controller.day"),
    );
    values.insert(
        "controller.day_ms_p50".into(),
        attribution.quantile_us("controller.day", 0.5) * 1e-3,
    );
    values.insert(
        "controller.day_ms_p90".into(),
        attribution.quantile_us("controller.day", 0.9) * 1e-3,
    );
    values.insert("cache.self_s".into(), attribution.self_time("cache.day"));
    values.insert(
        "recovery.calls".into(),
        attribution.calls("recovery") as f64,
    );
    values.insert("recovery.s".into(), attribution.self_time("recovery"));
}
