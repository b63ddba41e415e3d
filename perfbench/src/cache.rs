//! `cache_churn`: E17's FDP arm — Zipf/TTL flash-cache traffic at 88%
//! utilization over `FtlCacheBackend` on a TLC FTL.

use crate::seams::Seam;
use crate::stats::{median, Fingerprint};
use crate::trace::{self, span};
use sos_bench::{CachePlacement, FtlCacheBackend};
use sos_flash::{CellDensity, DeviceConfig, ProgramMode};
use sos_ftl::{Ftl, FtlConfig};
use sos_workload::{CacheBackend, CacheBackendError, CacheDayReport, FlashCache, FlashCacheConfig};
use std::time::Instant;

/// E17's cache utilization of the FTL's exported space.
pub const UTILIZATION: f64 = 0.88;
/// Warm-up days: write-amp is steady from day 2.
pub const WARM_UP_DAYS: u32 = 2;

/// Access to the `FtlCacheBackend` under a cache, bare or wrapped.
pub trait BackendAccess: CacheBackend {
    /// The backend.
    fn backend(&self) -> &FtlCacheBackend;
    /// The backend, mutably.
    fn backend_mut(&mut self) -> &mut FtlCacheBackend;
}

impl BackendAccess for FtlCacheBackend {
    fn backend(&self) -> &FtlCacheBackend {
        self
    }
    fn backend_mut(&mut self) -> &mut FtlCacheBackend {
        self
    }
}

impl BackendAccess for Seam<FtlCacheBackend> {
    fn backend(&self) -> &FtlCacheBackend {
        &self.0
    }
    fn backend_mut(&mut self) -> &mut FtlCacheBackend {
        &mut self.0
    }
}

/// A flash cache and its backend.
#[derive(Debug)]
pub struct CacheRig<B> {
    /// The cache simulator.
    pub cache: FlashCache,
    /// Its storage.
    pub backend: B,
    /// Traffic so far.
    pub traffic: CacheDayReport,
    /// Backend errors so far.
    pub errors: Vec<String>,
}

/// Builds E17's FDP arm with traffic seeded by `seed` (the device keeps
/// E17's fixed seed), and runs the warm-up days.
pub fn set_up<B: BackendAccess>(
    seed: u64,
    wrap: impl FnOnce(FtlCacheBackend) -> B,
    warm_up_days: u32,
) -> (CacheRig<B>, f64, f64) {
    let started = Instant::now();
    let mode = ProgramMode::native(CellDensity::Tlc);
    let ftl = Ftl::new(
        &DeviceConfig::tiny(CellDensity::Tlc),
        FtlConfig::conventional(mode),
    );
    let template = FlashCacheConfig::server(1, seed);
    let usable = (ftl.logical_pages() as f64 * UTILIZATION) as u64;
    let slots = (usable / template.object_pages).saturating_sub(1).max(4);
    let config = FlashCacheConfig::server(slots as usize, seed);
    let slot_pages = config.object_pages;
    let mut rig = CacheRig {
        cache: FlashCache::new(config),
        backend: wrap(FtlCacheBackend::new(ftl, CachePlacement::Fdp, slot_pages)),
        traffic: CacheDayReport::default(),
        errors: Vec::new(),
    };
    let build_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    for _ in 0..warm_up_days {
        let _ = rig.day();
    }
    (rig, build_s, started.elapsed().as_secs_f64())
}

impl<B: BackendAccess> CacheRig<B> {
    /// One cache day plus the end-of-day clock advance.
    pub fn day(&mut self) -> Result<CacheDayReport, CacheBackendError> {
        let result = span("cache.day", || self.cache.run_day(&mut self.backend));
        span("ftl.advance", || self.backend.backend_mut().end_of_day());
        match &result {
            Ok(report) => self.traffic.absorb(report),
            Err(error) => self.errors.push(error.to_string()),
        }
        result
    }

    /// Runs `days` timed days.
    pub fn run_days(&mut self, days: u32) -> CacheWindow {
        let mut window = CacheWindow::default();
        trace::start_window();
        let started = Instant::now();
        for _ in 0..days {
            let day_started = Instant::now();
            let report = self.day().unwrap_or_default();
            let elapsed = day_started.elapsed().as_secs_f64();
            window.day_s.push(elapsed);
            window
                .gets_per_s
                .push(report.gets as f64 / elapsed.max(1e-12));
            window.traffic.absorb(&report);
        }
        window.total_s = started.elapsed().as_secs_f64();
        trace::end_window();
        window
    }

    /// Digest of the traffic and the FTL, placement and flash stats.
    pub fn fingerprint(&self) -> Fingerprint {
        let ftl = self.backend.backend().ftl();
        let mut digest = Fingerprint::default();
        digest.add("traffic", &self.traffic);
        digest.add("errors", &self.errors);
        digest.add("ftl", ftl.stats());
        digest.add("placement", &ftl.placement_stats());
        digest.add("flash", &ftl.device().stats());
        digest
    }
}

/// Host time and traffic of a window of cache days.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheWindow {
    /// Host seconds of each day.
    pub day_s: Vec<f64>,
    /// GETs per host second, per day.
    pub gets_per_s: Vec<f64>,
    /// Host seconds of the whole window.
    pub total_s: f64,
    /// The window's traffic.
    pub traffic: CacheDayReport,
}

impl CacheWindow {
    /// Median over days of simulated days per host second.
    pub fn days_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.day_s.iter().map(|&s| 1.0 / s.max(1e-12)).collect();
        median(&rates)
    }

    /// Median over days of GETs per host second.
    pub fn median_gets_per_s(&self) -> f64 {
        median(&self.gets_per_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_backend_serves_identical_traffic() {
        let (mut bare, _, _) = set_up(3, |b| b, 0);
        let (mut wrapped, _, _) = set_up(3, Seam, 0);
        let window = bare.run_days(1);
        wrapped.run_days(1);
        assert_eq!(window.gets_per_s.len(), 1);
        assert_eq!(window.traffic, bare.traffic);
        assert!(bare.traffic.gets > 0);
        assert!(bare.errors.is_empty(), "{:?}", bare.errors);
        assert_eq!(bare.fingerprint(), wrapped.fingerprint());
    }
}
