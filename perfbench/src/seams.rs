//! Wrappers around the seams the stack already exposes: the
//! [`ObjectStore`] and [`Classifier`] generic parameters of
//! [`sos_core::SosController`], and the [`CacheBackend`] that
//! [`sos_workload::FlashCache::run_day`] is generic over.
//!
//! Each call becomes a span named after the seam (`device.put`,
//! `classify.predict`, `ftl.put`, ...) and the outcomes the layer cannot
//! report itself are counted at the boundary. The wrappers change no
//! behaviour: the traced run checks that its simulation fingerprint
//! equals the untraced run's. They run only in traced and
//! slowdown-injected runs; untraced runs use the bare types.

use crate::trace::{count, seam};
use sos_classify::Classifier;
use sos_core::{
    DeviceCounters, ObjectData, ObjectError, ObjectId, ObjectStatus, ObjectStore, Partition,
    SosDevice,
};
use sos_workload::{CacheBackend, CacheBackendError, CacheReadback, ObjectMeta};

/// Access to the SOS device under a controller, bare or wrapped.
pub trait SosAccess: ObjectStore {
    /// The device.
    fn sos(&self) -> &SosDevice;
    /// The device, mutably (remount, fault arming, checkpoints).
    fn sos_mut(&mut self) -> &mut SosDevice;
}

impl SosAccess for SosDevice {
    fn sos(&self) -> &SosDevice {
        self
    }
    fn sos_mut(&mut self) -> &mut SosDevice {
        self
    }
}

impl<D: SosAccess> SosAccess for Seam<D> {
    fn sos(&self) -> &SosDevice {
        self.0.sos()
    }
    fn sos_mut(&mut self) -> &mut SosDevice {
        self.0.sos_mut()
    }
}

/// A seam wrapper: `Seam<D: ObjectStore>`, `Seam<C: Classifier>` and
/// `Seam<B: CacheBackend>` each trace the trait's calls.
#[derive(Debug, Clone)]
pub struct Seam<T>(pub T);

/// Counts an object-store failure: anything but the outcomes the
/// controller handles as normal flow (`NoSpace`, `NotFound`) and the
/// injected power cut of the crash workload (`PowerLoss`).
fn count_object_error<T>(result: &Result<T, ObjectError>) {
    if let Err(error) = result {
        if !matches!(
            error,
            ObjectError::NoSpace | ObjectError::NotFound(_) | ObjectError::PowerLoss
        ) {
            count("device.failed_ops", 1);
        }
    }
}

impl<D: ObjectStore> ObjectStore for Seam<D> {
    fn put(&mut self, id: ObjectId, bytes: &[u8], partition: Partition) -> Result<(), ObjectError> {
        let result = seam("device.put", || self.0.put(id, bytes, partition));
        count_object_error(&result);
        result
    }

    fn get(&mut self, id: ObjectId) -> Result<ObjectData, ObjectError> {
        let partition = self.0.placement(id);
        let result = seam("device.get", || self.0.get(id));
        count_object_error(&result);
        if let Ok(data) = &result {
            match data.status {
                ObjectStatus::Intact => {}
                ObjectStatus::Degraded => count("device.degraded_reads", 1),
                ObjectStatus::PartiallyLost => {
                    count("device.lost_reads", 1);
                    if partition == Some(Partition::Sys) {
                        // SYS is the durable partition: a lost read
                        // there is a failed operation, not degradation.
                        count("device.failed_ops", 1);
                    }
                }
            }
        }
        result
    }

    fn update(&mut self, id: ObjectId, bytes: &[u8]) -> Result<(), ObjectError> {
        let result = seam("device.update", || self.0.update(id, bytes));
        count_object_error(&result);
        result
    }

    fn delete(&mut self, id: ObjectId) -> Result<(), ObjectError> {
        let result = seam("device.delete", || self.0.delete(id));
        count_object_error(&result);
        result
    }

    fn migrate(&mut self, id: ObjectId, partition: Partition) -> Result<(), ObjectError> {
        let result = seam("device.migrate", || self.0.migrate(id, partition));
        count_object_error(&result);
        result
    }

    fn placement(&self, id: ObjectId) -> Option<Partition> {
        self.0.placement(id)
    }

    fn advance_days(&mut self, days: f64) {
        seam("device.advance", || self.0.advance_days(days));
    }

    fn maintain(&mut self) -> Result<bool, ObjectError> {
        let result = seam("device.maintain", || self.0.maintain());
        count_object_error(&result);
        result
    }

    fn capacity_bytes(&self) -> u64 {
        self.0.capacity_bytes()
    }

    fn counters(&self) -> DeviceCounters {
        self.0.counters()
    }
}

impl<C: Classifier> Classifier for Seam<C> {
    fn train(&mut self, features: &[Vec<f64>], labels: &[bool]) {
        self.0.train(features, labels);
    }

    fn predict_proba(&self, features: &[f64]) -> f64 {
        let probability = seam("classify.predict", || self.0.predict_proba(features));
        if probability >= 0.5 {
            count("classify.spare", 1);
        }
        probability
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl<B: CacheBackend> CacheBackend for Seam<B> {
    fn put(&mut self, slot: u64, pages: u64, meta: ObjectMeta) -> Result<(), CacheBackendError> {
        seam("ftl.put", || self.0.put(slot, pages, meta))
    }

    fn get(&mut self, slot: u64, pages: u64) -> Result<CacheReadback, CacheBackendError> {
        seam("ftl.get", || self.0.get(slot, pages))
    }

    fn evict(&mut self, slot: u64, pages: u64) -> Result<(), CacheBackendError> {
        seam("ftl.evict", || self.0.evict(slot, pages))
    }
}
