//! Error injection never reads page content.
//!
//! The FTL programs pages without their ECC redundancy and rebuilds the
//! parity a read consults from the data ("deferred parity"). That is
//! only bit-identical to eager encoding if every read flips the same bits
//! whatever the page holds. Two devices with the same seed get different
//! payloads and the same operation sequence; every read must report the
//! same injected positions and counts. A content-dependent error model
//! would fail here instead of silently breaking deferred parity.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos_flash::{
    CellDensity, DeviceConfig, ErrorSampling, FaultAt, FaultInjector, FaultKind, FaultPlan,
    FlashDevice, FlashError, PageAddr,
};

/// One device's view of a read: injected positions and count, or the
/// error it failed with.
type ReadTrace = Result<(Vec<usize>, usize), FlashError>;

fn device(sampling: ErrorSampling) -> FlashDevice {
    let config = DeviceConfig::tiny(CellDensity::Plc).with_seed(31);
    let mut device = FlashDevice::new(&config);
    device.set_error_sampling(sampling);
    let mut injector = FaultInjector::new(5);
    for at in [40, 90, 260, 410] {
        injector.arm(FaultPlan {
            kind: FaultKind::ReadNoise { bits: 9 },
            at: FaultAt::OpCount(at),
        });
    }
    injector.arm(FaultPlan {
        kind: FaultKind::PowerCut,
        at: FaultAt::OpCount(300),
    });
    device.attach_injector(injector);
    device
}

/// Runs a fixed program/erase/age/read sequence, filling pages from
/// `payload`, and returns every read's trace.
fn drive(device: &mut FlashDevice, mut payload: impl FnMut() -> u8) -> Vec<ReadTrace> {
    let geometry = *device.geometry();
    let page_bytes = device.page_total_bytes();
    let mut ops = StdRng::seed_from_u64(8);
    let mut reads = Vec::new();
    for round in 0..6u32 {
        for block in 0..4u64 {
            let addr = |page: u32| PageAddr {
                block: geometry.block_addr(block),
                page,
            };
            if round > 0 && device.erase(block).is_err() {
                device.power_cycle();
            }
            for page in 0..geometry.pages_per_block / 2 {
                let data: Vec<u8> = (0..page_bytes).map(|_| payload()).collect();
                if let Err(FlashError::PowerLoss) = device.program(addr(page), &data) {
                    device.power_cycle();
                }
            }
            device.advance_days(30.0);
            for _ in 0..24 {
                let page = ops.gen_range(0..geometry.pages_per_block / 2);
                let read = device
                    .read(addr(page))
                    .map(|out| (out.injected_positions, out.injected_errors));
                if let Err(FlashError::PowerLoss) = read {
                    device.power_cycle();
                }
                reads.push(read);
            }
        }
    }
    reads
}

#[test]
fn injected_errors_do_not_depend_on_page_content() {
    for sampling in [ErrorSampling::Batched, ErrorSampling::PerPage] {
        let mut random = device(sampling);
        let mut content = StdRng::seed_from_u64(99);
        let a = drive(&mut random, || content.gen());
        let mut zeros = device(sampling);
        let b = drive(&mut zeros, || 0);
        assert_eq!(a.len(), b.len());
        for (index, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x, y, "{sampling:?} read {index}");
        }
        let injected: usize = a.iter().flatten().map(|(_, count)| count).sum();
        assert!(injected > 0, "{sampling:?}: the trace injected no errors");
        let torn = a
            .iter()
            .filter(|read| matches!(read, Err(FlashError::TornPage(_))))
            .count();
        assert!(torn > 0, "{sampling:?}: the power cut must tear a page");
        assert_eq!(random.stats(), zeros.stats(), "{sampling:?}");
        let fired = |d: &FlashDevice| d.injector().map_or(0, |i| i.fired().len());
        assert_eq!(fired(&random), 5, "every armed fault fires");
        assert_eq!(fired(&random), fired(&zeros));
    }
}
