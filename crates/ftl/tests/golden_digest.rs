//! Golden digest of a seeded, worn PLC trace through three FTLs.
//!
//! The trace drives `sos_sys`, `sos_spare` and `conventional` FTLs over
//! a pre-worn tiny PLC device through host writes, reads, trims,
//! retention, GC, scrub, checkpoints and a power cut followed by
//! [`Ftl::recover`], then sweeps every programmed page of the device
//! through the page codec. An FNV-1a digest covers every read result
//! (data, status, corrected bits), the scrub and recovery reports, and
//! the final `FtlStats` and `DeviceStats`.
//!
//! The expected digest was taken from the eager-encoding FTL, where
//! every program computed its BCH parity and the sweep decoded with
//! `decode_with_dirty`; the deferred-parity FTL, sweeping with
//! `decode_framed`, must match it bit for bit. Any change to what a read
//! returns, to a counter, or to the RNG stream shows up here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos_ecc::{PageCodec, PageStatus};
use sos_flash::{
    CellDensity, DeviceConfig, FaultAt, FaultKind, FaultPlan, FlashDevice, FlashError, ProgramMode,
};
use sos_ftl::{Ftl, FtlConfig, FtlError, ReadResult};

/// The digest the trace must reproduce.
const GOLDEN: u64 = 0x042c_a1a0_c239_a0bb;

const ROUNDS: u32 = 12;
const WRITES_PER_ROUND: u32 = 120;
const READS_PER_ROUND: u32 = 40;

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn text(&mut self, text: &str) {
        self.bytes(text.as_bytes());
    }

    fn status(&mut self, status: PageStatus) {
        self.u64(match status {
            PageStatus::Intact => 0,
            PageStatus::DegradedDetected => 1,
            PageStatus::Uncorrectable => 2,
        });
    }
}

/// What the trace reached, across all reads.
#[derive(Debug, Default)]
struct Coverage {
    corrected_bits: usize,
    degraded_reads: usize,
    spare_hit_reads: usize,
    recoveries: usize,
}

fn record_read(digest: &mut Fnv, coverage: &mut Coverage, read: Result<ReadResult, FtlError>) {
    match read {
        Ok(result) => {
            digest.bytes(&result.data);
            digest.status(result.status);
            digest.u64(result.corrected_bits as u64);
            coverage.corrected_bits += result.corrected_bits;
            if result.status == PageStatus::DegradedDetected {
                coverage.degraded_reads += 1;
            }
        }
        Err(e) => digest.text(&e.to_string()),
    }
}

fn is_power_loss<T>(result: &Result<T, FtlError>) -> bool {
    matches!(result, Err(FtlError::Device(FlashError::PowerLoss)))
}

/// Runs the trace for one FTL configuration, folding it into `digest`.
///
/// Every block first endures `pre_wear` erase cycles, so bit errors are
/// frequent from the start.
fn trace(config: FtlConfig, pre_wear: u32, seed: u64, digest: &mut Fnv, coverage: &mut Coverage) {
    let device_config = DeviceConfig::tiny(CellDensity::Plc).with_seed(seed);
    let mut device = FlashDevice::new(&device_config);
    for block in 0..device.geometry().total_blocks() {
        device
            .set_block_mode(block, config.mode)
            .expect("fresh block");
        for _ in 0..pre_wear {
            device
                .erase(block)
                .expect("wear stays below erase failures");
        }
    }
    let mut ftl = Ftl::try_new_with_device(device, config.clone()).expect("configuration fits");
    for at in [1700, 2000, 2300, 3000] {
        ftl.arm_fault(
            FaultPlan {
                kind: FaultKind::ReadNoise { bits: 6 },
                at: FaultAt::OpCount(at),
            },
            seed,
        );
    }
    ftl.arm_fault(
        FaultPlan {
            kind: FaultKind::PowerCut,
            at: FaultAt::OpCount(2600),
        },
        seed,
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD16E57);
    let working_set = ftl.logical_pages() * 9 / 10;
    let page_bytes = ftl.page_bytes();
    // Fill the working set once so the overwrites below drive GC.
    for lpn in 0..working_set {
        let data: Vec<u8> = (0..page_bytes).map(|_| rng.gen()).collect();
        if let Err(e) = ftl.write(lpn, &data) {
            digest.text(&e.to_string());
        }
    }
    for round in 0..ROUNDS {
        let mut crashed = false;
        for _ in 0..WRITES_PER_ROUND {
            let lpn = rng.gen_range(0..working_set);
            let data: Vec<u8> = (0..page_bytes).map(|_| rng.gen()).collect();
            let result = ftl.write(lpn, &data);
            crashed |= is_power_loss(&result);
            if let Err(e) = result {
                digest.text(&e.to_string());
            }
        }
        for _ in 0..READS_PER_ROUND {
            let lpn = rng.gen_range(0..working_set);
            let read = ftl.read(lpn);
            crashed |= is_power_loss(&read);
            record_read(digest, coverage, read);
        }
        for _ in 0..5 {
            let lpn = rng.gen_range(0..working_set);
            if let Err(e) = ftl.trim(lpn) {
                digest.text(&e.to_string());
            }
        }
        ftl.advance_days(12.0);
        if round % 3 == 2 {
            let scrub = ftl.scrub();
            crashed |= is_power_loss(&scrub);
            digest.text(&format!("{scrub:?}"));
        }
        if round % 4 == 3 {
            let checkpoint = ftl.checkpoint();
            crashed |= is_power_loss(&checkpoint);
            digest.text(&format!("{checkpoint:?}"));
        }
        if crashed {
            let (recovered, report) =
                Ftl::recover(ftl.into_device(), config.clone()).expect("recovery succeeds");
            digest.text(&format!("{report:?}"));
            coverage.recoveries += 1;
            ftl = recovered;
        }
    }
    for lpn in 0..working_set {
        if ftl.is_mapped(lpn) {
            record_read(digest, coverage, ftl.read(lpn));
        }
    }
    digest.text(&format!("{:?}", ftl.stats()));
    digest.text(&format!("{:?}", ftl.device().stats()));

    // Sweep every fourth programmed page — live, stale and checkpoint —
    // the way the FTL reads one: a device read, then the codec.
    let geometry = *ftl.device().geometry();
    let codec = PageCodec::new(
        config.ecc,
        geometry.page_bytes as usize,
        geometry.spare_bytes as usize,
    )
    .expect("configuration fits");
    let data_bits = geometry.page_bytes as usize * 8;
    let mut device = ftl.into_device();
    for block in device.snapshot_blocks() {
        if block.bad {
            continue;
        }
        let pages = block.programmed.iter().filter(|p| !block.torn.contains(p));
        for page in pages.step_by(4) {
            let addr =
                geometry.page_addr(block.block * geometry.pages_per_block as u64 + *page as u64);
            let outcome = match device.read(addr) {
                Ok(outcome) => outcome,
                Err(e) => {
                    digest.text(&e.to_string());
                    continue;
                }
            };
            if outcome
                .injected_positions
                .iter()
                .any(|&bit| bit >= data_bits)
            {
                coverage.spare_hit_reads += 1;
            }
            let report = codec
                .decode_framed(&outcome.data, &outcome.injected_positions)
                .expect("page geometry matches");
            digest.bytes(&report.data);
            digest.status(report.status);
            digest.u64(report.corrected_bits as u64);
        }
    }
    digest.text(&format!("{:?}", device.stats()));
}

#[test]
fn worn_plc_trace_matches_golden_digest() {
    let mut digest = Fnv::new();
    let mut coverage = Coverage::default();
    for (index, (config, pre_wear)) in [
        (FtlConfig::sos_sys(), 350),
        (FtlConfig::sos_spare(), 100),
        (
            FtlConfig::conventional(ProgramMode::native(CellDensity::Plc)),
            30,
        ),
    ]
    .into_iter()
    .enumerate()
    {
        trace(
            config,
            pre_wear,
            1000 + index as u64,
            &mut digest,
            &mut coverage,
        );
    }
    assert!(coverage.corrected_bits > 0, "{coverage:?}");
    assert!(coverage.degraded_reads > 0, "{coverage:?}");
    assert!(coverage.spare_hit_reads > 0, "{coverage:?}");
    assert!(coverage.recoveries > 0, "{coverage:?}");
    assert_eq!(digest.0, GOLDEN, "digest {:016x}", digest.0);
}
