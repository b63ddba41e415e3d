//! Deferred parity is bit-identical to eager encoding.
//!
//! The flash translation layer programs pages with [`PageCodec::frame`]
//! (data plus a zero spare area) and decodes them with
//! [`PageCodec::decode_framed`], which rebuilds only the parity a read
//! consults. These tests pin the contract that makes that sound: for
//! every scheme, geometry and dirty set,
//! `decode_framed(frame(d) ⊕ E, E)` equals
//! `decode_with_dirty(encode(d) ⊕ E, E)` in data, status and corrected
//! bits — and so does `decode_framed(encode(d) ⊕ E, E)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos_ecc::{BchCode, DecodeReport, EccScheme, PageCodec, PageStatus, CHUNK_BYTES};

const T: usize = 18;

/// The four schemes the simulator configures.
fn schemes() -> [EccScheme; 4] {
    [
        EccScheme::None,
        EccScheme::DetectOnly,
        EccScheme::Bch { t: T },
        EccScheme::PrioritySplit {
            t: T,
            protected_chunks: 1,
        },
    ]
}

/// Page geometries (data, spare) in use: 2 KiB and 4 KiB pages.
const GEOMETRIES: [(usize, usize); 2] = [(2048, 128), (4096, 256)];

fn flip(raw: &mut [u8], positions: &[usize]) {
    for &bit in positions {
        raw[bit / 8] ^= 1 << (bit % 8);
    }
}

fn same(a: &DecodeReport, b: &DecodeReport) -> bool {
    a.data == b.data && a.status == b.status && a.corrected_bits == b.corrected_bits
}

/// Decodes `data` ⊕ `flips` three ways — eager reference, deferred on a
/// framed page, deferred on an eagerly encoded page — asserts they agree
/// and returns the reference report.
fn check(codec: &PageCodec, data: &[u8], flips: &[usize], what: &str) -> DecodeReport {
    let mut eager = codec.encode(data).unwrap();
    flip(&mut eager, flips);
    let mut framed = codec.frame(data).unwrap();
    flip(&mut framed, flips);
    let reference = codec.decode_with_dirty(&eager, flips).unwrap();
    let deferred = codec.decode_framed(&framed, flips).unwrap();
    let on_eager = codec.decode_framed(&eager, flips).unwrap();
    let name = codec.scheme().name();
    let size = codec.data_bytes();
    assert!(
        same(&reference, &deferred),
        "{name}/{size} {what}: framed {:?}/{} vs eager {:?}/{}",
        deferred.status,
        deferred.corrected_bits,
        reference.status,
        reference.corrected_bits
    );
    assert!(
        same(&reference, &on_eager),
        "{name}/{size} {what}: decode_framed on an encoded page differs"
    );
    reference
}

fn random_bits(rng: &mut StdRng, range: std::ops::Range<usize>, count: usize) -> Vec<usize> {
    (0..count).map(|_| rng.gen_range(range.clone())).collect()
}

/// A nonzero data pattern inside one chunk whose BCH parity is zero: a
/// codeword living entirely in the data area, found by Gaussian
/// elimination over the parity images of the chunk's first `p + 1`
/// data bits.
fn zero_parity_pattern(code: &BchCode) -> Vec<usize> {
    let candidates = code.parity_bits() + 1;
    // Each row: (parity image, set of data bits combined into it).
    let mut basis: Vec<(Vec<u8>, Vec<usize>)> = Vec::new();
    for bit in 0..candidates {
        let mut unit = vec![0u8; CHUNK_BYTES];
        unit[bit / 8] ^= 1 << (bit % 8);
        let mut row = (code.encode(&unit), vec![bit]);
        for (image, combo) in &basis {
            let pivot = image.iter().position(|&b| b != 0).unwrap();
            let pivot_bit = image[pivot].trailing_zeros();
            if row.0[pivot] >> pivot_bit & 1 == 1 {
                for (a, b) in row.0.iter_mut().zip(image) {
                    *a ^= b;
                }
                for &c in combo {
                    match row.1.iter().position(|&x| x == c) {
                        Some(i) => {
                            row.1.swap_remove(i);
                        }
                        None => row.1.push(c),
                    }
                }
            }
        }
        if row.0.iter().all(|&b| b == 0) {
            row.1.sort_unstable();
            return row.1;
        }
        // Keep the basis in echelon form: a new pivot must not be set in
        // any earlier row (reduce earlier rows by the new one).
        let pivot = row.0.iter().position(|&b| b != 0).unwrap();
        let pivot_bit = row.0[pivot].trailing_zeros();
        for (image, combo) in basis.iter_mut() {
            if image[pivot] >> pivot_bit & 1 == 1 {
                for (a, b) in image.iter_mut().zip(&row.0) {
                    *a ^= b;
                }
                for &c in &row.1 {
                    match combo.iter().position(|&x| x == c) {
                        Some(i) => {
                            combo.swap_remove(i);
                        }
                        None => combo.push(c),
                    }
                }
            }
        }
        basis.push(row);
    }
    panic!("more candidate bits than parity bits always leaves a kernel vector")
}

#[test]
fn framed_decode_matches_eager_on_random_dirty_sets() {
    let mut rng = StdRng::seed_from_u64(0x5EED_FA11);
    for (data_bytes, spare_bytes) in GEOMETRIES {
        let data_bits = data_bytes * 8;
        let raw_bits = (data_bytes + spare_bytes) * 8;
        for scheme in schemes() {
            let codec = PageCodec::new(scheme, data_bytes, spare_bytes).unwrap();
            let overhead = scheme.overhead_bytes(data_bytes);
            let padding = (data_bytes + overhead) * 8..raw_bits;
            for round in 0..40 {
                let data: Vec<u8> = (0..data_bytes).map(|_| rng.gen()).collect();
                let count = [0usize, 1, 3, 12, 40][round % 5];
                let data_only = random_bits(&mut rng, 0..data_bits, count);
                check(&codec, &data, &data_only, "data-only");

                let spare_only = random_bits(&mut rng, data_bits..raw_bits, 1 + count % 7);
                check(&codec, &data, &spare_only, "spare-only");
                if !padding.is_empty() {
                    let pad = random_bits(&mut rng, padding.clone(), 1 + round % 3);
                    check(&codec, &data, &pad, "spare padding");
                }
                let mut mixed = data_only.clone();
                mixed.extend(&spare_only);
                check(&codec, &data, &mixed, "mixed");

                // Read noise on top of injection: the same position can
                // be listed (and flipped) twice.
                let mut duplicated = data_only.clone();
                duplicated.extend(data_only.iter().take(2));
                duplicated.push(rng.gen_range(0..data_bits));
                check(&codec, &data, &duplicated, "duplicated data");
                let mut duplicated_spare = spare_only.clone();
                duplicated_spare.extend(spare_only.iter().take(1));
                duplicated_spare.extend(data_only.iter().take(1));
                check(&codec, &data, &duplicated_spare, "duplicated spare");
                // Data flips that cancel out beside a spare hit: the full
                // decode's CRC comparison sees a clean tail.
                let bit = rng.gen_range(0..data_bits);
                let spare_bit = rng.gen_range(data_bits..raw_bits);
                check(
                    &codec,
                    &data,
                    &[bit, spare_bit, bit],
                    "cancelled data + spare",
                );
            }
        }
    }
}

#[test]
fn more_than_t_errors_in_one_chunk_fail_alike() {
    let mut rng = StdRng::seed_from_u64(77);
    for (data_bytes, spare_bytes) in GEOMETRIES {
        for scheme in schemes() {
            let codec = PageCodec::new(scheme, data_bytes, spare_bytes).unwrap();
            let correcting = matches!(
                scheme,
                EccScheme::Bch { .. } | EccScheme::PrioritySplit { .. }
            );
            for _ in 0..6 {
                let data: Vec<u8> = (0..data_bytes).map(|_| rng.gen()).collect();
                // 2t+10 errors in chunk 0 (BCH-protected in both schemes).
                let mut flips = random_bits(&mut rng, 0..CHUNK_BYTES * 8, 2 * T + 10);
                flips.sort_unstable();
                flips.dedup();
                let report = check(&codec, &data, &flips, "over-t data");
                if correcting {
                    assert_eq!(report.status, PageStatus::Uncorrectable);
                }
                // The same with a spare hit: the full decode path.
                flips.push(data_bytes * 8 + rng.gen_range(0..spare_bytes * 8));
                let report = check(&codec, &data, &flips, "over-t data + spare");
                if correcting {
                    assert_eq!(report.status, PageStatus::Uncorrectable);
                }
            }
        }
    }
}

#[test]
fn miscorrection_beyond_t_is_reproduced() {
    let mut rng = StdRng::seed_from_u64(4242);
    let code = BchCode::new(13, T);
    // A codeword confined to chunk 0's data area (zero parity).
    let kernel = zero_parity_pattern(&code);
    assert!(kernel.len() > 2 * T, "minimum distance is at least 2t+1");
    for (data_bytes, spare_bytes) in GEOMETRIES {
        for scheme in [
            EccScheme::Bch { t: T },
            EccScheme::PrioritySplit {
                t: T,
                protected_chunks: 1,
            },
        ] {
            let codec = PageCodec::new(scheme, data_bytes, spare_bytes).unwrap();
            for kept_out in [1usize, 3, T] {
                let data: Vec<u8> = (0..data_bytes).map(|_| rng.gen()).collect();
                // Data-only: flip all but `kept_out` bits of the kernel
                // codeword. The word is then `kept_out` bits from
                // `data ⊕ kernel`, so BCH "corrects" towards it.
                let flips = &kernel[kept_out..];
                let report = check(&codec, &data, flips, "data-only miscorrection");
                let mut wrong = data.clone();
                flip(&mut wrong, &kernel);
                assert_eq!(report.status, PageStatus::Intact);
                assert_eq!(report.corrected_bits, kept_out);
                assert_eq!(report.data[..CHUNK_BYTES], wrong[..CHUNK_BYTES]);

                // Spare-including: by linearity, (Δ, parity(Δ)) is a
                // codeword for any chunk-0 data pattern Δ; flip all but
                // `kept_out` of its bits across data and parity.
                let mut codeword = random_bits(&mut rng, 0..CHUNK_BYTES * 8, 3);
                codeword.sort_unstable();
                codeword.dedup();
                let delta_len = codeword.len();
                let mut delta = vec![0u8; CHUNK_BYTES];
                flip(&mut delta, &codeword);
                let parity = code.encode(&delta);
                codeword.extend(
                    (0..code.parity_bits())
                        .filter(|&b| parity[b / 8] >> (b % 8) & 1 == 1)
                        .map(|b| data_bytes * 8 + b),
                );
                let flips = &codeword[..codeword.len() - kept_out];
                let report = check(&codec, &data, flips, "spare miscorrection");
                let mut wrong = data.clone();
                flip(&mut wrong, &codeword[..delta_len]);
                assert_eq!(report.status, PageStatus::Intact);
                assert_eq!(report.corrected_bits, kept_out);
                assert_eq!(report.data[..CHUNK_BYTES], wrong[..CHUNK_BYTES]);
            }
        }
    }
}

#[test]
fn frame_is_data_then_zero_spare() {
    for (data_bytes, spare_bytes) in GEOMETRIES {
        for scheme in schemes() {
            let codec = PageCodec::new(scheme, data_bytes, spare_bytes).unwrap();
            let data: Vec<u8> = (0..data_bytes).map(|i| (i * 7) as u8).collect();
            let framed = codec.frame(&data).unwrap();
            assert_eq!(framed.len(), codec.raw_bytes());
            assert_eq!(framed[..data_bytes], data[..]);
            assert!(framed[data_bytes..].iter().all(|&b| b == 0));
            let clean = codec.decode_framed(&framed, &[]).unwrap();
            assert_eq!(clean.data, data);
            assert_eq!(clean.status, PageStatus::Intact);
            assert!(codec.frame(&data[1..]).is_err());
            assert!(codec.decode_framed(&framed[1..], &[]).is_err());
        }
    }
}
