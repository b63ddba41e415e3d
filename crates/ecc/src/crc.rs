//! CRC-32 (IEEE 802.3) — detection-only integrity checking.
//!
//! Approximate storage (§4.2) stores SPARE data with weak or no
//! correction, but SOS still needs to *know* when data has degraded so it
//! can trigger refresh, cloud repair or deletion. A CRC per page provides
//! that detection at 4 bytes of overhead.

const POLY: u32 = 0xEDB8_8320; // reflected IEEE polynomial

/// Lazily-built 256-entry CRC table.
fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        t
    })
}

/// Computes the CRC-32 of `data`.
// sos-lint: allow(panic-path, "the table index is masked to 8 bits against a 256-entry table")
pub fn crc32(data: &[u8]) -> u32 {
    let t = table();
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ t[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// How [`crc32`] of a `len`-byte message changes when its bit `bit`
/// (bit `bit % 8` of byte `bit / 8`) flips.
///
/// CRC-32 is affine over GF(2), so the change does not depend on the
/// message, and flipping several bits changes the CRC by the XOR of
/// their deltas. This lets a reader that knows which bits flipped compare
/// against a CRC without a pass over the message. Bits past the message
/// have no effect (delta 0).
pub fn crc32_flip_delta(len: usize, bit: usize) -> u32 {
    let byte = bit / 8;
    let Some(zeros) = len.checked_sub(byte + 1) else {
        return 0;
    };
    // From a zero register, the flipped byte leaves its table entry;
    // each following zero byte then applies the linear step
    // `crc -> (crc >> 8) ^ table[crc & 0xFF]`, taken in powers of two.
    let mut delta = table().get(1usize << (bit % 8)).copied().unwrap_or(0);
    let mut remaining = zeros;
    for step in zero_steps() {
        if remaining == 0 {
            break;
        }
        if remaining & 1 == 1 {
            delta = apply(step, delta);
        }
        remaining >>= 1;
    }
    delta
}

/// The linear step of `2^i` zero bytes, for every `i` a `usize` length
/// can need, each as the images of the 32 register bits.
fn zero_steps() -> &'static [[u32; 32]] {
    use std::sync::OnceLock;
    static STEPS: OnceLock<Vec<[u32; 32]>> = OnceLock::new();
    STEPS.get_or_init(|| {
        let t = table();
        let mut step = [0u32; 32];
        for (k, image) in step.iter_mut().enumerate() {
            let crc = 1u32 << k;
            *image = (crc >> 8) ^ t.get((crc & 0xFF) as usize).copied().unwrap_or(0);
        }
        let mut steps = Vec::with_capacity(usize::BITS as usize);
        for _ in 0..usize::BITS {
            steps.push(step);
            step = step.map(|image| apply(&step, image));
        }
        steps
    })
}

/// Applies a linear map, given as the images of the register bits.
fn apply(images: &[u32; 32], crc: u32) -> u32 {
    images
        .iter()
        .enumerate()
        .filter(|&(k, _)| crc >> k & 1 == 1)
        .fold(0, |acc, (_, image)| acc ^ image)
}

/// Incremental CRC-32 state for streaming use.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }
}

impl Crc32 {
    /// Starts a fresh computation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = table();
        for &byte in data {
            self.state = (self.state >> 8) ^ t[((self.state ^ byte as u32) & 0xFF) as usize];
        }
    }

    /// Finishes and returns the checksum.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000).map(|i| (i * 31) as u8).collect();
        let oneshot = crc32(&data);
        let mut inc = Crc32::new();
        for chunk in data.chunks(17) {
            inc.update(chunk);
        }
        assert_eq!(inc.finalize(), oneshot);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0x42u8; 64];
        let clean = crc32(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), clean, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn flip_delta_matches_recomputation() {
        let data: Vec<u8> = (0..3000u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in [1usize, 2, 9, 64, 1537, 3000] {
            let message = &data[..len];
            let clean = crc32(message);
            let mut bits: Vec<usize> = (0..8).collect();
            bits.extend(
                [len * 4 + 3, (len * 8).saturating_sub(9), len * 8 - 1]
                    .into_iter()
                    .filter(|&b| b < len * 8),
            );
            for bit in bits {
                let mut flipped = message.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(
                    crc32_flip_delta(len, bit),
                    clean ^ crc32(&flipped),
                    "len {len} bit {bit}"
                );
            }
            // Several flips: the deltas XOR together.
            let several = [1, len * 8 / 2, len * 8 - 1];
            let mut flipped = message.to_vec();
            let mut delta = 0;
            for &bit in &several {
                flipped[bit / 8] ^= 1 << (bit % 8);
                delta ^= crc32_flip_delta(len, bit);
            }
            assert_eq!(delta, clean ^ crc32(&flipped), "len {len}");
            assert_eq!(crc32_flip_delta(len, len * 8), 0);
        }
    }

    #[test]
    fn detects_transpositions() {
        let a = b"page contents AB".to_vec();
        let mut b = a.clone();
        b.swap(14, 15);
        assert_ne!(crc32(&a), crc32(&b));
    }
}
