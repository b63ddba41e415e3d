//! Page-level ECC schemes, including approximate (priority-split) modes.
//!
//! SOS stores SYS pages with strong correction and SPARE pages with weak
//! protection, "assuming that applications can tolerate the implications
//! of increased error rates over time" (§4.2). A [`PageCodec`] binds one
//! [`EccScheme`] to a page geometry: `encode` packs data + redundancy into
//! `data + spare` bytes, `decode` recovers data and reports its status.
//! The FTL uses the deferred-parity pair instead: `frame` stores data
//! with a zero spare area, and `decode_framed` computes only the
//! redundancy a read with injected errors consults.
//!
//! The [`EccScheme::PrioritySplit`] variant implements approximate storage
//! in the style of Sampson et al. (TOCS '14): a protected prefix (headers,
//! high-priority bits) gets real BCH, the error-tolerant tail gets only
//! CRC detection, so bit errors degrade quality instead of destroying the
//! object.

use crate::bch::{BchCode, BchError};
use crate::crc::{crc32, crc32_flip_delta};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Codeword chunk size: each chunk is protected by an independent BCH
/// codeword, matching real flash controllers.
pub const CHUNK_BYTES: usize = 512;

/// How a page's contents are protected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EccScheme {
    /// No redundancy at all: pure approximate storage. Errors pass
    /// through silently.
    None,
    /// CRC-32 only: errors are detected (per page) but not corrected.
    DetectOnly,
    /// BCH with correction capability `t` per 512-byte chunk.
    Bch {
        /// Bit errors correctable per chunk.
        t: usize,
    },
    /// Approximate storage: the first `protected_chunks` chunks get BCH
    /// (`t` per chunk), the remainder gets CRC detection only.
    PrioritySplit {
        /// Bit errors correctable per protected chunk.
        t: usize,
        /// Number of leading chunks that receive full protection.
        protected_chunks: usize,
    },
}

/// Health of a decoded page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PageStatus {
    /// All protected data verified; no residual errors detected.
    Intact,
    /// The page decoded but carries detected residual errors in its
    /// unprotected (approximate) region — quality has degraded.
    DegradedDetected,
    /// Protected data could not be corrected; the page is lost unless a
    /// higher-level copy exists.
    Uncorrectable,
}

/// Result of decoding a page.
#[derive(Debug, Clone)]
pub struct DecodeReport {
    /// Recovered page data (best effort for degraded/uncorrectable).
    pub data: Vec<u8>,
    /// Bits corrected by ECC across all chunks.
    pub corrected_bits: usize,
    /// Data health.
    pub status: PageStatus,
}

/// Errors constructing or using a codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The scheme's redundancy does not fit the spare area.
    SpareTooSmall {
        /// Redundancy bytes required.
        needed: usize,
        /// Spare bytes available.
        available: usize,
    },
    /// Input length does not match the codec's data size.
    WrongDataLength {
        /// Expected bytes.
        expected: usize,
        /// Got bytes.
        got: usize,
    },
    /// Raw page length does not match `data + spare`.
    WrongRawLength {
        /// Expected bytes.
        expected: usize,
        /// Got bytes.
        got: usize,
    },
    /// `protected_chunks` exceeds the page's chunk count.
    BadProtectedRange,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::SpareTooSmall { needed, available } => {
                write!(f, "spare too small: need {needed} bytes, have {available}")
            }
            CodecError::WrongDataLength { expected, got } => {
                write!(f, "wrong data length: expected {expected}, got {got}")
            }
            CodecError::WrongRawLength { expected, got } => {
                write!(f, "wrong raw length: expected {expected}, got {got}")
            }
            CodecError::BadProtectedRange => write!(f, "protected chunk range exceeds page"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Returns a cached BCH code over GF(2^13) for correction capability `t`.
// sos-lint: allow(panic-path, "the supported correction strengths are a fixed compile-time set")
fn bch_for(t: usize) -> Arc<BchCode> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<BchCode>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = cache.lock().expect("bch cache poisoned");
    guard
        .entry(t)
        .or_insert_with(|| Arc::new(BchCode::new(13, t)))
        .clone()
}

impl EccScheme {
    /// Redundancy bytes this scheme needs for `data_bytes` of payload.
    pub fn overhead_bytes(&self, data_bytes: usize) -> usize {
        let chunks = data_bytes.div_ceil(CHUNK_BYTES);
        match *self {
            EccScheme::None => 0,
            EccScheme::DetectOnly => 4,
            EccScheme::Bch { t } => chunks * bch_for(t).parity_bytes(),
            EccScheme::PrioritySplit {
                t,
                protected_chunks,
            } => protected_chunks.min(chunks) * bch_for(t).parity_bytes() + 4,
        }
    }

    /// Raw bit error rate this scheme tolerates on *protected* data with
    /// per-codeword failure probability below `target`. Detection-only
    /// and unprotected schemes return `0.0` (no correction at all).
    pub fn protected_rber_limit(&self, target: f64) -> f64 {
        match *self {
            EccScheme::None | EccScheme::DetectOnly => 0.0,
            EccScheme::Bch { t } | EccScheme::PrioritySplit { t, .. } => {
                bch_for(t).rber_limit(CHUNK_BYTES, target)
            }
        }
    }

    /// A human-readable short name.
    pub fn name(&self) -> String {
        match *self {
            EccScheme::None => "none".into(),
            EccScheme::DetectOnly => "crc".into(),
            EccScheme::Bch { t } => format!("bch-t{t}"),
            EccScheme::PrioritySplit {
                t,
                protected_chunks,
            } => {
                format!("split-t{t}-p{protected_chunks}")
            }
        }
    }
}

/// A page codec: one ECC scheme bound to a page geometry.
#[derive(Debug, Clone)]
pub struct PageCodec {
    scheme: EccScheme,
    data_bytes: usize,
    spare_bytes: usize,
    /// The chunk code for BCH-backed schemes, resolved once at
    /// construction so per-page encode/decode skips the global cache
    /// lock.
    code: Option<Arc<BchCode>>,
}

impl PageCodec {
    /// Creates a codec, validating that the scheme fits the spare area.
    pub fn new(
        scheme: EccScheme,
        data_bytes: usize,
        spare_bytes: usize,
    ) -> Result<Self, CodecError> {
        let needed = scheme.overhead_bytes(data_bytes);
        if needed > spare_bytes {
            return Err(CodecError::SpareTooSmall {
                needed,
                available: spare_bytes,
            });
        }
        if let EccScheme::PrioritySplit {
            protected_chunks, ..
        } = scheme
        {
            if protected_chunks > data_bytes.div_ceil(CHUNK_BYTES) {
                return Err(CodecError::BadProtectedRange);
            }
        }
        let code = match scheme {
            EccScheme::Bch { t } | EccScheme::PrioritySplit { t, .. } => Some(bch_for(t)),
            EccScheme::None | EccScheme::DetectOnly => None,
        };
        Ok(PageCodec {
            scheme,
            data_bytes,
            spare_bytes,
            code,
        })
    }

    /// The chunk code for correction strength `t`: the one cached at
    /// construction, or (defensively) the global cache's.
    fn code_for(&self, t: usize) -> Arc<BchCode> {
        match &self.code {
            Some(code) => Arc::clone(code),
            None => bch_for(t),
        }
    }

    /// The scheme in use.
    pub fn scheme(&self) -> EccScheme {
        self.scheme
    }

    /// Payload size in bytes.
    pub fn data_bytes(&self) -> usize {
        self.data_bytes
    }

    /// Total raw page size (`data + spare`).
    pub fn raw_bytes(&self) -> usize {
        self.data_bytes + self.spare_bytes
    }

    /// Checks that `data` is exactly one payload long.
    fn check_data(&self, data: &[u8]) -> Result<(), CodecError> {
        if data.len() == self.data_bytes {
            Ok(())
        } else {
            Err(CodecError::WrongDataLength {
                expected: self.data_bytes,
                got: data.len(),
            })
        }
    }

    /// Splits a raw page into its data and spare areas.
    fn split_raw<'a>(&self, raw: &'a [u8]) -> Result<(&'a [u8], &'a [u8]), CodecError> {
        if raw.len() != self.raw_bytes() {
            return Err(CodecError::WrongRawLength {
                expected: self.raw_bytes(),
                got: raw.len(),
            });
        }
        Ok(raw.split_at(self.data_bytes))
    }

    /// Encodes `data` into a raw page (data followed by redundancy and
    /// zero padding to the spare size).
    ///
    /// # Errors
    ///
    /// Fails if `data` is not exactly `data_bytes` long.
    pub fn encode(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        self.check_data(data)?;
        let mut raw = Vec::with_capacity(self.raw_bytes());
        raw.extend_from_slice(data);
        let layout = self.layout();
        let (head, tail) = data.split_at(layout.end);
        if let Some(code) = &layout.code {
            for chunk in head.chunks(CHUNK_BYTES) {
                code.encode_append(chunk, &mut raw);
            }
        }
        if layout.crc_at.is_some() {
            raw.extend_from_slice(&crc32(tail).to_le_bytes());
        }
        raw.resize(self.raw_bytes(), 0);
        Ok(raw)
    }

    /// Frames `data` for programming without computing its redundancy:
    /// data followed by a zero spare area.
    ///
    /// The redundancy is a pure function of the data, so the simulator
    /// stores only the data and [`Self::decode_framed`] rebuilds the
    /// parity a read actually consults from the un-flipped data. Reads
    /// without injected errors — nearly all of them — never need it.
    ///
    /// # Errors
    ///
    /// Fails if `data` is not exactly `data_bytes` long.
    pub fn frame(&self, data: &[u8]) -> Result<Vec<u8>, CodecError> {
        self.check_data(data)?;
        let mut raw = Vec::with_capacity(self.raw_bytes());
        raw.extend_from_slice(data);
        raw.resize(self.raw_bytes(), 0);
        Ok(raw)
    }

    /// Decodes a raw page, skipping ECC work on chunks known to be
    /// error-free.
    ///
    /// `dirty_bits` are the bit positions (within the raw page) known to
    /// carry errors — simulator knowledge standing in for a hardware
    /// zero-syndrome shortcut. Chunks without dirty bits decode to
    /// themselves, so skipping them is observationally equivalent.
    ///
    /// # Errors
    ///
    /// Fails only on length mismatch.
    pub fn decode_with_dirty(
        &self,
        raw: &[u8],
        dirty_bits: &[usize],
    ) -> Result<DecodeReport, CodecError> {
        let (data, spare) = self.split_raw(raw)?;
        let mut data = data.to_vec();
        if dirty_bits.is_empty() {
            return Ok(intact(data));
        }
        // A dirty byte anywhere in the spare area may hit any chunk's
        // parity or the CRC; fall back to the full decode in that case.
        if self.spare_is_dirty(dirty_bits) {
            return Ok(self.decode_parts(data, spare));
        }
        let layout = self.layout();
        let (head, _tail) = data.split_at_mut(layout.end);
        let (corrected_bits, failed) = match &layout.code {
            Some(code) => {
                let mask = data_chunk_mask(dirty_bits, layout.end);
                correct_chunks(code, head, mask, &mut spare.to_vec(), false)
            }
            None => (0, false),
        };
        let status = layout.data_only_status(failed, dirty_bits);
        Ok(DecodeReport {
            data,
            corrected_bits,
            status,
        })
    }

    /// Decodes a page written by [`Self::frame`], computing only the
    /// redundancy this read consults.
    ///
    /// `noisy` is the framed page with the bit positions in
    /// `dirty_bits` flipped (the flash read's injected errors; a
    /// position listed twice is flipped twice). The result equals
    /// [`Self::decode_with_dirty`] on the eagerly encoded page with the
    /// same flips, in data, status and corrected bits:
    ///
    /// * no dirty bits: the data is returned as is;
    /// * otherwise every BCH chunk with a dirty bit in its data or its
    ///   parity is un-flipped in place, encoded and re-flipped, its
    ///   parity flips are applied, and the decoder runs on exactly the
    ///   codeword the eager page would hold. Other chunks are clean on
    ///   both sides and decode to themselves;
    /// * a CRC is consulted as the eager path would: from the dirty
    ///   bits alone when only data bits are dirty, and as a comparison
    ///   of the tail with its stored CRC when the spare is. That
    ///   comparison needs no CRC pass: both sides differ from the clean
    ///   tail's CRC by the flips' deltas ([`crc32_flip_delta`]).
    ///
    /// The stored spare is never read, so an eagerly encoded page
    /// decodes the same way.
    ///
    /// # Errors
    ///
    /// Fails only on length mismatch.
    pub fn decode_framed(
        &self,
        noisy: &[u8],
        dirty_bits: &[usize],
    ) -> Result<DecodeReport, CodecError> {
        let (data, _stored_spare) = self.split_raw(noisy)?;
        let mut data = data.to_vec();
        if dirty_bits.is_empty() {
            return Ok(intact(data));
        }
        let layout = self.layout();
        let spare_base = self.data_bytes * 8;
        let (head, tail) = data.split_at_mut(layout.end);
        let (corrected_bits, failed) = match &layout.code {
            Some(code) => {
                let pb = code.parity_bytes();
                let parity_len = chunk_count(head) * pb;
                let parity_hits = dirty_bits
                    .iter()
                    .filter_map(|&bit| bit.checked_sub(spare_base))
                    .map(|bit| bit / 8)
                    .filter(|&byte| byte < parity_len);
                match data_chunk_mask(dirty_bits, layout.end) | chunk_mask(parity_hits, pb) {
                    0 => (0, false),
                    mask => {
                        // One parity slot per chunk, laid out as in the
                        // spare area; only the selected chunks are encoded.
                        let mut parity = Vec::with_capacity(parity_len);
                        flip_bits(head, dirty_bits, 0);
                        for (index, chunk) in head.chunks(CHUNK_BYTES).enumerate() {
                            if selected(mask, index) {
                                code.encode_append(chunk, &mut parity);
                            } else {
                                parity.resize(parity.len() + pb, 0);
                            }
                        }
                        flip_bits(head, dirty_bits, 0);
                        flip_bits(&mut parity, dirty_bits, spare_base);
                        correct_chunks(code, head, mask, &mut parity, true)
                    }
                }
            }
            None => (0, false),
        };
        let status = match layout.crc_at {
            Some(crc_at) if !failed && self.spare_is_dirty(dirty_bits) => {
                // The eager full decode compares the tail's CRC with the
                // stored one. Both differ from the clean tail's CRC by
                // flips alone: the tail flips move the computed CRC by
                // their deltas, the CRC-byte flips move the stored one.
                let tail_base = layout.end * 8;
                let computed = dirty_bits
                    .iter()
                    .filter_map(|&bit| bit.checked_sub(tail_base))
                    .fold(0, |delta, bit| delta ^ crc32_flip_delta(tail.len(), bit));
                let mut stored = [0u8; 4];
                flip_bits(&mut stored, dirty_bits, spare_base + crc_at * 8);
                if u32::from_le_bytes(stored) == computed {
                    PageStatus::Intact
                } else {
                    PageStatus::DegradedDetected
                }
            }
            _ => layout.data_only_status(failed, dirty_bits),
        };
        Ok(DecodeReport {
            data,
            corrected_bits,
            status,
        })
    }

    /// Whether any dirty bit lies in the spare area.
    fn spare_is_dirty(&self, dirty_bits: &[usize]) -> bool {
        dirty_bits.iter().any(|&bit| bit / 8 >= self.data_bytes)
    }

    /// Where this scheme's redundancy lives.
    fn layout(&self) -> Layout {
        match self.scheme {
            EccScheme::None => Layout {
                code: None,
                end: 0,
                crc_at: None,
            },
            EccScheme::DetectOnly => Layout {
                code: None,
                end: 0,
                crc_at: Some(0),
            },
            EccScheme::Bch { t } => Layout {
                code: Some(self.code_for(t)),
                end: self.data_bytes,
                crc_at: None,
            },
            EccScheme::PrioritySplit {
                t,
                protected_chunks,
            } => {
                let code = self.code_for(t);
                let end = protected_end(protected_chunks, self.data_bytes);
                let crc_at = end.div_ceil(CHUNK_BYTES) * code.parity_bytes();
                Layout {
                    code: Some(code),
                    end,
                    crc_at: Some(crc_at),
                }
            }
        }
    }

    /// Decodes a raw page, correcting protected chunks and checking
    /// detection codes.
    ///
    /// # Errors
    ///
    /// Fails only on length mismatch; data-integrity problems are
    /// reported through [`DecodeReport::status`].
    pub fn decode(&self, raw: &[u8]) -> Result<DecodeReport, CodecError> {
        let (data, spare) = self.split_raw(raw)?;
        Ok(self.decode_parts(data.to_vec(), spare))
    }

    /// The full decode of `data` against its spare area.
    fn decode_parts(&self, mut data: Vec<u8>, spare: &[u8]) -> DecodeReport {
        let layout = self.layout();
        let (head, tail) = data.split_at_mut(layout.end);
        let (corrected_bits, failed) = match &layout.code {
            Some(code) => correct_chunks(code, head, u64::MAX, &mut spare.to_vec(), false),
            None => (0, false),
        };
        let status = match layout.crc_at {
            _ if failed => PageStatus::Uncorrectable,
            Some(crc_at) => crc_status(tail, spare.get(crc_at..).unwrap_or_default()),
            None => PageStatus::Intact,
        };
        DecodeReport {
            data,
            corrected_bits,
            status,
        }
    }
}

/// Where a scheme's redundancy lives: BCH (`code`) over `data[..end]`,
/// one parity slot per chunk from the start of the spare area, and a
/// CRC-32 over `data[end..]` at spare offset `crc_at`.
struct Layout {
    code: Option<Arc<BchCode>>,
    end: usize,
    crc_at: Option<usize>,
}

impl Layout {
    /// Status of a read whose dirty bits all lie in the data area: a
    /// dirty bit in the CRC-covered tail means the CRC cannot match.
    fn data_only_status(&self, failed: bool, dirty_bits: &[usize]) -> PageStatus {
        if failed {
            PageStatus::Uncorrectable
        } else if self.crc_at.is_some() && dirty_bits.iter().any(|&bit| bit / 8 >= self.end) {
            PageStatus::DegradedDetected
        } else {
            PageStatus::Intact
        }
    }
}

/// A clean read: the data as stored.
fn intact(data: Vec<u8>) -> DecodeReport {
    DecodeReport {
        data,
        corrected_bits: 0,
        status: PageStatus::Intact,
    }
}

/// End of the BCH-protected prefix of a `len`-byte payload.
fn protected_end(protected_chunks: usize, len: usize) -> usize {
    (protected_chunks * CHUNK_BYTES).min(len)
}

/// Number of codeword chunks in `bytes`.
fn chunk_count(bytes: &[u8]) -> usize {
    bytes.len().div_ceil(CHUNK_BYTES)
}

/// Whether chunk `index` is set in a [`chunk_mask`].
fn selected(mask: u64, index: usize) -> bool {
    mask & (1u64 << index.min(63)) != 0
}

/// Bitmask of the `size`-byte chunks holding the given byte offsets.
/// Chunks 63 and later share the top bit, so they are all decoded
/// together — observationally the same as decoding only the dirty
/// ones, since a clean chunk decodes to itself.
fn chunk_mask(bytes: impl Iterator<Item = usize>, size: usize) -> u64 {
    bytes.fold(0, |mask, byte| {
        mask | 1u64 << byte.checked_div(size).unwrap_or(0).min(63)
    })
}

/// Bitmask of the data chunks holding a dirty bit below byte `end`.
fn data_chunk_mask(dirty_bits: &[usize], end: usize) -> u64 {
    let bytes = dirty_bits
        .iter()
        .map(|&bit| bit / 8)
        .filter(|&byte| byte < end);
    chunk_mask(bytes, CHUNK_BYTES)
}

/// XORs every bit of `bytes` listed in `positions`, which count from
/// bit `base`; positions outside `bytes` are skipped.
fn flip_bits(bytes: &mut [u8], positions: &[usize], base: usize) {
    for &bit in positions {
        let Some(rel) = bit.checked_sub(base) else {
            continue;
        };
        if let Some(byte) = bytes.get_mut(rel / 8) {
            *byte ^= 1u8 << (rel % 8);
        }
    }
}

/// Runs the BCH decoder over the chunks of `head` selected by `mask`,
/// each against its slot of `parity` (one `parity_bytes()` slot per
/// chunk, as in the spare area). `flipped` marks chunks known to carry
/// flips, which skip the clean-word fast accept. Returns the bits
/// corrected and whether any chunk was uncorrectable.
fn correct_chunks(
    code: &BchCode,
    head: &mut [u8],
    mask: u64,
    parity: &mut [u8],
    flipped: bool,
) -> (usize, bool) {
    let mut corrected = 0;
    let mut failed = false;
    let slots = parity.chunks_mut(code.parity_bytes());
    for (index, (chunk, parity)) in head.chunks_mut(CHUNK_BYTES).zip(slots).enumerate() {
        if !selected(mask, index) {
            continue;
        }
        let result = if flipped {
            code.decode_flipped(chunk, parity)
        } else {
            code.decode(chunk, parity)
        };
        match result {
            Ok(n) => corrected += n,
            Err(e) => {
                debug_assert_eq!(e, BchError::Uncorrectable, "codec sizing bug");
                failed = true;
            }
        }
    }
    (corrected, failed)
}

/// Detection status of `data` against the CRC-32 stored at the start of
/// `crc`.
fn crc_status(data: &[u8], crc: &[u8]) -> PageStatus {
    let stored = crc
        .get(..4)
        .and_then(|bytes| <[u8; 4]>::try_from(bytes).ok())
        .map(u32::from_le_bytes);
    if stored == Some(crc32(data)) {
        PageStatus::Intact
    } else {
        PageStatus::DegradedDetected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DATA: usize = 4096;
    const SPARE: usize = 256;

    fn payload(seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..DATA).map(|_| rng.gen()).collect()
    }

    fn flip_bits(raw: &mut [u8], range: std::ops::Range<usize>, count: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::new();
        while seen.len() < count {
            let byte = rng.gen_range(range.clone());
            let bit = rng.gen_range(0u32..8);
            if seen.insert((byte, bit)) {
                raw[byte] ^= 1u8 << bit;
            }
        }
    }

    #[test]
    fn none_scheme_roundtrips_and_passes_errors_silently() {
        let codec = PageCodec::new(EccScheme::None, DATA, SPARE).unwrap();
        let data = payload(1);
        let mut raw = codec.encode(&data).unwrap();
        flip_bits(&mut raw, 0..DATA, 5, 2);
        let report = codec.decode(&raw).unwrap();
        assert_eq!(report.status, PageStatus::Intact); // silent by design
        assert_ne!(report.data, data);
    }

    #[test]
    fn detect_only_flags_degradation() {
        let codec = PageCodec::new(EccScheme::DetectOnly, DATA, SPARE).unwrap();
        let data = payload(3);
        let raw = codec.encode(&data).unwrap();
        let clean = codec.decode(&raw).unwrap();
        assert_eq!(clean.status, PageStatus::Intact);
        assert_eq!(clean.data, data);
        let mut corrupted = raw.clone();
        flip_bits(&mut corrupted, 0..DATA, 1, 4);
        let report = codec.decode(&corrupted).unwrap();
        assert_eq!(report.status, PageStatus::DegradedDetected);
    }

    #[test]
    fn bch_corrects_scattered_errors() {
        let codec = PageCodec::new(EccScheme::Bch { t: 18 }, DATA, SPARE).unwrap();
        let data = payload(5);
        let mut raw = codec.encode(&data).unwrap();
        // 40 errors over the whole page: ~5 per 512-byte chunk, well
        // within t=18 per chunk.
        flip_bits(&mut raw, 0..DATA, 40, 6);
        let report = codec.decode(&raw).unwrap();
        assert_eq!(report.status, PageStatus::Intact);
        assert_eq!(report.data, data);
        assert_eq!(report.corrected_bits, 40);
    }

    #[test]
    fn bch_reports_uncorrectable_when_overwhelmed() {
        let codec = PageCodec::new(EccScheme::Bch { t: 8 }, DATA, SPARE).unwrap();
        let data = payload(7);
        let mut raw = codec.encode(&data).unwrap();
        // Concentrate 30 errors in the first chunk (t=8).
        flip_bits(&mut raw, 0..CHUNK_BYTES, 30, 8);
        let report = codec.decode(&raw).unwrap();
        assert_eq!(report.status, PageStatus::Uncorrectable);
    }

    #[test]
    fn priority_split_protects_head_and_detects_tail() {
        let scheme = EccScheme::PrioritySplit {
            t: 18,
            protected_chunks: 2,
        };
        let codec = PageCodec::new(scheme, DATA, SPARE).unwrap();
        let data = payload(9);
        let mut raw = codec.encode(&data).unwrap();
        // Errors in the protected head get corrected...
        flip_bits(&mut raw, 0..1024, 10, 10);
        // ...errors in the tail are only detected.
        flip_bits(&mut raw, 1024..DATA, 12, 11);
        let report = codec.decode(&raw).unwrap();
        assert_eq!(report.status, PageStatus::DegradedDetected);
        assert_eq!(report.data[..1024], data[..1024], "head must be exact");
        assert_ne!(report.data[1024..], data[1024..], "tail carries errors");
    }

    #[test]
    fn priority_split_clean_page_is_intact() {
        let scheme = EccScheme::PrioritySplit {
            t: 8,
            protected_chunks: 1,
        };
        let codec = PageCodec::new(scheme, DATA, SPARE).unwrap();
        let data = payload(12);
        let raw = codec.encode(&data).unwrap();
        let report = codec.decode(&raw).unwrap();
        assert_eq!(report.status, PageStatus::Intact);
        assert_eq!(report.data, data);
    }

    #[test]
    fn overhead_fits_spare_for_default_schemes() {
        for scheme in [
            EccScheme::None,
            EccScheme::DetectOnly,
            EccScheme::Bch { t: 18 },
            EccScheme::PrioritySplit {
                t: 18,
                protected_chunks: 2,
            },
        ] {
            let overhead = scheme.overhead_bytes(DATA);
            assert!(overhead <= SPARE, "{} needs {overhead}", scheme.name());
            assert!(PageCodec::new(scheme, DATA, SPARE).is_ok());
        }
    }

    #[test]
    fn oversized_scheme_is_rejected() {
        let err = PageCodec::new(EccScheme::Bch { t: 40 }, DATA, SPARE).unwrap_err();
        assert!(matches!(err, CodecError::SpareTooSmall { .. }));
    }

    #[test]
    fn bad_protected_range_is_rejected() {
        let scheme = EccScheme::PrioritySplit {
            t: 4,
            protected_chunks: 9, // page has 8 chunks
        };
        // Overhead for 9 protected chunks of t=4 is small enough to fit,
        // so the range check must catch it.
        let err = PageCodec::new(scheme, DATA, SPARE).unwrap_err();
        assert!(matches!(err, CodecError::BadProtectedRange));
    }

    #[test]
    fn wrong_lengths_are_rejected() {
        let codec = PageCodec::new(EccScheme::DetectOnly, DATA, SPARE).unwrap();
        assert!(matches!(
            codec.encode(&[0u8; 10]).unwrap_err(),
            CodecError::WrongDataLength { .. }
        ));
        assert!(matches!(
            codec.decode(&[0u8; 10]).unwrap_err(),
            CodecError::WrongRawLength { .. }
        ));
    }

    #[test]
    fn selective_decode_matches_full_decode() {
        let mut rng = StdRng::seed_from_u64(2718);
        for scheme in [
            EccScheme::DetectOnly,
            EccScheme::Bch { t: 8 },
            EccScheme::PrioritySplit {
                t: 8,
                protected_chunks: 2,
            },
        ] {
            let codec = PageCodec::new(scheme, DATA, SPARE).unwrap();
            let data = payload(rng.gen());
            let clean = codec.encode(&data).unwrap();
            for &errors in &[0usize, 1, 3, 12] {
                let mut raw = clean.clone();
                let mut dirty = Vec::new();
                for _ in 0..errors {
                    let bit = rng.gen_range(0..raw.len() * 8);
                    raw[bit / 8] ^= 1 << (bit % 8);
                    dirty.push(bit);
                }
                let full = codec.decode(&raw).unwrap();
                let selective = codec.decode_with_dirty(&raw, &dirty).unwrap();
                assert_eq!(
                    full.status,
                    selective.status,
                    "{} e={errors}",
                    scheme.name()
                );
                assert_eq!(full.data, selective.data, "{} e={errors}", scheme.name());
            }
        }
    }

    #[test]
    fn selective_decode_clean_is_intact() {
        let codec = PageCodec::new(EccScheme::Bch { t: 18 }, DATA, SPARE).unwrap();
        let data = payload(55);
        let raw = codec.encode(&data).unwrap();
        let report = codec.decode_with_dirty(&raw, &[]).unwrap();
        assert_eq!(report.status, PageStatus::Intact);
        assert_eq!(report.data, data);
    }

    #[test]
    fn chunks_past_the_mask_width_decode_alike() {
        // 80 chunks: chunks 63..80 share the dirty mask's top bit.
        let data_bytes = 80 * CHUNK_BYTES;
        let scheme = EccScheme::Bch { t: 4 };
        let spare_bytes = scheme.overhead_bytes(data_bytes);
        let codec = PageCodec::new(scheme, data_bytes, spare_bytes).unwrap();
        let mut rng = StdRng::seed_from_u64(64);
        let data: Vec<u8> = (0..data_bytes).map(|_| rng.gen()).collect();
        let dirty = [3 * 4096 + 5, 70 * 4096 + 9, 70 * 4096 + 10, 79 * 4096];
        let mut eager = codec.encode(&data).unwrap();
        let mut framed = codec.frame(&data).unwrap();
        for &bit in &dirty {
            eager[bit / 8] ^= 1 << (bit % 8);
            framed[bit / 8] ^= 1 << (bit % 8);
        }
        let full = codec.decode(&eager).unwrap();
        let selective = codec.decode_with_dirty(&eager, &dirty).unwrap();
        let deferred = codec.decode_framed(&framed, &dirty).unwrap();
        assert_eq!(full.data, data);
        assert_eq!(full.corrected_bits, dirty.len());
        for report in [selective, deferred] {
            assert_eq!(report.data, full.data);
            assert_eq!(report.status, full.status);
            assert_eq!(report.corrected_bits, full.corrected_bits);
        }
    }

    #[test]
    fn rber_limits_order_by_strength() {
        let none = EccScheme::None.protected_rber_limit(1e-9);
        let weak = EccScheme::Bch { t: 8 }.protected_rber_limit(1e-9);
        let strong = EccScheme::Bch { t: 18 }.protected_rber_limit(1e-9);
        assert_eq!(none, 0.0);
        assert!(strong > weak && weak > 0.0);
    }
}
