//! Stripe parity for the SYS partition.
//!
//! §4.2: SYS blocks "are stored conservatively with additional
//! redundancy (e.g., parity)". On top of per-page BCH, the SOS device
//! keeps a RAID-5-style XOR parity page per stripe of `width` data LPNs,
//! so a page the BCH cannot recover is rebuilt from its stripe peers.

use sos_ftl::{Ftl, FtlError, PlacementHandle};
use std::collections::BTreeMap;

// Parity pages use the dedicated parity handle (kept apart from data
// reclaim units: parity is rewritten far more often); the constant
// lives with the rest of the placement surface in `sos_ftl::placement`.
pub use sos_ftl::placement::STREAM_PARITY;

/// Stripe parity manager over a SYS-partition FTL.
///
/// Data LPN `l` belongs to stripe `l / width`; each stripe has one
/// parity LPN drawn from a reserved range at the top of the logical
/// space. Parity is recomputed on every member write (read-peers +
/// write-parity), which is the simple, always-consistent variant of
/// RAID-5 maintenance.
#[derive(Debug)]
pub struct StripeManager {
    width: u64,
    /// First LPN of the reserved parity range.
    parity_base: u64,
    /// Member LPNs currently live, per stripe.
    members: BTreeMap<u64, Vec<u64>>,
}

impl StripeManager {
    /// Plans stripes of `width` data pages over an FTL whose logical
    /// space is split into `[0, parity_base)` data LPNs and
    /// `[parity_base, ...)` parity LPNs.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u64, parity_base: u64) -> Self {
        // sos-lint: allow(panic-path, "documented contract: zero stripe width is a configuration bug caught at mount, not a data-dependent condition")
        assert!(width >= 1, "stripe width must be positive");
        StripeManager {
            width,
            parity_base,
            members: BTreeMap::new(),
        }
    }

    /// Rebuilds stripe membership from the data LPNs referenced by the
    /// surviving object directory (the remount path: membership is RAM
    /// state and does not itself survive a crash). `referenced[l]` marks
    /// data LPN `l` as live.
    pub fn rebuild(width: u64, parity_base: u64, referenced: &[bool]) -> Self {
        debug_assert!(
            referenced.len() as u64 <= parity_base,
            "parity-range LPN in object data"
        );
        let mut manager = StripeManager::new(width, parity_base);
        let mut first = 0;
        for (stripe, chunk) in (0u64..).zip(referenced.chunks(width as usize)) {
            let members: Vec<u64> = (first..)
                .zip(chunk)
                .filter_map(|(lpn, &live)| live.then_some(lpn))
                .collect();
            if !members.is_empty() {
                manager.members.insert(stripe, members);
            }
            first += width;
        }
        manager
    }

    /// Whether the stripe currently has live members.
    pub fn has_stripe(&self, stripe: u64) -> bool {
        self.members.contains_key(&stripe)
    }

    /// Recomputes every live stripe's parity from its readable members
    /// and rewrites the parity page only where the stored page differs
    /// or does not read back. The remount path runs this after crash
    /// recovery: a power cut between a member write and its parity
    /// update (the classic RAID-5 write hole) leaves parity stale, and
    /// a volatile trim may have resurrected a parity page for a stripe
    /// whose membership changed. Members are always read: a parity page
    /// newer than every member can still be stale, because `update` and
    /// `migrate` rewrite parity without the old members before the
    /// directory stops referencing them. Returns the number of stale stripes
    /// rewritten.
    pub fn scrub_parity(&self, ftl: &mut Ftl) -> Result<u64, FtlError> {
        let mut rewritten = 0;
        let mut parity = vec![0u8; ftl.page_bytes()];
        for (&stripe, members) in &self.members {
            parity.fill(0);
            for &member in members {
                if let Ok(result) = ftl.read(member) {
                    for (p, &b) in parity.iter_mut().zip(&result.data) {
                        *p ^= b;
                    }
                }
            }
            let parity_lpn = self.parity_lpn(stripe);
            if ftl
                .read(parity_lpn)
                .is_ok_and(|stored| stored.data == parity)
            {
                continue;
            }
            ftl.write_placed(parity_lpn, &parity, PlacementHandle::PARITY)?;
            rewritten += 1;
        }
        Ok(rewritten)
    }

    /// How many data LPNs this layout supports.
    pub fn data_pages(&self) -> u64 {
        self.parity_base
    }

    /// Data LPNs per stripe.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// First LPN of the reserved parity range.
    pub fn parity_base(&self) -> u64 {
        self.parity_base
    }

    /// Snapshot of live stripes as `(stripe index, member LPNs)` pairs,
    /// sorted by stripe index, for invariant auditing.
    pub fn stripe_snapshot(&self) -> Vec<(u64, Vec<u64>)> {
        self.members
            .iter()
            .map(|(&stripe, members)| (stripe, members.clone()))
            .collect()
    }

    /// Splits a logical page count into `(data_pages, parity_pages)`
    /// for a given stripe width.
    pub fn layout(total_pages: u64, width: u64) -> (u64, u64) {
        // data + ceil(data/width) <= total.
        let data = total_pages * width / (width + 1);
        (data, total_pages - data)
    }

    fn stripe_of(&self, lpn: u64) -> u64 {
        lpn.checked_div(self.width).unwrap_or(0)
    }

    fn parity_lpn(&self, stripe: u64) -> u64 {
        self.parity_base + stripe
    }

    /// Records a member write and refreshes the stripe's parity page.
    /// `page` is the payload just written to `lpn`.
    pub fn on_write(&mut self, ftl: &mut Ftl, lpn: u64, page: &[u8]) -> Result<(), FtlError> {
        debug_assert!(lpn < self.parity_base, "parity range written as data");
        let stripe = self.stripe_of(lpn);
        let members = self.members.entry(stripe).or_default();
        if !members.contains(&lpn) {
            members.push(lpn);
        }
        let members = members.clone();
        let mut parity = vec![0u8; page.len()];
        for &member in &members {
            if member == lpn {
                for (p, &b) in parity.iter_mut().zip(page) {
                    *p ^= b;
                }
                continue;
            }
            // Peers that fail to read cleanly are skipped: their stripe
            // contribution is unknown, and the parity protects the
            // readable majority (repair of the failed peer happens via
            // `reconstruct` before the next write, or the data is lost).
            if let Ok(result) = ftl.read(member) {
                for (p, &b) in parity.iter_mut().zip(&result.data) {
                    *p ^= b;
                }
            }
        }
        ftl.write_placed(self.parity_lpn(stripe), &parity, PlacementHandle::PARITY)?;
        Ok(())
    }

    /// Records a member deletion and refreshes parity.
    pub fn on_trim(&mut self, ftl: &mut Ftl, lpn: u64) -> Result<(), FtlError> {
        let stripe = self.stripe_of(lpn);
        let Some(members) = self.members.get_mut(&stripe) else {
            return Ok(());
        };
        members.retain(|&m| m != lpn);
        let members = members.clone();
        if members.is_empty() {
            self.members.remove(&stripe);
            let _ = ftl.trim(self.parity_lpn(stripe));
            return Ok(());
        }
        let mut parity = vec![0u8; ftl.page_bytes()];
        for &member in &members {
            if let Ok(result) = ftl.read(member) {
                for (p, &b) in parity.iter_mut().zip(&result.data) {
                    *p ^= b;
                }
            }
        }
        ftl.write_placed(self.parity_lpn(stripe), &parity, PlacementHandle::PARITY)?;
        Ok(())
    }

    /// Drops a member whose data is irrecoverably lost, without touching
    /// the FTL (the remount path calls this before [`Self::scrub_parity`],
    /// which then recomputes parity over the surviving members). Once
    /// dropped, [`Self::reconstruct`] refuses the LPN: the refreshed
    /// parity no longer covers the lost data, and "rebuilding" from it
    /// would fabricate a zero page while claiming success.
    pub fn forget_member(&mut self, lpn: u64) {
        let stripe = self.stripe_of(lpn);
        if let Some(members) = self.members.get_mut(&stripe) {
            members.retain(|&m| m != lpn);
            if members.is_empty() {
                self.members.remove(&stripe);
            }
        }
    }

    /// Attempts to rebuild the payload of a lost member from its stripe
    /// peers and the parity page. Returns `None` when any peer or the
    /// parity itself is unavailable.
    pub fn reconstruct(&self, ftl: &mut Ftl, lpn: u64) -> Option<Vec<u8>> {
        let stripe = self.stripe_of(lpn);
        let members = self.members.get(&stripe)?;
        if !members.contains(&lpn) {
            return None;
        }
        let mut rebuilt = match ftl.read(self.parity_lpn(stripe)) {
            Ok(result) => result.data,
            Err(_) => return None,
        };
        for &member in members {
            if member == lpn {
                continue;
            }
            match ftl.read(member) {
                Ok(result) => {
                    for (r, &b) in rebuilt.iter_mut().zip(&result.data) {
                        *r ^= b;
                    }
                }
                Err(_) => return None,
            }
        }
        Some(rebuilt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_flash::{CellDensity, DeviceConfig, ProgramMode};
    use sos_ftl::FtlConfig;

    fn setup() -> (Ftl, StripeManager) {
        let ftl = Ftl::new(
            &DeviceConfig::tiny(CellDensity::Tlc),
            FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc)),
        );
        let total = ftl.logical_pages();
        let (data, _) = StripeManager::layout(total, 4);
        (ftl, StripeManager::new(4, data))
    }

    fn page(ftl: &Ftl, byte: u8) -> Vec<u8> {
        vec![byte; ftl.page_bytes()]
    }

    #[test]
    fn layout_accounts_for_parity() {
        let (data, parity) = StripeManager::layout(100, 4);
        assert!(data + parity == 100);
        assert!(parity >= data.div_ceil(4));
    }

    #[test]
    fn reconstructs_a_lost_member() {
        let (mut ftl, mut stripes) = setup();
        // Write three members of stripe 0.
        for (lpn, byte) in [(0u64, 0x11u8), (1, 0x22), (2, 0x33)] {
            let data = page(&ftl, byte);
            ftl.write(lpn, &data).unwrap();
            stripes.on_write(&mut ftl, lpn, &data).unwrap();
        }
        // Simulate loss of member 1.
        ftl.trim(1).unwrap();
        let rebuilt = stripes.reconstruct(&mut ftl, 1).expect("reconstructable");
        assert_eq!(rebuilt, page(&ftl, 0x22));
    }

    #[test]
    fn reconstruction_tracks_member_updates() {
        let (mut ftl, mut stripes) = setup();
        let first = page(&ftl, 0xAA);
        ftl.write(0, &first).unwrap();
        stripes.on_write(&mut ftl, 0, &first).unwrap();
        let second = page(&ftl, 0xBB);
        ftl.write(0, &second).unwrap();
        stripes.on_write(&mut ftl, 0, &second).unwrap();
        ftl.trim(0).unwrap();
        let rebuilt = stripes.reconstruct(&mut ftl, 0).expect("reconstructable");
        assert_eq!(rebuilt, second, "parity must reflect the latest write");
    }

    #[test]
    fn trim_removes_member_from_stripe() {
        let (mut ftl, mut stripes) = setup();
        let a = page(&ftl, 1);
        let b = page(&ftl, 2);
        ftl.write(0, &a).unwrap();
        stripes.on_write(&mut ftl, 0, &a).unwrap();
        ftl.write(1, &b).unwrap();
        stripes.on_write(&mut ftl, 1, &b).unwrap();
        ftl.trim(0).unwrap();
        stripes.on_trim(&mut ftl, 0).unwrap();
        // Member 0 no longer reconstructable; member 1 still is.
        assert!(stripes.reconstruct(&mut ftl, 0).is_none());
        ftl.trim(1).unwrap();
        assert_eq!(stripes.reconstruct(&mut ftl, 1).unwrap(), b);
    }

    #[test]
    fn scrub_rewrites_only_stale_parity() {
        let (mut ftl, mut stripes) = setup();
        // Two members in each of stripes 0 and 1.
        for (lpn, byte) in [(0u64, 0x11u8), (1, 0x22), (4, 0x44), (5, 0x55)] {
            let data = page(&ftl, byte);
            ftl.write(lpn, &data).unwrap();
            stripes.on_write(&mut ftl, lpn, &data).unwrap();
        }
        let wrong = page(&ftl, 0xEE);
        ftl.write_placed(stripes.parity_lpn(1), &wrong, PlacementHandle::PARITY)
            .unwrap();
        let programs = ftl.device().stats().programs;
        assert_eq!(stripes.scrub_parity(&mut ftl).unwrap(), 1);
        assert_eq!(ftl.device().stats().programs, programs + 1);
        assert_eq!(
            ftl.read(stripes.parity_lpn(1)).unwrap().data,
            page(&ftl, 0x44 ^ 0x55)
        );
        let programs = ftl.device().stats().programs;
        assert_eq!(stripes.scrub_parity(&mut ftl).unwrap(), 0);
        assert_eq!(ftl.device().stats().programs, programs);
    }

    #[test]
    fn unknown_lpn_is_not_reconstructable() {
        let (mut ftl, stripes) = setup();
        assert!(stripes.reconstruct(&mut ftl, 99).is_none());
    }
}
