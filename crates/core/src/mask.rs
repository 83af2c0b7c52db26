//! Bitmask algebra for `_bdcc_` keys.
//!
//! A dimension use (Definition 3) owns a subset of the bit positions of the
//! clustering key, described by a bitmask `M`. This module implements:
//!
//! * scatter/gather between a bin number's major bits and its mask positions
//!   (the `_bdcc_` computation of Definition 4 and its inverse, needed by
//!   the scatter-scan),
//! * the bit-assignment strategies of Algorithm 1(i): round-robin per use
//!   (Z-order/UB-tree style, the paper's default — it reproduces every mask
//!   of the Section IV dimension-use table), round-robin per foreign key
//!   (the literal Algorithm 1(i) wording), and major-minor (the hand-tuned
//!   comparison setup of "Other Orderings").
//!
//! Masks are `u64`s whose bit `B-1` is the most significant position of a
//! `B`-bit clustering key; `B ≤ 64` (TPC-H LINEITEM needs 36).

/// Number of set bits in a mask — `ones(M)` in the paper.
pub fn ones(mask: u64) -> u32 {
    mask.count_ones()
}

/// Render the low `width` bits of `mask` as a binary string, exactly like
/// the dimension-use table in Section IV of the paper.
pub fn mask_to_string(mask: u64, width: u32) -> String {
    (0..width).rev().map(|i| if mask >> i & 1 == 1 { '1' } else { '0' }).collect()
}

/// Scatter the *major* `ones(mask)` bits of `bin` (a `bin_bits`-wide bin
/// number) to the set positions of `mask`, most-significant bin bit to
/// most-significant mask position (Definition 4).
pub fn scatter_bits(bin: u64, bin_bits: u32, mask: u64) -> u64 {
    let take = ones(mask).min(bin_bits);
    // The major `take` bits of the bin number.
    let major = if take == 0 { 0 } else { bin >> (bin_bits - take) };
    let mut out = 0u64;
    let mut remaining = take;
    // Walk mask positions from MSB to LSB, consuming major bits MSB-first.
    for pos in (0..64).rev() {
        if mask >> pos & 1 == 1 {
            if remaining == 0 {
                break;
            }
            remaining -= 1;
            if major >> remaining & 1 == 1 {
                out |= 1 << pos;
            }
        }
    }
    out
}

/// [`scatter_bits`] of every `bin_bits`-wide bin number, indexed by bin:
/// the `_bdcc_` contribution of a dimension use as one lookup per row
/// instead of a walk over the mask. `bin_bits` is a dimension granularity
/// (at most 20 bits, 13 by default), so the table has ≤ 2^20 entries.
pub fn scatter_table(bin_bits: u32, mask: u64) -> Vec<u64> {
    (0..1u64 << bin_bits).map(|bin| scatter_bits(bin, bin_bits, mask)).collect()
}

/// Inverse of [`scatter_bits`]: collect the bits of `key` at the set
/// positions of `mask`, MSB-first, into a compact `ones(mask)`-bit value.
pub fn gather_bits(key: u64, mask: u64) -> u64 {
    let mut out = 0u64;
    for pos in (0..64).rev() {
        if mask >> pos & 1 == 1 {
            out = (out << 1) | (key >> pos & 1);
        }
    }
    out
}

/// How Algorithm 1(i) spreads dimension bits over the clustering key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterleaveStrategy {
    /// One bit per *use* per round (Z-order across all uses). This is the
    /// assignment that reproduces the masks printed in the paper's
    /// evaluation (e.g. LINEITEM `10001000100010001000` for D_DATE).
    RoundRobinPerUse,
    /// One bit per *foreign key or local dimension* per round; uses sharing
    /// a foreign key alternate within their key's turns — the literal
    /// Algorithm 1(i) wording ("per foreign key or local dimension").
    RoundRobinPerFk,
    /// All bits of the first use first (major), then the second, ... — the
    /// classic MDAM-style ordering used for the "Other Orderings"
    /// self-comparison. Use order defines priority.
    MajorMinor,
}

/// Input to mask assignment: per use, its dimension's granularity in bits
/// and the group key (uses with equal keys share round-robin turns under
/// [`InterleaveStrategy::RoundRobinPerFk`]; use `None` for "its own group").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseBits {
    pub dim_bits: u32,
    /// Grouping key: `Some(fk_id)` for uses whose path starts with that
    /// foreign key, `None` for local dimensions (each its own group).
    pub fk_group: Option<usize>,
}

/// Assign masks to `uses` under `strategy`. Returns `(masks, total_bits)`
/// where every dimension's full granularity is used
/// (`total_bits = Σ dim_bits`), masks are pairwise disjoint and together
/// cover all `total_bits` positions (Definition 4 constraints).
///
/// # Panics
/// Panics if the combined granularity exceeds 64 bits.
pub fn assign_masks(uses: &[UseBits], strategy: InterleaveStrategy) -> (Vec<u64>, u32) {
    let total_bits: u32 = uses.iter().map(|u| u.dim_bits).sum();
    assert!(total_bits <= 64, "combined granularity {total_bits} exceeds 64 bits");
    let order = assignment_order(uses, strategy);
    let mut masks = vec![0u64; uses.len()];
    for (k, &use_idx) in order.iter().enumerate() {
        let pos = total_bits - 1 - k as u32; // k-th assigned bit, from MSB down
        masks[use_idx] |= 1 << pos;
    }
    (masks, total_bits)
}

/// The sequence of use indices receiving bits, from most significant
/// position downwards.
fn assignment_order(uses: &[UseBits], strategy: InterleaveStrategy) -> Vec<usize> {
    let mut remaining: Vec<u32> = uses.iter().map(|u| u.dim_bits).collect();
    let total: u32 = remaining.iter().sum();
    let mut order = Vec::with_capacity(total as usize);
    match strategy {
        InterleaveStrategy::MajorMinor => {
            for (i, u) in uses.iter().enumerate() {
                for _ in 0..u.dim_bits {
                    order.push(i);
                }
            }
        }
        InterleaveStrategy::RoundRobinPerUse => {
            while order.len() < total as usize {
                for (i, rem) in remaining.iter_mut().enumerate() {
                    if *rem > 0 {
                        *rem -= 1;
                        order.push(i);
                    }
                }
            }
        }
        InterleaveStrategy::RoundRobinPerFk => {
            // Build groups preserving first-appearance order. Local uses
            // (fk_group == None) each form their own group.
            let mut groups: Vec<Vec<usize>> = Vec::new();
            let mut group_of_fk: Vec<(usize, usize)> = Vec::new(); // (fk, group idx)
            for (i, u) in uses.iter().enumerate() {
                match u.fk_group {
                    None => groups.push(vec![i]),
                    Some(fk) => match group_of_fk.iter().find(|(f, _)| *f == fk) {
                        Some(&(_, g)) => groups[g].push(i),
                        None => {
                            group_of_fk.push((fk, groups.len()));
                            groups.push(vec![i]);
                        }
                    },
                }
            }
            // Within each group, rotate over its members on every turn the
            // group receives.
            let mut rotor = vec![0usize; groups.len()];
            while order.len() < total as usize {
                for (g, members) in groups.iter().enumerate() {
                    // Find the next member of this group with bits left.
                    let mut assigned = false;
                    for step in 0..members.len() {
                        let m = members[(rotor[g] + step) % members.len()];
                        if remaining[m] > 0 {
                            remaining[m] -= 1;
                            order.push(m);
                            rotor[g] = (rotor[g] + step + 1) % members.len();
                            assigned = true;
                            break;
                        }
                    }
                    let _ = assigned;
                }
            }
        }
    }
    order
}

/// Restrict a mask of a `total_bits`-wide key to its top `granularity`
/// positions, re-based so bit 0 is the least significant bit of the
/// truncated group key. This is the mask a count table at granularity `b`
/// sees (Definition 1(vii): chopping off the `B−b` least significant bits).
pub fn truncate_mask(mask: u64, total_bits: u32, granularity: u32) -> u64 {
    debug_assert!(granularity <= total_bits);
    mask >> (total_bits - granularity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_gather_round_trip() {
        // 3-bit bin into a 4-bit-spaced mask.
        let mask = 0b100010001000u64;
        let v = scatter_bits(0b101, 3, mask);
        assert_eq!(v, 0b100000001000);
        assert_eq!(gather_bits(v, mask), 0b101);
    }

    #[test]
    fn scatter_takes_major_bits_when_mask_shorter() {
        // 5-bit bin, mask has 2 positions → top 2 bits of the bin.
        let mask = 0b101u64;
        assert_eq!(scatter_bits(0b11010, 5, mask), 0b101);
        assert_eq!(scatter_bits(0b01010, 5, mask), 0b001);
    }

    #[test]
    fn mask_rendering_matches_paper_style() {
        assert_eq!(mask_to_string(0b11111, 5), "11111");
        assert_eq!(mask_to_string(0b1010, 4), "1010");
    }

    /// The paper's ORDERS masks: D_DATE (13 bits, local) and D_NATION
    /// (5 bits over FK_O_C): `101010101011111111` / `010101010100000000`.
    #[test]
    fn orders_masks_match_paper() {
        let uses =
            [UseBits { dim_bits: 13, fk_group: None }, UseBits { dim_bits: 5, fk_group: Some(0) }];
        let (masks, total) = assign_masks(&uses, InterleaveStrategy::RoundRobinPerUse);
        assert_eq!(total, 18);
        assert_eq!(mask_to_string(masks[0], total), "101010101011111111");
        assert_eq!(mask_to_string(masks[1], total), "010101010100000000");
    }

    /// The paper's LINEITEM masks: four uses (D_DATE 13, D_NATION 5,
    /// D_NATION 5, D_PART 13); top 20 bits are shown in the paper.
    #[test]
    fn lineitem_masks_match_paper_prefix() {
        let uses = [
            UseBits { dim_bits: 13, fk_group: Some(0) }, // D_DATE via FK_L_O
            UseBits { dim_bits: 5, fk_group: Some(0) },  // D_NATION via FK_L_O..
            UseBits { dim_bits: 5, fk_group: Some(1) },  // D_NATION via FK_L_S..
            UseBits { dim_bits: 13, fk_group: Some(2) }, // D_PART via FK_L_P
        ];
        let (masks, total) = assign_masks(&uses, InterleaveStrategy::RoundRobinPerUse);
        assert_eq!(total, 36);
        // Truncated to the paper's 20-bit granularity:
        let t: Vec<String> =
            masks.iter().map(|&m| mask_to_string(truncate_mask(m, total, 20), 20)).collect();
        assert_eq!(t[0], "10001000100010001000");
        assert_eq!(t[1], "01000100010001000100");
        assert_eq!(t[2], "00100010001000100010");
        assert_eq!(t[3], "00010001000100010001");
    }

    /// PARTSUPP: D_PART 13 bits + D_NATION 5 bits →
    /// `101010101011111111` per the paper.
    #[test]
    fn partsupp_masks_match_paper() {
        let uses = [
            UseBits { dim_bits: 13, fk_group: Some(0) },
            UseBits { dim_bits: 5, fk_group: Some(1) },
        ];
        let (masks, total) = assign_masks(&uses, InterleaveStrategy::RoundRobinPerUse);
        assert_eq!(mask_to_string(masks[0], total), "101010101011111111");
    }

    #[test]
    fn masks_are_disjoint_and_cover_everything() {
        let uses = [
            UseBits { dim_bits: 3, fk_group: None },
            UseBits { dim_bits: 7, fk_group: Some(4) },
            UseBits { dim_bits: 2, fk_group: Some(4) },
        ];
        for strat in [
            InterleaveStrategy::RoundRobinPerUse,
            InterleaveStrategy::RoundRobinPerFk,
            InterleaveStrategy::MajorMinor,
        ] {
            let (masks, total) = assign_masks(&uses, strat);
            assert_eq!(total, 12);
            let mut union = 0u64;
            for (i, &m) in masks.iter().enumerate() {
                assert_eq!(union & m, 0, "{strat:?} masks overlap");
                union |= m;
                assert_eq!(ones(m), uses[i].dim_bits, "{strat:?} wrong bit count");
            }
            assert_eq!(union, (1u64 << total) - 1, "{strat:?} does not cover");
        }
    }

    #[test]
    fn major_minor_orders_by_priority() {
        let uses =
            [UseBits { dim_bits: 2, fk_group: None }, UseBits { dim_bits: 3, fk_group: None }];
        let (masks, total) = assign_masks(&uses, InterleaveStrategy::MajorMinor);
        assert_eq!(mask_to_string(masks[0], total), "11000");
        assert_eq!(mask_to_string(masks[1], total), "00111");
    }

    #[test]
    fn per_fk_groups_share_turns() {
        // Two uses on fk 0 (2 bits each) and one local (2 bits): groups are
        // {u0,u1} and {u2}; per round: one bit to the fk group (alternating
        // u0/u1) and one to u2.
        let uses = [
            UseBits { dim_bits: 2, fk_group: Some(0) },
            UseBits { dim_bits: 2, fk_group: Some(0) },
            UseBits { dim_bits: 2, fk_group: None },
        ];
        let (masks, total) = assign_masks(&uses, InterleaveStrategy::RoundRobinPerFk);
        assert_eq!(total, 6);
        // Assignment sequence: u0, u2, u1, u2, u0, u1.
        assert_eq!(mask_to_string(masks[0], total), "100010");
        assert_eq!(mask_to_string(masks[1], total), "001001");
        assert_eq!(mask_to_string(masks[2], total), "010100");
    }

    #[test]
    fn truncate_mask_rebases() {
        let m = 0b101010u64; // 6-bit key
        assert_eq!(truncate_mask(m, 6, 3), 0b101);
        assert_eq!(truncate_mask(m, 6, 6), m);
        assert_eq!(truncate_mask(m, 6, 0), 0);
    }

    #[test]
    fn gather_of_zero_mask_is_zero() {
        assert_eq!(gather_bits(u64::MAX, 0), 0);
        assert_eq!(scatter_bits(0b11, 2, 0), 0);
    }
}
