//! Differential test for the multi-lane FNV pass: every lane of
//! `codec::hash_lanes` must equal an independent `codec::digest` over the
//! concatenation of its ranges, for arbitrary range lists (gaps, adjacent
//! split points, empty ranges) and with digest slots patched mid-pass.
//! CI pins the case count with `PROPTEST_CASES=64`.

use std::ops::Range;

use proptest::prelude::*;
use websift_resilience::codec::{digest, hash_lanes, Patch};

/// Lane ranges from sorted cut points: consecutive cuts bound a range,
/// and `take` decides which of them the lane covers. Two taken ranges
/// in a row split one contiguous stretch at a cut.
fn lane_from(mut cuts: Vec<usize>, take: &[bool], len: usize) -> Vec<Range<usize>> {
    for c in &mut cuts {
        *c %= len + 1;
    }
    cuts.sort_unstable();
    cuts.windows(2)
        .zip(take.iter().cycle())
        .filter(|(_, &t)| t)
        .map(|(w, _)| w[0]..w[1])
        .collect()
}

/// The oracle: apply patches in slot order, each from an independent
/// digest of its lane over the buffer as patched so far, then digest
/// every lane over the final buffer.
fn oracle(buf: &mut [u8], lanes: &[Vec<Range<usize>>; 4], patches: &[Patch]) -> [u64; 4] {
    let concat = |buf: &[u8], ranges: &[Range<usize>]| -> Vec<u8> {
        ranges
            .iter()
            .flat_map(|r| buf[r.clone()].to_vec())
            .collect()
    };
    let mut sorted = patches.to_vec();
    sorted.sort_by_key(|p| p.slot);
    for p in sorted {
        let d = digest(&concat(buf, &lanes[p.lane]));
        buf[p.slot..p.slot + 8].copy_from_slice(&d.to_le_bytes());
    }
    std::array::from_fn(|i| digest(&concat(buf, &lanes[i])))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_lane_equals_an_independent_digest(
        bytes in prop::collection::vec(0u8..=255, 0..700),
        cuts in prop::collection::vec(prop::collection::vec(0usize..800, 0..14), 4..5),
        take in prop::collection::vec(0u8..=255, 4..5),
        slots in prop::collection::vec(0usize..800, 0..5),
    ) {
        let len = bytes.len();
        let lanes: [Vec<Range<usize>>; 4] = std::array::from_fn(|i| {
            let bits: Vec<bool> = (0..8).map(|b| take[i] >> b & 1 == 1).collect();
            lane_from(cuts[i].clone(), &bits, len)
        });

        // Non-overlapping 8-byte slots, each filled by a lane that ends
        // at or before it (rotating the lane choice by slot index).
        let mut patches: Vec<Patch> = Vec::new();
        let mut taken: Vec<usize> = Vec::new();
        for (k, &s) in slots.iter().enumerate() {
            if len < 8 {
                break;
            }
            let slot = s % (len - 7);
            if taken.iter().any(|&t| t.abs_diff(slot) < 8) {
                continue;
            }
            let lane = (0..4)
                .map(|j| (k + j) % 4)
                .find(|&l| lanes[l].last().is_none_or(|r| r.end <= slot));
            if let Some(lane) = lane {
                taken.push(slot);
                patches.push(Patch { slot, lane });
            }
        }

        let mut expected_buf = bytes.clone();
        let expected = oracle(&mut expected_buf, &lanes, &patches);
        let mut buf = bytes;
        let got = hash_lanes(&mut buf, &lanes, &patches);
        prop_assert_eq!(got, expected, "lanes {:?} patches {:?}", lanes, patches);
        prop_assert_eq!(buf, expected_buf);
    }
}

#[test]
fn a_single_lane_over_the_whole_buffer_is_digest() {
    let mut buf: Vec<u8> = (0..10_000u32).map(|i| (i * 31 % 251) as u8).collect();
    let whole = digest(&buf);
    let len = buf.len();
    let lane = std::iter::once(0..len).collect();
    assert_eq!(hash_lanes(&mut buf, &[lane], &[]), [whole]);
    assert_eq!(hash_lanes(&mut buf, &[vec![]], &[]), [digest(&[])]);
}
