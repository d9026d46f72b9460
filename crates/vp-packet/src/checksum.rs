//! RFC 1071 Internet checksum.

/// Computes the Internet checksum (one's-complement sum folded to 16 bits,
/// then complemented) over `data`. An odd trailing byte is padded with zero,
/// per RFC 1071.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !fold(sum_words(data))
}

/// Computes the checksum over several slices as if concatenated.
///
/// Slices other than the last must have even length (true for all uses here:
/// pseudo-headers and fixed headers are even-sized).
pub fn internet_checksum_parts(parts: &[&[u8]]) -> u16 {
    let mut total: u32 = 0;
    for (i, part) in parts.iter().enumerate() {
        debug_assert!(
            i == parts.len() - 1 || part.len() % 2 == 0,
            "non-final checksum part must be even-length"
        );
        total += sum_words(part);
    }
    !fold(total)
}

/// Verifies data that includes its checksum field: the folded sum over the
/// whole buffer must be 0xffff (i.e. complement zero).
pub fn verify(data: &[u8]) -> bool {
    fold(sum_words(data)) == 0xffff
}

/// Incrementally updates a checksum after one 16-bit word of the covered
/// data changed from `old_word` to `new_word` (RFC 1624, eqn. 3:
/// `HC' = ~(~HC + ~m + m')`).
///
/// Chaining updates over every changed word yields exactly the checksum a
/// full recompute would, **provided the covered data always contains at
/// least one nonzero word** (true for every packet here: an ICMP type or
/// IPv4 version byte is nonzero). Without that, the one's-complement
/// zero ambiguity (`0x0000` vs `0xffff`) could differ from a recompute
/// over all-zero data — the equivalence tests pin the exact-match
/// behaviour on real packets.
pub fn incremental_update(check: u16, old_word: u16, new_word: u16) -> u16 {
    !fold(u32::from(!check) + u32::from(!old_word) + u32::from(new_word))
}

/// The one's-complement running sum over `data` (not yet folded or
/// complemented). Batch encoders precompute this over a message's fixed
/// words once, then [`finish`] the sum plus the varying words per
/// message — associativity of the u32 word sum makes that exactly
/// [`internet_checksum`] over the assembled message.
///
/// Slices fed to a shared running sum must be even-length (same rule as
/// [`internet_checksum_parts`]).
pub fn partial_sum(data: &[u8]) -> u32 {
    sum_words(data)
}

/// Folds and complements a running sum built from [`partial_sum`] (plus
/// any manually added big-endian words) into the final checksum.
pub fn finish(sum: u32) -> u16 {
    !fold(sum)
}

fn sum_words(data: &[u8]) -> u32 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for w in &mut chunks {
        if let [hi, lo] = *w {
            sum += u32::from(u16::from_be_bytes([hi, lo]));
        }
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

fn fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x00001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold 0xddf2
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn zero_data_checksums_to_ffff() {
        assert_eq!(internet_checksum(&[0u8; 8]), 0xffff);
    }

    #[test]
    fn odd_length_padded() {
        assert_eq!(internet_checksum(&[0xff]), !0xff00u16);
    }

    #[test]
    fn verify_accepts_packet_with_embedded_checksum() {
        // Build a tiny "header" with a checksum field at bytes 2..4.
        let mut buf = [0x45u8, 0x00, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78];
        let ck = internet_checksum(&buf);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&buf));
        buf[4] ^= 0xff;
        assert!(!verify(&buf));
    }

    #[test]
    fn parts_equal_concatenated() {
        let a = [1u8, 2, 3, 4];
        let b = [5u8, 6, 7];
        let whole = [1u8, 2, 3, 4, 5, 6, 7];
        assert_eq!(
            internet_checksum_parts(&[&a, &b]),
            internet_checksum(&whole)
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(internet_checksum(&[]), 0xffff);
        assert_eq!(internet_checksum_parts(&[]), 0xffff);
    }

    #[test]
    fn incremental_update_matches_recompute_single_word() {
        // Patch each word of a packet in turn and compare against a full
        // recompute of the patched buffer.
        let base = [0x08u8, 0x00, 0x00, 0x00, 0x12, 0x34, 0xab, 0xcd];
        let ck = internet_checksum(&base);
        for word in 0..base.len() / 2 {
            if word == 1 {
                continue; // the checksum field itself is not covered
            }
            let mut patched = base;
            let new = [0xfeu8, 0x9a];
            patched[2 * word..2 * word + 2].copy_from_slice(&new);
            let old_w = u16::from_be_bytes([base[2 * word], base[2 * word + 1]]);
            let new_w = u16::from_be_bytes(new);
            assert_eq!(
                incremental_update(ck, old_w, new_w),
                internet_checksum(&patched),
                "word {word}"
            );
        }
    }

    #[test]
    fn incremental_update_chains_across_many_words() {
        // A deterministic LCG walk over packets: chain word updates from
        // each packet to the next and compare with full recomputes.
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u16
        };
        let mut buf = [0u8; 20];
        buf[0] = 0x08; // keep one word nonzero, the stated precondition
        let mut ck = internet_checksum(&buf);
        for _ in 0..200 {
            for word in [3usize, 6, 7, 8, 9] {
                let old_w = u16::from_be_bytes([buf[2 * word], buf[2 * word + 1]]);
                let new_w = next();
                buf[2 * word..2 * word + 2].copy_from_slice(&new_w.to_be_bytes());
                ck = incremental_update(ck, old_w, new_w);
            }
            assert_eq!(ck, internet_checksum(&buf));
        }
    }

    #[test]
    fn partial_sum_finish_matches_whole_checksum() {
        let data = [0x08u8, 0x00, 0x00, 0x00, 0x56, 0x50, 0x4c, 0x54, 0x01];
        let fixed = partial_sum(&data[..4]);
        let varying = partial_sum(&data[4..]);
        assert_eq!(finish(fixed + varying), internet_checksum(&data));
        // Manually added BE words are interchangeable with slices.
        assert_eq!(
            finish(fixed + 0x5650 + 0x4c54 + 0x0100),
            internet_checksum(&data)
        );
    }
}
