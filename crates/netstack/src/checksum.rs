//! The Internet checksum (RFC 1071) used by IPv4, ICMP, UDP and TCP.
//!
//! [`partial`] makes one pass at word speed. It adds the bytes four at a
//! time, as 32-bit little-endian words, into a 64-bit sum (which the
//! compiler spreads over vector lanes), then folds the total once and swaps
//! it to network order. RFC 1071 §2 shows that this is the sum of the
//! 16-bit network-order words:
//!
//! - **(C) deferred carries.** Carries out of bit 15 may pile up in a wider
//!   accumulator and be folded back in at the end. A 32-bit word is two
//!   16-bit words at once, because 2^16 ≡ 1 modulo 2^16 − 1.
//! - **(B) byte-order independence.** Summing byte-swapped words gives the
//!   byte-swapped sum. Swapping the bytes of a 16-bit one's-complement value
//!   rotates it by 8 bits, which is multiplying it by 2^8 modulo 2^16 − 1.
//!   So the swap is a shift, and [`finish`] folds its carries.
//!
//! Little-endian is the native order of x86-64 and AArch64, so each load is
//! one plain move there. The sum stays correct on any host.

/// Add the one's-complement sum of `data`, as 16-bit network-order words, to
/// an initial partial sum (host byte order). The result is not folded to 16
/// bits: [`finish`] does that. An odd final byte is padded with a zero, so
/// each call pads its own tail. `data` may be up to 16 GiB long.
pub fn partial(sum: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(4);
    let mut wide = 0u64;
    for word in &mut words {
        wide += u64::from(u32::from_le_bytes([word[0], word[1], word[2], word[3]]));
    }
    // At most three bytes are left, padded with zeros at the end.
    let tail = match *words.remainder() {
        [a, b, c] => [a, b, c, 0],
        [a, b] => [a, b, 0, 0],
        [a] => [a, 0, 0, 0],
        _ => [0; 4],
    };
    let wide = wide + u64::from(u32::from_le_bytes(tail));
    // Two folds with end-around carries leave at most 17 bits. Each keeps
    // the value modulo 2^16 − 1, and a non-zero sum never folds to zero.
    let wide = (wide & 0xffff_ffff) + (wide >> 32);
    let wide = (wide & 0xffff) + (wide >> 16);
    sum + u32::try_from(wide << 8).unwrap_or_default()
}

/// Fold a partial sum and return the final checksum value.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the fold loop above just established sum >> 16 == 0, so sum fits in u16"
)]
pub fn finish(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// One-shot checksum of a buffer.
pub fn checksum(data: &[u8]) -> u16 {
    finish(partial(0, data))
}

/// The IPv4 pseudo-header contribution used by TCP and UDP checksums.
pub fn pseudo_header(src: [u8; 4], dst: [u8; 4], protocol: u8, length: u16) -> u32 {
    let mut sum = 0u32;
    sum = partial(sum, &src);
    sum = partial(sum, &dst);
    sum += u32::from(protocol);
    sum += u32::from(length);
    sum
}

/// Verify that a buffer containing its own checksum field sums to zero.
pub fn verify(data: &[u8]) -> bool {
    finish(partial(0, data)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-pair loop [`partial`] replaced: one network-order 16-bit
    /// word at a time. The reference the word-at-a-time sum is held to.
    fn byte_pairs(mut sum: u32, data: &[u8]) -> u32 {
        let mut chunks = data.chunks_exact(2);
        for chunk in &mut chunks {
            sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let Some(&last) = chunks.remainder().first() {
            sum += u32::from(u16::from_be_bytes([last, 0]));
        }
        sum
    }

    /// SplitMix64: deterministic test bytes without a dependency.
    struct Bytes(u64);

    impl Bytes {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn fill(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }

        fn below(&mut self, bound: u32) -> u32 {
            (self.next() % u64::from(bound)) as u32
        }
    }

    #[test]
    fn word_sum_matches_the_byte_pair_loop_at_every_length_and_split() {
        let mut rng = Bytes(0x4A17_5001);
        // The largest initial sum a caller passes: a pseudo-header with
        // every address word, the protocol and the length at their maximum.
        let most = pseudo_header([0xff; 4], [0xff; 4], 0xff, u16::MAX);
        let by_pairs = byte_pairs(byte_pairs(0, &[0xff; 8]), &[0, 0xff, 0xff, 0xff]);
        assert_eq!(finish(most), finish(by_pairs));
        let lengths = (0..=2048).chain([65_535]);
        for len in lengths {
            for data in [rng.fill(len), vec![0xff; len]] {
                let initial = rng.below(most + 1);
                for start in [0, initial, most] {
                    assert_eq!(
                        finish(partial(start, &data)),
                        finish(byte_pairs(start, &data)),
                        "{len} bytes from {start}"
                    );
                }
                // Chained calls, split at an odd and at an even offset: each
                // call pads its own odd tail, as the byte-pair loop did.
                for k in [len / 2, (len / 2) | 1, len.saturating_sub(1) & !1] {
                    let k = k.min(len);
                    let (a, b) = data.split_at(k);
                    assert_eq!(
                        finish(partial(partial(initial, a), b)),
                        finish(byte_pairs(byte_pairs(initial, a), b)),
                        "{len} bytes split at {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_data_keeps_a_zero_sum_and_all_ones_folds_to_negative_zero() {
        // One's complement has two zeros; the fold must not swap them.
        assert_eq!(partial(0, &[0; 64]), 0);
        assert_eq!(checksum(&[0; 64]), 0xffff);
        assert_eq!(checksum(&[0xff; 64]), 0);
    }

    #[test]
    fn rfc1071_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2u16);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        let even = checksum(&[0x01, 0x02, 0x03, 0x00]);
        let odd = checksum(&[0x01, 0x02, 0x03]);
        assert_eq!(even, odd);
    }

    #[test]
    fn verify_detects_corruption() {
        // Build a fake header with its checksum inserted and verify it.
        let mut header = vec![
            0x45, 0x00, 0x00, 0x54, 0x00, 0x00, 0x40, 0x00, 0x40, 0x01, 0, 0, 10, 0, 0, 1, 10, 0,
            0, 2,
        ];
        let c = checksum(&header);
        header[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&header));
        header[15] ^= 0xff;
        assert!(!verify(&header));
    }

    #[test]
    fn pseudo_header_contributes_to_sum() {
        let ph = pseudo_header([10, 0, 0, 1], [10, 0, 0, 2], 6, 20);
        let with = finish(partial(ph, b"hello world tcp data"));
        let without = checksum(b"hello world tcp data");
        assert_ne!(with, without);
    }

    #[test]
    fn empty_buffer_checksum() {
        assert_eq!(checksum(&[]), 0xffff);
        assert_eq!(finish(0), 0xffff);
    }
}
