//! The workspace's one non-cryptographic hash (FNV-1a, 64-bit) and one
//! seed mixer (splitmix64).
//!
//! Both are fixed bit-for-bit: layer RNG streams, cache fingerprints,
//! sweep design points and load-generator schedules are all derived
//! through them, so changing either changes recorded results.

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `h` (start from [`FNV_OFFSET`]).
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The splitmix64 increment (the golden-ratio "gamma").
pub const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 output finalizer: a bijective avalanche of `z`.
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Advances the splitmix64 `state` and returns its next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    splitmix64_mix(*state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        // Folding in pieces equals folding the whole.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"fo"), b"o"),
            fnv1a(FNV_OFFSET, b"foo")
        );
    }

    #[test]
    fn splitmix64_known_answers() {
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
        assert_eq!(state, SPLITMIX_GAMMA);
    }
}
