//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The hash is the 64-round compression function over 512-bit blocks with
//! Merkle–Damgård padding. The compression has two backends that compute
//! the same function bit for bit:
//!
//! * **SHA extensions** (x86-64 only): `sha256rnds2` / `sha256msg1` /
//!   `sha256msg2`, used when `is_x86_feature_detected!` reports `sha`,
//!   `sse2`, `ssse3` and `sse4.1`. A run of whole blocks keeps the state in
//!   two vector registers throughout, so a 16 KiB message pays the state
//!   repacking once rather than once per block.
//! * **Scalar**: the portable fallback on every other CPU and target, and
//!   the oracle the unit tests hold the hardware path to.
//!
//! [`Sha256::update`] detects the backend once per call, and only when it
//! has a whole block to compress; no configuration selects it. The only
//! `unsafe` in the crate is the call into the SHA-extension function, and
//! the check that selects that backend is exactly its precondition.
//!
//! The hash is validated against the NIST test vectors (through both
//! backends), against the scalar backend on random states, blocks and
//! update splits, and against HMAC vectors in [`crate::hmac`].

use crate::hash::Hash256;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use medledger_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes processed so far.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        // Fill a partially filled buffer first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                // Buffer still not full, so the input is exhausted.
                debug_assert!(data.is_empty());
                return;
            }
        }
        let (blocks, rem) = data.as_chunks::<64>();
        if self.buf_len == 64 || !blocks.is_empty() {
            let backend = Backend::detect();
            if self.buf_len == 64 {
                backend.compress(&mut self.state, std::slice::from_ref(&self.buf));
                self.buf_len = 0;
            }
            // Whole blocks straight from the input, in one run.
            backend.compress(&mut self.state, blocks);
        }
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Completes the hash and returns the digest.
    pub fn finalize(self) -> Hash256 {
        let mut state = self.state;
        Backend::detect().compress(
            &mut state,
            pad(&self.buf[..self.buf_len], self.total_len).blocks(),
        );
        digest(&state)
    }
}

/// The Merkle–Damgård tail of a message: the buffered bytes, the `0x80`
/// terminator, zeros, and the 64-bit big-endian bit length, as one or two
/// whole blocks.
struct Tail {
    bytes: [u8; 128],
    len: usize,
}

impl Tail {
    fn blocks(&self) -> &[[u8; 64]] {
        self.bytes[..self.len].as_chunks::<64>().0
    }
}

/// Pads the final `rest` (< 64 bytes) of a `total_len`-byte message.
fn pad(rest: &[u8], total_len: u64) -> Tail {
    debug_assert!(rest.len() < 64);
    let mut bytes = [0u8; 128];
    bytes[..rest.len()].copy_from_slice(rest);
    bytes[rest.len()] = 0x80;
    // The length field needs 8 bytes after the terminator.
    let len = if rest.len() < 56 { 64 } else { 128 };
    bytes[len - 8..len].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    Tail { bytes, len }
}

/// The big-endian digest bytes of a final state.
fn digest(state: &[u32; 8]) -> Hash256 {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    Hash256(out)
}

/// The compression implementation in use, chosen at run time.
///
/// Every backend computes the same function bit for bit; only speed
/// differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Backend {
    /// The portable scalar compression ([`scalar::compress`]).
    Scalar,
    /// The x86-64 SHA extensions ([`shani::compress_blocks`]). Only
    /// [`Backend::detect`] constructs it, after checking the CPU.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Backend {
    /// The fastest backend this CPU supports.
    #[inline]
    fn detect() -> Backend {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("sse2")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1")
        {
            return Backend::ShaNi;
        }
        Backend::Scalar
    }

    /// Applies the compression function to each of `blocks` in order.
    #[inline]
    fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        #[cfg(test)]
        counter::add(blocks.len());
        match self {
            Backend::Scalar => {
                for block in blocks {
                    scalar::compress(state, block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi => {
                // SAFETY: `compress_blocks` is safe code compiled with the
                // `sha`, `sse2`, `ssse3` and `sse4.1` target features; its
                // only precondition is that the running CPU has them.
                // `ShaNi` is constructed solely by `Backend::detect`, after
                // `is_x86_feature_detected!` confirmed all four.
                unsafe { shani::compress_blocks(state, blocks) }
            }
        }
    }
}

/// Portable scalar compression: the fallback on every CPU without SHA
/// extensions, and the oracle the hardware path is tested against.
mod scalar {
    use super::K;

    /// One application of the SHA-256 compression function.
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// SHA-256 on the x86-64 SHA extensions (`sha256rnds2`, `sha256msg1`,
/// `sha256msg2`).
///
/// The hardware keeps the working variables as two vectors, `ABEF` and
/// `CDGH`, and performs two rounds per `sha256rnds2`. The state stays in
/// those registers across a whole run of blocks, so a long message pays
/// the repacking once, not once per block.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Four big-endian message words as one vector, word 0 in lane 0.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load_words(bytes: &[u8]) -> __m128i {
        let w = |i: usize| u32::from_be_bytes(bytes[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        _mm_set_epi32(w(3) as i32, w(2) as i32, w(1) as i32, w(0) as i32)
    }

    /// Rounds `4 * group .. 4 * group + 4` with message words `w`.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
        let k = &K[4 * group..4 * group + 4];
        let wk = _mm_add_epi32(
            w,
            _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
        );
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// The next four schedule words from the previous sixteen.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Applies the compression function to each of `blocks` in order.
    ///
    /// # Safety
    ///
    /// The body is safe code, but it is compiled for the `sha`, `sse2`,
    /// `ssse3` and `sse4.1` target features, so calling it from code
    /// without them is `unsafe`: the caller must ensure the running CPU
    /// has all four.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let s = |i: usize| state[i] as i32;
        // Repack [A..H] into the ABEF / CDGH layout (A in the top lane).
        let mut abef = _mm_set_epi32(s(0), s(1), s(4), s(5));
        let mut cdgh = _mm_set_epi32(s(2), s(3), s(6), s(7));

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w = [
                load_words(&block[0..16]),
                load_words(&block[16..32]),
                load_words(&block[32..48]),
                load_words(&block[48..64]),
            ];
            for (group, &words) in w.iter().enumerate() {
                rounds4(&mut abef, &mut cdgh, words, group);
            }
            // `w` holds the last sixteen schedule words, oldest first.
            for group in 4..16 {
                let next = schedule(w[0], w[1], w[2], w[3]);
                w = [w[1], w[2], w[3], next];
                rounds4(&mut abef, &mut cdgh, next, group);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        // Unpack ABEF / CDGH (lane 3 first) back into [A..H].
        *state = [
            _mm_extract_epi32::<3>(abef) as u32,
            _mm_extract_epi32::<2>(abef) as u32,
            _mm_extract_epi32::<3>(cdgh) as u32,
            _mm_extract_epi32::<2>(cdgh) as u32,
            _mm_extract_epi32::<1>(abef) as u32,
            _mm_extract_epi32::<0>(abef) as u32,
            _mm_extract_epi32::<1>(cdgh) as u32,
            _mm_extract_epi32::<0>(cdgh) as u32,
        ];
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 over the concatenation of several byte slices, without building
/// an intermediate buffer. Used pervasively for domain-separated hashing
/// (`sha256_concat(&[tag, payload])`).
pub fn sha256_concat(parts: &[&[u8]]) -> Hash256 {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Per-thread count of compressed blocks, so tests can pin what an
/// operation costs in compressions.
#[cfg(test)]
pub(crate) mod counter {
    use std::cell::Cell;

    thread_local! {
        static BLOCKS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn add(blocks: usize) {
        BLOCKS.with(|c| c.set(c.get() + blocks as u64));
    }

    /// Runs `f` and returns its result with the number of blocks it
    /// compressed on this thread.
    pub(crate) fn measure<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let before = BLOCKS.with(Cell::get);
        let out = f();
        (out, BLOCKS.with(Cell::get) - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// SHA-256 on the scalar compression alone, whatever the CPU: the
    /// oracle for the dispatched backend.
    fn scalar_sha256(data: &[u8]) -> Hash256 {
        let mut state = H0;
        let (blocks, rest) = data.as_chunks::<64>();
        for block in blocks.iter().chain(pad(rest, data.len() as u64).blocks()) {
            scalar::compress(&mut state, block);
        }
        digest(&state)
    }

    /// NIST / well-known vectors, through the dispatched backend and
    /// through the scalar fallback.
    #[test]
    fn nist_vectors() {
        for (msg, hex) in [
            (
                &b""[..],
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"hello world",
                "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9",
            ),
        ] {
            assert_eq!(sha256(msg).to_hex(), hex);
            assert_eq!(scalar_sha256(msg).to_hex(), hex);
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        let expect = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        assert_eq!(sha256(&data).to_hex(), expect);
        assert_eq!(scalar_sha256(&data).to_hex(), expect);
    }

    /// Each block is compressed exactly once: 16 KiB after a 19-byte tag
    /// (the Lamport leaf hash) is 257 blocks, and a short message's
    /// padding takes one or two.
    #[test]
    fn block_counts() {
        let data = vec![7u8; 19 + 16 * 1024];
        let (digest, blocks) = counter::measure(|| {
            let mut h = Sha256::new();
            h.update(&data[..19]);
            h.update(&data[19..]);
            h.finalize()
        });
        assert_eq!(blocks, 257);
        assert_eq!(digest, scalar_sha256(&data));
        for (len, expect) in [(0, 1), (55, 1), (56, 2), (64, 2), (119, 2), (120, 3)] {
            assert_eq!(
                counter::measure(|| sha256(&data[..len])).1,
                expect,
                "len {len}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The dispatched backend (SHA-NI where the CPU has it) computes
        /// the scalar compression bit for bit, on random states and on
        /// runs of one to nine random blocks.
        #[test]
        fn dispatched_compression_matches_scalar(state in vec(any::<u32>(), 8..9),
                                                 bytes in vec(any::<u8>(), 64..577)) {
            let state: [u32; 8] = state.try_into().expect("8 words");
            let (blocks, _) = bytes.as_chunks::<64>();
            let mut expect = state;
            for block in blocks {
                scalar::compress(&mut expect, block);
            }
            let mut got = state;
            Backend::detect().compress(&mut got, blocks);
            prop_assert_eq!(got, expect);
        }

        /// Any split of a 0–1024-byte message into `update` calls hashes
        /// to the scalar-only digest.
        #[test]
        fn update_splits_match_scalar(data in vec(any::<u8>(), 0..1025),
                                      cuts in vec(0usize..1025, 0..8)) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut at = 0;
            for cut in cuts {
                h.update(&data[at..cut]);
                at = cut;
            }
            h.update(&data[at..]);
            prop_assert_eq!(h.finalize(), scalar_sha256(&data));
        }
    }

    /// Incremental hashing must agree with one-shot hashing for every split
    /// point, including splits that straddle block boundaries.
    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..300).map(|i| (i * 31 % 256) as u8).collect();
        let expect = sha256(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 200, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn many_small_updates() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    /// Padding edge cases: messages of length 55, 56, 57, 63, 64 bytes hit
    /// all the padding branches.
    #[test]
    fn padding_boundaries() {
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let one = sha256(&data);
            let mut inc = Sha256::new();
            inc.update(&data);
            assert_eq!(inc.finalize(), one, "len {len}");
            // Against a slow reference re-computation through concat API.
            assert_eq!(sha256_concat(&[&data]), one);
        }
    }

    #[test]
    fn concat_equals_buffer() {
        let a = b"block-header";
        let b = b"||";
        let c = b"payload-bytes";
        let mut buf = Vec::new();
        buf.extend_from_slice(a);
        buf.extend_from_slice(b);
        buf.extend_from_slice(c);
        assert_eq!(sha256_concat(&[a, b, c]), sha256(&buf));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }
}
