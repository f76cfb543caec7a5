//! Little-endian binary codec and CRC-32 for the durable layer.
//!
//! Every durable artifact (snapshot payloads, WAL frames) is built from the
//! same five primitives — `u8`, `u32`, `u64`, `f64`, and length-prefixed
//! `f64` slices — written little-endian with no padding. Floats are stored
//! as raw IEEE-754 bit patterns, so a decode→encode round trip is
//! byte-identical and recovered posteriors/forward vectors match the live
//! ones bit for bit (the determinism the recovery tests pin).
//!
//! Every byte a snapshot or WAL frame carries also passes through
//! [`Crc32`] — on write (the snapshot file sink, WAL frame encoding) and
//! on read (snapshot validation, WAL replay). The kernel is slicing-by-16:
//! sixteen 256-entry tables, built at compile time, fold a 16-byte block
//! into the register with sixteen independent lookups. A bytewise table
//! loop instead chains one lookup per byte, each waiting on the last, and
//! that made a snapshot-format-1 checkpoint at m = 2500 CRC-bound: each
//! session carried its posterior, attach-time π and 2m-long forward
//! mantissa inline, ≈ 80 KB, so 10⁴ sessions streamed ≈ 762 MiB, which
//! the bytewise loop checksummed in ≈ 2.4 s of a ≈ 3.2 s checkpoint.
//! Slicing-by-16 takes ≈ 0.48 s for the same volume (2-vCPU Xeon); the
//! value is unchanged, so the file formats are too. Format 2 writes a
//! vector shared by many sessions once (see the snapshot module), so only
//! observed sessions still stream their own ≈ 80 KB; 10⁴ sessions that
//! share one prior and its initial lift take ≈ 0.9 MB.

/// Decode failures carry a human-readable detail; callers wrap them into
/// [`DurableError::Corrupt`](crate::durable::DurableError::Corrupt) with the
/// offending path.
pub(crate) type CodecResult<T> = Result<T, String>;

/// Byte sink the encoders write through: an in-memory buffer (a
/// `Vec<u8>`, appended to), a running hash ([`Fnv1a64`]), or a checksummed
/// file stream. Only [`Sink::put_bytes`] differs between them; the primitives
/// are shared, so every sink sees the same bytes for the same value.
pub(crate) trait Sink {
    /// Appends raw bytes.
    fn put_bytes(&mut self, bytes: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_bytes(&[v]);
    }

    fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Length-prefixed (`u64`) slice of raw IEEE-754 doubles.
    fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_u64(vs.len() as u64);
        self.put_f64_words(vs);
    }

    /// Raw IEEE-754 doubles with no length prefix, handed to the sink in
    /// 4 KiB chunks rather than one call per element.
    fn put_f64_words(&mut self, vs: &[f64]) {
        let mut chunk = [0u8; 4096];
        for part in vs.chunks(chunk.len() / 8) {
            for (dst, v) in chunk.chunks_exact_mut(8).zip(part) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
            self.put_bytes(&chunk[..part.len() * 8]);
        }
    }

    /// `n` words of `+0.0` (all-zero bytes), in 4 KiB chunks.
    fn put_zero_words(&mut self, n: usize) {
        let chunk = [0u8; 4096];
        let mut left = n * 8;
        while left > 0 {
            let part = left.min(chunk.len());
            self.put_bytes(&chunk[..part]);
            left -= part;
        }
    }
}

/// In-memory sink: bytes are appended, so one buffer can be cleared and
/// reused for every frame.
impl Sink for Vec<u8> {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Bounds-checked cursor over an encoded buffer.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(format!(
                "truncated {what}: need {n} bytes, {} left",
                self.remaining()
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn get_u8(&mut self, what: &str) -> CodecResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn get_u32(&mut self, what: &str) -> CodecResult<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    pub(crate) fn get_u64(&mut self, what: &str) -> CodecResult<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    pub(crate) fn get_f64(&mut self, what: &str) -> CodecResult<f64> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Counterpart of [`Sink::put_f64_slice`]. The length prefix is
    /// sanity-checked against the remaining buffer before allocating, so a
    /// corrupt prefix cannot trigger an absurd allocation; the checked
    /// bytes are then taken at once and decoded eight at a time.
    pub(crate) fn get_f64_slice(&mut self, what: &str) -> CodecResult<Vec<f64>> {
        let len = self.get_u64(what)? as usize;
        if len
            .checked_mul(8)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(format!(
                "corrupt {what}: length prefix {len} exceeds {} remaining bytes",
                self.remaining()
            ));
        }
        let bytes = self.take(len * 8, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect())
    }

    pub(crate) fn expect_end(&self, what: &str) -> CodecResult<()> {
        if self.remaining() != 0 {
            return Err(format!(
                "{what} carries {} trailing bytes past its payload",
                self.remaining()
            ));
        }
        Ok(())
    }
}

/// The reflected IEEE 802.3 polynomial (zlib, PNG, gzip).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 lookup tables: `CRC32_TABLES[0]` is the classic bytewise
/// table, and `CRC32_TABLES[k][b]` is the CRC register after byte `b` is
/// followed by `k` zero bytes, so one 16-byte block folds in with sixteen
/// independent lookups instead of a sixteen-step dependency chain.
static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                CRC32_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Running CRC-32 (IEEE 802.3, the zlib/PNG polynomial), so a streamed
/// payload can be checksummed as it is written. Slicing-by-16: bulk bytes
/// go through [`CRC32_TABLES`] sixteen at a time, the ragged tail bytewise;
/// the value is the same as the one-byte-at-a-time table loop's.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(!0)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut crc = self.0;
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            let b: &[u8; 16] = block.try_into().expect("16-byte block");
            let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    pub(crate) fn finish(self) -> u32 {
        !self.0
    }
}

/// CRC-32 of one buffer.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// FNV-1a 64-bit, used for configuration fingerprints and state digests.
/// As a [`Sink`] it hashes an encoding without materializing it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a64(u64);

impl Fnv1a64 {
    pub(crate) fn new() -> Self {
        Fnv1a64(0xCBF2_9CE4_8422_2325)
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

impl Sink for Fnv1a64 {
    fn put_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// FNV-1a 64-bit of one buffer.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a64::new();
    hash.put_bytes(bytes);
    hash.finish()
}

/// Word-wise hash of a vector's bits: `-0.0` and `0.0` hash apart. Four
/// independent lanes keep the multiply chain off the critical path (about
/// 1 µs at m = 2500). It keys the interned-prior table and, as part of the
/// WAL format, names the column of a by-reference record, so its value for
/// a given vector must never change.
pub(crate) fn word_hash(values: &[f64]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(K);
    let chunks = values.chunks_exact(4);
    let tail = chunks.remainder();
    let mut lanes = [values.len() as u64; 4];
    for chunk in chunks {
        for (lane, x) in lanes.iter_mut().zip(chunk) {
            *lane = mix(*lane, x.to_bits());
        }
    }
    let h = lanes.into_iter().fold(0, mix);
    tail.iter().fold(h, |h, x| mix(h, x.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The word hash names a column in every by-reference WAL record on
    /// disk, so its values are pinned.
    #[test]
    fn word_hash_is_pinned() {
        assert_eq!(word_hash(&[]), 0);
        assert_eq!(
            word_hash(&[0.25, -0.0, 1.0, 3.5, 1e-300]),
            0x27A3_D075_38EC_2E4D
        );
        assert_ne!(word_hash(&[0.0]), word_hash(&[-0.0]));
    }

    #[test]
    fn primitives_roundtrip() {
        let mut bytes = Vec::new();
        bytes.put_u8(7);
        bytes.put_u32(0xDEAD_BEEF);
        bytes.put_u64(u64::MAX - 3);
        bytes.put_f64(-0.125);
        bytes.put_f64(f64::INFINITY);
        bytes.put_f64_slice(&[1.0, 2.5, f64::MIN_POSITIVE]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8("u8").unwrap(), 7);
        assert_eq!(r.get_u32("u32").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("u64").unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64("f64").unwrap(), -0.125);
        assert_eq!(r.get_f64("f64").unwrap(), f64::INFINITY);
        assert_eq!(
            r.get_f64_slice("slice").unwrap(),
            vec![1.0, 2.5, f64::MIN_POSITIVE]
        );
        r.expect_end("buffer").unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_reported() {
        let mut bytes = Vec::new();
        bytes.put_u32(1);
        let mut r = Reader::new(&bytes);
        assert!(r.get_u64("u64").is_err());
        let mut r = Reader::new(&bytes);
        r.get_u8("u8").unwrap();
        assert!(r.expect_end("buffer").is_err());
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.put_u64(u64::MAX);
        let mut r = Reader::new(&bytes);
        assert!(r.get_f64_slice("slice").is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        // Fed in pieces, the running CRC matches the one-shot value.
        let mut crc = Crc32::new();
        crc.update(b"1234");
        crc.update(b"56789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
    }

    #[test]
    fn chunked_f64_slices_encode_like_scalars() {
        // Longer than one 4 KiB chunk, with a ragged tail.
        let vs: Vec<f64> = (0..1300).map(|i| i as f64 * -0.37).collect();
        let mut chunked = Vec::new();
        chunked.put_f64_slice(&vs);
        let mut scalar = Vec::new();
        scalar.put_u64(vs.len() as u64);
        for &v in &vs {
            scalar.put_f64(v);
        }
        assert_eq!(chunked, scalar);
        let mut hash = Fnv1a64::new();
        hash.put_f64_slice(&vs);
        assert_eq!(hash.finish(), fnv1a64(&chunked));
    }

    /// The bytewise table loop the slicing kernel replaced: one lookup and
    /// one shift per byte, with its own table built at run time.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        let mut crc = !0u32;
        for &b in bytes {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// Flips bits `start .. start + len` of `bytes` wherever `pattern` has a
    /// one, numbering bits in CRC order (byte by byte, least significant
    /// bit first), so a contiguous span of bit numbers is a contiguous
    /// span of the message polynomial.
    fn flip_bits(bytes: &mut [u8], start: usize, len: usize, pattern: u32) {
        for i in 0..len {
            if pattern >> i & 1 != 0 {
                let bit = start + i;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Slicing-by-16 equals the bytewise loop on any bytes, from any
        /// (unaligned) offset, fed in any pieces — short pieces run through
        /// the remainder path only, long ones through both.
        #[test]
        fn slicing_by_16_matches_the_bytewise_oracle(
            bytes in proptest::collection::vec(0u8..=255, 0..=4096),
            offset in 0usize..32,
            cuts in proptest::collection::vec(0usize..=4096, 0..8),
        ) {
            let sub = &bytes[offset.min(bytes.len())..];
            let want = crc32_bytewise(sub);
            prop_assert_eq!(crc32(sub), want);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (sub.len() + 1)).collect();
            cuts.sort_unstable();
            cuts.push(sub.len());
            let mut crc = Crc32::new();
            let mut at = 0;
            for cut in cuts {
                crc.update(&sub[at..cut]);
                at = cut;
            }
            prop_assert_eq!(crc.finish(), want);
        }

        /// CRC-32 detects every single-bit error and every burst error of
        /// at most 32 bits, wherever it lands in the payload.
        #[test]
        fn single_bit_flips_and_short_bursts_change_the_crc(
            payload in proptest::collection::vec(0u8..=255, 1..=256),
            bursts in proptest::collection::vec((0usize..=usize::MAX, 1usize..=32, 0u32..=u32::MAX), 32),
        ) {
            let clean = crc32(&payload);
            let bits = payload.len() * 8;
            let mut damaged = payload.clone();
            for bit in 0..bits {
                flip_bits(&mut damaged, bit, 1, 1);
                prop_assert_ne!(crc32(&damaged), clean, "single flip of bit {}", bit);
                flip_bits(&mut damaged, bit, 1, 1);
            }
            for (at, len, inner) in bursts {
                // A burst of length `len`: first and last bits set, the
                // ones between arbitrary.
                let len = len.min(bits);
                let mask = if len == 32 { u32::MAX } else { (1 << len) - 1 };
                let pattern = (inner | 1 | 1 << (len - 1)) & mask;
                let start = at % (bits - len + 1);
                flip_bits(&mut damaged, start, len, pattern);
                prop_assert_ne!(
                    crc32(&damaged),
                    clean,
                    "burst {:#x} of {} bits at bit {}",
                    pattern,
                    len,
                    start
                );
                flip_bits(&mut damaged, start, len, pattern);
            }
        }
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
