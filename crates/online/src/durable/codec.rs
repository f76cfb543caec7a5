//! Little-endian binary codec and CRC-32 for the durable layer.
//!
//! Every durable artifact (snapshot payloads, WAL frames) is built from the
//! same five primitives — `u8`, `u32`, `u64`, `f64`, and length-prefixed
//! `f64` slices — written little-endian with no padding. Floats are stored
//! as raw IEEE-754 bit patterns, so a decode→encode round trip is
//! byte-identical and recovered posteriors/forward vectors match the live
//! ones bit for bit (the determinism the recovery tests pin).

/// Decode failures carry a human-readable detail; callers wrap them into
/// [`DurableError::Corrupt`](crate::durable::DurableError::Corrupt) with the
/// offending path.
pub(crate) type CodecResult<T> = Result<T, String>;

/// Byte sink the encoders write through: an in-memory buffer
/// ([`Writer`]), a running hash ([`Fnv1a64`]), or a checksummed file
/// stream. Only [`Sink::put_bytes`] differs between them; the primitives
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

    /// Length-prefixed (`u64`) slice of raw IEEE-754 doubles, handed to the
    /// sink in 4 KiB chunks rather than one call per element.
    fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_u64(vs.len() as u64);
        let mut chunk = [0u8; 4096];
        for part in vs.chunks(chunk.len() / 8) {
            for (dst, v) in chunk.chunks_exact_mut(8).zip(part) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
            self.put_bytes(&chunk[..part.len() * 8]);
        }
    }
}

/// Append-only in-memory byte sink.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Sink for Writer {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
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

    /// Counterpart of [`Writer::put_f64_slice`]. The length prefix is
    /// sanity-checked against the remaining buffer before allocating, so a
    /// corrupt prefix cannot trigger an absurd allocation.
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
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_f64(what)?);
        }
        Ok(out)
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

/// Running CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven, so
/// a streamed payload can be checksummed as it is written.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(!0)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        use std::sync::OnceLock;
        static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
        let table = TABLE.get_or_init(|| {
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
            table
        });
        let mut crc = self.0;
        for &b in bytes {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.125);
        w.put_f64(f64::INFINITY);
        w.put_f64_slice(&[1.0, 2.5, f64::MIN_POSITIVE]);
        let bytes = w.into_bytes();
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
        let mut w = Writer::new();
        w.put_u32(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_u64("u64").is_err());
        let mut r = Reader::new(&bytes);
        r.get_u8("u8").unwrap();
        assert!(r.expect_end("buffer").is_err());
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
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
        let mut chunked = Writer::new();
        chunked.put_f64_slice(&vs);
        let mut scalar = Writer::new();
        scalar.put_u64(vs.len() as u64);
        for &v in &vs {
            scalar.put_f64(v);
        }
        let bytes = chunked.into_bytes();
        assert_eq!(bytes, scalar.into_bytes());
        let mut hash = Fnv1a64::new();
        hash.put_f64_slice(&vs);
        assert_eq!(hash.finish(), fnv1a64(&bytes));
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
