//! Robustness tests for the HTTP readers, which take untrusted bytes from a
//! socket: arbitrary input, delivered in arbitrary short reads, must never
//! panic or hang; every request the server accepts must respect the head
//! and body caps; and an unterminated head past its cap must be refused.

use priste_serve::http::{
    read_response, ReadError, RequestReader, MAX_HEAD_BYTES, MAX_RESPONSE_HEAD_BYTES,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{self, Read};

/// Fragments of the request and response grammar, including near-misses
/// (bad versions, signed or overflowing lengths, control characters), so
/// random concatenations reach deep reader states.
const TOKENS: &[&str] = &[
    "GET ",
    "POST ",
    "/v1/ingest",
    "/",
    " HTTP/1.1",
    " HTTP/2",
    "HTTP/1.1 200 OK",
    "HTTP/1.0 503",
    "\r\n",
    "\n",
    "\r",
    "\r\n\r\n",
    ":",
    " ",
    "\t",
    "content-length: ",
    "Content-Length:",
    "0",
    "3",
    "17",
    "+5",
    "-1",
    "18446744073709551616",
    "connection: close",
    "x",
    "{}",
    "é",
    "\0",
    "\x7f",
];

/// A source that hands out `data` in short reads whose sizes cycle through
/// `chunks` (each at least 1), then reports end of stream.
struct ShortReads<'a> {
    data: &'a [u8],
    chunks: &'a [usize],
    reads: usize,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let want = self.chunks[self.reads % self.chunks.len()];
        self.reads += 1;
        let n = want.min(out.len()).min(self.data.len());
        out[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn short_reads<'a>(data: &'a [u8], chunks: &'a [usize]) -> ShortReads<'a> {
    ShortReads {
        data,
        chunks,
        reads: 0,
    }
}

/// Where the first head in `data` ends: its length and the length with its
/// blank line (`\n\n` or `\n\r\n`), as the readers frame it.
fn first_head(data: &[u8]) -> Option<(usize, usize)> {
    (0..data.len()).find_map(|i| match &data[i..] {
        [b'\n', b'\n', ..] => Some((i, i + 2)),
        [b'\n', b'\r', b'\n', ..] => Some((i, i + 3)),
        _ => None,
    })
}

/// Runs the server's keep-alive loop over `data`: reads requests until the
/// reader refuses or the stream ends, checking every accepted request
/// against an independent framing of the input. Returns the final error.
fn serve_all(data: &[u8], chunks: &[usize], max_body: usize) -> ReadError {
    let mut reader = RequestReader::new(short_reads(data, chunks), max_body);
    let mut rest = data;
    // Every accepted request consumes at least its two-byte blank line.
    for _ in 0..=data.len() / 2 {
        let request = match reader.read_request() {
            Ok(request) => request,
            Err(e) => return e,
        };
        let (head, with_blank) = first_head(rest).expect("accepted without a blank line");
        assert!(head <= MAX_HEAD_BYTES, "accepted a {head}-byte head");
        assert!(request.body.len() <= max_body, "body over {max_body}");
        assert_eq!(request.body, rest[with_blank..][..request.body.len()]);
        rest = &rest[with_blank + request.body.len()..];
    }
    panic!("the request loop did not end on {} bytes", data.len());
}

/// The client's loop over `data`: reads responses until one fails,
/// checking each against the same independent framing.
fn read_all_responses(data: &[u8], chunks: &[usize]) -> ReadError {
    let mut source = short_reads(data, chunks);
    let mut buf = Vec::new();
    let mut rest = data;
    for _ in 0..=data.len() / 2 {
        let response = match read_response(&mut source, &mut buf) {
            Ok(response) => response,
            Err(e) => return e,
        };
        let (head, with_blank) = first_head(rest).expect("accepted without a blank line");
        assert!(
            head <= MAX_RESPONSE_HEAD_BYTES,
            "accepted a {head}-byte response head"
        );
        assert_eq!(response.body, rest[with_blank..][..response.body.len()]);
        rest = &rest[with_blank + response.body.len()..];
    }
    panic!("the response loop did not end on {} bytes", data.len());
}

/// Concatenates the tokens `picks` selects.
fn soup(picks: &[usize]) -> Vec<u8> {
    picks.iter().flat_map(|&p| TOKENS[p].bytes()).collect()
}

/// `len` filler bytes with no line break.
fn filler(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|k| b'a' + (k as u8).wrapping_add(seed) % 26)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: both readers return, never panic or spin.
    #[test]
    fn arbitrary_bytes_never_panic(
        data in vec(0u8..=255, 0..1024),
        chunks in vec(1usize..=64, 1..6),
        max_body in 0usize..64,
    ) {
        serve_all(&data, &chunks, max_body);
        read_all_responses(&data, &chunks);
    }

    /// Concatenations of grammar fragments, pipelined several messages
    /// deep, reach the header, length and body paths.
    #[test]
    fn grammar_soup_respects_the_caps(
        picks in vec(0..TOKENS.len(), 0..160),
        chunks in vec(1usize..=32, 1..6),
        max_body in 0usize..32,
    ) {
        let data = soup(&picks);
        serve_all(&data, &chunks, max_body);
        read_all_responses(&data, &chunks);
    }

    /// Well-formed messages whose head straddles the cap: accepted at or
    /// under it and refused over it, whatever the read sizes.
    #[test]
    fn heads_at_the_cap_are_framed_exactly(
        slack in 0usize..128,
        over in proptest::bool::ANY,
        seed in 0u8..=255,
        chunks in vec(1usize..=4096, 1..4),
    ) {
        let message = |start: &[u8], cap: usize| {
            let head = if over { cap + 1 + slack } else { cap - slack };
            let mut data = start.to_vec();
            data.extend(filler(head - start.len() - 20, seed));
            data.extend_from_slice(b"\r\ncontent-length: 2\r\n\r\n{}");
            assert_eq!(first_head(&data).unwrap().0, head);
            data
        };

        let data = message(b"POST /v1/ingest HTTP/1.1\r\nx: ", MAX_HEAD_BYTES);
        let mut reader = RequestReader::new(short_reads(&data, &chunks), 64);
        match reader.read_request() {
            Ok(request) => prop_assert!(!over && request.body == b"{}"),
            Err(e) => prop_assert!(over && matches!(e, ReadError::TooLarge), "{e}"),
        }

        let data = message(b"HTTP/1.1 200 OK\r\nx: ", MAX_RESPONSE_HEAD_BYTES);
        match read_response(&mut short_reads(&data, &chunks), &mut Vec::new()) {
            Ok(response) => prop_assert!(!over && response.body == b"{}"),
            Err(e) => prop_assert!(over && e.to_string().contains("exceeds"), "{e}"),
        }
    }

    /// An unterminated head past the cap is refused before the stream ends.
    #[test]
    fn unterminated_heads_past_the_cap_are_refused(
        extra in 4usize..8192,
        seed in 0u8..=255,
        chunks in vec(1usize..=4096, 1..4),
    ) {
        let data = filler(MAX_HEAD_BYTES + extra, seed);
        let mut reader = RequestReader::new(short_reads(&data, &chunks), 1024);
        prop_assert!(matches!(reader.read_request(), Err(ReadError::TooLarge)));

        let data = filler(MAX_RESPONSE_HEAD_BYTES + extra, seed);
        let refused = read_response(&mut short_reads(&data, &chunks), &mut Vec::new());
        prop_assert!(
            matches!(refused, Err(ReadError::Malformed(ref msg)) if msg.contains("exceeds")),
            "{:?}", refused.map(|r| r.status)
        );
    }
}
