//! Heap allocated by the HTTP readers, metered by a counting global
//! allocator: whatever bytes a peer sends — arbitrary, grammar soup, or the
//! shapes that make a parser allocate most per byte (thousands of empty
//! header lines, pipelined minimal requests, control characters echoed into
//! an error, bodies at the cap, a length prefix the stream never honours) —
//! both readers allocate at most [`PER_BYTE`] bytes per input byte plus
//! [`FIXED`]. Nothing is sized from a length the peer claims before the
//! bytes arrive.
//!
//! This lives in its own integration-test binary with a single test: the
//! allocator is process-global, so no other test may run beside it.

use priste_serve::http::{read_response, RequestReader, MAX_HEAD_BYTES};
use proptest::collection::vec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Read};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

/// Bytes allocated, frees ignored; a growing `realloc` counts its growth.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`; the
// bookkeeping touches only an atomic, never the memory handed out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allowance per input byte. The costliest shape is a head of empty
/// `:` header lines: each two input bytes add one 48-byte
/// `(String, String)` slot to a vector that grows by doubling.
const PER_BYTE: usize = 64;

/// Allowance per read: the first growth of the read buffer, error
/// messages and the request's own strings.
const FIXED: usize = 4096;

/// The largest body the request reader accepts here.
const MAX_BODY: usize = 16 * 1024;

/// A source that hands out `data` in reads of at most `chunk` bytes.
struct ShortReads<'a> {
    data: &'a [u8],
    chunk: usize,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = self.chunk.min(out.len()).min(self.data.len());
        out[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Bytes allocated while both readers consume `data` until they stop.
fn allocated_reading(data: &[u8], chunk: usize) -> usize {
    let before = ALLOCATED.load(Ordering::SeqCst);
    let mut reader = RequestReader::new(ShortReads { data, chunk }, MAX_BODY);
    while reader.read_request().is_ok() {}
    let mut source = ShortReads { data, chunk };
    let mut buf = Vec::new();
    while read_response(&mut source, &mut buf).is_ok() {}
    ALLOCATED.load(Ordering::SeqCst) - before
}

fn assert_bounded(data: &[u8], chunk: usize) {
    let used = allocated_reading(data, chunk);
    let bound = PER_BYTE * data.len() + FIXED;
    assert!(
        used <= bound,
        "{} input bytes (reads of {chunk}) allocated {used} B, over {bound} B",
        data.len()
    );
}

/// `body` repeated to at least `len` bytes, then cut there.
fn repeated(body: &str, len: usize) -> Vec<u8> {
    body.bytes().cycle().take(len).collect()
}

/// The inputs that make the readers allocate most per byte.
fn worst_shapes() -> Vec<Vec<u8>> {
    let head_room = MAX_HEAD_BYTES - 64;
    let mut shapes = Vec::new();
    for start in ["GET / HTTP/1.1\n", "HTTP/1.1 200 OK\n"] {
        // Thousands of empty header lines up to the cap, then the end.
        let mut empty = start.as_bytes().to_vec();
        empty.extend(repeated(":\n", head_room));
        empty.extend_from_slice(b"\n");
        shapes.push(empty);
        // A header line of control characters: refused with the line
        // debug-escaped into the error.
        let mut control = start.as_bytes().to_vec();
        control.extend_from_slice(b"x:");
        control.extend(std::iter::repeat_n(1u8, head_room));
        control.extend_from_slice(b"\n\n");
        shapes.push(control);
        // A bad header line (no colon) of escapes.
        let mut bad = start.as_bytes().to_vec();
        bad.extend(std::iter::repeat_n(0u8, head_room));
        bad.extend_from_slice(b"\n\n");
        shapes.push(bad);
        // A length the stream never honours.
        let mut liar = start.as_bytes().to_vec();
        liar.extend_from_slice(format!("content-length: {MAX_BODY}\n\nshort").as_bytes());
        shapes.push(liar);
        // A body at the cap, then the same again past it.
        for len in [MAX_BODY, MAX_BODY + 1] {
            let mut full = start.as_bytes().to_vec();
            full.extend_from_slice(format!("content-length: {len}\n\n").as_bytes());
            full.extend(repeated("{}", len));
            shapes.push(full);
        }
    }
    // Pipelined minimal messages.
    shapes.push(repeated("GET / HTTP/1.1\n\n", 64 * 1024));
    shapes.push(repeated("HTTP/1.1 200 OK\n\n", 64 * 1024));
    shapes.push(repeated(
        "POST / HTTP/1.1\ncontent-length: 1\n\nx",
        64 * 1024,
    ));
    shapes
}

/// Fragments of both grammars, near-misses included.
const TOKENS: &[&str] = &[
    "GET / HTTP/1.1",
    "HTTP/1.1 200 OK",
    "\r\n",
    "\n",
    ":",
    "x",
    "content-length: ",
    "7",
    "99999",
    "\0",
    "\x01",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The worst shapes, arbitrary bytes and grammar soup, delivered in
    /// reads of any size, all stay within the per-byte allowance.
    #[test]
    fn readers_allocate_at_most_a_constant_per_input_byte(
        raw in vec(0u8..=255, 0..2048),
        picks in vec(0..TOKENS.len(), 0..400),
        chunk in 1usize..=4096,
    ) {
        for shape in worst_shapes() {
            assert_bounded(&shape, chunk);
        }
        assert_bounded(&raw, chunk);
        let soup: Vec<u8> = picks.iter().flat_map(|&p| TOKENS[p].bytes()).collect();
        assert_bounded(&soup, chunk);
    }
}
