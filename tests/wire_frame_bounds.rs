//! `wire::read_frame` commits memory only for bytes a client has actually
//! sent: a frame that declares [`MAX_FRAME`] bytes and then closes after a
//! handful of them must fail with `UnexpectedEof` without allocating
//! anywhere near the declared length.
//!
//! A counting global allocator records, per thread (a const-initialised
//! `thread_local!`, so parallel tests do not see each other), the bytes
//! requested by every allocation and reallocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Cursor, ErrorKind, Read};

use sam_service::wire::{self, MAX_FRAME};

struct CountingAlloc;

thread_local! {
    /// Bytes requested by the current thread's allocations and
    /// reallocations (the new size of each).
    static THREAD_BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: delegates verbatim to `System`; the counter has no effect on the
// returned memory, and updating it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes the calling thread requests while running `f`.
fn bytes_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = THREAD_BYTES.with(Cell::get);
    let r = f();
    (r, THREAD_BYTES.with(Cell::get) - before)
}

/// A frame header declaring `declared` payload bytes, followed by `sent`
/// payload bytes and then end of stream.
fn lying_frame(declared: usize, sent: usize) -> Cursor<Vec<u8>> {
    let mut bytes = (declared as u32).to_le_bytes().to_vec();
    bytes.extend((0..sent).map(|i| i as u8));
    Cursor::new(bytes)
}

#[test]
fn short_max_frame_fails_without_committing_its_length() {
    let mut reader = lying_frame(MAX_FRAME, 16);
    let (result, bytes) = bytes_during(|| wire::read_frame(&mut reader));
    let err = result.expect_err("a frame that ends early must fail");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert!(
        bytes <= 1 << 20,
        "{bytes} bytes allocated for 16 received of a {MAX_FRAME}-byte declaration"
    );
}

/// Growth follows the bytes received: a large declaration cut off part
/// way costs a small multiple of what arrived, not the declaration.
#[test]
fn partial_frame_allocation_tracks_bytes_received() {
    let sent = 3 << 20;
    let mut reader = lying_frame(MAX_FRAME, sent);
    let (result, bytes) = bytes_during(|| wire::read_frame(&mut reader));
    assert_eq!(
        result.expect_err("truncated").kind(),
        ErrorKind::UnexpectedEof
    );
    assert!(
        bytes <= 4 * sent,
        "{bytes} bytes allocated for {sent} received of a {MAX_FRAME}-byte declaration"
    );
}

/// Complete frames still round-trip at every size class, and leave the
/// stream positioned at the next frame.
#[test]
fn complete_frames_round_trip() {
    for len in [0usize, 1, 4096, (64 << 10) + 3, 1 << 20] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
        let mut bytes = Vec::new();
        wire::write_frame(&mut bytes, &payload).expect("write to a Vec");
        bytes.extend_from_slice(b"next");
        let mut reader = Cursor::new(bytes);
        let got = wire::read_frame(&mut reader).expect("complete frame");
        assert_eq!(got.as_deref(), Some(&payload[..]), "len {len}");
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("read rest");
        assert_eq!(rest, b"next", "len {len}");
    }
    // A clean end of stream at a frame boundary is not an error.
    assert!(wire::read_frame(&mut Cursor::new(Vec::new()))
        .unwrap()
        .is_none());
}
