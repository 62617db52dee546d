//! Bounds what a hostile length prefix can make `TcpChannel::recv`
//! allocate: a declared length above `max_frame` is refused before any
//! allocation, and a huge declared body that never arrives costs only the
//! bytes that did.
//!
//! A counting `#[global_allocator]` wraps the system allocator; this lives
//! in its own integration-test binary so the counter doesn't interfere with
//! other suites. The harness runs the tests below on parallel threads, so
//! the live-byte count and its high-water mark are kept per thread: each
//! measurement window sees only the allocations of the test that opened it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::{TcpListener, TcpStream};

use pretzel_transport::{Channel, TcpChannel, TransportError};

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: reading or bumping them
    // never allocates and is valid for the whole life of the thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let live = LIVE.get() + delta;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed on this
/// thread and the most bytes it held live at once.
fn measure<R>(f: impl FnOnce() -> R) -> (usize, usize, R) {
    let (count, live) = (ALLOCATIONS.get(), LIVE.get());
    PEAK.set(live);
    let result = f();
    let peak = (PEAK.get() - live) as usize;
    (ALLOCATIONS.get() - count, peak, result)
}

/// A framed receiver and a raw stream to write its bytes by hand.
fn raw_pair() -> (TcpChannel, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (stream, _) = listener.accept().unwrap();
    (TcpChannel::new(stream), raw)
}

#[test]
fn declared_length_above_max_frame_is_refused_before_any_allocation() {
    let (mut server, mut raw) = raw_pair();
    server.set_max_frame(1024);
    raw.write_all(&(200u32 << 20).to_be_bytes()).unwrap();
    let (allocations, _, result) = measure(|| server.recv());
    assert!(matches!(
        result,
        Err(TransportError::FrameTooLarge {
            size: 0x0C80_0000,
            max: 1024
        })
    ));
    assert_eq!(allocations, 0, "refusal must not allocate");
}

#[test]
fn huge_declared_body_then_close_allocates_only_what_arrived() {
    let (mut server, mut raw) = raw_pair();
    // Within the default 256 MiB limit, so the length alone is not refused.
    raw.write_all(&(200u32 << 20).to_be_bytes()).unwrap();
    raw.write_all(b"ten bytes!").unwrap();
    drop(raw);
    let (_, peak, result) = measure(|| server.recv());
    assert!(matches!(result, Err(TransportError::Closed)));
    assert!(
        peak < 2 << 20,
        "a 200 MiB declaration with 10 bytes sent held {peak} bytes"
    );

    // The counter sees real frame allocations: a 1 MiB body costs ~1 MiB.
    let (mut server, mut raw) = raw_pair();
    let writer = std::thread::spawn(move || {
        raw.write_all(&(1u32 << 20).to_be_bytes()).unwrap();
        raw.write_all(&vec![0xA5u8; 1 << 20]).unwrap();
    });
    let (_, peak, frame) = measure(|| server.recv().unwrap());
    writer.join().unwrap();
    assert_eq!(frame.len(), 1 << 20);
    assert!(peak >= 1 << 20, "counter missed the body: {peak} bytes");
}
