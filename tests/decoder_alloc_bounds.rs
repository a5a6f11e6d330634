//! A length field is the sender's claim, not a reason to allocate: the
//! decoders that read one off the network reserve what the bytes actually
//! received can hold. Measured with a counting allocator — the decoders'
//! results look the same either way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::{TcpListener, TcpStream};

use gossip::core::wire::decode_message;
use gossip::core::TestEvent;
use gossip::deploy::proto::{read_message, ProtoError};
use gossip::stream::StreamPacket;

thread_local! {
    /// The largest single request this thread has made of the allocator.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the largest request per thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a const-initialised,
// destructor-free thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's obligations are exactly `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are exactly `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn note(size: usize) {
    LARGEST.with(|largest| largest.set(largest.get().max(size)));
}

/// Runs `f` and returns its result with the largest allocation it requested
/// on this thread.
fn largest_allocation_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

#[test]
fn a_seven_byte_datagram_cannot_reserve_a_full_u16_of_elements() {
    for tag in [1u8, 2, 3] {
        // [tag][sender u32][count = 65 535] and not one element.
        let datagram = [tag, 9, 0, 0, 0, 0xFF, 0xFF];
        let (decoded, largest) = largest_allocation_in(|| {
            (decode_message::<TestEvent>(&datagram), decode_message::<StreamPacket>(&datagram))
        });
        assert_eq!(decoded, (None, None), "tag {tag}: a truncated body is rejected");
        assert!(largest <= 64, "tag {tag}: reserved {largest} bytes for an empty body");
    }
}

#[test]
fn a_frame_header_promising_64_mib_allocates_for_the_bytes_that_arrive() {
    const SENT: usize = 1000;
    let listener = TcpListener::bind("127.0.0.1:0").expect("listener binds");
    let addr = listener.local_addr().expect("addr");
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connects");
        // [tag][len = 64 MiB, the cap], a sliver of body, then hang up.
        let mut frame = vec![1u8];
        frame.extend_from_slice(&(64u32 << 20).to_le_bytes());
        frame.extend_from_slice(&[0u8; SENT]);
        stream.write_all(&frame).expect("writes");
    });
    let (mut stream, _) = listener.accept().expect("accepts");
    let (got, largest) = largest_allocation_in(|| read_message(&mut stream));
    client.join().expect("client");
    match got {
        Err(ProtoError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("a short body must be an I/O error, got {other:?}"),
    }
    assert!(largest <= 64 * SENT, "{largest} bytes allocated for a {SENT}-byte body");
}
