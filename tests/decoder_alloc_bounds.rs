//! A length field is the sender's claim, not a reason to allocate: the
//! decoders that read one off the network reserve what the bytes actually
//! received can hold. Measured with a counting allocator — the decoders'
//! results look the same either way.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::io::Write;
use std::net::{TcpListener, TcpStream};

use counting_alloc::largest_allocation_in;
use gossip::core::wire::decode_message;
use gossip::core::TestEvent;
use gossip::deploy::proto::read_message;
use gossip::stream::{StreamConfig, StreamPacket};
use gossip::udp::codec::decode_process_reports;

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
fn a_four_byte_report_cannot_reserve_a_million_node_reports() {
    // [node count = 1 048 575] and not one report: a worker's `Report`
    // frame reaches the coordinator's decoder as it arrived.
    let payload = [0xFF, 0xFF, 0x0F, 0x00];
    let (rejected, largest) = largest_allocation_in(|| {
        decode_process_reports(&payload, &StreamConfig::paper_default()).is_err()
    });
    assert!(rejected, "a truncated report is rejected");
    assert!(largest <= 4096, "reserved {largest} bytes for an empty report");
}

#[test]
fn a_frame_header_promising_64_mib_allocates_for_the_bytes_that_arrive() {
    const SENT: usize = 1000;
    let listener = TcpListener::bind("127.0.0.1:0").expect("listener binds");
    let addr = listener.local_addr().expect("addr");
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connects");
        // A `Report` header: [tag][len = 64 MiB, the kind's cap], a sliver
        // of body, then hang up.
        let mut frame = vec![5u8];
        frame.extend_from_slice(&(64u32 << 20).to_le_bytes());
        frame.extend_from_slice(&[0u8; SENT]);
        stream.write_all(&frame).expect("writes");
    });
    let (mut stream, _) = listener.accept().expect("accepts");
    let (got, largest) = largest_allocation_in(|| read_message(&mut stream));
    client.join().expect("client");
    match got {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("a short body must be an I/O error, got {other:?}"),
    }
    assert!(largest <= 64 * SENT, "{largest} bytes allocated for a {SENT}-byte body");
}

#[test]
fn a_hello_header_promising_64_mib_is_refused_before_its_body() {
    // [tag 1][len = 64 MiB], over the 4-byte cap of a `Hello`, and a body.
    let mut frame = vec![1u8];
    frame.extend_from_slice(&(64u32 << 20).to_le_bytes());
    frame.extend_from_slice(&[0u8; 1000]);
    let mut stream = &frame[..];
    let (got, largest) = largest_allocation_in(|| read_message(&mut stream));
    match got {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
        other => panic!("an over-cap Hello must be refused, got {other:?}"),
    }
    assert_eq!(stream.len(), 1000, "not one body byte was read");
    assert!(largest <= 128, "{largest} bytes allocated: more than the error");
}
