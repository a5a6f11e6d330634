//! The control protocol between `gossipd` workers and the coordinator:
//! five messages over one TCP connection per worker, in handshake order
//! `Hello` → `Welcome` → `Addrs` → `Start` → `Report`, each framed
//! `[tag u8][len u32 LE][body]`.
//!
//! Decoding is sans-io: a [`FrameDecoder`] takes a connection's bytes as
//! they arrive and hands back whole messages. Each kind has its own body
//! cap ([`Message::cap`]), checked on the header before one body byte is
//! buffered; the body then grows with the bytes that arrive, never with
//! the length the header claims. Bodies are read with the report codec's
//! [`Cursor`], and a frame that does not decode is a [`CodecError`].

use std::io::{Error, ErrorKind, Read, Write};
use std::net::SocketAddr;

use gossip_udp::codec::{CodecError, Cursor};

/// The bytes of a frame header: the tag, then the body length.
const HEADER: usize = 5;

/// The shortest text a socket address parses from.
const MIN_ADDR_TEXT: usize = "[::]:0".len();

/// One control-protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Worker → coordinator: worker `index` reporting for duty.
    Hello {
        /// The worker's process index, `0..processes`.
        index: u32,
    },
    /// Coordinator → worker: the worker's assignment.
    Welcome {
        /// First hosted node id (inclusive).
        lo: u32,
        /// Last hosted node id (exclusive).
        hi: u32,
        /// The full deployment file, verbatim — the worker parses it
        /// itself so both sides compile identical plans.
        config_toml: String,
    },
    /// Worker → coordinator: its part of the address book (the tracker
    /// step).
    Addrs {
        /// `(node id, home socket address)` for every hosted node.
        addrs: Vec<(u32, SocketAddr)>,
        /// The worker's telemetry scrape endpoint, when the deployment
        /// enables live metrics (the coordinator polls it mid-run for the
        /// fleet status line and the merged time series).
        telemetry: Option<SocketAddr>,
    },
    /// Coordinator → worker: the start barrier, full address table plus
    /// shared epoch.
    Start {
        /// The cluster-wide start instant as UNIX microseconds; every
        /// process maps it to a local `Instant` and anchors its clock
        /// there, so `Time::ZERO` coincides across processes.
        start_unix_micros: u64,
        /// `table[g]` is node `g`'s home socket address, for the whole
        /// cluster.
        table: Vec<SocketAddr>,
    },
    /// Worker → coordinator: the final (or signal-interrupted, then
    /// `degraded`) measurement.
    Report {
        /// Whether the run was cut short (signal, external stop).
        degraded: bool,
        /// Shards that aborted inside this process.
        aborted_shards: u32,
        /// [`gossip_udp::codec::encode_process_reports`] bytes.
        payload: Vec<u8>,
    },
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_addr(out: &mut Vec<u8>, addr: &SocketAddr) {
    put_str(out, &addr.to_string());
}

fn malformed(message: String) -> CodecError {
    CodecError(format!("control frame: {message}"))
}

fn read_str(cur: &mut Cursor) -> Result<String, CodecError> {
    let len = cur.u32()? as usize;
    std::str::from_utf8(cur.bytes(len)?)
        .map(str::to_owned)
        .map_err(|_| malformed("string is not UTF-8".to_string()))
}

fn read_addr(cur: &mut Cursor) -> Result<SocketAddr, CodecError> {
    let s = read_str(cur)?;
    s.parse().map_err(|_| malformed(format!("`{s}` is not a socket address")))
}

impl Message {
    /// The most body bytes a frame of kind `tag` may carry (`None`: no
    /// such kind). A header over its cap is refused before its body.
    pub const fn cap(tag: u8) -> Option<usize> {
        match tag {
            // Hello: the worker index.
            1 => Some(4),
            // Welcome: the slice and the deployment file.
            2 => Some(1 << 20),
            // Addrs (a slice) and Start (the cluster): ≈ 30 B per node
            // address, so room for half a million nodes.
            3 | 4 => Some(16 << 20),
            // Report: a few MiB for a few thousand nodes.
            5 => Some(64 << 20),
            _ => None,
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Message::Hello { .. } => 1,
            Message::Welcome { .. } => 2,
            Message::Addrs { .. } => 3,
            Message::Start { .. } => 4,
            Message::Report { .. } => 5,
        }
    }

    /// The message's frame: header, then body.
    pub fn encode(&self) -> Vec<u8> {
        let body = self.encode_body();
        let mut frame = Vec::with_capacity(HEADER + body.len());
        frame.push(self.tag());
        put_u32(&mut frame, body.len() as u32);
        frame.extend_from_slice(&body);
        frame
    }

    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::Hello { index } => put_u32(&mut out, *index),
            Message::Welcome { lo, hi, config_toml } => {
                put_u32(&mut out, *lo);
                put_u32(&mut out, *hi);
                put_str(&mut out, config_toml);
            }
            Message::Addrs { addrs, telemetry } => {
                put_u32(&mut out, addrs.len() as u32);
                for (id, addr) in addrs {
                    put_u32(&mut out, *id);
                    put_addr(&mut out, addr);
                }
                match telemetry {
                    Some(addr) => {
                        out.push(1);
                        put_addr(&mut out, addr);
                    }
                    None => out.push(0),
                }
            }
            Message::Start { start_unix_micros, table } => {
                out.extend_from_slice(&start_unix_micros.to_le_bytes());
                put_u32(&mut out, table.len() as u32);
                for addr in table {
                    put_addr(&mut out, addr);
                }
            }
            Message::Report { degraded, aborted_shards, payload } => {
                out.push(u8::from(*degraded));
                put_u32(&mut out, *aborted_shards);
                put_u32(&mut out, payload.len() as u32);
                out.extend_from_slice(payload);
            }
        }
        out
    }

    fn decode(tag: u8, body: &[u8]) -> Result<Message, CodecError> {
        let mut cur = Cursor::new(body);
        // A count is the sender's claim: reserve only what the bytes left
        // can hold.
        let message = match tag {
            1 => Message::Hello { index: cur.u32()? },
            2 => Message::Welcome {
                lo: cur.u32()?,
                hi: cur.u32()?,
                config_toml: read_str(&mut cur)?,
            },
            3 => {
                let count = cur.u32()? as usize;
                let mut addrs =
                    Vec::with_capacity(count.min(cur.remaining() / (8 + MIN_ADDR_TEXT)));
                for _ in 0..count {
                    let id = cur.u32()?;
                    addrs.push((id, read_addr(&mut cur)?));
                }
                let telemetry = match cur.u8()? {
                    0 => None,
                    1 => Some(read_addr(&mut cur)?),
                    other => {
                        return Err(malformed(format!(
                            "telemetry flag must be 0 or 1, got {other}"
                        )))
                    }
                };
                Message::Addrs { addrs, telemetry }
            }
            4 => {
                let start_unix_micros = cur.u64()?;
                let count = cur.u32()? as usize;
                let mut table =
                    Vec::with_capacity(count.min(cur.remaining() / (4 + MIN_ADDR_TEXT)));
                for _ in 0..count {
                    table.push(read_addr(&mut cur)?);
                }
                Message::Start { start_unix_micros, table }
            }
            5 => {
                let degraded = cur.u8()? != 0;
                let aborted_shards = cur.u32()?;
                let len = cur.u32()? as usize;
                Message::Report { degraded, aborted_shards, payload: cur.bytes(len)?.to_vec() }
            }
            other => return Err(malformed(format!("unknown message tag {other}"))),
        };
        if cur.remaining() != 0 {
            return Err(malformed(format!("{} trailing bytes after the body", cur.remaining())));
        }
        Ok(message)
    }
}

/// A sans-io frame decoder: one connection's bytes in, whole [`Message`]s
/// out.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// The current frame's header, `have` bytes of it received.
    header: [u8; HEADER],
    have: usize,
    /// The body length the header claimed, once it passed its kind's cap.
    len: usize,
    /// The current frame's body so far.
    body: Vec<u8>,
}

impl FrameDecoder {
    /// How many more bytes finish the current header or body: a reader
    /// that asks for no more never reads past a frame.
    pub fn wanted(&self) -> usize {
        if self.have < HEADER {
            HEADER - self.have
        } else {
            self.len - self.body.len()
        }
    }

    /// Takes bytes off the front of `input`, up to the end of the current
    /// frame, and returns the message they complete, if they do. Call again
    /// with what is left.
    ///
    /// # Errors
    ///
    /// An unknown tag or a length over its kind's cap fails as soon as the
    /// header is complete, with no body byte taken; a body that does not
    /// decode fails once it is complete. Either way the connection cannot
    /// be resynchronised.
    pub fn push(&mut self, input: &mut &[u8]) -> Result<Option<Message>, CodecError> {
        if self.have < HEADER {
            let (head, rest) = input.split_at(self.wanted().min(input.len()));
            self.header[self.have..self.have + head.len()].copy_from_slice(head);
            self.have += head.len();
            *input = rest;
            if self.have < HEADER {
                return Ok(None);
            }
            let [tag, a, b, c, d] = self.header;
            let len = u32::from_le_bytes([a, b, c, d]) as usize;
            let cap = Message::cap(tag).ok_or_else(|| malformed(format!("unknown tag {tag}")))?;
            if len > cap {
                return Err(malformed(format!(
                    "a tag-{tag} body of {len} bytes exceeds its {cap}"
                )));
            }
            self.len = len;
        }
        let (body, rest) = input.split_at(self.wanted().min(input.len()));
        // Double as bytes arrive, never past the claimed length.
        let need = self.body.len() + body.len();
        if need > self.body.capacity() {
            let target = (2 * self.body.capacity()).clamp(need, self.len);
            self.body.reserve_exact(target - self.body.len());
        }
        self.body.extend_from_slice(body);
        *input = rest;
        if self.body.len() < self.len {
            return Ok(None);
        }
        self.have = 0;
        Message::decode(self.header[0], &std::mem::take(&mut self.body)).map(Some)
    }
}

/// Writes one framed message to `stream` (blocking, flushed).
///
/// # Errors
///
/// Fails if the stream fails mid-write.
pub fn write_message(stream: &mut impl Write, message: &Message) -> std::io::Result<()> {
    stream.write_all(&message.encode())?;
    stream.flush()
}

/// Reads one framed message from `stream` through a [`FrameDecoder`]
/// (blocking; honours the stream's read timeout), never reading past the
/// frame.
///
/// # Errors
///
/// Transport failure, timeout or a stream that ends mid-frame
/// ([`ErrorKind::UnexpectedEof`]); a frame the decoder refuses is
/// [`ErrorKind::InvalidData`] around its [`CodecError`].
pub fn read_message(stream: &mut impl Read) -> std::io::Result<Message> {
    let mut decoder = FrameDecoder::default();
    let mut chunk = [0u8; 16 << 10];
    loop {
        let want = decoder.wanted().min(chunk.len());
        let got = match stream.read(&mut chunk[..want]) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(got) => got,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let decoded = decoder.push(&mut &chunk[..got]);
        if let Some(message) = decoded.map_err(|e| Error::new(ErrorKind::InvalidData, e))? {
            return Ok(message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(message: Message) -> Message {
        let listener = TcpListener::bind("127.0.0.1:0").expect("listener binds");
        let addr = listener.local_addr().expect("addr");
        let sender = std::thread::spawn({
            let message = message.clone();
            move || {
                let mut stream = TcpStream::connect(addr).expect("connects");
                write_message(&mut stream, &message).expect("writes");
            }
        });
        let (mut stream, _) = listener.accept().expect("accepts");
        let got = read_message(&mut stream).expect("reads");
        sender.join().expect("sender");
        got
    }

    #[test]
    fn every_message_roundtrips_over_tcp() {
        let messages = vec![
            Message::Hello { index: 2 },
            Message::Welcome { lo: 32, hi: 64, config_toml: "[cluster]\nn = 96\n".to_string() },
            Message::Addrs {
                addrs: vec![
                    (0, "127.0.0.1:4000".parse().unwrap()),
                    (1, "127.0.0.1:4001".parse().unwrap()),
                ],
                telemetry: None,
            },
            Message::Addrs {
                addrs: vec![(7, "127.0.0.1:4007".parse().unwrap())],
                telemetry: Some("127.0.0.1:9607".parse().unwrap()),
            },
            Message::Start {
                start_unix_micros: 1_700_000_000_000_000,
                table: vec!["127.0.0.1:4000".parse().unwrap(), "10.0.0.2:5000".parse().unwrap()],
            },
            Message::Report { degraded: true, aborted_shards: 1, payload: vec![1, 2, 3, 4] },
        ];
        for message in messages {
            assert_eq!(roundtrip(message.clone()), message);
        }
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        assert!(Message::decode(9, &[]).is_err());
        assert!(Message::decode(1, &[0, 0]).is_err());
        // Trailing garbage after a valid body is rejected.
        let mut body = Message::Hello { index: 1 }.encode_body();
        body.push(0xFF);
        assert!(Message::decode(1, &body).is_err());
        // A non-address string where an address belongs.
        let mut out = Vec::new();
        put_u32(&mut out, 1);
        put_u32(&mut out, 7);
        put_str(&mut out, "not-an-addr");
        assert!(Message::decode(3, &out).is_err());
    }

    fn messages() -> Vec<Message> {
        vec![
            Message::Hello { index: 2 },
            Message::Welcome { lo: 32, hi: 64, config_toml: "[cluster]\nn = 96\n".to_string() },
            Message::Addrs {
                addrs: vec![
                    (0, "127.0.0.1:4000".parse().unwrap()),
                    (1, "[::1]:4001".parse().unwrap()),
                ],
                telemetry: None,
            },
            Message::Addrs {
                addrs: vec![(7, "127.0.0.1:4007".parse().unwrap())],
                telemetry: Some("127.0.0.1:9607".parse().unwrap()),
            },
            Message::Start {
                start_unix_micros: 1_700_000_000_000_000,
                table: vec!["127.0.0.1:4000".parse().unwrap(), "10.0.0.2:5000".parse().unwrap()],
            },
            Message::Report { degraded: true, aborted_shards: 1, payload: vec![1, 2, 3, 4] },
        ]
    }

    /// The wire bytes of all five kinds, pinned to those of the blocking
    /// codec the frame decoder replaced.
    #[test]
    fn the_five_messages_encode_to_pinned_bytes() {
        let bytes: Vec<u8> = messages().iter().flat_map(Message::encode).collect();
        let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        assert_eq!((bytes.len(), digest), (213, 0x330b_af8c_e9c3_d1ef), "digest {digest:#018x}");
    }

    #[test]
    fn frames_split_anywhere_decode_alike() {
        let bytes: Vec<u8> = messages().iter().flat_map(Message::encode).collect();
        for chunk in [1, 2, 5, 7, 64, bytes.len()] {
            let mut decoder = FrameDecoder::default();
            let mut got = Vec::new();
            for mut piece in bytes.chunks(chunk) {
                while !piece.is_empty() {
                    got.extend(decoder.push(&mut piece).expect("valid frames"));
                }
            }
            assert_eq!(got, messages(), "chunks of {chunk}");
            assert_eq!(decoder.wanted(), HEADER, "nothing left over");
        }
    }

    #[test]
    fn a_header_over_its_kinds_cap_is_refused_before_its_body() {
        for tag in 1..=5u8 {
            let cap = Message::cap(tag).expect("a kind");
            for (len, refused) in [(cap, false), (cap + 1, true)] {
                let mut frame = vec![tag];
                put_u32(&mut frame, len as u32);
                frame.extend_from_slice(&[0; 64]);
                let mut input = &frame[..];
                let got = FrameDecoder::default().push(&mut input);
                assert_eq!(got.is_err(), refused, "tag {tag}, {len} bytes: {got:?}");
                let taken = if refused { 0 } else { cap.min(64) };
                assert_eq!(input.len(), 64 - taken, "tag {tag}: body bytes taken");
            }
        }
        let mut unknown: &[u8] = &[6, 0, 0, 0, 0, 1];
        assert!(FrameDecoder::default().push(&mut unknown).is_err());
        assert_eq!(unknown.len(), 1);
        // A 64 MiB Hello or Addrs header: over the cap of either kind.
        for tag in [1u8, 3] {
            let mut header = vec![tag];
            put_u32(&mut header, 64 << 20);
            assert!(FrameDecoder::default().push(&mut &header[..]).is_err(), "tag {tag}");
        }
    }
}
