//! The control protocol between `gossipd` workers and the coordinator.
//!
//! Five messages over one TCP connection per worker, each framed
//! `[tag u8][len u32 LE][body]`:
//!
//! 1. worker → coordinator [`Message::Hello`] — "I am worker `index`";
//! 2. coordinator → worker [`Message::Welcome`] — the worker's id slice
//!    plus the full deployment config (as TOML text, so both sides parse
//!    the *same* bytes and compile the same fault timeline);
//! 3. worker → coordinator [`Message::Addrs`] — the worker's hosted node
//!    ids and their home socket addresses (the tracker step), plus the
//!    worker's telemetry scrape endpoint when live metrics are on;
//! 4. coordinator → worker [`Message::Start`] — the merged address table
//!    for the whole cluster plus one wall-clock start epoch (UNIX
//!    microseconds), the start barrier every process anchors its
//!    [`gossip_udp::clock::ClusterClock`] on;
//! 5. worker → coordinator [`Message::Report`] — the finished (or
//!    signal-interrupted, then `degraded`) process report, carrying the
//!    [`gossip_udp::codec`] binary encoding of the hosted nodes' reports
//!    and shard stats.
//!
//! Everything here is plain `std::net::TcpStream` blocking I/O — the
//! coordinator talks to a handful of workers, not thousands.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Upper bound on a frame body. A report for a few thousand nodes is a few
/// MiB; anything beyond this is a corrupt length prefix, not data.
const MAX_FRAME: usize = 64 << 20;

/// A control-protocol error: transport I/O or a malformed frame.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying TCP stream failed.
    Io(std::io::Error),
    /// The peer sent bytes that do not decode as a control message.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "control connection: {e}"),
            ProtoError::Malformed(m) => write!(f, "control protocol: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// One control-protocol message (see the [module docs](self) for the
/// handshake order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Worker `index` reporting for duty.
    Hello {
        /// The worker's process index, `0..processes`.
        index: u32,
    },
    /// The coordinator's reply: the worker's assignment.
    Welcome {
        /// First hosted node id (inclusive).
        lo: u32,
        /// Last hosted node id (exclusive).
        hi: u32,
        /// The full deployment file, verbatim — the worker parses it
        /// itself so both sides compile identical plans.
        config_toml: String,
    },
    /// A worker's contribution to the address book.
    Addrs {
        /// `(node id, home socket address)` for every hosted node.
        addrs: Vec<(u32, SocketAddr)>,
        /// The worker's telemetry scrape endpoint, when the deployment
        /// enables live metrics (the coordinator polls it mid-run for the
        /// fleet status line and the merged time series).
        telemetry: Option<SocketAddr>,
    },
    /// The start barrier: full address table plus shared epoch.
    Start {
        /// The cluster-wide start instant as UNIX microseconds; every
        /// process maps it to a local `Instant` and anchors its clock
        /// there, so `Time::ZERO` coincides across processes.
        start_unix_micros: u64,
        /// `table[g]` is node `g`'s home socket address, for the whole
        /// cluster.
        table: Vec<SocketAddr>,
    },
    /// A worker's final (or partial) measurement.
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

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_addr(out: &mut Vec<u8>, addr: &SocketAddr) {
    put_str(out, &addr.to_string());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            ProtoError::Malformed(format!("frame truncated at byte {}", self.pos))
        })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("length checked")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length checked")))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::Malformed("string is not UTF-8".to_string()))
    }

    fn addr(&mut self) -> Result<SocketAddr, ProtoError> {
        let s = self.string()?;
        s.parse().map_err(|_| ProtoError::Malformed(format!("`{s}` is not a socket address")))
    }

    fn done(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed(format!(
                "{} trailing bytes after message body",
                self.buf.len() - self.pos
            )))
        }
    }
}

impl Message {
    fn tag(&self) -> u8 {
        match self {
            Message::Hello { .. } => 1,
            Message::Welcome { .. } => 2,
            Message::Addrs { .. } => 3,
            Message::Start { .. } => 4,
            Message::Report { .. } => 5,
        }
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
                put_u64(&mut out, *start_unix_micros);
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

    fn decode(tag: u8, body: &[u8]) -> Result<Message, ProtoError> {
        let mut cur = Cursor { buf: body, pos: 0 };
        let message = match tag {
            1 => Message::Hello { index: cur.u32()? },
            2 => {
                let lo = cur.u32()?;
                let hi = cur.u32()?;
                let config_toml = cur.string()?;
                Message::Welcome { lo, hi, config_toml }
            }
            3 => {
                let count = cur.u32()? as usize;
                let mut addrs = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    let id = cur.u32()?;
                    addrs.push((id, cur.addr()?));
                }
                let telemetry = match cur.take(1)?[0] {
                    0 => None,
                    1 => Some(cur.addr()?),
                    other => {
                        return Err(ProtoError::Malformed(format!(
                            "telemetry presence flag must be 0 or 1, got {other}"
                        )))
                    }
                };
                Message::Addrs { addrs, telemetry }
            }
            4 => {
                let start_unix_micros = cur.u64()?;
                let count = cur.u32()? as usize;
                let mut table = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    table.push(cur.addr()?);
                }
                Message::Start { start_unix_micros, table }
            }
            5 => {
                let degraded = cur.take(1)?[0] != 0;
                let aborted_shards = cur.u32()?;
                let len = cur.u32()? as usize;
                let payload = cur.take(len)?.to_vec();
                Message::Report { degraded, aborted_shards, payload }
            }
            other => return Err(ProtoError::Malformed(format!("unknown message tag {other}"))),
        };
        cur.done()?;
        Ok(message)
    }
}

/// Writes one framed message to `stream` (blocking, flushed).
///
/// # Errors
///
/// Returns [`ProtoError::Io`] if the stream fails mid-write.
pub fn write_message(stream: &mut TcpStream, message: &Message) -> Result<(), ProtoError> {
    let body = message.encode_body();
    let mut frame = Vec::with_capacity(5 + body.len());
    frame.push(message.tag());
    put_u32(&mut frame, body.len() as u32);
    frame.extend_from_slice(&body);
    stream.write_all(&frame)?;
    stream.flush()?;
    Ok(())
}

/// Reads one framed message from `stream` (blocking; honours the stream's
/// read timeout).
///
/// # Errors
///
/// Returns [`ProtoError::Io`] on transport failure or timeout and
/// [`ProtoError::Malformed`] if the bytes do not decode.
pub fn read_message(stream: &mut TcpStream) -> Result<Message, ProtoError> {
    let mut header = [0u8; 5];
    stream.read_exact(&mut header)?;
    let tag = header[0];
    let len = u32::from_le_bytes(header[1..5].try_into().expect("length checked")) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::Malformed(format!("frame of {len} bytes exceeds the cap")));
    }
    // The length is the sender's claim: grow the buffer with the bytes that
    // actually arrive instead of reserving `len` up front.
    let mut body = Vec::new();
    Read::by_ref(stream).take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    Message::decode(tag, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

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
        assert!(matches!(Message::decode(9, &[]), Err(ProtoError::Malformed(_))));
        assert!(matches!(Message::decode(1, &[0, 0]), Err(ProtoError::Malformed(_))));
        // Trailing garbage after a valid body is rejected.
        let mut body = Message::Hello { index: 1 }.encode_body();
        body.push(0xFF);
        assert!(matches!(Message::decode(1, &body), Err(ProtoError::Malformed(_))));
        // A non-address string where an address belongs.
        let mut out = Vec::new();
        put_u32(&mut out, 1);
        put_u32(&mut out, 7);
        put_str(&mut out, "not-an-addr");
        assert!(matches!(Message::decode(3, &out), Err(ProtoError::Malformed(_))));
    }
}
