//! The control plane's one seam: the coordinator's and the worker's
//! control logic ([`crate::coord`], [`crate::host`]) see only a
//! [`ControlEnv`] — the time, the next [`Event`] by an absolute deadline,
//! sends and kills — so their behaviour is a plain function of what
//! arrives and when, as the shard loop's is behind `ShardEnv`.
//!
//! [`LiveEnv`] owns the listener (or the worker's one connection), the
//! child processes and the wall clock: one reader thread per connection
//! runs [`crate::proto::read_message`] into one channel, on which the
//! caller waits with a timeout. The test scope feeds scripted bytes
//! through the same [`crate::proto::FrameDecoder`] on virtual time.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

use gossip_adversity::anchor::now_unix_micros;

use crate::proto::{read_message, write_message, Message};

/// A control connection, numbered in the order it opened.
pub type Conn = usize;

/// A worker's one connection: the one to the coordinator.
pub const COORDINATOR: Conn = 0;

/// A worker retries the coordinator connection: it may be exec'd before
/// the coordinator listens.
const CONNECT_ATTEMPTS: usize = 100;
const CONNECT_PAUSE: Duration = Duration::from_millis(100);

/// What the control logic waits for.
#[derive(Debug)]
pub enum Event {
    /// A whole message arrived on a connection.
    Frame(Conn, Message),
    /// A connection ended: the peer hung up, or sent a frame the decoder
    /// refused.
    Closed(Conn),
    /// The deadline passed first.
    Deadline,
}

/// The control plane's inputs and outputs. Time is wall time, as a
/// [`Duration`] since the UNIX epoch: the start epoch crosses processes
/// as UNIX microseconds.
pub trait ControlEnv {
    /// The current time.
    fn now(&self) -> Duration;

    /// The next event, or [`Event::Deadline`] once `deadline` passes
    /// without one.
    fn next(&mut self, deadline: Duration) -> Event;

    /// Sends one message on `conn`; a broken connection fails here and
    /// also shows, sooner or later, as its [`Event::Closed`].
    fn send(&mut self, conn: Conn, message: &Message) -> io::Result<()>;

    /// Hard-kills worker `worker`'s process, if this environment spawned
    /// it.
    fn kill(&mut self, worker: usize);
}

/// What the acceptor and the reader threads hand the waiting thread.
enum Inbound {
    Accepted(TcpStream),
    Event(Event),
}

/// The deployment's [`ControlEnv`]. Dropping it closes every connection
/// (ending the reader threads), wakes the acceptor so it exits, and kills
/// and reaps every worker it spawned.
pub struct LiveEnv {
    /// The wall time at `origin`; `now` runs on by the monotonic clock.
    wall: Duration,
    origin: Instant,
    inbound: Receiver<Inbound>,
    sender: Sender<Inbound>,
    /// Each connection's write half, by [`Conn`].
    conns: Vec<TcpStream>,
    /// The spawned workers, by index.
    children: Vec<Child>,
    /// Where the acceptor listens, to wake it on drop.
    listening: Option<SocketAddr>,
}

impl LiveEnv {
    fn new() -> Self {
        let (sender, inbound) = mpsc::channel();
        LiveEnv {
            wall: Duration::from_micros(now_unix_micros()),
            origin: Instant::now(),
            inbound,
            sender,
            conns: Vec::new(),
            children: Vec::new(),
            listening: None,
        }
    }

    /// The coordinator's environment: every connection `listener` accepts
    /// becomes the next [`Conn`]. Fails if the listener has no address.
    pub fn listen(listener: TcpListener) -> io::Result<Self> {
        let mut env = Self::new();
        env.listening = Some(listener.local_addr()?);
        let sender = env.sender.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                // After an accept error the handshake's deadline names
                // whoever is missing; after a failed send, the env is gone.
                let Ok(stream) = stream else { break };
                if sender.send(Inbound::Accepted(stream)).is_err() {
                    break;
                }
            }
        });
        Ok(env)
    }

    /// A worker's environment: one connection, [`COORDINATOR`], to
    /// `coord`. Fails with the last connect error once the retries run out.
    pub fn connect(coord: SocketAddr) -> io::Result<Self> {
        let mut attempt = 1;
        let stream = loop {
            match TcpStream::connect(coord) {
                Ok(stream) => break stream,
                Err(e) if attempt == CONNECT_ATTEMPTS => return Err(e),
                Err(_) => {
                    attempt += 1;
                    std::thread::sleep(CONNECT_PAUSE);
                }
            }
        };
        let mut env = Self::new();
        env.open(stream)?;
        Ok(env)
    }

    /// Spawns the next worker process.
    pub fn spawn(&mut self, command: &mut Command) -> io::Result<()> {
        self.children.push(command.spawn()?);
        Ok(())
    }

    /// Registers a connection: its write half here, its read half on a
    /// reader thread that forwards every frame and then the close.
    fn open(&mut self, stream: TcpStream) -> io::Result<()> {
        let conn = self.conns.len();
        stream.set_nodelay(true)?;
        let mut reader = stream.try_clone()?;
        self.conns.push(stream);
        let sender = self.sender.clone();
        std::thread::spawn(move || loop {
            let (event, last) = match read_message(&mut reader) {
                Ok(message) => (Event::Frame(conn, message), false),
                Err(_) => (Event::Closed(conn), true),
            };
            if sender.send(Inbound::Event(event)).is_err() || last {
                break;
            }
        });
        Ok(())
    }
}

impl ControlEnv for LiveEnv {
    fn now(&self) -> Duration {
        self.wall + self.origin.elapsed()
    }

    fn next(&mut self, deadline: Duration) -> Event {
        loop {
            match self.inbound.recv_timeout(deadline.saturating_sub(self.now())) {
                Ok(Inbound::Event(event)) => return event,
                // A connection that cannot be registered is dropped, and
                // its peer sees it close.
                Ok(Inbound::Accepted(stream)) => drop(self.open(stream)),
                // `self.sender` keeps the channel open: only the timeout.
                Err(_) => return Event::Deadline,
            }
        }
    }

    fn send(&mut self, conn: Conn, message: &Message) -> io::Result<()> {
        let stream = self.conns.get_mut(conn).ok_or(io::ErrorKind::NotConnected)?;
        write_message(stream, message)
    }

    fn kill(&mut self, worker: usize) {
        if let Some(child) = self.children.get_mut(worker) {
            // SIGKILL, not SIGTERM: the point is a process that vanishes
            // without flushing anything. It may already be gone.
            child.kill().ok();
        }
    }
}

impl Drop for LiveEnv {
    fn drop(&mut self) {
        for stream in &self.conns {
            stream.shutdown(Shutdown::Both).ok();
        }
        // Close the channel first, so the acceptor's wake-up connection
        // has nowhere to go and it exits.
        self.inbound = mpsc::channel().1;
        if let Some(addr) = self.listening {
            TcpStream::connect(addr).ok();
        }
        // A worker still running here is past its use: its report is in,
        // or its deadline passed.
        for child in &mut self.children {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

#[cfg(test)]
pub(crate) mod scripted {
    //! A [`ControlEnv`] that replays timed inputs on virtual time.

    use std::collections::VecDeque;

    use super::*;
    use crate::proto::FrameDecoder;

    /// One scripted input on a connection.
    enum Input {
        Bytes(Vec<u8>),
        Close,
    }

    /// Replays `(time, connection, input)` in time order; the bytes go
    /// through a [`FrameDecoder`] per connection, as a live reader's do.
    /// [`ControlEnv::next`] jumps the clock to the next input or to the
    /// deadline, whichever is first.
    pub(crate) struct Scripted {
        now: Duration,
        script: VecDeque<(Duration, Conn, Input)>,
        /// Per connection: its decoder, `None` once closed.
        decoders: Vec<Option<FrameDecoder>>,
        /// Per connection: the worker index its `Hello` named.
        hellos: Vec<(Conn, usize)>,
        /// Everything sent: when, on which connection, what.
        pub(crate) sent: Vec<(Duration, Conn, Message)>,
        /// Every kill: when, which worker.
        pub(crate) killed: Vec<(Duration, usize)>,
    }

    /// The virtual clock's start, as wall time.
    pub(crate) const T0: Duration = Duration::from_secs(1_700_000_000);

    /// `ms` milliseconds after [`T0`].
    pub(crate) fn at(ms: u64) -> Duration {
        T0 + Duration::from_millis(ms)
    }

    impl Scripted {
        /// An empty script at [`T0`].
        pub(crate) fn new() -> Self {
            Scripted {
                now: T0,
                script: VecDeque::new(),
                decoders: Vec::new(),
                hellos: Vec::new(),
                sent: Vec::new(),
                killed: Vec::new(),
            }
        }

        fn push(mut self, time: Duration, conn: Conn, input: Input) -> Self {
            let slot = self.script.partition_point(|&(t, _, _)| t <= time);
            self.script.insert(slot, (time, conn, input));
            if self.decoders.len() <= conn {
                self.decoders.resize_with(conn + 1, || Some(FrameDecoder::default()));
            }
            self
        }

        /// `bytes` arrive on `conn` at `time`.
        pub(crate) fn bytes(self, time: Duration, conn: Conn, bytes: &[u8]) -> Self {
            self.push(time, conn, Input::Bytes(bytes.to_vec()))
        }

        /// `message` arrives on `conn` at `time`.
        pub(crate) fn frame(self, time: Duration, conn: Conn, message: &Message) -> Self {
            self.bytes(time, conn, &message.encode())
        }

        /// The peer closes `conn` at `time`.
        pub(crate) fn close(self, time: Duration, conn: Conn) -> Self {
            self.push(time, conn, Input::Close)
        }

        /// Moves the clock on to `time` (a run that happens elsewhere).
        pub(crate) fn advance_to(&mut self, time: Duration) {
            self.now = self.now.max(time);
        }

        fn closed(&mut self, conn: Conn) -> Event {
            self.decoders[conn] = None;
            Event::Closed(conn)
        }
    }

    impl ControlEnv for Scripted {
        fn now(&self) -> Duration {
            self.now
        }

        fn next(&mut self, deadline: Duration) -> Event {
            while self.script.front().is_some_and(|&(t, _, _)| t <= deadline) {
                let Some((time, conn, input)) = self.script.pop_front() else { break };
                self.now = self.now.max(time);
                let Some(decoder) = self.decoders[conn].as_mut() else { continue };
                let Input::Bytes(bytes) = input else { return self.closed(conn) };
                let mut rest = &bytes[..];
                while !rest.is_empty() {
                    match decoder.push(&mut rest) {
                        Ok(None) => {}
                        Ok(Some(message)) => {
                            if !rest.is_empty() {
                                self.script.push_front((time, conn, Input::Bytes(rest.to_vec())));
                            }
                            if let Message::Hello { index } = message {
                                self.hellos.push((conn, index as usize));
                            }
                            return Event::Frame(conn, message);
                        }
                        Err(_) => return self.closed(conn),
                    }
                }
            }
            self.now = self.now.max(deadline);
            Event::Deadline
        }

        fn send(&mut self, conn: Conn, message: &Message) -> io::Result<()> {
            if self.decoders.get(conn).is_some_and(Option::is_none) {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            self.sent.push((self.now, conn, message.clone()));
            Ok(())
        }

        /// The victim's connection closes now, and whatever it had yet to
        /// send never arrives.
        fn kill(&mut self, worker: usize) {
            self.killed.push((self.now, worker));
            if let Some(&(conn, _)) = self.hellos.iter().find(|&&(_, k)| k == worker) {
                self.script.retain(|&(_, c, _)| c != conn);
                self.script.push_front((self.now, conn, Input::Close));
            }
        }
    }
}
