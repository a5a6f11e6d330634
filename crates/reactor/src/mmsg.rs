//! Kernel-batched socket I/O: `sendmmsg`/`recvmmsg` with a portable
//! per-datagram fallback.
//!
//! One shard iteration releases many kernel datagrams (coalesced bursts to
//! many destinations) and wants to drain many more; paying one syscall per
//! datagram caps the whole runtime at the syscall rate. Linux batches both
//! directions: `sendmmsg(2)` hands the kernel a vector of datagrams with
//! per-entry destinations, `recvmmsg(2)` fills a vector of buffers. This
//! module wraps both behind the [`Backend`] enum so every other line of
//! the shard is identical on the two paths:
//!
//! * **Send** — the shard packs its outbox into a [`SendQueue`]: one flat
//!   reusable byte arena plus a segment table `(offset, len, destination)`.
//!   [`flush_queue`] then drains the whole queue, [`MAX_VLEN`] datagrams
//!   per syscall, resuming after partial sends (the kernel may accept
//!   fewer than asked). Send errors go through an explicit taxonomy
//!   ([`classify`]): *transient* pressure retains the unsent tail for a
//!   backed-off retry, `ENOSYS` asks the caller to downgrade the backend,
//!   and a *fatal* socket error drops exactly the refused datagram,
//!   retains the rest, and asks the caller to re-bind the socket — the
//!   [`SendVerdict`] tells the shard which recovery to run.
//! * **Recv** — a [`RecvQueue`] owns a pool of fixed buffers; one
//!   `recvmmsg` fills up to a batch of them, and the shard demuxes each as
//!   a borrowed slice.
//! * **Wait** — [`wait_readable`] is where a shard sleeps: one `ppoll(2)`
//!   over its whole socket pool, returning which sockets have something to
//!   read. The fallback cannot watch a pool: it returns at once with every
//!   socket flagged, and the shard's [`WAKE_QUANTUM`] dwell paces the loop.
//!
//! The fallback path (`send_to`/`recv_from` per datagram) serves non-Linux
//! builds, kernels without the syscalls (runtime `ENOSYS` probe), the
//! [`NO_MMSG_ENV`] escape hatch, and an explicit
//! [`crate::ReactorOptions::mmsg`] override — CI exercises it on Linux so
//! both paths stay green.
//!
//! The FFI layer is hand-rolled (`#[repr(C)]` structs against the system
//! libc) and gated to `linux`/`gnu` targets whose `msghdr` layout it
//! mirrors; everything else gets the fallback at compile time.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use gossip_udp::report::ShardStats;

/// Setting this environment variable (to anything but `0`) forces the
/// portable per-datagram fallback even where `sendmmsg`/`recvmmsg` are
/// available. CI uses it to keep the fallback path exercised.
pub const NO_MMSG_ENV: &str = "GOSSIP_REACTOR_NO_MMSG";

/// Most kernel datagrams one `sendmmsg`/`recvmmsg` call moves. Well under
/// the kernel's `UIO_MAXIOV`; bounds the stack-held header blocks.
pub(crate) const MAX_VLEN: usize = 64;

/// The shard loop's one tick: the shortest interval between two wakes, and
/// the longest a wait lasts before the loop looks at its stop flag again.
/// Dwelling out the quantum batches arrivals and deadlines per wake
/// (NAPI-style) instead of paying a context switch per datagram, and since
/// a wake sends everything it produced, grouped by destination, a wider
/// quantum also packs more frames into each kernel datagram.
///
/// It is the whole per-hop hold budget: a datagram waits at most one
/// quantum in a kernel receive queue, then in the outbox only until the
/// wake that produced it ends (cut off at one quantum should backlog keep
/// the wake running), and a deadline fires at most one quantum late —
/// against gossip rounds of 100 ms and more.
pub const WAKE_QUANTUM: Duration = Duration::from_millis(1);

/// Which I/O path a shard runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backend {
    /// Batched `sendmmsg`/`recvmmsg` syscalls.
    Mmsg,
    /// Portable `send_to`/`recv_from`, one datagram per syscall.
    Fallback,
}

/// Resolves the backend from an explicit preference (`ReactorOptions`),
/// the [`NO_MMSG_ENV`] environment toggle, and compile-/run-time support.
/// A `Some(true)` preference still degrades to the fallback where the
/// syscalls do not exist.
pub(crate) fn select_backend(pref: Option<bool>) -> Backend {
    let want = pref.unwrap_or_else(|| std::env::var_os(NO_MMSG_ENV).is_none_or(|v| v == *"0"));
    if want && sys::supported() {
        Backend::Mmsg
    } else {
        Backend::Fallback
    }
}

/// Returns whether the batched backend would actually run here (platform
/// support, runtime probe and the [`NO_MMSG_ENV`] toggle all considered).
/// Benchmarks record this next to their numbers.
pub fn mmsg_active() -> bool {
    select_backend(None) == Backend::Mmsg
}

/// One pool socket's slot in a shard's wait set, laid out as C's
/// `struct pollfd` so the batched backend hands the set to `ppoll` in place.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 1;

impl PollFd {
    /// A slot flagged without asking the kernel: worth one blind read.
    pub const BLIND: PollFd = PollFd { fd: -1, events: 0, revents: POLLIN };

    /// Whether the socket is worth reading: it has data, or an error
    /// (`POLLERR`, `POLLNVAL`) the read will surface and classify.
    pub fn flagged(&self) -> bool {
        self.revents != 0
    }

    /// Unflags the slot once a read found its socket empty.
    pub fn clear(&mut self) {
        self.revents = 0;
    }
}

/// Sleeps until a socket of `sockets` is readable or `timeout` passes, and
/// rebuilds `set` (one slot per socket, in pool order) with the outcome:
/// one `ppoll` over the pool. The portable backend has nothing to watch
/// with: it flags every socket and returns at once, leaving the pacing to
/// the caller's dwell — a sleep here would halve the wake rate.
pub(crate) fn wait_readable(
    backend: Backend,
    sockets: &[UdpSocket],
    timeout: Duration,
    set: &mut Vec<PollFd>,
) -> io::Result<()> {
    set.clear();
    match backend {
        Backend::Mmsg => sys::poll_readable(sockets, timeout, set),
        Backend::Fallback => {
            set.resize(sockets.len(), PollFd::BLIND);
            Ok(())
        }
    }
}

/// One queued kernel datagram: a range of the arena plus its destination.
#[derive(Debug, Clone, Copy)]
struct Seg {
    start: usize,
    len: usize,
    addr: SocketAddr,
}

/// The reusable send arena: packed datagram bytes in one flat buffer plus
/// a segment table. Cleared (capacity kept) after every flush, so steady
/// state allocates nothing per iteration.
///
/// Building is open/append/close: [`SendQueue::open`] starts a datagram
/// for a destination, the caller appends frames straight into
/// [`SendQueue::buf_mut`], [`SendQueue::close`] seals it into the table.
#[derive(Debug, Default)]
pub(crate) struct SendQueue {
    buf: Vec<u8>,
    segs: Vec<Seg>,
    open: Option<(usize, SocketAddr)>,
}

impl SendQueue {
    /// Starts a new datagram for `addr`. The previous one must be closed.
    pub fn open(&mut self, addr: SocketAddr) {
        debug_assert!(self.open.is_none(), "open() with a datagram already open");
        self.open = Some((self.buf.len(), addr));
    }

    /// Destination of the datagram currently being built, if any.
    pub fn open_addr(&self) -> Option<SocketAddr> {
        self.open.map(|(_, addr)| addr)
    }

    /// Bytes accumulated in the datagram currently being built.
    pub fn open_len(&self) -> usize {
        self.open.map_or(0, |(start, _)| self.buf.len() - start)
    }

    /// The arena tail the open datagram grows into (append-only by
    /// convention: callers must not touch bytes before the open mark).
    pub fn buf_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Seals the open datagram into the segment table (empty ones vanish).
    pub fn close(&mut self) {
        if let Some((start, addr)) = self.open.take() {
            let len = self.buf.len() - start;
            if len > 0 {
                self.segs.push(Seg { start, len, addr });
            }
        }
    }

    /// Number of sealed datagrams queued.
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// The `i`-th sealed datagram and its destination.
    pub fn seg(&self, i: usize) -> (&[u8], SocketAddr) {
        let s = self.segs[i];
        (&self.buf[s.start..s.start + s.len], s.addr)
    }

    /// Appends one complete datagram (open / copy / close in one call) —
    /// the retention path repacks unsent tails with it.
    pub fn push_datagram(&mut self, addr: SocketAddr, bytes: &[u8]) {
        self.open(addr);
        self.buf.extend_from_slice(bytes);
        self.close();
    }

    /// Bytes held in the arena (sealed segments plus any open datagram).
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Empties the queue, keeping both allocations for reuse.
    pub fn clear(&mut self) {
        debug_assert!(self.open.is_none(), "clear() with a datagram still open");
        self.buf.clear();
        self.segs.clear();
        self.open = None;
    }
}

/// A send backend: moves sealed [`SendQueue`] segments to the kernel.
///
/// A trait rather than a match so tests can inject short returns and
/// errors mid-batch and assert the resumption logic in [`drain_queue`]
/// neither drops nor duplicates datagrams.
pub(crate) trait BatchSender {
    /// Attempts to send segments `first..` of `queue` — as many as one
    /// kernel interaction covers — returning how many the kernel accepted
    /// (at least 1). An error refers to segment `first` alone.
    fn send_from(
        &mut self,
        socket: &UdpSocket,
        queue: &SendQueue,
        first: usize,
    ) -> io::Result<usize>;
}

/// The portable backend: one `send_to` per datagram.
pub(crate) struct FallbackSender;

impl BatchSender for FallbackSender {
    fn send_from(
        &mut self,
        socket: &UdpSocket,
        queue: &SendQueue,
        first: usize,
    ) -> io::Result<usize> {
        let (bytes, addr) = queue.seg(first);
        socket.send_to(bytes, addr).map(|_| 1)
    }
}

/// The batched backend: up to [`MAX_VLEN`] datagrams per `sendmmsg`.
/// Constructed only when [`select_backend`] confirmed support.
pub(crate) struct MmsgSender;

impl BatchSender for MmsgSender {
    fn send_from(
        &mut self,
        socket: &UdpSocket,
        queue: &SendQueue,
        first: usize,
    ) -> io::Result<usize> {
        sys::send_batch(socket, queue, first)
    }
}

/// What [`classify`] says an I/O error means for the socket it hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ErrorClass {
    /// Momentary pressure or interruption (`EAGAIN`, `EINTR`, `ENOBUFS`,
    /// `ENOMEM`, the shutdown-window `ECONNREFUSED` echo): the socket is
    /// fine, retry soon.
    Transient,
    /// The batched syscall is not available (`ENOSYS`): switch to the
    /// portable fallback and carry on.
    Downgrade,
    /// The socket itself is broken (`EBADF` and everything else): replace
    /// it.
    Fatal,
}

/// The explicit transient/fatal error taxonomy every reactor I/O path
/// routes errors through. Classification is by `ErrorKind` first and raw
/// errno second, so both real kernel returns and injected
/// `io::Error::from_raw_os_error` faults land in the same class.
pub(crate) fn classify(e: &io::Error) -> ErrorClass {
    const EAGAIN: i32 = 11;
    const EINTR: i32 = 4;
    const ENOMEM: i32 = 12;
    const ENOSYS: i32 = 38;
    const ENOBUFS: i32 = 105;
    match e.kind() {
        io::ErrorKind::WouldBlock
        | io::ErrorKind::TimedOut
        | io::ErrorKind::Interrupted
        | io::ErrorKind::ConnectionRefused => ErrorClass::Transient,
        _ => match e.raw_os_error() {
            Some(EAGAIN | EINTR | ENOMEM | ENOBUFS) => ErrorClass::Transient,
            Some(ENOSYS) => ErrorClass::Downgrade,
            _ => ErrorClass::Fatal,
        },
    }
}

/// What a [`drain_queue`] pass asks its caller to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendVerdict {
    /// Every segment was offered to the kernel.
    Drained,
    /// A transient error stopped the drain: the unsent tail (including
    /// the refused segment) moved to `pending` — back off, then retry.
    Backoff,
    /// `ENOSYS` mid-run: the unsent tail moved to `pending` — downgrade
    /// the backend, then retry.
    Downgrade,
    /// A fatal socket error: the refused head was dropped (counted), the
    /// rest moved to `pending` — re-bind the socket, then retry.
    Rebind,
}

/// Consecutive `EINTR` returns retried in place before the drain gives up
/// and backs off (guards against a pathological interruption storm).
const MAX_EINTR_RETRIES: u32 = 8;

/// Drives a sender across the whole queue with partial-send resumption: a
/// short return re-enters at the first unsent segment; `EINTR` retries in
/// place (the syscall did nothing). Any other error routes through
/// [`classify`]: the unsent tail is retained into `pending` — minus the
/// refused head on a fatal error — and the [`SendVerdict`] names the
/// recovery the caller owes the socket. No segment is ever offered to the
/// kernel twice by one pass. Clears `queue` (retained bytes live on in
/// `pending`).
pub(crate) fn drain_queue<S: BatchSender>(
    sender: &mut S,
    socket: &UdpSocket,
    queue: &mut SendQueue,
    pending: &mut SendQueue,
    stats: &mut ShardStats,
) -> SendVerdict {
    let mut first = 0;
    let mut eintr = 0u32;
    let verdict = loop {
        if first >= queue.len() {
            break SendVerdict::Drained;
        }
        match sender.send_from(socket, queue, first) {
            Ok(sent) => {
                stats.send_syscalls += 1;
                eintr = 0;
                // A compliant sender returns 1..=remaining; clamp so a
                // misbehaving one cannot stall or overrun the loop.
                let sent = sent.clamp(1, queue.len() - first);
                stats.kernel_sent += sent as u64;
                first += sent;
            }
            Err(e) => {
                stats.send_syscalls += 1;
                match classify(&e) {
                    ErrorClass::Transient
                        if e.kind() == io::ErrorKind::Interrupted && eintr < MAX_EINTR_RETRIES =>
                    {
                        eintr += 1;
                        stats.transients_recovered += 1;
                    }
                    ErrorClass::Transient => {
                        stats.transients_recovered += 1;
                        retain_tail(queue, first, pending);
                        break SendVerdict::Backoff;
                    }
                    ErrorClass::Downgrade => {
                        retain_tail(queue, first, pending);
                        break SendVerdict::Downgrade;
                    }
                    ErrorClass::Fatal => {
                        stats.send_drops += 1;
                        retain_tail(queue, first + 1, pending);
                        break SendVerdict::Rebind;
                    }
                }
            }
        }
    };
    queue.clear();
    verdict
}

/// Copies segments `first..` of `queue` into `pending`, preserving order.
fn retain_tail(queue: &SendQueue, first: usize, pending: &mut SendQueue) {
    for i in first..queue.len() {
        let (bytes, addr) = queue.seg(i);
        pending.push_datagram(addr, bytes);
    }
}

/// Flushes a sealed queue on `socket` with the chosen backend.
pub(crate) fn flush_queue(
    backend: Backend,
    socket: &UdpSocket,
    queue: &mut SendQueue,
    pending: &mut SendQueue,
    stats: &mut ShardStats,
) -> SendVerdict {
    if queue.is_empty() {
        return SendVerdict::Drained;
    }
    match backend {
        Backend::Mmsg => drain_queue(&mut MmsgSender, socket, queue, pending, stats),
        Backend::Fallback => drain_queue(&mut FallbackSender, socket, queue, pending, stats),
    }
}

/// The reusable receive pool: a fixed set of max-datagram buffers one
/// `recvmmsg` fills in a single syscall (the fallback fills them one
/// `recv_from` each). Received datagrams are then walked as borrowed
/// slices — the pool is the *only* copy of inbound bytes on the hot path.
#[derive(Debug, Default)]
pub(crate) struct RecvQueue {
    bufs: Vec<Vec<u8>>,
    lens: Vec<usize>,
    count: usize,
}

impl RecvQueue {
    /// Builds a pool of `batch` buffers of `buf_size` bytes each
    /// (`batch` is clamped to `1..=`[`MAX_VLEN`]).
    pub fn new(batch: usize, buf_size: usize) -> Self {
        let batch = batch.clamp(1, MAX_VLEN);
        RecvQueue {
            bufs: (0..batch).map(|_| vec![0u8; buf_size]).collect(),
            lens: vec![0; batch],
            count: 0,
        }
    }

    /// Datagrams one [`RecvQueue::recv`] can return: a shorter batch means
    /// the socket's kernel queue is empty.
    pub fn capacity(&self) -> usize {
        self.bufs.len()
    }

    /// Receives up to one batch from `socket` without blocking. Returns
    /// the number of datagrams now readable via [`RecvQueue::datagrams`]
    /// (0 = nothing pending). Transient conditions (empty queue, stray
    /// ICMP port-unreachable) are 0, not errors.
    pub fn recv(
        &mut self,
        socket: &UdpSocket,
        backend: Backend,
        stats: &mut ShardStats,
    ) -> io::Result<usize> {
        self.count = 0;
        match backend {
            Backend::Mmsg => self.recv_mmsg(socket, stats),
            Backend::Fallback => self.recv_fallback(socket, stats),
        }
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn recv_mmsg(&mut self, socket: &UdpSocket, stats: &mut ShardStats) -> io::Result<usize> {
        let got = match sys::recv_batch(socket, &mut self.bufs, &mut self.lens) {
            Ok(got) => got,
            Err(e) if transient_recv_error(&e) => 0,
            Err(e) => return Err(e),
        };
        self.count = got;
        if got > 0 {
            stats.recv_syscalls += 1;
            stats.kernel_received += got as u64;
            stats.recv_capacity += self.bufs.len() as u64;
        }
        Ok(got)
    }

    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    fn recv_mmsg(&mut self, socket: &UdpSocket, stats: &mut ShardStats) -> io::Result<usize> {
        // select_backend never yields Mmsg here; route defensively.
        self.recv_fallback(socket, stats)
    }

    fn recv_fallback(&mut self, socket: &UdpSocket, stats: &mut ShardStats) -> io::Result<usize> {
        for i in 0..self.bufs.len() {
            match socket.recv_from(&mut self.bufs[i]) {
                Ok((len, _)) => {
                    self.lens[i] = len;
                    self.count = i + 1;
                    stats.recv_syscalls += 1;
                    stats.kernel_received += 1;
                    stats.recv_capacity += 1;
                }
                Err(e) if transient_recv_error(&e) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(self.count)
    }

    /// The datagrams the last [`RecvQueue::recv`] call produced, borrowed
    /// straight from the pool.
    pub fn datagrams(&self) -> impl Iterator<Item = &[u8]> {
        self.bufs.iter().zip(&self.lens).take(self.count).map(|(buf, &len)| &buf[..len])
    }
}

/// Receive errors that mean "no datagram right now", not "the socket is
/// broken": empty queue (`WouldBlock`/`TimedOut`), interruption, and the
/// ICMP port-unreachable echo Linux surfaces when a peer socket has
/// already closed at shutdown (`ConnectionRefused`). A thin view of
/// [`classify`] for the receive path, which absorbs transients as
/// zero-datagram reads.
pub(crate) fn transient_recv_error(e: &io::Error) -> bool {
    classify(e) == ErrorClass::Transient
}

/// Grows `socket`'s kernel buffers to `bytes` in each direction, best
/// effort: `SO_RCVBUFFORCE`/`SO_SNDBUFFORCE` first (exceeds the
/// `rmem_max`/`wmem_max` sysctls under `CAP_NET_ADMIN`), the plain
/// options (clamped by those sysctls) otherwise, and a no-op on targets
/// without the FFI. A pool socket multiplexes hundreds of nodes, so the
/// distribution-default ~200 KiB buffers overflow under traffic bursts
/// that batched draining alone cannot smooth.
pub(crate) fn set_socket_buffers(socket: &UdpSocket, bytes: usize) {
    sys::set_socket_buffers(socket, bytes);
}

/// The raw `sendmmsg`/`recvmmsg` FFI, hand-declared against the system
/// libc (the workspace deliberately carries no `libc` crate). The struct
/// layouts mirror glibc on Linux, which is why the whole module — and with
/// it the `Backend::Mmsg` path — is compile-time gated to `linux`/`gnu`.
/// `unsafe` in this crate is confined to this module.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_long, c_ulong};
    use std::io;
    use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
    use std::os::fd::AsRawFd;
    use std::sync::OnceLock;
    use std::time::Duration;

    use super::{PollFd, SendQueue, MAX_VLEN, POLLIN};

    const AF_INET: u16 = 2;
    const MSG_DONTWAIT: i32 = 0x40;
    const ENOSYS: i32 = 38;
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    const SO_SNDBUFFORCE: i32 = 32;
    const SO_RCVBUFFORCE: i32 = 33;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Iovec {
        iov_base: *mut u8,
        iov_len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockaddrIn {
        sin_family: u16,
        /// Port in network byte order.
        sin_port: u16,
        /// Address in network byte order.
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    /// glibc `struct msghdr`: `repr(C)` inserts the same padding after
    /// `msg_namelen` (u32 before a pointer) the C definition carries.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Msghdr {
        msg_name: *mut SockaddrIn,
        msg_namelen: u32,
        msg_iov: *mut Iovec,
        msg_iovlen: usize,
        msg_control: *mut u8,
        msg_controllen: usize,
        msg_flags: i32,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Mmsghdr {
        msg_hdr: Msghdr,
        msg_len: u32,
    }

    /// glibc `struct timespec` on the 64-bit targets this module serves.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    // `ppoll` reads both by C layout: where these fail, nothing compiles.
    const _: () = assert!(std::mem::size_of::<PollFd>() == 8);
    const _: () = assert!(std::mem::size_of::<Timespec>() == 16);

    const ZERO_MMSGHDR: Mmsghdr = Mmsghdr {
        msg_hdr: Msghdr {
            msg_name: std::ptr::null_mut(),
            msg_namelen: 0,
            msg_iov: std::ptr::null_mut(),
            msg_iovlen: 0,
            msg_control: std::ptr::null_mut(),
            msg_controllen: 0,
            msg_flags: 0,
        },
        msg_len: 0,
    };

    const ZERO_IOVEC: Iovec = Iovec { iov_base: std::ptr::null_mut(), iov_len: 0 };

    const ZERO_ADDR: SockaddrIn =
        SockaddrIn { sin_family: AF_INET, sin_port: 0, sin_addr: 0, sin_zero: [0; 8] };

    extern "C" {
        fn sendmmsg(fd: i32, msgvec: *mut Mmsghdr, vlen: u32, flags: i32) -> i32;
        fn recvmmsg(fd: i32, msgvec: *mut Mmsghdr, vlen: u32, flags: i32, timeout: *mut u8) -> i32;
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
        fn ppoll(fds: *mut PollFd, nfds: c_ulong, tmo: *const Timespec, sigmask: *const u8) -> i32;
    }

    /// Best-effort kernel buffer sizing (see [`super::set_socket_buffers`]).
    pub fn set_socket_buffers(socket: &UdpSocket, bytes: usize) {
        let val = bytes.min(i32::MAX as usize) as i32;
        let len = std::mem::size_of::<i32>() as u32;
        for (forced, plain) in [(SO_RCVBUFFORCE, SO_RCVBUF), (SO_SNDBUFFORCE, SO_SNDBUF)] {
            // SAFETY: `optval` points at a live i32 for the whole call and
            // `optlen` matches its size.
            let rc = unsafe { setsockopt(socket.as_raw_fd(), SOL_SOCKET, forced, &val, len) };
            if rc != 0 {
                unsafe { setsockopt(socket.as_raw_fd(), SOL_SOCKET, plain, &val, len) };
            }
        }
    }

    /// One-shot runtime probe: `sendmmsg` with an empty vector is a no-op
    /// on every kernel that has the syscall and `ENOSYS` on one that does
    /// not (glibc's fallback shim included).
    pub fn supported() -> bool {
        static PROBE: OnceLock<bool> = OnceLock::new();
        *PROBE.get_or_init(|| {
            let Ok(socket) = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)) else {
                return false;
            };
            // SAFETY: with `vlen` 0 the kernel never dereferences the
            // (null) vector; the fd is a live socket for the whole call.
            let rc = unsafe { sendmmsg(socket.as_raw_fd(), std::ptr::null_mut(), 0, 0) };
            rc >= 0 || io::Error::last_os_error().raw_os_error() != Some(ENOSYS)
        })
    }

    /// Appends one slot per socket to `set` and sleeps in a single `ppoll`
    /// (ns-resolution timeout, unlike `poll`'s ms) until one is readable or
    /// in error, or `timeout` passes.
    pub fn poll_readable(
        s: &[UdpSocket],
        timeout: Duration,
        set: &mut Vec<PollFd>,
    ) -> io::Result<()> {
        set.extend(s.iter().map(|s| PollFd { fd: s.as_raw_fd(), events: POLLIN, revents: 0 }));
        let tmo = Timespec {
            tv_sec: timeout.as_secs().try_into().unwrap_or(c_long::MAX),
            tv_nsec: timeout.subsec_nanos().into(),
        };
        // SAFETY: `set` and `tmo` outlive the call, `nfds` is exactly the
        // slice length so the kernel writes `revents` only inside it, and a
        // null sigmask leaves the signal mask alone.
        let rc = unsafe { ppoll(set.as_mut_ptr(), set.len() as c_ulong, &tmo, std::ptr::null()) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    /// Sends segments `first..` of `queue` — up to [`MAX_VLEN`] of them —
    /// in one `sendmmsg`. Returns how many datagrams the kernel accepted.
    pub fn send_batch(socket: &UdpSocket, queue: &SendQueue, first: usize) -> io::Result<usize> {
        let mut addrs = [ZERO_ADDR; MAX_VLEN];
        let mut iovs = [ZERO_IOVEC; MAX_VLEN];
        let mut hdrs = [ZERO_MMSGHDR; MAX_VLEN];
        let mut n = 0;
        while n < MAX_VLEN && first + n < queue.len() {
            let (bytes, addr) = queue.seg(first + n);
            let SocketAddr::V4(v4) = addr else {
                // The runtime binds IPv4 loopback only; should a V6
                // destination ever appear, route it portably rather than
                // mis-encode its sockaddr.
                if n == 0 {
                    return socket.send_to(bytes, addr).map(|_| 1);
                }
                break; // send what precedes it; the next call handles it
            };
            addrs[n].sin_port = v4.port().to_be();
            addrs[n].sin_addr = u32::from_ne_bytes(v4.ip().octets());
            iovs[n] = Iovec { iov_base: bytes.as_ptr().cast_mut(), iov_len: bytes.len() };
            hdrs[n].msg_hdr.msg_name = &mut addrs[n];
            hdrs[n].msg_hdr.msg_namelen = std::mem::size_of::<SockaddrIn>() as u32;
            hdrs[n].msg_hdr.msg_iov = &mut iovs[n];
            hdrs[n].msg_hdr.msg_iovlen = 1;
            n += 1;
        }
        // SAFETY: every pointer in the header block targets either this
        // stack frame (addrs/iovs) or `queue`'s arena, all of which outlive
        // the call; vlen is exactly the number of initialised entries.
        let rc = unsafe { sendmmsg(socket.as_raw_fd(), hdrs.as_mut_ptr(), n as u32, MSG_DONTWAIT) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(rc as usize)
    }

    /// Fills up to `bufs.len()` buffers (≤ [`MAX_VLEN`]) from `socket` in
    /// one non-blocking `recvmmsg`, recording each datagram's length in
    /// `lens`. Returns the number of datagrams received.
    pub fn recv_batch(
        socket: &UdpSocket,
        bufs: &mut [Vec<u8>],
        lens: &mut [usize],
    ) -> io::Result<usize> {
        let n = bufs.len().min(MAX_VLEN);
        let mut iovs = [ZERO_IOVEC; MAX_VLEN];
        let mut hdrs = [ZERO_MMSGHDR; MAX_VLEN];
        for i in 0..n {
            iovs[i] = Iovec { iov_base: bufs[i].as_mut_ptr(), iov_len: bufs[i].len() };
            hdrs[i].msg_hdr.msg_iov = &mut iovs[i];
            hdrs[i].msg_hdr.msg_iovlen = 1;
        }
        // SAFETY: as in `send_batch` — the header block points into this
        // frame and into `bufs`, which the caller keeps alive; the kernel
        // writes at most `iov_len` bytes into each buffer.
        let rc = unsafe {
            recvmmsg(
                socket.as_raw_fd(),
                hdrs.as_mut_ptr(),
                n as u32,
                MSG_DONTWAIT,
                std::ptr::null_mut(),
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let got = rc as usize;
        for i in 0..got {
            lens[i] = hdrs[i].msg_len as usize;
        }
        Ok(got)
    }
}

/// Compile-time stub for targets without the mmsg FFI: never supported,
/// so [`select_backend`] always resolves [`Backend::Fallback`] and the
/// batch entry points are unreachable.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod sys {
    use std::io;
    use std::net::UdpSocket;
    use std::time::Duration;

    use super::{PollFd, SendQueue};

    pub fn supported() -> bool {
        false
    }

    pub fn poll_readable(_: &[UdpSocket], _: Duration, _: &mut Vec<PollFd>) -> io::Result<()> {
        unreachable!("mmsg backend selected on a target without mmsg support")
    }

    pub fn send_batch(_: &UdpSocket, _: &SendQueue, _: usize) -> io::Result<usize> {
        unreachable!("mmsg backend selected on a target without mmsg support")
    }

    pub fn set_socket_buffers(_: &UdpSocket, _: usize) {}
}

#[cfg(test)]
mod tests {
    use std::net::{Ipv4Addr, UdpSocket};

    use super::*;

    fn loopback_pair() -> (UdpSocket, UdpSocket, SocketAddr) {
        let a = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let b = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let addr = b.local_addr().expect("addr");
        (a, b, addr)
    }

    fn queue_of(payloads: &[&[u8]], addr: SocketAddr) -> SendQueue {
        let mut queue = SendQueue::default();
        for p in payloads {
            queue.open(addr);
            queue.buf_mut().extend_from_slice(p);
            queue.close();
        }
        queue
    }

    #[test]
    fn send_queue_builds_and_clears_without_reallocating() {
        let addr: SocketAddr = (Ipv4Addr::LOCALHOST, 9).into();
        let mut queue = queue_of(&[b"alpha", b"", b"beta"], addr);
        assert_eq!(queue.len(), 2, "empty datagrams vanish at close()");
        assert_eq!(queue.seg(0).0, b"alpha");
        assert_eq!(queue.seg(1).0, b"beta");
        let cap = queue.buf.capacity();
        queue.clear();
        assert!(queue.is_empty());
        assert_eq!(queue.buf.capacity(), cap, "clear() keeps the arena");
    }

    /// A sender that returns scripted outcomes, recording which segment
    /// each call started at — the mock the partial-send test injects.
    struct ScriptedSender {
        script: Vec<io::Result<usize>>,
        calls: Vec<usize>,
    }

    impl BatchSender for ScriptedSender {
        fn send_from(&mut self, _: &UdpSocket, _: &SendQueue, first: usize) -> io::Result<usize> {
            self.calls.push(first);
            self.script.remove(0)
        }
    }

    #[test]
    fn partial_send_resumes_without_drop_or_duplicate() {
        let (socket, _peer, addr) = loopback_pair();
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 10]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut queue = queue_of(&refs, addr);
        // The kernel accepts 2 of 5, then 1, then the remaining 2.
        let mut sender = ScriptedSender { script: vec![Ok(2), Ok(1), Ok(2)], calls: Vec::new() };
        let mut stats = ShardStats::default();
        let mut pending = SendQueue::default();
        let verdict = drain_queue(&mut sender, &socket, &mut queue, &mut pending, &mut stats);
        assert_eq!(verdict, SendVerdict::Drained);
        assert_eq!(sender.calls, vec![0, 2, 3], "each retry resumes at the first unsent segment");
        assert_eq!(stats.send_syscalls, 3);
        assert_eq!(stats.kernel_sent, 5, "every datagram handed off exactly once");
        assert_eq!(stats.send_drops, 0);
        assert!(queue.is_empty(), "the queue is consumed");
        assert!(pending.is_empty(), "nothing retained on a clean drain");
    }

    #[test]
    fn transient_send_error_retains_the_unsent_tail() {
        let (socket, _peer, addr) = loopback_pair();
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut queue = queue_of(&refs, addr);
        let mut sender = ScriptedSender {
            script: vec![Ok(1), Err(io::Error::from(io::ErrorKind::WouldBlock))],
            calls: Vec::new(),
        };
        let mut stats = ShardStats::default();
        let mut pending = SendQueue::default();
        let verdict = drain_queue(&mut sender, &socket, &mut queue, &mut pending, &mut stats);
        assert_eq!(verdict, SendVerdict::Backoff);
        assert_eq!(sender.calls, vec![0, 1], "the drain stops at the transient error");
        assert_eq!(stats.kernel_sent, 1);
        assert_eq!(stats.send_drops, 0, "pressure loses nothing");
        assert_eq!(stats.transients_recovered, 1);
        assert_eq!(pending.len(), 3, "the refused segment and the tail are retained");
        assert_eq!(pending.seg(0).0, payloads[1].as_slice(), "retention preserves order");
    }

    #[test]
    fn fatal_send_error_drops_the_head_and_asks_for_a_rebind() {
        let (socket, _peer, addr) = loopback_pair();
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut queue = queue_of(&refs, addr);
        const EBADF: i32 = 9;
        let mut sender = ScriptedSender {
            script: vec![Ok(1), Err(io::Error::from_raw_os_error(EBADF))],
            calls: Vec::new(),
        };
        let mut stats = ShardStats::default();
        let mut pending = SendQueue::default();
        let verdict = drain_queue(&mut sender, &socket, &mut queue, &mut pending, &mut stats);
        assert_eq!(verdict, SendVerdict::Rebind);
        assert_eq!(stats.send_drops, 1, "exactly the refused datagram is lost");
        assert_eq!(pending.len(), 2, "the rest outlives the socket");
        assert_eq!(pending.seg(0).0, payloads[2].as_slice());
    }

    #[test]
    fn eintr_retries_in_place_without_losing_position() {
        let (socket, _peer, addr) = loopback_pair();
        let mut queue = queue_of(&[b"a", b"b"], addr);
        let mut sender = ScriptedSender {
            script: vec![Ok(1), Err(io::Error::from(io::ErrorKind::Interrupted)), Ok(1)],
            calls: Vec::new(),
        };
        let mut stats = ShardStats::default();
        let mut pending = SendQueue::default();
        let verdict = drain_queue(&mut sender, &socket, &mut queue, &mut pending, &mut stats);
        assert_eq!(verdict, SendVerdict::Drained);
        assert_eq!(sender.calls, vec![0, 1, 1], "the interrupted segment is retried in place");
        assert_eq!(stats.kernel_sent, 2);
        assert_eq!(stats.transients_recovered, 1);
        assert!(pending.is_empty());
    }

    #[test]
    fn misbehaving_sender_cannot_stall_or_overrun() {
        let (socket, _peer, addr) = loopback_pair();
        let mut queue = queue_of(&[b"a", b"b"], addr);
        // Ok(0) would loop forever and Ok(100) would overrun; both clamp.
        let mut sender = ScriptedSender { script: vec![Ok(0), Ok(100)], calls: Vec::new() };
        let mut stats = ShardStats::default();
        let mut pending = SendQueue::default();
        drain_queue(&mut sender, &socket, &mut queue, &mut pending, &mut stats);
        assert_eq!(sender.calls, vec![0, 1]);
        assert_eq!(stats.kernel_sent, 2);
    }

    #[test]
    fn error_classes_cover_the_injected_errnos() {
        const CASES: &[(i32, ErrorClass)] = &[
            (4, ErrorClass::Transient),   // EINTR
            (11, ErrorClass::Transient),  // EAGAIN
            (12, ErrorClass::Transient),  // ENOMEM
            (105, ErrorClass::Transient), // ENOBUFS
            (38, ErrorClass::Downgrade),  // ENOSYS
            (9, ErrorClass::Fatal),       // EBADF
        ];
        for &(errno, class) in CASES {
            let e = io::Error::from_raw_os_error(errno);
            assert_eq!(classify(&e), class, "errno {errno}");
        }
    }

    #[test]
    fn fallback_round_trips_a_queue() {
        let (tx, rx, addr) = loopback_pair();
        let mut queue = queue_of(&[b"one", b"two", b"three"], addr);
        let mut stats = ShardStats::default();
        let mut pending = SendQueue::default();
        drain_queue(&mut FallbackSender, &tx, &mut queue, &mut pending, &mut stats);
        assert_eq!(stats.send_syscalls, 3);
        assert_eq!(stats.kernel_sent, 3);
        rx.set_nonblocking(true).expect("nonblocking");
        std::thread::sleep(Duration::from_millis(20));
        let mut recv = RecvQueue::new(8, 2048);
        let mut rstats = ShardStats::default();
        let got = recv.recv(&rx, Backend::Fallback, &mut rstats).expect("recv");
        assert_eq!(got, 3);
        let datagrams: Vec<Vec<u8>> = recv.datagrams().map(<[u8]>::to_vec).collect();
        assert_eq!(datagrams, vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]);
        assert_eq!(rstats.kernel_received, 3);
        assert_eq!(rstats.recv_syscalls, 3, "fallback pays one syscall per datagram");
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn mmsg_round_trips_a_queue_in_one_syscall_each_way() {
        if !sys::supported() {
            return; // ancient kernel: nothing to test
        }
        let (tx, rx, addr) = loopback_pair();
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 100 + usize::from(i)]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut queue = queue_of(&refs, addr);
        let mut stats = ShardStats::default();
        let mut pending = SendQueue::default();
        flush_queue(Backend::Mmsg, &tx, &mut queue, &mut pending, &mut stats);
        assert_eq!(stats.kernel_sent, 10);
        assert_eq!(stats.send_syscalls, 1, "one sendmmsg covers the whole queue");
        rx.set_nonblocking(true).expect("nonblocking");
        std::thread::sleep(Duration::from_millis(20));
        let mut recv = RecvQueue::new(16, 2048);
        let mut rstats = ShardStats::default();
        let got = recv.recv(&rx, Backend::Mmsg, &mut rstats).expect("recv");
        assert_eq!(got, 10);
        let datagrams: Vec<Vec<u8>> = recv.datagrams().map(<[u8]>::to_vec).collect();
        assert_eq!(datagrams, payloads, "payloads arrive intact and in order");
        assert_eq!(rstats.recv_syscalls, 1, "one recvmmsg drains the backlog");
        assert_eq!(rstats.kernel_received, 10);
        assert_eq!(rstats.recv_capacity, 16);
    }

    fn pool(n: usize) -> (Vec<UdpSocket>, Vec<SocketAddr>) {
        let sockets: Vec<UdpSocket> =
            (0..n).map(|_| UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind")).collect();
        let addrs = sockets.iter().map(|s| s.local_addr().expect("addr")).collect();
        (sockets, addrs)
    }

    #[test]
    fn wait_on_quiet_sockets_times_out_with_nothing_flagged() {
        if select_backend(None) != Backend::Mmsg {
            return; // no ppoll here: the portable wait has its own test
        }
        let (sockets, _) = pool(3);
        let mut set = vec![PollFd::BLIND; 7]; // stale slots must not survive
        let timeout = Duration::from_micros(3_500);
        let started = std::time::Instant::now();
        wait_readable(Backend::Mmsg, &sockets, timeout, &mut set).expect("wait");
        assert!(started.elapsed() >= timeout, "the wait returned early with nothing to read");
        assert_eq!(set.len(), 3, "one slot per socket");
        assert!(!set.iter().any(PollFd::flagged));
    }

    #[test]
    fn wait_flags_exactly_the_socket_that_was_written_to() {
        if select_backend(None) != Backend::Mmsg {
            return;
        }
        let (sockets, addrs) = pool(4);
        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        tx.send_to(b"wake", addrs[2]).expect("send");
        let mut set = Vec::new();
        // Far longer than loopback delivery: returning at all means the
        // datagram, not the clock, ended the wait.
        let timeout = Duration::from_secs(20);
        let started = std::time::Instant::now();
        wait_readable(Backend::Mmsg, &sockets, timeout, &mut set).expect("wait");
        assert!(started.elapsed() < timeout);
        let flagged: Vec<bool> = set.iter().map(PollFd::flagged).collect();
        assert_eq!(flagged, [false, false, true, false]);
        // Readiness is level-triggered: unread data flags again, and a
        // zero timeout only looks.
        wait_readable(Backend::Mmsg, &sockets, Duration::ZERO, &mut set).expect("wait");
        assert!(set[2].flagged());
    }

    #[test]
    fn portable_wait_flags_every_socket_without_sleeping() {
        let (sockets, _) = pool(3);
        let mut set = Vec::new();
        // Fifty waits in well under fifty quanta: sleeps only overshoot, so
        // not one of them slept — the shard's dwell is the portable
        // backend's only sleep, or it would wake every other quantum.
        let started = std::time::Instant::now();
        for _ in 0..50 {
            wait_readable(Backend::Fallback, &sockets, Duration::from_secs(20), &mut set)
                .expect("wait");
        }
        assert!(started.elapsed() < 25 * WAKE_QUANTUM, "the portable wait slept");
        assert_eq!(set.iter().filter(|slot| slot.flagged()).count(), 3);
        set[1].clear();
        assert!(!set[1].flagged());
    }

    #[test]
    fn an_interrupted_wait_is_transient() {
        // `ppoll` reports a signal as EINTR; the shard must treat it as
        // "nothing learned", never as a broken pool.
        assert_eq!(classify(&io::Error::from(io::ErrorKind::Interrupted)), ErrorClass::Transient);
        assert_eq!(classify(&io::Error::from_raw_os_error(4)), ErrorClass::Transient);
    }

    #[test]
    fn empty_socket_reads_zero() {
        let (_tx, rx, _) = loopback_pair();
        rx.set_nonblocking(true).expect("nonblocking");
        let mut recv = RecvQueue::new(4, 512);
        let mut stats = ShardStats::default();
        for backend in [Backend::Fallback, select_backend(None)] {
            assert_eq!(recv.recv(&rx, backend, &mut stats).expect("recv"), 0);
        }
        assert_eq!(stats.recv_syscalls, 0, "empty reads are not data-bearing");
    }
}
