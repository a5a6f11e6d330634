//! Kernel socket I/O: a live shard's environment, with batched
//! `sendmmsg`/`recvmmsg` and a portable per-datagram fallback.
//!
//! `UdpEnv` is the environment (`ShardEnv`) a live shard runs on: the cluster clock,
//! the shard's pool of non-blocking sockets, and the I/O path the platform
//! gives it. It is the one type that tells the two paths apart; every other
//! line of the shard is identical on both.
//!
//! One shard iteration releases many kernel datagrams (coalesced bursts to
//! many destinations) and wants to drain many more; paying one syscall per
//! datagram caps the whole runtime at the syscall rate. Linux batches both
//! directions: `sendmmsg(2)` hands the kernel a vector of datagrams with
//! per-entry destinations, `recvmmsg(2)` fills a vector of buffers.
//!
//! * **Send** — the shard packs its outbox into a `SendQueue`: one flat
//!   reusable byte arena plus a segment table `(offset, len, destination)`.
//!   `drain_queue` then drains the whole queue through an environment's
//!   `send_from`, `MAX_VLEN` datagrams per syscall on the batched path,
//!   resuming after partial sends (the kernel may accept fewer than asked).
//!   Send errors go through an explicit taxonomy (`classify`):
//!   *transient* pressure retains the unsent tail for a backed-off retry,
//!   and a *fatal* socket error drops exactly the refused datagram, retains
//!   the rest, and asks the caller to re-bind the socket — the
//!   `SendVerdict` tells the shard which recovery to run.
//! * **Recv** — a `RecvQueue` owns a pool of max-datagram buffers that
//!   grows with the largest burst the shard has seen; one `recvmmsg` fills
//!   up to the pool's worth of them, and the shard demuxes each as a
//!   borrowed slice.
//! * **Wait** — `UdpEnv`'s wait is where a live shard sleeps: the dwell,
//!   then one `ppoll(2)` over its whole socket pool, returning which sockets
//!   have something to read. The portable path cannot watch a pool: it
//!   returns after the dwell with every socket flagged.
//!
//! The platform alone picks the path, once, when `UdpEnv::new` builds the
//! environment: the portable one serves non-Linux builds, and processes
//! whose kernel or seccomp filter refuses the syscalls (a start-up `ENOSYS`
//! probe of `sendmmsg` and `recvmmsg`). The choice holds for the whole run:
//! a running kernel does not lose a syscall, and a filter is in place before
//! the probe. Tests pin the portable path when they build an environment.
//!
//! The FFI layer is hand-rolled (`#[repr(C)]` structs against the system
//! libc) and gated to `linux`/`gnu` targets whose `msghdr` layout it
//! mirrors; everything else gets the fallback at compile time.

use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::time::Instant;

use gossip_types::{Duration, Time};
use gossip_udp::clock::ClusterClock;
use gossip_udp::report::ShardStats;

use crate::shard::ShardEnv;

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

/// Which I/O path a [`UdpEnv`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// Batched `sendmmsg`/`recvmmsg` syscalls, `ppoll` over the pool.
    Mmsg,
    /// Portable `send_to`/`recv_from`, one datagram per syscall.
    Fallback,
}

/// Returns whether the batched path runs here (platform support and the
/// runtime probe). Benchmarks record this next to their numbers.
pub fn mmsg_active() -> bool {
    sys::supported()
}

/// One pool socket's slot in a shard's wait set, laid out as C's
/// `struct pollfd` so the batched path hands the set to `ppoll` in place.
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

/// What [`classify`] says an I/O error means for the socket it hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ErrorClass {
    /// Momentary pressure or interruption (`EAGAIN`, `EINTR`, `ENOBUFS`,
    /// `ENOMEM`, the shutdown-window `ECONNREFUSED` echo): the socket is
    /// fine, retry soon.
    Transient,
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
    const ENOBUFS: i32 = 105;
    match e.kind() {
        io::ErrorKind::WouldBlock
        | io::ErrorKind::TimedOut
        | io::ErrorKind::Interrupted
        | io::ErrorKind::ConnectionRefused => ErrorClass::Transient,
        _ => match e.raw_os_error() {
            Some(EAGAIN | EINTR | ENOMEM | ENOBUFS) => ErrorClass::Transient,
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
    /// A fatal socket error: the refused head was dropped (counted), the
    /// rest moved to `pending` — re-bind the socket, then retry.
    Rebind,
}

/// Consecutive `EINTR` returns retried in place before the drain gives up
/// and backs off (guards against a pathological interruption storm).
const MAX_EINTR_RETRIES: u32 = 8;

/// Drives `send_from` across the whole queue with partial-send resumption.
/// Each call is one kernel interaction: it sends segments `first..` of the
/// queue — as many as the interaction covers — and returns how many the
/// kernel accepted; an error refers to segment `first` alone. A short
/// return re-enters at the first unsent segment; `EINTR` retries in place
/// (the syscall did nothing). Any other error routes through [`classify`]:
/// the unsent tail is retained into `pending` — minus the refused head on a
/// fatal error — and the [`SendVerdict`] names the recovery the caller owes
/// the socket. No segment is ever offered to the kernel twice by one pass.
/// Clears `queue` (retained bytes live on in `pending`).
pub(crate) fn drain_queue(
    mut send_from: impl FnMut(&SendQueue, usize) -> io::Result<usize>,
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
        stats.send_syscalls += 1;
        match send_from(queue, first) {
            Ok(sent) => {
                eintr = 0;
                // A compliant sender returns 1..=remaining; clamp so a
                // misbehaving one cannot stall or overrun the loop.
                let sent = sent.clamp(1, queue.len() - first);
                stats.kernel_sent += sent as u64;
                first += sent;
            }
            Err(e) => match classify(&e) {
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
                ErrorClass::Fatal => {
                    stats.send_drops += 1;
                    retain_tail(queue, first + 1, pending);
                    break SendVerdict::Rebind;
                }
            },
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

/// Slots a receive pool starts with. A pool socket mostly holds a few
/// datagrams per wake, so a pool of `recv_batch` worst-case buffers would
/// be resident and unused; it grows instead (see [`RecvQueue::grow`]).
const START_SLOTS: usize = 4;

/// The reusable receive pool: max-datagram buffers one `recvmmsg` fills in
/// a single syscall (the fallback fills them one `recv_from` each).
/// Received datagrams are then walked as borrowed slices — the pool is the
/// *only* copy of inbound bytes on the hot path.
///
/// It starts with [`START_SLOTS`] buffers and doubles, up to its cap,
/// whenever a receive call fills every one of them: it holds the largest
/// burst the shard has seen, never more than the cap, and never shrinks.
#[derive(Debug, Default)]
pub(crate) struct RecvQueue {
    bufs: Vec<Vec<u8>>,
    lens: Vec<usize>,
    count: usize,
    /// Most buffers the pool grows to.
    cap: usize,
    /// Size of every buffer.
    buf_size: usize,
}

impl RecvQueue {
    /// Builds a pool of `buf_size`-byte buffers that grows up to `cap` of
    /// them (`cap` is clamped to `1..=`[`MAX_VLEN`]).
    pub fn new(cap: usize, buf_size: usize) -> Self {
        let cap = cap.clamp(1, MAX_VLEN);
        let mut queue = RecvQueue { cap, buf_size, ..RecvQueue::default() };
        queue.resize(START_SLOTS.min(cap));
        queue
    }

    /// Datagrams one receive call can return now.
    pub fn capacity(&self) -> usize {
        self.bufs.len()
    }

    /// Most datagrams one receive call will ever be able to return.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Doubles the pool, up to its cap: the drain's answer to a receive
    /// call that filled every buffer.
    pub fn grow(&mut self) {
        self.resize((2 * self.bufs.len()).min(self.cap));
    }

    fn resize(&mut self, slots: usize) {
        self.bufs.resize_with(slots, || vec![0; self.buf_size]);
        self.lens.resize(slots, 0);
    }

    /// The datagrams the last receive call produced, borrowed straight
    /// from the pool.
    pub fn datagrams(&self) -> impl Iterator<Item = &[u8]> {
        self.bufs.iter().zip(&self.lens).take(self.count).map(|(buf, &len)| &buf[..len])
    }
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

/// A live shard's environment: the cluster clock, the shard's socket pool
/// and the I/O path the platform probe picked at construction — batched
/// where the syscalls exist, portable otherwise, for the whole run.
#[derive(Debug)]
pub(crate) struct UdpEnv {
    clock: ClusterClock,
    /// The pool, non-blocking.
    pub(crate) sockets: Vec<UdpSocket>,
    backend: Backend,
    /// Each socket's original local address, kept for in-place re-binds.
    local_addrs: Vec<SocketAddr>,
    /// Kernel buffer size re-applied when a socket is re-bound.
    buffer_bytes: usize,
}

impl UdpEnv {
    /// Takes over a bound pool, made non-blocking here, on `clock`, and
    /// picks the I/O path the start-up probe allows.
    pub fn new(
        clock: ClusterClock,
        sockets: Vec<UdpSocket>,
        buffer_bytes: usize,
    ) -> io::Result<Self> {
        for socket in &sockets {
            socket.set_nonblocking(true)?;
        }
        let local_addrs = sockets.iter().map(UdpSocket::local_addr).collect::<io::Result<_>>()?;
        let backend = if sys::supported() { Backend::Mmsg } else { Backend::Fallback };
        Ok(UdpEnv { clock, sockets, backend, local_addrs, buffer_bytes })
    }
}

impl ShardEnv for UdpEnv {
    fn now(&self) -> Time {
        self.clock.now()
    }

    fn pool(&self) -> usize {
        self.sockets.len()
    }

    /// The dwell is a plain sleep. The batched path then makes one `ppoll`
    /// over the pool; the portable path has nothing to watch with and flags
    /// every socket at once — a second sleep would halve the wake rate.
    fn wait(
        &mut self,
        dwell: Duration,
        timeout: Duration,
        ready: &mut Vec<PollFd>,
    ) -> io::Result<()> {
        let (dwell, timeout) = (ClusterClock::to_std(dwell), ClusterClock::to_std(timeout));
        let asleep = Instant::now();
        std::thread::sleep(dwell);
        // An oversleep eats into the timeout instead of pushing the wake
        // past the deadline it was computed for.
        let timeout = timeout.saturating_sub(asleep.elapsed().saturating_sub(dwell));
        ready.clear();
        match self.backend {
            Backend::Mmsg => sys::poll_readable(&self.sockets, timeout, ready),
            Backend::Fallback => {
                ready.resize(self.sockets.len(), PollFd::BLIND);
                Ok(())
            }
        }
    }

    /// One `recvmmsg` on the batched path, one `recv_from` per datagram on
    /// the portable one. What [`classify`] calls transient — an empty queue,
    /// an interruption, the ICMP port-unreachable echo of a peer socket
    /// already closed at shutdown — is 0 datagrams, not an error.
    fn recv(
        &mut self,
        si: usize,
        want: usize,
        queue: &mut RecvQueue,
        stats: &mut ShardStats,
    ) -> io::Result<usize> {
        let socket = &self.sockets[si];
        queue.count = 0;
        match self.backend {
            Backend::Mmsg => {
                queue.count =
                    match sys::recv_batch(socket, &mut queue.bufs[..want], &mut queue.lens) {
                        Ok(got) => got,
                        Err(e) if classify(&e) == ErrorClass::Transient => 0,
                        Err(e) => return Err(e),
                    };
                if queue.count > 0 {
                    stats.recv_syscalls += 1;
                    stats.kernel_received += queue.count as u64;
                    stats.recv_capacity += want as u64;
                }
            }
            Backend::Fallback => {
                while queue.count < want {
                    match socket.recv_from(&mut queue.bufs[queue.count]) {
                        Ok((len, _)) => {
                            queue.lens[queue.count] = len;
                            queue.count += 1;
                            stats.recv_syscalls += 1;
                            stats.kernel_received += 1;
                            stats.recv_capacity += 1;
                        }
                        Err(e) if classify(&e) == ErrorClass::Transient => break,
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        Ok(queue.count)
    }

    /// Up to [`MAX_VLEN`] datagrams per `sendmmsg` on the batched path, one
    /// `send_to` on the portable one.
    fn send_from(&mut self, si: usize, queue: &SendQueue, first: usize) -> io::Result<usize> {
        let socket = &self.sockets[si];
        match self.backend {
            Backend::Mmsg => sys::send_batch(socket, queue, first),
            Backend::Fallback => {
                let (bytes, addr) = queue.seg(first);
                socket.send_to(bytes, addr).map(|_| 1)
            }
        }
    }

    /// Re-binds to the socket's original local address, restoring
    /// non-blocking mode and the kernel buffer sizes. The old socket is
    /// dropped first (via a throwaway placeholder) so the port is free.
    fn rebind(&mut self, si: usize) -> io::Result<()> {
        let placeholder = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        drop(std::mem::replace(&mut self.sockets[si], placeholder));
        let fresh = UdpSocket::bind(self.local_addrs[si])?;
        fresh.set_nonblocking(true)?;
        set_socket_buffers(&fresh, self.buffer_bytes);
        self.sockets[si] = fresh;
        Ok(())
    }
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
                // SAFETY: the same live i32 and matching `optlen` as the
                // forced call above; only the option name differs.
                unsafe { setsockopt(socket.as_raw_fd(), SOL_SOCKET, plain, &val, len) };
            }
        }
    }

    /// One-shot start-up probe, the only place the batched path is chosen:
    /// `sendmmsg` and `recvmmsg` with an empty vector are no-ops on every
    /// kernel that has the syscalls and `ENOSYS` on one that does not, or
    /// behind a seccomp filter that refuses them that way (glibc's fallback
    /// shim included). Both must pass.
    pub fn supported() -> bool {
        static PROBE: OnceLock<bool> = OnceLock::new();
        *PROBE.get_or_init(|| {
            let Ok(socket) = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)) else {
                return false;
            };
            let fd = socket.as_raw_fd();
            let answered =
                |rc: i32| rc >= 0 || io::Error::last_os_error().raw_os_error() != Some(ENOSYS);
            // SAFETY: with `vlen` 0 the kernel never dereferences the
            // (null) vector; the fd is a live socket for the whole call.
            let sent = answered(unsafe { sendmmsg(fd, std::ptr::null_mut(), 0, 0) });
            // SAFETY: with `vlen` 0 the kernel reads no entry of the (null)
            // vector and writes none back, the null timeout is never read,
            // `MSG_DONTWAIT` keeps an empty socket from blocking, and the fd
            // is a live socket for the whole call.
            let received = answered(unsafe {
                recvmmsg(fd, std::ptr::null_mut(), 0, MSG_DONTWAIT, std::ptr::null_mut())
            });
            sent && received
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
/// so [`UdpEnv`] always runs the portable path and the batch entry points
/// are unreachable.
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
        unreachable!("batched path on a target without mmsg support")
    }

    pub fn send_batch(_: &UdpSocket, _: &SendQueue, _: usize) -> io::Result<usize> {
        unreachable!("batched path on a target without mmsg support")
    }

    pub fn recv_batch(_: &UdpSocket, _: &mut [Vec<u8>], _: &mut [usize]) -> io::Result<usize> {
        unreachable!("batched path on a target without mmsg support")
    }

    pub fn set_socket_buffers(_: &UdpSocket, _: usize) {}
}

#[cfg(test)]
impl UdpEnv {
    /// [`UdpEnv::new`] pinned to the portable path, whatever the probe says.
    pub fn portable(
        clock: ClusterClock,
        sockets: Vec<UdpSocket>,
        buffer_bytes: usize,
    ) -> io::Result<Self> {
        let env = Self::new(clock, sockets, buffer_bytes)?;
        Ok(UdpEnv { backend: Backend::Fallback, ..env })
    }

    /// Whether this environment runs the batched path.
    pub fn batched(&self) -> bool {
        self.backend == Backend::Mmsg
    }
}

#[cfg(test)]
/// The shard's environment on virtual time: every socket of a test cluster
/// in memory, and the one stepped clock they all read. A shard's loop runs
/// on it unchanged — the same wait, drain, flush, backoff and re-bind —
/// while a driver (`crate::shard::stepped`) moves the clock; nothing
/// sleeps, and a seeded run is a pure function of its configuration.
pub(crate) mod testnet {
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::io;
    use std::net::{Ipv4Addr, SocketAddr};
    use std::ops::Range;
    use std::rc::Rc;

    use gossip_types::{Duration, Time};
    use gossip_udp::report::ShardStats;

    use super::{PollFd, RecvQueue, SendQueue, MAX_VLEN};
    use crate::shard::ShardEnv;

    /// One-way delay of the in-memory wire: loopback-like.
    pub const WIRE_DELAY: Duration = Duration::from_micros(50);

    /// Socket `k` of a net answers at `127.0.0.1:(BASE_PORT + k)`.
    const BASE_PORT: u16 = 20_000;

    /// One datagram in a socket's receive queue.
    #[derive(Debug)]
    pub struct Arrival {
        /// When it is (or was) readable.
        pub at: Time,
        /// The sending socket's address.
        pub from: SocketAddr,
        pub bytes: Vec<u8>,
    }

    #[derive(Debug, Default)]
    struct Socket {
        queue: VecDeque<Arrival>,
        bytes: usize,
    }

    /// Every socket of a test cluster, and its clock.
    #[derive(Debug)]
    pub struct Net {
        now: Time,
        sockets: Vec<Socket>,
        /// Receive-buffer size of every socket: past it, arrivals drop.
        buffer_bytes: usize,
    }

    /// The handle the driver and every shard's environment share.
    pub type SharedNet = Rc<RefCell<Net>>;

    impl Net {
        /// `sockets` empty sockets with `buffer_bytes` receive buffers, at
        /// [`Time::ZERO`].
        pub fn shared(sockets: usize, buffer_bytes: usize) -> SharedNet {
            let sockets = (0..sockets).map(|_| Socket::default()).collect();
            Rc::new(RefCell::new(Net { now: Time::ZERO, sockets, buffer_bytes }))
        }

        /// The address of socket `k`.
        pub fn addr(k: usize) -> SocketAddr {
            (Ipv4Addr::LOCALHOST, BASE_PORT + k as u16).into()
        }

        pub fn now(&self) -> Time {
            self.now
        }

        /// Steps the clock to `t` (never backwards).
        pub fn set_now(&mut self, t: Time) {
            assert!(t >= self.now, "the clock steps back from {} to {t}", self.now);
            self.now = t;
        }

        /// When the first datagram queued on `sockets` arrives, or arrived.
        pub fn first_arrival(&self, sockets: Range<usize>) -> Option<Time> {
            self.sockets[sockets].iter().filter_map(|s| s.queue.front().map(|a| a.at)).min()
        }

        fn readable(&self, k: usize) -> bool {
            self.sockets[k].queue.front().is_some_and(|a| a.at <= self.now)
        }

        /// Puts `bytes` on the wire from `from` to `to`: readable there
        /// [`WIRE_DELAY`] from now, or dropped, as a kernel drops it, when
        /// the receive buffer is full or nothing answers at `to`.
        pub fn send(&mut self, from: SocketAddr, to: SocketAddr, bytes: &[u8]) {
            let k = usize::from(to.port().wrapping_sub(BASE_PORT));
            let (at, cap) = (self.now + WIRE_DELAY, self.buffer_bytes);
            let Some(socket) = self.sockets.get_mut(k) else { return };
            if socket.bytes + bytes.len() <= cap {
                socket.bytes += bytes.len();
                socket.queue.push_back(Arrival { at, from, bytes: bytes.to_vec() });
            }
        }

        /// Takes everything queued on socket `k`, arrived or in flight — a
        /// test reading the pool as a peer would.
        pub fn take(&mut self, k: usize) -> Vec<Arrival> {
            self.sockets[k].bytes = 0;
            self.sockets[k].queue.drain(..).collect()
        }
    }

    /// One re-bind: when, which pool socket, and when that socket last sent
    /// before it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Rebind {
        pub at: Time,
        pub socket: usize,
        pub last_send: Option<Time>,
    }

    /// One shard's environment on a [`Net`]: its slice of the pool, and the
    /// I/O path it models — the batched one's wait flags the sockets that
    /// hold data, the portable one's flags them all; a batched send moves
    /// up to [`MAX_VLEN`] datagrams, a portable one a single datagram.
    #[derive(Debug)]
    pub struct VirtualEnv {
        net: SharedNet,
        /// The shard's first socket in the net.
        first: usize,
        pool: usize,
        batched: bool,
        /// When each pool socket last sent.
        last_send: Vec<Option<Time>>,
        /// Every re-bind, in order.
        pub rebinds: Vec<Rebind>,
    }

    impl VirtualEnv {
        /// Sockets `first..first + pool` of `net`, on the batched path or
        /// the portable one.
        pub fn new(net: SharedNet, first: usize, pool: usize, batched: bool) -> Self {
            let last_send = vec![None; pool];
            VirtualEnv { net, first, pool, batched, last_send, rebinds: Vec::new() }
        }

        /// The shard's sockets' indices in the net.
        pub fn sockets(&self) -> Range<usize> {
            self.first..self.first + self.pool
        }

        /// Whether this environment models the batched path.
        pub fn batched(&self) -> bool {
            self.batched
        }
    }

    impl ShardEnv for VirtualEnv {
        fn now(&self) -> Time {
            self.net.borrow().now
        }

        fn pool(&self) -> usize {
            self.pool
        }

        /// The driver has already stepped the clock to the instant this
        /// wait returns (see `crate::shard::stepped`); what is left is its
        /// answer.
        fn wait(&mut self, _: Duration, _: Duration, ready: &mut Vec<PollFd>) -> io::Result<()> {
            let net = self.net.borrow();
            ready.clear();
            ready.extend(self.sockets().map(|k| {
                let mut slot = PollFd::BLIND;
                if self.batched && !net.readable(k) {
                    slot.clear();
                }
                slot
            }));
            Ok(())
        }

        fn recv(
            &mut self,
            si: usize,
            want: usize,
            queue: &mut RecvQueue,
            stats: &mut ShardStats,
        ) -> io::Result<usize> {
            let mut net = self.net.borrow_mut();
            let now = net.now;
            let socket = &mut net.sockets[self.first + si];
            queue.count = 0;
            while queue.count < want && socket.queue.front().is_some_and(|a| a.at <= now) {
                let Some(arrival) = socket.queue.pop_front() else { break };
                socket.bytes -= arrival.bytes.len();
                let buf = &mut queue.bufs[queue.count];
                let len = arrival.bytes.len().min(buf.len());
                buf[..len].copy_from_slice(&arrival.bytes[..len]);
                queue.lens[queue.count] = len;
                queue.count += 1;
            }
            let got = queue.count as u64;
            stats.kernel_received += got;
            if !self.batched {
                stats.recv_syscalls += got;
                stats.recv_capacity += got;
            } else if got > 0 {
                stats.recv_syscalls += 1;
                stats.recv_capacity += want as u64;
            }
            Ok(queue.count)
        }

        fn send_from(&mut self, si: usize, queue: &SendQueue, first: usize) -> io::Result<usize> {
            let sent = if self.batched { (queue.len() - first).min(MAX_VLEN) } else { 1 };
            let mut net = self.net.borrow_mut();
            let from = Net::addr(self.first + si);
            for k in first..first + sent {
                let (bytes, to) = queue.seg(k);
                net.send(from, to, bytes);
            }
            self.last_send[si] = Some(net.now);
            Ok(sent)
        }

        /// The socket's receive backlog dies with it.
        fn rebind(&mut self, si: usize) -> io::Result<()> {
            let mut net = self.net.borrow_mut();
            net.take(self.first + si);
            self.rebinds.push(Rebind { at: net.now, socket: si, last_send: self.last_send[si] });
            Ok(())
        }
    }
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

    /// A live environment over `sockets`, on the batched path or pinned to
    /// the portable one.
    fn env_of(sockets: Vec<UdpSocket>, batched: bool) -> UdpEnv {
        let build = if batched { UdpEnv::new } else { UdpEnv::portable };
        build(ClusterClock::start(), sockets, 1 << 20).expect("env")
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
    /// each call started at — the mock the partial-send tests inject.
    fn scripted(
        script: Vec<io::Result<usize>>,
        calls: &mut Vec<usize>,
    ) -> impl FnMut(&SendQueue, usize) -> io::Result<usize> + '_ {
        let mut script = script.into_iter();
        move |_, first| {
            calls.push(first);
            script.next().expect("a scripted outcome per call")
        }
    }

    /// Drains `queue` through `script`; returns the verdict, the segment
    /// each call started at, what was retained and the counters.
    fn drain_scripted(
        queue: &mut SendQueue,
        script: Vec<io::Result<usize>>,
    ) -> (SendVerdict, Vec<usize>, SendQueue, ShardStats) {
        let (mut calls, mut pending, mut stats) =
            (Vec::new(), SendQueue::default(), ShardStats::default());
        let verdict = drain_queue(scripted(script, &mut calls), queue, &mut pending, &mut stats);
        (verdict, calls, pending, stats)
    }

    fn addr() -> SocketAddr {
        (Ipv4Addr::LOCALHOST, 9).into()
    }

    #[test]
    fn partial_send_resumes_without_drop_or_duplicate() {
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 10]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut queue = queue_of(&refs, addr());
        // The kernel accepts 2 of 5, then 1, then the remaining 2.
        let (verdict, calls, pending, stats) =
            drain_scripted(&mut queue, vec![Ok(2), Ok(1), Ok(2)]);
        assert_eq!(verdict, SendVerdict::Drained);
        assert_eq!(calls, vec![0, 2, 3], "each retry resumes at the first unsent segment");
        assert_eq!(stats.send_syscalls, 3);
        assert_eq!(stats.kernel_sent, 5, "every datagram handed off exactly once");
        assert_eq!(stats.send_drops, 0);
        assert!(queue.is_empty(), "the queue is consumed");
        assert!(pending.is_empty(), "nothing retained on a clean drain");
    }

    #[test]
    fn transient_send_error_retains_the_unsent_tail() {
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut queue = queue_of(&refs, addr());
        let script = vec![Ok(1), Err(io::Error::from(io::ErrorKind::WouldBlock))];
        let (verdict, calls, pending, stats) = drain_scripted(&mut queue, script);
        assert_eq!(verdict, SendVerdict::Backoff);
        assert_eq!(calls, vec![0, 1], "the drain stops at the transient error");
        assert_eq!(stats.kernel_sent, 1);
        assert_eq!(stats.send_drops, 0, "pressure loses nothing");
        assert_eq!(stats.transients_recovered, 1);
        assert_eq!(pending.len(), 3, "the refused segment and the tail are retained");
        assert_eq!(pending.seg(0).0, payloads[1].as_slice(), "retention preserves order");
    }

    #[test]
    fn fatal_send_error_drops_the_head_and_asks_for_a_rebind() {
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut queue = queue_of(&refs, addr());
        const EBADF: i32 = 9;
        let script = vec![Ok(1), Err(io::Error::from_raw_os_error(EBADF))];
        let (verdict, _, pending, stats) = drain_scripted(&mut queue, script);
        assert_eq!(verdict, SendVerdict::Rebind);
        assert_eq!(stats.send_drops, 1, "exactly the refused datagram is lost");
        assert_eq!(pending.len(), 2, "the rest outlives the socket");
        assert_eq!(pending.seg(0).0, payloads[2].as_slice());
    }

    #[test]
    fn eintr_retries_in_place_without_losing_position() {
        let mut queue = queue_of(&[b"a", b"b"], addr());
        let script = vec![Ok(1), Err(io::Error::from(io::ErrorKind::Interrupted)), Ok(1)];
        let (verdict, calls, pending, stats) = drain_scripted(&mut queue, script);
        assert_eq!(verdict, SendVerdict::Drained);
        assert_eq!(calls, vec![0, 1, 1], "the interrupted segment is retried in place");
        assert_eq!(stats.kernel_sent, 2);
        assert_eq!(stats.transients_recovered, 1);
        assert!(pending.is_empty());
    }

    #[test]
    fn misbehaving_sender_cannot_stall_or_overrun() {
        let mut queue = queue_of(&[b"a", b"b"], addr());
        // Ok(0) would loop forever and Ok(100) would overrun; both clamp.
        let (_, calls, _, stats) = drain_scripted(&mut queue, vec![Ok(0), Ok(100)]);
        assert_eq!(calls, vec![0, 1]);
        assert_eq!(stats.kernel_sent, 2);
    }

    #[test]
    fn error_classes_cover_the_injected_errnos() {
        const CASES: &[(i32, ErrorClass)] = &[
            (4, ErrorClass::Transient),   // EINTR
            (11, ErrorClass::Transient),  // EAGAIN
            (12, ErrorClass::Transient),  // ENOMEM
            (105, ErrorClass::Transient), // ENOBUFS
            (38, ErrorClass::Fatal),      // ENOSYS
            (9, ErrorClass::Fatal),       // EBADF
        ];
        for &(errno, class) in CASES {
            let e = io::Error::from_raw_os_error(errno);
            assert_eq!(classify(&e), class, "errno {errno}");
        }
    }

    /// Sends `queue` from socket 0 of `env` and reads socket 1 once the
    /// loopback has delivered: the send and receive counters, and what
    /// arrived.
    fn round_trip(
        env: &mut UdpEnv,
        queue: &mut SendQueue,
    ) -> (ShardStats, ShardStats, Vec<Vec<u8>>) {
        let (mut stats, mut pending) = (ShardStats::default(), SendQueue::default());
        drain_queue(|q, first| env.send_from(0, q, first), queue, &mut pending, &mut stats);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut recv = RecvQueue::new(16, 2048);
        recv.grow();
        recv.grow(); // 4 → 16 slots: the whole backlog fits one call
        let mut rstats = ShardStats::default();
        env.recv(1, recv.capacity(), &mut recv, &mut rstats).expect("recv");
        (stats, rstats, recv.datagrams().map(<[u8]>::to_vec).collect())
    }

    #[test]
    fn fallback_round_trips_a_queue() {
        let (tx, rx, addr) = loopback_pair();
        let mut env = env_of(vec![tx, rx], false);
        let mut queue = queue_of(&[b"one", b"two", b"three"], addr);
        let (stats, rstats, datagrams) = round_trip(&mut env, &mut queue);
        assert_eq!(stats.send_syscalls, 3);
        assert_eq!(stats.kernel_sent, 3);
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
        let mut env = env_of(vec![tx, rx], true);
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 100 + usize::from(i)]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let mut queue = queue_of(&refs, addr);
        let (stats, rstats, datagrams) = round_trip(&mut env, &mut queue);
        assert_eq!(stats.kernel_sent, 10);
        assert_eq!(stats.send_syscalls, 1, "one sendmmsg covers the whole queue");
        assert_eq!(datagrams, payloads, "payloads arrive intact and in order");
        assert_eq!(rstats.recv_syscalls, 1, "one recvmmsg drains the backlog");
        assert_eq!(rstats.kernel_received, 10);
        assert_eq!(rstats.recv_capacity, 16);
    }

    /// The batched path and the portable fallback are one send path to the
    /// wire: the same queue of distinct datagrams, drained through
    /// `sendmmsg` or through one `send_to` each, reaches a plain socket as
    /// the same bytes in the same order, with as many handed to the kernel.
    /// Real sockets: this is the kernel's part.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn both_io_backends_put_one_burst_on_the_wire_alike() {
        if !sys::supported() {
            return; // ancient kernel: one path only
        }
        // 48 datagrams, each size from 8 B to 1 KiB once, each one's bytes
        // its own.
        let sent: Vec<Vec<u8>> = (0..48usize)
            .map(|k| (0..8 + (k * 29 % 48) * 1016 / 47).map(|i| (k * 7 + i) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = sent.iter().map(Vec::as_slice).collect();
        let legs = [true, false].map(|batched| {
            let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
            rx.set_read_timeout(Some(std::time::Duration::from_secs(2))).expect("timeout");
            let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
            let mut env = env_of(vec![tx], batched);
            assert_eq!(env.batched(), batched);
            let mut queue = queue_of(&refs, rx.local_addr().expect("addr"));
            let (mut pending, mut stats) = (SendQueue::default(), ShardStats::default());
            let send = |queue: &SendQueue, first| env.send_from(0, queue, first);
            let verdict = drain_queue(send, &mut queue, &mut pending, &mut stats);
            assert_eq!(verdict, SendVerdict::Drained);
            let mut buf = [0u8; 2048];
            let received: Vec<Vec<u8>> = (0..sent.len())
                .map(|_| {
                    let (len, _) = rx.recv_from(&mut buf).expect("recv");
                    buf[..len].to_vec()
                })
                .collect();
            (received, stats.kernel_sent)
        });
        let [(mmsg, mmsg_sent), (portable, portable_sent)] = legs;
        assert!(mmsg == sent, "the batched path reordered, lost or altered the burst");
        assert!(portable == sent, "the portable path reordered, lost or altered the burst");
        assert_eq!(mmsg_sent, portable_sent, "the paths counted the kernel's datagrams apart");
        assert_eq!(mmsg_sent, sent.len() as u64);
    }

    fn pool(n: usize) -> (Vec<UdpSocket>, Vec<SocketAddr>) {
        let sockets: Vec<UdpSocket> =
            (0..n).map(|_| UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind")).collect();
        let addrs = sockets.iter().map(|s| s.local_addr().expect("addr")).collect();
        (sockets, addrs)
    }

    #[test]
    fn wait_on_quiet_sockets_times_out_with_nothing_flagged() {
        if !mmsg_active() {
            return; // no ppoll here: the portable wait has its own test
        }
        let mut env = env_of(pool(3).0, true);
        let mut set = vec![PollFd::BLIND; 7]; // stale slots must not survive
        let timeout = Duration::from_micros(3_500);
        let started = Instant::now();
        env.wait(Duration::ZERO, timeout, &mut set).expect("wait");
        assert!(
            started.elapsed() >= ClusterClock::to_std(timeout),
            "the wait returned early with nothing to read"
        );
        assert_eq!(set.len(), 3, "one slot per socket");
        assert!(!set.iter().any(PollFd::flagged));
    }

    #[test]
    fn wait_flags_exactly_the_socket_that_was_written_to() {
        if !mmsg_active() {
            return;
        }
        let (sockets, addrs) = pool(4);
        let mut env = env_of(sockets, true);
        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        tx.send_to(b"wake", addrs[2]).expect("send");
        let mut set = Vec::new();
        // Far longer than loopback delivery: returning at all means the
        // datagram, not the clock, ended the wait.
        let timeout = Duration::from_secs(20);
        let started = Instant::now();
        env.wait(Duration::ZERO, timeout, &mut set).expect("wait");
        assert!(started.elapsed() < ClusterClock::to_std(timeout));
        let flagged: Vec<bool> = set.iter().map(PollFd::flagged).collect();
        assert_eq!(flagged, [false, false, true, false]);
        // Readiness is level-triggered: unread data flags again, and a
        // zero timeout only looks.
        env.wait(Duration::ZERO, Duration::ZERO, &mut set).expect("wait");
        assert!(set[2].flagged());
    }

    #[test]
    fn portable_wait_flags_every_socket_without_sleeping() {
        let mut env = env_of(pool(3).0, false);
        let mut set = Vec::new();
        // Fifty waits in well under fifty quanta: sleeps only overshoot, so
        // not one of them slept past its dwell — the dwell is the portable
        // path's only sleep, or it would wake every other quantum.
        let started = Instant::now();
        for _ in 0..50 {
            env.wait(Duration::ZERO, Duration::from_secs(20), &mut set).expect("wait");
        }
        assert!(
            started.elapsed() < ClusterClock::to_std(WAKE_QUANTUM * 25),
            "the portable wait slept"
        );
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
        let mut recv = RecvQueue::new(4, 512);
        let mut stats = ShardStats::default();
        for batched in [false, true] {
            let mut env = env_of(pool(1).0, batched);
            assert_eq!(env.recv(0, 4, &mut recv, &mut stats).expect("recv"), 0);
        }
        assert_eq!(stats.recv_syscalls, 0, "empty reads are not data-bearing");
    }
}
